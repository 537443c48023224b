import functools
import gc
import itertools
import time
import weakref
from collections import Counter

import pytest

from steenrod.action import SqAlgebraPresentation, TotalSquare
from steenrod.algebra import admissible_basis, binom_mod2
from steenrod import charclass
from steenrod.charclass import (
    _PACK_LIMIT,
    SPACES,
    ModelError,
    QuotientModel,
    _row_basis,
    _unpack,
    _wu_generator,
    model,
    mono_from,
    poly_mul,
    poly_square,
    power_sum_vanishing_check,
    s17_naive_substitution,
    spinc_homology_indecomposables,
)
from steenrod.f2 import F2Matrix, WeightedPolyRing, geometric_series_product


def w(*parts):
    return frozenset({mono_from(parts)})


def fresh_model_cache(monkeypatch):
    """Give charclass.model a cache of its own for one test, so the models
    it builds are freed after it and no other test sees them."""
    monkeypatch.setattr(charclass, "model", functools.lru_cache(maxsize=None)(model.__wrapped__))


@functools.lru_cache(maxsize=None)
def upstream(n):
    """s_n mod 2 in H*BO by the Newton recursion
    s_n = sum_{i<n} w_i s_{n-i} + n w_n, even n being squares by Frobenius:
    the reference the models' own recursion is compared with, kept apart
    from every model."""
    if n % 2 == 0:
        return poly_square(upstream(n // 2))
    acc = set(w(n))  # n w_n, n odd
    for i in range(1, n):
        wi = mono_from([i])
        acc ^= {k + wi for k in upstream(n - i)}
    return frozenset(acc)


def upstream_two_row(m):
    """s_{m,m} mod 2 in H*BO, from the bo model, where nothing is killed."""
    return model("bo", 40).two_row(m)


# ---------------------------------------------------------------------------
# sparse reference forms: monomials as sorted ((index, exponent), ...) tuples
# ---------------------------------------------------------------------------


def _pack(m):
    return sum(e << (8 * (i - 1)) for i, e in m)


def wmono_from(parts):
    d = {}
    for p in parts:
        d[p] = d.get(p, 0) + 1
    return tuple(sorted(d.items()))


def wmono_mul(a, b):
    d = dict(a)
    for i, e in b:
        d[i] = d.get(i, 0) + e
    return tuple(sorted(d.items()))


def sparse_poly_mul(a, b):
    acc = set()
    for x in a:
        for y in b:
            acc ^= {wmono_mul(x, y)}
    return frozenset(acc)


def _int_add(acc, other, scale=1):
    for m, c in other.items():
        v = acc.get(m, 0) + scale * c
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def _int_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = wmono_mul(m1, m2)
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


@functools.lru_cache(maxsize=None)
def _power_sum_packed(n):
    """s_n over the integers on packed monomials, by the Newton recursion
    s_n = sum_{i<n} (-1)^(i-1) w_i s_{n-i} + (-1)^(n-1) n w_n (the shared
    dict is read only)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = {1 << (8 * (n - 1)): n if n % 2 else -n}
    for i in range(1, n):
        wi = 1 << (8 * (i - 1))
        sign = 1 if i % 2 else -1
        for k, c in _power_sum_packed(n - i).items():
            k += wi
            v = acc.get(k, 0) + sign * c
            if v:
                acc[k] = v
            else:
                del acc[k]
    return acc


@functools.lru_cache(maxsize=None)
def power_sum_int(n):
    """s_n over the integers in the classes w_i, sorted by monomial."""
    return tuple(sorted((_unpack(k), c) for k, c in _power_sum_packed(n).items()))


def power_sum_in_w(n, mod2=True):
    """The power sum s_n in elementary symmetric coordinates."""
    if mod2:
        return upstream(n)
    return dict(power_sum_int(n))


def sparse(p):
    """A packed polynomial in the sparse form."""
    return frozenset(map(_unpack, p))


def var_power_sum(n, nvars):
    """Oracle: literal sum of n-th powers in nvars variables."""
    return {tuple(n if j == i else 0 for j in range(nvars)) for i in range(nvars)}


def var_elementary(j, nvars):
    out = set()
    for combo in itertools.combinations(range(nvars), j):
        out.add(tuple(1 if i in combo else 0 for i in range(nvars)))
    return out


def var_mul(a, b):
    acc = set()
    for x in a:
        for y in b:
            m = tuple(p + q for p, q in zip(x, y))
            acc.symmetric_difference_update({m})
    return acc


def evaluate_in_vars(poly, nvars):
    """Substitute w_i -> e_i(x_1..x_nvars) into a mod-2 w-polynomial."""
    acc = set()
    for mono in map(_unpack, poly):
        term = {(0,) * nvars}
        for i, e in mono:
            if i > nvars:
                term = set()
                break
            for _ in range(e):
                term = var_mul(term, var_elementary(i, nvars))
        acc.symmetric_difference_update(term)
    return acc


class TestNewton:
    def test_s1(self):
        assert power_sum_in_w(1, mod2=False) == {((1, 1),): 1}

    def test_s4_integer_coefficients(self):
        want = {
            ((1, 4),): 1,
            ((1, 2), (2, 1)): -4,
            ((1, 1), (3, 1)): 4,
            ((2, 2),): 2,
            ((4, 1),): -4,
        }
        assert power_sum_in_w(4, mod2=False) == want

    def test_s2_mod2_is_w1_squared(self):
        assert upstream(2) == w(1, 1)

    def test_power_sums_against_variable_oracle(self):
        for n in range(1, 9):
            for nvars in (n, n + 1):
                got = evaluate_in_vars(upstream(n), nvars)
                assert got == var_power_sum(n, nvars), n

    def test_stability_in_the_variable_count(self):
        # the same w-expression works for any number of variables >= n
        for n in (3, 5, 6):
            for nvars in (n, n + 1, n + 3):
                assert evaluate_in_vars(upstream(n), nvars) == var_power_sum(
                    n, nvars
                )


class TestTwoRow:
    def test_s11_is_w2_by_direct_expansion(self):
        # oracle: sum_{i<j} x_i x_j in four variables is e_2
        nvars = 4
        direct = set()
        for i in range(nvars):
            for j in range(i + 1, nvars):
                m = [0] * nvars
                m[i] = m[j] = 1
                direct.add(tuple(m))
        assert direct == var_elementary(2, nvars)
        assert upstream_two_row(1) == w(2)

    def test_s33_variable_oracle(self):
        # m_{(3,3)} = sum_{i<j} x_i^3 x_j^3 in 6 variables
        nvars = 6
        direct = set()
        for i in range(nvars):
            for j in range(i + 1, nvars):
                m = [0] * nvars
                m[i] = m[j] = 3
                direct.add(tuple(m))
        assert evaluate_in_vars(upstream_two_row(3), nvars) == direct

    def test_s33_in_the_bspinc_model(self):
        got = model("bspinc", 20).two_row(3)
        want = w(2, 2, 2) ^ w(2, 4) ^ w(6)
        assert got == want

    def test_two_row_of_even_is_square(self):
        assert upstream_two_row(6) == poly_square(upstream_two_row(3))

    def test_two_row_of_even_matches_the_newton_layer_through_12(self):
        # oracle: (s_n^2 - s_2n)/2 over the integers, without Frobenius
        for n in range(2, 13, 2):
            s_n = dict(power_sum_int(n))
            diff = _int_mul(s_n, s_n)
            _int_add(diff, dict(power_sum_int(2 * n)), -1)
            assert all(c % 2 == 0 for c in diff.values()), n
            want = frozenset(m for m, c in diff.items() if (c // 2) % 2)
            assert sparse(upstream_two_row(n)) == want, n


@functools.lru_cache(maxsize=None)
def newton_oracle(n):
    """s_n over the integers by the Newton recursion on sparse monomials
    (the shared dict is read only)."""
    acc = {}
    for i in range(1, n):
        _int_add(acc, _int_mul({((i, 1),): 1}, newton_oracle(n - i)), (-1) ** (i - 1))
    _int_add(acc, {((n, 1),): n}, (-1) ** (n - 1))
    return acc


class TestPackedMonomials:
    def test_pack_add_and_shift_match_the_sparse_forms_through_12(self):
        monos = [wmono_from(p) for d in range(13) for p in partitions(d, least=1)]
        assert len(monos) == len(set(monos)) == 272
        for a in monos:
            assert _unpack(_pack(a)) == a
            assert _unpack(_pack(a) << 1) == tuple((i, 2 * e) for i, e in a)
            for b in monos:
                assert _unpack(_pack(a) + _pack(b)) == wmono_mul(a, b), (a, b)

    def test_fields_are_exact_up_to_the_limit(self):
        top = _PACK_LIMIT - 1
        assert _unpack(_pack(((1, 200),)) + _pack(((1, 55),))) == ((1, top),)
        assert _unpack(_pack(((1, 127), (2, 64))) << 1) == ((1, 254), (2, 128))
        assert _unpack(_pack(((top, 1),))) == ((top, 1),)
        ring = model("bo", top)
        for m in (127, 128, 200, 254):
            for i in range(top - m + 1):
                want = w(*[1] * (m + i)) if binom_mod2(m, i) else frozenset()
                assert ring.sq(i, w(*[1] * m)) == want, (m, i)
        for j in (200, 250, top):
            for i in range(top - j + 1):
                assert ring.sq(i, w(j)) == _wu_generator(i, j), (j, i)

    def test_power_sum_int_matches_the_sparse_recursion_through_16(self):
        for n in range(1, 17):
            assert power_sum_int(n) == tuple(sorted(newton_oracle(n).items())), n

    def test_two_row_of_odd_matches_the_newton_layer_through_9(self):
        # oracle: (s_n^2 - s_2n)/2 over the integers on sparse monomials
        for n in range(1, 10, 2):
            diff = _int_mul(newton_oracle(n), newton_oracle(n))
            _int_add(diff, newton_oracle(2 * n), -1)
            assert all(c % 2 == 0 for c in diff.values()), n
            want = frozenset(m for m, c in diff.items() if (c // 2) % 2)
            assert sparse(upstream_two_row(n)) == want, n

    def test_product_and_square_match_the_sparse_forms_through_8(self):
        polys = [w(*p) for d in range(1, 9) for p in partitions(d, least=1)]
        polys += [a ^ b for a, b in zip(polys, polys[3:])]
        for a in polys[::3]:
            assert sparse(poly_square(a)) == sparse_poly_mul(sparse(a), sparse(a))
            for b in polys[::5]:
                assert sparse(poly_mul(a, b)) == sparse_poly_mul(sparse(a), sparse(b))

    def test_degrees_past_the_limit_raise(self):
        for space in SPACES:
            with pytest.raises(ValueError, match="passes the packed degree limit 255"):
                QuotientModel(space, _PACK_LIMIT)
        top = QuotientModel("bo", _PACK_LIMIT - 1)
        with pytest.raises(ValueError):
            top.power_sum(_PACK_LIMIT)
        with pytest.raises(ValueError):
            top.two_row(_PACK_LIMIT // 2)  # s_256 would carry


def integer_two_row(n):
    """Oracle: s_{n,n} mod 2 from (s_n^2 - s_2n)/2 over the integers."""
    s_n = _power_sum_packed(n)
    diff = {k: -c for k, c in _power_sum_packed(2 * n).items()}
    for k1, c1 in s_n.items():
        for k2, c2 in s_n.items():
            diff[k1 + k2] = diff.get(k1 + k2, 0) + c1 * c2
    assert all(c % 2 == 0 for c in diff.values()), n
    return frozenset(k for k, c in diff.items() if (c // 2) % 2)


def restricted(p, killed):
    """p with the generators w_i, i in killed, set to zero."""
    mask = sum(255 << (8 * (i - 1)) for i in killed)
    return frozenset(k for k in p if not k & mask)


def corrupted_two_row(mdl, n, k, by):
    """mdl.two_row(n) with the coefficient of k in the model's s_2n mod 4
    raised by `by`; the model's memos are restored afterwards."""
    real = lo, hi = mdl._mod4(2 * n)
    for _ in range(by):
        lo, hi = (lo - {k}, hi ^ {k}) if k in lo else (lo | {k}, hi)
    mdl._mod4_cache[2 * n] = lo, hi
    mdl._two_row_cache.clear()
    try:
        return mdl.two_row(n)
    finally:
        mdl._mod4_cache[2 * n] = real
        mdl._two_row_cache.clear()


class TestNewtonMod4:
    def test_mod4_layer_is_the_integer_layer_mod_4_through_16(self):
        bo = model("bo", 40)
        for n in range(1, 17):
            lo, hi = bo._mod4(n)
            mod4 = {k: c % 4 for k, c in _power_sum_packed(n).items()}
            assert lo == {k for k, c in mod4.items() if c & 1}, n
            assert hi == {k for k, c in mod4.items() if c & 2}, n
            assert lo == upstream(n), n

    def test_two_row_of_odd_matches_the_packed_integer_layer_through_17(self):
        for n in range(1, 18, 2):
            assert upstream_two_row(n) == integer_two_row(n), n

    def test_killed_ring_layers_are_the_integer_layer_restricted_through_34(self):
        for space in ("bso", "bspin", "bspinc"):
            mdl = model(space, 34)
            for n in range(1, 35):
                mod4 = {k: c % 4 for k, c in _power_sum_packed(n).items()}
                planes = ({k for k, c in mod4.items() if c & b} for b in (1, 2))
                assert mdl._mod4(n) == tuple(restricted(p, mdl.killed) for p in planes)
            for n in range(1, 18, 2):
                assert mdl.two_row(n) == mdl.phi(integer_two_row(n)), (space, n)

    # the bo model's ring is the upstream one; bspin and bspinc read their
    # two-row sums from the ring without the generators phi kills
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_a_coefficient_off_by_one_raises(self, n):
        for space in ("bo", "bspin", "bspinc"):
            mdl = QuotientModel(space, 20)
            lo, hi = mdl._mod4(2 * n)
            for k in sorted(lo)[:3] + sorted(hi - lo)[:3] + [mono_from([n, n - 1, 1])]:
                with pytest.raises(ArithmeticError, match=f"odd coefficient in s_{n},{n}"):
                    corrupted_two_row(mdl, n, k, 1)

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_a_coefficient_off_by_two_changes_the_result(self, n):
        for space in ("bo", "bspin", "bspinc"):
            mdl = QuotientModel(space, 20)
            want = mdl.phi(integer_two_row(n))
            lo, hi = mdl._mod4(2 * n)
            for k in sorted(lo)[:3] + sorted(hi - lo)[:3] + [mono_from([n, n - 1, 1])]:
                got = corrupted_two_row(mdl, n, k, 2)
                # phi sends the w_1 monomial to zero outside bo
                assert got ^ want == mdl.phi(frozenset({k})), (space, k)
                assert (got != want) == (space == "bo" or not k & 255), (space, k)


def first_power_sum_mismatch(mdl, top):
    """The least n <= top where the model's Newton layer differs from phi of
    the upstream s_n, or None."""
    return next(
        (n for n in range(1, top + 1) if mdl.power_sum(n) != mdl.phi(upstream(n))),
        None,
    )


class TestNewtonInTheModel:
    """The model-side Newton layer against phi of the upstream one."""

    @pytest.mark.parametrize("space", SPACES)
    def test_power_sums_are_phi_of_the_upstream_sums_through_40(self, space):
        assert first_power_sum_mismatch(model(space, 40), 40) is None

    @pytest.mark.parametrize("space", ["bspin", "bspinc"])
    def test_killed_ring_two_row_sums_are_phi_of_the_upstream_ones(self, space):
        mdl = model(space, 40)
        for m in (3, 5, 9, 17):
            assert mdl.two_row(m) == mdl.phi(upstream_two_row(m)), m

    def test_the_killed_generators_are_the_ones_phi_sends_to_zero(self):
        want = {"bo": set(), "bso": {1}, "bspin": {1, 2, 3, 5, 9}, "bspinc": {1, 3, 5}}
        for space in SPACES:
            mdl = model(space, 40)
            assert mdl.killed == want[space], space
            for i in range(1, 41):
                assert (not mdl.phi(w(i))) == (i in mdl.killed), (space, i)

    @pytest.mark.parametrize("space", SPACES)
    def test_a_flipped_generator_image_fails_the_oracle(self, space):
        for j in (1, 2, 3, 17, 33):
            mdl = QuotientModel(space, 40)
            mdl._w_images[j] = mdl._w_images[j] ^ w(j)  # the recursion's copy only
            bad = first_power_sum_mismatch(mdl, 40)
            assert bad is not None, j
            if j % 2:
                assert bad == j, j

    def test_power_sums_past_the_cap_raise(self):
        mdl = model("bspin", 20)
        for n in (0, 21):
            with pytest.raises(ValueError):
                mdl.power_sum(n)
        assert mdl.two_row(5) == mdl.phi(upstream_two_row(5))
        for m in (0, 11, 17):
            with pytest.raises(ValueError):
                mdl.two_row(m)

    def test_phi_of_a_generator_past_the_cap_raises(self):
        low, high = model("bspin", 20), model("bspin", 40)
        assert len(high.phi(w(33))) == 41  # rho_33, unknown to the cap-20 model
        with pytest.raises(ValueError, match="w_33 lies above the cap 20"):
            low.phi(w(33))
        with pytest.raises(ValueError, match="w_21"):
            low.phi(w(2, 21))
        assert low.phi(w(20)) == high.phi(w(20))


class TestWuFormula:
    def test_against_cartan_on_roots(self):
        # oracle: the rank-one root model with the action engine
        nvars = 5
        ring = WeightedPolyRing(tuple((f"x{i}", 1) for i in range(nvars)))
        pres = SqAlgebraPresentation.build(ring, {})
        wring = model("bo", 2 * nvars)

        def to_f2poly(monos):
            return ring.from_monomials(monos)

        for j in range(1, nvars + 1):
            ej = to_f2poly(var_elementary(j, nvars))
            for i in range(0, j + 1):
                got_roots = pres.sq(i, ej)
                wu = wring.sq(i, w(j))
                want = to_f2poly(evaluate_in_vars(wu, nvars))
                assert got_roots == want, (i, j)

    def test_instability(self):
        wring = model("bo", 20)
        assert wring.sq(4, w(3)) == frozenset()
        assert wring.sq(3, w(3)) == w(3, 3)

    def test_sq1_w2(self):
        assert model("bo", 20).sq(1, w(2)) == w(1, 2) ^ w(3)
        assert model("bso", 20).sq(1, w(2)) == w(3)


class TestInducedAction:
    """The model's own action is the one H*BSO induces: phi commutes with Sq."""

    @pytest.mark.parametrize("space", ["bspin", "bspinc"])
    def test_phi_commutes_with_sq_from_bso_at_cap_24(self, space):
        mdl, ambient = model(space, 24), model("bso", 24)
        for d in range(13):
            for m in ambient.slice_monomials(d):
                for i in range(24 - d + 1):
                    assert mdl.sq(i, mdl.phi({m})) == mdl.phi(ambient.sq(i, {m})), (m, i)

    def test_a_w1_monomial_squares_to_zero_off_bo(self):
        for space in ("bso", "bspin", "bspinc"):
            mdl = model(space, 20)
            for p in (w(1), w(1, 1, 3), w(1, 4)):
                for i in range(4):
                    assert mdl.sq(i, p) == frozenset(), (space, p, i)
        bo = model("bo", 20)
        assert bo.sq(1, w(1)) == w(1, 1)
        assert bo.sq(1, w(1, 4)) == w(1, 5)  # w1^2 w4 + w1 (w1 w4 + w5)


class TestTopDegree:
    def test_truncated_squares_match_the_unbounded_ring_through_14(self):
        top = 14
        for space in ("bo", "bso"):
            full, cut = model(space, _PACK_LIMIT - 1), QuotientModel(space, top)
            for d in range(1, top + 1):
                for parts in partitions(d, least=1):
                    p = w(*parts)
                    for i in range(top - d + 1):
                        assert cut.sq(i, p) == full.sq(i, p), (space, parts, i)

    def test_square_past_the_top_raises(self):
        ring = QuotientModel("bso", 10)
        assert ring.sq(4, w(6)) == model("bso", _PACK_LIMIT - 1).sq(4, w(6))
        for i, p in ((5, w(6)), (1, w(10)), (0, w(11)), (2, w(4) ^ w(3, 6))):
            with pytest.raises(ValueError):
                ring.sq(i, p)
        with pytest.raises(ValueError):
            model("bspin", 20).sq(1, w(20))

    def test_cap_34_reductions_match_cap_40(self, monkeypatch):
        # and cap 64 matches cap 96, built in a model cache of their own so
        # that the cap-96 bso square their steps are re-read through is freed
        for space in ("bspin", "bspinc"):
            low, high = model(space, 34), model(space, 40)
            assert low.reductions == {e: r for e, r in high.reductions.items() if e <= 34}
        cached = {space: model(space, 64) for space in ("bspin", "bspinc")}
        fresh_model_cache(monkeypatch)
        for space, low in cached.items():
            high = QuotientModel(space, 96)
            assert 65 in high.reductions, space
            assert low.reductions == {e: r for e, r in high.reductions.items() if e <= 64}


class TestModels:
    def test_bspin_reduction_of_w17(self):
        m = model("bspin", 20)
        assert m.reductions[17] == w(7, 10) ^ w(6, 11) ^ w(4, 13)

    def test_reductions_decomposable(self):
        for space in ("bspin", "bspinc"):
            for e, rho in model(space, 20).reductions.items():
                for mono in map(_unpack, rho):
                    assert sum(exp for _, exp in mono) >= 2, (space, e)

    def test_slice_dimensions_match_partition_counts(self):
        m = model("bspinc", 20)
        series = geometric_series_product(m.generator_degrees(14), 14)
        for n in range(1, 15):
            assert series[n] == len(list(m.slice_monomials(n)))

    def test_stability_validation_catches_a_wrong_reduction(self):
        m = QuotientModel("bspinc", 20)
        m.reductions[9] = frozenset()  # pretend w_9 reduces to zero
        m._phi_cache.clear()
        with pytest.raises(ModelError):
            m._validate_reductions()

    def test_phi_drops_w1_terms(self):
        for space in ("bso", "bspin", "bspinc"):
            m = model(space, 20)
            assert m.phi(w(1, 3) ^ w(4)) == m.phi(w(4)), space
            assert m.phi(w(1)) == m.phi(w(1, 1, 6)) == frozenset(), space
        assert model("bspinc", 20).phi(w(1, 3) ^ w(4)) == w(4)
        assert model("bo", 20).phi(w(1, 3) ^ w(4)) == w(1, 3) ^ w(4)

    def test_clean_drops_exactly_the_w1_monomials(self):
        p = w(1) ^ w(1, 1, 3) ^ w(2, 3) ^ w() ^ w(4, 4)
        assert model("bso", 20).phi(p) == w(2, 3) ^ w() ^ w(4, 4)
        assert model("bo", 20).phi(p) == p

    def test_models_below_the_series_degree_validate_through_the_cap(self):
        for space in ("bspin", "bspinc"):
            for cap in range(4, 41):
                m = QuotientModel(space, cap)
                # the build certifies the ideal by stability: no slice is
                # eliminated until a membership row reads one
                assert m._ideal_basis == [] and m._cyclic_basis == [], (space, cap)
                # the induced table is cut at the cap: past it Wu's formula
                # names classes the model does not know
                for j in m.generator_degrees():
                    if 2 * j > cap:
                        comps = list(m._induced_wu(j))
                        assert len(comps) == min(j, cap - j) + 1, (space, cap, j)
                        named = {i for c in comps for k in c for i, _ in _unpack(k)}
                        assert max(named) <= cap, (space, cap, j)

    def test_a_generator_term_fails_the_decomposability_check(self):
        for space in ("bspin", "bspinc"):
            m = QuotientModel(space, 20)
            for e in (9, 17):
                rho = m.reductions[e]
                for term in (w(e), w(4)):
                    m.reductions[e] = rho ^ term
                    with pytest.raises(ModelError, match=f"reduction of w_{e} has a generator"):
                        m._validate_reductions()
                # a square is a single bit too, but not a generator term
                m.reductions[e] = rho ^ w(4, 4)
                assert "generator term" not in (stability_error(m) or "")
                m.reductions[e] = rho
            assert stability_error(m) is None

    def test_a_flipped_monomial_of_rho33_fails_the_stability_check(self):
        m = QuotientModel("bspinc", 64)
        m.reductions[33] = m.reductions[33] ^ {min(m.reductions[33], key=_unpack)}
        m._phi_cache.clear()
        with pytest.raises(
            ModelError, match=r"^w_33 \+ reduction is not Sq\^16\(w_17 \+ reduction\) in bspinc$"
        ):
            m._validate_reductions()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_a_cyclic_basis_missing_an_element_fails_the_membership_row(self, k, monkeypatch):
        # the cyclic element in degree 2^k + 1 is the only ideal element
        # carrying w_(2^k+1), so without it s_(2^k+1), which carries w_(2^k+1),
        # lies outside the slice the bspin membership row reads
        degree = 2**k + 1
        cyclic_slice = QuotientModel._cyclic_slice

        def short(self, n):
            basis = cyclic_slice(self, n)
            return basis[1:] if n == degree else basis

        monkeypatch.setattr(QuotientModel, "_cyclic_slice", short)
        mdl = QuotientModel("bspin", 34 if degree == 17 else 20)
        rows = {c.check_id: c for c in power_sum_vanishing_check(k, mdl)}
        row = rows[f"exact ideal membership k={k}"]
        assert (row.status, row.witness) == (
            "fail", f"s_{degree} outside the degree-{degree} ideal slice"
        )

    def test_series_validation_passes_on_the_real_models(self):
        # the dimension series the build once computed by elimination, kept
        # as the oracle of the stability certificate: the quotient by the
        # eliminated slices has the allowed generators' partition counts
        for space in ("bspin", "bspinc"):
            for cap in range(4, 41):
                m, top = QuotientModel(space, cap), min(20, cap)
                ambient = geometric_series_product(range(2, top + 1), top)
                allowed = geometric_series_product(m.generator_degrees(top), top)
                for n in range(1, top + 1):
                    assert ambient[n] - len(m._ideal_slice(n)) == allowed[n], (space, cap, n)

    @pytest.mark.parametrize("space", ["bspin", "bspinc"])
    def test_a_wrong_square_into_the_top_degree_fails_the_build_at_every_cap(
        self, space, monkeypatch
    ):
        # Sq^(top-e) w_e, for the largest relation degree e below top =
        # min(20, cap), gains w_top, which only a square into degree top
        # reads: the stability check names it, or, where Sq^(top-e) w_e is a
        # chain step (top = 2e - 1), the step for w_top does
        wu = charclass._wu_generator
        relations = {"bspin": (2, 3, 5, 9, 17), "bspinc": (3, 5, 9, 17)}[space]
        for cap in range(4, 41):
            top = min(20, cap)
            e = max(d for d in relations if d < top)
            i = top - e
            bad = lambda a, b: wu(a, b) ^ (w(top) if (a, b) == (i, e) else frozenset())
            monkeypatch.setattr(charclass, "_wu_generator", bad)
            fresh_model_cache(monkeypatch)
            if top == 2 * e - 1:
                error = rf"^w_{top} \+ reduction is not Sq\^{i}\(w_{e} \+ reduction\) in {space}$"
            else:
                error = rf"^Sq\^{i}\(w_{e} \+ reduction\) escapes the kernel in {space}$"
            with pytest.raises(ModelError, match=error):
                QuotientModel(space, cap)


@functools.lru_cache(maxsize=None)
def squaring_ideal_slices(space):
    """Oracle: the ideal slices through degree 20 as the model once built
    them, taking Sq of every basis element of every lower degree beside the
    w_j products (the ideal does not depend on the cap)."""
    mdl = model(space, 24)
    g = mdl.ideal_generator
    gdeg = sum(i * e for i, e in _unpack(g))
    basis_by_deg = []
    for d in range(21):
        span = [frozenset({g})] if d == gdeg else []
        for m in range(gdeg, d):
            for b in basis_by_deg[m]:
                span.append(model("bso", 24).sq(d - m, b))
                if d - m >= 2:
                    span.append(frozenset(mono_from([d - m]) + mm for mm in b))
        monos = sorted({mm for p in span for mm in p}, key=_unpack)
        index = {mm: k for k, mm in enumerate(monos)}
        rows, basis = [], []
        for p in span:
            row = sum(1 << index[mm] for mm in p)
            for r in rows:
                row = min(row, row ^ r)
            if row:
                rows.append(row)
                rows.sort(reverse=True)
                basis.append(p)
        basis_by_deg.append(basis)
    return basis_by_deg


def squaring_stability_error(mdl, top=None):
    """Oracle: phi(Sq^i(w_e + rho_e)) = 0 through top (by default the cap),
    for every i, squaring each relation by one Sq^i at a time in the
    unreduced ring H*BSO (the bso model of the current model cache); the
    first failure's text, or None."""
    ambient = charclass.model("bso", mdl.cap)
    top = mdl.cap if top is None else top
    for e, rho in sorted(mdl.reductions.items()):
        relation = w(e) ^ rho
        for i in range(1, top - e + 1):
            if mdl.phi(ambient.sq(i, relation)):
                return f"Sq^{i}(w_{e} + reduction) escapes the kernel in {mdl.space}"
    return None


def scanned_reduction(mdl, e):
    """Oracle: rho_e as the model once found it, scanning the admissible
    words of degree e - deg g applied to the ideal generator g in H*BSO for
    the first image that carries w_e.  The rest is reduced by the model's
    phi, which reads only the reductions below e."""
    ambient, g = model("bso", mdl.cap), mdl.ideal_generator
    we = mono_from([e])
    for word in admissible_basis(e - charclass._degree(g)):
        img = frozenset({g})
        for i in reversed(word):
            img = ambient.sq(i, img)
        if we in img:
            return mdl.phi(img - {we})
    return None


def stability_error(mdl):
    mdl._phi_cache.clear()
    try:
        mdl._validate_reductions()
    except ModelError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("space", ["bspin", "bspinc"])
class TestValidationOracles:
    def test_slices_span_the_squaring_oracle_through_cap_24(self, space):
        old = squaring_ideal_slices(space)
        for cap in range(4, 25):
            mdl = QuotientModel(space, cap)
            for n in range(min(20, cap) + 1):
                new = mdl._ideal_slice(n)
                assert len(new) == len(old[n]), (cap, n)
                # equal dimensions, and no old element is independent of new
                assert _row_basis(new + old[n]) == new, (cap, n)
        for n in range(21):
            assert all(mdl._in_ideal(b, n) for b in old[n]), n

    def test_stability_verdicts_match_the_squaring_oracle_through_cap_24(self, space):
        # the build re-reads each reduction's construction step and squares
        # the relations through min(20, cap), the oracle squares every
        # relation by every Sq^i through the cap, or only through min(20,
        # cap): the verdicts must agree, and the build's error must name the
        # flipped w_e
        flips = 0
        for cap in range(4, 25):
            mdl, top = QuotientModel(space, cap), min(20, cap)
            assert squaring_stability_error(mdl) is None
            assert squaring_stability_error(mdl, top) is None
            assert stability_error(mdl) is None
            for e, rho in sorted(mdl.reductions.items()):
                if e > 17:
                    continue
                for mono in mdl.slice_monomials(e):
                    mdl.reductions[e] = rho ^ {mono}
                    got = stability_error(mdl)  # clears the stale phi memo first
                    want = squaring_stability_error(mdl)
                    assert (got is None) == (want is None), (cap, e, mono)
                    assert (got is None) == (squaring_stability_error(mdl, top) is None)
                    assert got is None or got.startswith(f"w_{e} + reduction is not"), got
                    flips += want is not None
                mdl.reductions[e] = rho
        assert flips


class TestSquareChain:
    """The reductions come from one square each, the build certifies each by
    re-reading its square through the bso model, and each model builds one
    total square."""

    @pytest.mark.parametrize("space", ["bspin", "bspinc"])
    def test_reductions_match_the_admissible_word_scan_through_cap_64(self, space):
        mdl = model(space, 64)
        # ascending, so each scan's phi reads reductions already matched
        for e in sorted(set(mdl.reductions) - {1, charclass._degree(mdl.ideal_generator)}):
            assert mdl.reductions[e] == scanned_reduction(mdl, e), (space, e)

    @pytest.mark.parametrize("space", ["bspin", "bspinc"])
    @pytest.mark.parametrize("cap", [40, 64])
    def test_flips_of_rho33_that_the_squaring_oracle_rejects_fail_the_build(self, space, cap):
        # a bounded sweep, about 40 flips a model; the verdicts must agree,
        # as in TestValidationOracles, and the unflipped model passes both
        # checks, the oracle squaring by every Sq^i through the cap
        mdl = QuotientModel(space, cap)
        rho = mdl.reductions[33]
        monos = list(mdl.slice_monomials(33))
        for mono in monos[:: len(monos) // 40 + 1]:
            mdl.reductions[33] = rho ^ {mono}
            got = stability_error(mdl)  # clears the stale phi memo first
            assert squaring_stability_error(mdl) is not None, (space, cap, _unpack(mono))
            assert got == f"w_33 + reduction is not Sq^16(w_17 + reduction) in {space}", got
        mdl.reductions[33] = rho
        assert stability_error(mdl) is None
        assert squaring_stability_error(mdl) is None

    @pytest.mark.parametrize("space", ["bspin", "bspinc"])
    def test_a_flipped_term_of_the_top_square_fails_the_build(self, space, monkeypatch):
        # _find_reduction reads a wrong Sq^16(w_17 + rho_17); the bso square
        # the build re-reads the step through does not
        top_square = charclass._top_square
        flipped = lambda p: top_square(p) ^ (w(4, 29) if w(17) <= p else frozenset())
        monkeypatch.setattr(charclass, "_top_square", flipped)
        error = rf"^w_33 \+ reduction is not Sq\^16\(w_17 \+ reduction\) in {space}$"
        with pytest.raises(ModelError, match=error):
            QuotientModel(space, 40)

    @pytest.mark.parametrize(
        "space, i, j, term, error",
        [
            # read by the bso square only: _top_square has its own closed form
            ("bspin", 16, 17, (4, 29), r"^w_33 \+ reduction is not Sq\^16"),
            ("bspinc", 16, 17, (4, 29), r"^w_33 \+ reduction is not Sq\^16"),
            # w_3 dropped from Sq^1 w_2: phi of the rest is still rho_3 = 0,
            # so only the test for the w_e term sees it
            ("bspin", 1, 2, (3,), r"^w_3 \+ reduction is not Sq\^1"),
            # the base cases Sq^1 w_3 and Sq^2 w_2, caught by the stability check
            ("bspin", 1, 3, (4,), r"^Sq\^1\(w_3 \+ reduction\) escapes the kernel in bspin$"),
            ("bspinc", 1, 3, (4,), r"^Sq\^1\(w_3 \+ reduction\) escapes the kernel in bspinc$"),
            ("bspin", 2, 2, (4,), r"^Sq\^2\(w_2 \+ reduction\) escapes the kernel in bspin$"),
            # Sq^2 w_2 is no base case of bspinc, but its w_17 step reads it
            ("bspinc", 2, 2, (4,), r"^w_17 \+ reduction is not Sq\^8"),
        ],
        ids=["bspin-Sq16w17", "bspinc-Sq16w17", "bspin-Sq1w2", "bspin-Sq1w3", "bspinc-Sq1w3",
             "bspin-Sq2w2", "bspinc-Sq2w2"],
    )
    def test_a_wrong_wu_entry_fails_the_build(self, space, i, j, term, error, monkeypatch):
        # built in a model cache of their own, so no cached model sees the
        # bad table
        wu = charclass._wu_generator
        bad = lambda a, b: wu(a, b) ^ (w(*term) if (a, b) == (i, j) else frozenset())
        monkeypatch.setattr(charclass, "_wu_generator", bad)
        fresh_model_cache(monkeypatch)
        with pytest.raises(ModelError, match=error):
            QuotientModel(space, 40)

    @pytest.mark.parametrize("i", [1, 2, 4, 8, 16])
    def test_a_wrong_square_of_w33_fails_its_own_row(self, i, monkeypatch):
        # every flip of rho_33 already fails the w_17 row (Sq^16 w_17 carries
        # w_33), so the w_33 row is reached through Wu's formula instead.
        # Below cap 65 the build reads no Sq^i w_33 and the model builds; the
        # oracle's row rejects it.  A model cache of their own keeps the bad
        # table from every other test
        wu = charclass._wu_generator
        bad = lambda a, j: wu(a, j) ^ (w(33 + a) if (a, j) == (i, 33) else frozenset())
        monkeypatch.setattr(charclass, "_wu_generator", bad)
        fresh_model_cache(monkeypatch)
        error = squaring_stability_error(QuotientModel("bspin", 63))
        assert error == f"Sq^{i}(w_33 + reduction) escapes the kernel in bspin"

    def test_a_build_induces_one_wu_table_and_keeps_its_square(self, monkeypatch):
        calls = Counter()
        induced_wu = QuotientModel._induced_wu
        total_square = charclass._total_square
        squares = []

        def counting(self, j):
            calls[self, j] += 1
            return induced_wu(self, j)

        def recording(wu, top):
            squares.append((wu.__self__, total_square(wu, top)))
            return squares[-1][1]

        monkeypatch.setattr(QuotientModel, "_induced_wu", counting)
        monkeypatch.setattr(charclass, "_total_square", recording)
        for space in SPACES:
            mdl = QuotientModel(space, 48)
            own = [square for owner, square in squares if owner is mdl]
            assert len(own) == 1 and own[0] is mdl.ring, space
        assert calls and max(calls.values()) == 1


class TestTopSquare:
    """The top-square rule against the total square it replaced in the
    reduction search: the bso model's Sq^(d-1) on degree-d classes."""

    def test_the_rule_matches_the_bso_square_on_every_monomial_through_24(self):
        ambient = model("bso", 48)  # Sq^23 of a degree-24 class lands in 47
        for d in range(1, 25):
            for mono in ambient.slice_monomials(d):
                f = frozenset({mono})
                assert charclass._top_square(f) == ambient.sq(d - 1, f), _unpack(mono)

    @pytest.mark.parametrize("space", ["bspin", "bspinc"])
    def test_the_rule_matches_the_bso_square_on_every_relation_at_cap_64(self, space):
        mdl, ambient = model(space, 64), model("bso", 64)
        found = [e for e in mdl.reductions if e > charclass._degree(mdl.ideal_generator)]
        assert found
        for e in found:
            p = (e + 1) // 2
            relation = mdl.reductions[p] | w(p)
            assert charclass._top_square(relation) == ambient.sq(p - 1, relation), (space, e)

    @pytest.mark.parametrize("space", ["bspin", "bspinc"])
    def test_a_built_model_finds_its_reductions_without_a_total_square(self, space, monkeypatch):
        mdl = model(space, 64)

        def unreachable(*args):
            raise AssertionError("a reduction squared through the engine")

        monkeypatch.setattr(TotalSquare, "components", unreachable)
        for e in set(mdl.reductions) - {1, charclass._degree(mdl.ideal_generator)}:
            assert mdl._find_reduction(e) == mdl.reductions[e], (space, e)


class TestLazyColumns:
    """The Wu columns are pulled only as far as a request reads."""

    @pytest.mark.parametrize("space", SPACES)
    def test_pulled_columns_give_the_components_of_full_ones_through_24(self, space):
        mdl = model(space, 24)
        full = charclass._total_square(lambda j: list(mdl._induced_wu(j)), mdl.cap)
        monos = [(m, d, full.components(m, d)) for d in range(25) for m in mdl.slice_monomials(d)]
        # a request past a list's length reads the whole list, as upto = len - 1 does
        for upto in range(max(len(want) for _, _, want in monos)):
            lazy = charclass._total_square(mdl._induced_wu, mdl.cap)
            for mono, d, want in monos:
                if upto < len(want):
                    got = lazy.components(mono, d, upto)
                    assert upto < len(got) and got == want[: len(got)], (upto, _unpack(mono))

    def test_the_three_cap_40_builds_pull_only_the_122_bso_wu_entries(self, monkeypatch):
        # the bso, bspin and bspinc builds of the primitives suite at cap
        # 40, in a model cache of their own; full columns held 783 entries.
        # The bso square serves the other two models' steps and stability, and
        # their own squares answer no request during a build
        fresh_model_cache(monkeypatch)
        induced_wu = QuotientModel._induced_wu
        components = TotalSquare.components
        pulled, answered = Counter(), []

        def counting(self, j):
            for entry in induced_wu(self, j):
                pulled[self.space] += 1
                yield entry

        def answering(self, *args):
            answered.append(self)
            return components(self, *args)

        monkeypatch.setattr(QuotientModel, "_induced_wu", counting)
        monkeypatch.setattr(TotalSquare, "components", answering)
        ring = {space: charclass.model(space, 40).ring for space in ("bso", "bspin", "bspinc")}
        assert pulled == {"bso": 122}
        assert answered and all(square is ring["bso"] for square in answered)

    def test_each_generator_coproduct_is_computed_once(self, monkeypatch):
        mdl = QuotientModel("bspin", 20)
        phi = QuotientModel.phi
        calls = []

        def counting(self, p):
            calls.append(p)
            return phi(self, p)

        monkeypatch.setattr(QuotientModel, "phi", counting)
        kernel = mdl.kernel_primitives(16)
        first = len(calls)
        assert first and mdl.kernel_primitives(16) == kernel
        assert mdl.delta_generator(4) is mdl.delta_generator(4)
        assert len(calls) == first


def coeff_wm_wm(mdl, mono, m):
    """Oracle: coefficient of w_m (x) w_m in Delta of a model basis monomial.

    Sound because the reductions are decomposable: a single-generator tensor
    factor can only come from a raw splitting, never through phi.
    """
    total = 0
    items = list(mono)
    for idx, (g, e) in enumerate(items):
        if g < m:
            continue
        r = g - m
        rest = [(gg, ee - 1 if k == idx else ee) for k, (gg, ee) in enumerate(items)]
        rest = tuple((gg, ee) for gg, ee in rest if ee > 0)
        if r == 0:
            right = rest
        elif mdl.is_allowed(r):
            right = wmono_mul(rest, ((r, 1),))
        else:
            continue  # phi(w_r) is decomposable or zero: never a single w_m
        if right == ((m, 1),):
            total ^= e & 1
    return total


def scanned_generator_indicator(mdl, k):
    """Oracle: the generator indicator by a scan over every slice monomial."""
    if k < 1 or not mdl.is_allowed(k):
        return 0
    if k % 2:
        return 1
    m = k // 2
    if m < (1 if mdl.space == "bo" else 2) or not mdl.is_allowed(m):
        return 1
    for mono in map(_unpack, mdl.slice_monomials(k)):
        want = 1 if mono == ((k, 1),) else 0
        if coeff_wm_wm(mdl, mono, m) != want:
            return 1
    return 0


def partitions(n, least=2):
    """Every multiset of parts >= least summing to n, as sorted tuples."""
    if n == 0:
        yield ()
        return
    for p in range(least, n + 1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


class TestGeneratorIndicator:
    def test_closed_form_matches_the_coproduct_scan_through_24(self):
        for space in SPACES:
            mdl = model(space, 24)
            for k in range(1, 25):
                assert mdl.generator_indicator(k) == scanned_generator_indicator(mdl, k), (
                    space,
                    k,
                )


class TestIdealMembership:
    def test_membership_fails_outside_the_ideal(self):
        spin = model("bspin", 20)
        assert not spin._in_ideal(w(4), 4)  # w4 occurs in no ideal element
        assert spin._in_ideal(upstream(5), 5)
        spinc = model("bspinc", 20)
        # w9 occurs in the degree-9 ideal slice but is not in its span
        assert spinc.reductions[9] == w(2, 7)
        assert not spinc._in_ideal(w(9), 9)
        assert spinc._in_ideal(w(9) ^ w(2, 7), 9)

    def test_membership_is_the_kernel_of_phi_through_9(self):
        # the stability certificate makes the ideal exactly the kernel of phi
        for space in ("bspin", "bspinc"):
            mdl = model(space, 20)
            for n in range(2, 10):
                monos = [w(*parts) for parts in partitions(n)]
                for p in monos + [a ^ b for a, b in itertools.combinations(monos, 2)]:
                    assert mdl._in_ideal(p, n) == (not mdl.phi(p)), (space, p)


def expected_dimension(space, n):
    """Oracle: the closed-form primitive dimension of degree n, one in every
    degree from the first except in bspin and bspinc at 2^s + 1 (s >= 1)."""
    first = {"bo": 1, "bso": 2, "bspin": 4, "bspinc": 2}[space]
    empty = space in ("bspin", "bspinc") and n % 2 == 1 and bin(n).count("1") == 2
    return 1 if n >= first and not empty else 0


class TestPrimitives:
    def test_the_oracle_names_exactly_the_degrees_with_a_candidate(self):
        for space in SPACES:
            mdl = model(space, 64)
            for n in range(65):
                assert expected_dimension(space, n) == (mdl.named_candidate(n) is not None), (
                    space,
                    n,
                )

    def test_bso_degree_2(self):
        r = model("bso", 20).primitives(2, kernel_limit=10)
        assert (r.dimension, r.formula, r.verified) == (1, "w2", True)
        assert r.polynomial == w(2)

    def test_bspin_empty_degrees(self):
        m = model("bspin", 20)
        for s in (1, 2, 3):
            n = 2**s + 1
            r = m.primitives(n)
            assert r.dimension == 0 and r.verified

    def test_bspinc_degree_6(self):
        r = model("bspinc", 20).primitives(6, kernel_limit=10)
        assert r.dimension == 1 and r.verified
        assert r.polynomial == w(2, 2, 2) ^ w(2, 4) ^ w(6)

    def test_kernel_agrees_with_structure_through_12(self):
        for space in ("bso", "bspin", "bspinc"):
            m = model(space, 20)
            for n in range(2, 13):
                r = m.primitives(n, kernel_limit=12)
                assert r.kernel_checked and r.verified, (space, n)
                assert r.dimension == expected_dimension(space, n)

    def test_kernel_primitives_match_the_matrix_kernel_through_12(self):
        # oracle: the kernel of the transpose of the matrix whose rows are
        # the reduced coproducts of the slice monomials, columns in sorted order
        for space in ("bso", "bspin", "bspinc"):
            m = model(space, 20)
            for n in range(2, 13):
                basis = list(m.slice_monomials(n))
                images = [m.delta_reduced(frozenset({mono})) for mono in basis]
                col = {pair: j for j, pair in enumerate(sorted(set().union(*images)))}
                rows = [sum(1 << col[pair] for pair in img) for img in images]
                want = F2Matrix(len(basis), len(col), rows).transpose().kernel_basis()
                got = [sum(1 << basis.index(mono) for mono in p) for p in m.kernel_primitives(n)]
                assert len(got) == len(want) == expected_dimension(space, n), (space, n)
                # one space: got is independent, and stacking both adds no rank
                assert F2Matrix(len(got), len(basis), got).rank() == len(got)
                stacked = [v.bits for v in want] + got
                assert F2Matrix(len(stacked), len(basis), stacked).rank() == len(want), (space, n)

    def test_squares_of_primitives_are_primitive(self):
        m = model("bso", 20)
        for n in (2, 3, 5):
            _, poly = m.named_candidate(n)
            assert not m.delta_reduced(poly_square(poly))

    def test_each_named_candidate_is_built_once(self, monkeypatch):
        built = []
        build = QuotientModel._build_candidate

        def counting(self, n):
            built.append(n)
            return build(self, n)

        monkeypatch.setattr(QuotientModel, "_build_candidate", counting)
        m = QuotientModel("bspin", 40)
        for n in range(2, 41):
            m.primitives(n)
        assert sorted(built) == list(range(2, 41))

    def test_cap_enforced(self):
        with pytest.raises(ModelError):
            model("bso", 20).primitives(21)

    def test_a_model_whose_primitives_were_read_is_freed(self):
        # the primitivity certificates memoise on the model, not on the class
        m = QuotientModel("bspin", 20)
        assert all(m.primitives(n).verified for n in range(2, 21))
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None

    def test_a_nonzero_phi_of_s17_fails_the_two_row_certificate(self):
        # (s17,17) is the bspin primitive of degree 34 only because
        # phi(s17) = 0; hand the certificate a nonzero s17 and degree 34
        # alone loses its verified flag
        m = QuotientModel("bspin", 40)
        for n in (32, 34, 36):
            m.named_candidate(n)  # built before the corruption
        # the model's Newton layer with w_17 -> 0 in place of rho_17 gives
        # the naive substitution
        m._w_images[17] = frozenset()
        assert m.power_sum(17) == s17_naive_substitution() != frozenset()
        assert not m.primitives(34).verified
        assert m.primitives(32).verified and m.primitives(36).verified

    @pytest.mark.parametrize(
        "space, g, lost",
        [
            ("bso", 2, [2, 4, 8, 16, 32]),
            ("bspin", 4, [4, 8, 16, 32]),
            ("bspinc", 2, [2, 4, 8, 16, 32]),
        ],
    )
    def test_a_cross_term_in_delta_w_g_fails_the_coproduct_certificate(
        self, space, g, lost, monkeypatch
    ):
        # w_g and its powers w_g^(2^k) are certified through the reduced
        # coproduct of w_g; a cross term w_{g/2} (x) w_{g/2} in Delta(w_g)
        # makes exactly those degrees lose their verified flag
        half = mono_from([g // 2])
        honest = QuotientModel.delta_generator

        def corrupted(self, j):
            delta = honest(self, j)
            return delta ^ {(half, half)} if j == g else delta

        monkeypatch.setattr(QuotientModel, "delta_generator", corrupted)
        m = QuotientModel(space, 40)
        assert [n for n in range(2, 41) if not m.primitives(n).verified] == lost

    def test_a_nonzero_phi_of_s3_fails_the_even_two_row_certificate(self):
        # in bspinc, s_{m,m} with m = 3 * 2^c is (s_{3,3})^(2^c) mod 2, so
        # degrees 6, 12, 24 and 48 all rest on phi(s3) = 0
        m = QuotientModel("bspinc", 64)
        for n in range(2, 65):
            m.named_candidate(n)  # built before the corruption
        m.power_sum(64)
        m._power_sum_cache[3] = w(3)
        assert [n for n in range(2, 65) if not m.primitives(n).verified] == [6, 12, 24, 48]


class TestPowerSumVanishing:
    def test_k_up_to_3(self):
        for k in range(4):
            rows = power_sum_vanishing_check(k)
            assert [c.status for c in rows] == ["pass"] * 4, (k, rows)

    def test_the_membership_rows_eliminate_slices_only_through_their_degree(self):
        # the build eliminates none; the row for s_(2^k+1) builds the slices
        # of degrees 0 .. 2^k + 1 and no more
        mdl = QuotientModel("bspin", 34)
        assert mdl._ideal_basis == []
        for k in range(5):
            assert all(c.ok for c in power_sum_vanishing_check(k, mdl)), k
            assert len(mdl._ideal_basis) == len(mdl._cyclic_basis) == 2**k + 2, k

    def test_a_model_below_the_degree_raises(self):
        assert all(c.ok for c in power_sum_vanishing_check(3, model("bspin", 20)))
        with pytest.raises(ValueError):
            power_sum_vanishing_check(5, model("bspin", 20))

    def test_a_degree_past_the_default_model_raises_quickly(self):
        start = time.monotonic()
        with pytest.raises(ValueError):
            power_sum_vanishing_check(6)  # s_65, past the cap-34 model
        assert time.monotonic() - start < 5.0

    def test_s17_naive_substitution(self):
        assert s17_naive_substitution() == w(7, 10) ^ w(6, 11) ^ w(4, 13)


class TestIndecomposables:
    def test_small_values(self):
        table = spinc_homology_indecomposables(32)
        assert table.dims[3] == 0
        assert table.dims[4] == 1  # x_2^2
        assert table.dims[7] == 0  # x_7 lies in the comparison subring
        assert table.dims[8] == 1
        assert table.dims[11] == 1

    def test_rule_violations_are_exactly_degree_6(self):
        # x_3^2 generates degree 6 and is killed by the subring: the closed
        # form misses this single degree
        table = spinc_homology_indecomposables(32)
        assert table.rule_violations == (6,)
        assert table.dims[6] == 0 and table.rule(6) == 1

    def test_the_subring_generators_follow_the_cap_past_2047(self):
        # x_4095 = x_(2^12 - 1) lies in the comparison subring like x_7
        table = spinc_homology_indecomposables(4100)
        assert table.rule_violations == (6,)
        assert table.dims[4095] == table.dims[2047] == table.dims[7] == 0
