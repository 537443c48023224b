from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod import bundles, modules, verify
from steenrod.action import (
    AlgebraMap,
    Check,
    PresentationError,
    SqAlgebraPresentation,
    TotalSquare,
    check_presentation,
    first_failure,
)
from steenrod.algebra import binom_mod2
from steenrod.cli import PRESETS
from steenrod.f2 import FIELD, LIMIT, F2Poly, WeightedPolyRing
from test_checks_fail import ENTRIES


def rank_one_model(nvars):
    """Polynomial ring on degree-1 classes with Sq^1(v) = v^2."""
    ring = WeightedPolyRing(tuple((f"x{i}", 1) for i in range(1, nvars + 1)))
    return SqAlgebraPresentation.build(ring, {})


def chern_root_model(nvars):
    """Polynomial ring on degree-2 classes with Sq^1 = 0, Sq^2(v) = v^2."""
    ring = WeightedPolyRing(tuple((f"r{i}", 2) for i in range(1, nvars + 1)))
    return SqAlgebraPresentation.build(ring, {})


def pack_oracle(m):
    """The presentation's former packing of an exponent tuple: exponent i
    in bits 32i .. 32i + 31."""
    return sum(e << s for e, s in zip(m, range(0, 32 * len(m), 32)))


def unpack_oracle(ring, packed):
    """The presentation's former unpacking of a set of packed monomials
    into exponent tuples."""
    mask = (1 << 32) - 1
    shifts = range(0, 32 * ring.ngens, 32)
    return frozenset(tuple((u >> s) & mask for s in shifts) for u in packed)


def convolution_oracle(p):
    """The F2Poly Frobenius-block/Cartan convolution the packed engine
    replaced: exponent tuple -> [mono, Sq^1 mono, ..., Sq^deg mono]."""
    ring = p.ring
    blocks = {}

    def block(i, a):
        if (i, a) not in blocks:
            if a == 0:
                comps = [ring.gen(ring.generators[i][0]), *p.action[i]]
            else:
                prev = block(i, a - 1)
                comps = [ring.zero()] * (2 * len(prev) - 1)
                for j, c in enumerate(prev):
                    comps[2 * j] = c.square()
            blocks[i, a] = comps
        return blocks[i, a]

    def convolve(c1, c2, cap):
        top = min(cap, len(c1) + len(c2) - 2)
        out = [ring.zero()] * (top + 1)
        for i, a in enumerate(c1):
            for j, b in enumerate(c2[: top - i + 1]):
                out[i + j] = out[i + j] + a * b
        return out

    def components(mono):
        deg = sum(e * d for e, d in zip(mono, ring.degrees))
        comps = [ring.one()]
        for i, e in enumerate(mono):
            a = 0
            while e:
                if e & 1:
                    comps = convolve(comps, block(i, a), deg)
                e >>= 1
                a += 1
        return comps

    return components


def fresh_engine(p):
    """A TotalSquare for presentation p with empty caches (the presets are
    shared, and so are their engines)."""
    return TotalSquare(p._gen, p.ring.degrees.__getitem__, FIELD)


def sq_oracle(p, k, f):
    """The per-monomial Sq^k loop that squares() replaced, on an engine of
    its own: component k of each monomial's list, through k."""
    if k == 0:
        return f
    engine = fresh_engine(p)
    acc = set()
    for mono in f.monomials:
        deg = p.ring.monomial_degree(mono)
        if k <= deg:
            acc ^= engine.components(mono, deg, k)[k]
    return F2Poly(p.ring, frozenset(acc))


def check_presentation_oracle(p, degree_max, adem_max=None):
    """The per-k check_presentation that reading one squares() list per
    class replaced: Sq^i f asked again for every (n, m, i)."""

    def failures():
        for d in range(degree_max + 1):
            for mono in p.ring.monomials_of_degree(d):
                f = F2Poly(p.ring, frozenset({mono}))
                if p.sq(d, f) != f * f:
                    yield f"Sq^{d}({f}) != square"
                n_cap = min(d, adem_max) if adem_max is not None else d
                for n in range(1, n_cap + 1):
                    sq_n_f = p.sq(n, f)
                    lhs = {m: p.sq(m, sq_n_f) for m in range(2 * n - 1, 0, -1)}
                    for m in range(1, 2 * n):
                        rhs = p.ring.zero()
                        for i in range(m // 2 + 1):
                            if binom_mod2(n - i - 1, m - 2 * i):
                                rhs = rhs + p.sq(m + n - i, p.sq(i, f))
                        if lhs[m] != rhs:
                            yield f"Adem relation Sq^{m} Sq^{n} fails on {f}"

    return first_failure(f"action consistent through degree {degree_max}", failures())


def check_presentation_f2poly(p, degree_max, adem_max=None):
    """check_presentation before it compared packed sets: every square
    wrapped in F2Poly, each monomial's list asked in ascending degree, and
    each Sq^i f squared again through squares()."""

    def failures():
        for d in range(degree_max + 1):
            for mono in p.ring.monomials_of_degree(d):
                f = F2Poly(p.ring, frozenset({mono}))
                n_cap = min(d, adem_max) if adem_max is not None else d
                # sq[i][k] = Sq^k Sq^i f, through the longest either side reads
                sq = [p.squares(f, max(d, 3 * n_cap - 1))]
                sq += [p.squares(sq[0][i], 3 * n_cap - 1) for i in range(1, n_cap + 1)]
                if sq[0][d] != f * f:
                    yield f"Sq^{d}({f}) != square"
                for n in range(1, n_cap + 1):
                    for m in range(1, 2 * n):
                        rhs = p.ring.zero()
                        for i in range(m // 2 + 1):
                            if binom_mod2(n - i - 1, m - 2 * i):
                                rhs = rhs + sq[i][m + n - i]
                        if sq[n][m] != rhs:
                            yield f"Adem relation Sq^{m} Sq^{n} fails on {f}"

    return first_failure(f"action consistent through degree {degree_max}", failures())


def corrupted_t2_t3_ring():
    """Sq^1(t2) = 0 instead of t3: breaks Sq^2 Sq^2 = Sq^1 Sq^2 Sq^1."""
    ring = WeightedPolyRing.make(("t2", 2), ("t3", 3))
    return SqAlgebraPresentation.build(
        ring,
        {
            "t2": {1: "0", 2: "t2^2"},
            "t3": {1: "0", 2: "t2*t3", 3: "t3^2"},
        },
    )


ORACLE_MODELS = {
    **PRESETS,
    "rank-one-3": lambda: rank_one_model(3),
    "chern-root-3": lambda: chern_root_model(3),
}


class TestEngineAgainstOracle:
    """The packed engine against the F2Poly convolution it replaced."""

    @pytest.mark.parametrize("name", list(ORACLE_MODELS))
    def test_every_square_of_every_monomial_through_12(self, name):
        p = ORACLE_MODELS[name]()
        oracle = convolution_oracle(p)
        for d in range(13):
            for mono in p.ring.monomials_of_degree(d):
                f = F2Poly(p.ring, frozenset({mono}))
                want = oracle(p.ring.unpack(mono))
                assert len(want) == d + 1
                for k in range(d + 1):
                    assert p.sq(k, f) == want[k], (name, f, k)

    @pytest.mark.parametrize("name", list(ORACLE_MODELS))
    def test_total_square_of_sums(self, name):
        p = ORACLE_MODELS[name]()
        oracle = convolution_oracle(p)
        monos = [p.ring.unpack(m) for d in range(1, 9) for m in p.ring.monomials_of_degree(d)]
        for start in range(0, len(monos), 5):
            chunk = monos[start : start + 7]
            want = p.ring.zero()
            for m in chunk:
                for c in oracle(m):
                    want = want + c
            assert p.total_sq(p.ring.from_monomials(chunk)) == want, (name, chunk)


class TestSquaresAgainstOracle:
    """squares(f, k) against the per-monomial Sq^k loop it replaced."""

    @pytest.mark.parametrize("name", list(ORACLE_MODELS))
    def test_every_prefix_for_every_monomial_through_12(self, name):
        p = ORACLE_MODELS[name]()
        for d in range(13):
            for mono in p.ring.monomials_of_degree(d):
                f = F2Poly(p.ring, frozenset({mono}))
                want = [sq_oracle(p, i, f) for i in range(d + 2)]
                for k in range(d + 2):
                    assert p.squares(f, k) == want[: k + 1], (name, f, k)

    @pytest.mark.parametrize("name", list(ORACLE_MODELS))
    def test_sums_of_monomials(self, name):
        p = ORACLE_MODELS[name]()
        monos = [m for d in range(1, 9) for m in p.ring.monomials_of_degree(d)]
        for start in range(0, len(monos), 5):
            chunk = monos[start : start + 7]
            f = F2Poly(p.ring, frozenset(chunk))
            upto = max(map(p.ring.monomial_degree, chunk)) + 1
            want = [sq_oracle(p, i, f) for i in range(upto + 1)]
            assert p.squares(f, upto) == want, (name, f)
            assert [p.sq(i, f) for i in range(upto + 1)] == want, (name, f)


class TestCheckAgainstOracle:
    """check_presentation against the per-k check it replaced: the same
    Check, ok and first witness alike."""

    @pytest.mark.parametrize(
        "build, degree_max, adem_max",
        [
            (bundles.bpsp3_presentation, 24, 4),
            (lambda: rank_one_model(2), 8, None),
            (corrupted_t2_t3_ring, 8, None),
        ],
        ids=["bpsp3", "rank-one-2", "corrupted-t2-t3"],
    )
    def test_models(self, build, degree_max, adem_max):
        p = build()
        want = check_presentation_oracle(p, degree_max, adem_max)
        assert check_presentation(p, degree_max, adem_max) == want

    def test_every_single_monomial_toggle_of_a_declared_square_of_bpsp3(self):
        p = bundles.bpsp3_presentation()
        failing = 0
        for i, (_, deg) in enumerate(p.ring.generators):
            for k in range(1, deg):
                for mono in p.ring.monomials_of_degree(deg + k):
                    rows = [list(row) for row in p.action]
                    rows[i][k - 1] = rows[i][k - 1] + F2Poly(p.ring, frozenset({mono}))
                    bad = SqAlgebraPresentation(p.ring, tuple(map(tuple, rows)))
                    got = check_presentation(bad, 12, adem_max=4)
                    assert got == check_presentation_oracle(bad, 12, adem_max=4), (i, k, mono)
                    failing += not got.ok
        assert failing > 0


BPSP_MODEL_CORRUPTIONS = [e for e in ENTRIES if e.values[0] == "bpsp-model"]


class TestPackedCheckAgainstF2Poly:
    """check_presentation on packed sets against the F2Poly loop it
    replaced: the same Check, ok and first witness alike."""

    @pytest.mark.parametrize(
        "build, degree_max, adem_max",
        [
            (bundles.bpsp3_presentation, 24, 4),
            (bundles.hp2_total_presentation, 12, None),
            (bundles.bsu3_presentation, 12, None),
            (bundles.cp2_total_presentation, 12, None),
        ],
        ids=["bpsp3", "hp2-total", "bsu3", "cp2-total"],
    )
    def test_presets(self, build, degree_max, adem_max):
        p = build()
        want = check_presentation_f2poly(p, degree_max, adem_max)
        assert want.ok
        assert check_presentation(p, degree_max, adem_max) == want

    @pytest.mark.parametrize(
        "corrupt", [e.values[1] for e in BPSP_MODEL_CORRUPTIONS],
        ids=[e.id for e in BPSP_MODEL_CORRUPTIONS],
    )
    def test_every_presentation_a_bpsp_model_corruption_builds(self, corrupt, monkeypatch):
        corrupt(monkeypatch)
        failing = 0
        for p, degree_max, adem_max in [
            (bundles.bpsp3_presentation(), 24, 4),
            (bundles.restriction_model().pres, 6, None),
        ]:
            want = check_presentation_f2poly(p, degree_max, adem_max)
            assert check_presentation(p, degree_max, adem_max) == want
            failing += not want.ok
        assert failing == 1

    def test_bpsp3_through_24_builds_each_cut_list_once(self, monkeypatch):
        p = bundles.bpsp3_presentation()
        fresh = SqAlgebraPresentation(p.ring, p.action)
        builds = count_builds(monkeypatch)
        assert check_presentation(fresh, 24, adem_max=4).ok
        assert len(builds) == len(set(builds))
        assert set(builds) >= {m for d in range(25) for m in p.ring.monomials_of_degree(d)}


class TestTruncatedComponents:
    """components(mono, deg, upto) against the full list it cuts short."""

    @pytest.mark.parametrize("name", list(ORACLE_MODELS))
    def test_ascending_requests_then_full_give_prefixes_through_12(self, name):
        p = ORACLE_MODELS[name]()
        full, engine = fresh_engine(p), fresh_engine(p)
        for d in range(13):
            for mono in p.ring.monomials_of_degree(d):
                want = full.components(mono, d)
                for k in range(d + 1):
                    got = engine.components(mono, d, k)
                    assert k < len(got) <= len(want), (name, mono, k)
                    assert got == want[: len(got)], (name, mono, k)
                assert engine.components(mono, d) == want, (name, mono)

    @pytest.mark.parametrize("name", list(ORACLE_MODELS))
    def test_full_request_first_serves_every_later_cut_through_12(self, name):
        p = ORACLE_MODELS[name]()
        full, engine = fresh_engine(p), fresh_engine(p)
        for d in range(13):
            for mono in p.ring.monomials_of_degree(d):
                want = full.components(mono, d)
                assert engine.components(mono, d) == want
                for k in range(d + 1):
                    assert engine.components(mono, d, k) == want, (name, mono, k)

    @pytest.mark.parametrize("name", list(ORACLE_MODELS))
    def test_a_fresh_request_builds_k_plus_one_components(self, name):
        p = ORACLE_MODELS[name]()
        for d in range(9):
            for mono in p.ring.monomials_of_degree(d):
                for k in range(d + 1):
                    assert len(fresh_engine(p).components(mono, d, k)) == k + 1

    def test_sq1_of_a_high_monomial_holds_two_components(self):
        # Sq^1 of x1^63 x2^63 x3^63 once built all 190 components
        p = rank_one_model(3)
        f = p.ring.parse("x1^63*x2^63*x3^63")
        want = p.ring.parse("x1^64*x2^63*x3^63 + x1^63*x2^64*x3^63 + x1^63*x2^63*x3^64")
        assert p.sq(1, f) == want
        (mono,) = f.monomials
        _, comps = p._square._monos[mono]
        assert len(comps) <= 2


def count_builds(monkeypatch):
    """The monomials whose cut list grows, one entry per build, from here on."""
    builds = []
    components = TotalSquare.components

    def counted(engine, mono, deg, upto=None):
        cut = engine._monos.get(mono, (0,))[0]
        comps = components(engine, mono, deg, upto)
        if engine._monos[mono][0] > cut:
            builds.append(mono)
        return comps

    monkeypatch.setattr(TotalSquare, "components", counted)
    return builds


class TestBuildCounts:
    """Each caller asks once, for the longest square it will read."""

    def test_a1_module_of_bpsp3_builds_each_list_once(self, monkeypatch):
        p = bundles.bpsp3_presentation()
        fresh = SqAlgebraPresentation(p.ring, p.action)
        builds = count_builds(monkeypatch)
        modules.from_presentation(fresh, "A1", (0, 40))
        assert builds and len(builds) == len(set(builds))

    def test_bpsp_model_suite_builds_at_most_400_lists(self, monkeypatch):
        # every presentation the suite reads, built afresh into caches of
        # its own: the shared ones are neither read nor overwritten
        cached = ("restriction_model", "bpsp3_presentation", "hp2_total_presentation", "hp2_bundle")
        for name in cached:
            fresh = lru_cache(maxsize=None)(getattr(bundles, name).__wrapped__)
            monkeypatch.setattr(bundles, name, fresh)
        builds = count_builds(monkeypatch)
        rows = verify.suite_bpsp_model()
        assert all(c.ok for c in rows)
        assert len(builds) <= 400


class TestPackedGuard:
    def test_a_monomial_past_the_field_limit_raises_before_squaring(self, monkeypatch):
        p = chern_root_model(2)

        def unreachable(mono, deg, upto=None):
            raise AssertionError("components built past the field limit")

        monkeypatch.setattr(p._square, "components", unreachable)
        big = p.ring.from_monomials([(LIMIT // 2, 0), (1, 1)])
        for op in (
            lambda f: p.sq(1, f),
            p.total_sq,
            lambda f: p.sq(1, p.sq(2, f)) + p.sq(2, p.sq(1, f)),  # Q_1
        ):
            with pytest.raises(ValueError):
                op(big)
        assert p.sq(0, big) == big

    def test_fields_hold_every_exponent_below_the_limit(self):
        # Sq^d of a degree-d monomial in degree-1 classes doubles it: the
        # largest exponent any packed monomial can reach
        top = 2 * (LIMIT // 2 - 1)
        assert top < LIMIT
        p = rank_one_model(2)
        packed = top + (top << FIELD)
        assert p.ring.unpack(packed) == (top, top)
        assert F2Poly(p.ring, frozenset({packed})) == p.ring.from_monomials([(top, top)])
        # a sum of two exponents below LIMIT still fits its field
        top = 2 * (LIMIT - 1)
        assert top < 1 << FIELD
        assert unpack_oracle(p.ring, {top + (top << FIELD)}) == {(top, top)}
        assert p.ring.unpack(top + (top << FIELD)) == (top, top)

    @pytest.mark.parametrize("name", list(ORACLE_MODELS))
    def test_pack_and_unpack_match_the_former_packing_through_16(self, name):
        ring = ORACLE_MODELS[name]().ring
        for d in range(17):
            packed = ring.monomials_of_degree(d)
            tuples = unpack_oracle(ring, packed)
            assert {ring.unpack(m) for m in packed} == tuples
            assert sorted(map(ring.pack, tuples)) == sorted(map(pack_oracle, tuples))
            assert all(ring.pack(ring.unpack(m)) == m for m in packed)


class TestGeneratorAction:
    def test_total_square_of_degree_one_class(self):
        p = rank_one_model(1)
        x = p.ring.parse("x1")
        assert p.total_sq(x) == p.ring.parse("x1 + x1^2")

    def test_total_square_of_x_squared(self):
        p = rank_one_model(1)
        x2 = p.ring.parse("x1^2")
        assert p.total_sq(x2) == p.ring.parse("x1^2 + x1^4")

    def test_total_sq_of_unit(self):
        p = rank_one_model(2)
        assert p.total_sq(p.ring.one()) == p.ring.one()

    def test_sq_above_degree_vanishes(self):
        p = rank_one_model(3)
        f = p.ring.parse("x1*x2*x3")
        assert p.sq(4, f).is_zero()
        assert p.sq(3, f) == f * f

    def test_instability_enforced_at_build_time(self):
        ring = WeightedPolyRing.make(("x", 1))
        with pytest.raises(PresentationError):
            SqAlgebraPresentation.build(ring, {"x": {1: "0"}})

    def test_inhomogeneous_declaration_rejected(self):
        ring = WeightedPolyRing.make(("a", 2), ("b", 3))
        with pytest.raises(PresentationError):
            SqAlgebraPresentation.build(ring, {"a": {1: "a + 1"}})


class TestCartan:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_cartan_bilinearity_on_random_polynomials(self, data):
        p = rank_one_model(3)
        monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
        f = p.ring.from_monomials(data.draw(st.sets(monos, min_size=1, max_size=3)))
        g = p.ring.from_monomials(data.draw(st.sets(monos, min_size=1, max_size=3)))
        k = data.draw(st.integers(0, 6))
        lhs = p.sq(k, f * g)
        rhs = p.ring.zero()
        for i in range(k + 1):
            rhs = rhs + p.sq(i, f) * p.sq(k - i, g)
        assert lhs == rhs

    def test_total_sq_multiplicative(self):
        p = chern_root_model(2)
        f = p.ring.parse("r1 + r2^2")
        g = p.ring.parse("r1*r2")
        assert p.total_sq(f * g) == p.total_sq(f) * p.total_sq(g)

    def test_power_sum_total_square_re_expressed_in_power_sums(self):
        # total square of s_5 in 8 rank-one classes collapses to
        # s_5 + s_6 + s_9 + s_10
        p = rank_one_model(8)

        def power_sum(n):
            return p.ring.from_monomials(
                tuple(n if j == i else 0 for j in range(8)) for i in range(8)
            )

        got = p.total_sq(power_sum(5))
        want = power_sum(5) + power_sum(6) + power_sum(9) + power_sum(10)
        assert got == want


class TestChecker:
    def test_rank_one_model_passes(self):
        report = check_presentation(rank_one_model(2), 8)
        assert report.ok

    def test_trivial_ring_passes(self):
        ring = WeightedPolyRing(())
        p = SqAlgebraPresentation.build(ring, {})
        assert check_presentation(p, 5).ok

    def test_corrupted_action_reports_witness(self):
        report = check_presentation(corrupted_t2_t3_ring(), 8)
        assert not report.ok
        assert report.witness


class TestFirstFailure:
    def test_fails_with_the_first_witness_and_pulls_no_second(self):
        pulled = []

        def search():
            for witness in ("first", "second"):
                pulled.append(witness)
                yield witness

        assert first_failure("row", search()) == Check("row", False, "first")
        assert pulled == ["first"]

    def test_passes_when_the_search_yields_nothing(self):
        assert first_failure("row", iter(())) == Check("row", True)


class TestAlgebraMap:
    def test_frobenius_endomorphism_is_not_degree_preserving(self):
        p = rank_one_model(1)
        with pytest.raises(PresentationError):
            AlgebraMap(p, p, (p.ring.parse("x1^2"),))

    def test_equivariant_inclusion(self):
        # x -> x1 + x2 is induced by a diagonal and commutes with Sq
        small = rank_one_model(1)
        big = rank_one_model(2)
        phi = AlgebraMap(small, big, (big.ring.parse("x1 + x2"),))
        assert phi.check_equivariant().ok

    def test_non_equivariant_map_detected(self):
        # a degree-2 class with Sq^1 = 0 cannot map to a product of
        # degree-1 classes: Sq^1(v*w) = v^2 w + v w^2 is nonzero
        source = chern_root_model(1)
        target = rank_one_model(2)
        bad = AlgebraMap(source, target, (target.ring.parse("x1*x2"),))
        assert not bad.check_equivariant().ok

