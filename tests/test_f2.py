import gc
import random
import re
import time
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod.algebra import SteenrodElement, TensorElement, normalize_word, parse_element
from steenrod.bundles import chern_root_model, rank_one_model
from steenrod.charclass import mono_from, poly_pow
from steenrod.cli import PRESETS, main
from steenrod.dual import (
    ZETA_MAX,
    DualElement,
    DualTensor,
    dual_coproduct,
    parse_dual,
    parse_milnor_operator,
    zeta,
)
from steenrod.f2 import (
    INTS,
    LIMIT,
    DegreeCapError,
    F2Basis,
    F2Error,
    F2Index,
    F2Matrix,
    F2Span,
    F2Sum,
    F2Vector,
    Frozen,
    InputError,
    PoincareSeries,
    RingMismatchError,
    ShapeError,
    WeightedPolyRing,
    bilinear,
    geometric_series_product,
    ints,
    linear,
    parse_sum,
    power,
    series_of_ring,
    tensor,
)


def brute_force_solutions(matrix, b):
    """Oracle: enumerate all 2^n candidate vectors."""
    sols = []
    for bits in range(1 << matrix.ncols):
        x = F2Vector(matrix.ncols, bits)
        if matrix.mat_vec(x).bits == b.bits:
            sols.append(x)
    return sols


class TestLinearAlgebra:
    def test_identity_solve_returns_rhs(self):
        m = F2Matrix.identity(5)
        b = F2Vector.from_support(5, [0, 3])
        assert m.solve(b) == b

    def test_zero_matrix_nonzero_rhs_has_no_solution(self):
        m = F2Matrix.zero(3, 3)
        b = F2Vector.from_support(3, [1])
        assert m.solve(b) is None

    def test_2x2_upper_triangular(self):
        # oracle: exhaustive search over all 4 candidates
        m = F2Matrix(2, 2, [0b11, 0b10])  # rows (1, 1) and (0, 1), column j at bit j
        b = F2Vector.from_support(2, [0, 1])
        oracle = brute_force_solutions(m, b)
        assert oracle == [F2Vector.from_support(2, [1])]
        assert m.solve(b) == oracle[0]

    def test_shape_error_is_distinct_from_no_solution(self):
        m = F2Matrix.zero(3, 3)
        with pytest.raises(ShapeError):
            m.solve(F2Vector(2, 0))

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_solutions_verify_and_match_oracle(self, nrows, ncols, data):
        rows = [
            data.draw(st.integers(0, (1 << ncols) - 1)) for _ in range(nrows)
        ]
        m = F2Matrix(nrows, ncols, rows)
        b = F2Vector(nrows, data.draw(st.integers(0, (1 << nrows) - 1)))
        got = m.solve(b)
        oracle = brute_force_solutions(m, b)
        if got is None:
            assert not oracle
        else:
            assert m.mat_vec(got).bits == b.bits

    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank_idempotent_and_kernel_dimension(self, nrows, ncols, data):
        rows = [data.draw(st.integers(0, (1 << ncols) - 1)) for _ in range(nrows)]
        m = F2Matrix(nrows, ncols, rows)
        r = m.rank()
        assert r == F2Matrix(nrows, ncols, rows).rank()
        kernel = m.kernel_basis()
        assert len(kernel) == ncols - r
        for v in kernel:
            assert m.mat_vec(v).is_zero()

    def test_transpose_and_matmul(self):
        m = F2Matrix(2, 3, [0b101, 0b110])  # rows (1, 0, 1) and (0, 1, 1)
        t = m.transpose()
        assert t.nrows == 3 and t.ncols == 2
        prod = m.mat_mul(t)
        assert prod.entry(0, 0) == 0  # row (1,0,1) . (1,0,1) = 2 = 0
        assert prod.entry(0, 1) == 1


def echelon_oracle(rows):
    """The former F2Matrix._reduced: pivot column -> fully reduced row, each
    pivot the top bit of its row, rows eliminated in order."""
    pivots = {}
    for row in rows:
        for col in sorted(pivots, reverse=True):
            if (row >> col) & 1:
                row ^= pivots[col]
        if row:
            col = row.bit_length() - 1
            # keep fully reduced form: clear this column from earlier rows
            for c, r in list(pivots.items()):
                if (r >> col) & 1:
                    pivots[c] = r ^ row
            pivots[col] = row
    return pivots


def solve_oracle(matrix, b):
    """The former F2Matrix.solve: eliminate the augmented rows, b at bit 0,
    and read x off the pivots with every free variable zero."""
    aug = [(row << 1) | ((b.bits >> i) & 1) for i, row in enumerate(matrix.rows)]
    pivots = echelon_oracle(aug)
    if 0 in pivots:
        return None  # 0 = 1
    x = 0
    for col, row in pivots.items():
        if row & 1:
            x |= 1 << (col - 1)
    return F2Vector(matrix.ncols, x)


def kernel_oracle(matrix):
    """The former F2Matrix.kernel_basis: one vector per free column, ascending."""
    pivots = echelon_oracle(matrix.rows)
    basis = []
    for f in (j for j in range(matrix.ncols) if j not in pivots):
        bits = 1 << f
        for c in sorted(pivots):
            if (pivots[c] >> f) & 1:
                bits |= 1 << c
        basis.append(F2Vector(matrix.ncols, bits))
    return basis


class TestAgainstTheFormerEchelonForm:
    def test_rank_solutions_and_kernels_are_unchanged(self):
        rng = random.Random(20)
        for _ in range(3000):
            nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
            rows = [rng.getrandbits(ncols) for _ in range(nrows)]
            if nrows > 2 and rng.random() < 0.5:
                rows[2] = rows[0] ^ rows[1]
            m = F2Matrix(nrows, ncols, rows)
            assert m.rank() == len(echelon_oracle(rows))
            assert m.kernel_basis() == kernel_oracle(m)
            for _ in range(3):
                b = F2Vector(nrows, rng.getrandbits(nrows))
                assert m.solve(b) == solve_oracle(m, b)


RING = WeightedPolyRing.make(("x1", 1), ("x2", 1))


def poly(text):
    return RING.parse(text)


def _sum_of(columns, mask):
    acc = 0
    for j, c in enumerate(columns):
        if (mask >> j) & 1:
            acc ^= c
    return acc


def _solve_oracle(columns, n, b):
    """F2Matrix.solve on the matrix whose columns are the given vectors."""
    matrix = F2Matrix(len(columns), n, columns).transpose()
    sol = matrix.solve(F2Vector(n, b))
    return None if sol is None else sol.bits


class TestF2Span:
    def test_independent_columns_match_solve(self):
        rng = random.Random(61)
        for _ in range(150):
            n = rng.randint(1, 20)
            columns = []
            for _ in range(rng.randint(0, n)):
                c = rng.getrandbits(n)
                while F2Matrix(len(columns) + 1, n, columns + [c]).rank() <= len(columns):
                    c = rng.getrandbits(n)
                columns.append(c)
            span = F2Span(columns)
            for _ in range(8):
                mask = rng.getrandbits(len(columns))
                b = _sum_of(columns, mask)
                assert span.coords(b) == _solve_oracle(columns, n, b) == mask
                b = rng.getrandbits(n)
                assert span.coords(b) == _solve_oracle(columns, n, b)

    def test_dependent_columns_solve_the_system(self):
        rng = random.Random(62)
        for _ in range(150):
            n = rng.randint(1, 16)
            columns = [rng.getrandbits(n) for _ in range(rng.randint(1, 2 * n))]
            for _ in range(rng.randint(1, 3)):
                kind = rng.randrange(3)
                if kind == 0:
                    columns.append(0)
                elif kind == 1:
                    columns.append(rng.choice(columns))
                else:
                    columns.append(rng.choice(columns) ^ rng.choice(columns))
            rng.shuffle(columns)
            span = F2Span(columns)
            for _ in range(8):
                b = _sum_of(columns, rng.getrandbits(len(columns)))
                x = span.coords(b)
                assert x is not None and _sum_of(columns, x) == b
                assert _solve_oracle(columns, n, b) is not None
                b = rng.getrandbits(n)
                x = span.coords(b)
                assert (x is None) == (_solve_oracle(columns, n, b) is None)
                assert x is None or _sum_of(columns, x) == b

    def test_inconsistent_right_hand_sides_give_none(self):
        rng = random.Random(63)
        for _ in range(150):
            n = rng.randint(2, 16)
            # every column misses the top coordinate, so no b having it is reached
            columns = [rng.getrandbits(n - 1) for _ in range(rng.randint(0, 2 * n))]
            span = F2Span(columns)
            for _ in range(8):
                b = rng.getrandbits(n - 1) | (1 << (n - 1))
                assert _solve_oracle(columns, n, b) is None
                assert span.coords(b) is None


    def test_relations_are_the_dependencies(self):
        rng = random.Random(64)
        for _ in range(150):
            n = rng.randint(1, 12)
            columns = [rng.getrandbits(n) for _ in range(rng.randint(0, 2 * n))]
            relations = F2Span(columns).relations
            rank = F2Matrix(len(columns), n, columns).rank()
            assert len(relations) == len(columns) - rank
            for rel in relations:
                assert rel and _sum_of(columns, rel) == 0
            # one per dependent vector: each ends at that vector
            assert len({rel.bit_length() for rel in relations}) == len(relations)


class TestF2Basis:
    def test_add_keeps_exactly_the_rank_many_rows(self):
        rng = random.Random(65)
        for _ in range(150):
            n = rng.randint(1, 16)
            rows = [rng.getrandbits(n) for _ in range(rng.randint(0, 2 * n))]
            rows += [rng.choice(rows) ^ rng.choice(rows) for _ in range(3)] if rows else []
            basis = F2Basis()
            added = sum(basis.add(r) for r in rows)
            assert added == len(basis) == F2Matrix(len(rows), n, rows).rank()

    def test_reduce_is_zero_exactly_on_the_span(self):
        rng = random.Random(66)
        for _ in range(150):
            n = rng.randint(1, 16)
            rows = [rng.getrandbits(n) for _ in range(rng.randint(0, n))]
            basis = F2Basis()
            for r in rows:
                basis.add(r)
            for _ in range(8):
                v = rng.choice([rng.getrandbits(n), _sum_of(rows, rng.getrandbits(len(rows)))])
                assert (basis.reduce(v) == 0) == (_solve_oracle(rows, n, v) is not None)

    def test_growing_a_copy_leaves_the_original(self):
        rng = random.Random(67)
        for _ in range(50):
            n = rng.randint(2, 16)
            basis = F2Basis()
            for _ in range(rng.randint(0, n // 2)):
                basis.add(rng.getrandbits(n))
            probes = [rng.getrandbits(n) for _ in range(8)]
            before = len(basis), [basis.reduce(v) for v in probes]
            grown = basis.copy()
            for _ in range(n):
                grown.add(rng.getrandbits(n))
            assert (len(basis), [basis.reduce(v) for v in probes]) == before


class TestF2Index:
    def test_columns_in_first_seen_order(self):
        index = F2Index()
        assert index.bits(["b", "a"]) == 0b11
        assert index.bits(["c"]) == 0b100
        assert index.bits(["a", "c"]) == index.bits(["c", "a"]) == 0b110
        assert index.bits([]) == 0

    def test_an_unseen_key_lies_outside_every_earlier_span(self):
        index = F2Index()
        span = F2Span([index.bits("ab"), index.bits("b")])
        assert span.coords(index.bits("a")) == 0b11
        assert span.coords(index.bits("az")) is None


class TestPolynomials:
    def test_frobenius_square(self):
        p = poly("1 + x2")
        assert p * p == poly("1 + x2^2")

    def test_triple_product_from_rank_one_classes(self):
        got = poly("1+x1") * poly("1+x2") * poly("1+x1+x2")
        want = poly("1 + x1^2+x1*x2+x2^2 + x1^2*x2+x1*x2^2")
        assert got == want

    def test_monomial_square(self):
        t = WeightedPolyRing.make(("t", 3))
        p = t.parse("t")
        assert p * p == t.parse("t^2")

    def test_ring_mismatch_raises(self):
        other = WeightedPolyRing.make(("y", 2))
        with pytest.raises(RingMismatchError):
            poly("x1") * other.parse("y")

    def test_print_and_reparse_round_trip(self):
        ring = WeightedPolyRing.make(("t2", 2), ("t3", 3), ("t8", 8))
        p = ring.parse("t2^2*t3 + t8 + 1")
        assert ring.parse(str(p)) == p
        assert str(ring.zero()) == "0"
        assert str(ring.one()) == "1"

    def test_homogeneous_parts_partition_monomials(self):
        p = poly("1 + x1 + x1*x2 + x2^2")
        parts = p.homogeneous_parts()
        assert set(parts) == {0, 1, 2}
        total = RING.zero()
        for q in parts.values():
            total = total + q
        assert total == p

    def test_substitute_is_a_ring_hom(self):
        target = WeightedPolyRing.make(("u", 1),)
        images = [target.parse("u"), target.parse("u")]
        p = poly("x1*x2 + x1^2")
        q = poly("x1 + x2")
        lhs = (p * q).substitute(target, images)
        rhs = p.substitute(target, images) * q.substitute(target, images)
        assert lhs == rhs

    @given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_homogeneous_product_degree_additive(self, monos):
        p = RING.from_monomials(list(monos))
        for d1, part1 in p.homogeneous_parts().items():
            for d2, part2 in p.homogeneous_parts().items():
                prod = part1 * part2
                assert prod.is_zero() or prod.degree() == d1 + d2


# -- the tuple-monomial polynomial layer the packed one replaced, as oracles --
# A tuple polynomial is a frozenset of exponent tuples.


def tuple_monomials_of_degree(degs, degree):
    """All exponent tuples of the given weighted degree, lexicographic."""
    if degree < 0:
        return

    def rec(i, remaining, prefix):
        if i == len(degs):
            if remaining == 0:
                yield prefix
            return
        if i == len(degs) - 1:
            if remaining % degs[i] == 0:
                yield prefix + (remaining // degs[i],)
            return
        for e in range(remaining // degs[i], -1, -1):
            yield from rec(i + 1, remaining - e * degs[i], prefix + (e,))

    yield from rec(0, degree, ())


def tuple_mul(f, g):
    acc = set()
    for a in f:
        for b in g:
            m = tuple(x + y for x, y in zip(a, b))
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
    return frozenset(acc)


def tuple_square(f):
    return frozenset(tuple(2 * x for x in m) for m in f)


def tuple_pow(f, e, ngens):
    result, base = frozenset({(0,) * ngens}), f
    while e:
        if e & 1:
            result = tuple_mul(result, base)
        base = tuple_square(base)
        e >>= 1
    return result


def tuple_substitute(f, images, target_ngens):
    acc = set()
    for m in f:
        term = frozenset({(0,) * target_ngens})
        for i, e in enumerate(m):
            if e:
                term = tuple_mul(term, tuple_pow(images[i], e, target_ngens))
        acc ^= term
    return frozenset(acc)


def tuple_str(f, names):
    if not f:
        return "0"
    terms = []
    for m in sorted(f, reverse=True):
        factors = []
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        terms.append("*".join(factors) if factors else "1")
    return " + ".join(terms)


PACKED_MODELS = {
    **PRESETS,
    "rank-one-3": lambda: rank_one_model(("x1", "x2", "x3")),
    "chern-root-3": lambda: chern_root_model(3),
}


class TestPackedAgainstTupleOracle:
    """The packed F2Poly against the tuple-monomial code it replaced, on the
    five CLI presets and two root models, through degree 16."""

    @pytest.mark.parametrize("name", list(PACKED_MODELS))
    def test_enumeration_order_is_the_tuple_order(self, name):
        ring = PACKED_MODELS[name]().ring
        for d in range(-1, 17):
            want = list(tuple_monomials_of_degree(ring.degrees, d))
            assert [ring.unpack(m) for m in ring.monomials_of_degree(d)] == want, d
            assert ring.monomials_of_degree(d) is ring.monomials_of_degree(d)

    @pytest.mark.parametrize("name", list(PACKED_MODELS))
    def test_arithmetic_and_printing_agree_on_seeded_pairs(self, name):
        ring = PACKED_MODELS[name]().ring
        rng = random.Random(f"packed {name}")
        slices = [list(tuple_monomials_of_degree(ring.degrees, d)) for d in range(9)]

        def draw(max_degree):
            monos = {m for d in range(max_degree + 1) for m in slices[d] if rng.random() < 0.3}
            return ring.from_monomials(monos), frozenset(monos)

        def tuples(p):
            return frozenset(map(ring.unpack, p.monomials))

        names = [n for n, _ in ring.generators]
        for _ in range(12):
            (f, tf), (g, tg) = draw(8), draw(8)
            assert tuples(f * g) == tuple_mul(tf, tg)
            assert tuples(f.square()) == tuple_square(tf)
            e = rng.randrange(4)
            small, tsmall = draw(4)
            assert tuples(small ** e) == tuple_pow(tsmall, e, ring.ngens)
            images = [draw(2) for _ in range(ring.ngens)]
            got = small.substitute(ring, [p for p, _ in images])
            want = tuple_substitute(tsmall, [t for _, t in images], ring.ngens)
            assert tuples(got) == want
            for p, t in ((f, tf), (f * g, tuple_mul(tf, tg)), (got, want)):
                assert str(p) == tuple_str(t, names)


class TestCarryGuard:
    """An exponent reaching LIMIT would spill into the next generator's
    field; every way to build one raises instead."""

    RING = WeightedPolyRing.make(("x", 1), ("y", 1))

    def test_parse_and_from_monomials_refuse_the_limit(self):
        R = self.RING
        assert R.parse(f"x^{LIMIT - 1}").monomials == {LIMIT - 1}
        for text in (f"x^{LIMIT}", f"x^{LIMIT - 1}*x", f"y^{LIMIT}"):
            with pytest.raises(F2Error):
                R.parse(text)
        for mono in ((LIMIT, 0), (0, LIMIT), (-1, 0)):
            with pytest.raises(F2Error):
                R.from_monomials([mono])

    def test_products_powers_and_squares_refuse_the_limit(self):
        R = self.RING
        x = R.gen("x")
        top = R.from_monomials([(LIMIT - 1, 0)])
        assert x ** (LIMIT - 1) == top
        half = R.from_monomials([(LIMIT // 2, 0)])
        for op in (
            lambda: top * x,
            lambda: x * top,
            lambda: half.square(),
            lambda: half * half,
            lambda: half ** 2,
            lambda: x ** LIMIT,
        ):
            with pytest.raises(F2Error):
                op()
        # unguarded, the square of x^LIMIT would read as y
        assert R.unpack(LIMIT << 1) == (0, 1)

    def test_substitute_refuses_the_limit(self):
        R = self.RING
        images = [R.from_monomials([(LIMIT // 2, 0)]), R.gen("y")]
        with pytest.raises(F2Error):
            R.parse("x^2").substitute(R, images)
        assert R.parse("x*y").substitute(R, images) == R.from_monomials([(LIMIT // 2, 1)])


class TestGrammarAndPower:
    """parse_sum and power are the one copy of each idiom: every parser and
    every power of the package goes through them."""

    @staticmethod
    def digit(f):
        return int(f) if f.isdigit() else None

    def test_parse_sum_reads_terms_of_factors(self):
        assert parse_sum(" 2*3 + 5 * 1 ", "int", self.digit, 0, 1) == 11
        assert parse_sum("1 * 1 + 0", "int", self.digit, 0, 1) == 1
        assert parse_sum(" 0 ", "int", self.digit, 0, 1) == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            (" ", "empty int expression"),
            ("2 + ", "empty term in int expression"),
            ("2 * x", "cannot parse 'x'"),
            ("2 ** 3", "cannot parse ''"),
        ],
    )
    def test_parse_sum_refuses_text_outside_the_grammar(self, text, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_sum(text, "int", self.digit, 0, 1)

    @pytest.mark.parametrize(
        "parse, text",
        [
            (RING.parse, "x1^"),
            (RING.parse, "x1 +"),
            (parse_element, "Sq[1,]"),
            (parse_dual, "xi["),
            (parse_milnor_operator, "Q9"),
        ],
    )
    def test_every_parser_raises_the_input_error(self, parse, text):
        with pytest.raises(InputError):
            parse(text)

    def test_a_zero_factor_makes_its_term_zero(self):
        assert parse_sum("2*0*3 + 5", "int", self.digit, 0, 1) == 5
        assert parse_element("0*Sq[1]") == parse_element("0") == SteenrodElement.zero()
        assert parse_element("Sq[1] + 0") == parse_element("Sq[1]")
        with pytest.raises(InputError, match="^cannot parse 'x'$"):
            parse_sum("0*x", "int", self.digit, 0, 1)

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["adem", "Sq[1] + 0"], "Sq[1]"),
            (["adem", "0*Sq[1]"], "0"),
            (["transfer", "--bundle", "cp2", "--expr", "x2 + 0"], "0"),
            (["transfer", "--bundle", "cp2", "--expr", "x4 + 0"], "1"),
        ],
    )
    def test_a_zero_term_reads_on_the_command_line(self, argv, want, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == want

    def test_zeta_past_the_limit_is_refused_at_once(self, capsys):
        assert ZETA_MAX == 16
        assert parse_dual(f"zeta[{ZETA_MAX}]") == zeta(ZETA_MAX)
        with pytest.raises(InputError, match="largest zeta index 16"):
            parse_dual("xi[1] + zeta[17]")
        start = time.perf_counter()
        assert main(["pair", "zeta[40]", "Sq[1]"]) == 2
        assert time.perf_counter() - start < 1
        assert "largest zeta index" in capsys.readouterr().err

    def test_ints_reads_a_list_matched_by_the_pattern(self):
        pattern = re.compile(rf"v\[{INTS}\]")
        assert ints(pattern.fullmatch("v[ 1, 20 ,3 ]").group(1)) == (1, 20, 3)
        assert ints(pattern.fullmatch("v[ ]").group(1)) == ()
        assert pattern.fullmatch("v[1,]") is None

    def test_power_squares_only_while_bits_remain(self):
        squared = []

        def square(x):
            squared.append(x)
            return x * x

        assert power(3, 5, 1, int.__mul__, square) == 243
        assert squared == [3, 9]
        assert power(3, 0, 1, int.__mul__, square) == 1
        assert squared == [3, 9]

    @pytest.mark.parametrize(
        "raise_power",
        [
            lambda: RING.gen("x1") ** -1,
            lambda: DualElement.xi(1) ** -1,
            lambda: dual_coproduct(DualElement.xi(1)) ** -1,
            lambda: poly_pow(frozenset({mono_from([2])}), -1),
        ],
        ids=["F2Poly", "DualElement", "DualTensor", "poly_pow"],
    )
    def test_every_power_refuses_a_negative_exponent(self, raise_power):
        with pytest.raises(F2Error, match="^negative exponent$") as err:
            raise_power()
        assert isinstance(err.value, ValueError)


def add(a, b):
    return {a + b}


class TestBilinearAndTensor:
    """bilinear is the one product of F2-sums of terms, tensor the one product
    of pair terms: every multiply of sums outside the packed kernels goes
    through them."""

    def test_a_term_produced_twice_cancels(self):
        # 1 + 4 and 2 + 3 both give 5
        assert bilinear({1, 2}, {3, 4}, add) == frozenset({4, 6})
        assert bilinear({0, 1}, {0, 1}, add) == frozenset({0, 2})

    def test_an_empty_factor_gives_zero(self):
        assert bilinear(set(), {1, 2}, add) == frozenset()
        assert bilinear({1, 2}, (), add) == frozenset()
        assert bilinear({1}, {2}, lambda a, b: set()) == frozenset()

    def test_tensor_pairs_every_term_of_both_factor_products(self):
        def compose(a, b):
            return normalize_word(a + b)

        # Sq2 Sq1 Sq2 = Sq4 Sq1 + Sq5 on both sides
        assert normalize_word((2, 1, 2)) == {(4, 1), (5,)}
        got = tensor(compose)(((2,), (2, 1)), ((1, 2), (2,)))
        assert got == {(a, b) for a in ((4, 1), (5,)) for b in ((4, 1), (5,))}
        assert tensor(add)((1, 2), (3, 4)) == {(4, 6)}

    def test_bilinear_over_tensor_cancels_pairs(self):
        p = {(0, 1), (1, 0)}
        # (x (x) 1 + 1 (x) x)^2 = x^2 (x) 1 + 1 (x) x^2: the cross pairs cancel
        assert bilinear(p, p, tensor(add)) == frozenset({(0, 2), (2, 0)})

    @pytest.mark.parametrize("e", range(6))
    def test_a_dual_tensor_power_is_the_e_fold_product(self, e):
        t = dual_coproduct(DualElement.xi(2) + DualElement.xi(1) ** 3)
        assert t ** e == reduce(mul, [t] * e, DualTensor.one())

    def test_linear_sums_the_images_of_the_terms(self):
        # 1 and 3 both map to {1}, which cancels
        assert linear({1, 2, 3}, lambda a: {a % 2}) == frozenset({0})
        assert linear({1, 2}, lambda a: {a, a + 10}) == frozenset({1, 2, 11, 12})
        assert linear((), lambda a: {a}) == frozenset()


def parts_of_degrees_1_and_3(cls):
    """Two homogeneous sums, of degrees 1 and 3, in an F2Sum class."""
    sq, xi = SteenrodElement.sq, DualElement.xi
    return {
        SteenrodElement: lambda: (sq(1), sq(2, 1)),
        TensorElement: lambda: (sq(1).coproduct(), sq(2, 1).coproduct()),
        DualElement: lambda: (xi(1), xi(2)),
        DualTensor: lambda: (dual_coproduct(xi(1)), dual_coproduct(xi(2))),
    }[cls]()


@pytest.mark.parametrize(
    "cls", [SteenrodElement, TensorElement, DualElement, DualTensor], ids=lambda c: c.__name__
)
class TestF2Sum:
    """The four F2-sums of terms share one arithmetic, f2.F2Sum."""

    def test_the_mixin_sits_beside_frozen(self, cls):
        assert cls.__bases__ == (F2Sum, Frozen) and not issubclass(F2Sum, Frozen)

    def test_zero_and_one_are_the_identities(self, cls):
        low, high = parts_of_degrees_1_and_3(cls)
        x, zero, one = low + high, cls.zero(), cls.one()
        assert x + zero == zero + x == x and x + x == zero
        assert x * one == one * x == x
        assert x * zero == zero * x == zero
        assert zero.is_zero() and not one.is_zero() and not x.is_zero()

    def test_zero_prints_as_0(self, cls):
        assert str(cls.zero()) == "0"

    def test_degree(self, cls):
        low, high = parts_of_degrees_1_and_3(cls)
        assert (low.degree(), high.degree()) == (1, 3)
        assert cls.zero().degree() == -1 and cls.one().degree() == 0
        assert cls.zero().is_homogeneous() and high.is_homogeneous()
        assert not (low + high).is_homogeneous()
        with pytest.raises(ValueError, match="not homogeneous"):
            (low + high).degree()

    def test_a_cube_is_the_threefold_product(self, cls):
        # on the dual classes this compares the Frobenius square with x * x
        low, high = parts_of_degrees_1_and_3(cls)
        x = low + high
        assert x.square() == x * x
        assert x ** 3 == x * x * x
        assert x ** 0 == cls.one() and x ** 1 == x


def test_a_tensor_prints_its_pairs_in_word_order():
    sq = SteenrodElement.sq
    assert str(sq(1).coproduct()) == "1 (x) Sq[1] + Sq[1] (x) 1"
    assert str(sq(2).coproduct()) == "1 (x) Sq[2] + Sq[1] (x) Sq[1] + Sq[2] (x) 1"


class TestSeries:
    def test_empty_ring_series(self):
        ring = WeightedPolyRing(())
        s = series_of_ring(ring, 5)
        assert s.coefficients == (1, 0, 0, 0, 0, 0)

    def test_degree_ten_coefficient_by_enumeration(self):
        # oracle: brute-force enumeration of monomials of weighted degree 10
        ring = WeightedPolyRing.make(("y4", 4), ("y6", 6))
        count = 0
        for a in range(4):
            for b in range(3):
                if 4 * a + 6 * b == 10:
                    count += 1
        assert count == 1  # y4*y6 only
        assert series_of_ring(ring, 12)[10] == count

    def test_series_matches_monomial_enumeration_everywhere(self):
        ring = WeightedPolyRing.make(("t2", 2), ("t3", 3), ("t8", 8), ("t12", 12))
        s = series_of_ring(ring, 30)
        for d in range(31):
            assert s[d] == len(list(ring.monomials_of_degree(d)))

    def test_geometric_product_identity_through_60(self):
        ring = WeightedPolyRing.make(("t2", 2), ("t3", 3), ("t8", 8), ("t12", 12))
        assert series_of_ring(ring, 60) == geometric_series_product([2, 3, 8, 12], 60)

    @given(
        st.lists(st.integers(1, 6), min_size=0, max_size=3),
        st.lists(st.integers(1, 6), min_size=0, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_tensor_product_series_is_pointwise_product(self, degs1, degs2):
        r1 = WeightedPolyRing(tuple((f"a{i}", d) for i, d in enumerate(degs1)))
        r2 = WeightedPolyRing(tuple((f"b{i}", d) for i, d in enumerate(degs2)))
        joint = WeightedPolyRing(r1.generators + tuple((f"b{i}", d) for i, d in enumerate(degs2)))
        n = 12
        assert series_of_ring(joint, n) == series_of_ring(r1, n) * series_of_ring(r2, n)

    def test_truncation_errors_instead_of_silently_extending(self):
        s = PoincareSeries((1, 1, 2))
        with pytest.raises(DegreeCapError):
            s[3]


class TestFrozenFields:
    @pytest.mark.parametrize("slots", [("b", "a"), ("a",), ("_memo", "a", "b")])
    def test_slots_that_do_not_start_with_the_parameters_are_refused(self, slots):
        # the constructor's parameters are the key, so a class whose slots
        # would name other fields, or the same ones in another order, is
        # refused when it is created
        with pytest.raises(TypeError, match="Planted"):

            class Planted(Frozen):
                __slots__ = slots

                def __init__(self, a, b):
                    self._store(a, b)

        # a class is a reference cycle: collect it, so Frozen's subclasses
        # stay the package's own
        gc.collect()
        assert "Planted" not in {cls.__name__ for cls in Frozen.__subclasses__()}
