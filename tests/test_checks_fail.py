"""Check rows fail on corrupted code, naming their first counterexample.

Each entry corrupts one function of `src/`, runs one suite in process, and
expects each named row to fail with the witness its search meets first, or
with the certificate it read.
"""

from functools import lru_cache

import pytest

from rebuild import rebuilt
from steenrod import action, algebra, bundles, charclass, dual, f2, modules, verify
from steenrod.algebra import SteenrodElement


def chi_of_sq1_is_zero(monkeypatch):
    antipode = SteenrodElement.antipode
    sq1 = SteenrodElement.sq(1)
    monkeypatch.setattr(
        SteenrodElement,
        "antipode",
        lambda x: SteenrodElement.zero() if x == sq1 else antipode(x),
    )


def milnor_coordinates_lost_in_degrees_3_and_5(monkeypatch):
    to_milnor = dual.admissible_to_milnor
    monkeypatch.setattr(
        dual,
        "admissible_to_milnor",
        lambda x: frozenset() if any(sum(w) in (3, 5) for w in x.words) else to_milnor(x),
    )


def pairing_matrices_transposed_in_degrees_3_and_5(monkeypatch):
    pairing_matrix = dual.pairing_matrix

    def corrupted(n):
        monos, words, matrix = pairing_matrix(n)
        return monos, words, matrix.transpose() if n in (3, 5) else matrix

    monkeypatch.setattr(dual, "pairing_matrix", corrupted)
    # the Milnor primitives are rebuilt from the corrupted matrices, and the
    # cached ones are neither read nor overwritten
    monkeypatch.setattr(dual, "milnor_primitive", dual.milnor_primitive.__wrapped__)


def sq21_loses_its_sq1_sq2_term(monkeypatch):
    """coproduct_word of Sq^2 Sq^1 without its term Sq^1 (x) Sq^2."""
    coproduct_word = algebra.coproduct_word
    monkeypatch.setattr(
        algebra,
        "coproduct_word",
        lambda w: coproduct_word(w) - {((1,), (2,))} if w == (2, 1) else coproduct_word(w),
    )
    # the antipode recursion reads the corrupted coproduct into a cache of
    # its own, and the shared one is neither read nor overwritten
    antipode_word = lru_cache(maxsize=None)(algebra._antipode_word.__wrapped__)
    monkeypatch.setattr(algebra, "_antipode_word", antipode_word)


def dual_tensor_right_factors_times_left_factors(monkeypatch):
    """(a, b)(c, d) read as a c (x) b c in the product of dual tensors."""
    xi_product = dual._xi_product
    monkeypatch.setattr(
        dual.DualTensor,
        "_product",
        staticmethod(
            lambda x, y: {(lm, rm) for lm in xi_product(x[0], y[0]) for rm in xi_product(x[1], y[0])}
        ),
    )
    monkeypatch.setattr(dual, "_monomial_coproduct", dual._monomial_coproduct.__wrapped__)


def pairing_flipped_in_degree_3(monkeypatch):
    """Every <xi^E, Sq^I> with I of degree 3 flipped, recursion included."""
    # the bases of the sub-Hopf algebras read the pairing through the cached
    # Milnor primitives: build them from the true one first
    for kind, n in (("A", 0), ("A", 1), ("E", 1)):
        dual.basis_of(dual.SubHopfAlgebra(kind, n))
    pair_mono_word = dual._pair_mono_word.__wrapped__

    @lru_cache(maxsize=None)
    def corrupted(mono, word):
        return pair_mono_word(mono, word) ^ (sum(word) == 3)

    monkeypatch.setattr(dual, "_pair_mono_word", corrupted)


def transfer_off_by_one(name, degrees):
    """Adds 1 to the transfer of the named bundle on homogeneous inputs of
    the given degrees."""

    def corrupt(monkeypatch):
        integrate = bundles.FiberBundleData.fiber_integrate

        def corrupted(b, f):
            got = integrate(b, f)
            if b.name == name and f.is_homogeneous() and f.degree() in degrees:
                return got + b.base.ring.one()
            return got

        monkeypatch.setattr(bundles.FiberBundleData, "fiber_integrate", corrupted)

    return corrupt


def u4_matrix_loses_t8(monkeypatch):
    """hp2's matrix of multiplication by u4 with t8 dropped from its entry
    t2^4 + t8, the b_1 coefficient of u4 b_2, in a fresh copy of the bundle:
    the cached one is neither read nor overwritten."""
    matrix = bundles.FiberBundleData._matrix

    def corrupted(b, j):
        rows = matrix(b, j)
        if (b.name, b.total.ring.generators[j][0]) != ("hp2", "u4"):
            return rows
        t8 = b.base.ring.gen("t8")
        assert t8.monomials <= rows[1][2].monomials
        return (rows[0], rows[1][:2] + (rows[1][2] + t8,), rows[2])

    monkeypatch.setattr(bundles.FiberBundleData, "_matrix", corrupted)
    fresh = rebuilt(bundles.hp2_bundle())
    monkeypatch.setattr(bundles, "hp2_bundle", lambda: fresh)


def odd_classes_in_the_evenly_graded_ring(monkeypatch):
    monkeypatch.setattr(bundles, "bsu3_presentation", bundles.bpsp3_presentation)


def sq5_of_t8_gains_t2_t3_t8(monkeypatch):
    """The derived F2[t2, t3, t8, t12] with Sq^5(t8) toggled by t2 t3 t8, in
    a fresh presentation: the cached one is neither read nor overwritten."""
    p = bundles.bpsp3_presentation()
    rows = [list(row) for row in p.action]
    rows[2][4] = rows[2][4] + p.ring.parse("t2*t3*t8")
    bad = action.SqAlgebraPresentation(p.ring, tuple(map(tuple, rows)))
    monkeypatch.setattr(bundles, "bpsp3_presentation", lambda: bad)


def sq1_of_x2_read_as_zero(monkeypatch):
    """The Cartan engine of every presentation built from here on reads
    Sq^1(x2) of a degree-1 class x2 as 0, the restriction model's among them."""
    # the cached presentations derived from the model are built from the
    # true action first, and are neither read nor overwritten corrupted
    bundles.hp2_bundle()
    gen = action.SqAlgebraPresentation._gen

    def corrupted(p, i):
        comps = gen(p, i)
        return [comps[0], frozenset()] if p.ring.generators[i] == ("x2", 1) else comps

    monkeypatch.setattr(action.SqAlgebraPresentation, "_gen", corrupted)
    model = bundles.restriction_model.__wrapped__()
    monkeypatch.setattr(bundles, "restriction_model", lambda: model)


def margolis_injectivity_fails_at_the_bottom(monkeypatch):
    monkeypatch.setattr(
        modules.ModuleMap,
        "margolis_induced_injective",
        lambda f, which: (False, f.source.dmin),
    )


def every_map_injective(monkeypatch):
    monkeypatch.setattr(modules.ModuleMap, "is_injective", lambda f: True)


def block_sum_reads_the_first_part_as_trivial(monkeypatch):
    """The block sum with the action of its first part read as zero."""
    direct_sum = modules.FiniteModule.direct_sum

    def corrupted(first, *others):
        zero = {op: [f2.F2Matrix.zero(m.nrows, m.ncols) for m in mats] for op, mats in first.ops}
        blank = modules.FiniteModule.build(
            first.algebra, first.dmin, first.dims, zero, first.truncated, first.name
        )
        return direct_sum(blank, *others)

    monkeypatch.setattr(modules.FiniteModule, "direct_sum", corrupted)


def stacked_map_reads_the_last_piece_as_zero(monkeypatch):
    """The map from the block sum with every image of its last piece read
    as zero."""
    stacked_map = modules._stacked_map

    def corrupted(module, templates, placed):
        return stacked_map(module, templates, placed[:-1] + [[(d, 0) for d, _ in placed[-1]]])

    monkeypatch.setattr(modules, "_stacked_map", corrupted)


def j_dropped_from_the_a1_catalog(monkeypatch):
    """The catalog the solver reads when no piece list is given, with the
    A(1) piece J left out."""
    catalog = modules.catalog
    monkeypatch.setattr(
        modules,
        "catalog",
        lambda algebra: tuple(p for p in catalog(algebra) if (algebra, p) != ("A1", "J")),
    )


def ring_series_off_by_one_in_degree_5(monkeypatch):
    series_of_ring = f2.series_of_ring

    def corrupted(ring, max_degree):
        coefficients = series_of_ring(ring, max_degree).coefficients
        return f2.PoincareSeries(tuple(c + (d == 5) for d, c in enumerate(coefficients)))

    monkeypatch.setattr(f2, "series_of_ring", corrupted)


def s3_survives_in_bspin(monkeypatch):
    power_sum = charclass.QuotientModel.power_sum
    w3 = frozenset({charclass.mono_from([3])})
    monkeypatch.setattr(
        charclass.QuotientModel,
        "power_sum",
        lambda m, n: w3 if (m.space, n) == ("bspin", 3) else power_sum(m, n),
    )


def c_9_8_read_as_even(monkeypatch):
    """C(9, 8) = 9 read as even by the total square on rank-one roots, so
    that of s_9 loses its degree-17 term."""
    square = charclass._rank_one_square
    monkeypatch.setattr(
        charclass, "_rank_one_square", lambda m: square(m) - {17} if m == 9 else square(m)
    )


def w9_dropped_from_the_degree_9_ideal_slice(monkeypatch):
    """The degree-9 ideal slice that the bspin membership rows eliminate,
    without the elements that carry w_9."""
    ideal_slice = charclass.QuotientModel._ideal_slice
    w9 = charclass.mono_from([9])

    def corrupted(m, n):
        basis = ideal_slice(m, n)
        return [b for b in basis if w9 not in b] if n == 9 else basis

    monkeypatch.setattr(charclass.QuotientModel, "_ideal_slice", corrupted)


def primitive_dimension_one_too_high(degree):
    """Adds 1 to every model's primitive dimension in the given degree."""

    def corrupt(monkeypatch):
        primitive_dimension = charclass.QuotientModel.primitive_dimension
        monkeypatch.setattr(
            charclass.QuotientModel,
            "primitive_dimension",
            lambda m, n: primitive_dimension(m, n) + (n == degree),
        )

    return corrupt


# (suite, corruption, {check id: the first witness its search meets})
ENTRIES = [
    pytest.param(
        "hopf",
        chi_of_sq1_is_zero,
        {
            "antipode axiom through degree 12": "Sq[1]",
            "antipode is an involution through degree 12": "Sq[1]",
        },
        id="hopf-chi-of-sq1-is-zero",
    ),
    pytest.param(
        "hopf",
        sq21_loses_its_sq1_sq2_term,
        {
            "coassociativity through degree 12": "Sq[2,1]",
            "coproduct is an algebra map through degree 12": "Sq[1] (x) Sq[2,1]",
            "antipode axiom through degree 12": "Sq[3,1]",
            "antipode is an involution through degree 12": "Sq[3]",
        },
        id="hopf-sq21-loses-a-coproduct-term",
    ),
    pytest.param(
        "pairing",
        milnor_coordinates_lost_in_degrees_3_and_5,
        {"basis conversion round-trip through degree 12": "Sq[3]"},
        id="pairing-milnor-coordinates-lost",
    ),
    pytest.param(
        "pairing",
        pairing_matrices_transposed_in_degrees_3_and_5,
        {
            "pairing matrices unitriangular through degree 12": "degree 3 not unitriangular",
            "milnor primitives square to zero": "Q1",
            "milnor primitives commute": "Q0 Q1",
        },
        id="pairing-matrices-transposed",
    ),
    pytest.param(
        "pairing",
        dual_tensor_right_factors_times_left_factors,
        {
            "coproduct of xi_2": "got 1 (x) 1 + xi[2] (x) xi[2] + xi[0,1] (x) xi[0,1],"
            " want 1 (x) xi[0,1] + xi[2] (x) xi[1] + xi[0,1] (x) 1"
        },
        id="pairing-dual-tensor-product-crossed",
    ),
    pytest.param(
        "dual-quotients",
        pairing_flipped_in_degree_3,
        {"A(1): generator products lie in the cotensor through degree 16": "xi[8,2]"},
        id="dual-quotients-pairing-flipped-in-degree-3",
    ),
    pytest.param(
        "cp2-transfer",
        transfer_off_by_one("cp2", (6, 12)),
        {
            "transfer recurrences": "x2^3",
            "pullback factor extraction": "x2^1 x4^1",
        },
        id="cp2-transfer-off-by-one",
    ),
    pytest.param(
        "hp2-transfer",
        transfer_off_by_one("hp2", (8, 16)),
        {"closed form modulo t12": "u3^0 u2^0 u4^0 u8^1: got 0"},
        id="hp2-transfer-off-by-one",
    ),
    # pi^*(t8) = u4^2 + u8 then no longer acts as t8 times the identity
    pytest.param(
        "hp2-transfer",
        u4_matrix_loses_t8,
        {
            "closed form modulo t12": "u3^0 u2^0 u4^2 u8^1: got t8",
            "module property": (
                "trial 10: y = t2^6 + t2^2*t8, x = u2^8 + u2^6*u4 + u2^5*u3^2"
                " + u2^4*u4^2 + u2^2*u4^3 + u2^2*u4*u8 + u3^4*u4 + u4^4 + u4^2*u8"
            ),
        },
        id="hp2-transfer-u4-matrix-loses-t8",
    ),
    pytest.param(
        "bpsp-model",
        sq5_of_t8_gains_t2_t3_t8,
        {"derived ring consistent through degree 24": "Adem relation Sq^2 Sq^3 fails on t8"},
        id="bpsp-model-sq5-of-t8-gains-a-term",
    ),
    pytest.param(
        "bpsp-model",
        sq1_of_x2_read_as_zero,
        {
            "Sq^1(t2)": "got x1^2*x2, want x1^2*x2 + x1*x2^2",
            "Sq^2(t2)": "got x1^4, want x1^4 + x1^2*x2^2 + x2^4",
            "Sq^2(t3)": "got x1^4*x2, want x1^4*x2 + x1*x2^4",
        },
        id="bpsp-model-sq1-of-x2-read-as-zero",
    ),
    pytest.param(
        "e1-modules",
        odd_classes_in_the_evenly_graded_ring,
        {"both differentials vanish identically": "q0 at degree 2"},
        id="e1-modules-odd-classes",
    ),
    # a zero column makes the stacked map singular, so no piece is certified
    pytest.param(
        "e1-modules",
        stacked_map_reads_the_last_piece_as_zero,
        {"evenly graded ring splits into trivial pieces on [0, 40]": "unverified"},
        id="e1-modules-stacked-map-loses-the-last-piece",
    ),
    pytest.param(
        "a1-modules",
        margolis_injectivity_fails_at_the_bottom,
        {
            "identity map certified split": "SplitCertificate(hypotheses_met=True,"
            " f_injective=True, q0_margolis_injective=False, witness_degree=0)",
            "suspended joker inclusion rejected at the margolis stage": "SplitCertificate("
            "hypotheses_met=True, f_injective=True, q0_margolis_injective=False,"
            " witness_degree=2)",
        },
        id="a1-modules-margolis-injectivity-fails",
    ),
    pytest.param(
        "a1-modules",
        every_map_injective,
        {
            "zero map rejected": "SplitCertificate(hypotheses_met=True,"
            " f_injective=True, q0_margolis_injective=False, witness_degree=0)"
        },
        id="a1-modules-every-map-injective",
    ),
    # the stable type is found, but no map from the corrupted sum commutes
    pytest.param(
        "a1-modules",
        block_sum_reads_the_first_part_as_trivial,
        {
            "restriction of A1": "unverified: ((('E1', 0), ('E1', 2)),)",
            "restriction of I": "unverified: ((('E1', 2), ('L', 0)),)",
            "restriction of J": "unverified: ((('E1', 0), ('Z2', 2)),)",
            "restriction of K": "unverified: ((('L', -1),),)",
            "identity map certified split": "SplitCertificate(hypotheses_met=False,"
            " f_injective=True, q0_margolis_injective=True, witness_degree=None)",
        },
        id="a1-modules-block-sum-loses-the-first-action",
    ),
    pytest.param(
        "a1-modules",
        j_dropped_from_the_a1_catalog,
        {"four piece types plus free cover [0, 40]": "infeasible: not expressible in catalog"},
        id="a1-modules-j-dropped-from-the-catalog",
    ),
    pytest.param(
        "a1-modules",
        ring_series_off_by_one_in_degree_5,
        {"dimension series of the t-ring through degree 60": "degree 5: series 2, 1 monomials"},
        id="a1-modules-ring-series-off-by-one",
    ),
    pytest.param(
        "power-sums",
        s3_survives_in_bspin,
        {
            "square component step k=0": "s_3 survives in the model: w3",
            "reduces to zero in the quotient k=1": "w3",
        },
        id="power-sums-s3-survives",
    ),
    pytest.param(
        "power-sums",
        c_9_8_read_as_even,
        {
            "total-square identity k=3": "got [9, 10, 18], want [9, 10, 17, 18]",
            "square component step k=3": "Sq^8 s_9 lacks a degree-17 term",
        },
        id="power-sums-c-9-8-even",
    ),
    pytest.param(
        "power-sums",
        w9_dropped_from_the_degree_9_ideal_slice,
        {"exact ideal membership k=3": "s_9 outside the degree-9 ideal slice"},
        id="power-sums-w9-dropped-from-the-ideal-slice",
    ),
    pytest.param(
        "primitives",
        s3_survives_in_bspin,
        {
            "power-sum vanishing chain k=0": "square component step k=0:"
            " s_3 survives in the model: w3",
            "power-sum vanishing chain k=1": "reduces to zero in the quotient k=1: w3",
        },
        id="primitives-s3-survives",
    ),
    pytest.param(
        "primitives",
        primitive_dimension_one_too_high(5),
        {
            "bso: table verified through degree 64": "degree 5: dim 2, s5",
            "bspin: table verified through degree 64": "degree 5: dim 1, 0",
            "bspinc: table verified through degree 64": "degree 5: dim 1, 0",
        },
        id="primitives-dimension-one-too-high-in-degree-5",
    ),
    # past the kernel limit (12) only the dimension tests of the table see it
    pytest.param(
        "primitives",
        primitive_dimension_one_too_high(17),
        {
            "bso: table verified through degree 64": "degree 17: dim 2, s17",
            "bspin: table verified through degree 64": "degree 17: dim 1, 0",
            "bspinc: table verified through degree 64": "degree 17: dim 1, 0",
        },
        id="primitives-dimension-one-too-high-in-degree-17",
    ),
]


@pytest.mark.parametrize("suite, corrupt, want", ENTRIES)
def test_a_corrupted_search_names_its_first_counterexample(suite, corrupt, want, monkeypatch):
    corrupt(monkeypatch)
    run, cap = verify.SUITES[suite]
    rows = {c.check_id: c for c in run(cap)}
    assert {i: (rows[i].status, rows[i].witness) for i in want} == {
        i: ("fail", w) for i, w in want.items()
    }
