"""Acceptance battery: one test per criterion, exact assertions throughout.

Each test re-derives one family of computations end to end and is designed
to print a single pass/fail line under `pytest -v`.  Runtime bounds are
asserted where a criterion stakes one.

One test in this module fails by design and is kept red on purpose:
`test_c12_indecomposables_closed_form_rule` asserts the closed-form rule
"zero exactly below degree 4 and at 2^k +/- 1" for the homology
indecomposables, and that rule is wrong in degree 6: the degree-6 generator
is the square of the degree-3 class, which lies in the comparison subring
(equivalently, the degree-6 dual class xi_2^2 is a generator of the image
ring), so the mechanical table has dimension 0 there.  The companion test
`test_c13_primitive_transfer_detection` records the same degree as the lone
finding of the transfer sweep: both transfer legs drop too many degrees to
see a degree-6 class.
"""

import time

from steenrod import bundles, charclass, dual, modules, verify
from steenrod.algebra import SteenrodElement, admissible_basis
from steenrod.dual import DualElement, SubHopfAlgebra
from steenrod.f2 import WeightedPolyRing, geometric_series_product, series_of_ring

Sq = SteenrodElement.sq


def all_pass(checks):
    bad = [c for c in checks if not c.ok]
    assert not bad, bad
    return True


def test_c01_adem_relations_and_a1_basis():
    start = time.monotonic()
    assert Sq(1, 2) == Sq(3)
    assert Sq(2, 2) == Sq(3, 1)
    assert Sq(2, 1, 2) == Sq(4, 1) + Sq(5)
    assert Sq(2, 3) == Sq(4, 1) + Sq(5)
    assert Sq(2, 2, 2) == Sq(5, 1)
    assert Sq(1, 2, 1, 2) == Sq(5, 1)
    assert Sq(3).antipode() == Sq(2, 1)
    want = {
        SteenrodElement.one(), Sq(1), Sq(2), Sq(3),
        Sq(2, 1), Sq(3, 1), Sq(4, 1) + Sq(5), Sq(5, 1),
    }
    assert set(dual.basis_of(SubHopfAlgebra("A", 1))) == want
    assert time.monotonic() - start < 1.0


def test_c02_hopf_axioms_through_degree_12():
    start = time.monotonic()
    checks = verify.suite_hopf(12)
    all_pass(checks)
    assert time.monotonic() - start < 30.0


def test_c03_dual_suite():
    start = time.monotonic()
    xi = DualElement.xi
    want = dual.DualTensor(frozenset({((0, 1), ()), ((2,), (1,)), ((), (0, 1))}))
    assert dual.dual_coproduct(xi(2)) == want
    for n in range(1, 7):
        acc = DualElement.zero()
        for i in range(n + 1):
            acc = acc + (xi(i) ** (1 << (n - i))) * dual.zeta(n - i)
        assert acc.is_zero(), n
    for n in range(13):
        monos, words, matrix = dual.pairing_matrix(n)
        assert matrix.rank() == len(words), n
        for i in range(len(monos)):
            assert matrix.entry(i, i) == 1
            assert not any(matrix.entry(i, j) for j in range(i))
    for n in range(21):
        assert len(dual.xi_monomials(n)) == len(admissible_basis(n))
    assert time.monotonic() - start < 60.0


def test_c04_milnor_conversion():
    q = dual.milnor_primitive
    assert dual.milnor_to_admissible((0, 1)) == Sq(3) + Sq(2, 1)
    for i in range(3):
        assert (q(i) * q(i)).is_zero()
    assert (q(0) * q(1) + q(1) * q(0)).is_zero()
    for n in range(13):
        for w in admissible_basis(n):
            x = SteenrodElement.from_words([w])
            back = SteenrodElement.zero()
            for seq in dual.admissible_to_milnor(x):
                back = back + dual.milnor_to_admissible(seq)
            assert back == x


def test_c05_dual_quotient_generators_through_16():
    all_pass(verify.suite_dual_quotients(16))


def test_c06_restriction_model_identities():
    start = time.monotonic()
    checks = bundles.restriction_model_report()
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    assert time.monotonic() - start < 10.0


def test_c07_cp2_transfer():
    checks = bundles.cp2_transfer_report(10)
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_c08_hp2_transfer_table_and_module_property():
    checks = bundles.hp2_transfer_report(3, 4, samples=200)
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    assert bundles.module_property_check(bundles.cp2_bundle(), 200).ok


def test_c09_generating_function_identities_through_60():
    ring = WeightedPolyRing.make(("t2", 2), ("t3", 3), ("t8", 8), ("t12", 12))
    assert series_of_ring(ring, 60) == geometric_series_product([2, 3, 8, 12], 60)
    # the split of F2[t2, t3, t8, t12] into F2[t8, t12^2] (x) two summands
    lhs = series_of_ring(ring, 60)
    outer = series_of_ring(WeightedPolyRing.make(("a", 8), ("b", 24)), 60)
    inner = series_of_ring(WeightedPolyRing.make(("c", 2), ("d", 3)), 60)
    rhs = []
    for n in range(61):
        total = 0
        for m in range(n + 1):
            shifted = inner[n - m] + (inner[n - m - 12] if n - m >= 12 else 0)
            total += outer[m] * shifted
        rhs.append(total)
    assert lhs.coefficients == tuple(rhs)
    # the two-cell bookkeeping series for F2[y4, y6]
    ring46 = series_of_ring(WeightedPolyRing.make(("y4", 4), ("y6", 6)), 60)
    base8 = series_of_ring(WeightedPolyRing.make(("a", 8)), 60)
    base86 = series_of_ring(WeightedPolyRing.make(("a", 8), ("b", 6)), 60)
    for d in range(61):
        two_cell = (base86[d - 4] if d >= 4 else 0) + (base86[d - 6] if d >= 6 else 0)
        assert ring46[d] == base8[d] + two_cell, d


def test_c10_module_theory():
    expectations = {
        "A1": (("E1", 0), ("E1", 2)),
        "I": (("E1", 2), ("L", 0)),
        "J": (("E1", 0), ("Z2", 2)),
        "K": (("L", -1),),
    }
    for name, want in expectations.items():
        r = modules.stable_type_solve(
            modules.restrict_to_e1(modules.standard_piece("A1", name))
        )
        assert r.status == "unique" and r.pieces == want and r.iso is not None, name

    # the evenly graded ring over E(1) on the window [0, 40]: both operators
    # vanish, so the honest stable type is one trivial piece per basis class
    m = modules.from_presentation(bundles.bsu3_presentation(), "E1", (0, 40))
    r = modules.stable_type_solve(m)
    want = []
    for d in range(0, m.reliable_max() + 1):
        want.extend([("Z2", d)] * m.dim(d))
    assert r.status == "unique" and r.pieces == tuple(sorted(want))
    assert r.iso is not None and r.iso.check_commutes()

    a1 = modules.standard_piece("A1", "A1")
    assert modules.check_split_criterion(modules.identity_map(a1)).split_guaranteed
    j2 = modules.standard_piece("A1", "J").suspend(2)
    fmap = None
    for mats in modules._hom_space(j2, a1):
        cand = modules.ModuleMap(j2, a1, tuple(mats))
        if cand.is_injective():
            fmap = cand
            break
    cert = modules.check_split_criterion(fmap)
    assert cert.f_injective and not cert.split_guaranteed


def test_c11_primitive_tables_through_64():
    start = time.monotonic()
    for space in ("bso", "bspin", "bspinc"):
        mdl = charclass.model(space, 64)
        for n in range(2, 65):
            r = mdl.primitives(n, kernel_limit=12)
            assert r.verified, (space, n, r.dimension, r.formula)
            assert r.kernel_checked == (n <= 12)
    assert charclass.s17_naive_substitution() == (
        frozenset({charclass.mono_from([7, 10])})
        ^ frozenset({charclass.mono_from([6, 11])})
        ^ frozenset({charclass.mono_from([4, 13])})
    )
    for k in range(4):
        assert all(c.ok for c in charclass.power_sum_vanishing_check(k)), k
    assert time.monotonic() - start < 300.0


def test_c12_indecomposables_closed_form_rule():
    """Asserts the closed-form rule literally; red by design at degree 6.

    The mechanical generator count gives 0 in degree 6 because the degree-6
    generator is the square of the degree-3 class and lies inside the
    comparison subring (its dual is the degree-6 polynomial generator of the
    connective K-homology image), while the rule predicts 1 there.
    """
    table = charclass.spinc_homology_indecomposables(32)
    for n in range(33):
        expected = table.rule(n)  # 0 below 4 and at 2^k +/- 1, else 1
        assert table.dims[n] == expected, (
            f"degree {n}: table {table.dims[n]}, rule {expected}"
        )


def test_c13_primitive_transfer_detection():
    start = time.monotonic()
    results = bundles.primitive_transfer_check(32)
    covered = {r.degree for r in results}
    for n in range(4, 33):
        if any(n == 2**k + 1 or n == 2**k - 1 for k in range(1, 8)):
            assert n not in covered
        else:
            assert n in covered
    findings = [r for r in results if not r.detected]
    # every degree is seen through a leg except 6, which both legs drop
    assert [r.degree for r in findings] == [6]
    assert findings[0].formula == "s3,3"
    assert findings[0].cp2_value == "0" and findings[0].hp2_value == "0"
    assert time.monotonic() - start < 120.0
