import pytest

from rebuild import rebuilt
from steenrod import bundles
from steenrod.action import check_presentation
from steenrod.bundles import (
    BundleError,
    bpsp3_presentation,
    bsu3_presentation,
    bu3_presentation,
    bundle,
    cp2_bundle,
    cp2_transfer_report,
    hp2_bundle,
    hp2_transfer_report,
    module_property_check,
    primitive_transfer_check,
    restriction_model_report,
    substitute_vertical,
)
from steenrod.charclass import mono_from
from steenrod.f2 import F2Matrix, F2Poly, series_of_ring


class TestDerivedPresentations:
    def test_bpsp3_action_table(self):
        p = bpsp3_presentation()
        R = p.ring
        assert p.sq(1, R.gen("t2")) == R.gen("t3")
        assert p.sq(2, R.gen("t2")) == R.parse("t2^2")
        assert p.sq(1, R.gen("t3")).is_zero()
        assert p.sq(2, R.gen("t3")) == R.parse("t2*t3")
        assert p.sq(1, R.gen("t8")).is_zero()
        assert p.sq(2, R.gen("t8")).is_zero()
        assert p.sq(1, R.gen("t12")).is_zero()
        assert p.sq(2, R.gen("t12")) == R.parse("t2*t12")

    def test_bpsp3_passes_full_consistency_to_degree_24(self):
        assert check_presentation(bpsp3_presentation(), 24, adem_max=4).ok

    def test_bsu3_action_table(self):
        p = bsu3_presentation()
        R = p.ring
        assert p.sq(2, R.gen("y4")) == R.gen("y6")
        assert p.sq(1, R.gen("y4")).is_zero()
        assert p.sq(2, R.gen("y6")).is_zero()
        assert p.sq(4, R.gen("y6")) == R.parse("y4*y6")

    def test_bu3_chern_identities(self):
        p = bu3_presentation()
        R = p.ring
        assert p.sq(2, R.gen("c4")) == R.parse("c2*c4 + c6")
        assert p.sq(2, R.gen("c6")) == R.parse("c2*c6")

    def test_subring_membership_guard(self):
        from steenrod.bundles import derive_presentation, rank_one_model

        m = rank_one_model(("a", "b"))
        with pytest.raises(BundleError):
            # a + b generates a subring that does not contain Sq-images of a*b
            derive_presentation(m, [("g", m.ring.parse("a*b"))])


class TestLerayHirsch:
    def test_cp2_reduce_pullback_class(self):
        b = cp2_bundle()
        S, R = b.total.ring, b.base.ring
        coeffs = b.lh_reduce(S.parse("x2^2 + x4"))
        assert coeffs == (R.gen("y4"), R.zero(), R.zero())

    def test_cp2_reduce_x2_squared_round_trip(self):
        b = cp2_bundle()
        S = b.total.ring
        f = S.parse("x2^2")
        coeffs = b.lh_reduce(f)
        # oracle: re-expand sum pi^*(r_i) b_i and compare
        total = S.zero()
        for r, basis_elt in zip(coeffs, b.lh_basis):
            total = total + b.pullback.apply(r) * basis_elt
        assert total == f
        assert coeffs[2] == b.base.ring.one()

    def test_unit_reduces_to_unit(self):
        b = cp2_bundle()
        coeffs = b.lh_reduce(b.total.ring.one())
        assert coeffs == (b.base.ring.one(), b.base.ring.zero(), b.base.ring.zero())

    def test_round_trip_on_random_slices(self):
        for name in ("cp2", "hp2"):
            b = bundle(name)
            S = b.total.ring
            for degree in (8, 12, 17):
                for mono in S.monomials_of_degree(degree):
                    f = F2Poly(S, frozenset({mono}))
                    total = S.zero()
                    for r, basis_elt in zip(b.lh_reduce(f), b.lh_basis):
                        total = total + b.pullback.apply(r) * basis_elt
                    assert total == f

    def test_base_cases(self):
        b = cp2_bundle()
        S, R = b.total.ring, b.base.ring
        assert b.fiber_integrate(S.one()).is_zero()
        assert b.fiber_integrate(S.parse("x2")).is_zero()
        assert b.fiber_integrate(S.parse("x2^2")) == R.one()
        assert b.fiber_integrate(S.parse("x4^2")) == R.gen("y4")

    def test_hp2_base_case(self):
        b = hp2_bundle()
        S, R = b.total.ring, b.base.ring
        w4tau = S.parse("u2^2 + u4")
        assert b.fiber_integrate(w4tau * w4tau) == R.one()
        assert b.fiber_integrate(S.one()).is_zero()

    def test_integration_keeps_the_checks_of_lh_reduce(self):
        b = cp2_bundle()
        S, R = b.total.ring, b.base.ring
        f = S.parse("x2^2 + x4^2 + x2^3*x4")  # degrees 4, 8 and 10
        assert b.fiber_integrate(f) == sum(
            (b.lh_reduce(part)[-1] for part in f.homogeneous_parts().values()), R.zero()
        )
        for bad in (R.gen("y4"), S.parse("x2") ** (b.cap // 2 + 1)):
            with pytest.raises(BundleError):
                b.fiber_integrate(bad)
            with pytest.raises(BundleError):
                b.lh_reduce(bad)

    def test_dropped_basis_element_fails_the_expansion(self):
        b = cp2_bundle()
        x2_squared = b.total.ring.parse("x2^2")
        b.lh_reduce(x2_squared)  # fills the cache of the complete bundle
        broken = rebuilt(b, lh_basis=b.lh_basis[:2])
        with pytest.raises(BundleError):
            broken.lh_reduce(x2_squared)

    @pytest.mark.parametrize("make", [cp2_bundle, hp2_bundle], ids=["cp2", "hp2"])
    def test_cached_pullback_agrees_with_a_fresh_substitution(self, make):
        b = make()
        pullback = b.pullback
        for d in range(b.cap + 1):
            for mono in b.base.ring.monomials_of_degree(d):
                f = F2Poly(b.base.ring, frozenset({mono}))
                assert pullback.apply(f) == f.substitute(b.total.ring, pullback.images), mono
        assert pullback._powers  # image powers outlive a single apply

    def test_a_copy_with_other_images_has_its_own_power_cache(self):
        b = cp2_bundle()
        S, y4 = b.total.ring, b.base.ring.gen("y4")
        assert b.pullback.apply(y4 * y4) == S.parse("x2^4 + x4^2")
        other = rebuilt(b.pullback, images=(S.gen("x4"), b.pullback.images[1]))
        assert other.apply(y4 * y4) == S.parse("x4^2")

    def test_a_dependent_basis_raises(self):
        b = cp2_bundle()
        S = b.total.ring
        x2 = S.gen("x2")
        # x2^3 = pi^*(y6) + pi^*(y4) x2: the fourth element is no new class
        broken = rebuilt(b, lh_basis=b.lh_basis + (x2 ** 3,))
        with pytest.raises(BundleError, match="cp2: 3 Leray-Hirsch products in degree 6, against a slice of dimension 2"):
            broken.lh_reduce(x2 ** 3)
        with pytest.raises(BundleError, match="products of degree 6 are dependent"):
            broken._eliminate(x2 ** 3)

    @pytest.mark.parametrize("make", [cp2_bundle, hp2_bundle], ids=["cp2", "hp2"])
    def test_the_representation_agrees_with_elimination_through_degree_40(self, make):
        b = rebuilt(make(), cap=40)  # fresh caches
        S = b.total.ring
        for d in range(b.cap + 1):
            for mono in S.monomials_of_degree(d):
                f = F2Poly(S, frozenset({mono}))
                assert b.lh_reduce(f) == b._eliminate(f), (d, S.unpack(mono))

    def test_the_hp2_report_builds_each_matrix_and_expansion_once(self, monkeypatch):
        b = rebuilt(hp2_bundle())  # fresh caches
        monkeypatch.setattr(bundles, "hp2_bundle", lambda: b)
        calls: dict = {"_matrix": [], "_expand": []}
        for name, seen in calls.items():
            real = getattr(bundles.FiberBundleData, name)

            def counting(self, key, real=real, seen=seen):
                seen.append(key)
                return real(self, key)

            monkeypatch.setattr(bundles.FiberBundleData, name, counting)
        assert all(c.ok for c in hp2_transfer_report())
        assert sorted(calls["_matrix"]) == [0, 1, 2, 3]
        assert calls["_expand"] and len(calls["_expand"]) == len(set(calls["_expand"]))
        # full slices only where the matrices are read: |v_j| + |b_i| <= 8 + 8
        assert max(b._spans) == 16
        assert set(b._spans) == {0} | {
            v + bb.degree() for v in b.total.ring.degrees for bb in b.lh_basis
        }

    def test_slice_solver_treats_other_degrees_as_outside_the_span(self):
        from steenrod.bundles import _slice_solver

        S = cp2_bundle().total.ring
        x2, x4 = S.gen("x2"), S.gen("x4")
        solve = _slice_solver([x2 * x2, x2 * x2 + x4], ["a", "b"])
        assert solve(x4) == ["a", "b"]
        assert solve(x2) is None and solve(x4 + x2) is None


class TestReports:
    def test_restriction_model_report_all_pass(self):
        assert all(c.ok for c in restriction_model_report())

    def test_cp2_report_all_pass(self):
        assert all(c.ok for c in cp2_transfer_report(10))

    def test_hp2_report_all_pass(self):
        checks = hp2_transfer_report(2, 3, samples=40)
        assert all(c.ok for c in checks)

    def test_bookkeeping_pass(self):
        # degreewise freeness over the base and injectivity of the pullback
        for name in ("cp2", "hp2"):
            b = bundle(name)
            base, total = series_of_ring(b.base.ring, 30), series_of_ring(b.total.ring, 30)
            for n in range(31):
                want = sum(base[n - bb.degree()] for bb in b.lh_basis if n >= bb.degree())
                assert total[n] == want, (name, n)
                monos = list(b.base.ring.monomials_of_degree(n))
                if not monos:
                    continue
                index = {m: i for i, m in enumerate(b.total.ring.monomials_of_degree(n))}
                # one row per image, so the row rank is the rank of the pullback
                images = [b.pullback.apply(F2Poly(b.base.ring, frozenset({m}))) for m in monos]
                rows = [sum(1 << index[mm] for mm in img.monomials) for img in images]
                assert F2Matrix(len(monos), len(index), rows).rank() == len(monos), (name, n)

    def test_module_property_holds(self):
        for name in ("cp2", "hp2"):
            assert module_property_check(bundle(name), 30).ok


class TestPrimitiveTransfer:
    def test_vertical_substitution(self):
        b = cp2_bundle()
        got = substitute_vertical(b, frozenset({mono_from([2, 2, 2]), mono_from([2, 4]), mono_from([6])}))
        # w2^3 + w2 w4 + w6 -> x2^3 + x2 x4 (w6 component of the vertical class is 0)
        assert got == b.total.ring.parse("x2^3 + x2*x4")

    def test_degree_eight_detected_via_cp2(self):
        results = {r.degree: r for r in primitive_transfer_check(12)}
        r8 = results[8]
        assert r8.detected and r8.cp2_value == "y4"

    def test_degree_six_is_the_lone_miss_through_32(self):
        results = primitive_transfer_check(32)
        missed = [r.degree for r in results if not r.detected]
        assert missed == [6]

    def test_excluded_degrees_skipped(self):
        degrees = {r.degree for r in primitive_transfer_check(16)}
        for k in (3, 5, 7, 9, 15, 17):
            assert k not in degrees
