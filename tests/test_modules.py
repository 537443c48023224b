import random

import pytest

from steenrod.action import SqAlgebraPresentation, check_presentation
from steenrod.algebra import SteenrodElement
from steenrod.dual import SubHopfAlgebra, basis_of, milnor_primitive
from steenrod.f2 import F2Matrix, WeightedPolyRing
from steenrod.modules import (
    ALGEBRAS,
    FiniteModule,
    ModuleError,
    catalog,
    check_split_criterion,
    eight_fold_feasibility,
    from_presentation,
    identity_map,
    restrict_to_e1,
    stable_type_solve,
    standard_piece,
    zero_map,
    zero_module,
    _hom_space,
    _module_from_subquotient,
)


def brute_margolis(module, which):
    """Oracle: exhaustive kernel/image over all vectors of each tiny slice."""
    shift, mats = module.margolis_operator(which)
    out = {}
    for d in range(module.dmin, module.dmax + 1):
        n = module.dim(d)
        ker = sum(
            1
            for bits in range(1 << n)
            if all(
                bin(mats[d].rows[i] & bits).count("1") % 2 == 0
                for i in range(mats[d].nrows)
            )
        )
        prev = mats.get(d - shift)
        if prev is None or d - shift < module.dmin:
            im = 1
        else:
            im = len(
                {
                    tuple(
                        bin(prev.rows[i] & bits).count("1") % 2
                        for i in range(prev.nrows)
                    )
                    for bits in range(1 << prev.ncols)
                }
            )
        out[d] = (ker.bit_length() - 1) - (im.bit_length() - 1)
    return out


class TestTemplates:
    def test_a1_catalog_shapes(self):
        shapes = {
            "Z2": (0, (1,)),
            "I": (1, (1, 1, 2, 1, 1, 1)),
            "J": (0, (1, 1, 1, 1, 1)),
            "K": (0, (1, 0, 1, 1)),
            "A1": (0, (1, 1, 1, 2, 1, 1, 1)),
        }
        for name, (dmin, dims) in shapes.items():
            t = standard_piece("A1", name)
            assert (t.dmin, t.dims) == (dmin, dims), name
            t.validate()

    def test_e1_catalog_shapes(self):
        shapes = {
            "Z2": (0, (1,)),
            "L": (1, (1, 0, 1, 1)),
            "C": (0, (1, 0, 0, 1)),
            "E1": (0, (1, 1, 0, 1, 1)),
        }
        for name, (dmin, dims) in shapes.items():
            t = standard_piece("E1", name)
            assert (t.dmin, t.dims) == (dmin, dims), name
            t.validate()

    def test_margolis_tables_match_exhaustive_oracle(self):
        for algebra in ("A1", "E1"):
            for name in catalog(algebra):
                t = standard_piece(algebra, name)
                for which in ("q0", "q1"):
                    got = {d: v for d, (v, _) in t.margolis_homology(which).items()}
                    assert got == brute_margolis(t, which), (algebra, name, which)

    def test_margolis_frozen_tables(self):
        # hand-checked homology of the catalog pieces
        def series(name, algebra, which):
            t = standard_piece(algebra, name)
            return {
                d: v for d, (v, _) in t.margolis_homology(which).items() if v
            }

        assert series("Z2", "A1", "q0") == {0: 1}
        assert series("Z2", "A1", "q1") == {0: 1}
        assert series("A1", "A1", "q0") == {}
        assert series("A1", "A1", "q1") == {}
        assert series("I", "A1", "q0") == {1: 1}
        assert series("I", "A1", "q1") == {3: 1}
        assert series("J", "A1", "q0") == {2: 1}
        assert series("J", "A1", "q1") == {2: 1}
        assert series("K", "A1", "q0") == {0: 1}
        assert series("K", "A1", "q1") == {2: 1}
        assert series("E1", "E1", "q0") == {}
        assert series("C", "E1", "q0") == {0: 1, 3: 1}
        assert series("C", "E1", "q1") == {}
        assert series("L", "E1", "q0") == {1: 1}
        assert series("L", "E1", "q1") == {3: 1}

    def test_zero_module_margolis(self):
        z = zero_module("E1")
        assert [h for h, _ in z.margolis_homology("q0").values()] == [0]

    def test_dot_output_mentions_every_node(self):
        t = standard_piece("A1", "J")
        dot = t.to_dot()
        assert dot.count("label=\"sq1\"") >= 2
        assert dot.startswith("digraph")

    @pytest.mark.parametrize("lost", ["word", "span"])
    def test_carrier_not_closed_under_the_action_raises(self, lost):
        amb = list(basis_of(SubHopfAlgebra("A", 1)))
        if lost == "word":
            # Sq^2 = Sq^2 * 1 has no carrier element to land on
            carrier = [e for e in amb if e.degree() != 2]
        else:
            # Sq^3 = Sq^1 Sq^2 lies in the degree-3 words, not in their span
            carrier = [e for e in amb if e.degree() != 3]
            carrier.append(SteenrodElement.from_words(
                w for e in amb if e.degree() == 3 for w in e.words
            ))
        with pytest.raises(ModuleError):
            _module_from_subquotient("A1", carrier)

    @pytest.mark.parametrize("case", ["empty carrier", "carrier inside its ideal"])
    def test_a_subquotient_with_no_class_is_the_zero_module(self, case):
        amb = list(basis_of(SubHopfAlgebra("A", 1)))
        carrier, ideal = ([], []) if case == "empty carrier" else (amb, amb)
        assert _module_from_subquotient("A1", carrier, ideal) == zero_module("A1")

    def test_a_truncated_window_refuses_a_matrix_into_a_missing_slice(self):
        # q0 would send the one degree-0 class into degree 1, past the window
        ops = (("q0", (F2Matrix(1, 1, [1]),)), ("q1", (F2Matrix.zero(0, 1),)))
        with pytest.raises(ModuleError, match="^q0 at degree 0: bad target dim$"):
            FiniteModule("E1", 0, (1,), ops, truncated=True)


class TestAlgebraTable:
    @pytest.mark.parametrize("algebra", ["A1", "E1"])
    def test_words_name_the_ambient_elements(self, algebra):
        spec = ALGEBRAS[algebra]
        for relation in spec.relations:
            assert spec.element(relation).is_zero(), relation
        for i, which in enumerate(("q0", "q1")):
            assert spec.element(spec.margolis[which]) == milnor_primitive(i)

    def test_quotient_relators_are_the_named_elements(self):
        sq = SteenrodElement.sq
        pieces = ALGEBRAS["A1"].pieces
        assert [ALGEBRAS["A1"].element(r) for r in pieces["J"][1]] == [sq(3)]
        assert [ALGEBRAS["A1"].element(r) for r in pieces["K"][1]] == [sq(1), sq(2) * sq(3)]
        assert [ALGEBRAS["E1"].element(r) for r in ALGEBRAS["E1"].pieces["C"][1]] == [
            milnor_primitive(0)
        ]

    @pytest.mark.parametrize("algebra", ["A1", "E1"])
    def test_an_unknown_margolis_operator_is_a_module_error(self, algebra):
        with pytest.raises(ModuleError, match="q2"):
            standard_piece(algebra, "Z2").margolis_operator("q2")

    def test_validate_names_each_broken_relation(self):
        one, zero, out = F2Matrix.identity(1), F2Matrix.zero(1, 1), F2Matrix.zero(0, 1)
        broken = [
            # degrees 0, 1, 2: Sq^1 maps 0 onto 1 and 1 onto 2
            ("A1", (1, 1, 1), {"sq1": [one, one, out], "sq2": [zero, out, out]}, "sq1 sq1"),
            # degrees 0, 2, 4: Sq^2 maps 0 onto 2 and 2 onto 4, Sq^1 is zero
            (
                "A1",
                (1, 0, 1, 0, 1),
                {
                    "sq1": [F2Matrix.zero(0, 1), F2Matrix.zero(1, 0)] * 2 + [out],
                    "sq2": [one, F2Matrix.zero(0, 0), one, F2Matrix.zero(0, 0), out],
                },
                r"sq2 sq2 \+ sq1 sq2 sq1",
            ),
            # degrees 0, 1, 3, 4: Q_0 Q_1 reaches degree 4 from 0, Q_1 Q_0 does not
            (
                "E1",
                (1, 1, 0, 1, 1),
                {
                    "q0": [one, out, F2Matrix.zero(1, 0), one, out],
                    "q1": [one, zero, F2Matrix.zero(0, 0), out, out],
                },
                r"q0 q1 \+ q1 q0",
            ),
        ]
        for algebra, dims, mats, relation in broken:
            with pytest.raises(ModuleError, match=f"^{relation} != 0 at degree 0$"):
                FiniteModule.build(algebra, 0, dims, mats).validate()


class TestRestriction:
    def test_a1_restricts_to_two_free_pieces(self):
        r = restrict_to_e1(standard_piece("A1", "A1"))
        result = stable_type_solve(r)
        assert result.status == "unique"
        assert result.pieces == (("E1", 0), ("E1", 2))
        assert result.iso is not None and result.iso.check_commutes()

    def test_i_restricts_to_l_plus_suspended_free(self):
        r = restrict_to_e1(standard_piece("A1", "I"))
        result = stable_type_solve(r)
        assert result.status == "unique"
        assert result.pieces == (("E1", 2), ("L", 0))

    def test_joker_restricts_to_free_plus_trivial(self):
        r = restrict_to_e1(standard_piece("A1", "J"))
        result = stable_type_solve(r)
        assert result.status == "unique"
        assert result.pieces == (("E1", 0), ("Z2", 2))

    def test_k_restricts_to_desuspended_l(self):
        r = restrict_to_e1(standard_piece("A1", "K"))
        result = stable_type_solve(r)
        assert result.status == "unique"
        assert result.pieces == (("L", -1),)


class TestStableType:
    def test_zero_module(self):
        result = stable_type_solve(zero_module("E1"))
        assert result.status == "unique"
        assert result.pieces == ()

    def test_direct_sum_additivity(self):
        a = standard_piece("E1", "C").suspend(2)
        b = standard_piece("E1", "Z2")
        c = standard_piece("E1", "E1").suspend(1)
        m = a.direct_sum(b).direct_sum(c)
        result = stable_type_solve(m)
        assert result.status == "unique"
        assert result.pieces == (("C", 2), ("E1", 1), ("Z2", 0))
        assert result.iso is not None

    def test_infeasible_report(self):
        # an E(1)-module that is not in the A(1) catalog's shapes: build a
        # 2-dimensional module with identity q0 in adjacent degrees and ask
        # for it as sums of Z2 only
        m = standard_piece("E1", "C")
        result = stable_type_solve(m, pieces=("Z2",))
        assert result.status == "infeasible"


BSU3 = None


def bsu3_module(window=(0, 40)):
    global BSU3
    if BSU3 is None:
        ring = WeightedPolyRing.make(("y4", 4), ("y6", 6))
        pres = SqAlgebraPresentation.build(
            ring,
            {
                "y4": {2: "y6", 4: "y4^2"},
                "y6": {4: "y4*y6", 6: "y6^2"},
            },
        )
        assert check_presentation(pres, 16).ok
        BSU3 = pres
    return from_presentation(BSU3, "E1", window)


class TestPresentationModules:
    def test_bsu3_low_degrees(self):
        m = bsu3_module((0, 20))
        assert m.dims[:13] == (1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2)
        # q0 acts trivially on y4; q1(y4) = 0; sq2(y4) = y6 feeds q1 on products
        assert not any(m.op_matrix("q0", 4).rows)
        assert not any(m.op_matrix("q1", 4).rows)

    def test_bsu3_stable_type_is_trivial_pieces(self):
        # the ring is evenly graded, so Q_0 and Q_1 vanish identically and
        # the honest module structure is one trivial piece per basis element
        m = bsu3_module((0, 40))
        result = stable_type_solve(m)
        assert result.status == "unique"
        want = []
        for d in range(0, m.reliable_max() + 1):
            want.extend([("Z2", d)] * m.dim(d))
        assert result.pieces == tuple(sorted(want))
        assert result.iso is not None

    def test_bsu3_bookkeeping_decomposition_series(self):
        # the classical splitting of F2[y4,y6] into Z2[y4^2] plus a two-cell
        # bookkeeping piece over Z2[y4^2, y6] * y4 is exact on dimensions
        from steenrod.f2 import WeightedPolyRing, series_of_ring

        m = bsu3_module((0, 40))
        top = m.reliable_max()
        base8 = series_of_ring(WeightedPolyRing.make(("a", 8)), top)
        base86 = series_of_ring(WeightedPolyRing.make(("a", 8), ("b", 6)), top)
        for d in range(top + 1):
            two_cell = base86[d - 4] if d >= 4 else 0
            two_cell += base86[d - 6] if d >= 6 else 0
            assert m.dim(d) == base8[d] + two_cell

    def test_margolis_edge_flags(self):
        m = bsu3_module((0, 20))
        h = m.margolis_homology("q1")
        assert all(not reliable for d, (_, reliable) in h.items() if d > 17)
        assert all(reliable for d, (_, reliable) in h.items() if d <= 17)


class TestSplitCriterion:
    def test_identity_on_a1_splits(self):
        a1 = standard_piece("A1", "A1")
        cert = check_split_criterion(identity_map(a1))
        assert cert.split_guaranteed

    def test_joker_inclusion_fails_margolis_injectivity(self):
        j2 = standard_piece("A1", "J").suspend(2)
        a1 = standard_piece("A1", "A1")
        homs = _hom_space(j2, a1)
        # pick the first injective module map sigma^2 J -> A(1)
        fmap = None
        for mats in homs:
            from steenrod.modules import ModuleMap

            cand = ModuleMap(j2, a1, tuple(mats))
            if cand.is_injective():
                fmap = cand
                break
        assert fmap is not None, "expected an injective map to exist"
        cert = check_split_criterion(fmap)
        assert cert.hypotheses_met and cert.f_injective
        assert not cert.q0_margolis_injective
        assert cert.witness_degree == 4
        assert not cert.split_guaranteed

    def test_zero_map_from_nonzero_source(self):
        z2 = standard_piece("A1", "Z2")
        a1 = standard_piece("A1", "A1")
        cert = check_split_criterion(zero_map(z2, a1))
        assert not cert.f_injective
        assert not cert.split_guaranteed


class TestMargolisInducedMap:
    @pytest.mark.parametrize("algebra", ["A1", "E1"])
    def test_identity_is_injective_and_zero_fails_at_the_first_homology(self, algebra):
        nonzero = 0
        for name in catalog(algebra):
            m = standard_piece(algebra, name).suspend(2)
            assert identity_map(m).margolis_induced_injective("q0") == (True, None), name
            homology = brute_margolis(m, "q0")
            first = min((d for d, h in homology.items() if h and d <= m.reliable_max()), default=None)
            want = (True, None) if first is None else (False, first)
            assert zero_map(m, m).margolis_induced_injective("q0") == want, name
            nonzero += first is not None
        assert nonzero  # the zero map is caught on some piece


class TestEightFoldFeasibility:
    def test_synthetic_sum_is_feasible(self):
        m = standard_piece("A1", "A1")
        m = m.direct_sum(standard_piece("A1", "Z2"))
        m = m.direct_sum(standard_piece("A1", "Z2").suspend(8))
        m = m.direct_sum(standard_piece("A1", "J").suspend(4))
        m = m.direct_sum(standard_piece("A1", "K").suspend(4))
        m = m.direct_sum(standard_piece("A1", "A1").suspend(3))
        res = eight_fold_feasibility(m)
        assert res.feasible
        assert res.counts[("Z2", 0)] == 1
        assert res.counts[("J", 4)] == 1
        assert res.counts[("K", 4)] == 1

    def test_misplaced_trivial_piece_is_infeasible(self):
        m = standard_piece("A1", "Z2").suspend(1)
        res = eight_fold_feasibility(m)
        assert not res.feasible

    def test_quaternionic_base_ring_verdicts(self):
        # the four piece types cover the ring at free suspensions, but the
        # strict 8i placement family cannot match its Margolis series: the
        # degree-4 class needs a joker at suspension 2
        from steenrod.bundles import bpsp3_presentation
        from steenrod.modules import stable_type_solve

        m = from_presentation(bpsp3_presentation(), "A1", (0, 24))
        counting = stable_type_solve(m, build_iso=False, max_solutions=2)
        assert counting.status in ("unique", "ambiguous")
        assert ("J", 2) in counting.solutions[0]
        res = eight_fold_feasibility(m)
        assert not res.feasible and "q1 left at [4" in res.note


def suspended_profile_oracle(algebra, name, susp, lo, hi):
    """A piece's (poincare, q0m, q1m) over [lo, hi], read off the suspended
    module itself, as the search did before it shifted the piece's tables."""
    t = standard_piece(algebra, name).suspend(susp)
    q0, q1 = t.margolis_homology("q0"), t.margolis_homology("q1")
    return (
        tuple(t.dim(d) for d in range(lo, hi + 1)),
        tuple(q0.get(d, (0, True))[0] for d in range(lo, hi + 1)),
        tuple(q1.get(d, (0, True))[0] for d in range(lo, hi + 1)),
    )


class TestMargolisTables:
    """One Margolis table per module, and shifted tables for suspensions."""

    @pytest.mark.parametrize("algebra", ["A1", "E1"])
    def test_suspension_shifts_every_catalog_table(self, algebra):
        from steenrod.modules import _piece_profile

        for name in catalog(algebra):
            piece = standard_piece(algebra, name)
            for which in ("q0", "q1"):
                table = piece.margolis_homology(which)
                assert {d: v for d, (v, _) in table.items()} == brute_margolis(piece, which)
                for s in range(-9, 10):
                    got = piece.suspend(s).margolis_homology(which)
                    assert got == {d + s: v for d, v in table.items()}, (name, s)
            for s in range(-9, 10):
                for lo, hi in ((-4, 12), (0, 6), (s, s + 3)):
                    got = _piece_profile(algebra, name, s, lo, hi)
                    assert got == suspended_profile_oracle(algebra, name, s, lo, hi)

    def test_a_returned_table_is_a_copy(self):
        m = standard_piece("A1", "J").suspend(3)
        for which in ("q0", "q1"):
            table = m.margolis_homology(which)
            want = dict(table)
            table[m.dmin] = (99, False)
            table[m.dmax + 1] = (1, True)
            assert m.margolis_homology(which) == want

    def test_solve_and_feasibility_compute_each_table_once(self, monkeypatch):
        from steenrod.bundles import bpsp3_presentation

        computed = []
        real = FiniteModule.margolis_operator

        def counting(self, which):
            computed.append((self, which))
            return real(self, which)

        m = from_presentation(bpsp3_presentation(), "A1", (0, 24))
        standard_piece.cache_clear()  # pieces whose tables nothing has built yet
        monkeypatch.setattr(FiniteModule, "margolis_operator", counting)
        stable_type_solve(m, build_iso=False, max_solutions=2)
        eight_fold_feasibility(m)
        assert len(computed) == len(set(computed))
        pieces = {standard_piece("A1", name) for name in catalog("A1")}
        assert {t for t, _ in computed} <= pieces | {m}
        assert {(m, "q0"), (m, "q1")} <= set(computed)

    def test_solve_and_feasibility_read_the_tables_in_place(self, monkeypatch):
        from steenrod.bundles import bpsp3_presentation

        m = from_presentation(bpsp3_presentation(), "A1", (0, 24))
        want = (stable_type_solve(m, build_iso=False), eight_fold_feasibility(m))

        def copying(self, which):
            raise AssertionError("a profile copied a Margolis table")

        monkeypatch.setattr(FiniteModule, "margolis_homology", copying)
        standard_piece.cache_clear()
        fresh = from_presentation(bpsp3_presentation(), "A1", (0, 24))
        assert (stable_type_solve(fresh, build_iso=False), eight_fold_feasibility(fresh)) == want


def permutation_search_oracle(module, pieces=None, max_solutions=4):
    """The stable-type counting search before canonical placement order.

    Tries every catalog piece at every step, so it reaches a multiset through
    every ordering of the pieces placed at one degree; kept as the oracle for
    the canonical-order search in stable_type_solve.
    """
    from steenrod.modules import _piece_profile

    algebra = module.algebra
    names = tuple(pieces) if pieces is not None else catalog(algebra)
    lo, hi = module.dmin, module.reliable_max()
    target = (
        tuple(module.dim(d) for d in range(lo, hi + 1)),
        tuple(module.margolis_homology("q0")[d][0] for d in range(lo, hi + 1)),
        tuple(module.margolis_homology("q1")[d][0] for d in range(lo, hi + 1)),
    )
    bottoms = {name: standard_piece(algebra, name).dmin for name in names}

    def profile(name, susp):
        return _piece_profile(algebra, name, susp, lo, hi)

    solutions = set()

    def search(state, placed):
        if len(solutions) >= max_solutions:
            return
        poin, q0m, q1m = state
        first = None
        for i in range(len(poin)):
            if poin[i] or q0m[i] or q1m[i]:
                first = i
                break
        if first is None:
            solutions.add(tuple(sorted(placed)))
            return
        if poin[first] == 0:
            return
        d = lo + first
        for name in names:
            susp = d - bottoms[name]
            p_poin, p_q0, p_q1 = profile(name, susp)
            new_poin = tuple(a - b for a, b in zip(poin, p_poin))
            new_q0 = tuple(a - b for a, b in zip(q0m, p_q0))
            new_q1 = tuple(a - b for a, b in zip(q1m, p_q1))
            if min(new_poin) < 0 or min(new_q0) < 0 or min(new_q1) < 0:
                continue
            search((new_poin, new_q0, new_q1), placed + [(name, susp)])

    search(target, [])
    return tuple(sorted(solutions))


def random_sums(algebra, count, seed):
    """Seeded direct sums of 2-5 suspended catalog pieces, with their parts."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        parts = [
            (rng.choice(catalog(algebra)), rng.randint(0, 4))
            for _ in range(rng.randint(2, 5))
        ]
        m = None
        for name, susp in parts:
            piece = standard_piece(algebra, name).suspend(susp)
            m = piece if m is None else m.direct_sum(piece)
        out.append((parts, m))
    return out


class TestCanonicalSearchOracle:
    """stable_type_solve agrees with the permutation search at every cut-off."""

    @staticmethod
    def assert_matches_oracle(module, pieces=None):
        for k in range(1, 5):
            got = stable_type_solve(module, pieces, build_iso=False, max_solutions=k)
            assert got.solutions == permutation_search_oracle(module, pieces, k), k

    def test_restrictions_of_the_a1_catalog(self):
        for name in catalog("A1"):
            self.assert_matches_oracle(restrict_to_e1(standard_piece("A1", name)))

    def test_bsu3_e1_module(self):
        from steenrod.bundles import bsu3_presentation

        self.assert_matches_oracle(from_presentation(bsu3_presentation(), "E1", (0, 16)))

    def test_bpsp3_a1_module(self):
        from steenrod.bundles import bpsp3_presentation

        m = from_presentation(bpsp3_presentation(), "A1", (0, 20))
        assert len(permutation_search_oracle(m)) > 1
        self.assert_matches_oracle(m)

    def test_random_sums_over_both_algebras(self):
        ambiguous = shared_bottom = 0
        for algebra in ("A1", "E1"):
            for parts, m in random_sums(algebra, 16, seed=algebra):
                self.assert_matches_oracle(m)
                self.assert_matches_oracle(m, tuple(reversed(catalog(algebra))))
                bottoms = [standard_piece(algebra, n).dmin + s for n, s in parts]
                shared_bottom += len(set(bottoms)) < len(bottoms)
                ambiguous += len(permutation_search_oracle(m)) > 1
        # the seeds cover ambiguous sums and several pieces at one degree
        assert ambiguous >= 2 and shared_bottom >= 10

    def test_infeasible_sum(self):
        _, m = random_sums("A1", 1, seed="A1")[0]
        assert permutation_search_oracle(m, ("Z2",)) == ()
        self.assert_matches_oracle(m, ("Z2",))
        assert stable_type_solve(m, pieces=("Z2",)).status == "infeasible"


class TestWindowCheck:
    """Both callers take their window from FiniteModule.reliable_window."""

    def test_feasibility_refuses_a_window_with_no_reliable_degree(self):
        # no degree to read: both refuse, neither passes vacuously
        from steenrod.bundles import bpsp3_presentation

        m = from_presentation(bpsp3_presentation(), "A1", (0, 2))
        assert m.reliable_max() == -1
        for solve in (stable_type_solve, eight_fold_feasibility):
            with pytest.raises(ModuleError, match="window too small"):
                solve(m)

    def test_the_smallest_window_is_read(self):
        from steenrod.bundles import bpsp3_presentation
        from steenrod.modules import PeriodicFeasibility

        m = from_presentation(bpsp3_presentation(), "A1", (0, 3))
        assert m.reliable_window() == (0, 0)
        assert eight_fold_feasibility(m) == PeriodicFeasibility(True, {("Z2", 0): 1})


def pairwise_sum_oracle(a, b):
    """The two-module block sum before the one-pass direct_sum."""
    if a.algebra != b.algebra:
        raise ModuleError("cannot sum modules over different algebras")
    dmin = min(a.dmin, b.dmin)
    dmax = max(a.dmax, b.dmax)
    dims = tuple(a.dim(d) + b.dim(d) for d in range(dmin, dmax + 1))
    mats_by_op = {}
    for op in a.spec.ops:
        mats = []
        for d in range(dmin, dmax + 1):
            x = a.op_matrix(op, d)
            y = b.op_matrix(op, d)
            rows = [r for r in x.rows] + [r << x.ncols for r in y.rows]
            mats.append(F2Matrix(x.nrows + y.nrows, x.ncols + y.ncols, rows))
        mats_by_op[op] = mats
    return FiniteModule.build(
        a.algebra, dmin, dims, mats_by_op, truncated=a.truncated or b.truncated
    )


def pairwise_fold_isomorphism_oracle(module, solution):
    """_build_isomorphism before piece maps were held as column images: the
    pieces' block sum folded pairwise and the stacked map assembled by
    column offsets."""
    from functools import reduce

    from steenrod.f2 import F2Basis
    from steenrod.modules import _HOM_ENUM_CAP, ModuleMap

    algebra = module.algebra
    pieces = sorted(
        solution,
        key=lambda ps: (
            standard_piece(algebra, ps[0]).dmin + ps[1],
            -standard_piece(algebra, ps[0]).total_dim(),
            ps[0],
        ),
    )
    templates = [standard_piece(algebra, name).suspend(s) for name, s in pieces]
    hom_bases = []
    for t in templates:
        hb = _hom_space(t, module)
        if len(hb) > _HOM_ENUM_CAP:
            return None
        hom_bases.append(hb)

    def try_place(idx, spans):
        if idx == len(templates):
            return []
        t, hb = templates[idx], hom_bases[idx]
        for mask in range(1, 1 << len(hb)):
            mats = None
            for b in range(len(hb)):
                if (mask >> b) & 1:
                    if mats is None:
                        mats = list(hb[b])
                    else:
                        mats = [
                            F2Matrix(m1.nrows, m1.ncols, [r1 ^ r2 for r1, r2 in zip(m1.rows, m2.rows)])
                            for m1, m2 in zip(mats, hb[b])
                        ]
            new_spans = {d: b.copy() for d, b in spans.items()}
            if not all(
                all(new_spans.setdefault(d, F2Basis()).add(v) for v in mats[di].transpose().rows)
                for di, d in enumerate(range(t.dmin, t.dmax + 1))
                if t.dim(d)
            ):
                continue
            rest = try_place(idx + 1, new_spans)
            if rest is not None:
                return [mats] + rest
        return None

    placed = try_place(0, {})
    if placed is None:
        return None
    total = reduce(pairwise_sum_oracle, templates)
    mats = []
    for d in range(total.dmin, total.dmax + 1):
        rows = [0] * module.dim(d)
        col_offset = 0
        for t, block in zip(templates, placed):
            di = d - t.dmin
            if 0 <= di < len(t.dims) and t.dim(d):
                m = block[di]
                for i in range(m.nrows):
                    rows[i] |= m.rows[i] << col_offset
            col_offset += t.dim(d)
        mats.append(F2Matrix(module.dim(d), total.dim(d), rows))
    fmap = ModuleMap(total, module, tuple(mats))
    top = module.reliable_max()
    if not fmap.check_commutes(top=top):
        return None
    for d in range(min(total.dmin, module.dmin), top + 1):
        if total.dim(d) != module.dim(d) or fmap.mat(d).rank() != total.dim(d):
            return None
    return fmap


def signature_feasibility_oracle(module):
    """eight_fold_feasibility before it read _piece_profile: per-piece
    Margolis signature dicts and a residual loop of its own."""
    from steenrod.modules import PeriodicFeasibility

    lo, hi = module.dmin, module.reliable_max()
    q0, q1 = module.margolis_homology("q0"), module.margolis_homology("q1")
    q0m = {d: q0[d][0] for d in range(lo, hi + 1)}
    q1m = {d: q1[d][0] for d in range(lo, hi + 1)}

    def signature(name, susp):
        t = standard_piece("A1", name)
        return tuple(
            {d + susp: v for d, (v, _) in t.margolis_homology(which).items() if v}
            for which in ("q0", "q1")
        )

    counts = {}
    rem_q0, rem_q1 = dict(q0m), dict(q1m)
    for i in range(0, hi // 8 + 2):
        placements = [("Z2", 8 * i), ("I", 8 * i - 1), ("J", 8 * i + 4), ("K", 8 * i + 4)]
        sig = {name: signature(name, susp) for name, susp in placements}
        z = rem_q1.get(8 * i, 0)
        k = rem_q0.get(8 * i + 4, 0)
        j = rem_q0.get(8 * i + 6, 0)
        ii = rem_q0.get(8 * i, 0) - z
        if min(z, k, j, ii) < 0:
            return PeriodicFeasibility(False, None, f"negative count in block {i}")
        for (name, susp), count in zip(placements, (z, ii, j, k)):
            if count:
                counts[(name, susp)] = count
                s0, s1 = sig[name]
                for d, v in s0.items():
                    if lo <= d <= hi:
                        rem_q0[d] = rem_q0.get(d, 0) - v * count
                for d, v in s1.items():
                    if lo <= d <= hi:
                        rem_q1[d] = rem_q1.get(d, 0) - v * count
    leftover_q0 = sorted(d for d, v in rem_q0.items() if v)
    leftover_q1 = sorted(d for d, v in rem_q1.items() if v)
    if leftover_q0 or leftover_q1:
        return PeriodicFeasibility(
            False,
            None,
            f"margolis series not matched (q0 left at {leftover_q0},"
            f" q1 left at {leftover_q1})",
        )
    residual = {d: module.dim(d) for d in range(lo, hi + 1)}
    for (name, susp), count in counts.items():
        t = standard_piece("A1", name)
        for d in range(lo, hi + 1):
            residual[d] -= count * t.dim(d - susp)
    a1 = standard_piece("A1", "A1")
    free = {}
    for d in range(lo, hi + 1):
        val = residual[d]
        for d0, cnt in free.items():
            val -= cnt * a1.dim(d - d0)
        if val < 0:
            return PeriodicFeasibility(False, None, f"dimension deficit at degree {d}")
        if val:
            free[d] = val
    return PeriodicFeasibility(True, dict(counts))


def synthetic_a1_sums():
    """The strict family's synthetic sums: one feasible, one misplaced."""
    parts = [("A1", 0), ("Z2", 0), ("Z2", 8), ("J", 4), ("K", 4), ("A1", 3)]
    modules = [standard_piece("A1", n).suspend(s) for n, s in parts]
    yield modules[0].direct_sum(*modules[1:])
    yield standard_piece("A1", "Z2").suspend(1)
    yield standard_piece("A1", "K").direct_sum(standard_piece("A1", "I").suspend(7))
    for _, m in random_sums("A1", 8, seed="eight-fold"):
        yield m


class TestRewiredPathsAgainstTheirOracles:
    """The one-pass block sum, the column-image isomorphism and the profile
    feasibility against the code they replaced."""

    def test_one_pass_sum_equals_the_pairwise_fold(self):
        from functools import reduce

        for algebra in ("A1", "E1"):
            for parts, _ in random_sums(algebra, 12, seed=f"fold-{algebra}"):
                ms = [standard_piece(algebra, n).suspend(s) for n, s in parts]
                want = reduce(pairwise_sum_oracle, ms)
                assert ms[0].direct_sum(*ms[1:]) == want, parts
                assert reduce(FiniteModule.direct_sum, ms) == want, parts
        a, b, c = (standard_piece("A1", n) for n in ("J", "Z2", "K"))
        assert a.direct_sum(b, c) == a.direct_sum(b).direct_sum(c)
        truncated = bsu3_module((0, 12))
        z = standard_piece("E1", "Z2").suspend(14)
        assert truncated.direct_sum(z) == pairwise_sum_oracle(truncated, z)

    def test_a_sum_over_mixed_algebras_raises(self):
        a, b = standard_piece("A1", "J"), standard_piece("A1", "Z2")
        for others in ((standard_piece("E1", "Z2"),), (b, standard_piece("E1", "C"))):
            with pytest.raises(ModuleError, match="different algebras"):
                a.direct_sum(*others)

    @staticmethod
    def assert_iso_matches_oracle(module, pieces=None):
        result = stable_type_solve(module, pieces)
        assert result.status == "unique" and result.iso is not None
        want = pairwise_fold_isomorphism_oracle(module, result.pieces)
        assert want is not None
        assert result.iso.mats == want.mats
        assert result.iso.source.dims == want.source.dims
        assert result.iso.source.ops == want.source.ops

    def test_isomorphisms_of_the_a1_restrictions(self):
        for name in ("A1", "I", "J", "K"):
            self.assert_iso_matches_oracle(restrict_to_e1(standard_piece("A1", name)))

    def test_isomorphism_of_the_evenly_graded_ring(self):
        self.assert_iso_matches_oracle(bsu3_module((0, 40)))

    def test_isomorphism_of_the_additivity_sum(self):
        a = standard_piece("E1", "C").suspend(2)
        b = standard_piece("E1", "Z2")
        c = standard_piece("E1", "E1").suspend(1)
        self.assert_iso_matches_oracle(a.direct_sum(b).direct_sum(c))

    @pytest.mark.parametrize("case", ["identity", "joker", "zero"])
    def test_isomorphisms_of_the_split_criterion_hypotheses(self, case):
        from steenrod.modules import split_case

        f = split_case(case)
        self.assert_iso_matches_oracle(f.source, ("Z2", "J", "A1"))
        self.assert_iso_matches_oracle(f.target, ("Z2", "I", "J", "K", "A1"))

    def test_feasibility_of_bpsp3_windows(self):
        from steenrod.bundles import bpsp3_presentation

        verdicts = set()
        for n in range(3, 41):
            m = from_presentation(bpsp3_presentation(), "A1", (0, n))
            got = eight_fold_feasibility(m)
            assert got == signature_feasibility_oracle(m), n
            verdicts.add(got.feasible)
        assert verdicts == {True, False}

    def test_feasibility_of_synthetic_sums(self):
        verdicts = []
        for m in synthetic_a1_sums():
            got = eight_fold_feasibility(m)
            assert got == signature_feasibility_oracle(m)
            verdicts.append(got.feasible)
        assert verdicts[:2] == [True, False]


class TestBuildCounts:
    """One block sum per certified isomorphism, and one relation check in
    every degree of a truncated window."""

    def test_the_module_suites_sum_once_per_isomorphism(self, monkeypatch):
        from steenrod import modules, verify

        sums, isos = [], []
        direct_sum, build = FiniteModule.direct_sum, modules._build_isomorphism

        def counted_sum(first, *others):
            sums.append(1 + len(others))
            return direct_sum(first, *others)

        def counted_build(module, solution):
            iso = build(module, solution)
            if iso is not None:
                isos.append(len(solution))
            return iso

        monkeypatch.setattr(FiniteModule, "direct_sum", counted_sum)
        monkeypatch.setattr(modules, "_build_isomorphism", counted_build)
        verify.suite_a1_modules()
        verify.suite_e1_modules()
        # one sum of all its pieces per isomorphism
        assert len(isos) == 11 and sums == isos

    @pytest.mark.parametrize("preset", ["bpsp3", "bsu3", "bu3", "cp2-total", "hp2-total"])
    def test_truncated_preset_modules_validate_in_every_degree(self, preset):
        from steenrod.cli import PRESETS

        for algebra in ("A1", "E1"):
            m = from_presentation(PRESETS[preset](), algebra, (0, 30))
            m.validate()
            if algebra == "A1":
                r = restrict_to_e1(m)  # validates the restriction itself
                assert (r.dims, r.truncated) == (m.dims, True)

    def test_validate_reads_the_top_of_a_truncated_window(self):
        # Sq^1 Sq^1 != 0 from degree 0, within 4 degrees of the top of a
        # truncated window: both the module and its restriction are checked
        one, zero, out = F2Matrix.identity(1), F2Matrix.zero(1, 1), F2Matrix.zero(0, 1)
        m = FiniteModule.build(
            "A1", 0, (1, 1, 1), {"sq1": [one, one, out], "sq2": [zero, out, out]}, truncated=True
        )
        with pytest.raises(ModuleError, match="^sq1 sq1 != 0 at degree 0$"):
            m.validate()
        with pytest.raises(ModuleError, match="^q0 q0 != 0 at degree 0$"):
            restrict_to_e1(m)
