from functools import lru_cache

import pytest

from steenrod.algebra import SteenrodElement, admissible_basis, normalize_word, word_sort_key
from steenrod.dual import (
    DualElement,
    DualTensor,
    SubHopfAlgebra,
    admissible_to_milnor,
    basis_of,
    dual_coproduct,
    dual_quotient_generators,
    milnor_primitive,
    milnor_to_admissible,
    pair,
    pairing_matrix,
    parse_dual,
    parse_milnor_operator,
    verify_cotensor_member,
    xi_degree,
    xi_monomials,
    zeta,
)

Sq = SteenrodElement.sq
xi = DualElement.xi


def pair_tensor(t, a, b):
    """Oracle: <t, a (x) b> with the componentwise pairing."""
    total = 0
    for (lm, rm) in t.pairs:
        total ^= pair(DualElement(frozenset({lm})), a) & pair(DualElement(frozenset({rm})), b)
    return total


class TestXiMonomials:
    def test_degrees(self):
        assert xi_degree(()) == 0
        assert xi_degree((1,)) == 1
        assert xi_degree((0, 1)) == 3
        assert xi_degree((2, 1, 1)) == 2 + 3 + 7

    def test_enumeration_matches_admissible_counts_up_to_20(self):
        for n in range(21):
            monos = xi_monomials(n)
            assert all(xi_degree(m) == n for m in monos)
            assert len(set(monos)) == len(monos)
            assert len(monos) == len(admissible_basis(n))

    def test_sigma_order(self):
        # longer sequences higher; ties broken from the right
        ordered = sorted([(5,), (3, 1), (4, 1), (0, 2), (0, 0, 1)], key=word_sort_key)
        assert ordered == [(5,), (3, 1), (4, 1), (0, 2), (0, 0, 1)]


class TestCoproduct:
    def test_xi1_primitive(self):
        assert dual_coproduct(xi(1)) == DualTensor(
            frozenset({((1,), ()), ((), (1,))})
        )

    def test_xi2(self):
        want = DualTensor(
            frozenset({((0, 1), ()), ((2,), (1,)), ((), (0, 1))})
        )
        assert dual_coproduct(xi(2)) == want

    def test_xi1_squared_by_direct_expansion(self):
        # oracle: square the xi_1 coproduct by hand
        got = dual_coproduct(xi(1) * xi(1))
        want = DualTensor(frozenset({((2,), ()), ((), (2,))}))
        assert got == want

    def test_structure_duality_on_random_picks(self):
        # <mu*(d), a (x) b> = <d, ab> for homogeneous picks of degree <= 10
        samples_d = [xi(1) ** 3, xi(2), xi(2) * xi(1), xi(3), xi(1) ** 6, xi(2) ** 2]
        samples_a = [Sq(1), Sq(2), Sq(2, 1), Sq(3), Sq(4), SteenrodElement.one()]
        for d in samples_d:
            for a in samples_a:
                for b in samples_a:
                    if d.degree() != (a.degree() if not a.is_zero() else 0) + (
                        b.degree() if not b.is_zero() else 0
                    ):
                        continue
                    assert pair_tensor(dual_coproduct(d), a, b) == pair(d, a * b)


class TestZeta:
    def test_base_cases(self):
        assert zeta(0) == DualElement.one()
        assert zeta(1) == xi(1)

    def test_zeta2_by_one_recursion_step(self):
        # oracle: zeta_2 = xi_1^2 * zeta_1 + xi_2
        assert zeta(2) == xi(1) ** 3 + xi(2)

    def test_conjugate_identity_up_to_6(self):
        # sum_{i+j=n} xi_i^(2^j) zeta_j = 0 for n >= 1
        for n in range(1, 7):
            acc = DualElement.zero()
            for i in range(n + 1):
                j = n - i
                acc = acc + (xi(i) ** (1 << j)) * zeta(j)
            assert acc.is_zero(), n


class TestPairing:
    def test_xi2_against_sq21_and_sq3(self):
        assert pair(xi(2), Sq(2, 1)) == 1
        assert pair(xi(2), Sq(3)) == 0

    def test_unit_pairing(self):
        assert pair(DualElement.one(), SteenrodElement.one()) == 1

    def test_xi1_powers_dual_to_milnor_weight_one_elements(self):
        # duality is against the Milnor basis: <xi_1^n, Sq(m)> = delta_{nm}
        for n in range(1, 7):
            for m in range(1, 7):
                got = pair(xi(1) ** n, milnor_to_admissible((m,)))
                assert got == (1 if m == n else 0)
        # and against an admissible word the pairing reads off its Milnor
        # expansion: Sq^{2,1} = Sq(3) + Sq(0,1) pairs to 1 with xi_1^3
        assert pair(xi(1) ** 3, Sq(2, 1)) == 1

    def test_matrix_invertible_and_triangular_through_12(self):
        for n in range(13):
            monos, words, matrix = pairing_matrix(n)
            assert matrix.rank() == len(words)
            # sigma-ordering: <xi^sigma(I), Sq^J> = delta when I >= J
            for i in range(len(monos)):
                assert matrix.entry(i, i) == 1
                for j in range(i):
                    assert matrix.entry(i, j) == 0

    def test_pairing_on_unnormalized_words(self):
        # defined after applying the Adem relations
        assert pair(xi(1) ** 3, (1, 2)) == pair(xi(1) ** 3, Sq(3))


def splits_of_degree(word, target):
    """Componentwise splittings (J1, J2) of word with deg(J2) = target."""
    if not word:
        if target == 0:
            yield ((), ())
        return
    head, tail = word[0], word[1:]
    for b in range(min(head, target) + 1):
        a = head - b
        for left, right in splits_of_degree(tail, target - b):
            yield ((a,) + left if a else left, (b,) + right if b else right)


def pair_xi_word(n, word):
    """<xi_n, Sq^word>: the coefficient of (2^(n-1), ..., 2, 1) in the normal form."""
    return 1 if tuple(1 << k for k in range(n - 1, -1, -1)) in normalize_word(word) else 0


@lru_cache(maxsize=None)
def split_pairing(mono, word):
    """Oracle: the pairing as it was computed before it read coproduct_word,
    peeling xi_n off against raw componentwise splittings of the word."""
    if xi_degree(mono) != sum(word):
        return 0
    if not mono:
        return 1 if () in normalize_word(word) else 0
    n = len(mono)
    if sum(1 for j in mono if j) == 1 and mono[-1] == 1:
        return pair_xi_word(n, word)
    peeled = mono[:-1] + (mono[-1] - 1,)
    while peeled and peeled[-1] == 0:
        peeled = peeled[:-1]
    total = 0
    for left, right in splits_of_degree(word, (1 << n) - 1):
        if pair_xi_word(n, right):
            total ^= split_pairing(peeled, left)
    return total


class TestPairingAgainstTheSplitRecursion:
    @pytest.mark.parametrize("degree", range(21))
    def test_pairing_matrix_matches_the_split_recursion(self, degree):
        monos, words, matrix = pairing_matrix(degree)
        assert monos == xi_monomials(degree)
        assert words == admissible_basis(degree)
        assert matrix.rows == tuple(
            sum(split_pairing(m, w) << j for j, w in enumerate(words)) for m in monos
        )


class TestMilnorConversion:
    def test_sqn_is_dual_to_xi1_powers(self):
        for n in range(1, 5):
            assert milnor_to_admissible((n,)) == Sq(n)

    def test_q0_is_sq1(self):
        assert milnor_primitive(0) == Sq(1)

    def test_q1(self):
        assert milnor_primitive(1) == Sq(3) + Sq(2, 1)
        # the two textbook expressions agree with the pairing-defined element
        assert Sq(1) * Sq(2) + Sq(2) * Sq(1) == milnor_primitive(1)
        assert Sq(2, 1) + Sq(3) == milnor_primitive(1)

    def test_sq3_in_milnor_basis(self):
        # oracle: invert the 2x2 degree-3 pairing matrix by hand.
        # <xi_1^3, Sq^3> = 1, <xi_2, Sq^3> = 0, so Sq^3 = Sq(3); the element
        # Sq(3) + Sq(0,1) is Sq^{2,1}.
        monos, words, matrix = pairing_matrix(3)
        assert monos == ((3,), (0, 1)) and words == ((3,), (2, 1))
        assert [matrix.entry(i, 0) for i in range(2)] == [1, 0]
        assert [matrix.entry(i, 1) for i in range(2)] == [1, 1]
        assert admissible_to_milnor(Sq(3)) == frozenset({(3,)})
        assert admissible_to_milnor(Sq(2, 1)) == frozenset({(3,), (0, 1)})
        assert milnor_to_admissible((0, 1)) == Sq(3) + Sq(2, 1)

    def test_sq1_round_trip(self):
        assert admissible_to_milnor(Sq(1)) == frozenset({(1,)})

    def test_round_trip_identity_through_degree_12(self):
        for n in range(13):
            for w in admissible_basis(n):
                x = SteenrodElement.from_words([w])
                back = SteenrodElement.zero()
                for seq in admissible_to_milnor(x):
                    back = back + milnor_to_admissible(seq)
                assert back == x

    def test_milnor_primitive_relations(self):
        # Q_i^2 = 0 and Q_0 Q_1 + Q_1 Q_0 = 0 in the ambient algebra
        for i in range(3):
            q = milnor_primitive(i)
            assert (q * q).is_zero()
        q0, q1, q2 = (milnor_primitive(i) for i in range(3))
        assert (q0 * q1 + q1 * q0).is_zero()
        assert (q0 * q2 + q2 * q0).is_zero()
        assert (q1 * q2 + q2 * q1).is_zero()


class TestSubalgebras:
    def test_a1_basis_is_the_known_eight(self):
        want = {
            SteenrodElement.one(),
            Sq(1),
            Sq(2),
            Sq(3),
            Sq(2, 1),
            Sq(3, 1),
            Sq(4, 1) + Sq(5),
            Sq(5, 1),
        }
        got = set(basis_of(SubHopfAlgebra("A", 1)))
        assert got == want

    def test_e0_equals_a0(self):
        a0 = set(basis_of(SubHopfAlgebra("A", 0)))
        e0 = set(basis_of(SubHopfAlgebra("E", 0)))
        assert a0 == e0 == {SteenrodElement.one(), Sq(1)}

    def test_e1_basis(self):
        q0, q1 = milnor_primitive(0), milnor_primitive(1)
        got = set(basis_of(SubHopfAlgebra("E", 1)))
        assert got == {SteenrodElement.one(), q0, q1, q0 * q1}
        assert q0 * q1 == q1 * q0

    def test_e2_has_eight_elements(self):
        assert len(basis_of(SubHopfAlgebra("E", 2))) == 8

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ValueError):
            basis_of(SubHopfAlgebra("A", 2))


class TestDualQuotients:
    def test_a1_generators(self):
        gens = dual_quotient_generators(SubHopfAlgebra("A", 1), 16)
        assert gens[:4] == [xi(1) ** 4, xi(2) ** 2, xi(3), xi(4)]

    def test_e1_generators(self):
        gens = dual_quotient_generators(SubHopfAlgebra("E", 1), 16)
        assert gens[:4] == [xi(1) ** 2, xi(2) ** 2, xi(3), xi(4)]

    def test_a0_generators(self):
        gens = dual_quotient_generators(SubHopfAlgebra("A", 0), 8)
        assert gens == [xi(1) ** 2, xi(2), xi(3)]

    def test_cotensor_membership_basics(self):
        e1 = SubHopfAlgebra("E", 1)
        assert verify_cotensor_member(xi(1) ** 2, e1)
        assert not verify_cotensor_member(xi(1), e1)
        assert verify_cotensor_member(DualElement.one(), e1)

    def test_xi1_fails_by_direct_coaction_expansion(self):
        # oracle: Delta(xi_1) = xi_1 (x) 1 + 1 (x) xi_1; the left factor xi_1
        # pairs to 1 against Q_0, so the coaction sees Q_0 nontrivially.
        assert pair(xi(1), milnor_primitive(0)) == 1

    def test_all_generator_products_through_degree_16(self):
        e1 = SubHopfAlgebra("E", 1)
        gens = dual_quotient_generators(e1, 16)
        gen_monos = [next(iter(g.monomials)) for g in gens]
        degrees = [xi_degree(m) for m in gen_monos]

        def products(i, acc, deg):
            if deg > 16:
                return
            yield acc
            for j in range(i, len(gen_monos)):
                if deg + degrees[j] <= 16:
                    yield from products(
                        j, acc * DualElement(frozenset({gen_monos[j]})), deg + degrees[j]
                    )

        count = 0
        for prod in products(0, DualElement.one(), 0):
            assert verify_cotensor_member(prod, e1)
            count += 1
        assert count > 20


class TestGrammar:
    def test_parse_xi(self):
        assert parse_dual("xi[0,1]") == xi(2)
        assert parse_dual("xi[2] * xi[0,1] + xi[1]") == (xi(1) ** 2) * xi(2) + xi(1)
        assert parse_dual("zeta[2]") == zeta(2)

    def test_parse_milnor_operators(self):
        assert parse_milnor_operator("SqM(0,1)") == milnor_primitive(1)
        assert parse_milnor_operator("Q2") == milnor_primitive(2)
        with pytest.raises(ValueError):
            parse_milnor_operator("Q9")

    def test_dual_str_round_trip(self):
        x = xi(2) * xi(1) + xi(1) ** 4
        assert parse_dual(str(x)) == x
