import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod.algebra import (
    SteenrodElement,
    TensorElement,
    admissible_basis,
    basis,
    binom_mod2,
    coproduct_word,
    is_admissible,
    normalize_word,
    parse_element,
    word_sort_key,
)

Sq = SteenrodElement.sq


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@lru_cache(maxsize=None)
def express_in_two_power_generators(n):
    """Oracle: Sq^n as a mod-2 sum of products of the generators Sq^(2^k).

    Each returned tuple lists 2-power exponents left to right, so
    (1, 2) means Sq^1 Sq^2.  Built by the descent

        Sq^n = Sq^(n-2^k) Sq^(2^k)
               + sum_{c>0} C(2^k-c-1, n-2^k-2c) Sq^(n-c) Sq^c

    with 2^k the largest power of two below n; both factors of every
    correction term have smaller index, so the recursion terminates.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if _is_power_of_two(n):
        return frozenset({(n,)})
    b = 1 << (n.bit_length() - 1)
    a = n - b
    acc = set()

    def accumulate_product(left, right):
        for lw in express_in_two_power_generators(left):
            for rw in express_in_two_power_generators(right):
                acc.symmetric_difference_update({lw + rw})

    accumulate_product(a, b)
    for c in range(1, (n - 1) // 2 + 1):
        if n - c >= 1 and binom_mod2(b - c - 1, a - 2 * c):
            accumulate_product(n - c, c)
    return frozenset(acc)


def two_power_expression_value(expr):
    """Oracle: multiply out a 2-power product expression and normalize."""
    acc = set()
    for product in expr:
        acc.symmetric_difference_update(normalize_word(product))
    return SteenrodElement(frozenset(acc))


@lru_cache(maxsize=None)
def pascal_mod2(n: int) -> tuple[int, ...]:
    """Oracle: iterative additive construction of Pascal's triangle mod 2."""
    if n == 0:
        return (1,)
    prev = pascal_mod2(n - 1)
    row = [1]
    for i in range(1, n):
        row.append((prev[i - 1] + prev[i]) % 2)
    row.append(1)
    return tuple(row)


class TestBinomMod2:
    def test_choose_zero(self):
        for a in range(20):
            assert binom_mod2(a, 0) == 1

    def test_two_choose_one(self):
        assert pascal_mod2(2)[1] == 0
        assert binom_mod2(2, 1) == 0

    def test_five_choose_one(self):
        assert pascal_mod2(5) == (1, 1, 0, 0, 1, 1)  # 1,5,10,10,5,1 mod 2
        assert binom_mod2(5, 1) == 1

    def test_out_of_range(self):
        assert binom_mod2(3, 5) == 0
        assert binom_mod2(4, -1) == 0

    @given(st.integers(0, 64), st.integers(0, 64))
    @settings(max_examples=200, deadline=None)
    def test_against_pascal_oracle(self, a, b):
        want = pascal_mod2(a)[b] if b <= a else 0
        assert binom_mod2(a, b) == want


class TestAdemNormalization:
    def test_sq1_sq2_is_sq3(self):
        assert Sq(1, 2) == Sq(3)

    def test_sq2_sq2_is_sq3_sq1(self):
        assert Sq(2, 2) == Sq(3, 1)

    def test_sq2_sq3_is_sq4_sq1_plus_sq5(self):
        assert Sq(2, 3) == Sq(4, 1) + Sq(5)

    def test_sq2_sq1_sq2(self):
        assert Sq(2, 1, 2) == Sq(4, 1) + Sq(5)

    def test_sq2_sq2_sq2_is_sq5_sq1(self):
        assert Sq(2, 2, 2) == Sq(5, 1)
        assert Sq(2, 1, 2, 1) == Sq(5, 1)
        assert Sq(1, 2, 1, 2) == Sq(5, 1)

    def test_admissible_word_unchanged(self):
        for w in [(7,), (6, 3), (4, 2, 1)]:
            assert normalize_word(w) == frozenset({w})

    def test_sq0_elided(self):
        assert Sq(0, 3, 0) == Sq(3)

    def test_sq1_squared_is_zero(self):
        # oracle: the relation table for m = n = 1 directly
        # Sq^1 Sq^1 = C(0, 1) Sq^2 = 0
        assert binom_mod2(0, 1) == 0
        assert (Sq(1) * Sq(1)).is_zero()

    def test_unit_multiplication(self):
        x = Sq(4, 2) + Sq(6)
        assert SteenrodElement.one() * x == x
        assert x * SteenrodElement.one() == x

    def test_product_sq2_by_sq2sq2(self):
        assert Sq(2) * Sq(2, 2) == Sq(5, 1)

    @given(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_confluence_under_randomized_strategy(self, word):
        """Rewriting random inadmissible pairs must agree with the leftmost
        strategy; this is the confluence property."""
        word = tuple(word)
        rng = random.Random(hash(word) & 0xFFFF)

        def normalize_random(w, depth=0):
            w = tuple(e for e in w if e)
            bad = [j for j in range(len(w) - 1) if w[j] < 2 * w[j + 1]]
            if not bad:
                return frozenset({w})
            j = rng.choice(bad)
            acc = set()
            for i in range((w[j] // 2) + 1):
                if binom_mod2(w[j + 1] - i - 1, w[j] - 2 * i):
                    repl = (w[j] + w[j + 1] - i, i) if i else (w[j] + w[j + 1],)
                    acc.symmetric_difference_update(
                        normalize_random(w[:j] + repl + w[j + 2:], depth + 1)
                    )
            return frozenset(acc)

        assert normalize_random(word) == normalize_word(word)

    @given(st.lists(st.integers(1, 6), min_size=0, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_normal_form_is_admissible_and_degree_preserving(self, word):
        word = tuple(word)
        deg = sum(word)
        for w in normalize_word(word):
            assert is_admissible(w)
            assert sum(w) == deg


def words_of_degree_up_to(n):
    for d in range(n + 1):
        yield from admissible_basis(d)


class TestCoproduct:
    def test_sq1_primitive(self):
        assert Sq(1).coproduct() == TensorElement(
            frozenset({((1,), ()), ((), (1,))})
        )

    def test_unit(self):
        assert SteenrodElement.one().coproduct() == TensorElement(frozenset({((), ())}))

    def test_raw_splitting_count(self):
        # componentwise splittings of (3, 5, 2): 4 * 6 * 3 = 72 raw terms
        from steenrod.algebra import _raw_splits

        assert len(list(_raw_splits((3, 5, 2)))) == 72

    def test_cartan_characterization_on_single_squares(self):
        for k in range(1, 13):
            want = set()
            for i in range(k + 1):
                left = (i,) if i else ()
                right = (k - i,) if k - i else ()
                want.add((left, right))
            assert coproduct_word((k,)) == frozenset(want)

    def test_coassociativity_through_degree_12(self):
        for w in words_of_degree_up_to(12):
            left = {}
            for (a, b) in coproduct_word(w):
                for (a1, a2) in coproduct_word(a):
                    key = (a1, a2, b)
                    left[key] = left.get(key, 0) ^ 1
            right = {}
            for (a, b) in coproduct_word(w):
                for (b1, b2) in coproduct_word(b):
                    key = (a, b1, b2)
                    right[key] = right.get(key, 0) ^ 1
            assert {k for k, v in left.items() if v} == {
                k for k, v in right.items() if v
            }

    def test_coproduct_is_algebra_map_through_degree_12(self):
        pool = [w for w in words_of_degree_up_to(6)]
        for a in pool:
            for b in pool:
                if sum(a) + sum(b) > 12:
                    continue
                ea, eb = SteenrodElement.from_words([a]), SteenrodElement.from_words([b])
                assert (ea * eb).coproduct() == ea.coproduct() * eb.coproduct()


class TestAntipode:
    def test_low_degree_values(self):
        assert Sq(1).antipode() == Sq(1)
        assert Sq(2).antipode() == Sq(2)
        assert Sq(3).antipode() == Sq(2, 1)

    def test_antipode_axiom_through_degree_12(self):
        # mu (chi x 1) Delta = unit counit = mu (1 x chi) Delta
        def chi(word):
            return SteenrodElement.from_words([word]).antipode()

        for w in words_of_degree_up_to(12):
            x = SteenrodElement.from_words([w])
            delta = x.coproduct()
            left = set()
            for a, b in delta.pairs:
                left ^= {(c, b) for c in chi(a).words}
            right = delta.apply_right(chi).multiply_out()
            want = SteenrodElement.one() if not w else SteenrodElement.zero()
            assert TensorElement(frozenset(left)).multiply_out() == want
            assert right == want

    def test_antihomomorphism_and_involution_through_degree_12(self):
        pool = [w for w in words_of_degree_up_to(6)]
        for a in pool:
            for b in pool:
                if sum(a) + sum(b) > 12:
                    continue
                ea, eb = SteenrodElement.from_words([a]), SteenrodElement.from_words([b])
                assert (ea * eb).antipode() == eb.antipode() * ea.antipode()
        for w in words_of_degree_up_to(12):
            x = SteenrodElement.from_words([w])
            assert x.antipode().antipode() == x


def raw_splits(word):
    """Componentwise splittings of a word, zero entries dropped."""
    if not word:
        yield ((), ())
        return
    for left, right in raw_splits(word[1:]):
        for a in range(word[0] + 1):
            b = word[0] - a
            yield ((a,) + left if a else left, (b,) + right if b else right)


@lru_cache(maxsize=None)
def raw_split_antipode(word):
    """Oracle: chi as it was computed before it read coproduct_word, over raw
    componentwise splittings normalized one side at a time."""
    if not word:
        return frozenset({()})
    acc = set()
    for l_raw, r_raw in raw_splits(word):
        if sum(l_raw) == sum(word):
            continue
        for lw in normalize_word(l_raw):
            for chi_lw in raw_split_antipode(lw):
                acc ^= normalize_word(chi_lw + r_raw)
    return frozenset(acc)


class TestAntipodeAgainstTheRawSplitRecursion:
    @pytest.mark.parametrize("degree", range(19))
    def test_antipode_matches_the_raw_split_recursion(self, degree):
        for w in admissible_basis(degree):
            assert SteenrodElement.from_words([w]).antipode().words == raw_split_antipode(w), w


def xi_monomial_count(n):
    """Oracle: partitions of n into parts 2^k - 1 (enumerated directly)."""
    parts = []
    k = 1
    while (1 << k) - 1 <= n:
        parts.append((1 << k) - 1)
        k += 1

    def count(remaining, idx):
        if remaining == 0:
            return 1
        if idx == len(parts):
            return 0
        total = 0
        p = parts[idx]
        for mult in range(remaining // p + 1):
            total += count(remaining - mult * p, idx + 1)
        return total

    return count(n, 0)


class TestBasis:
    def test_degree_zero(self):
        assert admissible_basis(0) == ((),)

    def test_degree_three(self):
        assert set(admissible_basis(3)) == {(3,), (2, 1)}

    def test_counts_match_xi_monomials_up_to_20(self):
        for n in range(21):
            assert len(admissible_basis(n)) == xi_monomial_count(n)

    def test_all_words_admissible_and_ordered(self):
        for n in range(15):
            words = admissible_basis(n)
            assert all(is_admissible(w) for w in words)
            assert list(words) == sorted(words, key=word_sort_key)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            basis(-1)


class TestTwoPowerGenerators:
    def test_sq3_expression(self):
        assert express_in_two_power_generators(3) == frozenset({(1, 2)})

    def test_powers_of_two_are_themselves(self):
        for k in range(7):
            n = 1 << k
            assert express_in_two_power_generators(n) == frozenset({(n,)})

    def test_round_trip_through_normalization(self):
        for n in range(1, 33):
            expr = express_in_two_power_generators(n)
            for product in expr:
                assert all(p & (p - 1) == 0 for p in product)
            assert two_power_expression_value(expr) == Sq(n)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            express_in_two_power_generators(0)


class TestGrammar:
    def test_parse_word(self):
        assert parse_element("Sq[1,2]") == Sq(1, 2)
        assert parse_element("Sq[4,1] + Sq[5]") == Sq(4, 1) + Sq(5)
        assert parse_element("Sq[2] * Sq[2]") == Sq(3, 1)
        assert parse_element("1") == SteenrodElement.one()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_element("Sq[1,]")
        with pytest.raises(ValueError):
            parse_element("")

    def test_str_round_trip(self):
        x = Sq(5) + Sq(4, 1) + SteenrodElement.one()
        assert parse_element(str(x)) == x

    def test_canonical_term_order_is_right_lexicographic(self):
        # (5) < (4,1) < (0-free words compared from the right)
        x = Sq(4, 1) + Sq(5)
        assert str(x) == "Sq[5] + Sq[4,1]"

    def test_json_form(self):
        assert (Sq(2, 1) + Sq(3)).to_json() == [[3], [2, 1]]
