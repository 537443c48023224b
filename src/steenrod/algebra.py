"""The mod-2 Steenrod algebra in the Serre-Cartan (admissible) basis.

Elements are F2-sums of words Sq^{i_1}...Sq^{i_r}; a word is admissible when
i_j >= 2 i_{j+1} throughout.  The Adem relation

    Sq^m Sq^n = sum_{0 <= i <= m/2} C(n-i-1, m-2i) Sq^{m+n-i} Sq^i   (m < 2n)

rewrites the leftmost inadmissible pair until every term is admissible; the
rewriting terminates and the normal form is independent of strategy (which
the test suite checks on randomized words).

The coproduct, the antipode chi, and basis enumeration by degree live here
too.  The canonical order on words is lexicographic from the right with
longer words larger, matching the order used for the Milnor pairing; dual
orders xi-monomials by the same key, word_sort_key.

SteenrodElement and TensorElement take zero, one, +, x, powers, degree and
printing from f2.F2Sum and declare only their unit term, term product, term
degree and term print order and form.  Their linear maps (from_words,
coproduct, antipode, apply_right, multiply_out) go term by term through
f2.linear.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator

from .f2 import INTS, F2Sum, Frozen, bilinear, binom_mod2, ints, linear, parse_sum, tensor

Word = tuple[int, ...]


def word_degree(word: Word) -> int:
    return sum(word)


def is_admissible(word: Word) -> bool:
    return all(word[j] >= 2 * word[j + 1] for j in range(len(word) - 1))


def word_sort_key(word: Word) -> tuple[int, Word]:
    """Right-lexicographic order: longer words are larger, then compare from
    the rightmost entry leftward."""
    return (len(word), tuple(reversed(word)))


def _adem_pair(m: int, n: int) -> frozenset[Word]:
    """Right side of the Adem relation for an inadmissible pair (m, n)."""
    terms: set[Word] = set()
    for i in range(m // 2 + 1):
        if binom_mod2(n - i - 1, m - 2 * i):
            word = (m + n - i, i) if i > 0 else (m + n,)
            terms ^= {word}
    return frozenset(terms)


@lru_cache(maxsize=None)
def normalize_word(word: Word) -> frozenset[Word]:
    """Admissible normal form of a word as a set of admissible words.

    Strategy: rewrite the leftmost inadmissible adjacent pair and recurse.
    The cache fills idempotently, so concurrent readers are safe.
    """
    for entry in word:
        if entry < 0:
            raise ValueError("Sq exponents must be non-negative")
    word = tuple(e for e in word if e != 0)  # Sq^0 = 1
    for j in range(len(word) - 1):
        if word[j] < 2 * word[j + 1]:
            result: set[Word] = set()
            for repl in _adem_pair(word[j], word[j + 1]):
                rewritten = word[:j] + repl + word[j + 2 :]
                result ^= normalize_word(rewritten)
            return frozenset(result)
    return frozenset({word})


def _compose(a: Word, b: Word) -> frozenset[Word]:
    """The product Sq^a Sq^b of two words, normalized."""
    return normalize_word(a + b)


def _word_str(w: Word) -> str:
    return "1" if not w else "Sq[" + ",".join(map(str, w)) + "]"


class SteenrodElement(F2Sum, Frozen):
    """An F2-sum of admissible words; the empty word is the unit 1."""

    __slots__ = ("words",)
    _unit = ()
    _product = staticmethod(_compose)
    _degree = staticmethod(word_degree)
    _sort_key = staticmethod(word_sort_key)
    _term_str = staticmethod(_word_str)

    def __init__(self, words: frozenset[Word]):
        for w in words:
            if not is_admissible(w):
                raise ValueError(f"non-admissible word {w} in SteenrodElement")
        object.__setattr__(self, "words", words)

    @classmethod
    def sq(cls, *exponents: int) -> "SteenrodElement":
        """The element Sq^{i_1}...Sq^{i_r}, normalized."""
        return cls(normalize_word(tuple(exponents)))

    @classmethod
    def from_words(cls, words: Iterable[Word]) -> "SteenrodElement":
        return cls(linear(map(tuple, words), normalize_word))

    def sorted_words(self) -> list[Word]:
        return sorted(self.words, key=word_sort_key)

    def coproduct(self) -> "TensorElement":
        return TensorElement(linear(self.words, coproduct_word))

    def antipode(self) -> "SteenrodElement":
        return SteenrodElement(linear(self.words, _antipode_word))

    def counit(self) -> int:
        return 1 if () in self.words else 0

    def to_json(self) -> list[list[int]]:
        return [list(w) for w in self.sorted_words()]

    def __repr__(self):
        return f"SteenrodElement({self})"


def pair_sort_key(pair: tuple[Word, Word]) -> tuple:
    """Tensors of words, or of xi-monomials, ordered by the left factor,
    then the right."""
    return word_sort_key(pair[0]), word_sort_key(pair[1])


class TensorElement(F2Sum, Frozen):
    """An F2-sum of two-sided tensors of admissible words."""

    __slots__ = ("pairs",)
    _unit = ((), ())
    _product = staticmethod(tensor(_compose))
    _degree = staticmethod(lambda p: word_degree(p[0]) + word_degree(p[1]))
    _sort_key = staticmethod(pair_sort_key)
    _term_str = staticmethod(lambda p: f"{_word_str(p[0])} (x) {_word_str(p[1])}")

    def __init__(self, pairs: frozenset[tuple[Word, Word]]):
        object.__setattr__(self, "pairs", pairs)

    def apply_right(self, f) -> "TensorElement":
        """Apply a word -> SteenrodElement map to the right factors."""
        return TensorElement(linear(self.pairs, lambda p: {(p[0], w) for w in f(p[1]).words}))

    def multiply_out(self) -> SteenrodElement:
        """Image under the product map a (x) b -> ab."""
        return SteenrodElement(linear(self.pairs, lambda p: normalize_word(p[0] + p[1])))


def _raw_splits(word: Word) -> Iterator[tuple[Word, Word]]:
    """Componentwise splittings of a word, zero entries dropped.

    For Sq^I the coproduct is sum over I1 + I2 = I (entrywise) of
    Sq^I1 (x) Sq^I2; neither side need be admissible.
    """
    if not word:
        yield ((), ())
        return
    head, tail = word[0], word[1:]
    for left, right in _raw_splits(tail):
        for a in range(head + 1):
            b = head - a
            yield ((a,) + left if a else left, (b,) + right if b else right)


@lru_cache(maxsize=None)
def coproduct_word(word: Word) -> frozenset[tuple[Word, Word]]:
    acc: set[tuple[Word, Word]] = set()
    for l_raw, r_raw in _raw_splits(word):
        right = normalize_word(r_raw)
        acc ^= {(lw, rw) for lw in normalize_word(l_raw) for rw in right}
    return frozenset(acc)


@lru_cache(maxsize=None)
def _antipode_word(word: Word) -> frozenset[Word]:
    """chi on an admissible word via the connected-Hopf recursion.

    From sum chi(x') x'' = 0 in positive degrees, summed over the terms of
    coproduct_word: the x (x) 1 term contributes chi(x) itself, every other
    term has a strictly lower-degree left factor.
    """
    if not word:
        return frozenset({()})
    acc: set[Word] = set()
    for left, right in coproduct_word(word):
        if right:  # not the chi(x) (x) 1 term being solved for
            acc ^= bilinear(_antipode_word(left), (right,), _compose)
    return frozenset(acc)


@lru_cache(maxsize=None)
def admissible_basis(degree: int) -> tuple[Word, ...]:
    """All admissible words of the given degree, in canonical order."""
    if degree < 0:
        return ()
    if degree == 0:
        return ((),)
    words = []
    for first in range(degree, 0, -1):
        for tail in admissible_basis(degree - first):
            if not tail or first >= 2 * tail[0]:
                words.append((first,) + tail)
    return tuple(sorted(words, key=word_sort_key))


def basis(degree: int) -> list[SteenrodElement]:
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return [SteenrodElement(frozenset({w})) for w in admissible_basis(degree)]


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

_SQ_RE = re.compile(rf"^Sq\[{INTS}\]$")


def parse_element(text: str) -> SteenrodElement:
    """Parse `Sq[i1,i2,...]` words joined by `+` and `*`; `1` is the unit."""

    def word(factor: str) -> SteenrodElement | None:
        m = _SQ_RE.match(factor)
        return m and SteenrodElement.sq(*ints(m.group(1)))

    return parse_sum(text, "Steenrod", word, SteenrodElement.zero(), SteenrodElement.one())
