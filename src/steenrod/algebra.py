"""The mod-2 Steenrod algebra in the Serre-Cartan (admissible) basis.

Elements are F2-sums of words Sq^{i_1}...Sq^{i_r}; a word is admissible when
i_j >= 2 i_{j+1} throughout.  The Adem relation

    Sq^m Sq^n = sum_{0 <= i <= m/2} C(n-i-1, m-2i) Sq^{m+n-i} Sq^i   (m < 2n)

rewrites the leftmost inadmissible pair until every term is admissible; the
rewriting terminates and the normal form is independent of strategy (which
the test suite checks on randomized words).

The coproduct, the antipode chi, and basis enumeration by degree live here
too.  The canonical order on words is lexicographic from the right with
longer words larger, matching the order used for the Milnor pairing.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator

from .f2 import INTS, Frozen, bilinear, binom_mod2, ints, parse_sum, tensor

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


_tensor_compose = tensor(_compose)


def _word_str(w: Word) -> str:
    return "1" if not w else "Sq[" + ",".join(map(str, w)) + "]"


class SteenrodElement(Frozen):
    """An F2-sum of admissible words; the empty word is the unit 1."""

    __slots__ = ("words",)

    def __init__(self, words: frozenset[Word]):
        for w in words:
            if not is_admissible(w):
                raise ValueError(f"non-admissible word {w} in SteenrodElement")
        object.__setattr__(self, "words", words)

    @classmethod
    def zero(cls) -> "SteenrodElement":
        return cls(frozenset())

    @classmethod
    def one(cls) -> "SteenrodElement":
        return cls(frozenset({()}))

    @classmethod
    def sq(cls, *exponents: int) -> "SteenrodElement":
        """The element Sq^{i_1}...Sq^{i_r}, normalized."""
        return cls(normalize_word(tuple(exponents)))

    @classmethod
    def from_words(cls, words: Iterable[Word]) -> "SteenrodElement":
        acc: set[Word] = set()
        for w in words:
            acc ^= normalize_word(tuple(w))
        return cls(frozenset(acc))

    def __add__(self, other: "SteenrodElement") -> "SteenrodElement":
        return SteenrodElement(self.words ^ other.words)

    def __mul__(self, other: "SteenrodElement") -> "SteenrodElement":
        return SteenrodElement(bilinear(self.words, other.words, _compose))

    def is_zero(self) -> bool:
        return not self.words

    def is_homogeneous(self) -> bool:
        return len({word_degree(w) for w in self.words}) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous element; -1 for zero."""
        degs = {word_degree(w) for w in self.words}
        if not degs:
            return -1
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def homogeneous_part(self, degree: int) -> "SteenrodElement":
        return SteenrodElement(
            frozenset(w for w in self.words if word_degree(w) == degree)
        )

    def sorted_words(self) -> list[Word]:
        return sorted(self.words, key=word_sort_key)

    def coproduct(self) -> "TensorElement":
        acc: set[tuple[Word, Word]] = set()
        for w in self.words:
            acc ^= coproduct_word(w)
        return TensorElement(frozenset(acc))

    def antipode(self) -> "SteenrodElement":
        acc: set[Word] = set()
        for w in self.words:
            acc ^= _antipode_word(w)
        return SteenrodElement(frozenset(acc))

    def counit(self) -> int:
        return 1 if () in self.words else 0

    def to_json(self) -> list[list[int]]:
        return [list(w) for w in self.sorted_words()]

    def __str__(self) -> str:
        if not self.words:
            return "0"
        return " + ".join(map(_word_str, self.sorted_words()))

    def __repr__(self):
        return f"SteenrodElement({self})"


class TensorElement(Frozen):
    """An F2-sum of two-sided tensors of admissible words."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: frozenset[tuple[Word, Word]]):
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def zero(cls) -> "TensorElement":
        return cls(frozenset())

    def __add__(self, other: "TensorElement") -> "TensorElement":
        return TensorElement(self.pairs ^ other.pairs)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        return TensorElement(bilinear(self.pairs, other.pairs, _tensor_compose))

    def is_zero(self) -> bool:
        return not self.pairs

    def apply_right(self, f) -> "TensorElement":
        """Apply a word -> SteenrodElement map to the right factors."""
        acc: set[tuple[Word, Word]] = set()
        for (a, b) in self.pairs:
            acc ^= {(a, w) for w in f(b).words}
        return TensorElement(frozenset(acc))

    def multiply_out(self) -> SteenrodElement:
        """Image under the product map a (x) b -> ab."""
        acc: set[Word] = set()
        for (a, b) in self.pairs:
            acc ^= normalize_word(a + b)
        return SteenrodElement(frozenset(acc))

    def __str__(self):
        if not self.pairs:
            return "0"
        ordered = sorted(self.pairs, key=lambda p: (word_sort_key(p[0]), word_sort_key(p[1])))
        return " + ".join(f"{_word_str(a)} (x) {_word_str(b)}" for a, b in ordered)


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


def dim(degree: int) -> int:
    return len(admissible_basis(degree))


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
