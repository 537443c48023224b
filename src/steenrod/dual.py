"""The Milnor dual of the mod-2 Steenrod algebra.

The dual is the polynomial ring F2[xi_1, xi_2, ...] with deg xi_n = 2^n - 1.
A monomial is stored as its exponent tuple (j_1, ..., j_r) with trailing
zeros stripped.  The coproduct is the algebra map determined by

    mu*(xi_n) = sum_{i=0..n} xi_{n-i}^(2^i) (x) xi_i,

and the conjugates zeta_n = chi(xi_n) satisfy the recursion
zeta_n = xi_n + sum_{i=1..n-1} xi_i^(2^(n-i)) zeta_{n-i}.

The pairing against the admissible basis peels the highest generator xi_n off
a monomial: <m xi_n, Sq^I> sums <m, a> over the terms a (x) b of the
coproduct of Sq^I (algebra.coproduct_word) whose right factor b is the
admissible word (2^(n-1), ..., 2, 1), the one word that xi_n pairs with.
Ordering both bases right-lexicographically (algebra.word_sort_key) makes
the degreewise pairing matrix unitriangular, which is what funds conversion
between the admissible and Milnor bases.

DualElement and DualTensor take their arithmetic from f2.F2Sum and keep
only their Frobenius square; dual_coproduct sends a sum through f2.linear.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import combinations, zip_longest
from operator import mul
from typing import Iterable, Iterator

from .algebra import (
    SteenrodElement,
    Word,
    admissible_basis,
    coproduct_word,
    normalize_word,
    pair_sort_key,
    word_sort_key,
)
from .f2 import (
    INTS, F2Basis, F2Index, F2Matrix, F2Sum, F2Vector, Frozen, InputError, ints, linear,
    parse_sum, tensor,
)

XiMonomial = tuple[int, ...]


def _strip(mono: Iterable[int]) -> XiMonomial:
    t = tuple(mono)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def xi_degree(mono: XiMonomial) -> int:
    return sum(j * ((1 << (k + 1)) - 1) for k, j in enumerate(mono))


def _xi_str(mono: XiMonomial) -> str:
    return "1" if not mono else "xi[" + ",".join(map(str, mono)) + "]"


@lru_cache(maxsize=None)
def xi_monomials(degree: int) -> tuple[XiMonomial, ...]:
    """All exponent tuples of the given degree, canonically ordered."""
    if degree < 0:
        return ()
    if degree == 0:
        return ((),)

    def rec(remaining: int, maxgen: int) -> Iterator[XiMonomial]:
        # monomials in xi_1..xi_maxgen of total degree `remaining`
        if remaining == 0:
            yield ()
            return
        if maxgen == 0:
            return
        d = (1 << maxgen) - 1
        for mult in range(remaining // d + 1):
            for rest in rec(remaining - mult * d, maxgen - 1):
                yield rest + (0,) * (maxgen - 1 - len(rest)) + (mult,) if mult else rest

    top = 1
    while (1 << (top + 1)) - 1 <= degree:
        top += 1
    monos = {_strip(m) for m in rec(degree, top)}
    return tuple(sorted(monos, key=word_sort_key))


def _xi_product(a: XiMonomial, b: XiMonomial) -> set[XiMonomial]:
    """The product of two xi-monomials, as a one-term sum."""
    return {tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))}


def _xi_square(m: XiMonomial) -> XiMonomial:
    return tuple(2 * x for x in m)


class DualElement(F2Sum, Frozen):
    """An F2-sum of xi-monomials."""

    __slots__ = ("monomials",)
    _unit = ()
    _product = staticmethod(_xi_product)
    _degree = staticmethod(xi_degree)
    _sort_key = staticmethod(word_sort_key)
    _term_str = staticmethod(_xi_str)

    def __init__(self, monomials: frozenset[XiMonomial]):
        object.__setattr__(self, "monomials", monomials)

    @classmethod
    def xi(cls, n: int, power: int = 1) -> "DualElement":
        if n < 0:
            raise ValueError("xi index must be >= 0")
        if n == 0:
            return cls.one()
        return cls(frozenset({_strip((0,) * (n - 1) + (power,))}))

    @classmethod
    def from_monomials(cls, monos: Iterable[Iterable[int]]) -> "DualElement":
        return cls(linear(monos, lambda m: {_strip(m)}))

    def square(self) -> "DualElement":
        """Frobenius: the square of a sum is the sum of the squares."""
        return DualElement(frozenset(map(_xi_square, self.monomials)))

    def __repr__(self):
        return f"DualElement({self})"


# ---------------------------------------------------------------------------
# coproduct and conjugates
# ---------------------------------------------------------------------------

DualPair = tuple[XiMonomial, XiMonomial]


class DualTensor(F2Sum, Frozen):
    """An F2-sum of xi-monomial tensors."""

    __slots__ = ("pairs",)
    _unit = ((), ())
    _product = staticmethod(tensor(_xi_product))
    _degree = staticmethod(lambda p: xi_degree(p[0]) + xi_degree(p[1]))
    _sort_key = staticmethod(pair_sort_key)
    _term_str = staticmethod(lambda p: f"{_xi_str(p[0])} (x) {_xi_str(p[1])}")

    def __init__(self, pairs: frozenset[DualPair]):
        object.__setattr__(self, "pairs", pairs)

    def square(self) -> "DualTensor":
        """Frobenius, factor by factor."""
        return DualTensor(frozenset((_xi_square(a), _xi_square(b)) for a, b in self.pairs))


@lru_cache(maxsize=None)
def _xi_coproduct(n: int) -> DualTensor:
    pairs = set()
    for i in range(n + 1):
        (left,) = DualElement.xi(n - i, 1 << i).monomials
        (right,) = DualElement.xi(i).monomials
        pairs.add((left, right))
    return DualTensor(frozenset(pairs))


@lru_cache(maxsize=None)
def _monomial_coproduct(mono: XiMonomial) -> DualTensor:
    result = DualTensor.one()
    for k, j in enumerate(mono):
        if j:
            result = result * (_xi_coproduct(k + 1) ** j)
    return result


def dual_coproduct(x: DualElement) -> DualTensor:
    """Algebra-map extension of mu* to arbitrary dual elements."""
    return DualTensor(linear(x.monomials, lambda m: _monomial_coproduct(m).pairs))


@lru_cache(maxsize=None)
def zeta(n: int) -> DualElement:
    """Conjugate zeta_n = chi(xi_n) expanded in the xi basis."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return DualElement.one()
    acc = DualElement.xi(n)
    for i in range(1, n):
        acc = acc + (DualElement.xi(i) ** (1 << (n - i))) * zeta(n - i)
    return acc


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------


def _milnor_weight_word(n: int) -> Word:
    """The admissible word (2^(n-1), ..., 4, 2, 1) dual to xi_n."""
    return tuple(1 << k for k in range(n - 1, -1, -1))


@lru_cache(maxsize=None)
def _pair_mono_word(mono: XiMonomial, word: Word) -> int:
    if xi_degree(mono) != sum(word):
        return 0
    if not mono:
        return 1 if () in normalize_word(word) else 0
    n = len(mono)  # highest generator appearing
    peeled = _strip(mono[:-1] + (mono[-1] - 1,))
    weight = _milnor_weight_word(n)
    total = 0
    for left, right in coproduct_word(word):
        if right == weight:
            total ^= _pair_mono_word(peeled, left)
    return total


def pair(d: DualElement, s: SteenrodElement | Word) -> int:
    """The Kronecker pairing <A_*, A> -> F2, bilinear in both slots."""
    words: Iterable[Word]
    if isinstance(s, SteenrodElement):
        words = s.words
    else:
        words = [tuple(s)]
    total = 0
    for m in d.monomials:
        for w in words:
            total ^= _pair_mono_word(m, w)
    return total


# ---------------------------------------------------------------------------
# Milnor basis conversion
# ---------------------------------------------------------------------------

MilnorSeq = tuple[int, ...]


@lru_cache(maxsize=None)
def pairing_matrix(degree: int) -> tuple[tuple[XiMonomial, ...], tuple[Word, ...], F2Matrix]:
    """Rows: xi-monomials, columns: admissible words, both sigma-ordered."""
    monos = xi_monomials(degree)
    words = admissible_basis(degree)
    rows = []
    for m in monos:
        bits = 0
        for j, w in enumerate(words):
            if _pair_mono_word(m, w):
                bits |= 1 << j
        rows.append(bits)
    return monos, words, F2Matrix(len(monos), len(words), rows)


def milnor_to_admissible(seq: Iterable[int]) -> SteenrodElement:
    """The element Sq(e_1, ..., e_r) expanded in the admissible basis."""
    seq = _strip(seq)
    degree = xi_degree(seq)
    monos, words, matrix = pairing_matrix(degree)
    target = F2Vector.from_support(len(monos), [monos.index(seq)])
    coeffs = matrix.solve(target)
    if coeffs is None:  # pairing matrix is always invertible
        raise ArithmeticError(f"singular pairing matrix in degree {degree}")
    return SteenrodElement(
        frozenset(words[j] for j in range(len(words)) if coeffs[j])
    )


def admissible_to_milnor(x: SteenrodElement) -> frozenset[MilnorSeq]:
    """Coefficients of x in the Milnor basis: {E : <xi^E, x> = 1}."""
    acc: set[MilnorSeq] = set()
    for w in x.words:
        degree = sum(w)
        monos, words, matrix = pairing_matrix(degree)
        j = words.index(w)
        acc ^= {m for i, m in enumerate(monos) if matrix.entry(i, j)}
    return frozenset(acc)


@lru_cache(maxsize=None)
def milnor_primitive(i: int) -> SteenrodElement:
    """Q_i = Sq(0, ..., 0, 1), the primitive dual to xi_{i+1}."""
    return milnor_to_admissible((0,) * i + (1,))


# ---------------------------------------------------------------------------
# sub-Hopf algebras and dual quotients
# ---------------------------------------------------------------------------


class SubHopfAlgebra(Frozen):
    """A(n) is generated by Sq^1..Sq^(2^n); E(n) is exterior on Q_0..Q_n."""

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int):
        if kind not in ("A", "E"):
            raise ValueError("kind must be 'A' or 'E'")
        if n < 0:
            raise ValueError("n must be >= 0")
        self._store(kind, n)

    def __str__(self):
        return f"{self.kind}({self.n})"


def _span_closure(generators: list[SteenrodElement]) -> list[SteenrodElement]:
    """Smallest unital subalgebra span containing the generators.

    Works degreewise with elimination; only safe for finite subalgebras.
    """
    basis_elts: list[SteenrodElement] = [SteenrodElement.one()]
    frontier = list(basis_elts)
    index, span = F2Index(), F2Basis()
    span.add(index.bits(SteenrodElement.one().words))
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in generators:
                prod = g * e
                if not prod.is_zero() and span.add(index.bits(prod.words)):
                    basis_elts.append(prod)
                    new_frontier.append(prod)
        frontier = new_frontier
    return basis_elts


@lru_cache(maxsize=None)
def basis_of(h: SubHopfAlgebra) -> tuple[SteenrodElement, ...]:
    """Explicit basis of A(n) (n <= 1) or E(n) (n <= 2), degree-sorted."""
    if h.kind == "A":
        if h.n > 1:
            raise ValueError("A(n) only supported for n <= 1")
        elts = _span_closure([SteenrodElement.sq(1 << k) for k in range(h.n + 1)])
    else:
        if h.n > 2:
            raise ValueError("E(n) only supported for n <= 2")
        qs = [milnor_primitive(i) for i in range(h.n + 1)]
        elts = [
            reduce(mul, combo, SteenrodElement.one())
            for size in range(h.n + 2)
            for combo in combinations(qs, size)
        ]
    return tuple(
        sorted(elts, key=lambda e: (e.degree(), [word_sort_key(w) for w in e.sorted_words()]))
    )


def dual_quotient_generators(h: SubHopfAlgebra, max_degree: int) -> list[DualElement]:
    """Generators of the quotient ring dual to A//h, truncated by degree.

    For A(n): xi_k^(2^(n+2-k)) for 1 <= k <= n+1, then xi_k for k >= n+2.
    For E(n): xi_k^2 for 1 <= k <= n+1, then xi_k for k >= n+2.
    """
    gens: list[DualElement] = []
    k = 1
    while True:
        if k <= h.n + 1:
            power = (1 << (h.n + 2 - k)) if h.kind == "A" else 2
        else:
            power = 1
        degree = power * ((1 << k) - 1)
        if degree > max_degree:
            if power == 1:
                break
            k += 1
            continue
        gens.append(DualElement.xi(k) ** power)
        k += 1
    return gens


def verify_cotensor_member(x: DualElement, h: SubHopfAlgebra) -> bool:
    """Whether x is annihilated by the coaction along h, i.e. whether
    (pi_h (x) 1) Delta(x) = 1 (x) x.

    Equivalently: for every positive-degree basis element b of h, the sum of
    right factors of Delta(x) whose left factor pairs with b vanishes.
    """
    if not x.is_homogeneous():
        raise ValueError("cotensor membership needs a homogeneous element")
    delta = dual_coproduct(x)
    for b in basis_of(h):
        if b.counit():
            continue
        bdeg = b.degree()
        acc: set[XiMonomial] = set()
        for (left, right) in delta.pairs:
            if xi_degree(left) == bdeg and pair(DualElement(frozenset({left})), b):
                acc ^= {right}
        if acc:
            return False
    return True


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

_XI_RE = re.compile(rf"^xi\[{INTS}\]$")
_ZETA_RE = re.compile(r"^zeta\[\s*(\d+)\s*\]$")
# the largest zeta index the grammar reads: zeta_n expands to 2^(n-1)
# xi-monomials, 32,768 at this bound
ZETA_MAX = 16


def parse_dual(text: str) -> DualElement:
    """Parse `xi[j1,j2,...]` and `zeta[n]` (n <= ZETA_MAX) joined by `+` and `*`."""

    def factor(f: str) -> DualElement | None:
        m = _XI_RE.match(f)
        if m:
            return DualElement.from_monomials([ints(m.group(1))])
        m = _ZETA_RE.match(f)
        if m and int(m.group(1)) > ZETA_MAX:
            raise InputError(f"{f!r} passes the largest zeta index {ZETA_MAX}")
        return m and zeta(int(m.group(1)))

    return parse_sum(text, "dual", factor, DualElement.zero(), DualElement.one())


_SQM_RE = re.compile(rf"^SqM\({INTS}\)$")
_Q_RE = re.compile(r"^Q([0-2])$")


def parse_milnor_operator(text: str) -> SteenrodElement:
    """Parse `SqM(e1,...,er)` and `Q0`/`Q1`/`Q2` into admissible form."""
    text = text.strip()
    m = _SQM_RE.match(text)
    if m:
        return milnor_to_admissible(ints(m.group(1)))
    m = _Q_RE.match(text)
    if m:
        return milnor_primitive(int(m.group(1)))
    raise InputError(f"cannot parse Milnor operator {text!r}")
