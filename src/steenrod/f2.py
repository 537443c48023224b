"""Exact linear and polynomial algebra over the field with two elements.

Vectors and matrix rows are stored as Python int bitmasks, so addition is a
single XOR and Gaussian elimination runs at machine-word speed.  Polynomials
live in explicitly weighted polynomial rings and store their monomials as a
frozenset of packed ints, the exponent of generator j in bits 32j .. 32j + 31;
duplicate monomials cancel, which is mod-2 arithmetic for free.  Exponents are
at most 2^31 - 1: parsing, from_monomials and every product, power, square and
substitution raise F2Error rather than let a field carry into the next.

Every F2-sum of the package reads text through parse_sum (terms joined by `+`,
factors by `*`), takes powers through power, the one square-and-multiply, and
multiplies sums of terms through bilinear, with tensor for sums of pairs;
text outside that grammar and a negative exponent raise InputError.  A linear
map sends a sum through linear, term by term.  The Steenrod and Milnor-dual
element types take zero, one, +, x, powers, degree and printing from one
mixin, F2Sum, and declare only their unit term, term product, term degree
and term print order and form.
binom_mod2, C(a, b) mod 2 by Lucas, is the one binomial of the Adem
relations and of Wu's formula.

Every value here is immutable after construction and every operation is
pure, so values may be shared freely between threads or processes.  Two
kinds of state grow: an F2Basis takes new rows and an F2Index new keys, and
the memos a value fills after construction (WeightedPolyRing._suffixes,
F2Matrix._echelon) fill idempotently, a repeated fill storing an equal
entry, so readers on several threads see the same values.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import attrgetter, or_
from typing import Callable, Iterable, Sequence


class F2Error(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class ShapeError(F2Error):
    """Dimension mismatch between operands."""


class RingMismatchError(F2Error):
    """Operands belong to different polynomial rings."""


class DegreeCapError(F2Error):
    """A computation was asked to exceed its declared degree bound."""


class InputError(F2Error, ValueError):
    """Text outside the expression grammar or a negative exponent: bad input, so a ValueError."""


class Frozen:
    """An immutable value whose key is its constructor's parameters.

    Equality, hash, repr, pickle and copy read those fields and nothing
    else, so a memo filled later changes none of them.  A subclass's
    __slots__ names the parameters, in order, then any memo; creating a
    class whose slots do not start so raises TypeError.  Its __init__ sets
    each field once, most through _store.  The classes built by the
    thousand (F2Poly, F2Matrix, SteenrodElement), Check and the classes of
    one field write one object.__setattr__ per field instead, which builds
    a value in about half the time.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # plain attribute reads, once per class: no inspect and no generated
        # code, and names private, so a tracer wrapping public methods skips them
        code = cls.__init__.__code__
        fields = code.co_varnames[1 : code.co_argcount]
        if cls.__slots__[: len(fields)] != fields:
            raise TypeError(f"{cls.__name__}: __slots__ must start with {fields}")
        cls._fields = fields
        # the fields as a tuple, or one field's value itself: either keys
        # equality and hash, and one C call reads it
        cls._get = attrgetter(*fields)

    def _store(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        key = self._get(self)
        return key if len(self._fields) > 1 else (key,)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            get = self._get
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._get(self))

    def __repr__(self):
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        # through the constructor: its checks run again and memos start empty
        return type(self), self._key()


# ---------------------------------------------------------------------------
# the expression grammar, square-and-multiply, binomials and bilinear products
# ---------------------------------------------------------------------------

# a comma-separated list of non-negative integers, possibly empty, as a group
INTS = r"\s*((?:\d+\s*(?:,\s*\d+\s*)*)?)"


def ints(text: str) -> tuple[int, ...]:
    """The integers of a list matched by INTS."""
    text = text.strip()
    return tuple(int(v) for v in text.split(",")) if text else ()


def parse_sum(text: str, what: str, factor: Callable, zero, one):
    """The sum of the terms in text, joined by `+`, each the product of its
    factors, joined by `*`.  A factor `0` makes its term zero and a factor
    `1` is skipped; factor reads any other factor, or returns None when it
    cannot."""
    text = text.strip()
    if not text:
        raise InputError(f"empty {what} expression")
    total = zero
    for term in text.split("+"):
        if not term.strip():
            raise InputError(f"empty term in {what} expression")
        prod = one
        for f in term.split("*"):
            f = f.strip()
            if f != "1":
                value = zero if f == "0" else factor(f)
                if value is None:
                    raise InputError(f"cannot parse {f!r}")
                prod = prod * value
        total = total + prod
    return total


def power(x, e: int, one, mul: Callable, square: Callable):
    """x ** e by square-and-multiply.  The first factor is taken as it is and
    x is squared only while bits of e remain, so no square is formed past
    the one the top bit needs."""
    if e < 0:
        raise InputError("negative exponent")
    result = None
    while e:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if e:
            x = square(x)
    return one if result is None else result


def binom_mod2(a: int, b: int) -> int:
    """C(a, b) mod 2 by Lucas: 1 iff the bits of b sit inside the bits of a."""
    if b < 0 or b > a:
        return 0
    return 1 if (a & b) == b else 0


def bilinear(p: Iterable, q: Iterable, product: Callable) -> frozenset:
    """The F2-sum of product(a, b), itself a set of terms, over every term a
    of p and b of q: a term produced an even number of times cancels."""
    acc: set = set()
    for a in p:
        for b in q:
            acc ^= product(a, b)
    return frozenset(acc)


def linear(p: Iterable, f: Callable) -> frozenset:
    """The F2-sum of f(a), itself a set of terms, over every term a of p."""
    acc: set = set()
    for a in p:
        acc ^= f(a)
    return frozenset(acc)


def tensor(product: Callable) -> Callable:
    """The product of pair terms, factor by factor: (a, b)(c, d) is every
    pair of a term of product(a, c) and a term of product(b, d)."""

    def pair_product(x: tuple, y: tuple) -> set:
        (a, b), (c, d) = x, y
        right = product(b, d)
        return {(left, r) for left in product(a, c) for r in right}

    return pair_product


class F2Sum:
    """The arithmetic of an F2-sum of terms, held as the frozenset that is
    its class's one field: zero, one, +, x, powers, degree and printing.

    A class puts this before Frozen among its bases and declares only what
    is its own: _unit, the unit term, and the private static functions
    _product (two terms to a set of terms), _degree (of a term), _sort_key
    and _term_str (the print order and form of a term).
    """

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls(frozenset())

    @classmethod
    def one(cls):
        return cls(frozenset({cls._unit}))

    def __add__(self, other):
        return self.__class__(self._get(self) ^ other._get(other))

    def __mul__(self, other):
        return self.__class__(bilinear(self._get(self), other._get(other), self._product))

    def square(self):
        return self * self

    def __pow__(self, e: int):
        cls = self.__class__
        return power(self, e, cls.one(), cls.__mul__, cls.square)

    def is_zero(self) -> bool:
        return not self._get(self)

    def is_homogeneous(self) -> bool:
        return len(set(map(self._degree, self._get(self)))) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous sum; -1 for zero."""
        degs = set(map(self._degree, self._get(self)))
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop() if degs else -1

    def __str__(self) -> str:
        terms = sorted(self._get(self), key=self._sort_key)
        return " + ".join(map(self._term_str, terms)) or "0"


# ---------------------------------------------------------------------------
# vectors and matrices
# ---------------------------------------------------------------------------


class F2Vector(Frozen):
    """A vector over F2: ``length`` coordinates, ones at ``bits``."""

    __slots__ = ("length", "bits")

    def __init__(self, length: int, bits: int):
        if bits < 0 or bits >> length:
            raise ShapeError(f"support exceeds length {length}")
        self._store(length, bits)

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "F2Vector":
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise ShapeError(f"index {i} out of range for length {length}")
            bits |= 1 << i
        return cls(length, bits)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i in range(self.length) if (self.bits >> i) & 1)

    def __add__(self, other: "F2Vector") -> "F2Vector":
        if self.length != other.length:
            raise ShapeError("vector lengths differ")
        return F2Vector(self.length, self.bits ^ other.bits)

    def __getitem__(self, i: int) -> int:
        return (self.bits >> i) & 1

    def is_zero(self) -> bool:
        return self.bits == 0


class F2Matrix(Frozen):
    """An immutable matrix over F2 with int-bitmask rows.

    Row ``i`` has bit ``j`` set iff entry ``(i, j)`` is 1.  The rank reads an
    F2Basis of the rows; solutions and kernels read an F2Span of the columns,
    highest index first, so they are deterministic.
    """

    __slots__ = ("nrows", "ncols", "rows", "_echelon")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[int]):
        if len(rows) != nrows:
            raise ShapeError("row count mismatch")
        for r in rows:
            if r < 0 or (ncols < r.bit_length()):
                raise ShapeError("row exceeds column count")
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_echelon", None)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "F2Matrix":
        return cls(nrows, ncols, [0] * nrows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, [1 << i for i in range(n)])

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def transpose(self) -> "F2Matrix":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return F2Matrix(self.ncols, self.nrows, cols)

    def mat_vec(self, v: F2Vector) -> F2Vector:
        if v.length != self.ncols:
            raise ShapeError("matrix/vector shape mismatch")
        bits = 0
        for i, r in enumerate(self.rows):
            if bin(r & v.bits).count("1") & 1:
                bits |= 1 << i
        return F2Vector(self.nrows, bits)

    def mat_mul(self, other: "F2Matrix") -> "F2Matrix":
        if self.ncols != other.nrows:
            raise ShapeError("matrix shapes incompatible")
        rows = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                acc ^= other.rows[low.bit_length() - 1]
                rr ^= low
            rows.append(acc)
        return F2Matrix(self.nrows, other.ncols, rows)

    def _columns(self) -> "F2Span":
        """The span of the columns, fed last column first and built once, so
        its pivots are the columns no higher-index column spans; bit j of a
        mask it returns stands for column ncols - 1 - j."""
        if self._echelon is None:
            object.__setattr__(self, "_echelon", F2Span(self.transpose().rows[::-1]))
        return self._echelon

    def _vector(self, mask: int) -> F2Vector:
        """The column mask of a span combination, bit order reversed."""
        return F2Vector(self.ncols, int(f"{mask:0{self.ncols}b}"[::-1], 2))

    def rank(self) -> int:
        basis = F2Basis()
        return sum(basis.add(row) for row in self.rows)

    def solve(self, b: F2Vector) -> F2Vector | None:
        """Any x with Ax = b, or None when the system is inconsistent.

        Deterministic: x combines only the pivot columns, so every free
        variable is zero.
        """
        if b.length != self.nrows:
            raise ShapeError("rhs length must equal row count")
        mask = self._columns().coords(b.bits)
        return None if mask is None else self._vector(mask)

    def kernel_basis(self) -> list[F2Vector]:
        """Basis of the right kernel: for each free column, ascending, the
        vector that sums it with pivot columns of higher index."""
        return [self._vector(r) for r in reversed(self._columns().relations)]

    def __repr__(self):
        return f"F2Matrix({self.nrows}x{self.ncols})"


class F2Basis:
    """A growing reduced set of bitmask rows, one for each top bit.

    A row is reduced by clearing, from the top down, every bit that is the
    top bit of a kept row; it lies in the span exactly when that leaves 0.
    """

    __slots__ = ("_pivots",)

    def __init__(self, pivots: dict[int, int] | None = None):
        self._pivots = {} if pivots is None else pivots

    def reduce(self, row: int) -> int:
        """The row with every pivot column cleared."""
        pivots = self._pivots
        scan = row
        while scan:
            col = scan.bit_length() - 1
            p = pivots.get(col)
            if p is not None:
                row ^= p
            scan = row & ((1 << col) - 1)
        return row

    def add(self, row: int) -> bool:
        """Keep the row; False, and nothing kept, when it is in the span."""
        row = self.reduce(row)
        if row:
            self._pivots[row.bit_length() - 1] = row
        return bool(row)

    def copy(self) -> "F2Basis":
        return F2Basis(dict(self._pivots))

    def __len__(self) -> int:
        return len(self._pivots)


class F2Index:
    """Column numbers for hashable keys, in the order they are first seen.

    An unseen key gets the next column, so a query with one cannot lie in a
    span built before it.
    """

    __slots__ = ("_cols",)

    def __init__(self):
        self._cols: dict = {}

    def bits(self, support: Iterable) -> int:
        """The bitmask with a one in the column of every key."""
        cols = self._cols
        return reduce(or_, (1 << cols.setdefault(key, len(cols)) for key in support), 0)


class F2Span:
    """The span of fixed bitmask vectors, eliminated once and queried often.

    Each vector is reduced with its combination carried in the low
    ``len(vectors)`` bits, so reducing a query also accumulates the vectors
    that sum to it.  A vector in the span of those before it leaves its
    dependency in ``relations``: the bitmask of input vectors, itself
    included, that sum to 0.
    """

    def __init__(self, vectors: Sequence[int]):
        self._k = k = len(vectors)
        self._basis = basis = F2Basis()
        self.relations: list[int] = []
        for j, v in enumerate(vectors):
            row = basis.reduce((v << k) | (1 << j))
            if row >> k:
                basis._pivots[row.bit_length() - 1] = row
            else:
                self.relations.append(row)

    def coords(self, v: int) -> int | None:
        """Bitmask of input vectors summing to v, or None if v is outside."""
        row = self._basis.reduce(v << self._k)
        return None if row >> self._k else row


# ---------------------------------------------------------------------------
# weighted polynomial rings
# ---------------------------------------------------------------------------

Monomial = tuple[int, ...]

# A packed monomial holds the exponent of generator j in bits FIELD * j to
# FIELD * (j + 1) - 1.  Every exponent stays below LIMIT, so the sum of two
# fields, or a doubled one, still fits its field: a product of monomials is an
# integer addition and a Frobenius square a left shift, and a result with an
# exponent at LIMIT or above is refused instead of carried into the next field.
FIELD = 32
LIMIT = 1 << (FIELD - 1)
_MASK = (1 << FIELD) - 1


class WeightedPolyRing(Frozen):
    """A polynomial ring over F2 with named generators of positive degree."""

    __slots__ = ("generators", "degrees", "_high", "_suffixes")

    def __init__(self, generators: tuple[tuple[str, int], ...]):
        names = [n for n, _ in generators]
        if len(set(names)) != len(names):
            raise F2Error("generator names must be unique")
        for n, d in generators:
            if d < 1:
                raise F2Error(f"generator {n} must have degree >= 1")
        object.__setattr__(self, "generators", generators)
        # the rest is read off the generators, so it stays out of the key
        object.__setattr__(self, "degrees", tuple(d for _, d in generators))
        # the top bit of every field, which a sum or double of exponents below
        # LIMIT sets exactly when it reaches LIMIT
        object.__setattr__(self, "_high", sum(LIMIT << (FIELD * j) for j in range(self.ngens)))
        # (i, d) -> the packed monomials of degree d in generators i, i + 1, ...
        object.__setattr__(self, "_suffixes", {})

    @classmethod
    def make(cls, *gens: tuple[str, int]) -> "WeightedPolyRing":
        return cls(tuple(gens))

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def index_of(self, name: str) -> int:
        for i, (n, _) in enumerate(self.generators):
            if n == name:
                return i
        raise F2Error(f"unknown generator {name!r}")

    def pack(self, mono: Iterable[int]) -> int:
        """The packed form of an exponent tuple."""
        mono = tuple(mono)
        if len(mono) != self.ngens:
            raise ShapeError("monomial length must equal generator count")
        packed = 0
        for j, e in enumerate(mono):
            if not 0 <= e < LIMIT:
                raise F2Error(f"exponent {e} outside 0 .. {LIMIT - 1}")
            packed |= e << (FIELD * j)
        return packed

    def unpack(self, mono: int) -> Monomial:
        """The exponent tuple of a packed monomial."""
        return tuple(mono >> (FIELD * j) & _MASK for j in range(self.ngens))

    def monomial_degree(self, mono: int) -> int:
        d = 0
        for deg in self.degrees:
            d += (mono & _MASK) * deg
            mono >>= FIELD
        return d

    def monomials_of_degree(self, degree: int) -> tuple[int, ...]:
        """All packed monomials of the given weighted degree, in lexicographic
        order of their exponent tuples, each exponent descending."""
        return self._suffix(0, degree) if degree >= 0 else ()

    def _suffix(self, i: int, remaining: int) -> tuple[int, ...]:
        key = (i, remaining)
        out = self._suffixes.get(key)
        if out is None:
            if i == self.ngens:
                out = (0,) if remaining == 0 else ()
            else:
                deg, shift = self.degrees[i], FIELD * i
                out = tuple(
                    (e << shift) + s
                    for e in range(remaining // deg, -1, -1)
                    for s in self._suffix(i + 1, remaining - e * deg)
                )
            self._suffixes[key] = out
        return out

    def _guarded(self, monos: Iterable[int]) -> "F2Poly":
        """The polynomial on these packed monomials, sums or doubles of
        fields below LIMIT (so none carried), refused if a field reached
        LIMIT."""
        monos = frozenset(monos)
        if reduce(or_, monos, 0) & self._high:
            raise F2Error(f"an exponent reached the limit {LIMIT}")
        return F2Poly(self, monos)

    # -- polynomial constructors -------------------------------------------

    def zero(self) -> "F2Poly":
        return F2Poly(self, frozenset())

    def one(self) -> "F2Poly":
        return F2Poly(self, frozenset({0}))

    def gen(self, name: str) -> "F2Poly":
        return F2Poly(self, frozenset({1 << (FIELD * self.index_of(name))}))

    def from_monomials(self, monos: Iterable[Monomial]) -> "F2Poly":
        """The sum of the monomials given as exponent tuples."""
        acc: set[int] = set()
        for m in monos:
            acc ^= {self.pack(m)}
        return F2Poly(self, frozenset(acc))

    def parse(self, text: str) -> "F2Poly":
        """Generators, each with an optional `^e`, in the sum grammar."""

        def factor(f: str) -> "F2Poly | None":
            m = _FACTOR_RE.match(f)
            return m and self.gen(m.group(1)) ** int(m.group(2) or 1)

        return parse_sum(text, "polynomial", factor, self.zero(), self.one())


_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(?:\^\s*(\d+))?$")


class F2Poly(Frozen):
    """A polynomial over F2: a set of packed monomials in a fixed ring.

    Monomials are ints in the ring's packed layout (see FIELD), every
    exponent at most LIMIT - 1 = 2^31 - 1; exponent tuples appear only where
    text is parsed or printed and in from_monomials and coefficient.
    """

    __slots__ = ("ring", "monomials")

    def __init__(self, ring: WeightedPolyRing, monomials: frozenset[int]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "monomials", monomials)

    def _check(self, other: "F2Poly"):
        # `is` first spares every add and multiply a Python-level __eq__ call
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError("polynomials live in different rings")

    def __add__(self, other: "F2Poly") -> "F2Poly":
        self._check(other)
        return F2Poly(self.ring, self.monomials ^ other.monomials)

    def __mul__(self, other: "F2Poly") -> "F2Poly":
        self._check(other)
        acc: set[int] = set()
        for a in self.monomials:
            acc ^= {a + b for b in other.monomials}
        return self.ring._guarded(acc)

    def __pow__(self, e: int) -> "F2Poly":
        return power(self, e, self.ring.one(), F2Poly.__mul__, F2Poly.square)

    def square(self) -> "F2Poly":
        # Frobenius: squaring doubles every exponent, cross terms cancel.
        return self.ring._guarded(m << 1 for m in self.monomials)

    def is_zero(self) -> bool:
        return not self.monomials

    def is_homogeneous(self) -> bool:
        degs = {self.ring.monomial_degree(m) for m in self.monomials}
        return len(degs) <= 1

    def degree(self) -> int:
        """Top weighted degree; zero polynomial has degree -1 by convention."""
        if not self.monomials:
            return -1
        return max(self.ring.monomial_degree(m) for m in self.monomials)

    def homogeneous_part(self, degree: int) -> "F2Poly":
        return F2Poly(
            self.ring,
            frozenset(m for m in self.monomials if self.ring.monomial_degree(m) == degree),
        )

    def homogeneous_parts(self) -> dict[int, "F2Poly"]:
        parts: dict[int, set[int]] = {}
        for m in self.monomials:
            parts.setdefault(self.ring.monomial_degree(m), set()).add(m)
        return {d: F2Poly(self.ring, frozenset(s)) for d, s in sorted(parts.items())}

    def substitute(
        self,
        target_ring: WeightedPolyRing,
        images: Sequence["F2Poly"],
        cache: dict[tuple[int, int], "F2Poly"] | None = None,
    ) -> "F2Poly":
        """Ring-hom evaluation sending generator i to images[i].

        The powers images[i] ** e are kept in cache, keyed (i, e); a caller
        that substitutes the same images again may pass the same dict.
        """
        if len(images) != self.ring.ngens:
            raise ShapeError("need one image per generator")
        acc: set[int] = set()
        cache = {} if cache is None else cache
        for m in self.monomials:
            term = None
            i = 0
            while m:
                e = m & _MASK
                if e:
                    power = cache.get((i, e))
                    if power is None:
                        power = cache[i, e] = images[i] ** e
                    term = power if term is None else term * power
                m >>= FIELD
                i += 1
            acc ^= {0} if term is None else term.monomials
        return F2Poly(target_ring, frozenset(acc))

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        names = [n for n, _ in self.ring.generators]
        terms = []
        for m in sorted(map(self.ring.unpack, self.monomials), reverse=True):
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            terms.append("*".join(factors) if factors else "1")
        return " + ".join(terms)

    def __repr__(self):
        return f"F2Poly({self})"


# ---------------------------------------------------------------------------
# Poincare series
# ---------------------------------------------------------------------------


class PoincareSeries(Frozen):
    """Truncated dimension series: coefficients[d] = dim in degree d."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        if not coefficients:
            raise F2Error("series needs at least the degree-0 coefficient")
        if any(c < 0 for c in coefficients):
            raise F2Error("series coefficients must be non-negative")
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, d: int) -> int:
        if d > self.max_degree:
            raise DegreeCapError(f"series truncated at degree {self.max_degree}")
        return self.coefficients[d] if d >= 0 else 0

    def __add__(self, other: "PoincareSeries") -> "PoincareSeries":
        n = min(self.max_degree, other.max_degree)
        return PoincareSeries(tuple(self[d] + other[d] for d in range(n + 1)))

    def __mul__(self, other: "PoincareSeries") -> "PoincareSeries":
        n = min(self.max_degree, other.max_degree)
        coeffs = [
            sum(self[i] * other[d - i] for i in range(d + 1)) for d in range(n + 1)
        ]
        return PoincareSeries(tuple(coeffs))

def series_of_ring(ring: WeightedPolyRing, max_degree: int) -> PoincareSeries:
    """Monomial counts of the ring by weighted degree, up to max_degree.

    Equivalent to expanding prod_i 1/(1 - x^(deg g_i)) through max_degree.
    """
    if max_degree < 0:
        raise DegreeCapError("max_degree must be >= 0")
    coeffs = [1] + [0] * max_degree
    for d in ring.degrees:
        for n in range(d, max_degree + 1):
            coeffs[n] += coeffs[n - d]
    return PoincareSeries(tuple(coeffs))


def geometric_series_product(part_degrees: Sequence[int], max_degree: int) -> PoincareSeries:
    """Expansion of prod 1/(1-x^d) for the given degrees, through max_degree."""
    ring = WeightedPolyRing(tuple((f"g{i}", d) for i, d in enumerate(part_degrees)))
    return series_of_ring(ring, max_degree)
