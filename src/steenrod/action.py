"""Steenrod action on graded polynomial algebras via the Cartan formula.

A presentation declares, for each ring generator g, the values Sq^k(g) for
1 <= k <= deg(g).  Instability pins down the rest: Sq^0 is the identity,
Sq^(deg g)(g) = g^2, and Sq^k(g) = 0 above the degree.  The action on an
arbitrary polynomial is forced by additivity and

    Sq^k(fg) = sum_{i+j=k} Sq^i(f) Sq^j(g).

Powers are handled through the Frobenius shortcut: the total square of x^2
is the square of the total square of x, so g^(2^a) blocks cost a squarings
rather than 2^a convolutions.

TotalSquare, the one engine for this (each charclass.QuotientModel feeds it
the action Wu's formula induces on the model), works on packed monomials,
one int with an exponent field per generator: a product is an addition and
a Frobenius square a left shift.  Presentations hand it the monomials of
their F2Poly values as they are, in the 32-bit fields of f2.FIELD.

Presentations are immutable.  The engine's component caches fill
idempotently, and a lock lets each generator's column hand out each
component once, so concurrent readers are safe.
"""

from __future__ import annotations

from itertools import islice
from threading import Lock
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .f2 import FIELD, LIMIT, F2Error, F2Poly, Frozen, WeightedPolyRing, binom_mod2

if TYPE_CHECKING:
    from .algebra import SteenrodElement

Components = list[frozenset[int]]  # entry k: the packed monomials of Sq^k


class PresentationError(F2Error):
    """A declared action violates degree or instability constraints."""


class TotalSquare:
    """Total squares of packed monomials, by Frobenius blocks and Cartan.

    A packed monomial holds the exponent of generator j (counting from 0) in
    bits field * j to field * (j + 1) - 1; gen(j), called once, yields the
    packed components g_j, Sq^1 g_j, ..., Sq^deg g_j of generator j (a list
    will do) and degree(j) gives its degree.  Component k of a partial
    product feeds only components >= k of the full product, so cutting every
    block and partial product of a degree-d monomial at
    min(d + 1, top - d + 1) components is exact through the top (without a
    top, at d + 1, where instability ends every list anyway).  Component k
    of a product reads only components <= k of its factors, so a request
    through upto cuts every block and partial product at upto + 1, exactly,
    and pulls each column only that far; a longer request later rebuilds
    (or pulls) at least double that.  Hence the rule for callers: ask once,
    for the longest square you will read.  Every caller asks through sums,
    one request per term.  Sq^k asks through k, and
    SqAlgebraPresentation.squares(f, upto) reads Sq^0 f, ..., Sq^upto f
    from one request per monomial.
    """

    def __init__(
        self,
        gen: Callable[[int], Iterable[frozenset[int]]],
        degree: Callable[[int], int],
        field: int,
        top=None,
    ):
        self.gen = gen
        self.degree = degree
        self.field = field
        self.top = float("inf") if top is None else top
        self._columns: dict[int, Iterator[frozenset[int]]] = {}  # j -> the rest of gen(j)
        self._pulling = Lock()  # an iterator hands out each component once
        self._blocks: dict[tuple[int, int], Components] = {}
        self._monos: dict[int, tuple[int, Components]] = {}  # mono -> (cut, comps)

    def _block(self, j: int, a: int, n: int) -> Components:
        """The first n components (all, if fewer) of the total square of
        g_j^(2^a), or more: a block grows as a cut list does."""
        key, deg = (j, a), self.degree(j) << a
        size = min(deg + 1, self.top - deg + 1)
        comps = self._blocks.get(key, [])
        if len(comps) < min(n, size):
            n = min(max(n, 2 * len(comps)), size)
            if a == 0:
                with self._pulling:  # read, pull and store as one step
                    if j not in self._columns:
                        self._columns[j] = iter(self.gen(j))
                    comps = self._blocks.get(key, [])
                    pulled = islice(self._columns[j], max(n - len(comps), 0))
                    comps = self._blocks[key] = comps + list(pulled)
            else:
                prev = self._block(j, a - 1, (n + 1) // 2)
                comps = self._blocks[key] = comps + [
                    frozenset() if k % 2 else frozenset(u << 1 for u in prev[k // 2])
                    for k in range(len(comps), n)
                ]
        return comps

    def components(self, mono: int, deg: int, upto: int | None = None) -> Components:
        """Components of the packed degree-deg monomial's total square, at least through upto."""
        size = min(deg + 1, self.top - deg + 1)
        want = size if upto is None else min(upto + 1, size)
        cut, comps = self._monos.get(mono, (0, []))
        if cut < want:
            cut = min(max(want, 2 * cut), size)
            bits, blocks = mono, []  # bit a of field j: the block of g_j^(2^a)
            while bits:
                b = (bits & -bits).bit_length() - 1
                blocks.append(self._block(*divmod(b, self.field), cut))
                bits &= bits - 1
            prod = blocks[0][:cut] if blocks else [{0}]  # the first block as it is
            for block in blocks[1:]:
                n = min(len(prod) + len(block) - 1, cut)
                out: list[set[int]] = [set() for _ in range(n)]
                for x, cx in enumerate(prod):
                    if not cx:
                        continue
                    for y, cy in enumerate(block[: n - x]):
                        if cy:
                            o = out[x + y]
                            for u in cx:
                                o ^= {u + v for v in cy}
                prod = out
            comps = [frozenset(c) for c in prod]
            self._monos[mono] = (cut, comps)
        return comps

    def sums(self, terms: Iterable[tuple[int, int]], lo: int, upto: int) -> list[set[int]]:
        """Packed Sq^lo, ..., Sq^upto of the sum of the (packed monomial,
        degree) terms, from one components request through upto per term;
        a square past the top raises ValueError."""
        acc: list[set[int]] = [set() for _ in range(lo, upto + 1)]
        for mono, deg in terms:
            if deg + upto > self.top:
                raise ValueError(f"Sq^{upto} of a degree-{deg} class passes the cap {self.top}")
            if lo <= deg:
                for a, c in zip(acc, self.components(mono, deg, upto)[lo:]):
                    a ^= c
        return acc


class SqAlgebraPresentation(Frozen):
    """A weighted polynomial ring with a declared Steenrod action."""

    __slots__ = ("ring", "action", "_square")

    def __init__(self, ring: WeightedPolyRing, action: tuple[tuple[F2Poly, ...], ...]):
        self._store(ring, action)  # action[i][k-1] = Sq^k(g_i)
        if len(self.action) != self.ring.ngens:
            raise PresentationError("need an action row per generator")
        for i, ((name, deg), images) in enumerate(zip(self.ring.generators, self.action)):
            if len(images) != deg:
                raise PresentationError(
                    f"generator {name}: need Sq^1..Sq^{deg}, got {len(images)}"
                )
            for k, img in enumerate(images, start=1):
                if img.ring != self.ring:
                    raise PresentationError(f"Sq^{k}({name}) lives in the wrong ring")
                if not img.is_zero() and (
                    not img.is_homogeneous() or img.degree() != deg + k
                ):
                    raise PresentationError(
                        f"Sq^{k}({name}) must be homogeneous of degree {deg + k}"
                    )
            square = self.ring.gen(name) * self.ring.gen(name)
            if images[deg - 1] != square:
                raise PresentationError(f"Sq^{deg}({name}) must equal {name}^2")
        square = TotalSquare(self._gen, self.ring.degrees.__getitem__, FIELD)
        object.__setattr__(self, "_square", square)

    @classmethod
    def build(
        cls,
        ring: WeightedPolyRing,
        declared: dict[str, dict[int, str | F2Poly]],
    ) -> "SqAlgebraPresentation":
        """Assemble from sparse declarations; omitted Sq^k default to zero and
        the top one defaults to the square."""
        rows = []
        for name, deg in ring.generators:
            images = []
            given = declared.get(name, {})
            for k in range(1, deg + 1):
                v = given.get(k)
                if v is None:
                    img = ring.gen(name) * ring.gen(name) if k == deg else ring.zero()
                elif isinstance(v, str):
                    img = ring.parse(v)
                else:
                    img = v
                images.append(img)
            rows.append(tuple(images))
        return cls(ring, tuple(rows))

    def _gen(self, i: int) -> Components:
        """Packed [g_i, Sq^1 g_i, ..., Sq^deg g_i] from the declared row."""
        row = [self.ring.gen(self.ring.generators[i][0]), *self.action[i]]
        return [c.monomials for c in row]

    def _monomials(self, f: F2Poly) -> list[tuple[int, int]]:
        """Each monomial of f with its degree, all checked before any is
        squared (see _terms)."""
        if f.ring != self.ring:
            raise PresentationError("polynomial lives in the wrong ring")
        return self._terms(f.monomials)

    def _terms(self, monos: Iterable[int]) -> list[tuple[int, int]]:
        """Each packed monomial of this ring with its degree, all checked
        before any is squared: the total square of a degree-d monomial has
        exponents at most 2d, below f2.LIMIT while d is below LIMIT // 2."""
        out = [(m, self.ring.monomial_degree(m)) for m in monos]
        for _, deg in out:
            if deg >= LIMIT // 2:
                raise ValueError(f"degree {deg} passes the packed limit {LIMIT // 2 - 1}")
        return out

    # -- public action --------------------------------------------------------

    def squares(self, f: F2Poly, upto: int) -> list[F2Poly]:
        """Sq^0 f, Sq^1 f, ..., Sq^upto f, from one cut list per monomial."""
        sums = self._square.sums(self._monomials(f), 0, upto)
        return [F2Poly(self.ring, frozenset(a)) for a in sums]

    def sq(self, k: int, f: F2Poly) -> F2Poly:
        """Sq^k applied to a polynomial of this ring."""
        if k < 0:
            raise PresentationError("Sq index must be >= 0")
        if f.ring != self.ring:
            raise PresentationError("polynomial lives in the wrong ring")
        if k == 0:
            return f
        return F2Poly(self.ring, frozenset(self._square.sums(self._monomials(f), k, k)[0]))

    def total_sq(self, f: F2Poly) -> F2Poly:
        """The finite sum (1 + Sq^1 + Sq^2 + ...) applied to f."""
        return sum(self.squares(f, f.degree()), self.ring.zero())

    def act(self, element: SteenrodElement, f: F2Poly) -> F2Poly:
        """A Steenrod algebra element applied to f: each admissible word
        through sq, its last letter first."""
        acc: set[int] = set()
        for word in element.words:
            g = f
            for k in reversed(word):
                g = self.sq(k, g)
            acc ^= g.monomials
        return F2Poly(self.ring, frozenset(acc))


class Check(Frozen):
    """A named check: whether it held, and a witness when it did not.

    This is the one check-result type, from the engines to the report.  A
    passing check keeps no witness, whatever its caller passed.
    """

    __slots__ = ("check_id", "ok", "witness")

    def __init__(self, check_id: str, ok: bool, witness: str = ""):
        object.__setattr__(self, "check_id", check_id)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", "" if ok else witness)

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


def _eq(check_id: str, got, want) -> Check:
    ok = got == want
    return Check(check_id, ok, "" if ok else f"got {got}, want {want}")


def first_failure(check_id: str, witnesses: Iterable[str]) -> Check:
    """Fails with the first witness the search yields, passes when it yields
    none; nothing past the first is computed."""
    for witness in witnesses:
        return Check(check_id, False, witness)
    return Check(check_id, True)


def check_presentation(
    p: SqAlgebraPresentation, degree_max: int, adem_max: int | None = None
) -> Check:
    """Verify the declared action on all monomials up to degree_max.

    Checks that the top operation is the square and every Adem relation
    Sq^m Sq^n = sum C(n-i-1, m-2i) Sq^(m+n-i) Sq^i, m < 2n <= 2*adem_max, on
    each monomial (Sq^1 Sq^1 = 0 and Sq^2 Sq^2 = Sq^1 Sq^2 Sq^1 among them).
    Vanishing above the degree holds by construction: sums skips those terms.

    The squares are packed sets from TotalSquare.sums, one request per
    monomial, longest first: before the checks run, each monomial f through
    degree_max is asked from the top degree down, as far as its checks
    read, and then each monomial of its Sq^i f above degree_max, as far as
    the Adem relations on f read.  A reader of a lower degree reads no
    further, so no cut list is built twice, and the checks' own requests
    find every list built.
    """
    def n_cap(d: int) -> int:
        return min(d, adem_max) if adem_max is not None else d

    def squares(monos: Iterable[int], upto: int) -> list[set[int]]:
        """Packed Sq^0, ..., Sq^upto of the sum of the monomials."""
        return p._square.sums(p._terms(monos), 0, upto)

    asked: set[int] = set()
    for d in range(degree_max, -1, -1):
        top = n_cap(d)
        for mono in p.ring.monomials_of_degree(d):
            asked.add(mono)
            first = squares([mono], max(d, 3 * top - 1))
            for i in range(1, top + 1):
                above = first[i] - asked  # degree d + i past degree_max
                asked |= above
                squares(above, 3 * top - 1)

    def failures():
        for d in range(degree_max + 1):
            top = n_cap(d)
            for mono in p.ring.monomials_of_degree(d):
                f = F2Poly(p.ring, frozenset({mono}))
                # sq[i][k] = Sq^k Sq^i f, through the longest either side reads
                sq = [squares([mono], max(d, 3 * top - 1))]
                sq += [squares(sq[0][i], 3 * top - 1) for i in range(1, top + 1)]
                if sq[0][d] != {mono << 1}:
                    yield f"Sq^{d}({f}) != square"
                for n in range(1, top + 1):
                    for m in range(1, 2 * n):
                        rhs: set[int] = set()
                        for i in range(m // 2 + 1):
                            if binom_mod2(n - i - 1, m - 2 * i):
                                rhs ^= sq[i][m + n - i]
                        if sq[n][m] != rhs:
                            yield f"Adem relation Sq^{m} Sq^{n} fails on {f}"

    return first_failure(f"action consistent through degree {degree_max}", failures())


class AlgebraMap(Frozen):
    """A degree-preserving ring map between presentations, given on generators."""

    __slots__ = ("source", "target", "images", "_powers")

    def __init__(
        self, source: SqAlgebraPresentation, target: SqAlgebraPresentation,
        images: tuple[F2Poly, ...],
    ):
        self._store(source, target, images)
        # images[i] ** e by (i, e), shared by every apply; exact because the
        # images are fixed fields of this frozen map
        object.__setattr__(self, "_powers", {})
        if len(self.images) != self.source.ring.ngens:
            raise PresentationError("need one image per source generator")
        for (name, deg), img in zip(self.source.ring.generators, self.images):
            if img.ring != self.target.ring:
                raise PresentationError(f"image of {name} lives in the wrong ring")
            if not img.is_zero() and (not img.is_homogeneous() or img.degree() != deg):
                raise PresentationError(f"image of {name} must be homogeneous of degree {deg}")

    def apply(self, f: F2Poly) -> F2Poly:
        if f.ring != self.source.ring:
            raise PresentationError("polynomial lives in the wrong ring")
        return f.substitute(self.target.ring, self.images, self._powers)

    def check_equivariant(self) -> Check:
        """Check Sq^k-equivariance on generators for all k up to the degree.

        The Cartan formula makes both sides multiplicative, so generator
        equivariance extends to the whole ring.
        """
        def failures():
            for name, deg in self.source.ring.generators:
                g = self.source.ring.gen(name)
                there = self.target.squares(self.apply(g), deg)
                for k, here in enumerate(self.source.squares(g, deg)[1:], start=1):
                    if self.apply(here) != there[k]:
                        yield f"Sq^{k}({name}) fails to commute"

        return first_failure("Sq-equivariant on generators", failures())

