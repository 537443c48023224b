"""Steenrod action on graded polynomial algebras via the Cartan formula.

A presentation declares, for each ring generator g, the values Sq^k(g) for
1 <= k <= deg(g).  Instability pins down the rest: Sq^0 is the identity,
Sq^(deg g)(g) = g^2, and Sq^k(g) = 0 above the degree.  The action on an
arbitrary polynomial is forced by additivity and

    Sq^k(fg) = sum_{i+j=k} Sq^i(f) Sq^j(g).

Powers are handled through the Frobenius shortcut: the total square of x^2
is the square of the total square of x, so g^(2^a) blocks cost a squarings
rather than 2^a convolutions.

Presentations are immutable; the per-generator component cache is idempotent
and safe under concurrent readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .f2 import F2Error, F2Poly, WeightedPolyRing


class PresentationError(F2Error):
    """A declared action violates degree or instability constraints."""


@dataclass(frozen=True)
class SqAlgebraPresentation:
    """A weighted polynomial ring with a declared Steenrod action."""

    ring: WeightedPolyRing
    action: tuple[tuple[F2Poly, ...], ...]  # action[i][k-1] = Sq^k(g_i)
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
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
                    img = (
                        ring.gen(name) * ring.gen(name)
                        if k == deg
                        else ring.zero()
                    )
                elif isinstance(v, str):
                    img = ring.parse(v)
                else:
                    img = v
                images.append(img)
            rows.append(tuple(images))
        return cls(ring, tuple(rows))

    # -- internals ----------------------------------------------------------

    def _gen_components(self, i: int) -> list[F2Poly]:
        """[g, Sq^1 g, ..., Sq^deg g] for generator i."""
        key = ("gen", i)
        if key not in self._cache:
            name, _ = self.ring.generators[i]
            self._cache[key] = [self.ring.gen(name), *self.action[i]]
        return self._cache[key]

    def _block_components(self, i: int, a: int) -> list[F2Poly]:
        """Components of the total square of g_i^(2^a)."""
        key = ("block", i, a)
        if key not in self._cache:
            if a == 0:
                comps = self._gen_components(i)
            else:
                prev = self._block_components(i, a - 1)
                comps = [self.ring.zero()] * (2 * len(prev) - 1)
                for j, c in enumerate(prev):
                    comps[2 * j] = c.square()
            self._cache[key] = comps
        return self._cache[key]

    def _convolve(self, c1: Sequence[F2Poly], c2: Sequence[F2Poly], cap: int) -> list[F2Poly]:
        top = min(cap, len(c1) + len(c2) - 2)
        out = [self.ring.zero()] * (top + 1)
        for i, a in enumerate(c1):
            if a.is_zero():
                continue
            for j, b in enumerate(c2):
                if i + j > top:
                    break
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return out

    def _monomial_components(self, mono: tuple[int, ...], cap: int) -> list[F2Poly]:
        key = ("mono", mono, cap)
        if key not in self._cache:
            comps = [self.ring.one()]
            for i, e in enumerate(mono):
                a = 0
                while e:
                    if e & 1:
                        comps = self._convolve(comps, self._block_components(i, a), cap)
                    e >>= 1
                    a += 1
            self._cache[key] = comps
        return self._cache[key]

    # -- public action ------------------------------------------------------

    def sq(self, k: int, f: F2Poly) -> F2Poly:
        """Sq^k applied to a polynomial of this ring."""
        if k < 0:
            raise PresentationError("Sq index must be >= 0")
        if f.ring != self.ring:
            raise PresentationError("polynomial lives in the wrong ring")
        if k == 0:
            return f
        acc = self.ring.zero()
        for m in f.monomials:
            deg = self.ring.monomial_degree(m)
            if k > deg:
                continue
            comps = self._monomial_components(m, deg)
            if k < len(comps):
                acc = acc + comps[k]
        return acc

    def total_sq(self, f: F2Poly) -> F2Poly:
        """The finite sum (1 + Sq^1 + Sq^2 + ...) applied to f."""
        acc = self.ring.zero()
        for m in f.monomials:
            deg = self.ring.monomial_degree(m)
            for c in self._monomial_components(m, deg):
                acc = acc + c
        return acc

    def q0(self, f: F2Poly) -> F2Poly:
        return self.sq(1, f)

    def q1(self, f: F2Poly) -> F2Poly:
        """The degree-3 primitive Sq^3 + Sq^2 Sq^1 = Sq^1 Sq^2 + Sq^2 Sq^1."""
        return self.sq(1, self.sq(2, f)) + self.sq(2, self.sq(1, f))


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    witness: str | None = None


def check_presentation(
    p: SqAlgebraPresentation, degree_max: int, adem_max: int | None = None
) -> CheckReport:
    """Verify the declared action on all monomials up to degree_max.

    Checks instability (vanishing above the degree, top operation equals the
    square) and every Adem relation Sq^m Sq^n = sum C(n-i-1, m-2i)
    Sq^(m+n-i) Sq^i with m < 2n <= 2*adem_max applied to each monomial; this
    includes Sq^1 Sq^1 = 0 and Sq^2 Sq^2 = Sq^1 Sq^2 Sq^1.
    """
    from .algebra import binom_mod2

    for d in range(degree_max + 1):
        for mono in p.ring.monomials_of_degree(d):
            f = F2Poly(p.ring, frozenset({mono}))
            if p.sq(d, f) != f * f:
                return CheckReport(False, f"Sq^{d}({f}) != square")
            for k in (d + 1, d + 2):
                if not p.sq(k, f).is_zero():
                    return CheckReport(False, f"Sq^{k}({f}) != 0 above the degree")
            n_cap = min(d, adem_max) if adem_max is not None else d
            for n in range(1, n_cap + 1):
                sq_n_f = p.sq(n, f)
                for m in range(1, 2 * n):
                    lhs = p.sq(m, sq_n_f)
                    rhs = p.ring.zero()
                    for i in range(m // 2 + 1):
                        if binom_mod2(n - i - 1, m - 2 * i):
                            rhs = rhs + p.sq(m + n - i, p.sq(i, f))
                    if lhs != rhs:
                        return CheckReport(
                            False, f"Adem relation Sq^{m} Sq^{n} fails on {f}"
                        )
    return CheckReport(True)


@dataclass(frozen=True)
class AlgebraMap:
    """A degree-preserving ring map between presentations, given on generators."""

    source: SqAlgebraPresentation
    target: SqAlgebraPresentation
    images: tuple[F2Poly, ...]
    # images[i] ** e by (i, e), shared by every apply; exact because the
    # images are fixed fields of this frozen map
    _powers: dict = field(
        default_factory=dict, init=False, compare=False, repr=False, hash=False
    )

    def __post_init__(self):
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

    def check_equivariant(self) -> CheckReport:
        """Check Sq^k-equivariance on generators for all k up to the degree.

        The Cartan formula makes both sides multiplicative, so generator
        equivariance extends to the whole ring.
        """
        for i, (name, deg) in enumerate(self.source.ring.generators):
            g = self.source.ring.gen(name)
            for k in range(1, deg + 1):
                lhs = self.apply(self.source.sq(k, g))
                rhs = self.target.sq(k, self.apply(g))
                if lhs != rhs:
                    return CheckReport(False, f"Sq^{k}({name}) fails to commute")
        return CheckReport(True)


# ---------------------------------------------------------------------------
# declarative loading
# ---------------------------------------------------------------------------


def presentation_from_dict(data: dict) -> SqAlgebraPresentation:
    """Build a presentation from {"generators": [[name, deg], ...],
    "action": {name: {"k": "poly-string", ...}, ...}}."""
    ring = WeightedPolyRing(tuple((g[0], int(g[1])) for g in data["generators"]))
    declared: dict[str, dict[int, str]] = {}
    for name, images in data.get("action", {}).items():
        declared[name] = {int(k): v for k, v in images.items()}
    return SqAlgebraPresentation.build(ring, declared)


def presentation_from_json(text: str) -> SqAlgebraPresentation:
    return presentation_from_dict(json.loads(text))


def presentation_to_dict(p: SqAlgebraPresentation) -> dict:
    action: dict[str, dict[str, str]] = {}
    for (name, deg), images in zip(p.ring.generators, p.action):
        row = {
            str(k): str(img)
            for k, img in enumerate(images, start=1)
            if not img.is_zero()
        }
        action[name] = row
    return {
        "generators": [[name, deg] for name, deg in p.ring.generators],
        "action": action,
    }
