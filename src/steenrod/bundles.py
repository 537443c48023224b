"""The two homogeneous-space bundles and integration along the fiber.

Two presets are built here, each with base and total cohomology rings whose
Steenrod actions are *derived* rather than declared:

  cp2   fiber CP^2:  F2[x2, x4] over F2[y4, y6], fiber dimension 4,
        pullback y4 -> x2^2 + x4, y6 -> x2 x4, vertical class 1 + x2 + x4.
        The base action comes from a three-root Chern model modulo the first
        Chern class; the total action from a two-root model.

  hp2   fiber HP^2:  F2[u2, u3, u4, u8] over F2[t2, t3, t8, t12], fiber
        dimension 8.  Both rings embed into F2[x1, x2, y1, y2], the rank-one
        model of a restriction to an elementary abelian 2-group, through the
        classes t2 = x1^2 + x1 x2 + x2^2, t3 = x1 x2 (x1 + x2) and the
        quartic classes s1, s2; the action tables drop out of the model.

Leray-Hirsch (Hatcher, Algebraic Topology, Thm. 4D.1) makes the total ring
a free base module on classes b_i of fiber degrees 0, k/2, k; integration
along the fiber extracts the top coefficient of that expansion and drops
degrees by k.  The expansions are read from the regular representation:
multiplication by a total generator v_j is base-linear, with a 3 x 3 matrix
M_j over the base read from exact solves of v_j b_i (degrees at most 16 for
hp2, 8 for cp2), so a monomial v_j m has the coefficients M_j times those of
m.  This is exact because expansions are unique and pi^* is a ring map.  The
basis is certified when the matrices are built: they give every monomial an
expansion, so the products pi^*(mono) b_i span each degree, and the count
sum_i dim R_(n - |b_i|) = dim S_n through the cap makes them a basis.  The
elimination of a whole degree slice is kept for the base case and as the
test oracle; dependent products there raise BundleError.  The module
property pi_!(pi^*(y) x) = y pi_!(x) holds on the nose and is tested.

The verification reports re-derive the classical identities these presets
rest on (total Stiefel-Whitney classes of the restricted representations,
the action tables, the transfer recurrences and their closed forms modulo
y6 / t12) and run the degree-by-degree detection of the spin-c primitives
through the two transfer legs.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence

from .action import AlgebraMap, Check, SqAlgebraPresentation, _eq, first_failure
from .f2 import FIELD, F2Index, F2Poly, F2Span, Frozen, WeightedPolyRing, series_of_ring


class BundleError(Exception):
    pass


# ---------------------------------------------------------------------------
# deriving a presentation from a model
# ---------------------------------------------------------------------------


def _slice_solver(columns, labels, dependent: str | None = None):
    """Solver in the span of polynomials: p -> the labels of columns summing
    to p, or None when p lies outside the span.  With a message, dependent
    columns raise BundleError with it, since a solution would be one of
    several."""
    index = F2Index()
    span = F2Span([index.bits(p.monomials) for p in columns])
    if dependent is not None and span.relations:
        raise BundleError(dependent)

    def solve(p: F2Poly):
        sol = span.coords(index.bits(p.monomials))
        return None if sol is None else [x for j, x in enumerate(labels) if (sol >> j) & 1]

    return solve


def derive_presentation(
    ambient: SqAlgebraPresentation,
    generators: Sequence[tuple[str, F2Poly]],
    ideal: Sequence[F2Poly] = (),
) -> SqAlgebraPresentation:
    """Build the presentation of a subquotient ring of an ambient model.

    Each named generator is given by its ambient polynomial; the optional
    ideal polynomials are modded out (their Steenrod stability is the
    caller's responsibility).  Sq^k of every generator is computed in the
    ambient model and re-expressed in the generators, which both derives the
    action table and proves closure.
    """
    ring = WeightedPolyRing(tuple((name, poly.degree()) for name, poly in generators))
    images = [poly for _, poly in generators]
    powers: dict = {}
    solvers = {}

    def express(poly: F2Poly, degree: int) -> F2Poly:
        """Write an ambient polynomial in the generators, modulo the ideal."""
        if degree not in solvers:
            targets = list(ring.monomials_of_degree(degree))
            columns = [
                F2Poly(ring, frozenset({t})).substitute(ambient.ring, images, powers)
                for t in targets
            ]
            multiples = [
                g * F2Poly(ambient.ring, frozenset({m}))
                for g in ideal
                for m in ambient.ring.monomials_of_degree(degree - g.degree())
            ]
            solvers[degree] = _slice_solver(columns + multiples, targets + [None] * len(multiples))
        sol = solvers[degree](poly)
        if sol is None:
            raise BundleError(
                f"polynomial of degree {degree} does not lie in the subquotient"
            )
        return F2Poly(ring, frozenset(t for t in sol if t is not None))

    declared: dict[str, dict[int, F2Poly]] = {}
    for name, poly in generators:
        deg = poly.degree()
        declared[name] = {}
        for k, img in enumerate(ambient.squares(poly, deg)[1:], start=1):
            declared[name][k] = express(img, deg + k)
    return SqAlgebraPresentation.build(ring, declared)


def rank_one_model(names: Sequence[str]) -> SqAlgebraPresentation:
    ring = WeightedPolyRing(tuple((n, 1) for n in names))
    return SqAlgebraPresentation.build(ring, {})


def chern_root_model(n: int) -> SqAlgebraPresentation:
    ring = WeightedPolyRing(tuple((f"r{i}", 2) for i in range(1, n + 1)))
    return SqAlgebraPresentation.build(ring, {})


def elementary_symmetric(pres: SqAlgebraPresentation, j: int) -> F2Poly:
    import itertools

    n = pres.ring.ngens
    monos = []
    for combo in itertools.combinations(range(n), j):
        monos.append(tuple(1 if i in combo else 0 for i in range(n)))
    return pres.ring.from_monomials(monos)


# ---------------------------------------------------------------------------
# the restriction model for the quaternionic preset
# ---------------------------------------------------------------------------


class RestrictionModel(Frozen):
    """The rank-one model F2[x1, x2, y1, y2] with the named classes."""

    __slots__ = ("pres", "t2", "t3", "s1", "s2", "s3", "t8", "t12", "u4", "u8")

    def __init__(
        self, pres: SqAlgebraPresentation, t2: F2Poly, t3: F2Poly, s1: F2Poly, s2: F2Poly,
        s3: F2Poly, t8: F2Poly, t12: F2Poly, u4: F2Poly, u8: F2Poly,
    ):
        self._store(pres, t2, t3, s1, s2, s3, t8, t12, u4, u8)


@lru_cache(maxsize=None)
def restriction_model() -> RestrictionModel:
    """Build the named classes.  Which quartic is s1 is a convention: t8,
    t12, u4 = s1 + s2, u8 = s1 s2 and the adjoint identity are symmetric in
    s1 and s2."""
    pres = rank_one_model(("x1", "x2", "y1", "y2"))
    R = pres.ring
    x1, x2, y1, y2 = (R.gen(n) for n in ("x1", "x2", "y1", "y2"))
    t2 = x1 * x1 + x1 * x2 + x2 * x2
    t3 = x1 * x2 * (x1 + x2)

    def quartic(y: F2Poly) -> F2Poly:
        return t3 * y + t2 * y * y + y ** 4

    s1, s2 = quartic(y2), quartic(y1)
    s3 = quartic(y1 + y2)
    t8 = s1 * s1 + s1 * s2 + s2 * s2
    t12 = s1 * s2 * (s1 + s2)
    return RestrictionModel(pres, t2, t3, s1, s2, s3, t8, t12, s1 + s2, s1 * s2)


@lru_cache(maxsize=None)
def bpsp3_presentation() -> SqAlgebraPresentation:
    """F2[t2, t3, t8, t12] with the action derived from the model."""
    m = restriction_model()
    return derive_presentation(
        m.pres, [("t2", m.t2), ("t3", m.t3), ("t8", m.t8), ("t12", m.t12)]
    )


@lru_cache(maxsize=None)
def hp2_total_presentation() -> SqAlgebraPresentation:
    """F2[u2, u3, u4, u8] with the action derived from the model."""
    m = restriction_model()
    return derive_presentation(
        m.pres, [("u2", m.t2), ("u3", m.t3), ("u4", m.u4), ("u8", m.u8)]
    )


@lru_cache(maxsize=None)
def bu3_presentation() -> SqAlgebraPresentation:
    """F2[c2, c4, c6] from three Chern roots."""
    roots = chern_root_model(3)
    return derive_presentation(
        roots,
        [
            ("c2", elementary_symmetric(roots, 1)),
            ("c4", elementary_symmetric(roots, 2)),
            ("c6", elementary_symmetric(roots, 3)),
        ],
    )


@lru_cache(maxsize=None)
def bsu3_presentation() -> SqAlgebraPresentation:
    """F2[y4, y6]: the Chern model with the first class killed."""
    roots = chern_root_model(3)
    e1 = elementary_symmetric(roots, 1)
    return derive_presentation(
        roots,
        [("y4", elementary_symmetric(roots, 2)), ("y6", elementary_symmetric(roots, 3))],
        ideal=[e1],
    )


@lru_cache(maxsize=None)
def cp2_total_presentation() -> SqAlgebraPresentation:
    """F2[x2, x4] from two Chern roots (the determinant-one subgroup)."""
    roots = chern_root_model(2)
    return derive_presentation(
        roots,
        [("x2", elementary_symmetric(roots, 1)), ("x4", elementary_symmetric(roots, 2))],
    )


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------


class FiberBundleData(Frozen):
    """Base and total rings, the pullback, a Leray-Hirsch basis, and the
    total Stiefel-Whitney class of the vertical bundle."""

    __slots__ = (
        "name", "base", "total", "pullback", "fiber_dim", "lh_basis", "w_tau", "cap",
        "_spans", "_matrices", "_coefficients",
    )

    def __init__(
        self,
        name: str,
        base: SqAlgebraPresentation,
        total: SqAlgebraPresentation,
        pullback: AlgebraMap,
        fiber_dim: int,
        lh_basis: tuple[F2Poly, ...],
        w_tau: F2Poly,
        cap: int = 72,
    ):
        self._store(name, base, total, pullback, fiber_dim, lh_basis, w_tau, cap)
        # The caches below depend only on the fields above, so they are exact;
        # a bundle built again from the same fields starts with empty ones.
        # degree -> the solver of its whole slice, the elimination
        object.__setattr__(self, "_spans", {})
        # generator j -> the matrix of multiplication by it, filled all at once
        object.__setattr__(self, "_matrices", [])
        # packed total monomial -> its Leray-Hirsch coefficients
        object.__setattr__(self, "_coefficients", {})

    def lh_reduce(self, f: F2Poly) -> tuple[F2Poly, ...]:
        """The unique coefficients r_i with f = sum pi^*(r_i) b_i.

        They are read from the regular representation of the total ring over
        the base: multiplication by the total generator v_j sends b_i to
        sum_l pi^*(M_j[l][i]) b_l, so a monomial v_j m has the coefficients
        M_j times those of m, since pi^* is a ring map.  Each monomial's
        coefficients are computed once, from those of the monomial with its
        first factor removed, and f's are their sum.  See _representation
        for the base case and the certificate that makes them unique.
        """
        if f.ring != self.total.ring:
            raise BundleError("element lives in the wrong ring")
        if f.is_zero():
            return tuple(self.base.ring.zero() for _ in self.lh_basis)
        if not f.is_homogeneous():
            raise BundleError("reduce homogeneous elements only")
        return self._reduce(f, f.degree())

    def _reduce(self, f: F2Poly, n: int) -> tuple[F2Poly, ...]:
        """lh_reduce on a nonzero f of the total ring, homogeneous of degree n."""
        if n > self.cap:
            raise BundleError(f"degree {n} exceeds the cap {self.cap}")
        if not self._matrices:
            self._representation()
        memo = self._coefficients
        sums: list[set[int]] = [set() for _ in self.lh_basis]
        for mono in f.monomials:
            for acc, c in zip(sums, memo.get(mono) or self._expand(mono)):
                acc ^= c.monomials
        return tuple(F2Poly(self.base.ring, frozenset(acc)) for acc in sums)

    def fiber_integrate(self, f: F2Poly) -> F2Poly:
        """Integration along the fiber: the top Leray-Hirsch coefficient,
        extended additively over inhomogeneous inputs."""
        if f.ring != self.total.ring:
            raise BundleError("element lives in the wrong ring")
        acc = self.base.ring.zero()
        for n, part in f.homogeneous_parts().items():
            acc = acc + self._reduce(part, n)[-1]
        return acc

    def _expand(self, mono: int) -> tuple[F2Poly, ...]:
        """Compute and keep the coefficients of a packed monomial missing
        from the memo: v_j m from m, v_j the monomial's first generator."""
        j = ((mono & -mono).bit_length() - 1) // FIELD
        rest = mono - (1 << FIELD * j)
        coeffs = self._coefficients.get(rest) or self._expand(rest)
        zero = self.base.ring.zero()
        out = []
        for row in self._matrices[j]:
            acc = zero
            for entry, c in zip(row, coeffs):
                if entry.monomials and c.monomials:
                    acc = acc + entry * c
            out.append(acc)
        self._coefficients[mono] = out = tuple(out)
        return out

    def _representation(self):
        """Certify the basis and build the multiplication matrices.

        The certificate has two halves.  The matrices and the expansion of 1
        are read from exact eliminations, so every monomial gets an
        expansion: the products pi^*(mono) b_i span every degree.  The count
        sum_i dim R_(n - |b_i|) = dim S_n, through the cap, then makes those
        products a basis of each slice, so each expansion is the unique one.
        """
        base = series_of_ring(self.base.ring, self.cap)
        total = series_of_ring(self.total.ring, self.cap)
        for n in range(self.cap + 1):
            products = sum(base[n - b.degree()] for b in self.lh_basis)
            if products != total[n]:
                raise BundleError(
                    f"{self.name}: {products} Leray-Hirsch products in degree {n},"
                    f" against a slice of dimension {total[n]}"
                )
        one = self._eliminate(self.total.ring.one())
        matrices = [self._matrix(j) for j in range(self.total.ring.ngens)]
        self._coefficients[0] = one
        self._matrices.extend(matrices)

    def _matrix(self, j: int) -> tuple[tuple[F2Poly, ...], ...]:
        """M_j[l][i], the coefficient of b_l in v_j b_i, for the j-th total
        generator v_j: a solve in degree at most |v_j| + |b_top|."""
        v = F2Poly(self.total.ring, frozenset({1 << FIELD * j}))
        columns = [self._eliminate(v * b) for b in self.lh_basis]
        return tuple(zip(*columns))

    def _eliminate(self, f: F2Poly) -> tuple[F2Poly, ...]:
        """The coefficients of homogeneous f by elimination in its whole
        slice, spanned by the products pi^*(mono) b_i: the base case of the
        representation and its test oracle.  Dependent products raise, since
        an expansion read from them would be one of several."""
        n = f.degree()
        if n not in self._spans:
            columns, labels = [], []
            for i, b in enumerate(self.lh_basis):
                for mono in self.base.ring.monomials_of_degree(n - b.degree()):
                    columns.append(self.pullback.apply(F2Poly(self.base.ring, frozenset({mono}))) * b)
                    labels.append((i, mono))
            self._spans[n] = _slice_solver(
                columns, labels, f"{self.name}: the Leray-Hirsch products of degree {n} are dependent"
            )
        sol = self._spans[n](f)
        if sol is None:
            raise BundleError(f"{self.name}: no Leray-Hirsch expansion in degree {n}")
        out: list[set[int]] = [set() for _ in self.lh_basis]
        for i, mono in sol:
            out[i].add(mono)
        return tuple(F2Poly(self.base.ring, frozenset(monos)) for monos in out)

    def vertical_class_part(self, i: int) -> F2Poly:
        """Degree-i component of the total class of the vertical bundle."""
        return self.w_tau.homogeneous_part(i)


@lru_cache(maxsize=None)
def cp2_bundle() -> FiberBundleData:
    base = bsu3_presentation()
    total = cp2_total_presentation()
    x2, x4 = total.ring.gen("x2"), total.ring.gen("x4")
    pullback = AlgebraMap(base, total, (x2 * x2 + x4, x2 * x4))
    if not pullback.check_equivariant().ok:
        raise BundleError("cp2 pullback is not equivariant")
    return FiberBundleData(
        "cp2",
        base,
        total,
        pullback,
        4,
        (total.ring.one(), x2, x2 * x2),
        total.ring.one() + x2 + x4,
    )


@lru_cache(maxsize=None)
def hp2_bundle() -> FiberBundleData:
    base = bpsp3_presentation()
    total = hp2_total_presentation()
    R = total.ring
    u2, u3, u4, u8 = (R.gen(n) for n in ("u2", "u3", "u4", "u8"))
    pullback = AlgebraMap(base, total, (u2, u3, u4 * u4 + u8, u4 * u8))
    if not pullback.check_equivariant().ok:
        raise BundleError("hp2 pullback is not equivariant")
    w4_tau = u2 * u2 + u4
    w_tau = R.one() + w4_tau + (u3 * u3 + u2 * u4) + u3 * u4 + u8
    return FiberBundleData(
        "hp2", base, total, pullback, 8, (R.one(), w4_tau, w4_tau * w4_tau), w_tau
    )


def bundle(name: str) -> FiberBundleData:
    if name == "cp2":
        return cp2_bundle()
    if name == "hp2":
        return hp2_bundle()
    raise BundleError(f"unknown bundle {name!r}")


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


def restriction_model_report() -> list[Check]:
    """Re-derive the rank-one restriction identities behind the hp2 preset.

    The preset is built first: deriving its presentations asks the model's
    engine for the longest squares of t8 and t12, so the action table below
    reads the engine's lists instead of cutting shorter ones to rebuild."""
    # the derived ring presentations exist and the pullback is equivariant
    try:
        hp2_bundle()
        consistent = Check("hp2 preset consistent", True)
    except BundleError as exc:  # pragma: no cover - construction failure
        consistent = Check("hp2 preset consistent", False, str(exc))
    m = restriction_model()
    R = m.pres.ring
    one = R.one()
    x1, x2, y1, y2 = (R.gen(n) for n in ("x1", "x2", "y1", "y2"))
    checks = []

    # total classes of the three-dimensional summands
    checks.append(
        _eq(
            "w(R_ii) = 1 + t2 + t3",
            (one + x1) * (one + x2) * (one + x1 + x2),
            one + m.t2 + m.t3,
        )
    )
    for k, y in (("s1", y2), ("s2", y1), ("s3", y1 + y2)):
        got = (one + y) * (one + x1 + y) * (one + x2 + y) * (one + x1 + x2 + y)
        sk = {"s1": m.s1, "s2": m.s2, "s3": m.s3}[k]
        checks.append(_eq(f"w(R_ij) = 1 + t2 + t3 + {k}", got, one + m.t2 + m.t3 + sk))
    checks.append(_eq("s1 + s2 = s3", m.s1 + m.s2, m.s3))

    t = one + m.t2 + m.t3
    lhs = t ** 3 * (t + m.s1) * (t + m.s2) * (t + m.s3)
    rhs = m.t12 * t ** 3 + m.t8 * t ** 4 + t ** 6
    checks.append(_eq("adjoint class = t12 t^3 + t8 t^4 + t^6", lhs, rhs))

    # the full action table, re-derived from the model
    want_table = {
        ("t2", 1): m.t3,
        ("t2", 2): m.t2 * m.t2,
        ("t3", 1): m.pres.ring.zero(),
        ("t3", 2): m.t2 * m.t3,
        ("t8", 1): m.pres.ring.zero(),
        ("t8", 2): m.pres.ring.zero(),
        ("t12", 1): m.pres.ring.zero(),
        ("t12", 2): m.t2 * m.t12,
    }
    classes = {"t2": m.t2, "t3": m.t3, "t8": m.t8, "t12": m.t12}
    squares = {name: m.pres.squares(c, 2) for name, c in classes.items()}
    for (name, k), want in want_table.items():
        checks.append(_eq(f"Sq^{k}({name})", squares[name][k], want))

    # the displayed quartic-class computations
    for name, s in (("s1", m.s1), ("s2", m.s2)):
        _, sq1, sq2 = m.pres.squares(s, 2)
        checks.append(_eq(f"Sq^1({name}) = 0", sq1, R.zero()))
        checks.append(_eq(f"Sq^2({name}) = t2 {name}", sq2, m.t2 * s))

    # vertical class of the quaternionic bundle in u-coordinates
    wtau_model = (t + m.s1) * (t + m.s2)
    u_expected = (
        one + (m.t2 * m.t2 + m.u4) + (m.t3 * m.t3 + m.t2 * m.u4) + m.t3 * m.u4 + m.u8
    )
    checks.append(_eq("w(tau) in u-coordinates", wtau_model, u_expected))
    checks.append(consistent)
    return checks


def cp2_transfer_report(n_max: int = 10) -> list[Check]:
    """The complex preset: ring identities, action values, the integration
    base cases, recurrences, and the closed forms modulo y6."""
    checks = []
    b = cp2_bundle()
    R, S = b.base.ring, b.total.ring
    y4, y6 = R.gen("y4"), R.gen("y6")
    x2, x4 = S.gen("x2"), S.gen("x4")

    # Chern-level identities
    bu3 = bu3_presentation()
    c2, c4, c6 = (bu3.ring.gen(n) for n in ("c2", "c4", "c6"))
    checks.append(_eq("Sq^2(c4) = c2 c4 + c6", bu3.sq(2, c4), c2 * c4 + c6))
    checks.append(_eq("Sq^2(c6) = c2 c6", bu3.sq(2, c6), c2 * c6))

    checks.append(_eq("pullback(y4)", b.pullback.apply(y4), x2 * x2 + x4))
    checks.append(_eq("pullback(y6)", b.pullback.apply(y6), x2 * x4))
    checks.append(_eq("Sq^1(y4) = 0", b.base.sq(1, y4), R.zero()))
    checks.append(_eq("Sq^2(y4) = y6", b.base.sq(2, y4), y6))
    checks.append(_eq("Sq^1(y6) = 0", b.base.sq(1, y6), R.zero()))
    checks.append(_eq("Sq^2(y6) = 0", b.base.sq(2, y6), R.zero()))

    # vertical class from the weight computation
    weights = rank_one_model(("x", "y", "z"))
    W = weights.ring
    x, y, z = W.gen("x"), W.gen("y"), W.gen("z")
    wt = (W.one() + x + y) * (W.one() + x + z)
    a2, b2, b4 = x, y + z, y * z
    checks.append(
        _eq(
            "weight class = 1 + b2 + a2 b2 + b4 + a2^2",
            wt,
            W.one() + b2 + a2 * b2 + b4 + a2 * a2,
        )
    )
    pulled = S.one() + x2 + (x2 * x2) + x4 + (x2 * x2)  # a2, b2 -> x2; b4 -> x4
    checks.append(_eq("w(tau) = 1 + x2 + x4", pulled, b.w_tau))

    # integration base cases
    pi = b.fiber_integrate
    checks.append(_eq("pi_!(1) = 0", pi(S.one()), R.zero()))
    checks.append(_eq("pi_!(x2) = 0", pi(x2), R.zero()))
    checks.append(_eq("pi_!(x2^2) = 1", pi(x2 * x2), R.one()))
    checks.append(_eq("pi_!(x4) = 1", pi(x4), R.one()))
    checks.append(_eq("pi_!(x4^2) = y4", pi(x4 * x4), y4))

    def recurrence_failures():
        for n in range(3, 2 * n_max + 1):
            lhs = pi(x2 ** n)
            rhs = pi(x2 ** (n - 2)) * y4 + pi(x2 ** (n - 3)) * y6
            if lhs != rhs:
                yield f"x2^{n}"
        for n in range(3, n_max + 1):
            lhs4 = pi(x4 ** n)
            rhs4 = pi(x4 ** (n - 1)) * y4 + pi(x4 ** (n - 3)) * y6 * y6
            if lhs4 != rhs4:
                yield f"x4^{n}"

    def mod_y6(p: F2Poly) -> F2Poly:
        return p.substitute(R, [y4, R.zero()])

    def closed_form_failures():
        for n in range(1, n_max + 1):
            if mod_y6(pi(x2 ** (2 * n))) != y4 ** (n - 1):
                yield f"x2^{2*n}"
            if not mod_y6(pi(x2 ** (2 * n + 1))).is_zero():
                yield f"x2^{2*n+1}"
            if mod_y6(pi(x4 ** n)) != y4 ** (n - 1):
                yield f"x4^{n}"

    # factorization through the pullback of y6
    def factor_failures():
        for n in range(1, 4):
            for k in range(0, 5):
                lhs = pi(x2 ** (n + k) * x4 ** n)
                if lhs != y6 ** n * pi(x2 ** k):
                    yield f"x2^{n+k} x4^{n}"

    checks += [
        first_failure("transfer recurrences", recurrence_failures()),
        first_failure("closed forms modulo y6", closed_form_failures()),
        first_failure("pullback factor extraction", factor_failures()),
    ]
    return checks


def hp2_transfer_report(a_max: int = 3, d_max: int = 4, samples: int = 200) -> list[Check]:
    """The quaternionic preset: the closed form of the transfer modulo t12
    on the monomial family, plus the module property on random pairs."""
    b = hp2_bundle()
    R, S = b.base.ring, b.total.ring
    t2, t3, t8, t12 = (R.gen(n) for n in ("t2", "t3", "t8", "t12"))
    u2, u3, u4, u8 = (S.gen(n) for n in ("u2", "u3", "u4", "u8"))

    def mod_t12(p: F2Poly) -> F2Poly:
        return p.substitute(R, [t2, t3, t8, R.zero()])

    def closed_form_failures():
        for a in range(a_max + 1):
            for bb in range(a_max + 1):
                for c in range(d_max + 1):
                    for d in range(d_max + 1):
                        mono = u3 ** a * u2 ** bb * u4 ** c * u8 ** d
                        got = mod_t12(b.fiber_integrate(mono))
                        if c % 2 == 0 and c > 0 and d == 0:
                            want = t3 ** a * t2 ** bb * t8 ** (c // 2 - 1)
                        elif c == 0 and d > 0:
                            want = t3 ** a * t2 ** bb * t8 ** (d - 1)
                        else:
                            want = R.zero()
                        if got != mod_t12(want):
                            yield f"u3^{a} u2^{bb} u4^{c} u8^{d}: got {got}"

    return [
        first_failure("closed form modulo t12", closed_form_failures()),
        module_property_check(b, samples),
    ]


def module_property_check(b: FiberBundleData, samples: int) -> Check:
    """pi_!(pi^*(y) x) = y pi_!(x) on deterministic pseudo-random pairs."""
    rng = random.Random(2 if b.name == "cp2" else 3)

    def random_poly(ring: WeightedPolyRing, max_degree: int) -> F2Poly:
        d = rng.randrange(0, max_degree + 1)
        monos = ring.monomials_of_degree(d)
        if not monos:
            return ring.zero()
        chosen = [m for m in monos if rng.random() < 0.5] or [rng.choice(monos)]
        return F2Poly(ring, frozenset(chosen))

    def failures():
        for trial in range(samples):
            y = random_poly(b.base.ring, 12)
            x = random_poly(b.total.ring, 16)
            if b.fiber_integrate(b.pullback.apply(y) * x) != y * b.fiber_integrate(x):
                yield f"trial {trial}: y = {y}, x = {x}"

    return first_failure("module property", failures())


# ---------------------------------------------------------------------------
# primitive detection through the transfer legs
# ---------------------------------------------------------------------------


class LegResult(Frozen):
    __slots__ = ("degree", "formula", "cp2_value", "hp2_value", "detected")

    def __init__(self, degree: int, formula: str, cp2_value: str, hp2_value: str, detected: bool):
        self._store(degree, formula, cp2_value, hp2_value, detected)


def substitute_vertical(b: FiberBundleData, wpoly: frozenset[int]) -> F2Poly:
    """The charclass polynomial wpoly with the degree-i component of the
    vertical class substituted for each w_i (zero past the fiber dimension)."""
    from .charclass import _unpack
    ring = b.total.ring
    parts = {i: b.vertical_class_part(i) for i in range(1, b.fiber_dim + 1)}
    acc = ring.zero()
    for mono in map(_unpack, wpoly):
        term = ring.one()
        for i, e in mono:
            part = parts.get(i, ring.zero())
            if part.is_zero():
                term = ring.zero()
                break
            term = term * part ** e
        acc = acc + term
    return acc


def primitive_transfer_check(n_max: int = 32) -> list[LegResult]:
    """For each admissible degree, push the spin-c primitive through both
    transfer legs and record whether at least one leg sees it."""
    from .charclass import model
    mdl = model("bspinc", n_max)
    cp2, hp2 = cp2_bundle(), hp2_bundle()
    results = []
    for n in range(4, n_max + 1):
        if any(n == 2**k + 1 or n == 2**k - 1 for k in range(1, 8)):
            continue
        named = mdl.named_candidate(n)
        if named is None:
            continue
        formula, poly = named
        values = []
        for b in (cp2, hp2):
            if n < b.fiber_dim:
                values.append(b.base.ring.zero())
            else:
                values.append(b.fiber_integrate(substitute_vertical(b, poly)))
        detected = any(not v.is_zero() for v in values)
        results.append(LegResult(n, formula, str(values[0]), str(values[1]), detected))
    return results
