"""Finite graded modules over A(1) and E(1).

All that depends on the algebra is its ALGEBRAS entry.  A(1) is generated by
Sq^1 and Sq^2, E(1) by the Milnor primitives Q_0 = Sq(1) and Q_1 = Sq(0, 1);
the relations (Sq^1 Sq^1 = 0 and Sq^2 Sq^2 = Sq^1 Sq^2 Sq^1, respectively
Q_i^2 = 0 and Q_0 Q_1 = Q_1 Q_0), both Margolis operators and the relators
of the catalog pieces are sums of generator words, each acting last letter
first.  A module is a degree window, a dimension per degree, and one matrix
per generator between adjacent slices; the relations are validated wherever
the composites stay inside the window.

The catalog pieces are built mechanically inside the ambient Steenrod
algebra, each its part from a bottom degree up modulo its relators, once,
on the window of degrees that keep a quotient representative:

    Z2                        one class: modulo both generators
    A(1), E(1)                the free rank-one modules
    I, L                      augmentation ideals: from degree 1 up
    J = A(1)/A(1)Sq^3         the joker
    K = A(1)/A(1)(Sq^1, Sq^2 Sq^3)
    C = E(1)/E(1)Sq^1

Stable-type identification equates a module's windowed profile (its
dimension series and both Margolis homology series) with a non-negative
combination of catalog pieces' profiles, then certifies a unique counting
solution by constructing an actual isomorphism piece by piece: piece maps,
held as the images of their basis vectors, are searched in canonical order,
and the stacked map from the one-pass block sum of all pieces is verified
to commute with the action before it is accepted.

Modules coming from a polynomial-ring presentation are window truncations of
something infinite, so every Margolis or type conclusion within 3 degrees of
the top of the window is flagged provisional; Q_1 moves degrees by 3 and
truncation corrupts exactly that fringe.  Freeness detection via vanishing
Margolis homology (Adams-Margolis) is a standard fact the solver relies on.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul, xor
from typing import Sequence

from .action import SqAlgebraPresentation
from .algebra import SteenrodElement
from .dual import SubHopfAlgebra, basis_of, milnor_to_admissible
from .f2 import F2Basis, F2Index, F2Matrix, F2Poly, F2Span, Frozen

EDGE_MARGIN = 3  # Q_1 has degree 3; conclusions this close to the top are provisional

Word = tuple[str, ...]  # generator names; a word acts last letter first


def _words(text: str) -> tuple[Word, ...]:
    """The words of a sum written as in ALGEBRAS: "sq1 sq2 + sq2 sq1"."""
    return tuple(tuple(term.split()) for term in text.split("+"))


class Algebra(Frozen):
    """A(1) or E(1): everything the module code needs to know about it.

    Four of its fields are dicts, so it compares and hashes by identity."""

    __slots__ = ("hopf", "ops", "milnor", "relations", "margolis", "pieces")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        hopf: tuple[str, int],  # the sub-Hopf algebra, as dual.SubHopfAlgebra takes it
        ops: dict[str, int],  # generator -> degree, in matrix order
        milnor: dict[str, tuple[int, ...]],  # generator -> its Milnor basis element
        relations: tuple[str, ...],  # sums of words that act as zero
        margolis: dict[str, str],  # "q0", "q1" -> the operator as a sum of words
        # the catalog in order: piece -> (bottom degree, relators), the algebra
        # from the bottom degree up modulo the left ideal of the relators
        pieces: dict[str, tuple[int, tuple[str, ...]]],
    ):
        self._store(hopf, ops, milnor, relations, margolis, pieces)

    def element(self, text: str) -> SteenrodElement:
        """A sum of generator words as an element of the Steenrod algebra."""
        total = SteenrodElement.zero()
        for word in _words(text):
            total = total + reduce(mul, (milnor_to_admissible(self.milnor[op]) for op in word))
        return total


ALGEBRAS = {
    "A1": Algebra(
        hopf=("A", 1),
        ops={"sq1": 1, "sq2": 2},
        milnor={"sq1": (1,), "sq2": (2,)},
        relations=("sq1 sq1", "sq2 sq2 + sq1 sq2 sq1"),
        margolis={"q0": "sq1", "q1": "sq1 sq2 + sq2 sq1"},
        pieces={
            "Z2": (0, ("sq1", "sq2")),
            "I": (1, ()),
            "J": (0, ("sq1 sq2",)),  # Sq^3
            "K": (0, ("sq1", "sq2 sq1 sq2")),  # Sq^1, Sq^2 Sq^3
            "A1": (0, ()),
        },
    ),
    "E1": Algebra(
        hopf=("E", 1),
        ops={"q0": 1, "q1": 3},
        milnor={"q0": (1,), "q1": (0, 1)},
        relations=("q0 q0", "q1 q1", "q0 q1 + q1 q0"),
        margolis={"q0": "q0", "q1": "q1"},
        pieces={"Z2": (0, ("q0", "q1")), "L": (1, ()), "C": (0, ("q0",)), "E1": (0, ())},
    ),
}


class ModuleError(Exception):
    pass


def _spec(algebra: str) -> Algebra:
    if algebra not in ALGEBRAS:
        raise ModuleError(f"unknown algebra {algebra!r}")
    return ALGEBRAS[algebra]


class FiniteModule(Frozen):
    """A degree-windowed module over A(1) or E(1)."""

    __slots__ = ("algebra", "dmin", "dims", "ops", "truncated", "name", "_margolis")

    def __init__(
        self,
        algebra: str,
        dmin: int,
        dims: tuple[int, ...],
        ops: tuple[tuple[str, tuple[F2Matrix, ...]], ...],
        truncated: bool = False,
        name: str = "",
    ):
        self._store(algebra, dmin, dims, ops, truncated, name)
        # which -> Margolis table, exact as it reads only this frozen module
        object.__setattr__(self, "_margolis", {})
        expected = tuple(_spec(self.algebra).ops)
        if tuple(op for op, _ in self.ops) != expected:
            raise ModuleError(f"{self.algebra} needs ops {expected}")
        for (op, mats), shift in zip(self.ops, self.spec.ops.values()):
            if len(mats) != len(self.dims):
                raise ModuleError(f"{op}: need one matrix per degree")
            for i, m in enumerate(mats):
                if m.ncols != self.dims[i]:
                    raise ModuleError(f"{op} at degree {self.dmin + i}: bad source dim")
                target = self.dim(self.dmin + i + shift)
                if m.nrows != target:
                    raise ModuleError(f"{op} at degree {self.dmin + i}: bad target dim")

    @property
    def spec(self) -> Algebra:
        return ALGEBRAS[self.algebra]

    # -- shape ----------------------------------------------------------------

    @property
    def dmax(self) -> int:
        return self.dmin + len(self.dims) - 1

    def dim(self, degree: int) -> int:
        i = degree - self.dmin
        return self.dims[i] if 0 <= i < len(self.dims) else 0

    def total_dim(self) -> int:
        return sum(self.dims)

    def op_matrix(self, op: str, degree: int) -> F2Matrix:
        i = degree - self.dmin
        for name, mats in self.ops:
            if name == op and 0 <= i < len(mats):
                return mats[i]
        return F2Matrix.zero(self.dim(degree + self.spec.ops[op]), self.dim(degree))

    def reliable_max(self) -> int:
        return self.dmax - EDGE_MARGIN if self.truncated else self.dmax

    def reliable_window(self) -> tuple[int, int]:
        """The degrees every conclusion may read; raises if there are none."""
        lo, hi = self.dmin, self.reliable_max()
        if hi < lo:
            raise ModuleError("window too small to say anything reliable")
        return lo, hi

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def build(algebra, dmin, dims, mats_by_op, truncated=False, name=""):
        ops = tuple((op, tuple(mats_by_op[op])) for op in _spec(algebra).ops)
        return FiniteModule(algebra, dmin, tuple(dims), ops, truncated, name)

    def suspend(self, s: int) -> "FiniteModule":
        label = self.name if not s else f"{self.name}@{s}" if self.name else ""
        return FiniteModule(self.algebra, self.dmin + s, self.dims, self.ops, self.truncated, label)

    def direct_sum(self, *others: "FiniteModule") -> "FiniteModule":
        """The block sum of this module and the others, in one pass."""
        parts = (self, *others)
        if any(p.algebra != self.algebra for p in others):
            raise ModuleError("cannot sum modules over different algebras")
        degrees = range(min(p.dmin for p in parts), max(p.dmax for p in parts) + 1)
        mats_by_op = {}
        for op in self.spec.ops:
            mats_by_op[op] = mats = []
            for d in degrees:
                rows, ncols = [], 0
                for p in parts:
                    m = p.op_matrix(op, d)
                    rows += [r << ncols for r in m.rows]
                    ncols += m.ncols
                mats.append(F2Matrix(len(rows), ncols, rows))
        return FiniteModule.build(
            self.algebra, degrees.start, [sum(p.dim(d) for p in parts) for d in degrees],
            mats_by_op, truncated=any(p.truncated for p in parts),
        )

    # -- relations --------------------------------------------------------------

    def _word_sum(self, words: Sequence[Word], d: int) -> F2Matrix:
        """The matrix from degree d of a sum of generator words."""
        rows = None
        for word in words:
            m, e = F2Matrix.identity(self.dim(d)), d
            for op in reversed(word):
                m, e = self.op_matrix(op, e).mat_mul(m), e + self.spec.ops[op]
            rows = m.rows if rows is None else [a ^ b for a, b in zip(rows, m.rows)]
        return F2Matrix(m.nrows, m.ncols, rows)

    def validate(self) -> None:
        """Check the defining relations in every degree: a composite that
        leaves a truncated window reads its empty matrices there."""
        relations = [(text, _words(text)) for text in self.spec.relations]
        for d in range(self.dmin, self.dmax + 1):
            for text, words in relations:
                if any(self._word_sum(words, d).rows):
                    raise ModuleError(f"{text} != 0 at degree {d}")

    # -- Margolis homology --------------------------------------------------------

    def margolis_operator(self, which: str) -> tuple[int, dict[int, F2Matrix]]:
        """The differential (Q_0 or Q_1) as matrices, with its degree shift."""
        if which not in self.spec.margolis:
            raise ModuleError(f"unknown Margolis operator {which!r}; choose q0 or q1")
        words = _words(self.spec.margolis[which])
        shift = sum(self.spec.ops[op] for op in words[0])
        return shift, {d: self._word_sum(words, d) for d in range(self.dmin, self.dmax + 1)}

    def margolis_homology(self, which: str) -> dict[int, tuple[int, bool]]:
        """Degree -> (dim ker/im, reliable flag), computed once; returns a copy."""
        return dict(self._margolis_table(which))

    def _margolis_table(self, which: str) -> dict[int, tuple[int, bool]]:
        """The memoised table itself, for callers in this module that only read it."""
        if which not in self._margolis:
            shift, mats = self.margolis_operator(which)
            out = {}
            for d in range(self.dmin, self.dmax + 1):
                ker = self.dim(d) - mats[d].rank()
                im = mats[d - shift].rank() if d - shift >= self.dmin else 0
                out[d] = (ker - im, d <= self.reliable_max())
            self._margolis[which] = out
        return self._margolis[which]

    def to_dot(self) -> str:
        """Node-and-edge picture: nodes per basis element, short edges for the
        degree-1 operator, long edges for the other one."""
        lines = ["digraph module {", "  rankdir=BT;"]
        for d in range(self.dmin, self.dmax + 1):
            for i in range(self.dim(d)):
                lines.append(f'  "n{d}_{i}" [label="{d}"];')
        styles = {1: "solid", 2: "dashed", 3: "dashed"}
        for op, shift in self.spec.ops.items():
            for d in range(self.dmin, self.dmax + 1):
                m = self.op_matrix(op, d)
                for j in range(m.ncols):
                    for i in range(m.nrows):
                        if m.entry(i, j):
                            lines.append(
                                f'  "n{d}_{j}" -> "n{d + shift}_{i}"'
                                f' [style={styles[shift]}, label="{op}"];'
                            )
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# building modules inside the ambient Steenrod algebra
# ---------------------------------------------------------------------------


def _module(algebra, dmin, basis, act, coords, truncated=False, name=""):
    """The module with basis[i] in degree dmin + i: act(element, x) is the
    image of x and coords(y, d) its coordinates in basis[d - dmin].  In a
    truncated window a generator's matrix is empty where its images leave."""
    spec = _spec(algebra)
    top = dmin + len(basis)
    mats_by_op = {}
    # the longest shift first: each monomial's cut list is built once
    for op, shift in sorted(spec.ops.items(), key=lambda item: -item[1]):
        element = spec.element(op)
        mats_by_op[op] = [
            F2Matrix.zero(0, len(src))
            if truncated and d + shift >= top
            else F2Matrix(
                len(src),
                len(basis[d + shift - dmin]) if d + shift < top else 0,
                [coords(act(element, x), d + shift) for x in src],
            ).transpose()
            for d, src in enumerate(basis, dmin)
        ]
    return FiniteModule.build(algebra, dmin, map(len, basis), mats_by_op, truncated, name)


def _module_from_subquotient(
    algebra: str,
    carrier: Sequence[SteenrodElement],
    ideal: Sequence[SteenrodElement] = (),
    name: str = "",
) -> FiniteModule:
    """Left module on span(carrier)/span(ideal) inside the Steenrod algebra.

    The carrier must be closed under the algebra action modulo the ideal, and
    the ideal must be a submodule of the carrier span.
    """
    by_degree: dict[int, list[SteenrodElement]] = {}
    for e in carrier:
        by_degree.setdefault(e.degree(), []).append(e)
    ideal_by_degree: dict[int, list[SteenrodElement]] = {}
    for e in ideal:
        ideal_by_degree.setdefault(e.degree(), []).append(e)

    # per degree: choose quotient representatives (carrier vectors independent
    # of the ideal span), then build on the window of degrees that keep one
    reps: dict[int, list[SteenrodElement]] = {}
    for d, elems in by_degree.items():
        index, basis = F2Index(), F2Basis()
        for e in ideal_by_degree.get(d, []):
            basis.add(index.bits(e.words))
        kept = [e for e in elems if basis.add(index.bits(e.words))]
        if kept:
            reps[d] = kept
    if not reps:
        return zero_module(algebra)
    dmin, dmax = min(reps), max(reps)

    spans: dict[int, tuple[F2Index, F2Span]] = {}

    def express(x: SteenrodElement, d: int) -> int:
        """Coordinates of x in reps[d] modulo the ideal; raises if outside."""
        basis_elems = reps.get(d, [])
        if d not in spans:
            index = F2Index()
            elems = basis_elems + ideal_by_degree.get(d, [])
            spans[d] = (index, F2Span([index.bits(e.words) for e in elems]))
        index, span = spans[d]
        sol = span.coords(index.bits(x.words))
        if sol is None:
            raise ModuleError("carrier is not closed under the action")
        return sol & ((1 << len(basis_elems)) - 1)

    basis = [reps.get(d, []) for d in range(dmin, dmax + 1)]
    mod = _module(algebra, dmin, basis, mul, express, name=name)
    mod.validate()
    return mod


def zero_module(algebra: str) -> FiniteModule:
    return FiniteModule.build(
        algebra, 0, (0,), {op: [F2Matrix.zero(0, 0)] for op in _spec(algebra).ops},
        name="0",
    )


def _left_ideal_span(generators: list[SteenrodElement], ambient: Sequence[SteenrodElement]) -> list[SteenrodElement]:
    """Elements a*g for a in the ambient basis, g a generator (left ideal span)."""
    out = []
    for g in generators:
        for a in ambient:
            x = a * g
            if not x.is_zero():
                out.append(x)
    return out


@lru_cache(maxsize=None)
def standard_piece(algebra: str, family: str) -> FiniteModule:
    """A catalog piece, built from its ALGEBRAS entry in the ambient algebra:
    the part from the bottom degree up, modulo the left ideal of the relators.

    A(1) catalog: Z2, I (augmentation ideal), J (the joker), K, A1.
    E(1) catalog: Z2, L (augmentation ideal), C = E(1)/E(1)Sq^1, E1.
    """
    spec = _spec(algebra)
    if family not in spec.pieces:
        raise ModuleError(f"unknown piece {family!r} over {algebra}")
    bottom, relators = spec.pieces[family]
    amb = list(basis_of(SubHopfAlgebra(*spec.hopf)))
    ideal = _left_ideal_span([spec.element(r) for r in relators], amb)
    carrier = [e for e in amb if e.degree() >= bottom]
    return _module_from_subquotient(algebra, carrier, ideal, name=family)


def catalog(algebra: str) -> tuple[str, ...]:
    return tuple(_spec(algebra).pieces)


# ---------------------------------------------------------------------------
# modules from ring presentations
# ---------------------------------------------------------------------------


def from_presentation(
    pres: SqAlgebraPresentation, algebra: str, window: tuple[int, int]
) -> FiniteModule:
    """Monomial-basis module of a presented ring, restricted to a window.

    Action matrices are exact (computed in the ring, beyond the window if
    needed) but slices above the window are discarded, so the result is
    truncated and the top EDGE_MARGIN degrees are treated as provisional.
    """
    dmin, dmax = window
    if dmin < 0 or dmax < dmin:
        raise ModuleError("bad window")
    ring = pres.ring
    monos = [ring.monomials_of_degree(d) for d in range(dmin, dmax + 1)]
    index = [{m: i for i, m in enumerate(ms)} for ms in monos]

    def poly_coords(f: F2Poly, d: int) -> int:
        bits = 0
        for m in f.monomials:
            if ring.monomial_degree(m) != d:
                raise ModuleError("inhomogeneous action image")
            bits |= 1 << index[d - dmin][m]
        return bits

    basis = [[F2Poly(ring, frozenset({m})) for m in ms] for ms in monos]
    return _module(algebra, dmin, basis, pres.act, poly_coords, truncated=True)


def restrict_to_e1(m: FiniteModule) -> FiniteModule:
    """Restriction of scalars along E(1) -> A(1): each generator of E(1)
    acts as the Margolis operator of its name, on the same graded space."""
    if m.algebra != "A1":
        raise ModuleError("can only restrict an A(1)-module")
    mats_by_op = {op: list(m.margolis_operator(op)[1].values()) for op in ALGEBRAS["E1"].ops}
    out = FiniteModule.build("E1", m.dmin, m.dims, mats_by_op, m.truncated, m.name)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# module maps
# ---------------------------------------------------------------------------


class ModuleMap(Frozen):
    """A degreewise linear map commuting with the algebra action."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: FiniteModule, target: FiniteModule, mats: tuple[F2Matrix, ...]):
        self._store(source, target, mats)  # mats indexed from source.dmin
        if self.source.algebra != self.target.algebra:
            raise ModuleError("source and target algebras differ")
        if len(self.mats) != len(self.source.dims):
            raise ModuleError("need one matrix per source degree")
        for i, m in enumerate(self.mats):
            d = self.source.dmin + i
            if m.ncols != self.source.dim(d) or m.nrows != self.target.dim(d):
                raise ModuleError(f"matrix shape mismatch at degree {d}")

    def mat(self, degree: int) -> F2Matrix:
        i = degree - self.source.dmin
        if 0 <= i < len(self.mats):
            return self.mats[i]
        return F2Matrix.zero(self.target.dim(degree), self.source.dim(degree))

    def check_commutes(self, top: int | None = None) -> bool:
        top = self.source.reliable_max() if top is None else top
        for op, shift in self.source.spec.ops.items():
            for d in range(self.source.dmin, top - shift + 1):
                lhs = self.mat(d + shift).mat_mul(self.source.op_matrix(op, d))
                rhs = self.target.op_matrix(op, d).mat_mul(self.mat(d))
                if lhs != rhs:
                    return False
        return True

    def is_injective(self) -> bool:
        return all(
            self.mat(d).rank() == self.source.dim(d)
            for d in range(self.source.dmin, self.source.dmax + 1)
        )

    def margolis_induced_injective(self, which: str) -> tuple[bool, int | None]:
        """Whether H(source; Q) -> H(target; Q) is injective; witness degree
        of the first failure otherwise."""
        _, mats_s = self.source.margolis_operator(which)
        shift, mats_t = self.target.margolis_operator(which)
        hdims = self.source._margolis_table(which)
        top = min(self.source.reliable_max(), self.target.reliable_max())
        for d in range(self.source.dmin, top + 1):
            ker = mats_s[d].kernel_basis()
            if not ker:
                continue
            # span of the target differential's image
            image = F2Basis()
            if d - shift >= self.target.dmin:
                mt = mats_t.get(d - shift)
                if mt is not None:
                    for r in mt.transpose().rows:
                        image.add(r)
            # the induced map is injective iff the images of the source
            # kernel span dim H(source) new directions modulo that image
            survivors = sum(image.add(self.mat(d).mat_vec(v).bits) for v in ker)
            if survivors < hdims[d][0]:
                return False, d
        return True, None


def identity_map(m: FiniteModule) -> ModuleMap:
    return ModuleMap(
        m, m, tuple(F2Matrix.identity(m.dim(d)) for d in range(m.dmin, m.dmax + 1))
    )


def zero_map(source: FiniteModule, target: FiniteModule) -> ModuleMap:
    return ModuleMap(
        source,
        target,
        tuple(
            F2Matrix.zero(target.dim(d), source.dim(d))
            for d in range(source.dmin, source.dmax + 1)
        ),
    )


# ---------------------------------------------------------------------------
# stable-type identification
# ---------------------------------------------------------------------------


class StableType(Frozen):
    """Result of decomposing a module into catalog pieces."""

    __slots__ = ("status", "solutions", "iso", "note")

    def __init__(
        self,
        status: str,  # unique | ambiguous | infeasible | unverified
        solutions: tuple[tuple[tuple[str, int], ...], ...],
        iso: ModuleMap | None = None,
        note: str = "",
    ):
        self._store(status, solutions, iso, note)

    @property
    def pieces(self) -> tuple[tuple[str, int], ...]:
        if self.status != "unique":
            raise ModuleError(f"stable type is {self.status}, not unique")
        return self.solutions[0]


def _profile(module: FiniteModule, lo: int, hi: int):
    """(dims, q0, q1) of a module over the degrees [lo, hi], zero outside it."""
    window = range(lo, hi + 1)
    q0, q1 = module._margolis_table("q0"), module._margolis_table("q1")
    return (
        tuple(module.dim(d) for d in window),
        tuple(q0.get(d, (0, True))[0] for d in window),
        tuple(q1.get(d, (0, True))[0] for d in window),
    )


def _piece_profile(algebra: str, family: str, susp: int, lo: int, hi: int):
    """The profile of a piece suspended by susp, over [lo, hi], read off the
    unsuspended piece."""
    return _profile(standard_piece(algebra, family), lo - susp, hi - susp)


def stable_type_solve(
    module: FiniteModule,
    pieces: Sequence[str] | None = None,
    max_solutions: int = 4,
    build_iso: bool = True,
) -> StableType:
    """Identify a module as a multiset of suspended catalog pieces.

    Equates the dimension series and both Margolis series over the reliable
    window by bounded exhaustive search; a unique counting solution is then
    certified with an explicit isomorphism.

    The search places pieces in canonical order, by degree and then by
    catalog order within a degree, so each multiset of suspended pieces is
    visited once.  Profiles are non-negative, so feasibility does not depend
    on the order within a degree.
    """
    algebra = module.algebra
    names = tuple(pieces) if pieces is not None else catalog(algebra)
    lo, hi = module.reliable_window()
    target = _profile(module, lo, hi)

    bottoms = {name: standard_piece(algebra, name).dmin for name in names}
    profile_cache: dict[tuple[str, int], tuple] = {}

    def profile(name, susp):
        key = (name, susp)
        if key not in profile_cache:
            profile_cache[key] = _piece_profile(algebra, name, susp, lo, hi)
        return profile_cache[key]

    solutions: set[tuple[tuple[str, int], ...]] = set()

    def search(state, placed, last):
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
            return  # margolis left over with no dimensions: infeasible branch
        d = lo + first
        # canonical order: by degree, then by catalog index within a degree,
        # so each multiset of pieces is reached along one sequence only
        last_degree, last_index = last
        start = last_index if last_degree == d else 0
        for k in range(start, len(names)):
            name = names[k]
            susp = d - bottoms[name]
            p_poin, p_q0, p_q1 = profile(name, susp)
            new_poin = tuple(a - b for a, b in zip(poin, p_poin))
            new_q0 = tuple(a - b for a, b in zip(q0m, p_q0))
            new_q1 = tuple(a - b for a, b in zip(q1m, p_q1))
            if min(new_poin) < 0 or min(new_q0) < 0 or min(new_q1) < 0:
                continue
            search((new_poin, new_q0, new_q1), placed + [(name, susp)], (d, k))

    search(target, [], (None, 0))

    if not solutions:
        return StableType("infeasible", (), note="not expressible in catalog")
    ordered = tuple(sorted(solutions))
    if len(ordered) > 1:
        return StableType("ambiguous", ordered)
    sol = ordered[0]
    if not build_iso:
        return StableType("unique", ordered)
    iso = _build_isomorphism(module, sol)
    if iso is None:
        return StableType(
            "unverified", ordered, note="counting solution found but no explicit isomorphism"
        )
    return StableType("unique", ordered, iso=iso)


# -- explicit isomorphism construction --------------------------------------


def _hom_space(piece: FiniteModule, target: FiniteModule) -> list[tuple[F2Matrix, ...]]:
    """Basis of the space of module maps piece -> target (degreewise matrices).

    Unknowns are all matrix entries; commutation with each operator gives the
    linear constraints.
    """
    degrees = list(range(piece.dmin, piece.dmax + 1))
    offsets = {}
    total = 0
    for d in degrees:
        offsets[d] = total
        total += piece.dim(d) * target.dim(d)

    def var(d, i, j):  # entry (i, j) of f_d
        return offsets[d] + i * piece.dim(d) + j

    rows = []
    for op, shift in piece.spec.ops.items():
        for d in degrees:
            sp = piece.op_matrix(op, d)  # piece_d -> piece_{d+shift}
            st = target.op_matrix(op, d)  # target_d -> target_{d+shift}
            for r in range(target.dim(d + shift)):
                for c in range(piece.dim(d)):
                    bits = 0
                    if d + shift in offsets:
                        fd2 = d + shift
                        for j in range(piece.dim(fd2)):
                            if sp.entry(j, c):
                                bits ^= 1 << var(fd2, r, j)
                    for j in range(target.dim(d)):
                        if st.entry(r, j):
                            bits ^= 1 << var(d, j, c)
                    if bits:
                        rows.append(bits)
    constraint = F2Matrix(len(rows), total, rows)
    basis = []
    for v in constraint.kernel_basis():
        mats = []
        for d in degrees:
            rows_m = [0] * target.dim(d)
            for i in range(target.dim(d)):
                for j in range(piece.dim(d)):
                    if (v.bits >> var(d, i, j)) & 1:
                        rows_m[i] |= 1 << j
            mats.append(F2Matrix(target.dim(d), piece.dim(d), rows_m))
        basis.append(tuple(mats))
    return basis


_HOM_ENUM_CAP = 14  # enumerate at most 2^cap candidate maps per piece


def _build_isomorphism(module: FiniteModule, solution) -> ModuleMap | None:
    """Greedy piece-peeling: choose an embedding for each piece, in canonical
    order, keeping the running sum injective; backtrack on failure.

    A piece map is held as the images of the piece's basis vectors, degree
    by degree, so a sum of maps is an XOR of images."""
    algebra = module.algebra
    if not solution:
        empty = zero_module(algebra)
        if any(module.dim(d) for d in range(module.dmin, module.reliable_max() + 1)):
            return None
        return zero_map(empty, module) if module.total_dim() else identity_map(module)
    pieces = sorted(
        solution,
        key=lambda ps: (standard_piece(algebra, ps[0]).dmin + ps[1], -standard_piece(algebra, ps[0]).total_dim(), ps[0]),
    )
    templates = [standard_piece(algebra, name).suspend(s) for name, s in pieces]
    degrees = [[d for d in range(t.dmin, t.dmax + 1) for _ in range(t.dim(d))] for t in templates]

    hom_images = []
    for t in templates:
        hb = _hom_space(t, module)
        if len(hb) > _HOM_ENUM_CAP:
            return None
        # a transposed matrix's rows are the images of the basis vectors
        hom_images.append([[v for m in mats for v in m.transpose().rows] for mats in hb])

    # running reduced spans per degree
    def try_place(idx, spans):
        if idx == len(templates):
            return []
        hb = hom_images[idx]
        for mask in range(1, 1 << len(hb)):
            chosen = [images for b, images in enumerate(hb) if mask >> b & 1]
            pairs = [(d, reduce(xor, col)) for d, col in zip(degrees[idx], zip(*chosen))]
            # the piece map must be injective and transverse to the spans
            new_spans = {d: b.copy() for d, b in spans.items()}
            if not all(new_spans.setdefault(d, F2Basis()).add(v) for d, v in pairs):
                continue
            rest = try_place(idx + 1, new_spans)
            if rest is not None:
                return [pairs] + rest
        return None

    placed = try_place(0, {})
    if placed is None:
        return None
    fmap = _stacked_map(module, templates, placed)
    top = module.reliable_max()
    if not fmap.check_commutes(top=top):
        return None
    total = fmap.source
    for d in range(min(total.dmin, module.dmin), top + 1):
        if total.dim(d) != module.dim(d) or fmap.mat(d).rank() != total.dim(d):
            return None
    return fmap


def _stacked_map(module: FiniteModule, templates, placed) -> ModuleMap:
    """The block sum of the pieces and its map into the module: the columns
    of each degree are the placed (degree, image) pairs, piece by piece."""
    columns: dict[int, list[int]] = {}
    for pairs in placed:
        for d, v in pairs:
            columns.setdefault(d, []).append(v)
    total = templates[0].direct_sum(*templates[1:])
    return ModuleMap(total, module, tuple(
        F2Matrix(total.dim(d), module.dim(d), columns.get(d, [])).transpose()
        for d in range(total.dmin, total.dmax + 1)
    ))


# ---------------------------------------------------------------------------
# the split-injection certificate
# ---------------------------------------------------------------------------


class SplitCertificate(Frozen):
    __slots__ = ("hypotheses_met", "f_injective", "q0_margolis_injective", "witness_degree")

    def __init__(
        self,
        hypotheses_met: bool,
        f_injective: bool,
        q0_margolis_injective: bool,
        witness_degree: int | None,
    ):
        self._store(hypotheses_met, f_injective, q0_margolis_injective, witness_degree)

    @property
    def split_guaranteed(self) -> bool:
        return self.hypotheses_met and self.f_injective and self.q0_margolis_injective


def check_split_criterion(f: ModuleMap) -> SplitCertificate:
    """The two-condition split test for a map of A(1)-modules.

    Requires the source to decompose into suspensions of {Z2, J, A(1)} and
    the target into suspensions of {Z2, I, J, K, A(1)}; then injectivity of f
    together with injectivity on Q_0-Margolis homology guarantees a split.
    """
    if f.source.algebra != "A1":
        raise ModuleError("split criterion applies to A(1)-modules")
    src_type = stable_type_solve(f.source, pieces=("Z2", "J", "A1"), build_iso=True)
    tgt_type = stable_type_solve(
        f.target, pieces=("Z2", "I", "J", "K", "A1"), build_iso=True
    )
    hypotheses = src_type.status == "unique" and tgt_type.status == "unique"
    injective = f.is_injective() and f.check_commutes()
    q0_ok, witness = f.margolis_induced_injective("q0")
    return SplitCertificate(hypotheses, injective, q0_ok, witness)


def split_case(name: str) -> ModuleMap:
    """A built-in split-criterion case, a map into A(1): "identity" (split),
    "joker" (the first injective map from the joker suspended by 2, which
    fails on Q_0-Margolis homology in degree 4) or "zero" (from Z2)."""
    a1 = standard_piece("A1", "A1")
    if name == "identity":
        return identity_map(a1)
    if name == "joker":
        j2 = standard_piece("A1", "J").suspend(2)
        maps = (ModuleMap(j2, a1, tuple(mats)) for mats in _hom_space(j2, a1))
        return next(f for f in maps if f.is_injective())
    if name == "zero":
        return zero_map(standard_piece("A1", "Z2"), a1)
    raise ValueError(f"unknown split case {name!r}; choose from identity, joker, zero")


# ---------------------------------------------------------------------------
# periodic free-plus-pieces feasibility
# ---------------------------------------------------------------------------


class PeriodicFeasibility(Frozen):
    __slots__ = ("feasible", "counts", "note")

    def __init__(self, feasible: bool, counts: dict | None, note: str = ""):
        self._store(feasible, counts, note)


def eight_fold_feasibility(module: FiniteModule) -> PeriodicFeasibility:
    """Consistency of a decomposition into a free A(1)-module plus 8i-fold
    suspensions of Z2, I@-1, J@4 and K@4.

    The Margolis signatures of the four non-free pieces make the counting
    system triangular: both series determine the candidate counts degree by
    degree, and the leftover dimension series must then be a non-negative
    combination of shifted copies of A(1).  This checks feasibility only.
    """
    if module.algebra != "A1":
        raise ModuleError("expected an A(1)-module")
    lo, hi = module.reliable_window()
    rest = [list(series) for series in _profile(module, lo, hi)]
    dims, q0, q1 = rest

    def take(name, susp, count):
        for series, piece in zip(rest, _piece_profile("A1", name, susp, lo, hi)):
            for x, v in enumerate(piece):
                series[x] -= count * v

    def at(series, d):
        return series[d - lo] if lo <= d <= hi else 0

    counts: dict[tuple[str, int], int] = {}
    for i in range(0, hi // 8 + 2):
        placements = [("Z2", 8 * i), ("I", 8 * i - 1), ("J", 8 * i + 4), ("K", 8 * i + 4)]
        # solve in an order where each piece is pinned by a fresh degree:
        # q1 at 8i pins Z2; q0 at 8i then pins I; q0 at 8i+4 pins K;
        # q0 at 8i+6 pins J.
        z = at(q1, 8 * i)
        k = at(q0, 8 * i + 4)
        j = at(q0, 8 * i + 6)
        ii = at(q0, 8 * i) - z
        if min(z, k, j, ii) < 0:
            return PeriodicFeasibility(False, None, f"negative count in block {i}")
        for (name, susp), count in zip(placements, (z, ii, j, k)):
            if count:
                counts[(name, susp)] = count
                take(name, susp, count)
    leftover_q0, leftover_q1 = ([lo + x for x, v in enumerate(s) if v] for s in (q0, q1))
    if leftover_q0 or leftover_q1:
        return PeriodicFeasibility(
            False,
            None,
            f"margolis series not matched (q0 left at {leftover_q0},"
            f" q1 left at {leftover_q1})",
        )

    # leftover dimensions must be free: greedy generator counts
    for x in range(hi - lo + 1):
        if dims[x] < 0:
            return PeriodicFeasibility(False, None, f"dimension deficit at degree {lo + x}")
        if dims[x]:
            take("A1", lo + x, dims[x])
    # only degrees with full A(1) support below the reliable top are certain;
    # trailing degrees could need pieces we cannot see, so this is feasibility
    return PeriodicFeasibility(True, dict(counts))
