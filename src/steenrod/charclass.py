"""Stiefel-Whitney symmetric functions and primitives of BO-family coalgebras.

Power sums versus elementary symmetric classes: s_n denotes the sum of n-th
powers of rank-one roots written as a polynomial in the classes w_i via the
Newton identities; s_{n,n} is the two-row monomial symmetric function, equal
to (s_n^2 - s_{2n})/2 over the integers.

The four coalgebras handled here are quotients of H*BO = F2[w_1, w_2, ...]:

    bo       nothing killed
    bso      w_1 = 0
    bspin    the quotient by the Steenrod-module ideal generated by w_2
    bspinc   the quotient by the ideal generated by w_3 = Sq^1 w_2 (mod w_1)

Each quotient is a polynomial ring on the surviving w_n; the model realizes
it concretely as a substitution: each excluded degree e keeps a reduction
rho_e, the allowed-generator expression equivalent to w_e modulo the ideal.
w_1 is one of them off bo, with rho_1 = 0.  The Steenrod action on a model
(QuotientModel.sq) is the one Wu's formula induces; on bo and bso it is the
Wu action on H*BO and H*BSO themselves, so the bso model is the ambient ring
in which the bspin and bspinc ideals are built.  Their reductions come from
one square each: by Wu's formula w_e, e = 2^k + 1, is a term of Sq^(p-1) w_p
with p = (e + 1) / 2, so rho_e is phi of the rest of Sq^(p-1)(w_p + rho_p).
That square is read by the top-square rule, with no total square built: the
other Cartan terms ask a factor for a square above its degree, so
Sq^(|xy|-1)(xy) = Sq^(|x|-1)x y^2 + x^2 Sq^(|y|-1)y (Steenrod and Epstein,
Cohomology Operations), and Wu's formula gives Sq^(j-1) w_j = sum_t
w_(j-1-t) w_(j+t) in closed form, w_1 dropped.  The model is then validated:
each reduction is decomposable; each chain reduction is re-read from its
step through the bso model's total square, whose Wu table the closed form
never reads; and every relation g_e = w_e + rho_e is Steenrod-stable
through top = min(20, cap), phi(Sq^i g_e) = 0.  The kernel J of phi is the
ring ideal of the g_e; the steps put J in the ideal I, by induction on e,
and stability puts I in J, by Cartan, so I = J through top, and past it the
steps carry stability on to the cap (Quillen, Math. Ann. 194, 1971; see
_validate_reductions).  The quotient's dimension series, the allowed
partition counts, follows; the tests check it against an elimination of
the ideal slices, which the model builds, from the cyclic module A.g and
products with the w_j, only for the membership rows (_in_ideal).  Every
total square the model takes is computed only through the cap, and the
induced table only where a square reads.

Primitive dimensions use the square filtration of a commutative connected
Hopf algebra over F2 (a primitive that is decomposable is the square of a
primitive, so dim P_n = dim P_{n/2} + [some primitive hits the degree-n
generator]); the generator indicator is read off in closed form from the
coproduct coefficient of w_{n/2} (x) w_{n/2}, which the tests cross-check by
scanning that coefficient over every basis monomial.  Each named candidate's
certificate is named where the candidate is built (_build_candidate) and
evaluated when the table runs (_certified): w2 and w4 and their powers
through the reduced coproduct of w2 or w4, a two-row sum s_{m,m} through
phi(s_m) = 0 for odd m, and a square of a primitive by its root's
certificate (Frobenius).  Odd power sums are not checked: s_m is primitive
upstream in H*BO (Milnor and Stasheff, Characteristic Classes), and phi is
assumed to be a Hopf map.  Everything is cross-checked against a literal
reduced-coproduct kernel in low degrees.

Polynomials are frozensets of packed monomials: the exponent of w_i sits in
bits 8(i-1)..8i-1 of one Python int, so a product is an addition, a Frobenius
square a left shift and w_1 the low byte.  A field never carries while every
packed monomial has degree below 256 (_PACK_LIMIT): the exponent of w_i in a
degree-d monomial is at most d // i <= 255.  Every packed path enforces that
bound (a model cap of 256 or more raises ValueError).  The sparse form
((i, e), ...) of WMono is read only at the print boundary, by poly_str and
the bundle substitutions.  The total square is action.TotalSquare, the
Frobenius-block/Cartan engine that serves the declared presentations too,
fed the Wu table each model induces.

The Newton layer works mod 2 and mod 4, never over the integers, and lives
in the model: each QuotientModel runs it in its own ring, with per-model
memos filled from degree 1 up, and no other copy exists.  The upstream form,
in H*BO itself, is the bo model's (phi is the identity there and nothing is
killed); with w_1 dropped it is the bso model's.  s_n mod 2 comes from the
Newton recursion mod 2, s_n = sum_{i<n} w_i s_{n-i} + n w_n (even n collapse
to squares by Frobenius).  phi is a ring map, so phi(s_n) = sum_{i<n}
phi(w_i) phi(s_{n-i}) + n phi(w_n): the model runs the recursion on the
generator images (w_i if allowed, rho_i if excluded, so 0 for w_1 off bo)
and never builds s_n upstream to reduce it.  The two-row sum
s_{n,n} = (a - b)/2, with a = s_n^2 and b = s_2n coefficientwise, is wanted
mod 2, so only (a - b) mod 4 matters.  Lemma: a mod 4 depends only on s_n
mod 2.  Writing s_n = sum c_m m, the coefficient of a monomial in s_n^2
collects diagonal terms c_m^2, which are 1 mod 4 for odd c_m and 0 for even
c_m, and cross terms 2 c_m c_m' (m != m'), which are 2 mod 4 exactly when
both are odd.  So a = D + 2X mod 4, with D the squares {2m} and X the cross
sums m + m' counted mod 2, both over the support of s_n mod 2.  Running s_2n
through the recursion mod 4 gives b = b_0 + 2 b_1; a - b is even exactly
when b_0 = D, and then s_{n,n} = X + b_1 mod 2.  A model takes both in the
ring without the generators phi sends to zero (w_1 off bo; w_2,
w_3, w_5 and w_9 in bspin; w_3 and w_5 in bspinc) and reduces the result by
phi: setting generators to zero is a ring map of Z[w_1, w_2, ...] onto a
torsion-free ring, so it commutes with the halving, and phi factors through
it mod 2.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from operator import mul
from typing import Iterable, Iterator

from .action import Check, TotalSquare, _eq, first_failure
from .f2 import F2Basis, F2Index, F2Span, Frozen, bilinear, binom_mod2, power, tensor

# a polynomial in the w classes: its packed monomials, see the module docstring
ModPoly = frozenset[int]
# the sparse form of a monomial, sorted ((index, exponent), ...)
WMono = tuple[tuple[int, int], ...]

# a candidate's primitivity certificate, named where the candidate is built:
# ("coproduct", g), ("two_row", m) or ("upstream",); see QuotientModel._certified
Certificate = tuple
# a named candidate: (formula, polynomial, certificate)
Candidate = tuple[str, ModPoly, Certificate]
UPSTREAM: Certificate = ("upstream",)

ONE = 0
_PACK_LIMIT = 256


def _unpack(k: int) -> WMono:
    fields = k.to_bytes((k.bit_length() + 7) // 8, "little")
    return tuple((i, e) for i, e in enumerate(fields, start=1) if e)


def _gen(i: int) -> int:
    """The packed generator w_i."""
    return 1 << (8 * (i - 1))


def mono_from(parts: Iterable[int]) -> int:
    """The packed product of w_p over the parts p."""
    return sum(map(_gen, parts))


def _degree(k: int) -> int:
    """The degree of a packed monomial: the sum of i e_i over its fields."""
    return sum(map(mul, k.to_bytes((k.bit_length() + 7) // 8, "little"), range(1, _PACK_LIMIT)))


def poly_mul(a: ModPoly, b: ModPoly) -> ModPoly:
    acc: set[int] = set()
    for x in a:
        acc ^= {x + y for y in b}
    return frozenset(acc)


def poly_square(a: ModPoly) -> ModPoly:
    return frozenset(k << 1 for k in a)


def poly_pow(a: ModPoly, e: int) -> ModPoly:
    return power(a, e, frozenset({ONE}), poly_mul, poly_square)


# A sum of coproduct pairs (a, b), a (x) b, of packed monomials.
_PAIR_ONE = frozenset({(ONE, ONE)})
_pair_product = tensor(lambda a, b: {a + b})


def _pair_mul(p: frozenset, q: frozenset) -> frozenset:
    return bilinear(p, q, _pair_product)


def _pair_square(p: frozenset) -> frozenset:
    # Frobenius on both sides: cross terms cancel
    return frozenset((a << 1, b << 1) for a, b in p)


def poly_str(p: ModPoly) -> str:
    if not p:
        return "0"
    terms = []
    for m in sorted(map(_unpack, p), reverse=True):
        if not m:
            terms.append("1")
        else:
            terms.append("*".join(f"w{i}" if e == 1 else f"w{i}^{e}" for i, e in m))
    return " + ".join(terms)


def alpha(n: int) -> int:
    """Number of ones in the binary expansion."""
    return bin(n).count("1")


# ---------------------------------------------------------------------------
# Steenrod action on the w classes (Wu's formula + Cartan)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _wu_generator(i: int, j: int) -> ModPoly:
    """Sq^i(w_j) = sum_t C(j+t-i-1, t) w_{i-t} w_{j+t} in H*BO, with w_0 = 1."""
    if i == 0:
        return frozenset({_gen(j)})
    if i > j:
        return frozenset()
    acc: set[int] = set()
    for t in range(i + 1):
        if t == 0 or binom_mod2(j + t - i - 1, t):
            acc ^= {mono_from(p for p in (i - t, j + t) if p > 0)}
    return frozenset(acc)


def _top_square(p: ModPoly) -> ModPoly:
    """Sq^(d-1) p for p of degree d in H*BSO (no w_1 in p), by the
    top-square rule of the module docstring: on a monomial m, the sum of
    Sq^(j-1) w_j m^2 / w_j^2 over the w_j of odd exponent in m, Sq^(j-1) w_j
    read in closed form, never from the Wu table that validation reads."""
    acc: set[int] = set()
    for m in p:
        for j, e in enumerate(m.to_bytes((m.bit_length() + 7) // 8, "little"), start=1):
            if e & 1:
                rest = (m - _gen(j)) << 1  # m^2 / w_j^2
                acc ^= {rest + _gen(2 * j - 1)}  # t = j - 1, w_0 = 1
                acc ^= {rest + _gen(j - 1 - t) + _gen(j + t) for t in range(j - 2)}
    return frozenset(acc)


def _total_square(wu, top: int) -> TotalSquare:
    """The total square on packed w-monomials, wu(j) yielding the packed
    w_j, Sq^1 w_j, ...; the engine counts fields from 0, w_1 being field 0."""
    return TotalSquare(lambda f: wu(f + 1), lambda f: f + 1, 8, top)


# ---------------------------------------------------------------------------
# quotient models
# ---------------------------------------------------------------------------

SPACES = ("bo", "bso", "bspin", "bspinc")
# the degree of the generator of the Steenrod-module ideal a space kills in
# H*BSO: w_2, and w_3 = Sq^1 w_2 once w_1 = 0
_IDEAL_GENERATOR_DEGREE = {"bspin": 2, "bspinc": 3}


class ModelError(Exception):
    pass


class PrimitiveReport(Frozen):
    __slots__ = (
        "space", "degree", "dimension", "formula", "polynomial", "verified", "kernel_checked"
    )

    def __init__(
        self, space: str, degree: int, dimension: int, formula: str, polynomial: ModPoly,
        verified: bool, kernel_checked: bool,
    ):
        self._store(space, degree, dimension, formula, polynomial, verified, kernel_checked)


class QuotientModel:
    """One of the four coalgebras, realized as F2[allowed w_n] plus a
    reduction map phi killing the excluded generators."""

    def __init__(self, space: str, cap: int = 64):
        if space not in SPACES:
            raise ModelError(f"unknown space {space!r}")
        if cap >= _PACK_LIMIT:
            raise ValueError(f"cap {cap} passes the packed degree limit {_PACK_LIMIT - 1}")
        self.space = space
        self.cap = cap
        gdeg = _IDEAL_GENERATOR_DEGREE.get(space)
        self.ideal_generator: int | None = None if gdeg is None else _gen(gdeg)
        # w_1 is killed as every excluded generator is, by a reduction
        self.reductions: dict[int, ModPoly] = {} if space == "bo" else {1: frozenset()}
        self._phi_cache: dict[int, ModPoly] = {}
        self._candidate_cache: dict[int, Candidate | None] = {}  # see _build_candidate
        self._power_sum_cache: dict[int, ModPoly] = {}  # phi(s_n) by n, see power_sum
        self._mod4_cache: dict[int, tuple[ModPoly, ModPoly]] = {}  # s_n mod 4 by n, see _mod4
        self._two_row_cache: dict[int, ModPoly] = {}  # phi(s_{m,m}) by m, see two_row
        self._delta_cache: dict[int, frozenset[tuple[int, int]]] = {}  # see delta_generator
        self._ideal_basis: list[list[ModPoly]] = []  # by degree, see _ideal_slice
        self._cyclic_basis: list[list[ModPoly]] = []  # by degree, see _cyclic_slice
        if gdeg is not None:
            self.reductions[gdeg] = frozenset()  # the ideal generator itself
            for e in (2**k + 1 for k in range(1, 12) if gdeg < 2**k + 1 <= cap):
                self.reductions[e] = self._find_reduction(e)
        # the induced action's square (see sq); perfbench/tracer.py reads it
        self.ring = _total_square(self._induced_wu, cap)
        self._validate_reductions()
        # phi(w_i) through the cap (the Newton layer runs on these images),
        # and the generators phi kills
        self._w_images = [frozenset()] + [self.phi(frozenset({_gen(i)})) for i in range(1, cap + 1)]
        self.killed = frozenset(i for i in range(1, cap + 1) if not self._w_images[i])

    # -- construction helpers -------------------------------------------------

    def is_allowed(self, i: int) -> bool:
        return i not in self.reductions

    def generator_degrees(self, top: int | None = None) -> list[int]:
        top = self.cap if top is None else top
        return [i for i in range(1, top + 1) if self.is_allowed(i)]

    def _find_reduction(self, e: int) -> ModPoly:
        """The allowed-generator expression of w_e modulo the ideal, for
        e = 2^k + 1 above the ideal generator's degree.

        With p = (e + 1) // 2, every coefficient of Wu's formula for
        Sq^(p-1) w_p is C(t, t) = 1, w_e among its terms, and w_p + rho_p
        lies in the ideal (p is the generator's degree or 2^(k-1) + 1).  So
        Sq^(p-1)(w_p + rho_p), read in H*BSO, is w_e plus a rest of products
        of classes below e, and rho_e is phi of the rest.  That square is the
        top-but-one of a degree-p class: the top-square rule (_top_square)
        reads it monomial by monomial, with no total square built.
        """
        p = (e + 1) // 2
        img = _top_square(self.reductions[p] | {_gen(p)})
        # a missing w_e stays in the rest, and validation refuses it
        return self.phi(img ^ {_gen(e)})

    def phi(self, p: ModPoly) -> ModPoly:
        """The reduction map onto the allowed-generator model."""
        acc: set[int] = set()
        cache = self._phi_cache
        for m in p:
            img = cache.get(m)
            if img is None:
                img = cache[m] = self._phi_mono(m)
            acc ^= img
        return frozenset(acc)

    def _phi_mono(self, m: int) -> ModPoly:
        """phi of one monomial under the reductions known so far.  Past the
        cap the excluded generators are unknown, so w_i with i above the cap
        raises ValueError."""
        if m >> (8 * self.cap):
            i = (m.bit_length() - 1) // 8 + 1
            raise ValueError(f"w_{i} lies above the cap {self.cap} of the model")
        allowed_part = m
        powers = []
        for i, rho in self.reductions.items():
            exp = m >> (8 * (i - 1)) & 255
            if exp:
                if not rho:
                    return frozenset()  # a factor reduces to zero
                allowed_part -= exp << (8 * (i - 1))
                powers.append(poly_pow(rho, exp))
        out: ModPoly = frozenset({allowed_part})
        for power in powers:
            out = poly_mul(out, power)
        return out

    def _induced_wu(self, j: int) -> Iterator[ModPoly]:
        """Packed phi(w_j), phi(Sq^1 w_j), ... through the cap, past which Wu's
        formula names classes the model does not know; at an allowed j, the
        generator column of the action induced on the model, computed as pulled."""
        return (self.phi(_wu_generator(i, j)) for i in range(min(j, self.cap - j) + 1))

    def sq(self, i: int, p: ModPoly) -> ModPoly:
        """Sq^i(phi(p)) under the action Wu's formula induces on the model,
        which on bo and bso is the Wu action on H*BO and H*BSO themselves.
        Squares are computed only through the cap: Sq^i of a degree-d
        monomial with d + i above it raises ValueError."""
        if i < 0:
            raise ValueError("Sq index must be >= 0")
        return frozenset(self.ring.sums(((k, _degree(k)) for k in p), i, i)[0])

    def _validate_reductions(self) -> None:
        """Every reduction must be decomposable (or zero); each chain
        reduction rho_e must be its construction step re-read through the
        bso model's square: w_e a term of Sq^(p-1)(w_p + rho_p), and rho_e
        phi of the rest, or the error names w_e; and the relations must be
        Steenrod-stable through top = min(20, cap): phi(Sq^i g_e) = 0 for
        every g_e = w_e + rho_e but w_1 and every 1 <= i <= top - e, squared
        by one request per relation, or the error names i and w_e.
        _top_square built the steps without the Wu table read here, so a
        wrong entry in either fails.

        Together these certify the ideal I through top.  phi is a
        substitution, so its kernel J is the ring ideal of the g_e, with
        quotient F2[allowed generators].  J is in I: g_e = Sq^(p-1) g_p
        modulo the g_d below e, so g_e lies in I by induction on e.  I is
        in J: J holds the ideal generator, and by Cartan a J stable through
        top is closed under every Sq^i into degrees <= top.  So I = J
        through top, and the quotient dimensions are the allowed partition
        counts, which the tests check against an elimination of the ideal
        slices (_ideal_slice).

        Past top the steps carry stability on through the cap (Quillen,
        Math. Ann. 194, 1971; Stong, Trans. AMS 107, 1963).  Let
        e = 2^(k+1) + 1, p = 2^k + 1, and I_<e be generated by w_1 and the
        g_d below e; then g_e = Sq^(2^k) g_p mod I_<e.  By strong induction
        on e, Cartan takes I_<e into I, and Sq^i g_e lies in I for every
        i <= cap - e:
        - 0 < i < 2^(k+1): by Adem, Sq^i Sq^(2^k) = sum_c C(2^k-c-1, i-2c)
          Sq^(i+2^k-c) Sq^c.  The c = 0 term is zero by instability, or
          g_p^2 when i = 1; for c >= 1, Sq^c g_p lies in I below degree e,
          so in I_<e.
        - i = e - 1: the next chain step, needed only when 2e - 1 <= cap.
        - i = e: g_e^2; past e, zero.
        The base cases are Wu's formula itself: Sq^1 w_1 = w_1^2; Sq^1 w_2 is
        the e = 3 step; Sq^1 w_3 = w_1 w_3; Sq^2 w_3 is the e = 5 step.  A
        wrong entry in the last three fails the steps or the stability check.
        Past top the build takes the Wu entries as given; the tests' oracle,
        which squares every relation by every Sq^i, checks them at caps 40
        and 64.
        """
        for e, rho in self.reductions.items():
            for m in rho:
                # a bare generator is a single bit at the bottom of its field
                if m & (m - 1) == 0 and (m.bit_length() - 1) % 8 == 0:
                    raise ModelError(f"reduction of w_{e} has a generator term")
        for e in sorted(self.reductions)[2:]:  # the chain, past w_1 and the generator
            p, we = (e + 1) // 2, _gen(e)
            step = model("bso", self.cap).sq(p - 1, self.reductions[p] | {_gen(p)})
            if we not in step or self.phi(step - {we}) != self.reductions[e]:
                raise ModelError(
                    f"w_{e} + reduction is not Sq^{p - 1}(w_{p} + reduction) in {self.space}"
                )
        top = min(20, self.cap)
        for e in sorted(self.reductions)[1:]:  # past w_1
            if e < top:
                relation = [(k, _degree(k)) for k in self.reductions[e] | {_gen(e)}]
                squares = model("bso", self.cap).ring.sums(relation, 1, top - e)
                for i, square in enumerate(squares, start=1):
                    if self.phi(square):
                        raise ModelError(
                            f"Sq^{i}(w_{e} + reduction) escapes the kernel in {self.space}"
                        )

    def _cyclic_slice(self, n: int) -> list[ModPoly]:
        """A basis of the degree-n slice of the cyclic module A.g in H*BSO:
        the generator g itself and Sq^(2^k) c for every basis element c of
        degree n - 2^k, since the Sq^(2^k) generate the Steenrod algebra
        (Adem, PNAS 38, 1952); a basis of each degree is kept, as in
        _ideal_slice."""
        g = self.ideal_generator
        assert g is not None
        gdeg = _degree(g)
        ambient = model("bso", self.cap)
        basis_by_deg = self._cyclic_basis
        for d in range(len(basis_by_deg), n + 1):
            span = [frozenset({g})] if d == gdeg else []
            for k in range(max(d - gdeg, 0).bit_length()):
                span += [ambient.sq(1 << k, c) for c in basis_by_deg[d - (1 << k)]]
            basis_by_deg.append(_row_basis(span))
        return basis_by_deg[n]

    def _ideal_slice(self, n: int) -> list[ModPoly]:
        """A basis of the degree-n slice of the Steenrod-module ideal.

        By Cartan it is the ring ideal generated by the cyclic module A.g, so
        degree d is spanned by the cyclic slice and w_(d-m) b for every basis
        element b of a lower degree m (with w_1 = 0 the w_j, j >= 2, generate
        the ring); a basis of each degree is kept, so later calls extend the
        cache from its top.
        """
        g = self.ideal_generator
        assert g is not None
        gdeg = _degree(g)
        basis_by_deg = self._ideal_basis
        for d in range(len(basis_by_deg), n + 1):
            span = list(self._cyclic_slice(d))
            for m in range(gdeg, d - 1):
                wj = _gen(d - m)
                span += [frozenset(wj + mm for mm in b) for b in basis_by_deg[m]]
            basis_by_deg.append(_row_basis(span))
        return basis_by_deg[n]

    def _in_ideal(self, p: ModPoly, n: int) -> bool:
        """Whether the degree-n polynomial p, read in H*BSO (w_1 dropped),
        lies in the ideal."""
        basis = self._ideal_slice(n)
        return len(_row_basis(basis + [model("bso", self.cap).phi(p)])) == len(basis)

    # -- slice enumeration --------------------------------------------------------

    def slice_monomials(self, n: int) -> Iterator[int]:
        """Packed monomials of degree n in the allowed generators."""
        parts = self.generator_degrees(n)

        def rec(remaining: int, idx: int) -> Iterator[int]:
            if remaining == 0:
                yield ONE
                return
            for k in range(idx, len(parts)):
                p = parts[k]
                if p > remaining:
                    break
                wp = _gen(p)
                for rest in rec(remaining - p, k):
                    yield wp + rest

        yield from rec(n, 0)

    # -- coproduct ---------------------------------------------------------------

    def delta_generator(self, j: int) -> frozenset[tuple[int, int]]:
        """(phi x phi) of the full splitting coproduct of w_j, computed once."""
        if j not in self._delta_cache:
            acc: set[tuple[int, int]] = set()
            for a in range(j + 1):
                left = self.phi(frozenset({_gen(a) if a else ONE}))
                right = self.phi(frozenset({_gen(j - a) if j - a else ONE}))
                acc ^= {(lm, rm) for lm in left for rm in right}
            self._delta_cache[j] = frozenset(acc)
        return self._delta_cache[j]

    def delta_monomial(self, mono: int) -> frozenset[tuple[int, int]]:
        """Coproduct of a model basis monomial, in the model basis."""
        fields = mono.to_bytes((mono.bit_length() + 7) // 8, "little")
        powers = (
            power(self.delta_generator(j), e, _PAIR_ONE, _pair_mul, _pair_square)
            for j, e in enumerate(fields, start=1)
            if e
        )
        return reduce(_pair_mul, powers, _PAIR_ONE)

    def delta_reduced(self, p: ModPoly) -> frozenset[tuple[int, int]]:
        """Delta(x) - x (x) 1 - 1 (x) x on a model element."""
        acc: set[tuple[int, int]] = set()
        for m in p:
            acc ^= self.delta_monomial(m)
            acc ^= {(m, ONE), (ONE, m)}  # one pair when m = 1: Delta(1) = 1 (x) 1
        return frozenset(acc)

    # -- the generator indicator and primitive dimensions ---------------------------

    def generator_indicator(self, k: int) -> int:
        """1 iff some primitive of the model has a nonzero w_k component.

        Odd generator degrees always carry one.  An even generator degree k
        carries none exactly when the w_k coordinate functional is the square
        of the w_{k/2} functional in the dual algebra.  When w_{k/2} is itself
        a generator this always holds: the reductions are decomposable, so
        the coefficient of w_{k/2} (x) w_{k/2} in the coproduct comes only
        from raw splittings, which give 1 on w_k, 2 = 0 on w_{k/2}^2 and 0
        on every other basis monomial.  The tests cross-check this
        closed form against the monomial-by-monomial scan of that coefficient.
        """
        if k < 1 or not self.is_allowed(k):
            return 0
        return 1 if k % 2 or not self.is_allowed(k // 2) else 0

    def primitive_dimension(self, n: int) -> int:
        total = 0
        k = n
        while k >= 1:
            total += self.generator_indicator(k)
            if k % 2:
                break
            k //= 2
        return total

    # -- the Newton layer in the model ------------------------------------------

    def power_sum(self, n: int) -> ModPoly:
        """phi(s_n) by the Newton recursion mod 2 on the generator images:
        phi is a ring map, so phi(s_n) = sum_{i<n} phi(w_i) phi(s_{n-i}) +
        n phi(w_n).  Even n are squares by Frobenius.  Past the cap phi(w_n)
        is unknown, so n above the cap raises ValueError."""
        if not 1 <= n <= self.cap:
            raise ValueError(f"s_{n} lies outside the degrees 1..{self.cap} of the model")
        sums = self._power_sum_cache
        images = self._w_images
        for k in range(len(sums) + 1, n + 1):
            if k % 2 == 0:
                sums[k] = poly_square(sums[k // 2])
                continue
            acc = set(images[k])  # k w_k, k odd
            for i in range(1, k):
                for x in images[i]:
                    acc ^= {x + y for y in sums[k - i]}
            sums[k] = frozenset(acc)
        return sums[n]

    def _mod4(self, n: int) -> tuple[ModPoly, ModPoly]:
        """s_n mod 4 as its two bit planes (the monomials whose coefficient
        has bit 0, and bit 1, set), by the Newton recursion
        s_n = sum_{i<n} (-1)^(i-1) w_i s_{n-i} + (-1)^(n-1) n w_n in the ring
        without the generators phi kills."""
        sums = self._mod4_cache
        killed = self.killed
        for k in range(len(sums) + 1, n + 1):
            c = 0 if k in killed else (k if k % 2 else -k) % 4
            lo = {_gen(k)} if c & 1 else set()
            hi = {_gen(k)} if c & 2 else set()
            for i in range(1, k):
                if i in killed:
                    continue
                wi = _gen(i)
                tlo, thi = sums[k - i]
                tlo = {x + wi for x in tlo}
                thi = {x + wi for x in thi}
                if i % 2 == 0:
                    thi ^= tlo  # -c = c + 2c, and 2c mod 4 is bit 0 moved up
                hi ^= thi ^ (lo & tlo)  # the carry out of bit 0
                lo ^= tlo
            sums[k] = frozenset(lo), frozenset(hi)
        return sums[n]

    def two_row(self, m: int) -> ModPoly:
        """phi(s_{m,m}), s_{m,m} = (s_m^2 - s_2m)/2 mod 2 taken in the ring
        without the generators phi kills (the module docstring says why that
        is exact).  Even m are squares by Frobenius; for odd m the
        coefficient (a - b)/2 is read off mod 2 as the module docstring
        derives, and an odd a - b anywhere would be an internal failure of
        the Newton layer.  killed holds generators only through the cap, so
        2m above it raises ValueError."""
        if not 1 <= 2 * m <= self.cap:
            raise ValueError(f"s_{m},{m} lies outside the degrees 1..{self.cap} of the model")
        cache = self._two_row_cache
        if m not in cache:
            if m % 2 == 0:
                cache[m] = poly_square(self.two_row(m // 2))
            else:
                b_odd, b_two = self._mod4(2 * m)
                s_m = self._mod4(m)[0]
                odd = b_odd ^ poly_square(s_m)  # where a - b is odd
                if odd:
                    raise ArithmeticError(f"odd coefficient in s_{m},{m} at {_unpack(min(odd))}")
                out = set(b_two)
                for k1, k2 in combinations(s_m, 2):
                    out ^= {k1 + k2}
                cache[m] = self.phi(frozenset(out))
        return cache[m]

    # -- named candidates -------------------------------------------------------

    def named_candidate(self, n: int) -> tuple[str, ModPoly] | None:
        """The closed-form primitive for degree n, or None in empty degrees."""
        built = self._candidate(n)
        return None if built is None else built[:2]

    def _candidate(self, n: int) -> Candidate | None:
        if n not in self._candidate_cache:
            self._candidate_cache[n] = self._build_candidate(n)
        return self._candidate_cache[n]

    def _square_of(self, n: int) -> Candidate:
        """The square of degree n/2's candidate: primitive by Frobenius when
        its root is, so it carries the root's certificate."""
        name, poly, cert = self._candidate(n // 2)
        return f"({name})^2", poly_square(poly), cert

    def _build_candidate(self, n: int) -> Candidate | None:
        """Degree n's family, named once: the formula, the polynomial and
        the certificate that _certified evaluates."""
        if self.space == "bso":
            if n < 2:
                return None
            if n == 2:
                return "w2", self.phi(frozenset({_gen(2)})), ("coproduct", 2)
            if n % 2:
                return f"s{n}", self.power_sum(n), UPSTREAM
            return self._square_of(n)
        if self.space == "bspin":
            if n % 2:
                if alpha(n) == 2 or n < 7:
                    return None  # degrees 2^s + 1 carry no primitive
                return f"s{n}", self.power_sum(n), UPSTREAM
            if n < 4:
                return None
            if alpha(n) == 1:
                w4_power = self.phi(poly_pow(frozenset({_gen(4)}), n // 4))
                return f"w4^{n // 4}", w4_power, ("coproduct", 4)
            if alpha(n) == 2:
                m = n // (n & -n)
                exp = n // (2 * m)
                return f"(s{m},{m})^{exp}", poly_pow(self.two_row(m), exp), ("two_row", m)
            return self._square_of(n)
        if self.space == "bspinc":
            if n < 2 or (n % 2 and alpha(n) == 2):
                return None  # 2^k + 1
            if alpha(n) >= 3:
                return f"s{n}", self.power_sum(n), UPSTREAM
            if alpha(n) == 2:
                # s_{m,m} with m = 2^c q is (s_{q,q})^(2^c) mod 2
                m = n // 2
                return f"s{m},{m}", self.two_row(m), ("two_row", m // (m & -m))
            w2_power = self.phi(poly_pow(frozenset({_gen(2)}), n // 2))
            return f"w2^{n // 2}", w2_power, ("coproduct", 2)
        # bo: one primitive per degree, the power sum
        if n < 1:
            return None
        return f"s{n}", self.power_sum(n), UPSTREAM

    # -- primitivity certificates ------------------------------------------------

    def _certified(self, cert: Certificate) -> bool:
        """Evaluate the certificate _build_candidate named.

        ("coproduct", g): phi(w_g) has zero reduced coproduct (w2 in bso and
        bspinc, w4 in bspin).  ("two_row", m): s_{m,m} has reduced coproduct
        s_m (x) s_m upstream, so it is primitive in the model exactly when
        phi(s_m) = 0.  ("upstream",): a power sum s_m, not checked here:
        s_m is primitive upstream in H*BO (Milnor and Stasheff,
        Characteristic Classes), and phi is assumed to be a Hopf map onto
        the model.
        """
        if cert[0] == "coproduct":
            return not self.delta_reduced(self.phi(frozenset({_gen(cert[1])})))
        if cert[0] == "two_row":
            return not self.power_sum(cert[1])
        return True

    # -- the report ----------------------------------------------------------------

    def primitives(self, n: int, kernel_limit: int = 0) -> PrimitiveReport:
        """Dimension and named generator for degree n, with verification.

        kernel_limit enables the literal reduced-coproduct kernel cross-check
        for n up to that bound (quadratic-size linear algebra; keep modest).
        """
        if n > self.cap:
            raise ModelError(f"degree {n} exceeds cap {self.cap}")
        dim = self.primitive_dimension(n)
        named = self._candidate(n)
        if named is None:
            verified = dim == 0
            formula, poly = "0", frozenset()
        else:
            formula, poly, cert = named
            verified = dim == 1 and bool(poly) and self._certified(cert)
            if verified and self.generator_indicator(n):
                # a fresh generator-level primitive must actually hit w_n
                verified = _gen(n) in poly
        kernel_checked = False
        if kernel_limit and n <= kernel_limit:
            kernel = self.kernel_primitives(n)
            kernel_checked = True
            if len(kernel) != dim:
                verified = False
            elif dim == 1 and named is not None and kernel[0] != poly:
                verified = False
        return PrimitiveReport(self.space, n, dim, formula, poly, verified, kernel_checked)

    def kernel_primitives(self, n: int) -> list[ModPoly]:
        """Literal kernel of the reduced coproduct on the degree-n slice."""
        basis = list(self.slice_monomials(n))
        index = F2Index()
        rows = [index.bits(self.delta_reduced(frozenset({mono}))) for mono in basis]
        return [
            frozenset(basis[i] for i in range(len(basis)) if (rel >> i) & 1)
            for rel in F2Span(rows).relations
        ]


def _row_basis(span: list[ModPoly]) -> list[ModPoly]:
    """The members of span independent of the members before them."""
    index, basis = F2Index(), F2Basis()
    return [p for p in span if basis.add(index.bits(p))]


@lru_cache(maxsize=None)
def model(space: str, cap: int = 64) -> QuotientModel:
    return QuotientModel(space, cap)


# ---------------------------------------------------------------------------
# power-sum vanishing in the bspin model
# ---------------------------------------------------------------------------


def _rank_one_square(m: int) -> set[int]:
    """The degrees of the total square Sq(x^m) = (x + x^2)^m of a rank-one root."""
    return {m + j for j in range(m + 1) if binom_mod2(m, j)}


def power_sum_vanishing_check(k: int, mdl: QuotientModel | None = None) -> list[Check]:
    """The chain that kills s_(2^k+1) in the bspin model mdl (by default the
    cap-34 model, which holds every degree the checks read for k <= 5), as
    four rows; an s_(2^k+1) past the model's cap raises ValueError before it
    is built.

    (a) the total square of s_(2^k+1), computed on rank-one roots, equals
        s_(2^k+1) + s_(2^k+2) + s_(2^(k+1)+1) + s_(2^(k+1)+2);
    (b) its Sq^(2^k) component alone is s_(2^(k+1)+1);
    (c) s_(2^k+1) reduces to zero in the bspin model;
    (d) s_(2^k+1), upstream (the bso model's), lies in the
        elimination-computed ideal slice.
    """
    m = 2**k + 1
    mdl = model("bspin", 34) if mdl is None else mdl
    if m > mdl.cap:
        raise ValueError(f"s_{m} passes the cap {mdl.cap} of the bspin model")

    got = _rank_one_square(m)
    # the four-term sum, collapsed mod 2 (at k = 0 the middle terms coincide)
    want = {m, m + 1} ^ {2 * m - 1, 2 * m}

    step = m + 2**k  # 2^(k+1) + 1

    def step_failures() -> Iterator[str]:
        if (step in got) != (k > 0):
            yield f"Sq^{2**k} s_{m} {'lacks' if k else 'has'} a degree-{step} term"
        if k == 0 and mdl.power_sum(step):
            # Sq^1(s_2) = C(2,1) s_3 = 0; the step holds in the model
            # because s_3 itself reduces to zero there
            yield f"s_{step} survives in the model: {poly_str(mdl.power_sum(step))}"

    survivors = mdl.power_sum(m)
    upstream = model("bso", mdl.cap).power_sum(m)
    return [
        _eq(f"total-square identity k={k}", sorted(got), sorted(want)),
        first_failure(f"square component step k={k}", step_failures()),
        Check(f"reduces to zero in the quotient k={k}", not survivors, poly_str(survivors)),
        Check(
            f"exact ideal membership k={k}",
            mdl._in_ideal(upstream, m),
            f"s_{m} outside the degree-{m} ideal slice",
        ),
    ]


def s17_naive_substitution(cap: int = 34) -> ModPoly:
    """s_17 with w_2 and every w_(2^k+1) set to zero, keeping the rest, read
    from the bso model of that cap (its s_17 has no w_1; any cap >= 17)."""
    killed = sum(255 * _gen(i) for i in (2, 3, 5, 9, 17))
    return frozenset(m for m in model("bso", cap).power_sum(17) if not m & killed)


# ---------------------------------------------------------------------------
# homology-side indecomposables of the bspinc bordism ring
# ---------------------------------------------------------------------------


class IndecomposableTable(Frozen):
    __slots__ = ("dims", "rule_violations")

    def __init__(self, dims: dict[int, int], rule_violations: tuple[int, ...]):
        self._store(dims, rule_violations)

    @staticmethod
    def rule(n: int) -> int:
        """The closed-form expectation: 0 below 4 and at 2^k +/- 1, else 1."""
        if n < 4:
            return 0
        k = 1
        while 2**k - 1 <= n + 1:
            if n in (2**k - 1, 2**k + 1):
                return 0
            k += 1
        return 1


def spinc_homology_indecomposables(n_max: int) -> IndecomposableTable:
    """Generator bookkeeping for the homology of the bspinc bordism spectrum.

    Generators are x_i^2 for alpha(i) < 3 and x_j for alpha(j) >= 3; the
    subring R is generated by x_1^2, x_3^2 and the x_(2^k - 1) for k >= 3.
    The quotient kills exactly the R-generators, so the indecomposable
    dimension in degree n counts the surviving generator degrees.
    """
    dims: dict[int, int] = {n: 0 for n in range(n_max + 1)}
    r_squares = {1, 3}
    r_odds = {2**k - 1 for k in range(3, n_max.bit_length() + 1)}
    for i in range(1, n_max // 2 + 1):
        if alpha(i) < 3 and 2 * i <= n_max and i not in r_squares:
            dims[2 * i] += 1
    for j in range(1, n_max + 1):
        if alpha(j) >= 3 and j not in r_odds:
            dims[j] += 1
    violations = tuple(n for n in range(n_max + 1) if dims[n] != IndecomposableTable.rule(n))
    return IndecomposableTable(dims, violations)
