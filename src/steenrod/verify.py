"""Named verification suites: each re-derives one family of computations.

A suite returns a list of action.Check rows, each of which passes or fails;
a failing row carries a witness.  A row that searches for a counterexample
yields its witnesses to action.first_failure, so a failing row names the
first counterexample its search meets and nothing past it is computed.
No suite emits a third status: the report counts keep a `provisional`
entry fixed at 0 only because the JSON schema requires the key and the
byte-stable text line ends in `0 provisional` (truncation fringes are
flagged by the module commands, not by a suite).
Suites are pure and deterministic, so reports are byte-stable for a fixed
cap.  A suite listed in MIN_CAPS decides its rows only from that cap on, and
run_suites refuses a smaller one before any suite runs.  Each suite imports
the modules it runs, so a command that runs one suite loads no other
suite's modules.  The default caps are chosen so the
whole battery completes in seconds to a few minutes on commodity hardware:
Hopf-axiom suites stop at degree 12, module and series suites at 40, the
primitives table at 64 and the primitive-transfer sweep at 32.

Three rows are expected to fail by design and carry witnesses; they are
listed in EXPECTED_FINDINGS.  Two stem from the same degree-6 edge case:
the degree-6 indecomposable generator (the square of the degree-3 class)
lies in the comparison subring, so the closed-form rule misses it, and the
corresponding degree-6 primitive dies on both transfer legs.  The third is
the strict eight-fold placement family for the quaternionic base ring,
whose Margolis series the computed module demonstrably does not match
(pieces of the same four types at other suspensions do cover it).
"""

from __future__ import annotations

from .action import Check, _eq, first_failure
from .f2 import Frozen


class SuiteReport(Frozen):
    __slots__ = ("suite", "checks")

    def __init__(self, suite: str, checks: tuple[Check, ...]):
        self._store(suite, checks)

    @property
    def counts(self) -> dict[str, int]:
        fail = sum(not c.ok for c in self.checks)
        return {"pass": len(self.checks) - fail, "fail": fail, "provisional": 0}

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_hopf(max_degree: int = 12) -> list[Check]:
    from . import algebra, dual
    from .algebra import SteenrodElement, admissible_basis
    Sq = SteenrodElement.sq
    words = [w for d in range(max_degree + 1) for w in admissible_basis(d)]

    def coassociativity_failures():
        for w in words:
            x = SteenrodElement.from_words([w])
            delta = x.coproduct()
            left, right = set(), set()
            for (a, b) in delta.pairs:
                left ^= {(a1, a2, b) for a1, a2 in algebra.coproduct_word(a)}
                right ^= {(a, b1, b2) for b1, b2 in algebra.coproduct_word(b)}
            if left != right:
                yield str(x)

    def algebra_map_failures():
        pool = [w for d in range(max_degree // 2 + 1) for w in admissible_basis(d)]
        for a in pool:
            for b in pool:
                if sum(a) + sum(b) <= max_degree:
                    ea, eb = SteenrodElement.from_words([a]), SteenrodElement.from_words([b])
                    if (ea * eb).coproduct() != ea.coproduct() * eb.coproduct():
                        yield f"{ea} (x) {eb}"

    def antipode_failures():
        # mu (1 x chi) Delta = unit counit.  _antipode_word solves the
        # left-sided axiom over the same coproduct, so that side holds for
        # any coproduct; this side fails on a wrong one
        for w in words:
            x = SteenrodElement.from_words([w])
            folded = x.coproduct().apply_right(
                lambda a: SteenrodElement.from_words([a]).antipode()
            ).multiply_out()
            want = SteenrodElement.one() if not w else SteenrodElement.zero()
            if folded != want:
                yield str(x)

    elements = (SteenrodElement.from_words([w]) for w in words)
    through = f"through degree {max_degree}"
    return [
        _eq("Sq1 Sq2 = Sq3", Sq(1, 2), Sq(3)),
        _eq("Sq2 Sq2 = Sq3 Sq1", Sq(2, 2), Sq(3, 1)),
        _eq("Sq2 Sq1 Sq2 = Sq4 Sq1 + Sq5", Sq(2, 1, 2), Sq(4, 1) + Sq(5)),
        _eq("Sq2 Sq2 Sq2 = Sq5 Sq1", Sq(2, 2, 2), Sq(5, 1)),
        _eq("chi(Sq3) = Sq2 Sq1", Sq(3).antipode(), Sq(2, 1)),
        _eq(
            "A(1) basis has eight elements",
            len(dual.basis_of(dual.SubHopfAlgebra("A", 1))),
            8,
        ),
        first_failure(f"coassociativity {through}", coassociativity_failures()),
        first_failure(f"coproduct is an algebra map {through}", algebra_map_failures()),
        first_failure(f"antipode axiom {through}", antipode_failures()),
        first_failure(
            f"antipode is an involution {through}",
            (str(x) for x in elements if x.antipode().antipode() != x),
        ),
    ]


def suite_pairing(max_degree: int = 12) -> list[Check]:
    from . import dual
    from .algebra import SteenrodElement, admissible_basis
    Sq = SteenrodElement.sq
    xi = dual.DualElement.xi
    q = dual.milnor_primitive

    def conjugate_failures():
        for n in range(1, 7):
            acc = dual.DualElement.zero()
            for i in range(n + 1):
                acc = acc + (xi(i) ** (1 << (n - i))) * dual.zeta(n - i)
            if not acc.is_zero():
                yield f"n={n}"

    def unitriangular_failures():
        for n in range(max_degree + 1):
            monos, words, matrix = dual.pairing_matrix(n)
            if matrix.rank() != len(words):
                yield f"degree {n} not invertible"
            for i in range(len(monos)):
                if matrix.entry(i, i) != 1 or any(matrix.entry(i, j) for j in range(i)):
                    yield f"degree {n} not unitriangular"

    def count_failures():
        for n in range(21):
            if len(dual.xi_monomials(n)) != len(admissible_basis(n)):
                yield f"degree {n}"

    def round_trip_failures():
        for n in range(13):
            for w in admissible_basis(n):
                x = SteenrodElement.from_words([w])
                back = SteenrodElement.zero()
                for seq in dual.admissible_to_milnor(x):
                    back = back + dual.milnor_to_admissible(seq)
                if back != x:
                    yield str(x)

    want = dual.DualTensor(frozenset({((0, 1), ()), ((2,), (1,)), ((), (0, 1))}))
    return [
        _eq("coproduct of xi_2", dual.dual_coproduct(xi(2)), want),
        first_failure("conjugate recursion identity n <= 6", conjugate_failures()),
        first_failure(
            f"pairing matrices unitriangular through degree {max_degree}", unitriangular_failures()
        ),
        first_failure("basis counts agree through degree 20", count_failures()),
        _eq("Sq(0,1) = Sq3 + Sq2 Sq1", dual.milnor_to_admissible((0, 1)), Sq(3) + Sq(2, 1)),
        first_failure(
            "milnor primitives square to zero",
            (f"Q{i}" for i in range(3) if not (q(i) * q(i)).is_zero()),
        ),
        first_failure(
            "milnor primitives commute",
            (
                f"Q{i} Q{j}"
                for i in range(3)
                for j in range(i + 1, 3)
                if not (q(i) * q(j) + q(j) * q(i)).is_zero()
            ),
        ),
        first_failure("basis conversion round-trip through degree 12", round_trip_failures()),
    ]


def suite_dual_quotients(max_degree: int = 16) -> list[Check]:
    from . import dual
    checks = []
    xi = dual.DualElement.xi
    expectations = {
        "A(0)": [xi(1) ** 2, xi(2), xi(3)],
        "A(1)": [xi(1) ** 4, xi(2) ** 2, xi(3), xi(4)],
        "E(1)": [xi(1) ** 2, xi(2) ** 2, xi(3), xi(4)],
    }
    algebras = {
        "A(0)": dual.SubHopfAlgebra("A", 0),
        "A(1)": dual.SubHopfAlgebra("A", 1),
        "E(1)": dual.SubHopfAlgebra("E", 1),
    }
    for name, h in algebras.items():
        gens = dual.dual_quotient_generators(h, 15)
        checks.append(
            _eq(f"{name}: quotient generators", gens[: len(expectations[name])], expectations[name])
        )
        gen_monos = [next(iter(g.monomials)) for g in gens]
        degrees = [dual.xi_degree(m) for m in gen_monos]

        def products(i, acc, deg):
            yield acc
            for j in range(i, len(gen_monos)):
                if deg + degrees[j] <= max_degree:
                    yield from products(
                        j,
                        acc * dual.DualElement(frozenset({gen_monos[j]})),
                        deg + degrees[j],
                    )

        members = products(0, dual.DualElement.one(), 0)
        checks.append(
            first_failure(
                f"{name}: generator products lie in the cotensor through degree {max_degree}",
                (str(p) for p in members if not dual.verify_cotensor_member(p, h)),
            )
        )
    return checks


def suite_bpsp_model(max_degree: int = 24) -> list[Check]:
    from . import action, bundles
    checks = bundles.restriction_model_report()
    report = action.check_presentation(bundles.bpsp3_presentation(), max_degree, adem_max=4)
    checks.append(Check(f"derived ring consistent through degree {max_degree}", report.ok, report.witness))
    return checks


def suite_cp2_transfer(max_degree: int = 10) -> list[Check]:
    from . import bundles
    return bundles.cp2_transfer_report(max_degree)


def suite_hp2_transfer(max_degree: int = 4) -> list[Check]:
    from . import bundles
    return bundles.hp2_transfer_report(3, min(max_degree, 4), samples=200)


def suite_a1_modules(max_degree: int = 40) -> list[Check]:
    from . import bundles, modules
    from .f2 import WeightedPolyRing, geometric_series_product
    ring = WeightedPolyRing.make(("t2", 2), ("t3", 3), ("t8", 8), ("t12", 12))
    series = geometric_series_product([2, 3, 8, 12], 60)
    counts = [len(ring.monomials_of_degree(d)) for d in range(61)]
    misses = (f"degree {d}: series {series[d]}, {n} monomials"
              for d, n in enumerate(counts) if series[d] != n)
    checks = [first_failure("dimension series of the t-ring through degree 60", misses)]

    expectations = {
        "A1": (("E1", 0), ("E1", 2)),
        "I": (("E1", 2), ("L", 0)),
        "J": (("E1", 0), ("Z2", 2)),
        "K": (("L", -1),),
    }
    for name, want in expectations.items():
        r = modules.stable_type_solve(modules.restrict_to_e1(modules.standard_piece("A1", name)))
        ok = r.status == "unique" and r.pieces == want and r.iso is not None
        checks.append(Check(f"restriction of {name}", ok, f"{r.status}: {r.solutions[:2]}"))

    cert = modules.check_split_criterion(modules.split_case("identity"))
    checks.append(Check("identity map certified split", cert.split_guaranteed, str(cert)))

    cert = modules.check_split_criterion(modules.split_case("joker"))
    checks.append(
        Check(
            "suspended joker inclusion rejected at the margolis stage",
            cert.f_injective and not cert.q0_margolis_injective and cert.witness_degree == 4,
            str(cert),
        )
    )

    cert = modules.check_split_criterion(modules.split_case("zero"))
    checks.append(Check("zero map rejected", not cert.f_injective, str(cert)))

    # copies of A(1), Z2, I, J and K at unrestricted suspensions, counting level
    m = modules.from_presentation(bundles.bpsp3_presentation(), "A1", (0, max_degree))
    r = modules.stable_type_solve(m, build_iso=False, max_solutions=2)
    checks.append(
        Check(
            f"four piece types plus free cover [0, {max_degree}]",
            r.status in ("unique", "ambiguous"),
            f"{r.status}: {r.note}",
        )
    )
    # The strict placement family (trivial pieces only at 8i, the ideal at
    # 8i-1, the jokers and K only at 8i+4) cannot reproduce the computed
    # Margolis series: the degree-4 class already needs a joker at
    # suspension 2.  Reported as a finding.
    res = modules.eight_fold_feasibility(m)
    checks.append(Check("strict eight-fold placement family", res.feasible, res.note))
    return checks


def suite_e1_modules(max_degree: int = 40) -> list[Check]:
    from . import bundles, modules
    from .f2 import WeightedPolyRing, series_of_ring
    base86 = series_of_ring(WeightedPolyRing.make(("a", 8), ("b", 6)), 60)
    base8 = series_of_ring(WeightedPolyRing.make(("a", 8)), 60)
    ring46 = series_of_ring(WeightedPolyRing.make(("y4", 4), ("y6", 6)), 60)

    def bookkeeping_failures():
        for d in range(61):
            two_cell = (base86[d - 4] if d >= 4 else 0) + (base86[d - 6] if d >= 6 else 0)
            if ring46[d] != base8[d] + two_cell:
                yield f"degree {d}"

    checks = [
        first_failure("bookkeeping decomposition series through degree 60", bookkeeping_failures())
    ]

    m = modules.from_presentation(bundles.bsu3_presentation(), "E1", (0, max_degree))
    r = modules.stable_type_solve(m)
    want = []
    for d in range(0, m.reliable_max() + 1):
        want.extend([("Z2", d)] * m.dim(d))
    ok = r.status == "unique" and r.pieces == tuple(sorted(want)) and r.iso is not None
    checks.append(
        Check(
            f"evenly graded ring splits into trivial pieces on [0, {max_degree}]",
            ok,
            r.status,
        )
    )
    nonzero = (f"{op} at degree {d}" for op in ("q0", "q1")
               for d in range(0, m.reliable_max()) if any(m.op_matrix(op, d).rows))
    checks.append(first_failure("both differentials vanish identically", nonzero))
    return checks


def suite_primitives(max_degree: int = 64, kernel_limit: int = 12) -> list[Check]:
    from . import charclass
    checks = []
    for space in ("bso", "bspin", "bspinc"):
        mdl = charclass.model(space, max(max_degree, 34))
        rows = (mdl.primitives(n, kernel_limit=kernel_limit) for n in range(2, max_degree + 1))
        checks.append(
            first_failure(
                f"{space}: table verified through degree {max_degree}",
                (f"degree {r.degree}: dim {r.dimension}, {r.formula}" for r in rows if not r.verified),
            )
        )
    spin = charclass.model("bspin", max(max_degree, 34))
    checks.append(
        _eq(
            "s17 under naive substitution",
            charclass.poly_str(charclass.s17_naive_substitution(spin.cap)),
            "w7*w10 + w6*w11 + w4*w13",
        )
    )
    for k in range(4):
        rows = charclass.power_sum_vanishing_check(k, spin)
        failures = (f"{c.check_id}: {c.witness}" for c in rows if not c.ok)
        checks.append(first_failure(f"power-sum vanishing chain k={k}", failures))
    return checks


def suite_power_sums(max_degree: int = 3) -> list[Check]:
    from . import charclass
    checks = []
    # max_degree bounds the exponent k of the family s_(2^k + 1), clamped to
    # k <= 4: s_17 is the largest member the suite reports, well inside the
    # cap-34 bspin model the check reads
    for k in range(min(max_degree, 4) + 1):
        checks += charclass.power_sum_vanishing_check(k)
    return checks


def suite_indecomposables(max_degree: int = 32) -> list[Check]:
    from . import charclass
    table = charclass.spinc_homology_indecomposables(max_degree)
    checks = [
        _eq("degree 3", table.dims[3], 0),
        _eq("degree 4", table.dims[4], 1),
        _eq("degree 7", table.dims[7], 0),
    ]
    # The closed-form rule misses degree 6: the square of the degree-3
    # generator lies in the comparison subring.  Reported as a finding.
    for n in table.rule_violations:
        why = (
            " (the degree-6 generator is the square of the degree-3 one"
            " and lies in the comparison subring)"
            if n == 6
            else ""
        )
        checks.append(
            Check(
                f"closed-form rule at degree {n}",
                False,
                f"table has {table.dims[n]}, rule predicts {table.rule(n)}{why}",
            )
        )
    ok = set(table.rule_violations) <= {6}
    checks.append(Check("rule discrepancies limited to degree 6", ok, str(table.rule_violations)))
    return checks


def suite_primitive_transfer(max_degree: int = 32) -> list[Check]:
    from . import bundles
    return [
        Check(
            f"degree {r.degree} ({r.formula})",
            r.detected,
            f"both legs vanish: cp2 leg {r.cp2_value}, hp2 leg {r.hp2_value}"
            " (the transfer drops 4 and 8 degrees; degree 6 cannot be seen)",
        )
        for r in bundles.primitive_transfer_check(max_degree)
    ]


SUITES = {
    "hopf": (suite_hopf, 12),
    "pairing": (suite_pairing, 12),
    "dual-quotients": (suite_dual_quotients, 16),
    "bpsp-model": (suite_bpsp_model, 24),
    "cp2-transfer": (suite_cp2_transfer, 10),
    "hp2-transfer": (suite_hp2_transfer, 4),
    "a1-modules": (suite_a1_modules, 40),
    "e1-modules": (suite_e1_modules, 40),
    "primitives": (suite_primitives, 64),
    "power-sums": (suite_power_sums, 3),
    "indecomposables": (suite_indecomposables, 32),
    "primitive-transfer": (suite_primitive_transfer, 32),
}

EXPECTED_FINDINGS = {
    ("indecomposables", "closed-form rule at degree 6"),
    ("primitive-transfer", "degree 6 (s3,3)"),
    ("a1-modules", "strict eight-fold placement family"),
}


# the smallest cap at which a suite decides each of its rows; below it a
# window cannot hold a row's witness, and run_suites refuses the cap
MIN_CAPS = {
    "indecomposables": 7,  # the rows read degrees 3, 4 and 7
    "a1-modules": 7,  # the strict placement finding's degree-4 witness, below the 3-degree fringe
    "e1-modules": 3,  # a smaller window has no degree below the fringe
    "primitive-transfer": 6,  # the degree-6 finding
}


def run_suites(names: list[str], max_degree: int | None = None) -> list[SuiteReport]:
    """Run suites in name order; caps come from the argument, else the
    documented default.  Every cap is checked against MIN_CAPS before any
    suite runs."""
    runs = []
    for name in sorted(names):
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        cap = SUITES[name][1] if max_degree is None else max_degree
        if cap < 0:
            raise ValueError(f"cap for suite {name!r} must be >= 0, got {cap}")
        least = MIN_CAPS.get(name, 0)
        if cap < least:
            raise ValueError(f"suite {name!r} needs a cap of at least {least}, got {cap}")
        runs.append((name, cap))
    return [SuiteReport(name, tuple(SUITES[name][0](cap))) for name, cap in runs]
