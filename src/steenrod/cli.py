"""Command-line front end.

Expression evaluation (`adem`, `mul`, `coprod`, `antipode`, `pair`,
`milnor`, `basis`, `sq`), module-theory queries (`module-type`, `margolis`,
`split-check`), the primitives table (`primitives`), integration along the
fiber (`transfer`), and the verification harness (`verify`).

Output is deterministic for a fixed argument vector: text mode uses the
canonical print orders, JSON mode emits one document with sorted keys.
Exit codes: 0 success, 1 computation or check failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys

from . import verify
from .f2 import F2Error

# committed schema for the JSON report emitted by `verify`
REPORT_SCHEMA = {
    "type": "object",
    "required": ["suites", "ok"],
    "properties": {
        "ok": {"type": "boolean"},
        "suites": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["suite", "checks", "counts"],
                "properties": {
                    "suite": {"type": "string"},
                    "counts": {
                        "type": "object",
                        "required": ["pass", "fail", "provisional"],
                        "properties": {
                            "pass": {"type": "integer"},
                            "fail": {"type": "integer"},
                            "provisional": {"type": "integer"},
                        },
                    },
                    "checks": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["id", "status"],
                            "properties": {
                                "id": {"type": "string"},
                                "status": {"enum": ["pass", "fail", "provisional"]},
                                "witness": {"type": "string"},
                            },
                        },
                    },
                },
            },
        },
    },
}


def _bundles():
    from . import bundles
    return bundles


PRESETS = {
    "bpsp3": lambda: _bundles().bpsp3_presentation(),
    "bsu3": lambda: _bundles().bsu3_presentation(),
    "bu3": lambda: _bundles().bu3_presentation(),
    "cp2-total": lambda: _bundles().cp2_total_presentation(),
    "hp2-total": lambda: _bundles().hp2_total_presentation(),
}


class CliError(Exception):
    pass


ALGEBRAS = {"a1": "A1", "a(1)": "A1", "e1": "E1", "e(1)": "E1"}


def _preset(name: str):
    if name not in PRESETS:
        raise CliError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]()


def _preset_module(args):
    """The preset's module over --algebra on the window [0, --max]."""
    from . import modules
    algebra = ALGEBRAS.get(args.algebra.lower())
    if algebra is None:
        raise CliError(
            f"unknown algebra {args.algebra!r}; choose from a1, A1, A(1), e1, E1, E(1)"
        )
    if args.max < 0:
        raise CliError(f"--max must be >= 0, got {args.max}")
    return modules.from_presentation(_preset(args.preset), algebra, (0, args.max))


def _parse_poly(ring, text: str):
    """A polynomial in the ring; an unparsable expression is a usage error."""
    try:
        return ring.parse(text)
    except F2Error as exc:
        raise CliError(str(exc)) from exc


def cmd_adem(args) -> str:
    from .algebra import parse_element
    return str(parse_element(args.expr))


def cmd_mul(args) -> str:
    from .algebra import parse_element
    return str(parse_element(args.left) * parse_element(args.right))


def cmd_coprod(args) -> str:
    from .algebra import parse_element
    return str(parse_element(args.expr).coproduct())


def cmd_antipode(args) -> str:
    from .algebra import parse_element
    return str(parse_element(args.expr).antipode())


def cmd_pair(args) -> str:
    from . import algebra, dual
    return str(dual.pair(dual.parse_dual(args.dual), algebra.parse_element(args.steenrod)))


def cmd_milnor(args) -> str:
    from . import algebra, dual
    text = args.expr.strip()
    if text.startswith(("SqM", "Q")):
        return str(dual.parse_milnor_operator(text))
    x = algebra.parse_element(text)
    seqs = sorted(dual.admissible_to_milnor(x), key=algebra.word_sort_key)
    if not seqs:
        return "0"
    return " + ".join("SqM(" + ",".join(map(str, s)) + ")" for s in seqs)


def cmd_basis(args) -> str:
    from .algebra import basis
    elts = basis(args.degree)
    if args.format == "json":
        return json.dumps([e.to_json()[0] for e in elts])
    return "\n".join(str(e) for e in elts)


def cmd_sq(args) -> str:
    if args.k < 0:
        raise CliError(f"Sq index must be >= 0, got {args.k}")
    pres = _preset(args.preset)
    poly = _parse_poly(pres.ring, args.expr)
    return str(pres.sq(args.k, poly))


def cmd_module_type(args) -> str:
    from . import modules
    m = _preset_module(args)
    if args.format == "dot":
        return m.to_dot()
    try:
        m.reliable_window()
    except modules.ModuleError as exc:
        raise CliError(f"--max {args.max}: {exc}") from exc
    result = modules.stable_type_solve(m)
    if args.format == "json":
        return json.dumps(
            {
                "status": result.status,
                "pieces": [list(p) for p in (result.solutions[0] if result.solutions else [])],
                "note": result.note,
            },
            sort_keys=True,
        )
    if result.status != "unique":
        return f"{result.status}: {result.note or result.solutions}"
    return " + ".join(f"{name}@{susp}" for name, susp in result.pieces) or "0"


def cmd_margolis(args) -> str:
    m = _preset_module(args)
    table = m.margolis_homology(args.op)
    rows = []
    for d in range(m.dmin, m.dmax + 1):
        dim, reliable = table[d]
        rows.append((d, dim, "ok" if reliable else "provisional"))
    if args.format == "json":
        return json.dumps([{"degree": d, "dim": v, "status": s} for d, v, s in rows])
    return "\n".join(f"{d}\t{v}\t{s}" for d, v, s in rows)


def cmd_split_check(args) -> str:
    from . import modules
    cert = modules.check_split_criterion(modules.split_case(args.case))
    doc = {
        "hypotheses_met": cert.hypotheses_met,
        "f_injective": cert.f_injective,
        "q0_margolis_injective": cert.q0_margolis_injective,
        "split_guaranteed": cert.split_guaranteed,
        "witness_degree": cert.witness_degree,
    }
    return json.dumps(doc, sort_keys=True)


def cmd_primitives(args) -> str:
    if args.max < 0:
        raise CliError(f"--max must be >= 0, got {args.max}")
    if args.kernel_limit < 0:
        raise CliError(f"--kernel-limit must be >= 0, got {args.kernel_limit}")
    from . import charclass
    mdl = charclass.model(args.space, args.max)
    rows = []
    for n in range(2, args.max + 1):
        r = mdl.primitives(n, kernel_limit=args.kernel_limit)
        rows.append(r)
    if args.format == "json":
        return json.dumps(
            [
                {
                    "degree": r.degree,
                    "dimension": r.dimension,
                    "formula": r.formula,
                    "polynomial": charclass.poly_str(r.polynomial),
                    "verified": r.verified,
                }
                for r in rows
            ],
            sort_keys=True,
        )
    lines = []
    for r in rows:
        mark = "ok" if r.verified else "FAIL"
        if args.format == "tsv":
            lines.append(f"{r.degree}\t{r.dimension}\t{r.formula}\t{mark}")
        else:
            lines.append(f"degree {r.degree}: dim {r.dimension}  {r.formula}  [{mark}]")
    return "\n".join(lines)


def cmd_transfer(args) -> str:
    b = _bundles().bundle(args.bundle)
    poly = _parse_poly(b.total.ring, args.expr)
    if poly.degree() > b.cap:
        raise CliError(f"degree {poly.degree()} exceeds the {args.bundle} bundle's cap {b.cap}")
    result = b.fiber_integrate(poly)
    if args.json:
        return json.dumps(
            {"bundle": args.bundle, "input": args.expr, "integral": str(result)},
            sort_keys=True,
        )
    return str(result)


def cmd_verify(args) -> tuple[str, int]:
    names = args.suite or list(verify.SUITES)
    if names == ["all"]:
        names = list(verify.SUITES)
    reports = verify.run_suites(names, args.max)
    ok = all(r.ok for r in reports)
    if args.format == "json":
        doc = {
            "ok": ok,
            "suites": [
                {
                    "suite": r.suite,
                    "counts": r.counts,
                    "checks": [
                        {"id": c.check_id, "status": c.status, "witness": c.witness}
                        for c in r.checks
                    ],
                }
                for r in reports
            ],
        }
        return json.dumps(doc, sort_keys=True), 0 if ok else 1
    lines = []
    for r in reports:
        counts = r.counts
        lines.append(
            f"== {r.suite}: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['provisional']} provisional"
        )
        for c in r.checks:
            line = f"  [{'PASS' if c.ok else 'FAIL'}] {c.check_id}"
            if c.witness:
                line += f"  ({c.witness})"
            lines.append(line)
    return "\n".join(lines), 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="steenrod",
        description="mod-2 Steenrod algebra calculator and verification harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("adem", help="normalize a word to the admissible basis")
    sp.add_argument("expr")
    sp.set_defaults(fn=cmd_adem)

    sp = sub.add_parser("mul", help="multiply two elements")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(fn=cmd_mul)

    sp = sub.add_parser("coprod", help="coproduct of an element")
    sp.add_argument("expr")
    sp.set_defaults(fn=cmd_coprod)

    sp = sub.add_parser("antipode", help="conjugation of an element")
    sp.add_argument("expr")
    sp.set_defaults(fn=cmd_antipode)

    sp = sub.add_parser("pair", help="pair a dual element against an element")
    sp.add_argument("dual")
    sp.add_argument("steenrod")
    sp.set_defaults(fn=cmd_pair)

    sp = sub.add_parser("milnor", help="convert between admissible and Milnor bases")
    sp.add_argument("expr")
    sp.set_defaults(fn=cmd_milnor)

    sp = sub.add_parser("basis", help="admissible basis of a degree")
    sp.add_argument("degree", type=int)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_basis)

    sp = sub.add_parser("sq", help="apply Sq^k in a preset ring")
    sp.add_argument("k", type=int)
    sp.add_argument("expr")
    sp.add_argument("--preset", default="bpsp3")
    sp.set_defaults(fn=cmd_sq)

    sp = sub.add_parser("module-type", help="stable type of a preset module")
    sp.add_argument("--preset", default="bsu3")
    sp.add_argument("--algebra", default="e1")
    sp.add_argument("--max", type=int, default=40)
    sp.add_argument("--format", choices=("text", "json", "dot"), default="text")
    sp.set_defaults(fn=cmd_module_type)

    sp = sub.add_parser("margolis", help="margolis homology of a preset module")
    sp.add_argument("--preset", default="bsu3")
    sp.add_argument("--algebra", default="e1")
    sp.add_argument("--op", choices=("q0", "q1"), default="q0")
    sp.add_argument("--max", type=int, default=40)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_margolis)

    sp = sub.add_parser("split-check", help="run a built-in split-criterion case")
    sp.add_argument("--case", choices=("identity", "joker", "zero"), default="identity")
    sp.set_defaults(fn=cmd_split_check)

    sp = sub.add_parser("primitives", help="primitive table of a classifying space")
    # charclass.SPACES, written out so that building the parser loads no charclass
    sp.add_argument("--space", choices=("bo", "bso", "bspin", "bspinc"), default="bspinc")
    sp.add_argument("--max", type=int, default=64)
    sp.add_argument("--kernel-limit", type=int, default=0)
    sp.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    sp.set_defaults(fn=cmd_primitives)

    sp = sub.add_parser("transfer", help="integrate along the fiber of a preset bundle")
    sp.add_argument("--bundle", choices=("cp2", "hp2"), default="cp2")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_transfer)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", action="append", choices=sorted(verify.SUITES) + ["all"])
    sp.add_argument("--max", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    # at exit, freeze the heap so finalization runs no full cyclic collection
    # over it; unregistered first, so repeated calls keep one hook
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.fn(args)
    except (ValueError, CliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, tuple):
        text, code = result
        print(text)
        return code
    print(result)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
