"""Compare two sets of benchmark runs, one row per (workload, end-to-end metric).

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds run records as ``run.py --out`` appends them; untraced runs
are read, one value per run.  A row shows each side's median and quartiles
and the change of the median, against the metric's bound in
``BENCHMARK.json``:

    worse       the median got worse by more than the bound
    unresolved  a side's quartile spread is wider than the bound, and not
                every AFTER run is better than every BEFORE run
    better      the median improved by more than BEFORE's quartile spread,
                and AFTER wins at least nine tenths of the pairs (the i-th
                runs of the two files; ties count for neither)
    unchanged   otherwise

Exits 1 if any row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        if not record["correct"]:
            print(f"{path}: skipping a {record['workload']} run that failed the gate", file=sys.stderr)
            continue
        for name, m in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(m["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(before: list[float], after: list[float], bound: float, lower_better: bool) -> tuple[float, str]:
    b1, bm, b3 = quartiles(before)
    a1, am, a3 = quartiles(after)
    sign = 1 if lower_better else -1
    change = sign * (am - bm) / bm  # > 0 is worse
    every_run_better = max(sign * v for v in after) < min(sign * v for v in before)
    if change > bound:
        return change, "worse"
    if max((b3 - b1) / bm, (a3 - a1) / am) > bound and not every_run_better:
        return change, "unresolved"
    # pairs are the i-th runs of the two files, as made alternately
    wins = sum(sign * a < sign * b for b, a in zip(before, after))
    if -change * bm > b3 - b1 and wins >= 0.9 * min(len(before), len(after)):
        return change, "better"
    return change, "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    before, after = load(argv[0]), load(argv[1])
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<11} {'metric':<15} {'before median [q1, q3]':>30} {'after median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    worse = False
    for w in workloads:
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            if key not in before or key not in after:
                print(f"{w:<11} {m['name']:<15} {'(no runs)':>30}")
                continue
            change, word = verdict(before[key], after[key], m["bound"], m["better"] == "lower")
            worse |= word == "worse"
            cells = []
            for vals in (before[key], after[key]):
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(vals)}")
            print(
                f"{w:<11} {m['name'] + ' ' + m['unit']:<15} {cells[0]:>30} {cells[1]:>30}"
                f" {change:>+8.1%} {m['bound']:>6.0%}  {word}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
