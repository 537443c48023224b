"""The steenrod benchmark: verify workloads run through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it needs nothing but the standard
library and the checkout's ``src/``.  Every command runs in a fresh
interpreter (``perfbench/child.py``), one at a time, as users run it.

A run first starts one unmeasured child that compiles the byte code and
reports the package's expected findings, then (untraced) a few children that
only build the CLI parser, so that set-up time has several samples.  Then it
runs rounds.  The first round runs every command of the workload, in an
order shuffled by the seed; later rounds run, longest first, the commands
whose longest time so far still ends within ``--seconds``.  Every
command runs with ``probe.py``'s speed probe beside it, and ``wall_ref_s``
and ``cpu_ref_s`` scale each command's wall and CPU time to the box's full
speed.  End-to-end metrics are per-command medians, summed over the
workload.  With
``--trace 1`` there are two rounds: one untraced, for the overhead, and one
under ``tracer.py``.

Every report goes through ``gate.py``.  The last line of stdout is one JSON
object: ``correct``, ``attempted`` and ``failed`` check rows, and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
that ``BENCHMARK.json`` declares.  A human-readable table goes to stderr, and
one JSON line with provenance and every raw sample is appended to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
from tracer import layer_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 8
CHILD_LIMIT_S = 170  # no child may outlive the run's 180 s limit
# The probe kernel's thread CPU time when the box runs at full speed (2-core
# Xeon VM, Python 3.11.7).  *_ref_s times are raw times scaled by
# PROBE_REF_S over the probe's trimmed mean during the command: what the
# command would take at that speed.
PROBE_REF_S = 0.0013


def verify(suite: str, *extra: str) -> str:
    return " ".join(["verify", "--suite", suite, *extra, "--format", "json"])


# Together the workloads run all twelve suites once.  Only `primitives` is
# below its default cap (64): its cost falls to about 30 s at cap 40.
WORKLOADS = {
    "primitives": [verify("primitives", "--max", "40")],
    "modules": [
        verify(s) for s in ("a1-modules", "e1-modules", "bpsp-model", "hopf", "pairing", "dual-quotients")
    ],
    "transfer": [
        verify(s)
        for s in ("primitive-transfer", "hp2-transfer", "cp2-transfer", "power-sums", "indecomposables")
    ],
}

# Per-layer values combined over a round's commands by maximum, not by sum.
GAUGES = ("f2.F2Matrix.max_rows", "f2.F2Matrix.max_cols", "charclass.cache_entries")


class Runner:
    def __init__(self, tmp: Path, started: float):
        self.tmp = tmp
        self.hard_stop = started + CHILD_LIMIT_S
        self.spawned = 0
        # the inputs are fixed: no STEENROD_CAP_* override reaches the CLI
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("STEENROD_")}
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def spawn(self, command: str | None, trace: bool = False) -> dict:
        """Run one child to its exit; return its timings, outputs and report."""
        self.spawned += 1
        base = self.tmp / str(self.spawned)
        args = [sys.executable, str(HERE / "child.py"), f"{base}.report", "1" if trace else "0"]
        args += command.split() if command else []
        with open(f"{base}.out", "wb") as out, open(f"{base}.err", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.hard_stop - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            report = json.loads(Path(f"{base}.report").read_text())
        except (OSError, ValueError):
            report = {}
        return {
            "command": command,
            "trace": trace,
            "exit": proc.returncode,
            "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "setup_s": report["ready"] - start if "ready" in report else None,
            "probe_s": report.get("probe_s"),
            "probe_n": report.get("probe_n"),
            "stdout": Path(f"{base}.out").read_bytes(),
            "stderr": Path(f"{base}.err").read_text(errors="replace")[-2000:],
            "report": report,
        }


def provenance() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _lines("/proc/cpuinfo") if line.startswith("model name")),
        platform.processor(),
    )
    mem = next((line.split(":", 1)[1].strip() for line in _lines("/proc/meminfo") if line.startswith("MemTotal")), None)
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--", "src"], capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "mem_total": mem,
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty_src": dirty,
    }


def _lines(path: str) -> list[str]:
    try:
        return Path(path).read_text().splitlines()
    except OSError:
        return []


def median_by_command(samples: list[dict], key: str) -> dict[str, float]:
    by: dict[str, list[float]] = {}
    for s in samples:
        by.setdefault(s["command"], []).append(s[key])
    return {c: statistics.median(v) for c, v in by.items()}


def end_to_end(commands: list[str], untraced: list[dict], setups: list[float]) -> dict[str, float]:
    """Per-command medians over rounds, summed (maxed for memory) over the workload."""
    return {
        "wall_ref_s": sum(median_by_command(untraced, "wall_ref_s").values()),
        "cpu_ref_s": sum(median_by_command(untraced, "cpu_ref_s").values()),
        "wall_s": sum(median_by_command(untraced, "wall_s").values()),
        "cpu_s": sum(median_by_command(untraced, "cpu_s").values()),
        "setup_s": len(commands) * statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max(median_by_command(untraced, "peak_rss_mb").values()),
    }


def layer_values(sample: dict) -> dict[str, float]:
    """Per-layer values of one traced command."""
    if "trace" not in sample["report"]:
        return {}
    trace = sample["report"]["trace"]
    out: dict[str, float] = {"cli.import_s": sample["report"]["import_s"]}
    for name, row in layer_times(trace["names"], trace["spans"]).items():
        if name.startswith("verify.suite."):
            out[name + ".s"] = row["total_s"]
            out["verify.suites.s"] = out.get("verify.suites.s", 0) + row["total_s"]
        else:
            out[name + ".self_s"] = row["self_s"]
            out[name + ".calls"] = row["calls"]
    out.update(trace["counts"])
    return out


def per_layer(traced: list[dict], wall_ref_untraced: float) -> dict[str, float]:
    """The traced round's per-layer values, combined over the workload's commands."""
    total: dict[str, float] = {}
    for s in traced:
        for key, value in layer_values(s).items():
            total[key] = max(total.get(key, 0), value) if key in GAUGES else total.get(key, 0) + value
    hits, misses = total.get("algebra.normalize_word.hits", 0), total.get("algebra.normalize_word.misses", 0)
    total["algebra.normalize_word.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    total["trace.overhead_ratio"] = sum(s["wall_ref_s"] for s in traced) / wall_ref_untraced - 1
    return total


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out" / "results.jsonl")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "steenrod" / "cli.py").is_file():
        print(f"error: no steenrod sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = gate.load_reference()

    commands = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    started = time.monotonic()
    load_start = os.getloadavg()
    tmp = HERE / "out" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    deadline = started + args.seconds
    runner = Runner(tmp, started)
    verdict = gate.Verdict()
    order: list[str] = []
    rounds: list[list[dict]] = []
    try:
        warm = runner.spawn(None)
        verdict.add(gate.check_findings(ref["expected_findings"], warm["report"].get("expected_findings", [])))
        setup_runs = [] if args.trace else [runner.spawn(None) for _ in range(SETUP_CHILDREN)]
        longest: dict[str, float] = {}
        while True:
            # Round 0 runs every command.  Later rounds fill the rest of the
            # --seconds, longest command first: it weighs most in the sums.
            traced = bool(args.trace) and bool(rounds)
            samples = []
            shuffled = rng.sample(commands, len(commands))
            if rounds:
                shuffled.sort(key=lambda c: -longest[c])
            for command in shuffled:
                if rounds and not args.trace and time.monotonic() + longest[command] > deadline:
                    continue
                s = runner.spawn(command, trace=traced)
                order.append(("traced " if traced else "") + command)
                verdict.add(gate.check_report(command, s["stdout"], s["exit"], ref))
                if traced and "trace" not in s["report"]:
                    verdict.failed += 1
                    verdict.problems.append(f"{command}: no trace report")
                probed = s["probe_n"] and not s["report"].get("probe_error")
                if not probed:
                    verdict.failed += 1
                    verdict.problems.append(f"{command}: no speed probe readings {s['report'].get('probe_error') or ''}")
                scale = PROBE_REF_S / s["probe_s"] if probed else 1.0
                s["wall_ref_s"] = s["wall_s"] * scale
                s["cpu_ref_s"] = s["cpu_s"] * scale
                longest[command] = max(longest.get(command, 0.0), s["wall_s"])
                samples.append(s)
            if not samples:
                break
            rounds.append(samples)
            # a traced run makes one untraced round, for the overhead, and one traced
            if verdict.failed or (args.trace and len(rounds) == 2):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [s for r in rounds for s in r if not s["trace"]]
    setups = [s["setup_s"] for s in setup_runs + untraced if s["setup_s"] is not None]
    values = end_to_end(commands, untraced, setups)
    wanted = spec["end_to_end"]
    if args.trace:
        traced = rounds[1] if len(rounds) > 1 else []
        values = per_layer(traced, sum(s["wall_ref_s"] for s in rounds[0]))
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance() | {"load_start": load_start, "load_end": os.getloadavg()},
        "run_s": time.monotonic() - started,
        "order": order,
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "error_rate": verdict.error_rate,
        "problems": verdict.problems,
        "metrics": metrics,
        "setup_samples": setups,
        "unscaled": {} if args.trace else {k: values[k] for k in ("wall_s", "cpu_s")},
        "samples": [
            {k: v for k, v in s.items() if k not in ("stdout", "report")}
            | {"round": i, "import_s": s["report"].get("import_s")}
            for i, r in enumerate(rounds)
            for s in r
        ],
    }
    if args.trace:
        record["layers"] = {s["command"]: layer_values(s) for s in traced}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as f:
        f.write(json.dumps(record) + "\n")

    print(f"{args.workload}: {len(rounds)} rounds, seed {args.seed}, {record['run_s']:.1f} s", file=sys.stderr)
    if args.trace:
        print("  largest self times (s), all functions:", file=sys.stderr)
        selfs = sorted(((v, k) for k, v in values.items() if k.endswith(".self_s")), reverse=True)
        for value, name in selfs[:15]:
            print(f"    {name:<56} {value:>14.6g}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for name, value in record["unscaled"].items():
        print(f"  {name + ' (unscaled)':<58} {value:>14.6g} s", file=sys.stderr)
    print(f"  {'error_rate':<58} {verdict.error_rate:>14.6g} ({verdict.failed}/{verdict.attempted} check rows)", file=sys.stderr)
    for problem in verdict.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": verdict.failed == 0, "attempted": verdict.attempted, "failed": verdict.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
