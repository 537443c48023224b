"""Tests of the benchmark itself: the gate must be able to fail, and the
tracer and the speed probe must measure without changing what the program
prints.

    python3 -m unittest perfbench/test_perfbench.py

Fabricated reports stand in for real commands in the gate tests, so they
take milliseconds; one test traces a real sub-second command.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import gate  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from tracer import layer_times  # noqa: E402

COMMAND = "verify --suite indecomposables --format json"
FINDING = ("indecomposables", "closed-form rule at degree 6")


def report(statuses: dict[str, str]) -> tuple[bytes, int]:
    """A verify JSON report for one suite, and the exit code the CLI gives it."""
    checks = [{"id": i, "status": s, "witness": "w" if s != "pass" else ""} for i, s in statuses.items()]
    counts = {k: sum(c["status"] == k for c in checks) for k in ("pass", "fail", "provisional")}
    ok = counts["fail"] == 0
    doc = {"ok": ok, "suites": [{"suite": FINDING[0], "counts": counts, "checks": checks}]}
    return (json.dumps(doc, sort_keys=True) + "\n").encode(), 0 if ok else 1


GOOD = {"degree 3": "pass", "degree 4": "pass", FINDING[1]: "fail"}


def reference(stdout: bytes, rows: int = 3) -> dict:
    return {"expected_findings": {FINDING}, "commands": {COMMAND: {"sha256": gate.digest(stdout), "rows": rows}}}


class GateTest(unittest.TestCase):
    def test_reference_report_passes(self):
        stdout, code = report(GOOD)
        v = gate.check_report(COMMAND, stdout, code, reference(stdout))
        self.assertEqual((v.attempted, v.failed), (3, 0), v.problems)
        self.assertEqual(v.error_rate, 0)

    def test_corrupted_digest_fails_every_row(self):
        stdout, code = report(GOOD)
        ref = reference(stdout)
        ref["commands"][COMMAND]["sha256"] = "0" * 64
        v = gate.check_report(COMMAND, stdout, code, ref)
        self.assertEqual(v.failed, 3)
        self.assertGreater(v.error_rate, 0)

    def test_unexpected_fail_row(self):
        stdout, code = report(GOOD | {"degree 4": "fail"})
        v = gate.check_report(COMMAND, stdout, code, reference(stdout))
        self.assertEqual(v.failed, 1)
        self.assertGreater(v.error_rate, 0)

    def test_new_fail_row_against_the_real_digest(self):
        good, _ = report(GOOD)
        stdout, code = report(GOOD | {"degree 7": "fail"})
        v = gate.check_report(COMMAND, stdout, code, reference(good))
        self.assertGreater(v.error_rate, 0)

    def test_unexpected_provisional_row(self):
        stdout, code = report(GOOD | {"degree 4": "provisional"})
        v = gate.check_report(COMMAND, stdout, code, reference(stdout))
        self.assertGreater(v.error_rate, 0)

    def test_expected_finding_that_passes(self):
        stdout, code = report(GOOD | {FINDING[1]: "pass"})
        v = gate.check_report(COMMAND, stdout, code, reference(stdout))
        self.assertEqual(v.failed, 1)
        self.assertGreater(v.error_rate, 0)

    def test_expected_finding_that_disappears(self):
        stdout, code = report({"degree 3": "pass", "degree 4": "pass"})
        v = gate.check_report(COMMAND, stdout, code, reference(stdout))
        self.assertGreater(v.error_rate, 0)

    def test_wrong_exit_code(self):
        stdout, _ = report(GOOD)
        v = gate.check_report(COMMAND, stdout, 0, reference(stdout))
        self.assertEqual(v.failed, 3)

    def test_crash(self):
        v = gate.check_report(COMMAND, b"", 1, reference(b""))
        self.assertEqual(v.failed, 3)
        v = gate.check_report(COMMAND, b"", -9, reference(b""))
        self.assertEqual(v.failed, 3)

    def test_package_findings_must_match_the_copy(self):
        own = {FINDING, ("a1-modules", "strict eight-fold placement family")}
        self.assertEqual(gate.check_findings(own, [list(f) for f in own]).failed, 0)
        added = [list(f) for f in own] + [["hopf", "Sq1 Sq2 = Sq3"]]
        self.assertGreater(gate.check_findings(own, added).error_rate, 0)
        self.assertGreater(gate.check_findings(own, [list(FINDING)]).error_rate, 0)

    def test_committed_reference_matches_workloads(self):
        ref = gate.load_reference()
        commands = {c for cmds in run.WORKLOADS.values() for c in cmds}
        self.assertEqual(set(ref["commands"]), commands)
        self.assertEqual(len(ref["expected_findings"]), 3)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        names = ["a", "b", "c"]
        # a [0, 10] holds b [1, 4] and c [5, 6]; b holds another c [2, 3]
        spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (2, 5.0, 6.0, 0)]
        t = layer_times(names, spans)
        self.assertEqual(t["a"]["self_s"], 6.0)
        self.assertEqual(t["b"]["self_s"], 2.0)
        self.assertEqual((t["c"]["calls"], t["c"]["self_s"], t["c"]["total_s"]), (2, 2.0, 2.0))

    def test_traced_command_prints_the_reference_output(self):
        command = "verify --suite hopf --format json"
        env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
        with tempfile.TemporaryDirectory() as tmp:
            report_path = Path(tmp) / "report"
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(report_path), "1", *command.split()],
                capture_output=True,
                env=env,
                timeout=120,
            )
            report = json.loads(report_path.read_text())
        verdict = gate.check_report(command, proc.stdout, proc.returncode, gate.load_reference())
        self.assertEqual(verdict.failed, 0, verdict.problems)
        sample = {"command": command, "report": report, "wall_s": 1.0}
        values = run.layer_values(sample)
        self.assertGreater(values["verify.suite.hopf.s"], 0)
        self.assertGreater(values["algebra.normalize_word.calls"], 0)
        self.assertGreater(values["algebra.coproduct_word.calls"], 0)
        self.assertGreater(values["cli.import_s"], 0)

class ProbeTest(unittest.TestCase):
    def test_untraced_command_reports_probe_readings(self):
        command = "verify --suite hopf --format json"
        with tempfile.TemporaryDirectory() as tmp:
            runner = run.Runner(Path(tmp), time.monotonic())
            sample = runner.spawn(command)
        verdict = gate.check_report(command, sample["stdout"], sample["exit"], gate.load_reference())
        self.assertEqual(verdict.failed, 0, verdict.problems)
        self.assertGreaterEqual(sample["probe_n"], 1)
        self.assertIsNone(sample["report"]["probe_error"])
        self.assertGreater(sample["probe_s"], 0)

    def test_kernel_result(self):
        self.assertEqual(probe.kernel(), probe.CHECKSUM)

    def test_trimmed_mean_drops_a_collection_pause(self):
        readings = [0.001] * 9 + [0.05]
        self.assertAlmostEqual(probe.trimmed_mean(readings), 0.001)
        self.assertAlmostEqual(probe.trimmed_mean([0.002]), 0.002)
        self.assertAlmostEqual(probe.trimmed_mean([0.001, 0.002, 0.09]), 0.002)

    def test_probe_reads_until_stopped(self):
        p = probe.Probe()
        p.start()
        time.sleep(3 * probe.PERIOD_S)
        p.stop()
        self.assertGreaterEqual(len(p.readings), 2)
        self.assertIsNone(p.error)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        before = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        self.assertEqual(compare.verdict(before, [v * 1.3 for v in before], 0.25, True)[1], "worse")
        self.assertEqual(compare.verdict(before, [v * 0.8 for v in before], 0.25, True)[1], "better")
        # a median shift past the spread is not a gain unless nine tenths of the pairs win
        after = [v * 0.9 for v in before[:7]] + [v * 1.1 for v in before[7:]]
        self.assertEqual(compare.verdict(before, after, 0.25, True)[1], "unchanged")
        flat = [28.3] * 10
        self.assertEqual(compare.verdict(flat, [28.3] * 5 + [28.29] * 5, 0.05, True)[1], "unchanged")


if __name__ == "__main__":
    unittest.main()
