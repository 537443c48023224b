"""Correctness gate: each `verify --format json` report against reference data.

The reference data (``reference.json``) holds, per workload command, the
SHA-256 digest of its stdout and its number of check rows, both taken from a
known-good commit, plus the benchmark's own copy of the expected findings.
A check row fails when its status is ``fail`` or ``provisional`` and it is not
an expected finding; an expected finding that passes, or goes missing, fails
too.  A command that crashes, exits with the wrong code for its report, or
whose stdout digest differs from the reference fails all its reference rows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as f:
        ref = json.load(f)
    ref["expected_findings"] = {tuple(row) for row in ref["expected_findings"]}
    return ref


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check_findings(own: set, package: list) -> Verdict:
    """The benchmark's copy of the expected findings against the package's."""
    package = {tuple(row) for row in package}
    diff = sorted(own ^ package)
    return Verdict(len(own | package), len(diff), [f"expected findings differ: {d}" for d in diff])


def check_report(command: str, stdout: bytes, exit_code: int, ref: dict) -> Verdict:
    want = ref["commands"][command]
    whole = Verdict(want["rows"], want["rows"])
    if exit_code not in (0, 1):
        whole.problems.append(f"{command}: exit code {exit_code}")
        return whole
    try:
        doc = json.loads(stdout)
        ok = all(c["status"] != "fail" for s in doc["suites"] for c in s["checks"])
    except (ValueError, KeyError, TypeError):
        whole.problems.append(f"{command}: stdout is not a verify report")
        return whole
    if exit_code != (0 if ok else 1) or doc["ok"] != ok:
        whole.problems.append(f"{command}: exit code {exit_code} does not match the report")
        return whole
    if digest(stdout) != want["sha256"]:
        whole.problems.append(f"{command}: stdout digest differs from the reference")
        return whole

    out = Verdict(want["rows"])
    findings = ref["expected_findings"]
    seen = set()
    for suite in doc["suites"]:
        for check in suite["checks"]:
            key = (suite["suite"], check["id"])
            seen.add(key)
            expected = key in findings
            if (check["status"] == "pass") == expected:
                out.failed += 1
                what = "expected finding passes" if expected else f"unexpected {check['status']}"
                out.problems.append(f"{command}: {key}: {what}")
    suites = {s["suite"] for s in doc["suites"]}
    for key in sorted(findings - seen):
        if key[0] in suites:
            out.failed += 1
            out.problems.append(f"{command}: {key}: expected finding missing")
    rows = sum(len(s["checks"]) for s in doc["suites"])
    if rows != want["rows"]:
        out.failed += abs(rows - want["rows"])
        out.problems.append(f"{command}: {rows} check rows, reference has {want['rows']}")
    out.failed = min(out.failed, out.attempted)
    return out
