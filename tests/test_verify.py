"""End-to-end regression for the suite battery and its expected findings."""

import pytest

from steenrod import bundles, verify
from steenrod.action import Check


def test_full_battery_at_reduced_caps_has_exactly_the_expected_findings():
    reports = verify.run_suites(list(verify.SUITES), max_degree=10)
    failures = {
        (r.suite, c.check_id)
        for r in reports
        for c in r.checks
        if c.status == "fail"
    }
    assert failures == verify.EXPECTED_FINDINGS
    # every failing row carries a witness
    for r in reports:
        for c in r.checks:
            if c.status == "fail":
                assert c.witness


def test_suite_names_are_stable():
    assert sorted(verify.SUITES) == [
        "a1-modules",
        "bpsp-model",
        "cp2-transfer",
        "dual-quotients",
        "e1-modules",
        "hopf",
        "hp2-transfer",
        "indecomposables",
        "pairing",
        "power-sums",
        "primitive-transfer",
        "primitives",
    ]


def test_indecomposables_past_degree_2047_report_only_degree_6():
    (report,) = verify.run_suites(["indecomposables"], max_degree=4100)
    failures = [c for c in report.checks if c.status == "fail"]
    assert [c.check_id for c in failures] == ["closed-form rule at degree 6"]
    assert "square of the degree-3 one" in failures[0].witness


def test_a_bundle_check_reaches_the_report_as_it_is(monkeypatch):
    rows = [Check("broken", False, "got 1, want 0"), Check("holds", True, "ignored")]
    monkeypatch.setattr(bundles, "cp2_transfer_report", lambda n_max: rows)
    (report,) = verify.run_suites(["cp2-transfer"])
    assert report.checks == tuple(rows)
    assert [(c.status, c.witness) for c in report.checks] == [
        ("fail", "got 1, want 0"),
        ("pass", ""),
    ]
    assert report.counts == {"pass": 1, "fail": 1, "provisional": 0}
    assert report.ok is False


def test_an_unknown_suite_name_is_a_value_error():
    with pytest.raises(ValueError, match="unknown suite 'hopff'"):
        verify.run_suites(["hopff"])
