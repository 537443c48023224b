import argparse
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest

import steenrod
from steenrod import verify
from steenrod.cli import REPORT_SCHEMA, build_parser, main

# stdout digests of the verify reports, recorded with the benchmark
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
SRC = str(Path(steenrod.__file__).resolve().parents[1])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestExpressions:
    def test_adem(self):
        code, out, _ = run(["adem", "Sq[1,2]"])
        assert code == 0 and out.strip() == "Sq[3]"

    def test_adem_of_garbage_exits_2(self):
        code, _, err = run(["adem", ""])
        assert code == 2 and "error" in err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_mul_and_antipode(self):
        assert run(["mul", "Sq[2]", "Sq[2]"])[1].strip() == "Sq[3,1]"
        assert run(["antipode", "Sq[3]"])[1].strip() == "Sq[2,1]"

    def test_pair(self):
        code, out, _ = run(["pair", "xi[0,1]", "Sq[2,1]"])
        assert code == 0 and out.strip() == "1"

    def test_milnor_both_directions(self):
        assert run(["milnor", "Q1"])[1].strip() == "Sq[3] + Sq[2,1]"
        assert run(["milnor", "Sq[3]"])[1].strip() == "SqM(3)"

    def test_basis(self):
        code, out, _ = run(["basis", "3"])
        assert out.strip().splitlines() == ["Sq[3]", "Sq[2,1]"]
        code, out, _ = run(["basis", "3", "--format", "json"])
        assert json.loads(out) == [[3], [2, 1]]

    def test_sq_preset(self):
        code, out, _ = run(["sq", "2", "t12", "--preset", "bpsp3"])
        assert code == 0 and out.strip() == "t2*t12"

    def test_transfer(self):
        code, out, _ = run(["transfer", "--bundle", "cp2", "--expr", "x4^2"])
        assert code == 0 and out.strip() == "y4"

    def test_transfer_past_the_cap_exits_2(self):
        code, out, err = run(["transfer", "--bundle", "cp2", "--expr", "x2^40"])
        assert code == 2 and out == ""
        assert err == "error: degree 80 exceeds the cp2 bundle's cap 72\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["transfer", "--bundle", "cp2", "--expr", "x4^"],
            ["transfer", "--bundle", "hp2", "--expr", "u4 + zz"],
            ["sq", "--preset", "bsu3", "2", "y4^"],
            ["sq", "--preset", "bsu3", "2", "zz"],
            ["sq", "--preset", "cp2-total", "0", "x2^3000000000"],
        ],
        ids=["transfer-syntax", "transfer-generator", "sq-syntax", "sq-generator", "sq-exponent-limit"],
    )
    def test_unparsable_expression_exits_2(self, argv):
        code, out, err = run(argv)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert "Traceback" not in err


class TestModuleCommands:
    def test_module_type(self):
        code, out, _ = run(
            ["module-type", "--preset", "bsu3", "--algebra", "e1", "--max", "20", "--format", "json"]
        )
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "unique"
        assert ["Z2", 0] in doc["pieces"]

    def test_margolis_flags_fringe(self):
        code, out, _ = run(
            ["margolis", "--preset", "bsu3", "--op", "q1", "--max", "12", "--format", "json"]
        )
        rows = json.loads(out)
        assert any(r["status"] == "provisional" for r in rows)
        assert all(r["status"] == "ok" for r in rows if r["degree"] <= 9)

    @pytest.mark.parametrize("command", ["margolis", "module-type"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--algebra", "foo"], "choose from a1, A1, A(1), e1, E1, E(1)"),
            (["--max", "-4"], "must be >= 0"),
        ],
        ids=["algebra", "max"],
    )
    def test_bad_algebra_or_window_exits_2(self, command, flags, message):
        code, out, err = run([command, *flags])
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("top", ["0", "1", "2"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_module_type_refuses_a_window_with_no_reliable_degree(self, top, fmt):
        # the top 3 degrees of a window are provisional, so [0, 2] has none
        code, out, err = run(["module-type", "--max", top, "--format", fmt])
        assert code == 2 and out == ""
        assert err == f"error: --max {top}: window too small to say anything reliable\n"

    @pytest.mark.parametrize("top", ["0", "1", "2"])
    def test_commands_that_solve_nothing_accept_a_window_with_no_reliable_degree(self, top):
        for argv in (["module-type", "--format", "dot"], ["margolis"], ["margolis", "--op", "q1"]):
            code, out, err = run([*argv, "--max", top, "--algebra", "a1", "--preset", "bpsp3"])
            assert code == 0 and out and err == "", argv
        code, out, _ = run(["margolis", "--max", top, "--format", "json"])
        assert code == 0 and {r["status"] for r in json.loads(out)} == {"provisional"}

    def test_algebra_spellings_agree(self):
        for spellings in (("a1", "A1", "A(1)"), ("e1", "E1", "E(1)")):
            outs = {run(["margolis", "--algebra", a, "--max", "8"])[1] for a in spellings}
            assert len(outs) == 1

    def test_module_type_full_window_matches_library(self):
        from steenrod.bundles import bpsp3_presentation
        from steenrod.modules import from_presentation, stable_type_solve

        argv = "module-type --preset bpsp3 --algebra a1 --max 40 --format json"
        code, out, _ = run(argv.split())
        doc = json.loads(out)
        m = from_presentation(bpsp3_presentation(), "A1", (0, 40))
        want = stable_type_solve(m).solutions[0]
        assert code == 0 and doc["status"] == "ambiguous"
        assert [tuple(p) for p in doc["pieces"]] == list(want)

    def test_split_check_cases(self):
        doc = json.loads(run(["split-check", "--case", "identity"])[1])
        assert doc["split_guaranteed"] is True
        doc = json.loads(run(["split-check", "--case", "joker"])[1])
        assert doc["split_guaranteed"] is False and doc["witness_degree"] == 4
        doc = json.loads(run(["split-check", "--case", "zero"])[1])
        assert doc["f_injective"] is False


class TestPrimitivesCommand:
    def test_tsv(self):
        code, out, _ = run(
            ["primitives", "--space", "bspinc", "--max", "12", "--format", "tsv"]
        )
        rows = [line.split("\t") for line in out.strip().splitlines()]
        by_degree = {int(r[0]): r for r in rows}
        assert by_degree[6][2] == "s3,3" and by_degree[6][3] == "ok"
        assert by_degree[9][1] == "0"

    def test_json(self):
        code, out, _ = run(
            ["primitives", "--space", "bso", "--max", "8", "--format", "json"]
        )
        doc = json.loads(out)
        assert all(r["verified"] for r in doc)

    def test_negative_max_exits_2(self):
        code, out, err = run(["primitives", "--space", "bso", "--max", "-2"])
        assert code == 2 and out == "" and "--max must be >= 0" in err


    # SHA-256 of `steenrod primitives --space S --max 64 --format json`,
    # recorded before the packed-monomial kernels replaced the sparse ones
    CAP_64_DIGESTS = {
        "bo": "18d0126245c3873a0c4186648db2e6dd44c817f5e45e8141995c4ffefe0e365a",
        "bso": "b92f01830beabb1b96e77e380db2ed8ffeec47e6bacf5df36d5acbc20e87925c",
        "bspin": "fe233669faffc263d23de7da96091a5547dd631244c01099a219c8f28051c338",
        "bspinc": "11623e6b79d80325ed12b9b27366ecb06309b56576a2f9d0d02f823af028945f",
    }

    @pytest.mark.parametrize("space", sorted(CAP_64_DIGESTS))
    def test_cap_64_json_digest(self, space):
        # in process, so the cap-64 models are the cached ones the tables share
        code, out, _ = run(["primitives", "--space", space, "--max", "64", "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.CAP_64_DIGESTS[space]


# one malformed value for every argument of every subcommand, by (command, dest)
MALFORMED = {
    ("adem", "expr"): ["adem", "Sq["],
    ("mul", "left"): ["mul", "Sq[", "Sq[1]"],
    ("mul", "right"): ["mul", "Sq[1]", "Sq["],
    ("coprod", "expr"): ["coprod", "Sq["],
    ("antipode", "expr"): ["antipode", "Sq["],
    ("pair", "dual"): ["pair", "xi[", "Sq[1]"],
    ("pair", "steenrod"): ["pair", "xi[1]", "Sq["],
    ("milnor", "expr"): ["milnor", "Q-1"],
    ("basis", "degree"): ["basis", "-1"],
    ("basis", "format"): ["basis", "2", "--format", "xml"],
    ("sq", "k"): ["sq", "-1", "y4", "--preset", "bsu3"],
    ("sq", "expr"): ["sq", "2", "y4^", "--preset", "bsu3"],
    ("sq", "preset"): ["sq", "2", "y4", "--preset", "bsu4"],
    ("module-type", "preset"): ["module-type", "--preset", "bsu4"],
    ("module-type", "algebra"): ["module-type", "--algebra", "a2"],
    ("module-type", "max"): ["module-type", "--max", "forty"],
    ("module-type", "format"): ["module-type", "--format", "xml"],
    ("margolis", "preset"): ["margolis", "--preset", "bsu4"],
    ("margolis", "algebra"): ["margolis", "--algebra", "a2"],
    ("margolis", "op"): ["margolis", "--op", "q2"],
    ("margolis", "max"): ["margolis", "--max", "-4"],
    ("margolis", "format"): ["margolis", "--format", "xml"],
    ("split-check", "case"): ["split-check", "--case", "joke"],
    ("primitives", "space"): ["primitives", "--space", "bsu"],
    ("primitives", "max"): ["primitives", "--max", "256"],
    ("primitives", "kernel_limit"): ["primitives", "--kernel-limit", "-1"],
    ("primitives", "format"): ["primitives", "--format", "xml"],
    ("transfer", "bundle"): ["transfer", "--bundle", "rp2", "--expr", "x4"],
    ("transfer", "expr"): ["transfer", "--expr", "x4^"],
    ("transfer", "json"): ["transfer", "--expr", "x4", "--json=yes"],
    ("verify", "suite"): ["verify", "--suite", "hopff"],
    ("verify", "max"): ["verify", "--suite", "hopf", "--max", "-3"],
    ("verify", "format"): ["verify", "--suite", "hopf", "--format", "xml"],
}

# values that parse but pass a limit of the program, by (command, dest, limit)
PAST_LIMITS = {
    # degree 2^31: past the 32-bit exponent fields of the packed total square
    ("sq", "expr", "packed-fields"): ["sq", "1", "y4^536870912", "--preset", "bsu3"],
}


def parser_arguments():
    """Every (command, dest) pair declared by the CLI parser."""
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        (command, action.dest)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
    }


class TestMalformedInput:
    def test_the_table_covers_every_argument(self):
        assert set(MALFORMED) == parser_arguments()

    @pytest.mark.parametrize(
        "argv",
        [*MALFORMED.values(), *PAST_LIMITS.values()],
        ids=[" ".join(k) for k in [*MALFORMED, *PAST_LIMITS]],
    )
    def test_malformed_value_exits_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value itself
                code = exc.code
        assert code == 2 and out.getvalue() == ""
        assert "error: " in err.getvalue() and "Traceback" not in err.getvalue()


class TestVerifyCommand:
    def test_json_report_validates_against_committed_schema(self):
        code, out, _ = run(
            ["verify", "--suite", "hopf", "--suite", "pairing", "--format", "json"]
        )
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert code == 0 and doc["ok"] is True

    def test_deterministic_output(self):
        a = run(["verify", "--suite", "pairing", "--format", "json"])
        b = run(["verify", "--suite", "pairing", "--format", "json"])
        assert a == b

    def test_known_finding_fails_with_witness(self):
        code, out, _ = run(["verify", "--suite", "indecomposables", "--format", "json"])
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert code == 1 and doc["ok"] is False
        failing = [
            c
            for s in doc["suites"]
            for c in s["checks"]
            if c["status"] == "fail"
        ]
        assert len(failing) == 1 and "degree 6" in failing[0]["id"]
        assert failing[0]["witness"]

    def test_cap_override_via_flag(self):
        code, out, _ = run(
            ["verify", "--suite", "dual-quotients", "--max", "8", "--format", "text"]
        )
        assert code == 0 and "degree 8" in out

    def test_negative_cap_flag_exits_2(self):
        code, out, err = run(["verify", "--suite", "hopf", "--max", "-3"])
        assert code == 2 and out == "" and "must be >= 0" in err

    @pytest.mark.parametrize("cap", ["0", "2", "4", "6", "7", None])
    def test_indecomposables_names_its_smallest_cap(self, cap):
        # the suite reads degrees 3, 4 and 7, so a cap below 7 is refused
        flags = [] if cap is None else ["--max", cap]
        code, out, err = run(["verify", "--suite", "indecomposables", *flags, "--format", "json"])
        if cap is not None and int(cap) < 7:
            assert code == 2 and out == "" and "at least 7" in err
        else:
            jsonschema.validate(json.loads(out), REPORT_SCHEMA)
            assert code == 1 and err == ""

    def test_every_cap_is_checked_before_any_suite_runs(self, monkeypatch):
        ran = []
        monkeypatch.setitem(verify.SUITES, "hopf", (lambda cap: ran.append(cap) or [], 12))
        code, out, err = run(
            ["verify", "--suite", "hopf", "--suite", "primitive-transfer", "--max", "5"]
        )
        assert code == 2 and out == "" and ran == []
        assert err == "error: suite 'primitive-transfer' needs a cap of at least 6, got 5\n"

    @pytest.mark.parametrize("suite, most", sorted(verify.MAX_CAPS.items()))
    def test_a_cap_above_the_maximum_exits_2_and_names_it(self, suite, most):
        code, out, err = run(["verify", "--suite", suite, "--max", str(most + 1)])
        assert code == 2 and out == ""
        assert err == f"error: suite {suite!r} takes a cap of at most {most}, got {most + 1}\n"

    def test_the_whole_battery_past_the_cp2_maximum_exits_2(self):
        code, out, err = run(["verify", "--suite", "all", "--max", "18"])
        assert code == 2 and out == ""
        assert err == "error: suite 'cp2-transfer' takes a cap of at most 17, got 18\n"

    def test_cp2_transfer_at_its_maximum_prints_a_report(self):
        code, out, err = run(["verify", "--suite", "cp2-transfer", "--max", "17", "--format", "json"])
        assert code == 0 and err == ""
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["ok"] and doc["suites"][0]["counts"]["fail"] == 0

    def test_a_key_error_inside_a_suite_is_a_computation_failure(self, monkeypatch):
        def broken(cap):
            raise KeyError("missing table entry")

        monkeypatch.setitem(verify.SUITES, "hopf", (broken, 12))
        code, out, err = run(["verify", "--suite", "hopf"])
        assert code == 1 and out == ""
        assert err == "computation failed: 'missing table entry'\n"


def _sweep():
    for name in sorted(verify.SUITES):
        least = verify.MIN_CAPS.get(name, 0)
        for cap in sorted({0, 1, 2, 4, 8, least, least - 1}):
            yield name, cap


class TestCapSweep:
    """Every suite, at every swept cap, either decides each row or refuses
    the cap: a cap that cannot hold an expected finding's witness must not
    turn the finding into a pass, drop its row, or fail as a computation."""

    @pytest.mark.parametrize("name, cap", list(_sweep()))
    def test_a_suite_decides_at_its_cap_or_refuses_it(self, name, cap):
        least = verify.MIN_CAPS.get(name, 0)
        code, out, err = run(["verify", "--suite", name, "--max", str(cap), "--format", "json"])
        if cap < least:
            want = "must be >= 0" if cap < 0 else f"needs a cap of at least {least}, got {cap}"
            assert code == 2 and out == "" and want in err
            return
        assert code in (0, 1) and err == ""
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        (suite,) = doc["suites"]
        status = {c["id"]: c["status"] for c in suite["checks"]}
        for finding in sorted(f for s, f in verify.EXPECTED_FINDINGS if s == name):
            assert status.get(finding) == "fail", (finding, status.get(finding))


class TestReportStability:
    """Default verify reports stay byte-identical to the recorded digests."""

    @pytest.mark.parametrize(
        "suite",
        [
            "hopf",
            "pairing",
            "dual-quotients",
            "bpsp-model",
            "cp2-transfer",
            "hp2-transfer",
            "e1-modules",
            "a1-modules",
            "indecomposables",
            pytest.param("primitives --max 40", id="primitives-max-40"),
            "primitive-transfer",
            "power-sums",
        ],
    )
    def test_json_report_digest(self, suite):
        command = f"verify --suite {suite} --format json"
        want = json.loads(REFERENCE.read_text())["commands"][command]
        _, out, _ = run(command.split())
        assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]
        assert sum(len(s["checks"]) for s in json.loads(out)["suites"]) == want["rows"]

    def test_default_primitives_report_digest(self):
        # the one default report the benchmark reference does not record:
        # verify --suite primitives at its default cap 64
        _, out, _ = run(["verify", "--suite", "primitives", "--format", "json"])
        want = "306c3dd5bb37cd39232dec392a98976348734f05fb287b63a1027c3eefa05e35"
        assert hashlib.sha256(out.encode()).hexdigest() == want
        assert sum(len(s["checks"]) for s in json.loads(out)["suites"]) == 8


def fresh(*args: str) -> subprocess.CompletedProcess:
    """Run python ARGS in a fresh interpreter that imports this package."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )


class TestExitHook:
    """main registers gc.freeze to run at exit, once however often it runs,
    so a command's interpreter skips the final sweep of its heap."""

    def test_two_calls_leave_one_hook_and_the_exit_freezes_the_heap(self):
        # gc.freeze is counted through the module attribute main registers;
        # the check registered first runs last, after the freeze
        script = (
            "import atexit, contextlib, gc, io\n"
            "freeze = gc.freeze\n"
            "gc.freeze = lambda: print('freeze') or freeze()\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "from steenrod import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['adem', 'Sq[1,2]'])\n"
            "    cli.main(['adem', 'Sq[2,2]'])\n"
            "print('ran')\n"
        )
        done = fresh("-c", script)
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout == "ran\nfreeze\nfrozen True\n"

    def test_a_command_run_as_a_module_prints_the_reference_report(self):
        command = "verify --suite hopf --format json"
        want = json.loads(REFERENCE.read_text())["commands"][command]
        done = fresh("-m", "steenrod.cli", *command.split())
        assert done.returncode == 0 and done.stderr == ""
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == want["sha256"]
    def test_main_leaves_the_collector_of_its_caller_as_it_was(self):
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        assert run(["adem", "Sq[1,2]"])[0] == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
