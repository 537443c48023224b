"""Each command imports only the modules it runs, no module generates code
at import, and the package's public names resolve on first access.

The footprint tests start a fresh interpreter per case, since a test
process has long since imported every module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steenrod
from steenrod import charclass, cli, verify

SRC = str(Path(steenrod.__file__).resolve().parents[1])


def loaded_after(statements: str, package: str | None = "steenrod") -> set[str]:
    """The modules of `package` a fresh interpreter holds after the
    statements, without the package prefix ("" for the package itself); with
    package None, every module it holds, by its full name."""
    script = "import sys\n" + statements + "\nprint(*sorted(sys.modules))"
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    if package is None:
        return set(out)
    return {m.removeprefix(package).lstrip(".") for m in out if m.split(".")[0] == package}


def loaded_by(argv: list[str], package: str | None = "steenrod") -> set[str]:
    """The modules a fresh interpreter holds after `steenrod ARGV`."""
    return loaded_after(
        "import contextlib, io\n"
        "from steenrod import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main({argv!r})",
        package,
    )


# dataclasses imports inspect (and with it ast, dis and tokenize), and each
# @dataclass compiles its methods through exec on every start
CODE_GENERATORS = {"dataclasses", "inspect"}


class TestImportFootprint:
    def test_building_the_parser_loads_only_cli_verify_action_and_f2(self):
        loaded = loaded_after("from steenrod import cli\ncli.build_parser()")
        assert loaded == {"", "cli", "verify", "action", "f2"}

    @pytest.mark.parametrize("suite", ["hopf", "pairing", "dual-quotients"])
    def test_hopf_suites_load_no_charclass_bundles_or_modules(self, suite):
        loaded = loaded_by(["verify", "--suite", suite])
        assert "dual" in loaded
        assert not loaded & {"charclass", "bundles", "modules"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "primitives", "--max", "4"],
            ["verify", "--suite", "power-sums"],
            ["verify", "--suite", "indecomposables"],
        ],
        ids=["primitives", "power-sums", "indecomposables"],
    )
    def test_charclass_suites_load_no_bundles_modules_or_dual(self, argv):
        loaded = loaded_by(argv)
        assert "charclass" in loaded
        assert not loaded & {"bundles", "modules", "dual"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["primitives", "--max", "8"],
            ["verify", "--suite", "primitives", "--max", "4"],
            ["verify", "--suite", "power-sums"],
            ["verify", "--suite", "indecomposables"],
            ["verify", "--suite", "primitive-transfer"],
            ["verify", "--suite", "bpsp-model"],
        ],
        ids=["primitives-command", "primitives", "power-sums", "indecomposables",
             "primitive-transfer", "bpsp-model"],
    )
    def test_commands_that_read_only_binomials_load_no_algebra(self, argv):
        # binom_mod2 lives in f2, so charclass and the Adem check need no algebra
        loaded = loaded_by(argv)
        assert loaded & {"charclass", "bundles"}
        assert "algebra" not in loaded

    @pytest.mark.parametrize("suite", ["cp2-transfer", "hp2-transfer"])
    def test_transfer_suites_load_no_charclass_modules_or_dual(self, suite):
        loaded = loaded_by(["verify", "--suite", suite])
        assert "bundles" in loaded
        assert not loaded & {"charclass", "modules", "dual"}


class TestNoCodeGeneration:
    def test_building_the_parser_loads_no_dataclasses_or_inspect(self):
        loaded = loaded_after("from steenrod import cli\ncli.build_parser()", package=None)
        assert "steenrod.cli" in loaded
        assert not loaded & CODE_GENERATORS

    @pytest.mark.parametrize("suite", sorted(verify.SUITES))
    def test_no_suite_loads_dataclasses_or_inspect(self, suite):
        cap = verify.MIN_CAPS.get(suite, 3)
        loaded = loaded_by(["verify", "--suite", suite, "--max", str(cap)], package=None)
        assert "steenrod.verify" in loaded
        assert not loaded & CODE_GENERATORS


class TestLazyPackage:
    def test_importing_the_package_loads_no_module_until_a_name_is_read(self):
        assert loaded_after("import steenrod") == {""}
        assert loaded_after("from steenrod import pair") == {"", "algebra", "dual", "f2"}

    def test_every_exported_name_is_its_home_modules_object(self):
        assert len(steenrod.__all__) == 12
        for name, home in steenrod._HOMES.items():
            module = importlib.import_module(f"steenrod.{home}")
            assert getattr(steenrod, name) is getattr(module, name), name

    def test_star_import_binds_every_exported_name(self):
        namespace: dict = {}
        exec("from steenrod import *", namespace)
        assert set(steenrod.__all__) <= set(namespace)
        assert namespace["pair"] is steenrod.pair

    def test_an_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            steenrod.no_such_name
        assert not hasattr(steenrod, "SPACES")

    def test_the_space_choices_are_charclass_spaces(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        space = next(a for a in sub.choices["primitives"]._actions if a.dest == "space")
        assert tuple(space.choices) == charclass.SPACES
