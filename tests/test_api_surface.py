"""The public surface of `src/` holds only names the product uses.

Every public top-level function, class and method of `steenrod` must be
used somewhere else in the package's code (a reference inside its own
definition, such as a recursive call, does not count), be exported in
`steenrod.__all__`, or be named in a code span or block of README.md.  A name that only the tests
call belongs in the test file that uses it, as an oracle.  A top-level
function is used only when read as itself: by its name in its own module,
imported by name from that module, or as an attribute of that module; a
method or a local variable of the same name elsewhere does not count.  The
few exceptions are listed in ALLOWED, each with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import steenrod

SRC = Path(steenrod.__file__).parent
README = SRC.parent.parent / "README.md"

ALLOWED = {
    # a reason for every entry; keep this short
}


def _definitions(tree: ast.Module):
    """(name, node) of each public top-level function and class, and of
    each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uses(tree: ast.AST) -> Counter[str]:
    """How often the code reads each identifier: names, attributes, keyword
    arguments and identifier-shaped string constants (for getattr)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            out[node.arg] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out[node.value] += 1
    return out


def _function_uses(module: str, tree: ast.AST) -> Counter[tuple[str, str]]:
    """How often the code of module reads each (defining module, name) of a
    top-level function: a bare name as module's own, `from .mod import name`
    and `mod.name` as mod's."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[module, node.id] += 1
        elif isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.rsplit(".", 1)[-1]
            for alias in node.names:
                out[source, alias.name] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            out[node.value.id, node.attr] += 1
    return out


def _code_spans(markdown: str) -> str:
    """The text of every fenced block and inline code span, one per line;
    a name the README only uses as a prose word documents nothing."""
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", markdown, re.S | re.M)
    prose = re.sub(r"^```[^\n]*\n.*?^```", "", markdown, flags=re.S | re.M)
    return "\n".join(fenced + re.findall(r"`([^`\n]+)`", prose))


def unused_public_names() -> list[str]:
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = sum((_uses(t) for t in trees.values()), Counter())
    called = sum((_function_uses(p.stem, t) for p, t in trees.items()), Counter())
    readme = _code_spans(README.read_text())
    exported = set(steenrod.__all__)
    unused = []
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            # a use inside the definition itself, such as a recursive call,
            # is no use
            if isinstance(node, ast.ClassDef) or "." in qualname:
                seen, own = used[name], _uses(node)[name]
            else:
                key = (path.stem, name)
                seen, own = called[key], _function_uses(path.stem, node)[key]
            if seen > own or name in exported or qualname in ALLOWED:
                continue
            if re.search(rf"\b{re.escape(name)}\b", readme):
                continue
            unused.append(f"{path.name}:{node.lineno} {qualname}")
    return unused


def test_every_public_name_is_used_exported_or_documented():
    assert unused_public_names() == []


def test_the_walk_sees_a_name_nothing_uses(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return used()\n\n\n"
        "class K:\n    def method(self):\n        return orphan\n\n"
        "    def lonely(self):\n        return 0\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
    )
    (tmp_path / "README.md").write_text("`K` is the class.\n")
    monkeypatch.setattr(steenrod, "__all__", [])
    monkeypatch.setitem(globals(), "SRC", pkg)
    monkeypatch.setitem(globals(), "README", tmp_path / "README.md")
    assert unused_public_names() == [
        "a.py:10 K.method",
        "a.py:13 K.lonely",
        "a.py:17 recursive",
    ]


def test_the_walk_sees_a_function_shadowed_by_a_method_or_a_local(tmp_path, monkeypatch):
    # algebra.dim once passed the bare-name count: FiniteModule.dim and a
    # local dim in charclass were read, and nothing called the function
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "algebra.py").write_text(
        "def dim(n):\n    return n\n\n\n"
        "def basis(n):\n    return [n]\n\n\n"
        "def degree(n):\n    return n\n\n\n"
        "def weight(n):\n    return n\n\n\n"
        "def total(n):\n    return basis(n)\n"
    )
    (pkg / "modules.py").write_text(
        "from . import algebra\n"
        "from .algebra import degree\n\n\n"
        "class FiniteModule:\n    def dim(self):\n        return 0\n\n\n"
        "def size(m):\n    return m.dim() + degree(1) + algebra.weight(2)\n"
    )
    (pkg / "charclass.py").write_text("def rank(n):\n    dim = n\n    return dim\n")
    (tmp_path / "README.md").write_text("`total`, `FiniteModule`, `size` and `rank`.\n")
    monkeypatch.setattr(steenrod, "__all__", [])
    monkeypatch.setitem(globals(), "SRC", pkg)
    monkeypatch.setitem(globals(), "README", tmp_path / "README.md")
    assert unused_public_names() == ["algebra.py:1 dim"]


def test_a_name_only_in_readme_prose_is_unused(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "def coefficient():\n    return 0\n\n\n"
        "def spanned():\n    return 1\n\n\n"
        "def fenced():\n    return 2\n"
    )
    (tmp_path / "README.md").write_text(
        "Read each coefficient off `spanned(x)`.\n\n"
        "```python\nfenced()\n```\n\nThe fenced value, and a coefficient\nword.\n"
    )
    monkeypatch.setattr(steenrod, "__all__", [])
    monkeypatch.setitem(globals(), "SRC", pkg)
    monkeypatch.setitem(globals(), "README", tmp_path / "README.md")
    assert unused_public_names() == ["a.py:1 coefficient"]


def private_f2_imports() -> list[str]:
    """module:line name for each private name a module other than f2
    imports from .f2: elimination and column numbering stay behind the
    public F2Basis, F2Index, F2Span and F2Matrix."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "f2.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("f2", "steenrod.f2"):
                out += [
                    f"{path.name}:{node.lineno} {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    return out


def test_no_module_imports_a_private_name_of_f2():
    assert private_f2_imports() == []


def test_no_pasted_elimination_outside_f2():
    pasted = re.compile(r"pivots|_reduce_against|_word_coords|col_index")
    for name in ("charclass.py", "dual.py", "modules.py", "bundles.py"):
        for n, line in enumerate((SRC / name).read_text().splitlines(), 1):
            assert not pasted.search(line), f"{name}:{n} {line.strip()}"


def test_no_module_reads_a_private_name_of_modules():
    # the split-criterion cases are built by modules.split_case, so the
    # front ends need none of its hom-space machinery
    private = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "modules.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "modules"
        and node.attr.startswith("_")
    ]
    assert private == []


def _is_check(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Check"


def flag_and_break_searches(sources: dict[str, str]) -> list[str]:
    """module:line name of each function that builds a Check and contains a
    break, or returns a Check from inside a loop: a search that picks its own
    witness instead of yielding it to action.first_failure, the one function
    allowed to."""
    out = []
    for name, text in sorted(sources.items()):
        for fn in ast.walk(ast.parse(text)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name == "first_failure":
                continue
            nodes = list(ast.walk(fn))
            breaks = any(isinstance(n, ast.Break) for n in nodes) and any(map(_is_check, nodes))
            returns = any(
                isinstance(n, ast.Return) and _is_check(n.value)
                for loop in nodes
                if isinstance(loop, (ast.For, ast.While))
                for n in ast.walk(loop)
            )
            if breaks or returns:
                out.append(f"{name}:{fn.lineno} {fn.name}")
    return out


def test_every_searched_row_goes_through_first_failure():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert flag_and_break_searches(sources) == []


def test_the_guard_sees_a_flag_and_break_loop():
    pasted = (
        "def suite(n):\n"
        "    ok, witness = True, ''\n"
        "    for d in range(n):\n"
        "        if d == 3:\n"
        "            ok, witness = False, str(d)\n"
        "            break\n"
        "    return [Check('row', ok, witness)]\n"
    )
    searched = (
        "def suite(n):\n"
        "    return [first_failure('row', (str(d) for d in range(n) if d == 3))]\n"
    )
    returned = (
        "def suite(n):\n"
        "    for d in range(n):\n"
        "        if d == 3:\n"
        "            return Check('row', False, str(d))\n"
        "    return Check('row', True)\n"
        "\n\n"
        "def first_failure(check_id, witnesses):\n"
        "    for witness in witnesses:\n"
        "        return Check(check_id, False, witness)\n"
        "    return Check(check_id, True)\n"
    )
    sources = {"a.py": pasted, "b.py": searched, "c.py": returned}
    assert flag_and_break_searches(sources) == ["a.py:1 suite", "c.py:1 suite"]


def lines_outside_f2(sources: dict[str, str], pattern: str) -> list[str]:
    """module:line of each line of a module other than f2.py that matches."""
    return [
        f"{name}:{n}"
        for name, text in sorted(sources.items())
        if name != "f2.py"
        for n, line in enumerate(text.splitlines(), 1)
        if re.search(pattern, line)
    ]


# f2.parse_sum is the one reader of the sum-of-products grammar, and f2.power
# the one square-and-multiply
TERM_SPLIT = r"""split\(\s*["']\*["']\s*\)"""
HALVING = r">>=\s*1\b"
# a term joins an F2-sum by ^=, and f2.bilinear is the one product of two sums
TOGGLE = r"\.discard\(|symmetric_difference_update"


def test_only_f2_splits_a_term_on_star():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert lines_outside_f2(sources, TERM_SPLIT) == []


def test_only_f2_halves_an_exponent():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert lines_outside_f2(sources, HALVING) == []


def test_only_f2_toggles_a_term():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert lines_outside_f2(sources, TOGGLE) == []


def test_the_guard_sees_a_pasted_term_split():
    pasted = (
        "def parse(text):\n"
        "    return [term.split('*') for term in text.split('+')]\n"
        "\n\n"
        "def words(text):\n"
        "    return [term.split() for term in text.split('+')]\n"
    )
    sources = {"a.py": pasted, "f2.py": pasted}
    assert lines_outside_f2(sources, TERM_SPLIT) == ["a.py:2"]


def test_the_guard_sees_a_pasted_power_loop():
    pasted = (
        "def pow(x, e):\n"
        "    result = 1\n"
        "    while e:\n"
        "        if e & 1:\n"
        "            result *= x\n"
        "        x *= x\n"
        "        e >>= 1\n"
        "    return result >> 16\n"
    )
    sources = {"a.py": pasted, "f2.py": pasted}
    assert lines_outside_f2(sources, HALVING) == ["a.py:7"]


def test_the_guard_sees_a_pasted_toggle_loop():
    pasted = (
        "def mul(p, q):\n"
        "    acc = set()\n"
        "    for a in p:\n"
        "        for b in q:\n"
        "            if a + b in acc:\n"
        "                acc.discard(a + b)\n"
        "            else:\n"
        "                acc.add(a + b)\n"
        "    acc.symmetric_difference_update(p)\n"
        "    return acc ^ {0}\n"
    )
    sources = {"a.py": pasted, "f2.py": pasted}
    assert lines_outside_f2(sources, TOGGLE) == ["a.py:6", "a.py:9"]


TABLE_READERS = (
    "validate",
    "margolis_operator",
    "_module_from_subquotient",
    "standard_piece",
    "from_presentation",
)


def algebra_name_forks(text: str) -> list[str]:
    """function:line of each comparison with "A1" or "E1" in a function that
    reads modules.ALGEBRAS instead: the algebra is decided by the table."""
    out = []
    for fn in ast.walk(ast.parse(text)):
        if isinstance(fn, ast.FunctionDef) and fn.name in TABLE_READERS:
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare) and any(
                    isinstance(c, ast.Constant) and c.value in ("A1", "E1")
                    for c in (node.left, *node.comparators)
                ):
                    out.append(f"{fn.name}:{node.lineno}")
    return out


def matrix_own_eliminations(text: str) -> list[str]:
    """method:line of each F2Matrix method that reads a basis's pivots or
    reduces rows itself: its eliminations are F2Basis.add and F2Span."""
    tree = ast.parse(text)
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "F2Matrix")
    return [
        f"{fn.name}:{node.lineno}"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr in ("_pivots", "reduce")
    ]


def test_no_algebra_name_fork_under_the_module_layer():
    assert algebra_name_forks((SRC / "modules.py").read_text()) == []


def test_f2_matrix_runs_no_elimination_of_its_own():
    assert matrix_own_eliminations((SRC / "f2.py").read_text()) == []


def test_the_guards_see_a_fork_and_a_pasted_reduction():
    forked = (
        "def standard_piece(algebra, family):\n"
        "    if algebra == 'A1':\n"
        "        return 1\n"
        "    return 'E1' != family\n"
    )
    assert sorted(algebra_name_forks(forked)) == ["standard_piece:2", "standard_piece:4"]
    pasted = (
        "class F2Matrix:\n"
        "    def rank(self):\n"
        "        basis = F2Basis()\n"
        "        rows = [basis.reduce(r) for r in self.rows]\n"
        "        return len(basis._pivots)\n"
    )
    assert sorted(matrix_own_eliminations(pasted)) == ["rank:4", "rank:5"]


def components_requests_outside_total_square(sources: dict[str, str]) -> list[str]:
    """module:line of each `.components(` call outside the TotalSquare
    class: every other caller asks TotalSquare.sums, which checks the top
    and makes one request per term, so no third square-request loop grows."""
    out = []
    for name, text in sorted(sources.items()):
        tree = ast.parse(text)
        engine = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "TotalSquare"
            for node in ast.walk(cls)
        }
        out += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "components"
            and id(node) not in engine
        ]
    return out


def test_only_total_square_requests_components():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert components_requests_outside_total_square(sources) == []


def test_the_guard_sees_a_pasted_square_request_loop():
    engine = (
        "class TotalSquare:\n"
        "    def sums(self, terms, lo, upto):\n"
        "        return [self.components(m, d, upto)[lo:] for m, d in terms]\n"
    )
    pasted = (
        "class Model:\n"
        "    def sq(self, i, p):\n"
        "        acc = set()\n"
        "        for k in p:\n"
        "            acc ^= self.ring.components(k, degree(k), i)[i]\n"
        "        return acc\n"
    )
    sources = {"action.py": engine, "model.py": pasted}
    assert components_requests_outside_total_square(sources) == ["model.py:5"]
