"""Module layout rules for the package source.

No module imports a private (underscore-prefixed) name from another
module of the package: a name another module needs is public.  The
package root imports no module of the package, so every importer names
the submodule it uses.  Only ``verify`` reads the clock, for the
certificate's wall_ms, so no deadline can creep back into the search
core.  Every public function, class and method of the package is used
somewhere, so a name that nothing calls is deleted rather than kept,
and a name that only the tests call is listed in ``TEST_ONLY`` with the
reason it stays.
"""

import ast
from functools import lru_cache
from pathlib import Path

import codegraph

SRC = Path(codegraph.__file__).resolve().parent
ROOT = SRC.parents[1]


def private_imports(path: Path) -> list[str]:
    """``module: name`` for every private name the file imports from
    another codegraph module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "codegraph":
            continue
        found.extend(
            f"{path.name}: {module}.{alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        )
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    bad = [hit for path in modules for hit in private_imports(path)]
    assert bad == []


def test_the_rule_sees_relative_and_absolute_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "from .verify import _solve_cols, build_context\n"
        "from codegraph.autgroup import _mat_vec\n"
        "from os.path import _get_sep\n"
    )
    assert private_imports(probe) == ["probe.py: verify._solve_cols", "probe.py: codegraph.autgroup._mat_vec"]


def package_imports(path: Path) -> list[str]:
    """Every codegraph module the file imports, relative or absolute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found.extend(a.name for a in node.names if a.name.split(".")[0] == "codegraph")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "codegraph":
                found.append("." * node.level + module)
    return found


def test_the_package_root_imports_no_module():
    # every importer names the submodule it needs
    assert package_imports(SRC / "__init__.py") == []


def test_the_rule_sees_a_re_export(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "from .grassmann import build_graph\n"
        "from . import verify\n"
        "import codegraph.cli\n"
        "import os\n"
    )
    assert package_imports(probe) == [".grassmann", ".", "codegraph.cli"]


def imports_time(path: Path) -> bool:
    """Whether the file imports the ``time`` module or a name from it."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "time" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "time":
            return True
    return False


def test_only_verify_imports_time():
    clocked = [path.name for path in sorted(SRC.glob("*.py")) if imports_time(path)]
    assert clocked == ["verify.py"]


def test_the_rule_sees_every_form_of_time_import(tmp_path):
    probe = tmp_path / "probe.py"
    for line, hit in (
        ("import time", True),
        ("import os, time as clock", True),
        ("from time import monotonic", True),
        ("from .time import x", False),
        ("import timeit", False),
    ):
        probe.write_text(line + "\n")
        assert imports_time(probe) is hit, line


def references(tree: ast.AST) -> set[str]:
    """Names a module refers to: attribute names, imported names, and
    bare names read where no enclosing function binds them itself (a
    parameter or an assignment target), so that a local variable named
    like a function is not a reference to it."""
    found: set[str] = set()

    def visit(node: ast.AST, bound: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            stored = {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del))
            }
            bound = bound | {a.arg for a in params} | stored
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            found.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return found


@lru_cache(maxsize=None)
def text_references(text: str, filename: str) -> frozenset[str]:
    """``references`` of a file's text, parsed once per distinct text, so a
    file that a test rewrites is parsed again."""
    return frozenset(references(ast.parse(text, filename)))


def unreferenced_defs(path: Path, corpus: list[Path]) -> list[str]:
    """Public functions, classes and methods defined in ``path`` that no
    file of ``corpus`` refers to (see ``references``), in the order they
    are defined.  Names in strings and comments are not references."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    defs = sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    )
    used: set[str] = set()
    for f in corpus:
        used |= text_references(f.read_text(encoding="utf-8"), str(f))
    return [name for _, name in defs if name not in used]


def test_every_public_name_is_referenced():
    corpus = sorted(f for part in ("src", "tests", "perfbench") for f in (ROOT / part).rglob("*.py"))
    assert SRC / "verify.py" in corpus
    dead = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py")) for name in unreferenced_defs(path, corpus)]
    assert dead == []


def test_the_rule_sees_an_unreferenced_def(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class Kept:\n"
        "    def used(self):\n"
        "        return helper()\n"
        "    def unused_method(self):\n"
        "        return Kept()\n"
        "def helper():\n"
        "    return 1\n"
        "def _private():\n"
        "    return 2\n"
        "def unused():\n"
        "    return 3\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "Kept().used()  # not unused_method\n"
        "def local_names(unused_method):\n"
        "    unused = 'unused()'\n"
        "    return [unused for unused in (unused, unused_method)]\n"
    )
    assert unreferenced_defs(probe, [probe, caller]) == ["unused_method", "unused"]


def test_references_come_from_calls_attributes_and_imports():
    tree = ast.parse(
        "from .core import imported\n"
        "import pkg.sub.module_name\n"
        "called()\n"
        "obj.attribute\n"
        "passed = map(as_value, [])\n"
        "def f(param):\n"
        "    local = param\n"
        "    return local, outer_name, lambda lam: lam\n"
    )
    assert references(tree) == {
        "imported", "module_name", "called", "attribute", "obj", "map", "as_value", "outer_name",
    }


# Public names of the package that no src or perfbench file uses apart
# from their definition and the package's re-exports, each with the
# reason it is kept.
TEST_ONLY = (
    ("is_identity", "reference oracle for the witnesses of the identity and collapse maps"),
    ("vertex_permutation", "reference oracle for the plane images under a matrix, through the subspace action"),
    ("gl2_cols_stream", "reference oracle for the generated group: every matrix of GL(n, 2)"),
    ("star_criterion", "paper claim tested by the clique taxonomy: which points give maximal stars"),
    ("zero_subspace", "reference oracle for subspace enumeration"),
    ("coordinate_hyperplane", "reference oracle for the orthocomplement and the degenerate planes"),
    ("parse_subspace_blocks", "reference oracle for the enum command's text blocks"),
    ("degenerate_union_count", "paper claim tested by the vertex count of the code graph"),
    ("complement_code", "paper claim tested by the collapse map's C class"),
    ("point_map", "paper claim tested by the lemma chain's induced point map"),
    ("recheck_witness", "reference oracle for the witness, through the subspace action"),
    ("star", "reference oracle for the maximal stars, built as every superspace of a subspace"),
    ("top", "reference oracle for the maximal tops, built as every subspace of a subspace"),
    ("degree", "reference oracle for the degree formula of the full Grassmann graphs"),
)


def only_tests_call(root: Path) -> list[str]:
    """Public functions, classes and methods of the package under
    ``root`` that no src or perfbench file names apart from their
    definition and the package's ``__init__`` re-exports."""
    package = root / "src" / "codegraph"
    callers = [
        f
        for part in ("src", "perfbench")
        for f in sorted((root / part).rglob("*.py"))
        if f != package / "__init__.py"
    ]
    return [name for path in sorted(package.glob("*.py")) for name in unreferenced_defs(path, callers)]


def test_test_only_names_are_listed():
    found = set(only_tests_call(ROOT))
    listed = {name for name, _ in TEST_ONLY}
    assert len(listed) == len(TEST_ONLY)
    # unlisted test-only names, then listed names that are gone or gained a caller
    assert (sorted(found - listed), sorted(listed - found)) == ([], [])
    for name, reason in TEST_ONLY:
        assert reason.startswith(("reference oracle for ", "paper claim tested by ")), name


def test_the_rule_sees_a_test_only_def(tmp_path):
    package = tmp_path / "src" / "codegraph"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (package / "core.py").write_text(
        "def used():\n"
        "    return 1\n"
        "def benched():\n"
        "    return 2\n"
        "def only_tested():\n"
        "    return 3\n"
    )
    (package / "cli.py").write_text("from .core import used\nused()\n")
    (package / "__init__.py").write_text("from .core import benched, only_tested, used\n")
    (tmp_path / "perfbench" / "run.py").write_text("from codegraph.core import benched\nbenched()\n")
    (tmp_path / "tests" / "test_core.py").write_text("from codegraph.core import only_tested\nonly_tested()\n")
    assert only_tests_call(tmp_path) == ["only_tested"]
