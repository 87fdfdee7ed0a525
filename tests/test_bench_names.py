"""Every bihindex name the benchmark in perfbench/ reaches still exists.

The benchmark imports library names directly, rebinds some of them in its
selftest, and runs a set-up snippet in fresh interpreters.  A deletion or
rename in src/ would break it without failing any other test, so this test
parses perfbench/*.py and resolves each name it finds:

  from bihindex.<module> import <name>       (and from bihindex import <module>)
  bihindex.<module>.<name>                   (and through an import alias)
  importlib.import_module("bihindex.<module>").<name>

tracer.HOOKS lists (module, name) pairs as strings, and the tracer skips a
hook whose name no longer exists, so its metrics read 0.  Those pairs are
resolved too: every hook must resolve except the four that are dead already,
and the result attributes that Tracer._after reads must exist.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted((ROOT / "perfbench").glob("*.py"))


def resolve(dotted: str):
    """The object named by a dotted path under bihindex, importing submodules."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, "__path__") and not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))  # a submodule not yet imported
        obj = getattr(obj, part)
    return obj


def _dotted(node) -> list[str] | None:
    """['a', 'b', 'c'] for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _import_module_target(node) -> str | None:
    """The module of importlib.import_module("bihindex..."), else None."""
    if (isinstance(node, ast.Call) and _dotted(node.func) == ["importlib", "import_module"]
            and node.args and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("bihindex")):
        return node.args[0].value
    return None


def bihindex_names(source: str) -> set[str]:
    """Dotted bihindex names a Python source imports or reads as attributes."""
    tree = ast.parse(source)
    aliases = {}  # local name -> dotted module path
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "bihindex":
            for a in node.names:
                names.add(f"{node.module}.{a.name}")
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "bihindex":
                    names.add(a.name)
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:
                        aliases["bihindex"] = "bihindex"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        target = _import_module_target(node.value)
        if target is not None:
            names.add(f"{target}.{node.attr}")
            continue
        parts = _dotted(node)
        if parts and parts[0] in aliases:
            names.add(".".join([aliases[parts[0]], *parts[1:]]))
    return names


def bench_constant(file: str, name: str):
    """The literal value of the top-level assignment ``name = ...`` in perfbench/file."""
    tree = ast.parse((ROOT / "perfbench" / file).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{file} defines no {name}")


# tracer hooks on names that production no longer has; their metrics read 0
DEAD_HOOKS = {
    "bihindex.scan.discriminant",
    "bihindex.circle.charpoly_exact",
    "bihindex.legendre.count_roots_with_multiplicity",
    "bihindex.circle.count_roots_with_multiplicity",
}


def test_bench_files_found():
    assert {"run.py", "child.py", "workloads.py", "selftest.py", "make_refs.py"} <= {
        p.name for p in BENCH_FILES}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_reaches_only_existing_names(path):
    for name in sorted(bihindex_names(path.read_text(encoding="utf-8"))):
        try:
            resolve(name)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"{path.name} reaches {name}, which does not exist: {exc}")


def test_the_walk_sees_the_benchmark_api():
    # the names the benchmark's references and selftest stand on
    found = set().union(*(bihindex_names(p.read_text(encoding="utf-8")) for p in BENCH_FILES))
    assert {
        "bihindex.torus.interior_sign_scan",
        "bihindex.legendre.p5_coefficients",
        "bihindex.scan.scan_row",
        "bihindex.cli.index_nullity",
        "bihindex.cli.main",
        "bihindex.cli.RENDERERS",
    } <= found


def test_the_walk_catches_a_missing_name():
    names = bihindex_names("import bihindex.cli\nbihindex.cli.no_such_name\n")
    with pytest.raises(AttributeError):
        resolve("bihindex.cli.no_such_name")
    assert "bihindex.cli.no_such_name" in names


def test_tracer_hooks_stay_live():
    hooks = bench_constant("tracer.py", "HOOKS")
    assert len(hooks) > len(DEAD_HOOKS)
    dead = {f"{module}.{name}" for module, name, _ in hooks
            if not hasattr(importlib.import_module(module), name)}
    assert dead <= DEAD_HOOKS, f"tracer hooks no longer resolve: {sorted(dead - DEAD_HOOKS)}"


def test_tracer_reads_existing_result_attributes():
    # the attributes Tracer._after reads from the results of the hooked calls
    row = resolve("bihindex.scan.scan_row")(5)
    report = resolve("bihindex.cli.index_nullity")(5)
    ledger = resolve("bihindex.cli.legendre_index_nullity")()
    for value in (row.f, report.k, report.f, ledger.axis_m_scanned_to, ledger.axis_n_scanned_to):
        assert type(value) is int


def test_bench_setup_code_runs():
    code = bench_constant("run.py", "SETUP_CODE")
    assert "bihindex" in code
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
