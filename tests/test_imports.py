"""Every name a library module imports is used in that module, every
name the package exports resolves to its definition and has a reader
outside the tests, no file but the benchmark's tracer reads the
monoid's order hook, the CLI starts without the standard library's
introspection modules, and each command executes only the submodules
it uses.

The package's ``__init__.py`` serves its exports from a table, so it is
left out of the unused-import scan; every other module of
``src/mobzero`` is scanned with ``ast``.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mobzero

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "mobzero"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list:
    """The names the module's imports bind that nothing in it reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Union, Sequence\n"
                     "def f(x: Sequence):\n    return x\n")
    assert unused_imports(tree) == [(1, "os"), (2, "Union")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


# exports whose first production reader is an open ROADMAP item
AWAITING_A_READER = {
    "RATIONALS": "item 4, the --ring option",
    "IntegerModRing": "item 4, the --ring option",
    "section": "item 8, the product-transfer check in verify",
}


def exported_names() -> list:
    """The names in the package's export table."""
    return sorted(mobzero._EXPORTS)


def test_every_export_resolves_to_the_object_its_module_defines():
    for name, module in mobzero._EXPORTS.items():
        qualified = f"mobzero.{module}"
        value = getattr(mobzero, name)
        assert value is vars(importlib.import_module(qualified))[name], name
        # defined there, not imported from another module (Word is tuple)
        assert getattr(value, "__module__", qualified) in (
            qualified, "builtins"), name


def test_an_unknown_name_is_not_an_attribute_of_the_package():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        mobzero.no_such_name


def names_read(path: Path) -> set:
    """The names and attribute names a file loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            read.add(node.attr)
    return read


def test_every_export_has_a_reader_outside_the_tests():
    # a reader is another library module, a benchmark script or a CI step;
    # a definition, an assignment or an import is not a read
    bench = [p for p in sorted((ROOT / "bench").glob("*.py"))
             if not p.name.startswith("test_")]
    read = set().union(*map(names_read, MODULES + bench))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(
        encoding="utf-8")
    unread = [name for name in exported_names() if name not in read
              and not re.search(rf"\b{re.escape(name)}\b", workflow)]
    assert unread == sorted(AWAITING_A_READER)


def hook_uses(tree: ast.AST) -> tuple:
    """The lines that read an attribute ``_order`` and the lines that
    call a method ``identity``."""
    reads, calls = [], []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "_order"
                and isinstance(node.ctx, ast.Load)):
            reads.append(node.lineno)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "identity"):
            calls.append(node.lineno)
    return reads, calls


def test_the_order_hook_is_read_by_the_bench_only():
    # the word encoding fixes the identity, (), and the order, len, so
    # the library and the tests read neither from a monoid.  Only the
    # benchmark's tracer still reads ZeroMonoid._order; once it stops,
    # this fails, and the hook can be deleted
    readers, calls = set(), []
    for path in sorted(p for top in ("src", "tests", "bench")
                       for p in (ROOT / top).rglob("*.py")):
        name = path.relative_to(ROOT).as_posix()
        reads, found = hook_uses(ast.parse(path.read_text(encoding="utf-8"),
                                           filename=str(path)))
        if reads:
            readers.add(name)
        calls += [f"{name}:{line}" for line in found]
    assert sorted(readers) == ["bench/spans.py"]
    assert calls == []


# code generation and source introspection: a dataclass pulls in all but
# typing, and each CLI process would pay for them before its request
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")

LOADED_BY_CLI = """
import json, sys
before = set(sys.modules)
import mobzero.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_the_cli_imports_no_introspection_module():
    # a fresh interpreter, compared with what it had loaded before the
    # import, so a site that preloads one of them neither hides nor
    # trips the check
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run([sys.executable, "-c", LOADED_BY_CLI], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "mobzero.cli" in loaded
    assert [name for name in HEAVY if name in loaded] == []


# what each command executes: a submodule is executed once it is an
# ordinary module, not the LazyLoader's placeholder
EXECUTED_BY_CLI = """
import contextlib, io, json, sys, types
before = set(sys.modules)
import mobzero.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert mobzero.cli.main(argv) == 0
print(json.dumps({
    "executed": sorted(name for name, module in sys.modules.items()
                       if name.startswith("mobzero.")
                       and type(module) is types.ModuleType),
    "registered": sorted(name for name in sys.modules
                         if name.startswith("mobzero.")),
    "loaded": sorted(set(sys.modules) - before)}))
"""

FREE_ABC = {"type": "free", "alphabet": ["a", "b", "c"]}
GEN_AB = {"type": "rees", "base": FREE_ABC,
          "ideal": {"kind": "generated", "words": [["a", "b"]]}}


def command(name, monoid):
    return [name, "--format", "json", "--order", "4",
            "--monoid", json.dumps(monoid)]


@pytest.mark.parametrize("argv, unexecuted, unloaded", [
    ([], ("series", "ideals", "hilbert", "quotient_maps"), ()),
    (command("hilbert", GEN_AB), ("series", "quotient_maps"), ("fractions",)),
    (command("count", GEN_AB), ("series", "quotient_maps"), ("fractions",)),
    (command("mobius", FREE_ABC), ("ideals", "hilbert", "quotient_maps"), ()),
], ids=["import", "hilbert", "count", "mobius"])
def test_a_command_executes_only_the_modules_it_uses(
        argv, unexecuted, unloaded):
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run(
        [sys.executable, "-c", EXECUTED_BY_CLI, json.dumps(argv)], env=env,
        capture_output=True, text=True, check=True).stdout
    seen = json.loads(out)
    names = [f"mobzero.{name}" for name in unexecuted]
    # registered, so that the benchmark's tracer finds them, but not run
    assert set(names) <= set(seen["registered"])
    assert [name for name in names if name in seen["executed"]] == []
    assert [name for name in unloaded if name in seen["loaded"]] == []
