"""The benchmark's tracer still fits the library.

``bench/spans.py`` wraps library functions by module and name, so a
function renamed or moved would first show as a traced benchmark run
that crashes.  These tests load the tracer by its path, with ``bench/``
kept off ``sys.path``, and check that every name it wraps resolves and
that installing and restoring it leaves the library as it was.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import mobzero.cli  # noqa: F401  (its namespace binds wrapped names too)
from mobzero import IdealSpec, ZeroMonoid

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "mobzero_bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert str(BENCH) not in sys.path
    return module


def subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        seen.append(c)
        todo.extend(c.__subclasses__())
    return seen


def snapshot():
    """Every binding of every mobzero module and of every monoid and
    ideal class, by identity."""
    modules = [mod for name, mod in sys.modules.items()
               if name == "mobzero" or name.startswith("mobzero.")]
    classes = subclasses(ZeroMonoid) + subclasses(IdealSpec)
    return {owner: dict(vars(owner)) for owner in modules + classes}


def changed(before, after):
    return sorted(
        f"{owner.__name__}.{key}"
        for owner in before
        for key in before[owner].keys() | after[owner].keys()
        if before[owner].get(key) is not after[owner].get(key))


def test_every_wrapped_function_is_defined_where_it_is_named():
    for span, (module, name) in load_spans().FUNCTIONS.items():
        function = getattr(importlib.import_module(module), name, None)
        assert callable(function), span
        assert function.__module__ == module, span


def test_install_then_restore_leaves_the_library_as_it_was():
    spans = load_spans()
    before = snapshot()
    tracer = spans.Tracer()
    try:
        rebound = tracer.install()
        # the wrappers are in place while installed
        for module, name in spans.FUNCTIONS.values():
            assert module in rebound[name]
            assert getattr(sys.modules[module], name) is not before[
                sys.modules[module]][name]
    finally:
        tracer.restore()
    assert changed(before, snapshot()) == []
