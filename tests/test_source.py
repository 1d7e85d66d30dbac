"""Checks on the package source itself."""

import ast
import importlib
import types
from pathlib import Path

import aeaqecc
import aeaqecc.cli  # noqa: F401  (imports every layer the tracer wraps)


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so invariants that guard results must
    # raise explicit errors instead
    found = []
    for path in sorted(Path(aeaqecc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_bench_tracer_targets_exist():
    # bench/tracer.py patches functions by (owner, attribute); a renamed or
    # dropped attribute would crash every traced benchmark run.  The file
    # is compiled from its text, so no bytecode is written next to it.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in tracer.wrapped_attributes(aeaqecc)
        if attr not in vars(owner)
    ]
    assert missing == []


def test_only_linalg_binds_rref():
    # bench/tracer.py counts eliminations by wrapping linalg.rref; a module
    # that imported the name would call the original and go uncounted
    names = ["aeaqecc"] + [
        f"aeaqecc.{path.stem}"
        for path in sorted(Path(aeaqecc.__file__).parent.glob("*.py"))
        if path.stem not in ("__init__", "linalg")
    ]
    assert [m for m in names if "rref" in vars(importlib.import_module(m))] == []
