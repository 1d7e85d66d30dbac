"""Checks on the package source itself."""

import ast
import importlib
import types
from collections import Counter
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


def _load_tracer():
    """bench/tracer.py, compiled from its text so that no bytecode is
    written next to it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
    return tracer


def test_bench_tracer_targets_exist():
    # bench/tracer.py patches functions by (owner, attribute); a renamed or
    # dropped attribute would crash every traced benchmark run
    tracer = _load_tracer()
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


# Module-level names, and methods as "Class.method", that stay although
# nothing in the package reaches them, each with the reason it stays.
_UNREACHED_BY_DESIGN = {
    "multiplicative_order": "oracle for primitive_nth_root in the tests",
    "row_space_intersect": "Zassenhaus oracle for the intersections and "
    "the entanglement c in the tests",
    "punctured_params": "the puncturing trade-off the eaqecc docstring lists",
    "LinearCode.contains": "public membership test of an exported class, "
    "the tests' oracle for the codes the package builds",
    "BudgetExceededError.required": "the exact q^k for a caller that catches "
    "the refusal; the message writes it as a power",
}


def test_every_module_level_name_is_reached():
    # a function or class that no other code in the package names, that
    # the package does not export and that the tracer does not wrap is
    # reached only by its own tests; it goes with them
    wrapped = {attr for _, attr in _load_tracer().wrapped_attributes(aeaqecc)}
    top = []  # (file, top-level node, names it uses)
    for path in sorted(Path(aeaqecc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = _module_aliases(tree)
        top += [(path.name, node, set(_names(node, modules))) for node in tree.body]
    unreached = [
        f"{fname}:{node.name}"
        for fname, node, _ in top
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in aeaqecc.__all__
        and node.name not in wrapped
        and node.name not in _UNREACHED_BY_DESIGN
        and not any(node.name in used for _, other, used in top if other is not node)
    ]
    assert unreached == []


def _module_aliases(tree) -> set:
    """Names that a module's import statements bind to modules (np, sys)."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _names(node, modules) -> Counter:
    """Every name and attribute name used under node, with its count.

    An attribute of an imported module (np.full, sys.stderr) names
    something outside the package, so it does not count."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name)
        or (isinstance(n, ast.Attribute)
            and not (isinstance(n.value, ast.Name) and n.value.id in modules))
    )


def test_every_method_is_reached():
    # the same rule one level down: a method that nothing else in the
    # package names is reached only by its own tests, unless
    # _UNREACHED_BY_DESIGN keeps it as public API; dunder methods run
    # through the language
    wrapped = {attr for _, attr in _load_tracer().wrapped_attributes(aeaqecc)}
    trees = [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(aeaqecc.__file__).parent.glob("*.py"))
    ]
    modules = [_module_aliases(tree) for tree in trees]
    used = sum((_names(tree, m) for tree, m in zip(trees, modules)), Counter())
    unreached = [
        f"{cls.name}.{node.name}"
        for tree, m in zip(trees, modules)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in wrapped
        and f"{cls.name}.{node.name}" not in _UNREACHED_BY_DESIGN
        and used[node.name] == _names(node, m)[node.name]
    ]
    assert unreached == []
