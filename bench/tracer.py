"""Span tracer that wraps the package's layer functions from outside.

Each wrapped call records a span: its name, start, end and parent span.
Two scalar functions called hundreds of thousands of times per workload,
``FiniteField.trace`` and ``codes.mat_vec``, get a call counter and summed
time instead of one span per call.

Functions are wrapped at the name their caller looks up: ``codes`` imports
``mat_vec`` from ``linalg`` by name, so wrapping ``linalg.mat_vec`` would
see no call at all.  ``restore`` puts every original object back.

A span's self time is its duration minus the time its child spans cover.
The time spent in ``codes.mat_vec`` runs inside the enumeration scan (it
is the membership callback of ``codes.relative_min_weight``), so it moves
from the scan's self time to the enclosing ``codes.relative_min_weight``
span.  Self times of all spans plus ``other_s`` (traced time no span
covers) add up to the traced wall time.
"""

from __future__ import annotations

import functools
from time import perf_counter

# Layers, in the order the report lists them.
LAYERS = ("cli", "tables", "bch", "eaqecc", "codes", "enumeration", "linalg",
          "fields", "gv")


def _targets(pkg):
    """(owner, attribute, span name) for every function wrapped with a span."""
    cli, tables, bch, eaqecc, codes, linalg, fields, gv = (
        pkg.cli, pkg.tables, pkg.bch, pkg.eaqecc, pkg.codes, pkg.linalg,
        pkg.fields, pkg.gv,
    )
    return [
        (cli, "main", "cli.main"),
        (cli, "reproduce_table1", "tables.reproduce_table1"),
        (cli, "reproduce_table2", "tables.reproduce_table2"),
        (cli, "table1_csv", "tables.csv"),
        (cli, "table2_csv", "tables.csv"),
        (cli, "diff_against_golden", "tables.diff_against_golden"),
        (tables, "cyclotomic_cosets", "bch.cyclotomic_cosets"),
        (tables, "bch_asym_code", "bch.bch_asym_code"),
        (tables, "coset_code", "bch.coset_code"),
        (tables, "hartmann_tzeng_bound", "bch.ht"),
        (tables, "asym_params", "eaqecc.asym_params"),
        (tables, "gv_threshold", "gv.threshold"),
        (tables, "gv_finite_holds", "gv.finite_holds"),
        (bch, "cyclotomic_cosets", "bch.cyclotomic_cosets"),
        (bch, "bch_asym_code", "bch.bch_asym_code"),
        (bch, "coset_code", "bch.coset_code"),
        (bch, "hartmann_tzeng_bound", "bch.ht"),
        (bch, "splitting_field", "bch.splitting_field"),
        (bch, "evaluation_code", "bch.evaluation_code"),
        (bch, "subfield_subcode", "bch.subfield_subcode"),
        (bch, "asym_params", "eaqecc.asym_params"),
        (bch, "primitive_nth_root", "fields.primitive_nth_root"),
        (eaqecc, "asym_params", "eaqecc.asym_params"),
        (eaqecc, "entanglement_c", "eaqecc.entanglement_c"),
        (eaqecc, "relative_min_weight", "codes.relative_min_weight"),
        (eaqecc, "mat_mul", "linalg.mat_mul"),
        (codes, "min_weight", "codes.min_weight"),
        (codes, "minimum_weight_scan", "enumeration.scan"),
        (codes.LinearCode, "__init__", "codes.linear_code"),
        (linalg, "rref", "linalg.rref"),
        (fields.FiniteField, "__init__", "fields.build"),
        (fields.SubfieldEmbedding, "__init__", "fields.embedding"),
        (gv, "gv_threshold", "gv.threshold"),
    ]


def _hot_targets(pkg):
    """(owner, attribute, counter name, span its time is credited to)."""
    return [
        (pkg.fields.FiniteField, "trace", "fields.trace", None),
        (pkg.codes, "mat_vec", "codes.mat_vec", "codes.relative_min_weight"),
    ]


class Span:
    __slots__ = ("name", "start", "end", "parent", "child", "moved", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child = 0.0  # time covered by direct child spans
        self.moved = 0.0  # hot-call time credited in (+) or out (-)
        self.attrs = None

    @property
    def self_time(self) -> float:
        return (self.end - self.start) - self.child + self.moved


class Tracer:
    """Records spans in memory; one tracer per traced workload run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.hot_calls: dict[str, int] = {}
        self.hot_time: dict[str, float] = {}

    def enter(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, perf_counter(), parent)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start

    def hot(self, name: str, elapsed: float, credit_to: str | None) -> None:
        self.hot_calls[name] = self.hot_calls.get(name, 0) + 1
        self.hot_time[name] = self.hot_time.get(name, 0.0) + elapsed
        if credit_to is None or not self.stack:
            return
        for span in reversed(self.stack):
            if span.name == credit_to:
                if span is not self.stack[-1]:
                    self.stack[-1].moved -= elapsed
                    span.moved += elapsed
                return


def _span_wrapper(fn, name, tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(span)
    return wrapper


def _scan_wrapper(fn, name, tracer, refused_error):
    """Span that also records the layout, the words visited and refusals."""
    @functools.wraps(fn)
    def scan(gen, field, *args, **kwargs):
        span = tracer.enter(name)
        span.attrs = {"layout": "packed" if field.p == 2 else "planes",
                      "words": 0, "refused": False}
        try:
            value, visited = fn(gen, field, *args, **kwargs)
        except refused_error:
            span.attrs["refused"] = True
            raise
        finally:
            tracer.exit(span)
        span.attrs["words"] = visited
        return value, visited
    return scan


def _hot_wrapper(fn, name, credit_to, tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.hot(name, perf_counter() - t0, credit_to)
    return wrapper


def install(tracer: Tracer, pkg) -> list:
    """Wrap every target of the imported package ``pkg`` with ``tracer``.

    Returns the patches for ``restore``.
    """
    patches = []
    try:
        for owner, attr, name in _targets(pkg):
            original = owner.__dict__[attr]
            if name == "enumeration.scan":
                wrapper = _scan_wrapper(original, name, tracer,
                                        pkg.errors.BudgetExceededError)
            else:
                wrapper = _span_wrapper(original, name, tracer)
            setattr(owner, attr, wrapper)
            patches.append((owner, attr, original))
        for owner, attr, name, credit_to in _hot_targets(pkg):
            original = owner.__dict__[attr]
            setattr(owner, attr, _hot_wrapper(original, name, credit_to, tracer))
            patches.append((owner, attr, original))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list) -> None:
    """Put back every original object ``install`` replaced."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def wrapped_attributes(pkg):
    """(owner, attribute) of everything ``install`` patches, for checks."""
    return [(o, a) for o, a, _ in _targets(pkg)] + [
        (o, a) for o, a, _, _ in _hot_targets(pkg)
    ]


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose timed region took ``wall``."""
    self_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    top = 0.0
    words = {"packed": 0, "planes": 0}
    scan_time = {"packed": 0.0, "planes": 0.0}
    refused = 0
    for span in tracer.spans:
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + span.self_time
        calls_by_name[span.name] = calls_by_name.get(span.name, 0) + 1
        if span.parent is None:
            top += span.end - span.start
        if span.name == "enumeration.scan":
            if span.attrs["refused"]:
                refused += 1
            else:
                layout = span.attrs["layout"]
                words[layout] += span.attrs["words"]
                scan_time[layout] += span.self_time

    def self_s(name):
        return self_by_name.get(name, 0.0)

    def calls(name):
        return calls_by_name.get(name, 0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_by_name.items() if k.split(".", 1)[0] == layer
        )
    out["other_s"] = wall - top
    out["enumeration.scan_s"] = self_s("enumeration.scan")
    out["enumeration.calls"] = calls("enumeration.scan")
    out["enumeration.refused"] = refused
    for layout in ("packed", "planes"):
        out[f"enumeration.words.{layout}"] = words[layout]
        rate = words[layout] / scan_time[layout] if scan_time[layout] > 0 else 0.0
        out[f"enumeration.words_per_s.{layout}"] = rate
    out["codes.relative_min_weight_s"] = self_s("codes.relative_min_weight")
    out["codes.membership_tests"] = tracer.hot_calls.get("codes.mat_vec", 0)
    out["linalg.rref_s"] = self_s("linalg.rref")
    out["linalg.rref_calls"] = calls("linalg.rref")
    out["linalg.mat_mul_s"] = self_s("linalg.mat_mul")
    out["fields.build_s"] = self_s("fields.build")
    out["fields.builds"] = calls("fields.build")
    out["fields.embedding_s"] = self_s("fields.embedding")
    out["fields.trace_calls"] = tracer.hot_calls.get("fields.trace", 0)
    out["fields.trace_s"] = tracer.hot_time.get("fields.trace", 0.0)
    out["bch.subfield_subcode_s"] = self_s("bch.subfield_subcode")
    out["bch.ht_s"] = self_s("bch.ht")
    out["bch.ht_calls"] = calls("bch.ht")
    out["eaqecc.entanglement_c_s"] = self_s("eaqecc.entanglement_c")
    out["eaqecc.asym_params_s"] = self_s("eaqecc.asym_params")
    out["gv.threshold_s"] = self_s("gv.threshold")
    out["gv.threshold_calls"] = calls("gv.threshold")
    return out
