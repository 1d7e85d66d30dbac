"""Workload inputs (made from a seed) and the code that runs and checks them.

The generators import nothing from the package: they compute cyclotomic
cosets themselves, so the inputs do not depend on the code under test.
The program receives only the generated inputs.

* ``tables``: ``aeaqecc tables --which all --format csv`` through
  ``cli.main`` at the default budget.  Its inputs are the published rows,
  so the seed is not used.
* ``bch_sweep``: ``bch_asym_code(structure, s, t, budget=2**16)`` followed
  by ``gv_threshold`` on the result.  The (q, n) pairs are fixed: every
  q in {2,3,4,5,7,8,9} and n <= 45 coprime to q whose splitting field has
  at most 2^12 elements (GF(2^11) left out) and at least three cosets.  The
  seed draws three (s, t) per pair, stratified so that each pair's draws
  spread over small, middle and large t and s; every run builds the same
  fields and does nearly the same work.
* ``label_sweep``: the ``bch-construct --labels1/--labels2`` library path
  (``coset_code`` twice, ``hartmann_tzeng_bound`` twice, then
  ``asym_params`` at the CLI's floor budget of 1024 with the bounds as
  floors), followed by ``gv_threshold``.  The (q, n) pairs are fixed; the
  seed draws the sizes and cosets of four label sets per pair, which make
  two label pairs.  Each label set spans at most
  (n - 1) / 2 exponents, so |D1| + |D2| < n.  A pair is degenerate only
  when -D1 and D2 together (or -D2 and D1) cover all n exponents, so no
  draw can be degenerate and nothing needs to be filtered out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from math import gcd
from pathlib import Path

BCH_BUDGET = 1 << 16
LABEL_BUDGET = 1 << 10
BCH_QS = (2, 3, 4, 5, 7, 8, 9)
BCH_MAX_N = 45
BCH_MAX_FIELD = 1 << 12
# GF(2^11) is the one splitting field in range with dense 2048 x 2048 pair
# tables: 1.5 s and 700 MB per build, more than all the construction work.
BCH_SKIP_FIELDS = (1 << 11,)
BCH_DRAWS = 3
LABEL_PAIRS = (
    (2, 85), (2, 63), (4, 63), (8, 63), (3, 80), (9, 80), (5, 62), (7, 57),
    (16, 51), (4, 51), (25, 48), (7, 48),
)
LABEL_DRAWS = 2

WORKLOADS = ("tables", "bch_sweep", "label_sweep")
TABLES_ARGV = ["tables", "--which", "all", "--format", "csv"]


# -- input generation ----------------------------------------------------

def cosets(n: int, q: int) -> list[tuple[int, ...]]:
    """q-cyclotomic cosets of Z_n, ordered by their smallest element."""
    if gcd(n, q) != 1:
        raise ValueError(f"n={n} and q={q} must be coprime")
    seen: set[int] = set()
    out = []
    for a in range(n):
        if a in seen:
            continue
        orbit = {a}
        x = a * q % n
        while x != a:
            orbit.add(x)
            x = x * q % n
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return out


def splitting_order(n: int, q: int) -> int:
    """Number of elements of the smallest extension of GF(q) with n-th roots."""
    m, x = 1, q % n
    while x != 1:
        x = x * q % n
        m += 1
    return q**m


def bch_pairs() -> list[tuple[int, int]]:
    out = []
    for q in BCH_QS:
        for n in range(2, BCH_MAX_N + 1):
            if gcd(n, q) != 1:
                continue
            order = splitting_order(n, q)
            if order > BCH_MAX_FIELD or order in BCH_SKIP_FIELDS:
                continue
            if len(cosets(n, q)) >= 3:
                out.append((q, n))
    return out


def _spread(rng: random.Random, k: int) -> list[float]:
    """k draws from [0, 1), one in each k-th of the interval, in random order.

    Stratified draws keep the total work of a sweep nearly the same from
    seed to seed while every single input still varies.
    """
    slots = list(range(k))
    rng.shuffle(slots)
    return [(j + rng.random()) / k for j in slots]


def _bch_sweep(rng: random.Random) -> list[list[int]]:
    inputs = []
    for q, n in bch_pairs():
        z = len(cosets(n, q)) - 1
        for f, g in zip(_spread(rng, BCH_DRAWS), _spread(rng, BCH_DRAWS)):
            t = 1 + int(f * (z - 1))
            inputs.append([q, n, int(g * t), t])
    return inputs


def _label_set(rng: random.Random, n: int, q: int, target: int) -> list[int]:
    """Representatives of random cosets that together cover at most
    ``target`` exponents, adding cosets while they fit."""
    orbits = cosets(n, q)
    rng.shuffle(orbits)
    labels, size = [], 0
    for orbit in orbits:
        if size + len(orbit) <= target:
            labels.append(orbit[0])
            size += len(orbit)
    return sorted(labels)


def _label_sweep(rng: random.Random) -> list[list]:
    inputs = []
    for q, n in LABEL_PAIRS:
        cap = (n - 1) // 2
        targets = [1 + int(f * cap) for f in _spread(rng, 2 * LABEL_DRAWS)]
        sets = [_label_set(rng, n, q, target) for target in targets]
        inputs += [[q, n, sets[2 * i], sets[2 * i + 1]] for i in range(LABEL_DRAWS)]
    return inputs


def make_inputs(workload: str, seed: int):
    """The workload's inputs; the same seed always gives the same inputs."""
    rng = random.Random(seed)
    if workload == "tables":
        return TABLES_ARGV
    if workload == "bch_sweep":
        return _bch_sweep(rng)
    if workload == "label_sweep":
        return _label_sweep(rng)
    raise ValueError(f"unknown workload {workload!r}")


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- running (inside the worker process) ---------------------------------

def run(workload: str, inputs, pkg):
    """Run the workload's program calls; returns raw results for ``check``.

    Only program work happens here, so the caller can time exactly this.
    An exception is recorded with its input and never stops the run.
    """
    if workload == "tables":
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = pkg.cli.main(list(inputs))
        except Exception as exc:  # a crash is a failed workload, not a harness error
            return {"error": repr(exc), "stdout": out.getvalue(), "stderr": err.getvalue()}
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    results = []
    if workload == "bch_sweep":
        for q, n, s, t in inputs:
            try:
                structure = pkg.bch.cyclotomic_cosets(n, q)
                built = pkg.bch.bch_asym_code(structure, s, t, BCH_BUDGET)
                p = built.params
                thr = pkg.gv.gv_threshold(q, n, p.k1, p.k2, p.c)
                results.append((p, built.dz_bound, built.dx_bound, thr))
            except Exception as exc:
                results.append(exc)
        return results
    for q, n, labels1, labels2 in inputs:
        try:
            structure = pkg.bch.cyclotomic_cosets(n, q)
            delta1 = structure.closure(labels1)
            delta2 = structure.closure(labels2)
            c1 = pkg.bch.coset_code(n, q, labels1)
            c2 = pkg.bch.coset_code(n, q, labels2)
            dz_bound = pkg.bch.hartmann_tzeng_bound(n, delta1)
            dx_bound = pkg.bch.hartmann_tzeng_bound(n, delta2)
            p = pkg.eaqecc.asym_params(
                c1, c2, LABEL_BUDGET, dz_floor=dz_bound, dx_floor=dx_bound
            )
            thr = pkg.gv.gv_threshold(q, n, p.k1, p.k2, p.c)
            results.append((p, dz_bound, dx_bound, thr))
        except Exception as exc:
            results.append(exc)
    return results


def _golden_text(pkg) -> str:
    data = Path(pkg.__file__).parent / "data"
    return "".join((data / f"table{i}.csv").read_text() for i in (1, 2))


def _check_tables(raw, pkg) -> dict:
    golden = _golden_text(pkg)
    rows = sum(1 for line in golden.splitlines() if not line.startswith("row,"))
    text = raw["stdout"]
    failures: list[str] = []
    failed = rows  # unless the difference is confined to some rows
    if "error" in raw:
        failures = [f"tables: raised {raw['error']}"]
    elif raw["exit"] != 0:
        failures = [f"tables: exit code {raw['exit']}: {raw['stderr'].strip()}"]
    elif text != golden:
        got, want = text.splitlines(), golden.splitlines()
        failures = [f"tables: line {i + 1} is {g!r}, golden has {w!r}"
                    for i, (g, w) in enumerate(zip(got, want)) if g != w]
        if len(got) == len(want) and failures:
            failed = len(failures)
        else:
            failures.append("tables: csv output is not byte-identical to the goldens")
    else:
        failed = 0
    exact = cells = 0
    header = None
    for line in text.splitlines():
        fields = line.split(",")
        if fields[0] == "row":
            header = fields
            continue
        if header is None or len(fields) != len(header):
            continue
        for col in ("dz_exact", "dx_exact"):
            cells += 1
            exact += fields[header.index(col)] == "true"
    return {
        "ops": rows,
        "failed": failed,
        "failures": failures,
        "exact_cells": exact,
        "bound_cells": cells - exact,
        "degenerate": 0,
        "outputs": digest(text),
    }


def _check_pair(params, floors, expected) -> list[str]:
    """Violations of the invariants every parameterised pair must meet.

    ``expected`` holds k1 and k2 from the benchmark's own coset sizes, and
    the expected c or None.
    """
    p = params
    bad = []
    if p.k != p.n - p.k1 - p.k2 + p.c:
        bad.append(f"k={p.k} is not n-k1-k2+c={p.n - p.k1 - p.k2 + p.c}")
    for name, report, floor in (("dz", p.dz, floors[0]), ("dx", p.dx, floors[1])):
        if report.exact and report.value < floor:
            bad.append(f"exact {name}={report.value} below its floor {floor}")
        if report.display().startswith(">=") == report.exact:
            bad.append(f"{name} shows {report.display()!r} but exact={report.exact}")
        if report.display() not in p.display():
            bad.append(f"{name} {report.display()!r} missing from {p.display()!r}")
    k1, k2, c = expected
    if (p.k1, p.k2) != (k1, k2):
        bad.append(f"(k1,k2)=({p.k1},{p.k2}), coset sizes give ({k1},{k2})")
    if c is not None and p.c != c:
        bad.append(f"c={p.c}, expected {c}")
    return bad


def _expected_sizes(workload: str, item):
    if workload == "bch_sweep":
        q, n, s, t = item
        sizes = [len(o) for o in cosets(n, q)]
        k2 = sum(sizes[: s + 1])
        return sum(sizes[: t + 1]), k2, k2
    q, n, labels1, labels2 = item
    by_element = {a: len(o) for o in cosets(n, q) for a in o}
    return (sum(by_element[a] for a in labels1),
            sum(by_element[a] for a in labels2), None)


def check(workload: str, inputs, raw, pkg) -> dict:
    """Check the program's outputs; every violation is a failure by input."""
    if workload == "tables":
        return _check_tables(raw, pkg)
    degenerate_error = pkg.errors.DegeneratePairError
    failures, shown = [], []
    exact = cells = degenerate = failed = 0
    for item, result in zip(inputs, raw):
        if isinstance(result, Exception):
            degenerate += isinstance(result, degenerate_error)
            failed += 1
            failures.append(f"{item}: raised {result!r}")
            shown.append(repr(result))
            continue
        params, dz_bound, dx_bound, thr = result
        bad = _check_pair(params, (dz_bound, dx_bound), _expected_sizes(workload, item))
        failures += [f"{item}: {b}" for b in bad]
        failed += bool(bad)
        exact += params.dz.exact + params.dx.exact
        cells += 2
        shown.append([params.display(), params.k1, params.k2,
                      thr.dz_threshold, thr.dx_threshold])
    return {
        "ops": len(inputs),
        "failed": failed,
        "failures": failures,
        "exact_cells": exact,
        "bound_cells": cells - exact,
        "degenerate": degenerate,
        "outputs": digest(shown),
    }
