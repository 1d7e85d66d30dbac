"""End-to-end acceptance checks, one per shipped claim.

Each test prints a single "criterion N (...): PASS/FAIL" line.  A FAIL
line means the pipeline's verified output contradicts the published
table cell the claim quotes; the mismatching cells are listed in the
assertion message rather than patched over.

The printed distances are designed lower bounds.  Exhaustive
enumeration confirms every one of them and beats three: table 1 row 4
(dz 11 and dx 8 against 9 and 6) and table 2 row 29 (dz 8 against 7).
The printed threshold columns of table 1 follow the per-coordinate
reading on all 22 rows (the largest dz the bound grants with dx = 1,
and the largest dx with dz = 1), while `gv_threshold` returns the
jointly granted pair; the two differ on rows 6 and 22.  Criteria 2 and
3 pass only when the disagreeing cells are exactly the declared ones in
`test_tables`, and their verdict lines name them.
"""

import random
import time

import pytest

from aeaqecc.bch import bch_asym_code, coset_code, cyclotomic_cosets, \
    dual_defining_set, subfield_subcode, evaluation_code, splitting_field
from aeaqecc.codes import LinearCode
from aeaqecc.eaqecc import css_stack, enlargement_demo, entanglement_c, symplectic_c
from aeaqecc.fields import field_create, prime_power_decomposition
from aeaqecc.gv import (
    GvQuery,
    asymptotic_params,
    gv_asymptotic_holds,
    gv_finite_holds,
    gv_finite_sum,
    gv_threshold,
)
from aeaqecc.linalg import mat_mul, rank, row_space_intersect
from aeaqecc.tables import TABLE1, TABLE2, golden_lines, reproduce_table1, \
    reproduce_table2

from test_tables import BAD_THRESHOLD_ROWS, TABLE1_SHARPER, TABLE2_SHARPER


@pytest.fixture(scope="module")
def results1():
    return reproduce_table1()


@pytest.fixture(scope="module")
def results2():
    return reproduce_table2()


def _verdict(num: int, name: str, problems: list, cells: str = ""):
    status = "FAIL" if problems else "PASS"
    line = f"criterion {num} ({name}): {status}"
    if cells:
        line += f"; {cells}"
    print(line)
    assert not problems, line + "\n" + "\n".join(str(p) for p in problems)


def test_criterion_1_table1_reproduction():
    start = time.monotonic()
    problems = []
    for i, row in enumerate(TABLE1, start=1):
        structure = cyclotomic_cosets(row.n, row.q)
        t = len(row.c1_labels) - 1
        s = len(row.c2_labels) - 1
        built = bch_asym_code(structure, s, t, budget=0)
        p = built.params
        if (p.k1, p.k2, p.c) != (row.k1, row.k2, row.c):
            problems.append(f"row {i}: (k1,k2,c) = {(p.k1, p.k2, p.c)}, "
                            f"table has {(row.k1, row.k2, row.c)}")
        if (built.dz_bound, built.dx_bound) != (row.dz, row.dx):
            problems.append(f"row {i}: bounds {(built.dz_bound, built.dx_bound)}, "
                            f"table has {(row.dz, row.dx)}")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, limit is one minute")
    _verdict(1, "table 1 parameters and distance bounds", problems)


def _largest_granted(query_at, n: int) -> int:
    """Largest d <= n+1 the bound grants; the sum is monotone in d."""
    d = 1
    while d <= n and gv_finite_holds(query_at(d + 1)):
        d += 1
    return d


def test_criterion_2_gv_exceedance_and_thresholds():
    problems = []
    joint_differs = []
    for i, row in enumerate(TABLE1, start=1):
        shape = (row.q, row.n, row.k1, row.k2, row.c)
        if gv_finite_holds(GvQuery(*shape, row.dz, row.dx)):
            problems.append(f"row {i}: bound still holds at the table distances")
        printed = (row.thr_dz, row.thr_dx)
        per_coordinate = (
            _largest_granted(lambda d: GvQuery(*shape, d, 1), row.n),
            _largest_granted(lambda d: GvQuery(*shape, 1, d), row.n),
        )
        if per_coordinate != printed:
            problems.append(f"row {i}: per-coordinate thresholds are "
                            f"{per_coordinate}, table prints {printed}")
        pair = gv_threshold(*shape)
        joint = (pair.dz_threshold, pair.dx_threshold)
        expected = BAD_THRESHOLD_ROWS.get(i, printed)
        if joint != expected:
            problems.append(f"row {i}: joint threshold search yields {joint}, "
                            f"expected {expected}")
        total = gv_finite_sum(GvQuery(*shape, *printed))
        if (total >= 1) != (i in BAD_THRESHOLD_ROWS):
            problems.append(f"row {i}: at the printed pair the defining sum is "
                            f"{float(total):.6f}, against the declared rows "
                            f"{sorted(BAD_THRESHOLD_ROWS)}")
        if joint != printed:
            joint_differs.append(f"row {i} joint {joint} vs printed {printed}")
    _verdict(2, "finite GV exceedance and per-coordinate thresholds", problems,
             "joint pair differs on " + (", ".join(joint_differs) or "no row"))


def _declared_sharper_cells() -> dict:
    cells = {}
    for index, values in TABLE1_SHARPER.items():
        row = TABLE1[index - 1]
        for side, value, printed in zip(("dz", "dx"), values, (row.dz, row.dx)):
            if value != printed:
                cells[f"table 1 row {index} {side}"] = value
    for index, value in TABLE2_SHARPER.items():
        cells[f"table 2 row {index} dz"] = value
    return cells


def test_criterion_3_exhaustive_distance_confirmation(results1, results2):
    start = time.monotonic()
    problems = []
    sharper = {}

    def check(cell, report, printed, floor):
        if not report.exact:
            if report.value != floor:
                problems.append(f"{cell}: bound-only value should sit at {floor}")
        elif report.value < printed:
            problems.append(f"{cell}: exhaustive value {report.value} is below "
                            f"the printed designed value {printed}")
        elif report.value > printed:
            sharper[cell] = report.value

    for r in results1:
        for side, printed, floor in (("dz", r.row.dz, r.built.dz_bound),
                                     ("dx", r.row.dx, r.built.dx_bound)):
            check(f"table 1 row {r.index} {side}", getattr(r.params, side),
                  printed, floor)
    for r in results2:
        for side, floor in (("dz", r.built.dz_bound), ("dx", r.built.dx_bound)):
            check(f"table 2 row {r.index} {side}", getattr(r.params, side),
                  r.row.d, floor)
    declared = _declared_sharper_cells()
    for cell in sorted(sharper.keys() | declared.keys()):
        if sharper.get(cell) != declared.get(cell):
            problems.append(f"{cell}: exhaustive value above the printed one is "
                            f"{sharper.get(cell)}, declared {declared.get(cell)}")
    elapsed = time.monotonic() - start
    if elapsed >= 1800:
        problems.append(f"took {elapsed:.0f}s, limit is thirty minutes")
    _verdict(3, "exhaustive distances vs printed designed values", problems,
             "sharper than printed: " + (", ".join(
                 f"{cell} = {value}" for cell, value in sharper.items())
                 or "no cell"))


def test_criterion_4_table2_reproduction(results2):
    problems = []
    for r in results2:
        row = r.row
        if (r.params.k1, r.params.k2, r.params.c) != (row.k1, row.k2, row.c):
            problems.append(f"row {r.index}: (k1,k2,c) = "
                            f"{(r.params.k1, r.params.k2, r.params.c)}, table "
                            f"has {(row.k1, row.k2, row.c)}")
        c1 = coset_code(row.n, row.q, row.c1_labels)
        c2 = coset_code(row.n, row.q, row.c2_labels)
        by_rank = rank(mat_mul(c1.gen, c2.gen.transpose()))
        by_dim1 = c1.k - row_space_intersect(c1.gen, c2.parity_check).rows
        by_dim2 = c2.k - row_space_intersect(c2.gen, c1.parity_check).rows
        if not by_rank == by_dim1 == by_dim2 == row.c:
            problems.append(f"row {r.index}: c three ways "
                            f"{(by_rank, by_dim1, by_dim2)} vs table {row.c}")
    _verdict(4, "table 2 parameters with c three ways", problems)


def test_criterion_5_highlighted_codes(results1, results2):
    problems = []
    first = results1[0].params
    if (first.q, first.n, first.k, first.c, first.dz.value,
            first.dx.value) != (4, 15, 12, 1, 3, 2):
        problems.append(f"expected [[15, 12, 3/2; 1]]_4, got {first.display()}")
    second = results1[1].params
    if (second.q, second.n, second.k, second.c, second.dz.value,
            second.dx.value) != (5, 24, 19, 3, 4, 3):
        problems.append(f"expected [[24, 19, 4/3; 3]]_5, got {second.display()}")
    small = results2[0].params
    if (small.q, small.n, small.k, small.dz.value) != (2, 15, 4, 8):
        problems.append(f"expected [[15, 4, 8]]_2, got {small.display()}")
    if small.k != small.n - small.k1 - small.k2 + small.c or small.c != 11:
        problems.append(f"k arithmetic wants c = 11, got c = {small.c}")
    larger = results2[7].params
    if (larger.q, larger.n, larger.k, larger.c, larger.dz.value) != (2, 31, 25, 6, 4):
        problems.append(f"expected [[31, 25, 4; 6]]_2, got {larger.display()}")
    _verdict(5, "highlighted parameter tuples", problems)


def test_criterion_6_enlargement_demo():
    problems = []
    for p, r in ((7, 1), (2, 3)):
        field = field_create(p, r)
        before, after = enlargement_demo(field)
        checks = [
            (before.dz.value == 2 and before.dz.exact, "before dz exactly 2"),
            (after.dz.value >= 3 and after.dz.exact, "after dz at least 3"),
            (before.dx == after.dx, "dx untouched"),
            (before.k == after.k, "logical size untouched"),
        ]
        for ok, what in checks:
            if not ok:
                problems.append(f"order {field.order}: {what} fails")
    _verdict(6, "enlargement raises dz only", problems)


def _random_closed_set(rng, structure):
    count = rng.randint(0, 4)
    return structure.closure(rng.sample(range(structure.n), count))


def _random_code(rng, field, n):
    k = rng.randint(0, n)
    rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(k)]
    return LinearCode.from_rows(field, rows, n=n)


def test_criterion_7_property_suites():
    rng = random.Random(20260822)
    problems = []

    pairs = sorted({(row.q, row.n) for row in TABLE1}
                   | {(row.q, row.n) for row in TABLE2})
    for q, n in pairs:
        structure = cyclotomic_cosets(n, q)
        big = splitting_field(n, q)
        for _ in range(100):
            delta = _random_closed_set(rng, structure)
            expected = sum(structure.size_of(a) for a in structure.reps_in(delta))
            code = subfield_subcode(evaluation_code(big, n, delta), q)
            if code.k != expected:
                problems.append(f"({q},{n}) delta {delta}: dim {code.k} != "
                                f"coset-size sum {expected}")
            dual = dual_defining_set(structure, delta)
            if subfield_subcode(evaluation_code(big, n, dual), q) != code.dual():
                problems.append(f"({q},{n}) delta {delta}: dual set {dual} "
                                "does not define the dual code")
            if dual_defining_set(structure, dual) != delta:
                problems.append(f"({q},{n}) delta {delta}: dual set fails "
                                "to involute")

    for q in (2, 3, 4, 5, 7, 8, 9):
        field = field_create(*prime_power_decomposition(q))
        for _ in range(100):
            n = rng.randint(2, 8)
            a = _random_code(rng, field, n)
            b = _random_code(rng, field, n)
            c = entanglement_c(a, b)
            if c != entanglement_c(b, a):
                problems.append(f"q={q}: entanglement count not symmetric")
            by_dim1 = a.k - row_space_intersect(a.gen, b.parity_check).rows
            by_dim2 = b.k - row_space_intersect(b.gen, a.parity_check).rows
            if not c == by_dim1 == by_dim2:
                problems.append(f"q={q}: rank and dimension formulas disagree")
            if symplectic_c(*css_stack(a, b)) != c:
                problems.append(f"q={q}: symplectic count diverges")

    shapes = [(2, 15, 7, 5, 3), (4, 15, 3, 1, 1), (5, 24, 5, 3, 3),
              (9, 40, 10, 5, 5)]
    for q, n, k1, k2, c in shapes:
        grid = {(dz, dx): gv_finite_sum(GvQuery(q, n, k1, k2, c, dz, dx))
                for dz in range(1, 7) for dx in range(1, 7)}
        for (dz, dx), value in grid.items():
            if dz > 1 and not grid[(dz - 1, dx)] <= value:
                problems.append(f"sum not monotone in dz at {(q, n, dz, dx)}")
            if dx > 1 and not grid[(dz, dx - 1)] <= value:
                problems.append(f"sum not monotone in dx at {(q, n, dz, dx)}")

    _verdict(7, "randomized identity and monotonicity suites", problems)


def test_criterion_8_declared_limits(results1, results2):
    problems = []

    # large-field rows stay bound-only: both dual sides overflow the budget
    for r in results1:
        if r.row.q not in (16, 25):
            continue
        for side, dim in (("dz", r.row.n - r.row.k1), ("dx", r.row.n - r.row.k2)):
            if r.row.q ** dim <= 1 << 26:
                problems.append(f"table 1 row {r.index}: {side} side is small "
                                "enough to enumerate after all")
            report = getattr(r.params, side)
            if report.exact:
                problems.append(f"table 1 row {r.index}: {side} unexpectedly exact")

    # the asymptotic statement is exercised only as inequality arithmetic
    if not gv_asymptotic_holds("0.5", "0.5", "0.01", "0.01", "0.1", 2):
        problems.append("asymptotic inequality fails at an interior point")
    if gv_asymptotic_holds("0.5", "0.5", "0.4", "0.01", "0.1", 2):
        problems.append("asymptotic inequality holds at an entropy-violating point")
    target = asymptotic_params("0.5", "0.5", "0.01", "0.01", "0.1", 1000, 2)
    if target.k != 100 or target.c != 100:
        problems.append(f"asymptotic target tuple off: k={target.k}, c={target.c}")

    # the symmetric-distance column is carried along, never recomputed
    golden = golden_lines(2)
    header = golden[0].split(",")
    col = header.index("d_sym")
    for row, line in zip(TABLE2, golden[1:]):
        cells = line.split(",")
        if int(cells[col]) != row.d_sym:
            problems.append(f"carried d_sym diverges on line {cells[0]}")
        if not 1 <= row.d_sym <= row.d:
            problems.append(f"carried d_sym outside [1, d] on row {cells[0]}")

    _verdict(8, "declared non-reproducibles", problems)
