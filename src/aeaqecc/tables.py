"""The two published BCH-based code tables and their reproduction.

Each row records the classical pair through cyclotomic-coset labels.  The
first table uses the reciprocal-coset pairing (so c = k2 and distances
carry consecutive-run floors); the second pairs plain coset unions and
takes its distance floors from the arithmetic-progression bound.  The
`d` columns of the source tables are designed values; exhaustive
enumeration can beat them, so reproduction reports bounds and exact
values separately and the golden files freeze both.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .bch import (
    BchConstruction,
    CosetStructure,
    bch_asym_code,
    coset_code,
    cyclotomic_cosets,
    hartmann_tzeng_bound,
    reciprocal_rep,
)
from .eaqecc import AsymEaqeccParams, asym_params
from .enumeration import DEFAULT_BUDGET
from .gv import GvQuery, ThresholdPair, gv_finite_holds, gv_threshold


@dataclass(frozen=True)
class Table1Row:
    q: int
    n: int
    k1: int
    k2: int
    c: int
    dz: int
    dx: int
    thr_dz: int
    thr_dx: int
    c1_labels: tuple[int, ...]
    c2_labels: tuple[int, ...]
    note: str = ""


@dataclass(frozen=True)
class Table2Row:
    q: int
    n: int
    k1: int
    k2: int
    c: int
    d: int
    d_sym: int
    c1_labels: tuple[int, ...]
    c2_labels: tuple[int, ...]
    note: str = ""


TABLE1 = (
    Table1Row(4, 15, 3, 1, 1, 3, 2, 2, 1, (0, 1), (0,)),
    Table1Row(5, 24, 5, 3, 3, 4, 3, 2, 2, (0, 1, 2), (0, 23)),
    Table1Row(7, 19, 7, 4, 4, 5, 3, 4, 2, (0, 1, 2), (0, 18)),
    Table1Row(7, 19, 13, 10, 10, 9, 6, 8, 6, (0, 1, 2, 4, 5), (0, 15, 17, 18)),
    Table1Row(8, 63, 7, 1, 1, 5, 2, 3, 1, (0, 1, 2, 3), (0,)),
    Table1Row(8, 63, 11, 3, 3, 7, 3, 5, 2, (0, 1, 2, 3, 4, 5), (0, 62)),
    Table1Row(9, 40, 10, 5, 5, 7, 4, 5, 3, (0, 1, 2, 3, 4, 5), (0, 38, 39)),
    Table1Row(9, 40, 12, 3, 3, 8, 3, 6, 2, (0, 1, 2, 3, 4, 5, 6), (0, 39)),
    Table1Row(9, 40, 12, 7, 7, 8, 5, 6, 3, (0, 1, 2, 3, 4, 5, 6), (0, 37, 38, 39)),
    Table1Row(16, 51, 9, 3, 3, 6, 3, 5, 2, (0, 1, 2, 3, 4), (0, 50)),
    Table1Row(
        16, 51, 11, 1, 1, 7, 2, 6, 1, (0, 1, 2, 3, 4, 5), (0,),
        note="labels repaired: the source row repeats the previous row's sets",
    ),
    Table1Row(16, 51, 11, 3, 3, 7, 3, 6, 2, (0, 1, 2, 3, 4, 5), (0, 50)),
    Table1Row(16, 51, 17, 5, 5, 10, 4, 10, 3,
              (0, 1, 2, 3, 4, 5, 6, 7, 8), (0, 49, 50)),
    Table1Row(16, 51, 19, 5, 5, 12, 4, 11, 3,
              (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), (0, 49, 50)),
    Table1Row(16, 51, 23, 3, 3, 15, 3, 14, 2,
              (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12), (0, 50)),
    Table1Row(16, 51, 23, 9, 9, 15, 6, 14, 5,
              (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12), (0, 47, 48, 49, 50)),
    Table1Row(16, 51, 27, 5, 5, 18, 4, 17, 3,
              (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 14, 15), (0, 49, 50)),
    Table1Row(25, 48, 6, 4, 4, 5, 4, 4, 2, (0, 1, 2, 3), (0, 46, 47)),
    Table1Row(25, 48, 10, 4, 4, 8, 4, 6, 2,
              (0, 1, 2, 3, 4, 5, 6), (0, 46, 47)),
    Table1Row(25, 48, 10, 7, 7, 8, 6, 6, 4,
              (0, 1, 2, 3, 4, 5, 6), (0, 44, 45, 46, 47)),
    Table1Row(25, 48, 12, 3, 3, 9, 3, 7, 2,
              (0, 1, 2, 3, 4, 5, 6, 7), (0, 47)),
    Table1Row(25, 48, 12, 6, 6, 9, 5, 7, 4,
              (0, 1, 2, 3, 4, 5, 6, 7), (0, 45, 46, 47)),
)

TABLE2 = (
    Table2Row(
        2, 15, 11, 11, 11, 8, 6, (0, 1, 3, 5), (0, 3, 5, 7),
        note="second label set repaired: as printed it also lists coset 1 "
             "and that would make k2 = 15",
    ),
    Table2Row(2, 15, 10, 10, 10, 7, 6, (1, 3, 5), (3, 5, 7)),
    Table2Row(2, 15, 9, 9, 9, 6, 5, (0, 1, 3), (0, 3, 7)),
    Table2Row(2, 15, 7, 5, 1, 4, 3, (0, 1, 5), (0, 1)),
    Table2Row(2, 15, 10, 10, 6, 7, 6, (1, 3, 5), (1, 3, 5)),
    Table2Row(2, 15, 14, 14, 14, 15, 11, (1, 3, 5, 7), (1, 3, 5, 7)),
    Table2Row(2, 15, 13, 13, 13, 10, 9, (0, 1, 3, 7), (0, 1, 3, 7)),
    Table2Row(2, 31, 6, 6, 6, 4, 2, (0, 1), (0, 15)),
    Table2Row(2, 31, 11, 11, 1, 6, 5, (0, 1, 3), (0, 1, 3)),
    Table2Row(2, 31, 5, 5, 5, 3, 2, (1,), (15,)),
    Table2Row(2, 31, 21, 21, 16, 12, 11, (0, 1, 5, 7, 15), (0, 3, 7, 11, 15)),
    Table2Row(2, 31, 20, 20, 15, 11, 10, (1, 5, 7, 15), (3, 7, 11, 15)),
    Table2Row(2, 31, 10, 10, 10, 5, 4, (1, 3), (7, 15)),
    Table2Row(2, 63, 7, 7, 7, 4, 2, (0, 1), (0, 31)),
    Table2Row(2, 63, 13, 13, 13, 6, 5, (0, 1, 3), (0, 15, 31)),
    Table2Row(2, 63, 9, 7, 7, 4, 3, (0, 1, 21), (0, 31)),
    Table2Row(2, 63, 10, 7, 7, 4, 3, (0, 1, 9), (0, 31)),
    Table2Row(2, 63, 15, 13, 13, 6, 5, (0, 1, 3, 21), (0, 15, 31)),
    Table2Row(2, 63, 19, 19, 19, 8, 7, (0, 1, 3, 5), (0, 15, 23, 31)),
    Table2Row(3, 26, 7, 7, 1, 5, 4, (0, 1, 2), (0, 7, 14)),
    Table2Row(3, 26, 18, 18, 18, 13, 12, (1, 2, 4, 5, 7, 8), (2, 5, 7, 8, 14, 17)),
    Table2Row(4, 15, 4, 4, 1, 4, 3, (0, 1, 5), (0, 1, 5)),
    Table2Row(4, 15, 8, 8, 3, 7, 6, (0, 1, 2, 3, 5), (0, 1, 2, 3, 5)),
    Table2Row(4, 15, 11, 11, 9, 10, 9, (1, 2, 3, 5, 6, 7), (1, 2, 3, 6, 10, 11)),
    Table2Row(4, 17, 4, 4, 4, 4, 3, (6,), (6,)),
    Table2Row(4, 17, 8, 8, 4, 7, 5, (1, 3), (1, 6)),
    Table2Row(4, 17, 13, 13, 13, 12, 10, (0, 1, 2, 3), (0, 1, 2, 3)),
    Table2Row(4, 17, 16, 16, 16, 17, 14, (1, 2, 3, 6), (1, 2, 3, 6)),
    Table2Row(4, 17, 9, 8, 8, 7, 6, (0, 1, 3), (1, 3)),
    Table2Row(5, 24, 4, 4, 4, 4, 3, (0, 1, 6), (0, 18, 19)),
    Table2Row(5, 24, 4, 4, 1, 4, 3, (0, 1, 6), (12, 13, 18)),
    Table2Row(5, 24, 10, 10, 4, 8, 7, (0, 1, 2, 3, 4, 6), (2, 6, 8, 9, 12, 19)),
    Table2Row(5, 24, 5, 4, 4, 4, 3, (0, 1, 6, 12), (0, 18, 19)),
    Table2Row(5, 24, 20, 20, 20, 18, 16,
              (0, 1, 2, 3, 4, 7, 8, 9, 13, 14, 18),
              (0, 2, 3, 4, 6, 7, 8, 9, 13, 14, 19)),
)


@dataclass(frozen=True)
class Table1Result:
    index: int
    row: Table1Row
    built: BchConstruction
    threshold: ThresholdPair
    gv_exceeded: bool

    @property
    def params(self) -> AsymEaqeccParams:
        return self.built.params


@dataclass(frozen=True)
class Table2Result:
    index: int
    row: Table2Row
    built: BchConstruction

    @property
    def params(self) -> AsymEaqeccParams:
        return self.built.params


def _pair_indices(structure, row: Table1Row) -> tuple[int, int]:
    """Recover (s, t) from the listed labels and cross-check the scheme:
    the first set must be the leading representatives, the second the
    reciprocals of the leading ones."""
    t = len(row.c1_labels) - 1
    if tuple(sorted(row.c1_labels)) != structure.reps[: t + 1]:
        raise ValueError(f"row labels {row.c1_labels} are not leading cosets")
    s = len(row.c2_labels) - 1
    reps2 = {structure.rep_of(a) for a in row.c2_labels}
    expected = {reciprocal_rep(structure, a) for a in structure.reps[: s + 1]}
    if reps2 != expected:
        raise ValueError(f"row labels {row.c2_labels} are not reciprocal cosets")
    return s, t


def reproduce_table1(budget: int = DEFAULT_BUDGET) -> list[Table1Result]:
    out = []
    for i, row in enumerate(TABLE1, start=1):
        structure = cyclotomic_cosets(row.n, row.q)
        s, t = _pair_indices(structure, row)
        built = bch_asym_code(structure, s, t, budget)
        threshold = gv_threshold(row.q, row.n, row.k1, row.k2, row.c)
        exceeded = not gv_finite_holds(GvQuery(row.q, row.n, row.k1, row.k2,
                                               row.c, row.dz, row.dx))
        out.append(Table1Result(i, row, built, threshold, exceeded))
    return out


def label_asym_code(
    structure: CosetStructure,
    labels1: tuple[int, ...],
    labels2: tuple[int, ...],
    budget: int = DEFAULT_BUDGET,
) -> BchConstruction:
    """Asymmetric EAQECC from two coset unions picked by label.

    C1 and C2 are the cyclic codes on the closures of labels1 and labels2,
    with the Hartmann-Tzeng bounds of those defining sets as distance
    floors, upgraded to exact values when the enumeration budget allows.
    Table 2 and ``bch-construct --labels1/--labels2`` build their pairs
    here, through this module's names, which the benchmark tracer wraps.
    """
    n, q = structure.n, structure.q
    delta1, delta2 = structure.closure(labels1), structure.closure(labels2)
    c1, c2 = coset_code(n, q, labels1), coset_code(n, q, labels2)
    dz_bound = hartmann_tzeng_bound(n, delta1)
    dx_bound = hartmann_tzeng_bound(n, delta2)
    params = asym_params(c1, c2, budget, dz_floor=dz_bound, dx_floor=dx_bound)
    return BchConstruction(params, c1, c2, delta1, delta2, dz_bound, dx_bound)


def reproduce_table2(budget: int = DEFAULT_BUDGET) -> list[Table2Result]:
    out = []
    for i, row in enumerate(TABLE2, start=1):
        structure = cyclotomic_cosets(row.n, row.q)
        built = label_asym_code(structure, row.c1_labels, row.c2_labels, budget)
        out.append(Table2Result(i, row, built))
    return out


TABLE1_HEADER = (
    "row,q,n,k1,k2,c,dz_bound,dx_bound,thr_dz,thr_dx,"
    "dz_value,dz_exact,dx_value,dx_exact,gv_exceeded,c1,c2,note"
)

TABLE2_HEADER = (
    "row,q,n,k1,k2,c,d,ht_dz,ht_dx,dz_value,dz_exact,dx_value,dx_exact,"
    "d_sym,c1,c2,note"
)


def _labels(values) -> str:
    return " ".join(str(v) for v in values)


def _cells(values) -> str:
    cells = [str(v) for v in values]
    if any("," in c for c in cells):
        raise RuntimeError(f"cells must stay comma-free: {cells}")
    return ",".join(cells)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def table1_csv(results) -> list[str]:
    lines = [TABLE1_HEADER]
    for r in results:
        row, p = r.row, r.params
        lines.append(_cells((
            r.index, row.q, row.n, p.k1, p.k2, p.c,
            r.built.dz_bound, r.built.dx_bound,
            r.threshold.dz_threshold, r.threshold.dx_threshold,
            p.dz.value, _flag(p.dz.exact), p.dx.value, _flag(p.dx.exact),
            _flag(r.gv_exceeded), _labels(row.c1_labels), _labels(row.c2_labels),
            row.note,
        )))
    return lines


def table2_csv(results) -> list[str]:
    lines = [TABLE2_HEADER]
    for r in results:
        row, p = r.row, r.params
        lines.append(_cells((
            r.index, row.q, row.n, p.k1, p.k2, p.c, row.d,
            r.built.dz_bound, r.built.dx_bound,
            p.dz.value, _flag(p.dz.exact), p.dx.value, _flag(p.dx.exact),
            row.d_sym, _labels(row.c1_labels), _labels(row.c2_labels),
            row.note,
        )))
    return lines


def golden_lines(which: int) -> list[str]:
    name = f"table{which}.csv"
    text = resources.files("aeaqecc").joinpath("data").joinpath(name).read_text()
    return text.strip().split("\n")


def diff_against_golden(which: int, lines: list[str]) -> list[str]:
    """Cell-level differences between computed lines and the golden file."""
    golden = golden_lines(which)
    problems = []
    if len(golden) != len(lines):
        problems.append(f"line count {len(lines)} differs from golden {len(golden)}")
    header = golden[0].split(",")
    for got, want in zip(lines, golden):
        if got == want:
            continue
        got_cells, want_cells = got.split(","), want.split(",")
        label = got_cells[0]
        for j, (a, b) in enumerate(zip(got_cells, want_cells)):
            if a != b:
                col = header[j] if j < len(header) else f"col{j}"
                problems.append(f"row {label}: {col} = {a}, golden has {b}")
    return problems
