import itertools
from fractions import Fraction

import numpy as np
import pytest

from aeaqecc import enumeration
from aeaqecc.bch import coset_code
from aeaqecc.cli import main
from aeaqecc.eaqecc import entanglement_c
from aeaqecc.gv import GvQuery, gv_finite_sum, gv_threshold
from aeaqecc.linalg import row_space_intersect
from aeaqecc.tables import (
    TABLE1,
    TABLE2,
    _cells,
    diff_against_golden,
    golden_lines,
    reproduce_table1,
    reproduce_table2,
    table1_csv,
    table2_csv,
)

from test_codes import naive_min_weight

# rows where the printed threshold pair, which is the per-coordinate
# threshold, is not granted jointly: the defining sum reaches 1 there.
# The joint pair gv_threshold yields is listed beside each row.
BAD_THRESHOLD_ROWS = {6: (5, 1), 22: (7, 3)}

# rows whose exact distances beat the printed designed ones
TABLE1_SHARPER = {4: (11, 8)}
TABLE2_SHARPER = {29: 8}

# rows whose relevant dual codes are too large to enumerate by default
TABLE1_EXACT = {1: (True, False), 4: (True, True)}
TABLE2_BOUND_ONLY = {14, 15, 16, 17, 18, 19, 20, 30, 31, 32, 33}


@pytest.fixture(scope="module")
def results1():
    return reproduce_table1()


@pytest.fixture(scope="module")
def results2():
    return reproduce_table2()


def test_table_row_counts():
    assert len(TABLE1) == 22
    assert len(TABLE2) == 34


def test_table1_parameters(results1):
    assert len(results1) == 22
    for r in results1:
        p = r.params
        row = r.row
        assert (p.q, p.n) == (row.q, row.n)
        assert (p.k1, p.k2, p.c) == (row.k1, row.k2, row.c)
        assert p.k == row.n - row.k1 - row.k2 + row.c
        assert r.built.dz_bound == row.dz
        assert r.built.dx_bound == row.dx


def test_table1_distance_reports(results1):
    for r in results1:
        expect_exact = TABLE1_EXACT.get(r.index, (False, False))
        assert (r.params.dz.exact, r.params.dx.exact) == expect_exact
        dz, dx = TABLE1_SHARPER.get(r.index, (r.row.dz, r.row.dx))
        assert r.params.dz.value == dz
        assert r.params.dx.value == dx


def test_table1_thresholds(results1):
    for r in results1:
        got = (r.threshold.dz_threshold, r.threshold.dx_threshold)
        assert got == BAD_THRESHOLD_ROWS.get(r.index, (r.row.thr_dz, r.row.thr_dx))


def test_table1_published_thresholds_rows_6_and_22_fail_inequality():
    for index, _ in BAD_THRESHOLD_ROWS.items():
        row = TABLE1[index - 1]
        s = gv_finite_sum(GvQuery(row.q, row.n, row.k1, row.k2, row.c,
                                  row.thr_dz, row.thr_dx))
        assert s >= 1
    # spot check the magnitudes so a sign error cannot sneak through
    row6 = TABLE1[5]
    s6 = gv_finite_sum(GvQuery(row6.q, row6.n, row6.k1, row6.k2, row6.c, 5, 2))
    assert Fraction(10294, 10000) < s6 < Fraction(10295, 10000)


def test_table1_gv_exceeded_everywhere(results1):
    assert all(r.gv_exceeded for r in results1)


def test_table1_threshold_cli_example():
    pair = gv_threshold(4, 15, 3, 1, 1)
    assert (pair.dz_threshold, pair.dx_threshold) == (2, 1)


def test_table2_parameters(results2):
    assert len(results2) == 34
    for r in results2:
        p = r.params
        row = r.row
        assert (p.q, p.n) == (row.q, row.n)
        assert (p.k1, p.k2, p.c) == (row.k1, row.k2, row.c)
        assert p.k == row.n - row.k1 - row.k2 + row.c


def test_table2_root_bounds_match_published_distance(results2):
    for r in results2:
        assert r.built.dz_bound == r.row.d
        assert r.built.dx_bound == r.row.d


def test_table2_distance_reports(results2):
    for r in results2:
        bound_only = r.index in TABLE2_BOUND_ONLY
        assert r.params.dz.exact == (not bound_only)
        assert r.params.dx.exact == (not bound_only)
        dz = TABLE2_SHARPER.get(r.index, r.row.d)
        assert r.params.dz.value == dz
        assert r.params.dx.value == r.row.d


def test_entanglement_identity_on_every_table_pair():
    # c is the rank of the pairing, readable off either factor:
    # c = k1 - dim(C1 & dual C2) = k2 - dim(C2 & dual C1), and the
    # intersections the relative distances skip have dimensions k2 - c
    # and k1 - c, all by the Zassenhaus oracle
    for row in TABLE1 + TABLE2:
        c1 = coset_code(row.n, row.q, row.c1_labels)
        c2 = coset_code(row.n, row.q, row.c2_labels)
        c = entanglement_c(c1, c2)
        assert c == row.c
        assert c == c1.k - row_space_intersect(c1.gen, c2.parity_check).rows
        assert c == c2.k - row_space_intersect(c2.gen, c1.parity_check).rows
        assert row_space_intersect(c1.parity_check, c2.gen).rows == c2.k - c
        assert row_space_intersect(c2.parity_check, c1.gen).rows == c1.k - c


def test_table2_row29_independent_enumeration():
    # the published distance 7 is only the root bound here; a scalar
    # reference scan of the 4^8 dual codewords finds nothing below 8
    d1 = coset_code(17, 4, (0, 1, 3)).dual()
    c2 = coset_code(17, 4, (1, 3))
    assert d1.k == 8
    assert row_space_intersect(d1.gen, c2.gen).rows == 0
    assert naive_min_weight(d1.gen.entries, d1.field) == 8


def test_table1_row4_independent_enumeration():
    # the printed dz = 9 is only the designed value; dual(C1) meets C2 in
    # zero, so dz is the minimum weight over its 7^6 words, taken here
    # with plain integer arithmetic mod 7.  The exact dx = 8 rests on the
    # scan kernel alone: dual(C2) has 7^9 words and meets C1 in dimension 3.
    row = TABLE1[3]
    c1 = coset_code(row.n, row.q, row.c1_labels)
    c2 = coset_code(row.n, row.q, row.c2_labels)
    d1 = c1.dual()
    assert (row.q, d1.k) == (7, 6)
    assert row_space_intersect(d1.gen, c2.gen).rows == 0
    gen = np.asarray(d1.gen.entries, dtype=np.int64)
    # GF(7) entries are the integers mod 7, so plain products see the duality
    assert not (gen @ np.asarray(c1.gen.entries, dtype=np.int64).T % 7).any()
    coeffs = np.array(list(itertools.product(range(7), repeat=6))[1:])
    assert np.count_nonzero(coeffs @ gen % 7, axis=1).min() == 11


def test_csv_round_trip_matches_golden(results1, results2):
    assert diff_against_golden(1, table1_csv(results1)) == []
    assert diff_against_golden(2, table2_csv(results2)) == []


def test_golden_files_well_formed():
    for which, count in [(1, 22), (2, 34)]:
        lines = golden_lines(which)
        assert len(lines) == count + 1
        width = len(lines[0].split(","))
        for line in lines[1:]:
            assert len(line.split(",")) == width


def test_diff_reports_cell_level_changes(results1):
    lines = table1_csv(results1)
    broken = list(lines)
    broken[3] = broken[3].replace(",true,", ",false,", 1)
    problems = diff_against_golden(1, broken)
    assert len(problems) == 1
    assert "row 3" in problems[0]


def test_budget_zero_reports_bounds_only(results1):
    rows = reproduce_table1(budget=0)
    for r in rows:
        assert not r.params.dz.exact and not r.params.dx.exact
        assert r.params.dz.value == r.row.dz
        assert r.params.dx.value == r.row.dx


def test_cells_reject_commas():
    assert _cells((1, ">=5", "true")) == "1,>=5,true"
    with pytest.raises(RuntimeError):
        _cells(("a,b",))


def test_tables_never_run_the_full_scan(capsys, monkeypatch):
    # every table pair is cyclic, so each exact cell comes from the
    # window search; the full-space scan kernel is never entered
    def forbidden(*args):
        raise AssertionError("tables entered the full-space scan")

    monkeypatch.setattr(enumeration, "_scan", forbidden)
    assert main(["tables", "--which", "all", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == golden_lines(1) + golden_lines(2)
