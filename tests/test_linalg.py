"""Row reduction, kernels, and intersections over several fields."""

import random
import tracemalloc

import numpy as np
import pytest

from aeaqecc import linalg
from aeaqecc.bch import cyclotomic_cosets, evaluation_code, splitting_field, subfield_subcode
from aeaqecc.errors import FieldMismatchError
from aeaqecc.fields import field_create
from aeaqecc.linalg import (
    MatrixGF,
    echelon_basis,
    mat_mul,
    mat_vec,
    null_space,
    rank,
    row_space_intersect,
    rref,
    stack,
)

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _random_matrix(field, rng, rows, cols):
    data = [[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)]
    return MatrixGF.from_rows(field, data)


def _naive_mat_mul(a, b):
    f = a.field
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for l in range(a.cols):
                acc = f.add(acc, f.mul(a.entries[i, l], b.entries[l, j]))
            out[i][j] = acc
    return MatrixGF.from_rows(f, out) if out else MatrixGF.zeros(f, 0, b.cols)


def _rref_oracle(m):
    """rref without the early stop: every column is visited."""
    f = m.field
    a = m.entries.astype(np.int64).copy()
    pivots, pr = [], 0
    for col in range(a.shape[1]):
        rows = [i for i in range(pr, a.shape[0]) if a[i, col]]
        if pr >= a.shape[0] or not rows:
            continue
        a[[pr, rows[0]]] = a[[rows[0], pr]]
        scale = f.inv(int(a[pr, col]))
        a[pr] = [f.mul(scale, int(v)) for v in a[pr]]
        for i in range(a.shape[0]):
            if i != pr and a[i, col]:
                coef = f.neg(int(a[i, col]))
                a[i] = [f.add(int(u), f.mul(coef, int(v))) for u, v in zip(a[i], a[pr])]
        pivots.append(col)
        pr += 1
    return MatrixGF(f, a), pr, tuple(pivots)


def _in_row_space(v, m):
    vm = MatrixGF(m.field, np.array([v], dtype=np.int16))
    return rank(stack(m, vm)) == rank(m)


def test_rref_gf2_example():
    F = field_create(2, 1)
    m = MatrixGF.from_rows(F, [[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0]])
    r, rk, pivots = rref(m)
    assert rk == 3
    assert pivots == (0, 1, 3)
    assert r.entries.tolist() == [[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]


def test_rref_gf4_is_idempotent_and_normalizes_pivots():
    F = field_create(2, 2)
    m = MatrixGF.from_rows(F, [[2, 1, 3, 0], [3, 3, 1, 2], [1, 2, 2, 2]])
    r, rk, pivots = rref(m)
    for i, c in enumerate(pivots):
        col = r.entries[:, c]
        assert col[i] == 1 and np.count_nonzero(col) == 1
    r2, rk2, p2 = rref(r)
    assert r2 == r and rk2 == rk and p2 == pivots


def test_rank_equals_transpose_rank():
    rng = random.Random(5)
    for p, deg in FIELDS:
        F = field_create(p, deg)
        for _ in range(150):
            m = _random_matrix(F, rng, rng.randrange(1, 7), rng.randrange(1, 9))
            assert rank(m) == rank(m.transpose())


def test_rref_row_space_is_preserved():
    rng = random.Random(6)
    for p, deg in [(2, 1), (5, 1), (2, 2)]:
        F = field_create(p, deg)
        for _ in range(50):
            m = _random_matrix(F, rng, rng.randrange(1, 5), rng.randrange(1, 7))
            r, rk, _ = rref(m)
            for i in range(m.rows):
                assert _in_row_space(m.entries[i], r)
            for i in range(rk):
                assert _in_row_space(r.entries[i], m)


def test_null_space_orthogonality_and_dimension():
    rng = random.Random(7)
    for p, deg in FIELDS:
        F = field_create(p, deg)
        for _ in range(60):
            m = _random_matrix(F, rng, rng.randrange(1, 6), rng.randrange(1, 8))
            ns = null_space(m)
            assert ns.rows == m.cols - rank(m)
            if ns.rows:
                prod = mat_mul(m, ns.transpose())
                assert not prod.entries.any()


def test_null_space_of_empty_matrix_is_identity():
    F = field_create(3, 1)
    ns = null_space(MatrixGF.zeros(F, 0, 4))
    assert ns == MatrixGF(F, np.eye(4))


def test_double_null_space_recovers_row_space():
    rng = random.Random(8)
    for p, deg in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        F = field_create(p, deg)
        for _ in range(40):
            m = _random_matrix(F, rng, rng.randrange(1, 5), rng.randrange(1, 7))
            # null_space promises a basis, not a reduced one
            assert echelon_basis(null_space(null_space(m))) == echelon_basis(m)


def test_entries_of_the_widest_field_round_trip():
    # GF(2^16) holds 65535, above any 16-bit signed entry
    F = field_create(2, 16)
    m = MatrixGF.from_rows(F, [[65535, 0], [1, 32768]])
    assert m.entries[0, 0] == 65535 and m.row(1) == (1, 32768)
    assert m.transpose().row(0) == (65535, 1)
    assert MatrixGF(F, m.entries) == m
    with pytest.raises(ValueError, match="outside"):
        MatrixGF(F, [[65536]])


def test_mat_mul_matches_naive():
    rng = random.Random(9)
    for p, deg in FIELDS:
        F = field_create(p, deg)
        for _ in range(30):
            a = _random_matrix(F, rng, rng.randrange(1, 5), rng.randrange(1, 5))
            b = _random_matrix(F, rng, a.cols, rng.randrange(1, 5))
            assert mat_mul(a, b) == _naive_mat_mul(a, b)


MAT_MUL_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 5), (2, 6)]


@pytest.mark.parametrize("p,deg", MAT_MUL_FIELDS)
def test_mat_mul_matches_naive_on_every_shape(p, deg):
    F = field_create(p, deg)
    gen = np.random.default_rng(100 * p + deg)
    shapes = [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (1, 1, 1), (2, 70, 3)]
    shapes += [tuple(gen.integers(1, 8, 3)) for _ in range(25)]
    for rows, inner, cols in shapes:
        a = MatrixGF(F, gen.integers(0, F.order, (rows, inner)))
        b = MatrixGF(F, gen.integers(0, F.order, (inner, cols)))
        assert mat_mul(a, b) == _naive_mat_mul(a, b), (rows, inner, cols)


def test_mat_mul_sums_long_inner_dimensions_in_chunks():
    # GF(2^11) packs 11 digits of 5 bits each into an int64, so at most
    # 31 products are summed before the digits are taken out
    F = field_create(2, 11)
    gen = np.random.default_rng(3)
    for inner in (30, 31, 32, 95):
        a = MatrixGF(F, gen.integers(0, F.order, (3, inner)))
        b = MatrixGF(F, gen.integers(0, F.order, (inner, 2)))
        assert mat_mul(a, b) == _naive_mat_mul(a, b), inner
    # a sum of 32 ones would overflow its 5-bit field into digit 1 (x)
    ones = MatrixGF(F, np.ones((1, 32), dtype=np.int16))
    assert mat_mul(ones, ones.transpose()).entries.tolist() == [[0]]


def test_mat_mul_memory_is_bounded_by_row_chunks():
    # gathering all 200 x 255 x 200 products at once would take 78 MiB of
    # packed digits alone
    F = field_create(2, 4)
    gen = np.random.default_rng(4)
    a = MatrixGF(F, gen.integers(0, 16, (200, 255)))
    b = MatrixGF(F, gen.integers(0, 16, (255, 200)))
    mat_mul(MatrixGF(F, a.entries[:1]), b)  # tables built outside the trace
    tracemalloc.start()
    try:
        prod = mat_mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20
    for i, j in [(0, 0), (199, 199), (17, 123), (150, 3)]:
        acc = 0
        for l in range(255):
            acc = F.add(acc, F.mul(a.entries[i, l], b.entries[l, j]))
        assert prod.entries[i, j] == acc


def test_mat_vec_matches_mat_mul():
    rng = random.Random(10)
    F = field_create(2, 2)
    for _ in range(30):
        a = _random_matrix(F, rng, rng.randrange(1, 5), rng.randrange(1, 6))
        v = np.array([rng.randrange(4) for _ in range(a.cols)], dtype=np.int16)
        col = MatrixGF(F, v[:, None])
        assert mat_vec(a, v).tolist() == _naive_mat_mul(a, col).entries[:, 0].tolist()


def test_rref_early_stop_matches_full_sweep_on_tall_matrices(monkeypatch):
    # subfield_subcode reduces traces of m * |reps| rows that span fewer
    # dimensions; rref stops once the rows below the last pivot are zero
    tall = []

    def spy(m):
        tall.append(m)
        return original(m)

    original = linalg.rref
    monkeypatch.setattr(linalg, "rref", spy)
    for n, q, labels in [(15, 2, [0, 5]), (21, 4, [0, 7]), (13, 3, [0, 1]), (31, 2, [0, 5]),
                         (24, 5, [0, 6])]:
        delta = cyclotomic_cosets(n, q).closure(labels)
        subfield_subcode(evaluation_code(splitting_field(n, q), n, delta), q)
    monkeypatch.undo()
    assert sum(rref(m)[1] < m.rows for m in tall) == 5  # one per trace matrix
    rng = random.Random(14)
    for p, deg in FIELDS:
        F = field_create(p, deg)
        for _ in range(20):
            base = _random_matrix(F, rng, rng.randrange(1, 4), rng.randrange(4, 9))
            mix = _random_matrix(F, rng, rng.randrange(5, 12), base.rows)
            tall.append(stack(mat_mul(mix, base), MatrixGF.zeros(F, 2, base.cols)))
    assert any(rref(m)[1] < m.rows for m in tall)
    for m in tall:
        assert rref(m) == _rref_oracle(m)


@pytest.mark.parametrize("p,deg", [(2, 1), (5, 1), (2, 2), (3, 2), (5, 2)])
def test_rref_matches_gauss_jordan(p, deg):
    # the reduced matrix, rank and pivots of tall, wide, square, zero and
    # empty matrices, and of rank-deficient products B·C with an inner
    # dimension below both sides, against the row-by-row oracle
    F = field_create(p, deg)
    rng = random.Random(p * 100 + deg)
    shapes = [(7, 3), (3, 7), (5, 5), (12, 2), (1, 6), (6, 1)]
    mats = [_random_matrix(F, rng, r, c) for r, c in shapes]
    mats += [MatrixGF.zeros(F, r, c) for r, c in [(3, 4), (1, 1), (5, 2), (0, 4), (4, 0)]]
    for rows, inner, cols in [(6, 2, 5), (4, 1, 7), (8, 3, 3), (3, 2, 9)]:
        mats.append(mat_mul(_random_matrix(F, rng, rows, inner), _random_matrix(F, rng, inner, cols)))
    sparse = _random_matrix(F, rng, 6, 8).entries.copy()
    sparse[[1, 4]] = 0  # zero rows between others, and a repeated row
    sparse[:, [0, 5]] = 0
    sparse[3] = sparse[2]
    mats.append(MatrixGF(F, sparse))
    assert any(rank(m) < min(m.shape) for m in mats if m.rows and m.cols and m.entries.any())
    for m in mats:
        assert rref(m) == _rref_oracle(m), m


def test_intersection_dimension_formula():
    rng = random.Random(11)
    F = field_create(5, 1)
    for _ in range(1000):
        cols = rng.randrange(2, 8)
        a = _random_matrix(F, rng, rng.randrange(1, 5), cols)
        b = _random_matrix(F, rng, rng.randrange(1, 5), cols)
        inter = row_space_intersect(a, b)
        expected = rank(a) + rank(b) - rank(stack(a, b))
        assert inter.rows == expected
        for i in range(inter.rows):
            assert _in_row_space(inter.entries[i], a)
            assert _in_row_space(inter.entries[i], b)


def test_intersection_is_canonical_and_symmetric():
    rng = random.Random(12)
    for p, deg in [(2, 1), (2, 2), (3, 1)]:
        F = field_create(p, deg)
        for _ in range(50):
            cols = rng.randrange(2, 7)
            a = _random_matrix(F, rng, rng.randrange(1, 4), cols)
            b = _random_matrix(F, rng, rng.randrange(1, 4), cols)
            inter = row_space_intersect(a, b)
            assert inter == row_space_intersect(b, a)
            assert inter == echelon_basis(inter)[0]


def test_shape_and_field_mismatches_are_rejected():
    F2, F3 = field_create(2, 1), field_create(3, 1)
    a = MatrixGF.from_rows(F2, [[1, 0]])
    b = MatrixGF.from_rows(F3, [[1, 0]])
    with pytest.raises(FieldMismatchError):
        stack(a, b)
    with pytest.raises(ValueError):
        stack(a, MatrixGF.from_rows(F2, [[1, 0, 1]]))
    with pytest.raises(ValueError):
        mat_mul(a, MatrixGF.from_rows(F2, [[1, 0]]))
    with pytest.raises(ValueError):
        MatrixGF.from_rows(F2, [[1, 2]])


def test_entries_are_immutable():
    F = field_create(2, 1)
    m = MatrixGF.from_rows(F, [[1, 0]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 0
