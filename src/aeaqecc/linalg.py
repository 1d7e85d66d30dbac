"""Exact linear algebra over finite fields.

Matrices hold integer-encoded field elements in a numpy array and do all
row reduction through the field's array operations, so every result is
exact.  Row echelon form uses first-nonzero pivoting, which makes the
reduced form (and everything derived from it: ranks, null spaces,
intersections) deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldMismatchError
from .fields import FiniteField

_ENTRY_DTYPE = np.int32
# Products gathered at once by mat_mul.
_MAT_MUL_CHUNK = 1 << 18


class MatrixGF:
    """Immutable matrix over a finite field."""

    __slots__ = ("field", "_a")

    def __init__(self, field: FiniteField, entries: np.ndarray):
        a = np.array(entries, dtype=_ENTRY_DTYPE)  # always a copy, never the caller's array
        if a.ndim != 2:
            raise ValueError(f"need a 2-d entry grid, got shape {a.shape}")
        if a.size and (a.min() < 0 or a.max() >= field.order):
            raise ValueError(f"entries outside 0..{field.order - 1}")
        a.flags.writeable = False
        self.field = field
        self._a = a

    @classmethod
    def from_rows(cls, field: FiniteField, rows) -> "MatrixGF":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            return cls(field, np.array(rows, dtype=_ENTRY_DTYPE))
        return cls(field, np.zeros((0, 0), dtype=_ENTRY_DTYPE))

    @classmethod
    def zeros(cls, field: FiniteField, rows: int, cols: int) -> "MatrixGF":
        return cls(field, np.zeros((rows, cols), dtype=_ENTRY_DTYPE))

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "MatrixGF":
        return cls(field, np.eye(n, dtype=_ENTRY_DTYPE))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def entries(self) -> np.ndarray:
        """Read-only entry grid."""
        return self._a

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self._a[i])

    def transpose(self) -> "MatrixGF":
        return MatrixGF(self.field, self._a.T)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixGF):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self) -> int:
        return hash((self.field, self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"MatrixGF({self.field.designator}, {self._a.tolist()})"


def _same_field(a: MatrixGF, b: MatrixGF) -> FiniteField:
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")
    return a.field


def stack(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """Vertical concatenation."""
    field = _same_field(a, b)
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")
    return MatrixGF(field, np.vstack([a.entries, b.entries]))


def mat_mul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """a @ b with every product a_il * b_lj gathered at once.

    Each product enters the sum over l packed: its base-p digits sit in
    bit fields of one int64, so one integer sum adds all digits of up to
    `span` terms at once without a field overflowing into the next (at
    least 7 terms for any supported field, 31 up to 2^12 elements).  The
    packed digits are composed with the field's exp table, so a product
    is one gather at log a_il + log b_lj.  Longer sums are cut into runs
    of `span`, and rows are done in chunks so the gathered products stay
    bounded.  Over a prime field the product is one integer matrix
    product taken mod p.
    """
    field = _same_field(a, b)
    if a.cols != b.rows:
        raise ValueError(f"inner dimension mismatch: {a.cols} vs {b.rows}")
    p, r = field.p, field.degree
    if r == 1 and a.cols * (p - 1) ** 2 < 1 << 63:  # integer sums cannot wrap
        return MatrixGF(field, (a.entries.astype(np.int64) @ b.entries) % p)
    width = 63 // r
    shifts = width * np.arange(r, dtype=np.int64)
    packed = field.spread_digits(width)[field._exp]
    mask = (1 << width) - 1
    span = mask // (p - 1)
    powers = p ** np.arange(r, dtype=np.int64)
    la, lb = field._log[a.entries], field._log[b.entries]
    out = np.zeros((a.rows, b.cols), dtype=_ENTRY_DTYPE)
    step = max(1, _MAT_MUL_CHUNK // max(1, min(a.cols, span) * b.cols))
    for i in range(0, a.rows, step):
        digits = np.zeros((min(step, a.rows - i), b.cols, r), dtype=np.int64)
        for l in range(0, a.cols, span):
            prods = packed[la[i : i + step, l : l + span, None] + lb[None, l : l + span]]
            digits += (prods.sum(axis=1)[..., None] >> shifts) & mask
        out[i : i + step] = digits % p @ powers
    return MatrixGF(field, out)


def mat_vec(a: MatrixGF, v: np.ndarray) -> np.ndarray:
    """a @ v for an encoded coordinate vector; returns encoded syndrome."""
    return mat_mul(a, MatrixGF(a.field, np.reshape(v, (-1, 1)))).entries[:, 0]


def rref(m: MatrixGF) -> tuple[MatrixGF, int, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns (reduced matrix, rank, pivot columns).  Pivot choice is the
    first row with a nonzero entry in the current column, so the output is
    unique for a given row space and deterministic for a given input.
    Each pivot row is scaled to a leading 1, then one array sum adds
    coef * pivot row to every row, with coef the negated column: rows
    already 0 there keep their entries, and the pivot row, which this
    zeroes, is written back scaled.  The sweep stops once the
    rows below the last pivot are all zero.
    """
    field = m.field
    a = m.entries.copy()
    nrows, ncols = a.shape
    pivots = []
    pr = 0
    for col in range(ncols):
        if pr >= nrows:
            break
        nz = a[pr:, col].nonzero()[0]
        if nz.size == 0:
            if not a[pr:].any():  # only zero rows remain
                break
            continue
        sel = pr + int(nz[0])
        if sel != pr:
            a[[pr, sel]] = a[[sel, pr]]
        pivot = field.mul(field.inv(a[pr, col]), a[pr])
        a = field.add(a, field.mul(field.neg(a[:, col, None]), pivot))
        a[pr] = pivot
        pivots.append(col)
        pr += 1
    return MatrixGF(field, a), pr, tuple(pivots)


def rank(m: MatrixGF) -> int:
    return rref(m)[1]


def null_space(m: MatrixGF, pivots: tuple[int, ...] | None = None) -> MatrixGF:
    """Basis (as rows) of the right kernel, not reduced: the identity
    block at the free columns already makes the rows independent.

    Given pivots, m must already be a canonical basis (echelon_basis) with
    those pivot columns, and no elimination runs.
    """
    if pivots is None:
        m, pivots = echelon_basis(m)
    ncols = m.cols
    free = np.ones(ncols, dtype=bool)
    free[list(pivots)] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, ncols), dtype=_ENTRY_DTYPE)
    basis[np.arange(free.size), free] = 1
    basis[:, list(pivots)] = m.field.neg(m.entries[:, free]).T
    return MatrixGF(m.field, basis)


def echelon_basis(m: MatrixGF) -> tuple[MatrixGF, tuple[int, ...]]:
    """Canonical basis of the row space (nonzero rows of the rref) and its
    pivot columns."""
    r, rk, pivots = rref(m)
    return MatrixGF(m.field, r.entries[:rk]), pivots


def row_space_intersect(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """Canonical basis of the intersection of two row spaces.

    Zassenhaus-style: reduce [[A A], [B 0]]; rows whose left half became
    zero hold intersection vectors in their right half, already reduced
    there because their pivots lie in it.  Kept as the tests' oracle for
    the intersections that relative_min_weight reads off its syndromes.
    """
    field = _same_field(a, b)
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")
    n = a.cols
    top = np.hstack([a.entries, a.entries])
    bot = np.hstack([b.entries, np.zeros_like(b.entries)])
    reduced, rk, _ = rref(MatrixGF(field, np.vstack([top, bot])))
    ent = reduced.entries[:rk]
    return MatrixGF(field, ent[~ent[:, :n].any(axis=1), n:])
