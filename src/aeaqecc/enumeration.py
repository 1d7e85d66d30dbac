"""Blockwise exhaustive enumeration of linear-code codewords.

The message space GF(q)^k is split in two: the low digits are expanded
once into a table holding every codeword of the low sub-space, and the
high digits are walked in lexicographic order.  Each step combines one
high-part codeword against the whole low table, so nearly all work is
vectorized.

Every field shares one layout.  An element of GF(p^r) is r digits mod p;
each coordinate of a codeword fills a lane of r*b bits in a 64-bit word,
digit i in bits [i*b, (i+1)*b).  In characteristic 2, b = 1 and addition
is XOR.  In odd characteristic, b is the smallest width with
2^(b-1) >= p, so each digit has a spare top bit: a digit sum s never
carries into the next digit, and s - p*[s >= p] reduces it, with
[s >= p] the top bit of s + 2^(b-1) - p.

A step adds nothing: high + low is zero in a coordinate exactly where
the lanes of high and -low are equal, so the table holds -low and a step
is one XOR.  Blocks are word-major, shape (words, rows), and a weight is
a sum of per-word popcounts of the nonzero-lane flags.

Word sum_i d_i q^i is sum_i d_i * gen[i], so the words of index below
q^s are exactly the span of the first s rows.  A scan with skip=s leaves
them out of the minimum: a caller that puts a basis of a subspace first
excludes that subspace without testing any word, and skip=0 leaves out
the zero word alone.  The returned minimum is a plain set minimum, so it
does not depend on the block split.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceededError
from .fields import FiniteField

DEFAULT_BUDGET = 1 << 26
_BLOCK_TARGET = 1 << 16
_BLOCK_BYTES = 1 << 20  # keep the low table cache-resident
_BIG = np.int32(1 << 30)  # above any weight

if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:  # pragma: no cover
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount(a, out):
        out[...] = _POP8[a.view(np.uint8)].reshape(a.shape + (8,)).sum(axis=-1)
        return out


def check_budget(q: int, k: int, budget: int) -> int:
    """q^k, the words a scan of k rows visits; above budget it raises."""
    if q**k > budget:
        raise BudgetExceededError(q**k, budget)
    return q**k


def minimum_weight_scan(
    gen: np.ndarray,
    field: FiniteField,
    *,
    skip: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int | None, int]:
    """Minimum Hamming weight over the row space of gen outside the span
    of its first `skip` rows (zero word always excluded).

    Args:
        gen: (k, n) array of encoded entries with linearly independent rows.
        field: the entries' field.
        skip: number of leading rows whose span is excluded, 0..k.
        budget: cap on q^k, the number of codewords visited.

    Returns:
        (minimum or None if every nonzero word was excluded, words visited).
    """
    gen = np.asarray(gen, dtype=np.int64)
    if gen.ndim != 2:
        raise ValueError("generator must be 2-d")
    k, n = gen.shape
    if not 0 <= skip <= k:
        raise ValueError(f"skip={skip} outside 0..{k}")
    total = check_budget(field.order, k, budget)
    if k == 0 or n == 0:
        return None, max(total - 1, 0)
    return _scan(gen, field, field.order**skip, total)


def _pick_k_lo(q: int, k: int, bytes_per_row: int) -> int:
    k_lo = 1
    while (
        k_lo < k
        and q ** (k_lo + 1) <= _BLOCK_TARGET
        and q ** (k_lo + 1) * bytes_per_row <= _BLOCK_BYTES
    ):
        k_lo += 1
    return k_lo


def _repeat(value: int, step: int, count: int) -> np.uint64:
    """value copied into count fields of step bits each."""
    return np.uint64(sum(value << (step * j) for j in range(count)))


class _Lanes:
    """Lane layout of length-n vectors over one field (module docstring)."""

    def __init__(self, field: FiniteField, n: int):
        p, r = field.p, field.degree
        b = 1 if p == 2 else (p - 1).bit_length() + 1
        width = r * b
        self.p, self.r, self.n = p, r, n
        self.per_word = 64 // width
        self.nwords = -(-n // self.per_word)
        self.offsets = np.arange(0, width * self.per_word, width, dtype=np.uint64)
        # lane image of every element
        digits = (np.arange(field.order)[:, None] // p ** np.arange(r)) % p
        shifts = np.arange(0, width, b, dtype=np.uint64)
        self.lane = np.bitwise_or.reduce(digits.astype(np.uint64) << shifts, axis=1)
        # a lane v is nonzero iff (((v & low) + low) | v) & top; odd-p lanes
        # never set their top bit, so there v & low == v and the OR is moot
        self.low = _repeat((1 << (width - 1)) - 1, width, self.per_word)
        self.top = _repeat(1 << (width - 1), width, self.per_word)
        if p != 2:
            self.carry = _repeat((1 << (b - 1)) - p, b, r * self.per_word)
            self.high = _repeat(1 << (b - 1), b, r * self.per_word)
            self.b1, self.pb = np.uint64(b - 1), np.uint64(p)

    def pack(self, mat: np.ndarray) -> np.ndarray:
        """(..., n) encoded entries -> (..., nwords) packed words."""
        lanes = np.zeros(mat.shape[:-1] + (self.nwords * self.per_word,), dtype=np.uint64)
        lanes[..., : self.n] = self.lane[mat]
        lanes = lanes.reshape(mat.shape[:-1] + (self.nwords, self.per_word))
        return np.bitwise_or.reduce(lanes << self.offsets, axis=-1)

    def add(self, x, y):
        """Lane-wise field sum x + y."""
        if self.p == 2:
            return x ^ y
        s = x + y
        return s - (((s + self.carry) & self.high) >> self.b1) * self.pb

    def weights(self, diff: np.ndarray, out: np.ndarray, scratch: np.ndarray, counts: np.ndarray) -> None:
        """Number of nonzero lanes in every column of a word-major block.

        Overwrites diff; scratch is a buffer of diff's shape.
        """
        if self.p == 2 and self.r == 1:
            flags = diff
        elif self.p == 2:
            flags = np.bitwise_and(diff, self.low, out=scratch)
            flags += self.low
            flags |= diff
            flags &= self.top
        else:
            flags = diff
            flags += self.low
            flags &= self.top
        _popcount(flags[0], out=counts)
        out[...] = counts
        for w in range(1, self.nwords):
            _popcount(flags[w], out=counts)
            out += counts


def _span(lanes: _Lanes, rowmul: np.ndarray) -> np.ndarray:
    """Word-major table of every combination of the rows rowmul[:, i].

    Column sum_i d_i q^i holds sum_i d_i * row_i, so column 0 is the zero
    word.
    """
    table = np.zeros((lanes.nwords, 1), dtype=np.uint64)
    for i in range(rowmul.shape[1]):
        table = lanes.add(rowmul[:, i, :, None], table[None, :, :])
        table = np.ascontiguousarray(table.transpose(1, 0, 2)).reshape(lanes.nwords, -1)
    return table


def _column(lanes: _Lanes, rowmul: np.ndarray, index: int) -> np.ndarray:
    """Column `index` of _span(lanes, rowmul), computed alone."""
    q = rowmul.shape[0]
    word = np.zeros(lanes.nwords, dtype=np.uint64)
    for i in range(rowmul.shape[1]):
        index, digit = divmod(index, q)
        if digit:
            word = lanes.add(word, rowmul[digit, i])
    return word


def _scan(gen, field, skipped, total):
    """Minimum weight over the words of index >= skipped (module docstring)."""
    q = field.order
    k, n = gen.shape
    lanes = _Lanes(field, n)
    rowmul = lanes.pack(field.mul_table[:, gen])  # [d, i] -> d * gen[i]

    k_lo = _pick_k_lo(q, k, lanes.nwords * 8)
    neg_low = _span(lanes, rowmul[:, :k_lo][field.neg_table])
    # high words: the next digits from a table no larger than neg_low, the
    # remaining top digits once per pass over that table
    k_mid = min(k - k_lo, k_lo)
    mid = _span(lanes, rowmul[:, k_lo : k_lo + k_mid])
    top_rows = rowmul[:, k_lo + k_mid :]

    # reused per-block buffers; the loop body must stay allocation-free
    diff = np.empty_like(neg_low)
    scratch = np.empty_like(neg_low)
    counts = np.empty(neg_low.shape[1], dtype=np.uint8)
    wts = np.empty(neg_low.shape[1], dtype=np.int32)

    best = _BIG
    for t in range(q ** top_rows.shape[1]):
        highs = lanes.add(mid, _column(lanes, top_rows, t)[:, None])
        for j in range(highs.shape[1]):
            np.bitwise_xor(neg_low, highs[:, j : j + 1], out=diff)
            lanes.weights(diff, wts, scratch, counts)
            if skipped > 0:  # words of this block still below index q^skip
                wts[:skipped] = _BIG
                skipped -= wts.size
            best = min(best, int(wts.min()))
            if best == 1:
                return best, total - 1
    return (None if best == _BIG else best), total - 1
