"""Minimum weights of linear codes: a blockwise exhaustive scan, and a
window search that needs no scan for cyclic codes.

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

Weights are invariant under nonzero scalars, so the scan visits one word
per scalar class (MacWilliams & Sloane, ch. 1): the low table meets only
the high indices that are 0 or whose top nonzero base-q digit is 1, about
q^k/(q - 1) + q^k_lo words in all, and over GF(2) every word.  skip stays
exact, as the span of the first s rows is closed under scalars.  The
budget and the returned count are still q^k, the words covered.

A cyclic code needs no scan (Brouwer-Zimmermann with the n overlapping
cyclic information sets; Grassl 2006).  Given syndromes, gen is the
reduced generator [I_k | P] of a cyclic code A and row i's syndrome
against a cyclic code B is syndromes[i]; the minimum is over A \\ B.
Every k consecutive positions (mod n) of A are an information set, and
the shifts of [I_k | P] are the systematic generators on them.  The
search walks the messages of weight t = 1, 2, ... on positions 0..k-1,
one per scalar class, in batches capped like the scan's blocks, and a
word lighter than the best so far counts when its syndrome, the same
combination of the rows' syndromes, is nonzero.  Shifts keep weights
and membership in B, so after level t every word of A \\ B with at most
t nonzeros on some window has been matched by a visited one; any other
has at least t + 1 on each of the n windows, which cover every position
k times, so it weighs at least ceil((t + 1) n / k).  Once the best found
is no larger, it is the minimum.  Level 1's messages are the rows of
[I_k | P] and their syndromes the rows of syndromes, so level 1 is read
off those two arrays: the lightest row of nonzero syndrome.  That finds
a word of A \\ B if there is one (some row lies outside B), and lanes
are packed only when the walk goes on to t = 2.  At t = k - 1 the bound
is n, so the walk ends by level max(1, k - 1).  The budget and the
returned count are q^k as for a scan: each word is matched or bounded,
so all q^k are covered.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice

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
    """q^k, the words a scan of k rows covers; above budget it raises."""
    words = q**k
    if words > budget:
        raise BudgetExceededError(q, k, budget)
    return words


def minimum_weight_scan(
    gen: np.ndarray,
    field: FiniteField,
    *,
    skip: int = 0,
    syndromes: np.ndarray | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int | None, int]:
    """Minimum Hamming weight over the row space of gen outside the span
    of its first `skip` rows (zero word always excluded).

    Args:
        gen: (k, n) array of encoded entries with linearly independent rows.
        field: the entries' field.
        skip: number of leading rows whose span is excluded, 0..k.
        syndromes: (k, m) array, row i the syndrome of gen[i] against a
            cyclic code B.  Given it, gen must be the reduced generator
            [I_k | P] of a cyclic code, skip is ignored, and the minimum
            runs over the words of nonzero syndrome, found by the window
            search instead of a scan (module docstring).
        budget: cap on q^k, the number of codewords covered.

    Returns:
        (minimum or None if every nonzero word was excluded,
        words covered (q^k - 1)).
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
    if syndromes is not None:
        syndromes = np.asarray(syndromes, dtype=np.int64)
        if syndromes.ndim != 2 or syndromes.shape[0] != k:
            raise ValueError("syndromes need one row per generator row")
        return _windows(gen, syndromes, field, total)
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
    return np.uint64(value * (((1 << (step * count)) - 1) // ((1 << step) - 1)))


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
        self.lane = field.spread_digits(b).astype(np.uint64)  # lane image of every element
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


@lru_cache(maxsize=None)
def _lanes(field: FiniteField, n: int) -> _Lanes:
    """The lane layout of length-n vectors over field, built once."""
    return _Lanes(field, n)


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


def _multiples(field: FiniteField, mat: np.ndarray) -> np.ndarray:
    """[d, ...] -> d * mat for every element d, shape (q,) + mat.shape."""
    d = np.arange(field.order).reshape((-1,) + (1,) * mat.ndim)
    return field.mul(d, mat)


def _leaders(q: int, digits: int):
    """0, then every index below q^digits whose top nonzero base-q digit is 1."""
    yield 0
    for i in range(digits):
        yield from range(q**i, 2 * q**i)


def _scan(gen, field, skipped, total):
    """Minimum weight over the words of index >= skipped (module docstring)."""
    q = field.order
    k, n = gen.shape
    lanes = _lanes(field, n)
    rowmul = lanes.pack(_multiples(field, gen))  # [d, i] -> d * gen[i]

    k_lo = _pick_k_lo(q, k, lanes.nwords * 8)
    neg_low = _span(lanes, rowmul[field.neg(np.arange(q)), :k_lo])
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
    for t in _leaders(q, top_rows.shape[1]):
        highs = lanes.add(mid, _column(lanes, top_rows, t)[:, None])
        for j in _leaders(q, k_mid) if t == 0 else range(highs.shape[1]):
            np.bitwise_xor(neg_low, highs[:, j : j + 1], out=diff)
            lanes.weights(diff, wts, scratch, counts)
            # words of block h = t*q^k_mid + j still below index q^skip
            cut = skipped - (t * highs.shape[1] + j) * wts.size
            if cut > 0:
                wts[:cut] = _BIG
            best = min(best, int(wts.min()))
            if best == 1:
                return best, total - 1
    return (None if best == _BIG else best), total - 1


def _messages(k: int, t: int, q: int, cap: int):
    """Messages of weight t over k digits, one per scalar class, in
    batches (supports (s, t), coefficients (c, t)) of s * c <= cap words.

    Each support is a sorted t-subset of range(k); each coefficient row
    starts with 1.
    """
    per_support = (q - 1) ** (t - 1)
    powers = (q - 1) ** np.arange(t - 1)
    supports = combinations(range(k), t)
    step = max(1, cap // per_support)
    while True:
        sup = np.fromiter(
            (i for s in islice(supports, step) for i in s), dtype=np.intp
        ).reshape(-1, t)
        if not sup.size:
            return
        for first in range(0, per_support, cap):
            index = np.arange(first, min(first + cap, per_support))
            coef = np.ones((index.size, t), dtype=np.intp)
            coef[:, 1:] += (index[:, None] // powers) % (q - 1)
            yield sup, coef


def _combine(table: np.ndarray, sup: np.ndarray, coef: np.ndarray, add) -> np.ndarray:
    """Word-major sums sum_j table[coef[..., j], sup[..., j]] over the
    broadcast of sup and coef."""
    words = table[coef[..., 0], sup[..., 0]]
    for j in range(1, sup.shape[-1]):
        words = add(words, table[coef[..., j], sup[..., j]])
    return np.ascontiguousarray(words.reshape(-1, table.shape[-1]).T)


def _windows(gen, syndromes, field, total):
    """Minimum weight over the words of nonzero syndrome (module docstring)."""
    q = field.order
    k, n = gen.shape
    # level 1: the messages are the rows themselves
    outside = syndromes.any(axis=1)
    if not outside.any():
        return None, total - 1
    best = int(np.count_nonzero(gen[outside], axis=1).min())
    if best <= -(-2 * n // k):
        return best, total - 1

    lanes, syn_lanes = _lanes(field, n), _lanes(field, syndromes.shape[1])
    rowmul = lanes.pack(_multiples(field, gen))  # [d, i] -> d * gen[i]
    synmul = syn_lanes.pack(_multiples(field, syndromes))
    cap = max(1, min(_BLOCK_TARGET, _BLOCK_BYTES // (8 * lanes.nwords)))
    for t in range(2, k + 1):
        for sup, coef in _messages(k, t, q, cap):
            words = _combine(rowmul, sup[:, None], coef[None], lanes.add)
            wts = np.empty(words.shape[1], dtype=np.int32)
            counts = np.empty(words.shape[1], dtype=np.uint8)
            lanes.weights(words, wts, np.empty_like(words), counts)
            lighter = np.flatnonzero(wts < best)
            if not lighter.size:
                continue
            s, c = np.divmod(lighter, coef.shape[0])
            # a syndrome is zero exactly when all its packed words are
            outside = _combine(synmul, sup[s], coef[c], syn_lanes.add).any(axis=0)
            if outside.any():
                best = min(best, int(wts[lighter[outside]].min()))
        if best <= -(-(t + 1) * n // k):
            break
    return (None if best == _BIG else best), total - 1
