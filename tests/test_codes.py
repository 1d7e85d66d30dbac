"""Codeword enumeration and the LinearCode wrapper.

Minimum weights are checked two ways: against a naive product-space
enumerator for small codes, and against long-settled parameters of named
codes (Hamming, Golay, simplex, first-order Reed-Muller) for larger ones.
"""

import itertools
import random

import numpy as np
import pytest

from aeaqecc.codes import (
    LinearCode,
    WeightReport,
    format_code,
    min_weight,
    parse_code,
    read_code_file,
    relative_min_weight,
    symplectic_weight,
    write_code_file,
)
from aeaqecc import enumeration
from aeaqecc.enumeration import minimum_weight_scan
from aeaqecc.errors import BudgetExceededError, CodeFormatError, FieldMismatchError
from aeaqecc.fields import field_create
from aeaqecc.linalg import MatrixGF, mat_mul, row_space, row_space_intersect, stack


def naive_min_weight(gen, field, member=None):
    """Scalar-arithmetic reference enumerator, deliberately independent
    of the vectorized scan."""
    gen = np.asarray(gen)
    q = field.order
    k, n = gen.shape
    best = None
    for coeffs in itertools.product(range(q), repeat=k):
        if not any(coeffs):
            continue
        word = [0] * n
        for c, row in zip(coeffs, gen):
            if c:
                for j in range(n):
                    word[j] = field.add(word[j], field.mul(c, int(row[j])))
        if member is not None and member(np.array(word)):
            continue
        w = sum(1 for x in word if x)
        if best is None or w < best:
            best = w
    return best


HAMMING_7_4 = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]


def test_hamming_code_weights():
    f2 = field_create(2)
    ham = LinearCode.from_rows(f2, HAMMING_7_4)
    report = min_weight(ham)
    assert report == WeightReport(value=3, exact=True, enumerated=15)
    assert min_weight(ham.dual()).value == 4  # simplex code


def test_golay_code_weights():
    # cyclic [23, 12] code from shifts of x^11+x^10+x^6+x^5+x^4+x^2+1,
    # minimum distance 7; the parity-extended [24, 12] code has 8
    f2 = field_create(2)
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    rows = []
    for i in range(12):
        row = [0] * 23
        for j, c in enumerate(g):
            row[i + j] = c
        rows.append(row)
    golay = LinearCode.from_rows(f2, rows)
    assert (golay.n, golay.k) == (23, 12)
    assert min_weight(golay).value == 7
    extended = LinearCode.from_rows(
        f2, [row + [sum(row) % 2] for row in rows]
    )
    assert min_weight(extended).value == 8


def test_ternary_simplex_code():
    # columns are the 13 points of the projective plane over GF(3);
    # every nonzero codeword has weight 9
    f3 = field_create(3)
    cols = []
    for v in itertools.product(range(3), repeat=3):
        if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1:
            cols.append(v)
    assert len(cols) == 13
    gen = [[col[i] for col in cols] for i in range(3)]
    simplex = LinearCode.from_rows(f3, gen)
    assert (simplex.n, simplex.k) == (13, 3)
    assert min_weight(simplex).value == 9


def test_first_order_reed_muller():
    f2 = field_create(2)
    pts = list(itertools.product(range(2), repeat=5))
    rows = [[1] * 32] + [[pt[i] for pt in pts] for i in range(5)]
    rm = LinearCode.from_rows(f2, rows)
    assert (rm.n, rm.k) == (32, 6)
    assert min_weight(rm).value == 16


@pytest.mark.parametrize(
    "p,r", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 1), (3, 2), (5, 1), (7, 1)]
)
def test_min_weight_matches_naive_enumeration(p, r):
    field = field_create(p, r)
    q = field.order
    rng = random.Random(1000 * p + r)
    for _ in range(10):
        n = rng.randrange(3, 9)
        k_cap = 1
        while q ** (k_cap + 1) <= 4096 and k_cap < n:
            k_cap += 1
        k = rng.randrange(1, k_cap + 1)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        code = LinearCode.from_rows(field, rows, n=n)
        if code.k == 0:
            continue
        report = min_weight(code)
        assert report.value == naive_min_weight(code.gen.entries, field)
        assert report.exact
        assert report.enumerated == q**code.k - 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_relative_min_weight_matches_naive(p):
    field = field_create(p)
    rng = random.Random(17 + p)
    checked = 0
    while checked < 12:
        n = rng.randrange(4, 8)
        a = LinearCode.from_rows(
            field, [[rng.randrange(p) for _ in range(n)] for _ in range(3)], n=n
        )
        b = LinearCode.from_rows(
            field, [[rng.randrange(p) for _ in range(n)] for _ in range(2)], n=n
        )
        if a.k == 0:
            continue
        report = relative_min_weight(a, b)
        want = naive_min_weight(a.gen.entries, field, member=b.contains)
        if a.is_subcode_of(b):
            assert report.is_empty and want is None
        else:
            assert report.value == want
        checked += 1
    # b meets a in two or more dimensions, through combinations of all of
    # a's rows, so the rows of a ∩ b lead at arbitrary pivots of a
    checked = 0
    while checked < 12:
        n = rng.randrange(5, 8)
        a = LinearCode.from_rows(
            field, [[rng.randrange(p) for _ in range(n)] for _ in range(4)], n=n
        )
        coef = MatrixGF.from_rows(
            field, [[rng.randrange(p) for _ in range(a.k)] for _ in range(2)]
        )
        extra = [rng.randrange(p) for _ in range(n)]
        b = LinearCode.from_rows(field, mat_mul(coef, a.gen).entries.tolist() + [extra])
        if a.intersect(b).k < 2 or a.is_subcode_of(b):
            continue
        report = relative_min_weight(a, b)
        assert report.value == naive_min_weight(a.gen.entries, field, member=b.contains)
        assert report.enumerated == p**a.k - 1
        full = relative_min_weight(a, LinearCode.full(field, n))
        assert full.is_empty and full.enumerated == 0
        checked += 1


def _lanes_per_word(p, r):
    """Coordinates per 64-bit word: r digits of 1 bit (p = 2) or of the
    smallest width b with 2^(b-1) >= p."""
    b = 1 if p == 2 else next(b for b in itertools.count(1) if 2 ** (b - 1) >= p)
    return 64 // (r * b)


@pytest.mark.parametrize(
    "p,r",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1),
     (5, 2), (7, 1), (7, 2)],
)
def test_scan_matches_naive_at_word_boundaries(p, r, monkeypatch):
    # lengths on both sides of a word boundary, rows half zeros so that
    # low weights hinge on single coordinates, with and without the span
    # of row 0 skipped; each scan runs as one block and again split into
    # many
    field = field_create(p, r)
    q = field.order
    per_word = _lanes_per_word(p, r)
    k = max([2] + [k for k in range(1, 8) if q**k <= 128])
    rng = random.Random(31 * p + r)
    for n in (per_word - 1, per_word, per_word + 1):
        rows = [
            [rng.randrange(1, q) if rng.random() < 0.5 else 0 for _ in range(n)]
            for _ in range(k)
        ]
        code = LinearCode.from_rows(field, rows, n=n)
        sub = LinearCode.from_rows(field, [list(code.gen.row(0))])
        gen = code.gen.entries
        for skip, member in ((0, None), (1, sub.contains)):
            want = (naive_min_weight(gen, field, member=member), q**code.k - 1)
            assert minimum_weight_scan(gen, field, skip=skip) == want
            with monkeypatch.context() as m:
                m.setattr(enumeration, "_BLOCK_TARGET", q)
                assert minimum_weight_scan(gen, field, skip=skip) == want


@pytest.mark.parametrize(
    "p,r",
    [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)],
)
def test_scan_skip_of_every_size(p, r, monkeypatch):
    # skip runs from 0 to k, so with small blocks it covers whole blocks
    # (skip > k_lo), part of one block, the top rows, and everything; the
    # oracle stays scalar over all q^k words, not one per scalar class
    field = field_create(p, r)
    q = field.order
    k = max(k for k in range(2, 7) if q**k <= 1024)
    rng = random.Random(97 * p + r)
    n = rng.randrange(k + 1, k + 6)
    code = LinearCode.from_rows(
        field, [[rng.randrange(q) for _ in range(n)] for _ in range(k)], n=n
    )
    gen = code.gen.entries
    for skip in range(code.k + 1):
        span = LinearCode.from_rows(field, gen[:skip].tolist(), n=n)
        want = (naive_min_weight(gen, field, member=span.contains), q**code.k - 1)
        for target in (q, q**2):
            with monkeypatch.context() as m:
                m.setattr(enumeration, "_BLOCK_TARGET", target)
                assert minimum_weight_scan(gen, field, skip=skip) == want


@pytest.mark.parametrize("p,r,k", [(2, 1, 7), (2, 2, 4), (7, 1, 3), (3, 2, 3)])
def test_scan_visits_one_word_per_scalar_class(p, r, k, monkeypatch):
    # high indices whose top nonzero digit is not 1 are never combined with
    # the low table, so a scan runs 1 + (q^(k-k_lo) - 1)/(q - 1) blocks of
    # q^k_lo words (all q^k words over GF(2)), while it still reports
    # q^k - 1 words covered; [I | 1] has minimum weight 2, so no early
    # exit cuts the count short
    field = field_create(p, r)
    q = field.order
    gen = np.hstack([np.eye(k, dtype=np.int64), np.ones((k, 1), dtype=np.int64)])
    want = (naive_min_weight(gen, field), q**k - 1)
    assert want[0] == 2
    combined = []
    weights = enumeration._Lanes.weights

    def spy(self, diff, *args):
        combined.append(diff.shape[1])
        return weights(self, diff, *args)

    for k_lo in (1, 2):  # k_lo = 1 splits off mid and top rows
        with monkeypatch.context() as m:
            m.setattr(enumeration._Lanes, "weights", spy)
            m.setattr(enumeration, "_BLOCK_TARGET", q**k_lo)
            combined.clear()
            assert minimum_weight_scan(gen, field) == want
        assert combined == [q**k_lo] * (1 + (q ** (k - k_lo) - 1) // (q - 1))


def test_scan_early_exit_reports_words_covered(monkeypatch):
    # a weight-1 word ends the scan early, before the last block when the
    # blocks are small; the count is still q^k - 1
    f7 = field_create(7)
    gen = np.array([[0, 3, 2, 5, 6], [0, 0, 4, 1, 1], [0, 0, 0, 2, 0]])
    for target in (enumeration._BLOCK_TARGET, 7):
        monkeypatch.setattr(enumeration, "_BLOCK_TARGET", target)
        assert minimum_weight_scan(gen, f7) == (1, 7**3 - 1)
        assert minimum_weight_scan(gen, f7, skip=3) == (None, 7**3 - 1)


def test_scan_rejects_skip_outside_range():
    f2 = field_create(2)
    gen = np.array(HAMMING_7_4)
    for skip in (-1, 5):
        with pytest.raises(ValueError):
            minimum_weight_scan(gen, f2, skip=skip)


def test_scan_weights_above_255():
    # a uint8 weight accumulator would wrap on these words
    f5 = field_create(5)
    rng = random.Random(256)
    gen = np.array([[rng.randrange(1, 5) for _ in range(400)] for _ in range(3)])
    want = naive_min_weight(gen, f5)
    assert want >= 256
    assert minimum_weight_scan(gen, f5) == (want, 5**3 - 1)


def test_relative_min_weight_excludes_low_weight_members():
    # the weight-1 word lies in b, so the scan must keep going
    f2 = field_create(2)
    a = LinearCode.from_rows(f2, [[1, 0, 0], [0, 1, 1]])
    b = LinearCode.from_rows(f2, [[1, 0, 0]])
    assert min_weight(a).value == 1
    assert relative_min_weight(a, b).value == 2


def test_relative_min_weight_subcode_shortcut():
    f2 = field_create(2)
    a = LinearCode.from_rows(f2, [[1, 1, 0, 0]])
    b = LinearCode.from_rows(f2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    report = relative_min_weight(a, b)
    assert report.is_empty
    assert report.enumerated == 0  # decided by dim(a ∩ b) = dim a, not scanning


def test_relative_min_weight_against_zero_code():
    f3 = field_create(3)
    a = LinearCode.from_rows(f3, [[1, 2, 0], [0, 1, 1]])
    b = LinearCode.zero(f3, 3)
    assert relative_min_weight(a, b) == min_weight(a)


def test_zero_code_min_weight_is_empty():
    f2 = field_create(2)
    report = min_weight(LinearCode.zero(f2, 5))
    assert report.is_empty
    assert report.display() == "empty"


def test_scan_with_all_members_excluded():
    f2 = field_create(2)
    gen = np.array(HAMMING_7_4)
    value, visited = minimum_weight_scan(gen, f2, skip=4)
    assert value is None
    assert visited == 15


def test_budget_checked_before_scanning():
    f2 = field_create(2)
    gen = np.eye(40, dtype=np.int64)
    with pytest.raises(BudgetExceededError) as info:
        minimum_weight_scan(gen, f2, budget=1 << 20)
    assert info.value.required == 2**40
    assert info.value.budget == 1 << 20


def test_scan_deterministic():
    f5 = field_create(5)
    rng = random.Random(4)
    gen = np.array([[rng.randrange(5) for _ in range(20)] for _ in range(6)])
    code = LinearCode.from_rows(f5, gen)
    first = minimum_weight_scan(code.gen.entries, f5)
    second = minimum_weight_scan(code.gen.entries, f5)
    assert first == second


def test_symplectic_weight():
    assert symplectic_weight([1, 0, 1, 0, 0, 0, 1, 1]) == 3
    assert symplectic_weight([0, 0, 0, 0]) == 0
    assert symplectic_weight([0, 2, 1, 0]) == 2
    assert symplectic_weight([0, 2, 0, 1]) == 1
    with pytest.raises(ValueError):
        symplectic_weight([1, 0, 1])


def test_symplectic_weight_counts_joint_support():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(1, 10)
        a = [rng.randrange(3) for _ in range(n)]
        b = [rng.randrange(3) for _ in range(n)]
        want = sum(1 for x, y in zip(a, b) if x or y)
        assert symplectic_weight(a + b) == want


# -- LinearCode behaviour ----------------------------------------------

def test_code_canonical_under_row_operations():
    f4 = field_create(2, 2)
    base = LinearCode.from_rows(f4, [[1, 2, 3, 0], [0, 1, 1, 2]])
    mixed = LinearCode.from_rows(
        f4,
        [
            [f4.add(f4.mul(2, 1), 0), f4.add(f4.mul(2, 2), 1), f4.add(f4.mul(2, 3), 1), f4.add(0, 2)],
            [0, 1, 1, 2],
        ],
    )
    assert base == mixed
    assert hash(base) == hash(mixed)


def test_contains_and_subcode():
    f2 = field_create(2)
    ham = LinearCode.from_rows(f2, HAMMING_7_4)
    assert ham.contains([0] * 7)
    assert ham.contains([1, 0, 0, 0, 0, 1, 1])
    assert not ham.contains([1, 0, 0, 0, 0, 0, 0])
    sub = LinearCode.from_rows(f2, [[1, 1, 0, 0, 1, 1, 0]])
    assert sub.is_subcode_of(ham) == ham.contains([1, 1, 0, 0, 1, 1, 0])
    assert LinearCode.zero(f2, 7).is_subcode_of(ham)
    assert ham.is_subcode_of(LinearCode.full(f2, 7))


def test_dual_dimensions_and_involution():
    rng = random.Random(23)
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        field = field_create(p, r)
        q = field.order
        for _ in range(10):
            n = rng.randrange(2, 9)
            k = rng.randrange(0, n + 1)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            code = LinearCode.from_rows(field, rows, n=n)
            assert code.dual().k == n - code.k
            assert code.dual().dual() == code


def test_intersection():
    f2 = field_create(2)
    a = LinearCode.from_rows(f2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    b = LinearCode.from_rows(f2, [[1, 1, 1, 1], [1, 0, 1, 0]])
    meet = a.intersect(b)
    assert meet.k == 1
    assert meet.contains([1, 1, 1, 1])
    # the syndrome rule against the 2n-wide Zassenhaus reduction, with
    # zero and full codes on either side
    for p, r in [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]:
        field = field_create(p, r)
        rng = random.Random(1000 * p + r)

        def random_code(n, k):
            rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(k)]
            return LinearCode.from_rows(field, rows, n=n)

        for _ in range(30):
            n = rng.randrange(1, 8)
            a = random_code(n, rng.randrange(0, n + 1))
            if rng.random() < 0.5:  # a large shared part: b mixes a's rows
                mix = [[rng.randrange(field.order) for _ in range(a.k)] for _ in range(a.k)]
                shared = mat_mul(MatrixGF.from_rows(field, mix), a.gen) if a.k else a.gen
                extra = random_code(n, rng.randrange(0, 2)).gen
                b = LinearCode(field, row_space(stack(shared, extra)))
            else:
                b = random_code(n, rng.randrange(0, n + 1))
            zero, full = LinearCode.zero(field, n), LinearCode.full(field, n)
            pairs = [(a, b), (b, a), (a.dual(), b), (b.dual(), a),
                     (zero, b), (a, zero), (full, b), (a, full)]
            for x, y in pairs:
                assert x.intersect(y).gen == row_space_intersect(x.gen, y.gen)


def test_field_mismatch_rejected():
    f2 = field_create(2)
    f3 = field_create(3)
    a = LinearCode.from_rows(f2, [[1, 0]])
    b = LinearCode.from_rows(f3, [[1, 0]])
    with pytest.raises(FieldMismatchError):
        a.intersect(b)
    with pytest.raises(FieldMismatchError):
        relative_min_weight(a, b)


# -- the code file format ----------------------------------------------

def test_format_parse_round_trip():
    f4 = field_create(2, 2)
    code = LinearCode.from_rows(f4, [[1, 2, 3, 0], [0, 1, 1, 2]])
    assert parse_code(format_code(code)) == code


def test_parse_with_comments_and_blank_lines():
    text = """
# a binary repetition code
field 2

n 3  # length
k 1
row 1 1 1
"""
    code = parse_code(text)
    assert (code.n, code.k) == (3, 1)
    assert code.field.order == 2


def test_parse_prime_power_designator():
    code = parse_code("field 2^4\nn 2\nk 1\nrow 1 9\n")
    assert code.field.order == 16


def test_file_round_trip(tmp_path):
    f5 = field_create(5)
    code = LinearCode.from_rows(f5, [[1, 2, 3], [0, 1, 4]])
    path = tmp_path / "code.txt"
    write_code_file(code, path)
    assert read_code_file(path) == code


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing 'field'"),
        ("n 3\nfield 2\nk 1\nrow 1 1 1\n", "expected 'field'"),
        ("field 6\nn 2\nk 1\nrow 1 1\n", "line 1, field 2"),
        ("field 2\nk 1\nn 3\nrow 1 1 1\n", "expected 'n'"),
        ("field 2\nn 0\nk 0\n", "'n' must be positive"),
        ("field 2\nn 2\nk 3\nrow 1 0\nrow 0 1\nrow 1 1\n", "exceeds"),
        ("field 2\nn 3\nk 2\nrow 1 0 1\n", "expected 2 'row' lines, found 1"),
        ("field 2\nn 3\nk 1\nrow 1 0\n", "row needs 3 entries, found 2"),
        ("field 2\nn 3\nk 1\nrow 1 x 0\n", "line 4, field 3"),
        ("field 3\nn 2\nk 1\nrow 1 5\n", "entry 5 outside GF(3)"),
        ("field 2\nn 2\nk 1\nrow 1 1\nrow 1 1\n", "unexpected extra line"),
        ("field 2\nn 2\nk 2\nrow 1 1\nrow 1 1\n", "span only 1"),
        ("field 2\nn two\nk 1\nrow 1 1\n", "'n' must be an integer"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(CodeFormatError) as info:
        parse_code(text)
    assert fragment in str(info.value)


def test_parse_error_locations():
    with pytest.raises(CodeFormatError) as info:
        parse_code("field 2\nn 3\nk 1\nrow 1 x 0\n")
    assert info.value.line == 4
    assert info.value.column == 3
