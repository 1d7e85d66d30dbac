"""The cyclic-window distance search, cross-checked against the scan.

relative_min_weight takes the window search when both codes are cyclic;
_scan_relative_min_weight is the scan every other pair takes, from the
same syndromes of a's rows against b.  Each test runs both on cells
where both fit the budget and requires the same report: value, exact
flag and words covered.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from aeaqecc import codes, eaqecc, enumeration
from aeaqecc.bch import bch_asym_code, coset_code, cyclotomic_cosets
from aeaqecc.codes import (
    LinearCode,
    WeightReport,
    _scan_relative_min_weight,
    relative_min_weight,
)
from aeaqecc.errors import BudgetExceededError
from aeaqecc.fields import field_create
from aeaqecc.linalg import MatrixGF, mat_mul
from aeaqecc.tables import reproduce_table1, reproduce_table2


def _forbidden(*args, **kwargs):
    raise AssertionError("this path must not run")


def _scan(a, b, budget):
    """The report of the scan relative_min_weight gives a non-cyclic pair."""
    syndromes = mat_mul(b.parity_check, a.gen.transpose())
    value, visited = _scan_relative_min_weight(a, syndromes, budget)
    return WeightReport(value=value, exact=True, enumerated=visited)


def _check(a, b, monkeypatch, budget=codes.DEFAULT_BUDGET):
    """The window report, with the full scan forbidden while it runs,
    equals the scan's."""
    assert a.is_cyclic and b.is_cyclic
    with monkeypatch.context() as m:
        m.setattr(enumeration, "_scan", _forbidden)
        window = relative_min_weight(a, b, budget)
    assert window == _scan(a, b, budget)
    assert window.enumerated == a.field.order**a.k - 1
    return window


def _record_calls(monkeypatch):
    """(a, b, budget) of every relative_min_weight call asym_params makes."""
    calls = []

    def spy(a, b, budget=codes.DEFAULT_BUDGET):
        calls.append((a, b, budget))
        return relative_min_weight(a, b, budget)

    monkeypatch.setattr(eaqecc, "relative_min_weight", spy)
    return calls


def test_every_table_call(monkeypatch):
    with monkeypatch.context() as m:
        calls = _record_calls(m)
        reproduce_table1()
        reproduce_table2()
    assert len(calls) == 32
    for a, b, budget in calls:
        _check(a, b, monkeypatch, budget)


# (q, n) whose constructions all fit a small budget in both directions
BCH_LENGTHS = [(2, 21), (3, 13), (4, 15), (5, 12), (7, 8), (8, 9), (9, 10)]


@pytest.mark.parametrize("q,n", BCH_LENGTHS)
def test_bch_asym_code_pairs(q, n, monkeypatch):
    structure = cyclotomic_cosets(n, q)
    with monkeypatch.context() as m:
        calls = _record_calls(m)
        for t in range(1, structure.z):
            for s in range(t):
                bch_asym_code(structure, s, t, budget=1 << 16)
    assert calls
    for a, b, budget in calls:
        _check(a, b, monkeypatch, budget)
    # batches of at most q words split supports and coefficients alike
    monkeypatch.setattr(enumeration, "_BLOCK_TARGET", q)
    for a, b, budget in calls[:4]:
        _check(a, b, monkeypatch, budget)


@pytest.mark.parametrize(
    "n,q,labels1,labels2",
    [
        # GF(2^5): lanes of 5 bits, K = 31 - 28 = 3
        (31, 32, range(28), [0, 1, 2, 5]),
        (31, 32, range(3, 30), [4, 9]),
        # odd q from an extension field: GF(5^2), K = 24 - 20 = 4
        (24, 25, range(20), [0, 23]),
        (24, 25, range(2, 22), [1, 2, 3]),
    ],
)
def test_wide_and_odd_extension_fields(n, q, labels1, labels2, monkeypatch):
    c1, c2 = coset_code(n, q, labels1), coset_code(n, q, labels2)
    assert c1.n - c1.k <= 4
    _check(c1.dual(), c2, monkeypatch)


def test_certificate_that_closes_only_at_the_last_level(monkeypatch):
    # [10, 3, 8] Reed-Solomon over GF(11): after level t every unvisited
    # word weighs at least ceil((t + 1) * 10 / 3), which is 7 < 8 at t = 1,
    # so the search needs level 2 = K - 1, where that bound reaches n.
    # Level 1 is read off the rows, so only level 2 generates messages
    a = coset_code(10, 11, [0, 1, 2])
    assert (a.k, a.n) == (3, 10)
    levels = []
    messages = enumeration._messages

    def spy(k, t, q, cap):
        levels.append(t)
        return messages(k, t, q, cap)

    monkeypatch.setattr(enumeration, "_messages", spy)
    zero = LinearCode.zero(a.field, 10)
    assert _check(a, zero, monkeypatch).value == 8
    assert sorted(set(levels)) == [2]
    # a one-dimensional code stops at t = K = 1, read off its one row
    levels.clear()
    rep = coset_code(10, 11, [0])
    assert _check(rep, zero, monkeypatch).value == 10
    assert levels == []
    # with b the [10, 2, 9] cyclic subcode, the words of a inside b are
    # passed over and the minimum stays 8
    sub = coset_code(10, 11, [0, 1])
    assert _check(a, sub, monkeypatch).value == 8


@pytest.mark.parametrize(
    "q,n,labels1,labels2",
    [
        (2, 15, (0, 1, 3), (5,)),  # [15, 9]: a row of weight 3 <= ceil(30 / 9)
        (4, 15, (0, 1, 2, 3, 5, 6, 7), (1,)),
        (9, 16, (0, 1), (2,)),  # [16, 3]: 8 <= ceil(32 / 3)
        (3, 13, (0, 1), (1,)),  # one of the four rows lies in b
    ],
)
def test_level_one_certificate_packs_no_lanes(q, n, labels1, labels2, monkeypatch):
    # when the lightest row of nonzero syndrome meets ceil(2n / K), the
    # search ends at level 1 without lanes, packed tables or messages
    a, b = coset_code(n, q, labels1), coset_code(n, q, labels2)
    with monkeypatch.context() as m:
        for name in ("_Lanes", "_lanes", "_messages", "_combine"):
            m.setattr(enumeration, name, _forbidden)
        level_one = relative_min_weight(a, b)
    assert level_one.value <= -(-2 * n // a.k)
    assert level_one == _check(a, b, monkeypatch)


@pytest.mark.parametrize(
    "q,n,labels1,labels2,d_a,want",
    [
        (2, 9, (0, 1), (1,), 2, 3),
        (2, 15, (0, 1, 3), (0, 3), 3, 4),
        (3, 8, (0, 1, 5), (1, 5), 2, 4),
        (4, 15, (0, 1, 3), (1, 3), 8, 9),
    ],
)
def test_lightest_words_inside_b_are_passed_over(q, n, labels1, labels2, d_a, want, monkeypatch):
    # every lightest word of a lies in b, so only the syndrome test keeps
    # the minimum over a \ b above d(a)
    a, b = coset_code(n, q, labels1), coset_code(n, q, labels2)
    assert codes.min_weight(a).value == d_a
    assert _check(a, b, monkeypatch).value == want


def test_lightest_word_needs_coefficients_other_than_one(monkeypatch):
    # a [15, 7, 6] code over GF(4) whose weight-6 words are missed when
    # every message coefficient is 1, while its weight-7 words are not
    a = coset_code(15, 4, (0, 1, 2, 7))
    assert codes.min_weight(a).value == 6
    assert _check(a, LinearCode.zero(a.field, 15), monkeypatch).value == 6


@pytest.mark.parametrize("k,q", [(4, 2), (4, 3), (3, 4), (3, 7)])
def test_messages_one_per_scalar_class(k, q):
    # every weight-t message whose first nonzero digit is 1, once each,
    # whichever cap splits the batches
    for t in range(1, k + 1):
        want = sorted(
            m for m in itertools.product(range(q), repeat=k)
            if sum(1 for d in m if d) == t and next(d for d in m if d) == 1
        )
        for cap in (1, q, 1 << 16):
            got = []
            for sup, coef in enumeration._messages(k, t, q, cap):
                assert len(sup) * len(coef) <= cap
                for s in sup:
                    for c in coef:
                        m = [0] * k
                        for i, d in zip(s, c):
                            m[i] = int(d)
                        got.append(tuple(m))
            assert sorted(got) == want, (t, cap)


def test_contained_pair_is_empty_without_search(monkeypatch):
    # a lies in b: the syndromes both paths share give the empty marker
    # before either runs, for the cyclic pair and for a permuted copy
    # that would take the scan
    a = coset_code(15, 2, [1])
    b = coset_code(15, 2, [0, 1, 3])
    perm = list(range(15))
    random.Random(5).shuffle(perm)
    p_a, p_b = _permuted(a, perm), _permuted(b, perm)
    assert not p_a.is_cyclic and not p_b.is_cyclic
    monkeypatch.setattr(enumeration, "_windows", _forbidden)
    monkeypatch.setattr(codes, "_scan_relative_min_weight", _forbidden)
    report = relative_min_weight(a, b)
    assert report.is_empty and report.enumerated == 0
    assert relative_min_weight(p_a, p_b) == report


def test_budget_refused_before_the_search(monkeypatch):
    c1, c2 = coset_code(31, 2, [0]), coset_code(31, 2, [0, 1])
    monkeypatch.setattr(enumeration, "_windows", _forbidden)
    with pytest.raises(BudgetExceededError):
        relative_min_weight(c1.dual(), c2, budget=2**29)


def _permuted(code, perm):
    return LinearCode(code.field, MatrixGF(code.field, code.gen.entries[:, perm]))


def test_permuted_pair_takes_the_scan(monkeypatch):
    # the same column permutation on both codes keeps every weight and
    # the pairing, so asym_params must give today's value through the scan
    c1, c2 = coset_code(15, 2, [0, 1]), coset_code(15, 2, [3])
    perm = list(range(15))
    random.Random(5).shuffle(perm)
    p1, p2 = _permuted(c1, perm), _permuted(c2, perm)
    assert not p1.is_cyclic and not p2.is_cyclic
    want = eaqecc.asym_params(c1, c2)
    scans = []
    scan = codes._scan_relative_min_weight

    def spy(a, syndromes, budget):
        scans.append(a)
        return scan(a, syndromes, budget)

    monkeypatch.setattr(enumeration, "_windows", _forbidden)
    monkeypatch.setattr(codes, "_scan_relative_min_weight", spy)
    got = eaqecc.asym_params(p1, p2)
    assert got == want
    assert len(scans) == 2


def test_cyclic_test_rejects_near_cyclic_codes():
    # a [7, 3] cyclic binary code is closed under the shift; swapping two
    # of its columns breaks that, and so does dropping a row
    ham = coset_code(7, 2, [1])
    assert ham.is_cyclic and ham.dual().is_cyclic
    swapped = _permuted(ham, [1, 0, 2, 3, 4, 5, 6])
    assert not swapped.is_cyclic and not swapped.dual().is_cyclic
    assert not LinearCode(ham.field, MatrixGF(ham.field, ham.gen.entries[:2])).is_cyclic
    F = field_create(3)
    assert LinearCode.zero(F, 5).is_cyclic and LinearCode.from_rows(F, np.eye(5, dtype=int)).is_cyclic


def test_unsystematic_cyclic_claim_raises():
    # a cyclic code is systematic on its first k positions; a code that
    # claims cyclicity without that is a broken invariant, not bad input
    F = field_create(2)
    a = LinearCode.from_rows(F, [[0, 1, 1, 0], [0, 0, 1, 1]])
    a.is_cyclic = True
    with pytest.raises(RuntimeError, match="systematic"):
        relative_min_weight(a, LinearCode.zero(F, 4))


def test_window_batches_stay_capped(monkeypatch):
    # the [10, 3, 8] code over GF(11) walks level 2: 3 supports of 10
    # coefficient rows each, so a cap of 4 words splits the coefficients
    a = coset_code(10, 11, [0, 1, 2])
    zero = LinearCode.zero(a.field, a.n)
    sizes = []
    combine = enumeration._combine

    def spy(table, sup, coef, add):
        out = combine(table, sup, coef, add)
        sizes.append(out.shape[1])
        return out

    monkeypatch.setattr(enumeration, "_combine", spy)
    monkeypatch.setattr(enumeration, "_BLOCK_TARGET", 4)
    assert _check(a, zero, monkeypatch).value == 8
    assert sizes and max(sizes) <= 4


def test_min_weight_walks_a_cyclic_code_and_scans_any_other(monkeypatch):
    # min_weight is the relative minimum weight against the zero code: a
    # cyclic code takes the window search, any other code the scan, and
    # both give the plain scan's value and words covered
    cyclic = coset_code(15, 2, [1])
    plain = _permuted(cyclic, [1, 0] + list(range(2, 15)))
    assert not plain.is_cyclic
    walks = []
    windows = enumeration._windows

    def spy(*args):
        walks.append(args)
        return windows(*args)

    monkeypatch.setattr(enumeration, "_windows", spy)
    for code, walked in [(cyclic, 1), (plain, 0)]:
        walks.clear()
        value, visited = enumeration.minimum_weight_scan(code.gen.entries, code.field)
        assert not walks
        assert codes.min_weight(code) == WeightReport(value=value, exact=True, enumerated=visited)
        assert len(walks) == walked


def test_gf2048_pair_needs_no_table_of_pairs():
    # the window search multiplies GF(2^11) rows by exp/log; a 2048 x 2048
    # product table of 2-byte entries alone would be 8 MiB
    a, b = coset_code(23, 2048, [1, 2]), coset_code(23, 2048, [2])
    a.parity_check, b.parity_check  # built before the measurement
    tracemalloc.start()
    try:
        report = relative_min_weight(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == WeightReport(value=22, exact=True, enumerated=2048**2 - 1)
    assert peak < 4 * 2**20, peak / 2**20
