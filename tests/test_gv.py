"""Existence bounds: exact finite inequality, thresholds, entropy form."""

import itertools
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

import pytest

from aeaqecc.errors import ThresholdEmptyError
from aeaqecc.gv import (
    GvQuery,
    ThresholdPair,
    asymptotic_params,
    entropy,
    gv_asymptotic_holds,
    gv_finite_holds,
    gv_finite_sum,
    gv_threshold,
    sphere_sum,
    _fractions,
)
from aeaqecc.tables import TABLE1


def test_sphere_sum_counts_words():
    # independent count over all words of GF(q)^n
    for q, n in [(2, 5), (3, 4), (4, 3)]:
        for d in range(1, n + 2):
            count = sum(
                1
                for word in itertools.product(range(q), repeat=n)
                if 0 < sum(1 for x in word if x) < d
            )
            assert sphere_sum(q, n, d) == count


def test_sphere_sum_saturates_at_full_space():
    assert sphere_sum(4, 15, 16) == 4**15 - 1
    assert sphere_sum(4, 15, 17) == 4**15 - 1  # i > n terms vanish
    assert sphere_sum(7, 3, 1) == 0


def test_finite_sum_hand_value():
    q = GvQuery(q=4, n=15, k1=3, k2=1, c=1, dz=2, dx=1)
    value = gv_finite_sum(q)
    assert isinstance(value, Fraction)
    assert value == Fraction(45 * (4**12 - 1), 4**15 - 1)
    assert gv_finite_holds(q)


def test_finite_sum_empty_distances():
    q = GvQuery(q=4, n=15, k1=3, k2=1, c=1, dz=1, dx=1)
    assert gv_finite_sum(q) == 0


def test_finite_sum_first_table_entry_exceeds():
    q = GvQuery(q=4, n=15, k1=3, k2=1, c=1, dz=3, dx=2)
    assert gv_finite_sum(q) >= 1
    assert not gv_finite_holds(q)


def test_finite_sum_zero_only_at_unit_distances():
    for dz, dx in itertools.product(range(1, 5), repeat=2):
        q = GvQuery(q=3, n=8, k1=4, k2=3, c=2, dz=dz, dx=dx)
        assert (gv_finite_sum(q) == 0) == (dz == dx == 1)


def test_finite_sum_monotone_in_each_distance():
    for params in [(4, 15, 3, 1, 1), (5, 24, 5, 3, 3), (2, 10, 5, 4, 2)]:
        q, n, k1, k2, c = params
        prev_rows = None
        for dz in range(1, n + 2):
            row = [
                gv_finite_sum(GvQuery(q=q, n=n, k1=k1, k2=k2, c=c, dz=dz, dx=dx))
                for dx in range(1, n + 2)
            ]
            assert all(a <= b for a, b in zip(row, row[1:]))
            if prev_rows is not None:
                assert all(a <= b for a, b in zip(prev_rows, row))
            prev_rows = row


def brute_threshold(q, n, k1, k2, c):
    """Grid re-scan oracle used to double-check gv_threshold."""

    def total(dz, dx):
        return gv_finite_sum(GvQuery(q=q, n=n, k1=k1, k2=k2, c=c, dz=dz, dx=dx))

    members = []
    for d1 in range(1, n + 2):
        for d2 in range(1, n + 2):
            if total(d1, d2) < 1 and (total(d1 + 1, d2) >= 1 or total(d1, d2 + 1) >= 1):
                members.append((d1, d2))
    return max(members) if members else None


def fraction_threshold(q, n, k1, k2, c):
    """The threshold scan in Fraction arithmetic, as gv_threshold once
    computed it; an oracle for the integer-numerator form."""
    denom = q**n - 1
    f1 = Fraction(q ** (n - k1) - q ** (k2 - c), denom)
    f2 = Fraction(q ** (n - k2) - q ** (k1 - c), denom)
    sums = [sphere_sum(q, n, d) for d in range(n + 3)]
    best = None
    for d1 in range(1, n + 2):
        for d2 in range(1, n + 2):
            here = f1 * sums[d1] + f2 * sums[d2]
            if here >= 1:
                break
            up = f1 * sums[d1 + 1] + f2 * sums[d2]
            right = f1 * sums[d1] + f2 * sums[d2 + 1]
            if (up >= 1 or right >= 1) and (best is None or (d1, d2) > best):
                best = (d1, d2)
    return best, (f1, f2)


def _threshold_or_none(q, n, k1, k2, c):
    try:
        got = gv_threshold(q, n, k1, k2, c)
    except ThresholdEmptyError:
        return None
    return (got.dz_threshold, got.dx_threshold)


def _random_shapes(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice([2, 3, 4, 5, 7, 8, 9, 16, 25])
        n = rng.randrange(1, 41)
        k1, k2 = rng.randrange(n + 1), rng.randrange(n + 1)
        yield q, n, k1, k2, rng.randrange(max(0, k1 + k2 - n), min(k1, k2) + 1)


def test_threshold_and_sum_match_fraction_form():
    shapes = [(r.q, r.n, r.k1, r.k2, r.c) for r in TABLE1]
    shapes += list(_random_shapes(150, seed=2019))
    for q, n, k1, k2, c in shapes:
        want, (f1, f2) = fraction_threshold(q, n, k1, k2, c)
        assert _threshold_or_none(q, n, k1, k2, c) == want
        for dz, dx in [(1, 1), (2, 1), (n // 2 + 1, n // 3 + 1), (n + 1, n + 1)]:
            query = GvQuery(q=q, n=n, k1=k1, k2=k2, c=c, dz=dz, dx=dx)
            old = f1 * sphere_sum(q, n, dz) + f2 * sphere_sum(q, n, dx)
            assert gv_finite_sum(query) == old
            assert gv_finite_holds(query) == (old < 1)


def test_negative_weight_is_an_error():
    # outside the c range the weights can go negative; the private helper
    # must refuse rather than return a meaningless sum
    with pytest.raises(RuntimeError):
        _fractions(2, 4, 1, 4, 0)


def test_threshold_known_pairs():
    assert gv_threshold(4, 15, 3, 1, 1) == ThresholdPair(2, 1)
    assert gv_threshold(5, 24, 5, 3, 3) == ThresholdPair(2, 2)
    assert gv_threshold(16, 51, 23, 3, 3) == ThresholdPair(14, 2)


@pytest.mark.parametrize(
    "params",
    [(4, 15, 3, 1, 1), (5, 24, 5, 3, 3), (2, 12, 6, 3, 2), (3, 9, 4, 4, 1), (2, 8, 8, 2, 2)],
)
def test_threshold_matches_brute_rescan(params):
    want = brute_threshold(*params)
    if want is None:
        with pytest.raises(ThresholdEmptyError):
            gv_threshold(*params)
    else:
        got = gv_threshold(*params)
        assert (got.dz_threshold, got.dx_threshold) == want


def double_loop_threshold(q, n, k1, k2, c):
    """The integer-numerator double loop over the whole grid that
    gv_threshold once ran, before its one-pass walk."""
    f1, f2 = _fractions(q, n, k1, k2, c)
    one = q**n - 1
    sums = [0] * (n + 3)
    for d in range(2, n + 3):
        sums[d] = sums[d - 1] + comb(n, d - 1) * (q - 1) ** (d - 1)
    best = None
    for d1 in range(1, n + 2):
        for d2 in range(1, n + 2):
            here = f1 * sums[d1] + f2 * sums[d2]
            if here >= one:
                break
            up = f1 * sums[d1 + 1] + f2 * sums[d2]
            right = f1 * sums[d1] + f2 * sums[d2 + 1]
            if (up >= one or right >= one) and (best is None or (d1, d2) > best):
                best = (d1, d2)
    return best


def test_one_pass_threshold_matches_double_loop():
    # every valid (k1, k2, c) for small q and n, which holds the empty
    # cases (k = n - k1 - k2 + c = 0 makes both weights zero) and pairs
    # with d1 = 1 or d2 = 1, then random larger shapes
    shapes = [
        (q, n, k1, k2, c)
        for q in (2, 3, 4, 5, 7)
        for n in range(1, 10)
        for k1 in range(n + 1)
        for k2 in range(n + 1)
        for c in range(max(0, k1 + k2 - n), min(k1, k2) + 1)
    ]
    shapes += list(_random_shapes(300, seed=19))
    results = [double_loop_threshold(*shape) for shape in shapes]
    assert None in results
    assert {1} <= {r[0] for r in results if r} and {1} <= {r[1] for r in results if r}
    for shape, want in zip(shapes, results):
        assert _threshold_or_none(*shape) == want, shape


def test_threshold_empty_exactly_when_k_is_zero():
    # f1 and f2 vanish together exactly when k = n - k1 - k2 + c = 0; for
    # k > 0 the sum at d = n + 1 reaches 1, so no coordinate is n + 1
    for q in (2, 3, 4, 5, 7):
        for n in range(1, 10):
            for k1, k2 in itertools.product(range(n + 1), repeat=2):
                for c in range(max(0, k1 + k2 - n), min(k1, k2) + 1):
                    got = _threshold_or_none(q, n, k1, k2, c)
                    assert (got is None) == (n - k1 - k2 + c == 0)
                    assert got is None or n + 1 not in got


def test_threshold_pair_is_certifiable_member():
    pair = gv_threshold(5, 24, 5, 3, 3)
    base = dict(q=5, n=24, k1=5, k2=3, c=3)
    assert gv_finite_holds(GvQuery(**base, dz=pair.dz_threshold, dx=pair.dx_threshold))
    up = GvQuery(**base, dz=pair.dz_threshold + 1, dx=pair.dx_threshold)
    right = GvQuery(**base, dz=pair.dz_threshold, dx=pair.dx_threshold + 1)
    assert not (gv_finite_holds(up) and gv_finite_holds(right))


def test_threshold_empty_when_weights_vanish():
    # k1 = k2 = n = c makes both fractions zero, so the sum never reaches 1
    with pytest.raises(ThresholdEmptyError):
        gv_threshold(2, 4, 4, 4, 4)


def test_query_validation():
    with pytest.raises(ValueError):
        GvQuery(q=6, n=5, k1=1, k2=1, c=0, dz=1, dx=1)  # not a prime power
    with pytest.raises(ValueError):
        GvQuery(q=2, n=5, k1=3, k2=3, c=4, dz=1, dx=1)  # c > min(k1, k2)
    with pytest.raises(ValueError):
        GvQuery(q=2, n=3, k1=3, k2=3, c=2, dz=1, dx=1)  # c < k1 + k2 - n
    with pytest.raises(ValueError):
        GvQuery(q=2, n=5, k1=1, k2=1, c=0, dz=0, dx=1)
    with pytest.raises(ValueError):
        GvQuery(q=2, n=5, k1=6, k2=1, c=1, dz=1, dx=1)


# -- entropy form -------------------------------------------------------

def test_entropy_endpoints():
    assert entropy(0, 2) == 0
    assert entropy(1, 2) == 0
    assert entropy(Decimal("0"), 5) == 0


def test_entropy_binary_midpoint():
    assert abs(entropy(Decimal("0.5"), 2) - 1) < Decimal("1e-50")


def test_entropy_near_011():
    h = entropy(0.11, 2)
    assert Decimal("0.4999") < h < Decimal("0.5000")


def test_entropy_peak_identity():
    # h_q(1 - 1/q) + (1 - 1/q) log_q(q - 1) = 1 for every q
    for q in [2, 3, 4, 5, 9]:
        with localcontext() as ctx:
            ctx.prec = 60
            y = 1 - Decimal(1) / q
            lnq = Decimal(q).ln()
            expr = entropy(y, q) + y * (Decimal(q - 1).ln() / lnq)
            assert abs(expr - 1) < Decimal("1e-40")


def test_asymptotic_trivial_cases():
    assert gv_asymptotic_holds(0.3, 0.3, 0, 0, 0.1, 2)
    # boundary lambda accepted, inequality still about the deltas
    assert gv_asymptotic_holds(0.3, 0.3, 0, 0, Decimal("-0.4"), 2)
    # exact boundary of the entropy inequality is a rejection
    assert not gv_asymptotic_holds(0, 0.5, 0, 0, Decimal("-0.5"), 2)


def test_asymptotic_entropy_threshold():
    assert gv_asymptotic_holds(0.5, 0.5, 0.11, 0, 0, 2)
    assert not gv_asymptotic_holds(0.4, 0.5, 0.11, 0, 0, 2)


def test_asymptotic_validation():
    with pytest.raises(ValueError):
        gv_asymptotic_holds(0.3, 0.3, 0, 0, 0.31, 2)  # lambda above min
    with pytest.raises(ValueError):
        gv_asymptotic_holds(0.3, 0.3, 1, 0, 0.1, 2)  # delta at 1
    with pytest.raises(ValueError):
        gv_asymptotic_holds(0.3, 0.3, 0, 0, 0.1, 6)  # not a prime power


def test_asymptotic_params_floors():
    params = asymptotic_params(0.3, 0.3, 0.05, 0.05, 0.1, 100, 2)
    assert (params.n, params.k, params.c) == (100, 50, 10)
    assert (params.dz.value, params.dx.value) == (5, 5)
    small = asymptotic_params(0.3, 0.3, 0.05, 0.05, 0.1, 10, 2)
    assert (small.n, small.k, small.c) == (10, 5, 1)
    assert (small.dz.value, small.dx.value) == (0, 0)


def test_asymptotic_params_rejects_failing_rates():
    with pytest.raises(ValueError):
        asymptotic_params(0.4, 0.5, 0.11, 0, 0, 100, 2)
    with pytest.raises(ValueError):
        # negative lambda passes the range check but cannot give a tuple
        asymptotic_params(0.45, 0.45, 0.01, 0.01, Decimal("-0.05"), 100, 2)
