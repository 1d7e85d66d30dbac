"""Parameter derivation for code pairs: c, distances, puncturing."""

import random

import pytest

from test_codes import HAMMING_7_4, naive_min_weight

from aeaqecc import codes, eaqecc
from aeaqecc.bch import coset_code, evaluation_code
from aeaqecc.codes import LinearCode, WeightReport
from aeaqecc.eaqecc import (
    AsymEaqeccParams,
    asym_params,
    css_stack,
    entanglement_c,
    punctured_params,
    symplectic_c,
)
from aeaqecc.enumeration import DEFAULT_BUDGET
from aeaqecc.errors import BudgetExceededError, DegeneratePairError, FieldMismatchError
from aeaqecc.fields import field_create, prime_power_decomposition
from aeaqecc.linalg import MatrixGF

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def random_code(field, n, k, rng):
    rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(k)]
    return LinearCode.from_rows(field, rows, n=n)


def test_entanglement_small_cases():
    f2 = field_create(2)
    c1 = LinearCode.from_rows(f2, [[1, 1, 1]])
    c2 = LinearCode.from_rows(f2, [[1, 0, 1]])
    assert entanglement_c(c1, c2) == 0  # c1 orthogonal to c2
    e1 = LinearCode.from_rows(f2, [[1, 0, 0]])
    assert entanglement_c(e1, e1) == 1


@pytest.mark.parametrize("p,r", FIELDS)
def test_entanglement_symmetric(p, r):
    field = field_create(p, r)
    rng = random.Random(100 * p + r)
    for _ in range(25):
        n = rng.randrange(2, 8)
        a = random_code(field, n, rng.randrange(1, n + 1), rng)
        b = random_code(field, n, rng.randrange(1, n + 1), rng)
        assert entanglement_c(a, b) == entanglement_c(b, a)


def test_c_zero_iff_orthogonal():
    rng = random.Random(5)
    f3 = field_create(3)
    seen_zero = seen_pos = 0
    for _ in range(60):
        n = rng.randrange(2, 8)
        a = random_code(f3, n, rng.randrange(1, n + 1), rng)
        b = random_code(f3, n, rng.randrange(1, n + 1), rng)
        c = entanglement_c(a, b)
        assert (c == 0) == b.is_subcode_of(a.dual())
        seen_zero += c == 0
        seen_pos += c > 0
    # force the orthogonal branch too
    a = LinearCode.from_rows(f3, [[1, 0, 0, 0]])
    sub = LinearCode.from_rows(f3, [[0, 1, 0, 0], [0, 0, 2, 1]])
    assert entanglement_c(a, sub) == 0
    assert seen_pos > 0


def test_asym_params_zero_pair():
    f5 = field_create(5)
    zero = LinearCode.zero(f5, 6)
    params = asym_params(zero, zero)
    assert (params.n, params.k, params.c) == (6, 6, 0)
    assert params.dz == WeightReport(value=1, exact=True, enumerated=5**6 - 1)
    assert params.dx.value == 1


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2)])
def test_asym_params_against_naive_distances(p, r):
    field = field_create(p, r)
    rng = random.Random(31 * p + r)
    checked = 0
    while checked < 8:
        n = rng.randrange(3, 7)
        c1 = random_code(field, n, rng.randrange(1, n), rng)
        c2 = random_code(field, n, rng.randrange(1, n), rng)
        if c1.dual().is_subcode_of(c2) or c2.dual().is_subcode_of(c1):
            continue
        params = asym_params(c1, c2)
        assert params.k == n - c1.k - c2.k + params.c
        assert c1.k + c2.k - n <= params.c <= min(c1.k, c2.k)
        dz = naive_min_weight(c1.parity_check.entries, field, member=c2.contains)
        dx = naive_min_weight(c2.parity_check.entries, field, member=c1.contains)
        assert params.dz.value == dz
        assert params.dx.value == dx
        checked += 1


def test_asym_params_budget_floor_fallback(monkeypatch):
    f2 = field_create(2)
    rng = random.Random(77)
    c1 = random_code(f2, 30, 15, rng)
    c2 = random_code(f2, 30, 15, rng)
    assert not c1.dual().is_subcode_of(c2)
    assert not c2.dual().is_subcode_of(c1)
    # a floor is only a fallback; within budget the exact value wins
    exact = asym_params(c1, c2, dz_floor=1, dx_floor=1)
    assert exact.dz.exact and exact.dx.exact

    # a refusal is decided from the dimensions: no dual, no intersection
    def no_null_space(m):
        raise AssertionError("a refused scan built a dual or an intersection")

    monkeypatch.setattr(codes, "null_space", no_null_space)
    c1, c2 = LinearCode(f2, c1.gen), LinearCode(f2, c2.gen)  # nothing cached
    with pytest.raises(BudgetExceededError) as info:
        asym_params(c1, c2, budget=1 << 10)
    assert (info.value.required, info.value.budget) == (2 ** (30 - 15), 1 << 10)
    params = asym_params(c1, c2, budget=1 << 10, dz_floor=3, dx_floor=2)
    assert params.dz == WeightReport(value=3, exact=False, enumerated=0)
    assert params.dx == WeightReport(value=2, exact=False, enumerated=0)
    assert params.dz.display() == ">=3"
    assert (params.k, params.c) == (exact.k, exact.c)


def test_degenerate_pair_decided_before_the_budget():
    # k = 0 means dual(C1) lies in C2 and dual(C2) in C1; that is an
    # error at any budget, never a floor
    f2 = field_create(2)
    code = LinearCode.from_rows(f2, HAMMING_7_4)
    assert code.dual().is_subcode_of(code)
    for budget in (1, DEFAULT_BUDGET):
        with pytest.raises(DegeneratePairError, match="dz is undefined"):
            asym_params(code, code, budget, dz_floor=1, dx_floor=1)
    with pytest.raises(DegeneratePairError, match="dz is undefined"):
        asym_params(code, code, 1)


def test_exact_value_below_floor_raises(monkeypatch):
    # the guard must hold under python -O, so it is no assert
    f2 = field_create(2)
    hamming = LinearCode.from_rows(f2, HAMMING_7_4)
    repetition = LinearCode.from_rows(f2, [[1] * 7])
    monkeypatch.setattr(
        eaqecc, "relative_min_weight",
        lambda a, b, budget: WeightReport(value=1, exact=True, enumerated=1),
    )
    with pytest.raises(RuntimeError, match="dz bound 2 above exact value 1"):
        asym_params(hamming, repetition, dz_floor=2, dx_floor=1)


def test_identical_pair_scans_once(monkeypatch):
    # dual(C2) \ C1 is literally dual(C1) \ C2 when C1 = C2, so with equal
    # floors dx reuses the dz scan; different floors take the general path
    f4 = field_create(2, 2)
    code = random_code(f4, 8, 3, random.Random(8))
    assert not code.dual().is_subcode_of(code)
    scans = []

    def spy(a, b, budget):
        scans.append((a, b))
        return codes.relative_min_weight(a, b, budget=budget)

    monkeypatch.setattr(eaqecc, "relative_min_weight", spy)
    once = asym_params(code, code, dz_floor=1, dx_floor=1)
    assert len(scans) == 1
    assert asym_params(code, LinearCode(f4, code.gen)) == once
    assert len(scans) == 2
    twice = asym_params(code, code, dz_floor=1, dx_floor=2)
    assert len(scans) == 4
    assert twice == once
    assert once.dz == once.dx
    assert once.dz.exact and once.dz.enumerated == 4 ** (8 - 3) - 1
    with pytest.raises(RuntimeError, match="dx bound 9 above exact value"):
        asym_params(code, code, dz_floor=1, dx_floor=9)


def _count_scans(monkeypatch):
    scans = []

    def spy(a, b, budget):
        scans.append((a, b))
        return codes.relative_min_weight(a, b, budget=budget)

    monkeypatch.setattr(eaqecc, "relative_min_weight", spy)
    return scans


def _two_scan_reports(c1, c2):
    return (codes.relative_min_weight(c1.dual(), c2),
            codes.relative_min_weight(c2.dual(), c1))


def test_mirrored_pair_scans_once(monkeypatch):
    # C2 from the reciprocal coset {7, 11, 13, 14} of {1, 2, 4, 8} is C1
    # read backwards, so dual(C2) \ C1 is dual(C1) \ C2 reversed
    from aeaqecc.bch import coset_code

    f2 = field_create(2)
    c1, c2 = coset_code(15, 2, [1]), coset_code(15, 2, [7])
    assert c1 != c2
    assert c2 == LinearCode(f2, MatrixGF(f2, c1.gen.entries[:, ::-1]))
    dz, dx = _two_scan_reports(c1, c2)
    scans = _count_scans(monkeypatch)
    once = asym_params(c1, c2, dz_floor=3, dx_floor=3)
    assert len(scans) == 1
    assert (once.dz, once.dx) == (dz, dx)
    assert dz == WeightReport(value=3, exact=True, enumerated=2 ** 11 - 1)
    assert asym_params(c1, c2) == once  # no floors: equal as well
    assert len(scans) == 2
    twice = asym_params(c1, c2, dz_floor=3, dx_floor=2)
    assert len(scans) == 4
    assert (twice.dz, twice.dx) == (dz, dx)
    with pytest.raises(RuntimeError, match="dz bound 4 above exact value 3"):
        asym_params(c1, c2, dz_floor=4, dx_floor=4)


def test_equal_dimension_pair_that_is_not_mirrored_scans_twice(monkeypatch):
    f4 = field_create(2, 2)
    rng = random.Random(15)
    c1, c2 = random_code(f4, 7, 3, rng), random_code(f4, 7, 3, rng)
    rev = LinearCode(f4, MatrixGF(f4, c1.gen.entries[:, ::-1]))
    assert c1.k == c2.k and c2 not in (c1, rev)
    dz, dx = _two_scan_reports(c1, c2)
    scans = _count_scans(monkeypatch)
    params = asym_params(c1, c2, dz_floor=1, dx_floor=1)
    assert len(scans) == 2
    assert (params.dz, params.dx) == (dz, dx)


def test_equal_floors_refused_together(monkeypatch):
    # with k1 = k2 both scans need q^(n-k1) words, so a refused dz means a
    # refused dx with the same floor, decided without a dual
    f2 = field_create(2)
    rng = random.Random(16)
    c1, c2 = random_code(f2, 30, 15, rng), random_code(f2, 30, 15, rng)
    scans = _count_scans(monkeypatch)
    params = asym_params(c1, c2, budget=1 << 10, dz_floor=2, dx_floor=2)
    assert scans == []
    assert params.dz == params.dx == WeightReport(value=2, exact=False, enumerated=0)
    assert "parity_check" not in vars(c1) and "parity_check" not in vars(c2)


def test_symplectic_c_vanishes_on_equal_stacks():
    f2 = field_create(2)
    h = MatrixGF.from_rows(f2, [[1, 0, 1], [0, 1, 1]])
    assert symplectic_c(h, h) == 0
    one = MatrixGF.from_rows(f2, [[1, 0]])
    other = MatrixGF.from_rows(f2, [[0, 1]])
    assert symplectic_c(one, other) == 0  # 1x1 alternating form is zero


@pytest.mark.parametrize("p,r", FIELDS)
def test_symplectic_c_matches_entanglement_on_css_stacks(p, r):
    field = field_create(p, r)
    rng = random.Random(7 * p + r)
    for _ in range(20):
        n = rng.randrange(2, 7)
        a = random_code(field, n, rng.randrange(1, n + 1), rng)
        b = random_code(field, n, rng.randrange(1, n + 1), rng)
        hx, hz = css_stack(a, b)
        assert symplectic_c(hx, hz) == entanglement_c(a, b)


def test_punctured_hamming_pair():
    f2 = field_create(2)
    ham = LinearCode.from_rows(f2, HAMMING_7_4)
    rep = LinearCode.from_rows(f2, [[1] * 7])

    one = punctured_params(ham, rep, 1)
    assert (one.n, one.k, one.c) == (6, 4, 1)
    assert one.dz.value == 2
    assert one.dx.value == 3

    three = punctured_params(ham, rep, 3)
    assert (three.n, three.k, three.c) == (4, 6, 3)
    assert (three.dz.value, three.dx.value) == (2, 3)

    # distances match a naive enumeration of the unpunctured pair
    dz = naive_min_weight(rep.parity_check.entries, f2, member=ham.dual().contains)
    dx = naive_min_weight(ham.gen.entries, f2, member=rep.contains)
    assert (dz, dx) == (2, 3)


def test_punctured_rejections():
    f2 = field_create(2)
    ham = LinearCode.from_rows(f2, HAMMING_7_4)
    rep = LinearCode.from_rows(f2, [[1] * 7])
    for bad_c in (0, 4, -1):
        with pytest.raises(ValueError):
            punctured_params(ham, rep, bad_c)
    with pytest.raises(ValueError):
        punctured_params(rep, ham, 1)  # not nested that way around
    with pytest.raises(BudgetExceededError):
        punctured_params(ham, rep, 1, budget=1 << 3)


def test_params_validation():
    ok = WeightReport(value=3, exact=True, enumerated=7)
    AsymEaqeccParams(q=2, n=7, k=4, dz=ok, dx=ok, c=1, k1=3, k2=1)
    with pytest.raises(ValueError):
        AsymEaqeccParams(q=2, n=7, k=5, dz=ok, dx=ok, c=1, k1=3, k2=1)
    with pytest.raises(ValueError):
        AsymEaqeccParams(q=2, n=3, k=3, dz=ok, dx=ok, c=2, k1=1, k2=1)
    with pytest.raises(ValueError):
        AsymEaqeccParams(q=2, n=3, k=1, dz=ok, dx=ok, c=0, k1=1)
    with pytest.raises(ValueError):
        AsymEaqeccParams(q=1, n=3, k=1, dz=ok, dx=ok, c=0)


def test_params_display():
    exact = WeightReport(value=4, exact=True, enumerated=10)
    bound = WeightReport(value=3, exact=False, enumerated=0)
    params = AsymEaqeccParams(q=5, n=24, k=19, dz=exact, dx=bound, c=3, k1=3, k2=5)
    assert params.display() == "[[24, 19, 4/>=3; 3]]_5"


def test_pair_mismatch_rejected():
    f2 = field_create(2)
    f3 = field_create(3)
    a = LinearCode.from_rows(f2, [[1, 0]])
    b = LinearCode.from_rows(f3, [[1, 0]])
    with pytest.raises(FieldMismatchError):
        entanglement_c(a, b)
    c = LinearCode.from_rows(f2, [[1, 0, 1]])
    with pytest.raises(ValueError):
        asym_params(a, c)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 16, 25])
def test_enlargement_codes_are_the_evaluation_codes(q):
    # mod q - 1 every q-cyclotomic coset is a singleton and the splitting
    # field is GF(q), so the cyclic codes enlargement_demo builds are the
    # evaluation codes E_{2}, E_{0, n-1} and E_{1, 2} themselves
    field = field_create(*prime_power_decomposition(q))
    n = q - 1
    for delta in ([2], [0, n - 1], [1, 2]):
        assert coset_code(n, q, delta) == evaluation_code(field, n, delta).code
