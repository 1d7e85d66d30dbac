import random
import re
import tracemalloc
from math import gcd

import pytest

from aeaqecc import bch, linalg
from aeaqecc.bch import (
    CyclicCode,
    _ht_search,
    bch_asym_code,
    bch_bound,
    closed_form_bch_params,
    coset_code,
    cyclotomic_cosets,
    dual_defining_set,
    evaluation_code,
    hartmann_tzeng_bound,
    reciprocal_rep,
    splitting_field,
    subfield_subcode,
)
from aeaqecc.codes import LinearCode, min_weight
from aeaqecc.errors import FieldMismatchError
from aeaqecc.fields import field_create, prime_power_decomposition, subfield_embedding


def test_cosets_binary_15():
    s = cyclotomic_cosets(15, 2)
    assert s.reps == (0, 1, 3, 5, 7)
    assert s.sizes == (1, 4, 4, 2, 4)
    assert s.cosets[1] == (1, 2, 4, 8)
    assert s.cosets[3] == (5, 10)
    assert s.z == 4


def test_cosets_quaternary_15():
    s = cyclotomic_cosets(15, 4)
    assert s.reps == (0, 1, 2, 3, 5, 6, 7, 10, 11)
    assert s.coset_of(1) == (1, 4)
    assert s.coset_of(5) == (5,)
    assert s.rep_of(13) == 7
    assert s.size_of(11) == 2


def test_cosets_partition():
    for n, q in [(15, 2), (24, 5), (26, 3), (40, 9), (51, 16), (48, 25)]:
        s = cyclotomic_cosets(n, q)
        seen = [x for c in s.cosets for x in c]
        assert sorted(seen) == list(range(n))
        for c in s.cosets:
            assert all((x * q) % n in c for x in c)


def test_cosets_closure_and_helpers():
    s = cyclotomic_cosets(15, 2)
    assert s.closure([0, 1]) == (0, 1, 2, 4, 8)
    assert s.closure([13]) == (7, 11, 13, 14)
    assert s.is_closed((5, 10))
    assert not s.is_closed((5,))
    assert s.reps_in((5, 10, 0)) == (0, 5)


def test_closure_rejects_out_of_range_labels():
    s = cyclotomic_cosets(9, 2)
    assert s.closure([8]) == (1, 2, 4, 5, 7, 8)
    for bad in (9, 99, -1):
        with pytest.raises(ValueError):
            s.closure([0, bad])


def test_cosets_validation():
    with pytest.raises(ValueError):
        cyclotomic_cosets(15, 5)  # shares a factor
    with pytest.raises(ValueError):
        cyclotomic_cosets(0, 2)
    with pytest.raises(ValueError):
        cyclotomic_cosets(10, 6)  # not a prime power


def test_reciprocal_reps():
    s24 = cyclotomic_cosets(24, 5)
    assert reciprocal_rep(s24, 0) == 0
    assert reciprocal_rep(s24, 1) == 19
    s15 = cyclotomic_cosets(15, 2)
    assert reciprocal_rep(s15, 1) == 7
    assert reciprocal_rep(s15, 3) == 3
    assert reciprocal_rep(s15, 5) == 5
    with pytest.raises(ValueError):
        reciprocal_rep(s15, 2)  # 2 lies in the coset of 1


def test_splitting_fields():
    assert splitting_field(15, 2).order == 16
    assert splitting_field(24, 5).order == 25
    assert splitting_field(19, 7).order == 343
    assert splitting_field(17, 4).order == 256
    assert splitting_field(63, 8).order == 64
    assert splitting_field(6, 7).order == 7
    # n = 1: the only coset is {0}, so GF(q) itself
    assert splitting_field(1, 2).order == 2
    assert splitting_field(1, 9).order == 9


def test_evaluation_code_small():
    f7 = field_create(7, 1)
    ev = evaluation_code(f7, 6, [2])
    assert ev.points == (1, 3, 2, 6, 4, 5)
    assert ev.gen.row(0) == (1, 2, 4, 1, 2, 4)
    assert ev.code.k == 1


def test_evaluation_code_extremes():
    f7 = field_create(7, 1)
    assert evaluation_code(f7, 6, range(6)).code.k == 6
    empty = evaluation_code(f7, 6, [])
    assert empty.code.k == 0 and empty.code.n == 6
    assert evaluation_code(f7, 6, [0]).gen.row(0) == (1,) * 6


def test_evaluation_code_validation():
    f7 = field_create(7, 1)
    with pytest.raises(ValueError):
        evaluation_code(f7, 5, [0])  # 5 does not divide 6
    with pytest.raises(ValueError):
        evaluation_code(f7, 6, [6])


def test_evaluation_pairing():
    # rows pair to n exactly when the exponents cancel mod n
    f16 = field_create(2, 4)
    ev = evaluation_code(f16, 15, range(15))
    n_in_field = 15 % 2
    for a in range(4):
        for b in range(15):
            acc = 0
            for i in range(15):
                acc = f16.add(acc, f16.mul(ev.gen.entries[a, i], ev.gen.entries[b, i]))
            expected = n_in_field if (a + b) % 15 == 0 else 0
            assert acc == expected


def test_subfield_subcode_dimensions():
    f16 = field_create(2, 4)
    s4 = cyclotomic_cosets(15, 4)
    code = subfield_subcode(evaluation_code(f16, 15, s4.closure([0, 1])), 4)
    assert code.k == 3 and code.n == 15 and code.field.order == 4

    s2 = cyclotomic_cosets(15, 2)
    code = subfield_subcode(evaluation_code(f16, 15, s2.closure([0, 1, 3, 5])), 2)
    assert code.k == 11

    code = subfield_subcode(evaluation_code(f16, 15, (0,)), 2)
    assert code.k == 1
    assert code.contains([1] * 15)


def test_subfield_subcode_random_dimension_identity(subtests=None):
    rng = random.Random(11)
    for n, q in [(15, 2), (15, 4), (24, 5), (26, 3)]:
        s = cyclotomic_cosets(n, q)
        big = splitting_field(n, q)
        for _ in range(5):
            labels = rng.sample(range(n), rng.randint(0, 3))
            delta = s.closure(labels)
            code = subfield_subcode(evaluation_code(big, n, delta), q)
            assert code.k == len(delta)


def test_subfield_subcode_rejections():
    f16 = field_create(2, 4)
    with pytest.raises(ValueError):
        subfield_subcode(evaluation_code(f16, 15, (1,)), 4)  # not closed
    with pytest.raises(FieldMismatchError):
        subfield_subcode(evaluation_code(f16, 15, (0,)), 9)


def test_subfield_subcode_same_field():
    f7 = field_create(7, 1)
    ev = evaluation_code(f7, 6, (0, 2))
    assert subfield_subcode(ev, 7) == ev.code


def _scalar_trace_subcode(ev, q):
    """The subfield subcode built entry by entry with scalar traces."""
    big = ev.big_field
    p = big.p
    small = field_create(*prime_power_decomposition(q))
    emb = subfield_embedding(small, big)
    gammas = [1]
    for _ in range(big.degree // small.degree - 1):
        gammas.append(big.mul(gammas[-1], p))
    s = cyclotomic_cosets(ev.n, q)
    rows = []
    for a in s.reps_in(ev.delta):
        row = ev.gen.row(ev.delta.index(a))
        for gamma in gammas:
            rows.append([emb.relative_trace(big.mul(gamma, v)) for v in row])
    return LinearCode.from_rows(small, rows, n=ev.n)


def test_subfield_subcode_matches_scalar_traces():
    rng = random.Random(5)
    for n, q in [(15, 2), (21, 4), (26, 3), (51, 16), (48, 25), (24, 25)]:
        s = cyclotomic_cosets(n, q)
        big = splitting_field(n, q)
        for _ in range(2):
            delta = s.closure(rng.sample(range(n), rng.randint(1, 3)))
            ev = evaluation_code(big, n, delta)
            code = subfield_subcode(ev, q)
            assert code == _scalar_trace_subcode(ev, q)


def test_coset_code():
    code = coset_code(15, 4, [0, 1])
    assert code.k == 3 and code.field.order == 4
    assert coset_code(15, 2, [0, 1, 3, 5]).k == 11


def _oracle_pairs():
    """(q, n) of the BCH sweep benchmark, the labels benchmark, and n = 1.

    The sweep pairs are q in {2, 3, 4, 5, 7, 8, 9} with 2 <= n <= 45 coprime
    to q, a splitting field of at most 2^12 elements other than GF(2^11),
    and at least three cosets.  They include the splitting fields GF(2^12)
    (n = 45, q = 2) and GF(5^5) (n = 11, q = 5), and the odd extension
    q = 9; the labels pairs add q = 16 and q = 25.
    """
    sweep = [
        (q, n)
        for q in (2, 3, 4, 5, 7, 8, 9)
        for n in range(2, 46)
        if gcd(n, q) == 1
        and q ** cyclotomic_cosets(n, q).size_of(1) <= 1 << 12
        and q ** cyclotomic_cosets(n, q).size_of(1) != 1 << 11
        and len(cyclotomic_cosets(n, q).reps) >= 3
    ]
    labels = [(2, 85), (2, 63), (4, 63), (8, 63), (3, 80), (9, 80), (5, 62), (7, 57),
              (16, 51), (4, 51), (25, 48), (7, 48)]
    return sweep + labels + [(2, 1), (9, 1), (25, 1)]


def test_cyclic_code_matches_trace_route():
    # the generator-polynomial construction against the trace matrix and
    # its elimination, on prefix, suffix and alternating coset sets, the
    # empty set and all of Z_n
    pairs = _oracle_pairs()
    assert len(pairs) == 87 + 12 + 3
    assert {(2, 45), (5, 11)} <= set(pairs)  # GF(2^12) and GF(5^5)
    for q, n in pairs:
        s = cyclotomic_cosets(n, q)
        big = splitting_field(n, q)
        half = max(1, len(s.reps) // 2)
        for reps in {(), s.reps, s.reps[:half], s.reps[half:], s.reps[::2], s.reps[1::2]}:
            delta = s.closure(reps)
            code = CyclicCode(s, delta)
            oracle = subfield_subcode(evaluation_code(big, n, delta), q)
            assert code.field == oracle.field and code.k == len(delta)
            assert code.gen == oracle.gen, (q, n, reps)
            assert code.pivots == oracle.pivots
            assert code.parity_check == oracle.parity_check
            assert code.dual().gen == oracle.dual().gen
            assert code.is_cyclic and code.dual().is_cyclic


def test_coset_codes_need_no_elimination(monkeypatch):
    # coset_code reads its reduced generator off the generator polynomial,
    # and bch_asym_code reads c and the mirror test off the defining sets
    calls = []
    original = linalg.rref

    def spy(m):
        calls.append(m.shape)
        return original(m)

    monkeypatch.setattr(linalg, "rref", spy)
    for n, q, labels in [(15, 2, [1]), (21, 4, [0, 7]), (26, 3, [1, 2]), (48, 25, [1])]:
        code = coset_code(n, q, labels)
        code.dual().parity_check
    assert calls == []
    for n, q, s, t in [(15, 4, 0, 1), (24, 5, 1, 2), (33, 2, 0, 1)]:
        built = bch_asym_code(cyclotomic_cosets(n, q), s, t)
        built.c1.dual(), built.c2.dual()
    assert calls == []


def _assert_dual_identity(s, delta, dual):
    # the subfield subcode of E_dual is the dual of that of E_delta
    big = splitting_field(s.n, s.q)
    primal = subfield_subcode(evaluation_code(big, s.n, delta), s.q)
    claimed = subfield_subcode(evaluation_code(big, s.n, dual), s.q)
    assert claimed == primal.dual()


def test_dual_defining_set_known():
    s = cyclotomic_cosets(15, 2)
    delta = s.closure([0, 1, 3, 5])
    assert dual_defining_set(s, delta) == (1, 2, 4, 8)
    _assert_dual_identity(s, delta, (1, 2, 4, 8))
    s24 = cyclotomic_cosets(24, 5)
    got = dual_defining_set(s24, (1, 5))
    assert got == tuple(x for x in range(24) if x not in (19, 23))
    _assert_dual_identity(s24, (1, 5), got)


def test_dual_defining_set_random():
    rng = random.Random(3)
    for n, q in [(15, 2), (15, 4), (24, 5), (26, 3)]:
        s = cyclotomic_cosets(n, q)
        for _ in range(6):
            labels = rng.sample(range(n), rng.randint(0, 4))
            delta = s.closure(labels)
            dual = dual_defining_set(s, delta)
            assert len(dual) == n - len(delta)
            _assert_dual_identity(s, delta, dual)
            back = dual_defining_set(s, dual)
            assert back == delta
            _assert_dual_identity(s, dual, back)


def test_dual_defining_set_rejects_open_sets():
    s = cyclotomic_cosets(15, 2)
    with pytest.raises(ValueError):
        dual_defining_set(s, (1,))


def test_bch_bound_values():
    assert bch_bound(cyclotomic_cosets(15, 4), 0) == 2
    assert bch_bound(cyclotomic_cosets(15, 4), 1) == 3
    assert bch_bound(cyclotomic_cosets(63, 8), 5) == 7
    with pytest.raises(ValueError):
        bch_bound(cyclotomic_cosets(15, 4), 8)
    with pytest.raises(ValueError):
        bch_bound(cyclotomic_cosets(15, 4), -1)


def test_hartmann_tzeng_consecutive():
    # a pure run of delta-1 consecutive roots yields exactly delta
    assert hartmann_tzeng_bound(15, range(3)) == 4
    assert hartmann_tzeng_bound(31, range(6)) == 7
    assert hartmann_tzeng_bound(17, [5]) == 2
    assert hartmann_tzeng_bound(15, []) == 1
    assert hartmann_tzeng_bound(7, range(7)) == 8


@pytest.mark.parametrize("n, defining_set", [(0, [1]), (-5, [1]), (0, [])])
def test_hartmann_tzeng_rejects_nonpositive_length(n, defining_set):
    with pytest.raises(ValueError, match="n must be positive"):
        hartmann_tzeng_bound(n, defining_set)


def test_hartmann_tzeng_window_rule_pinned():
    # A window is credited only through the run at its right end, so this
    # q = 16 set gets 5 although u = 11, step 9, base 11 holds a width-4,
    # two-row pattern worth 6.  The value moves to 6 only through the named
    # spec change that credits a window's minimum run wherever it sits.
    t_set = [1, 2, 5, 12, 14, 15, 16, 19, 20, 25, 28, 29, 32, 36, 39, 40, 43, 49]
    assert cyclotomic_cosets(51, 16).closure(t_set) == tuple(t_set)
    assert hartmann_tzeng_bound(51, t_set) == 5


def test_hartmann_tzeng_published_sets():
    s15 = cyclotomic_cosets(15, 2)
    assert hartmann_tzeng_bound(15, s15.closure([0, 1, 3, 5])) == 8
    s31 = cyclotomic_cosets(31, 2)
    assert hartmann_tzeng_bound(31, s31.closure([0, 1, 5, 7, 15])) == 12


def test_hartmann_tzeng_beats_consecutive_runs():
    # {0,1,2} plus the progression 4,6,8 with step 2: the bound must see
    # more than the plain run when the progressions line up
    s = cyclotomic_cosets(31, 2)
    delta = s.closure([1])
    plain_run = hartmann_tzeng_bound(31, (0, 1, 2))
    assert hartmann_tzeng_bound(31, delta) >= plain_run - 1
    # wraparound run: {13, 14, 0, 1} in Z_15 has length 4 across zero
    assert hartmann_tzeng_bound(15, (13, 14, 0, 1)) == 5
    # {0, 1} + {0, 6} in Z_10: a window of width gcd(6, 10) = 2, worth 2 + 2
    assert hartmann_tzeng_bound(10, (0, 1, 6, 7)) == 4


def test_hartmann_tzeng_below_true_distance():
    rng = random.Random(23)
    for n, q in [(15, 2), (31, 2), (15, 4)]:
        s = cyclotomic_cosets(n, q)
        for _ in range(6):
            labels = rng.sample(range(1, n), rng.randint(1, 3)) + [0]
            delta = s.closure(labels)
            if n - len(delta) > 12:
                continue
            exact = min_weight(coset_code(n, q, labels).dual()).value
            assert hartmann_tzeng_bound(n, delta) <= exact


def _reference_best_window(run, min_width):
    """Scalar window scan: each nonzero position is credited its run plus
    the width of the stretch to its left whose runs are at least as large."""
    n = len(run)
    start = next(i for i, v in enumerate(run) if v == 0)
    order = [(start + 1 + i) % n for i in range(n)]
    best = 0
    stack = []
    for pos in order:
        value = run[pos]
        width = 1
        while stack and stack[-1][0] >= value:
            v, w = stack.pop()
            if w >= min_width and v + w > best:
                best = v + w
            width += w
        if value == 0:
            stack.clear()
        else:
            stack.append((value, width))
    return best


def _reference_ht_search(n, t_set):
    """The scalar Hartmann-Tzeng search over every unit and every step."""
    best = 2
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    run = [0] * n
    for u in units:
        in_tu = bytearray(n)
        for x in t_set:
            in_tu[(u * x) % n] = 1
        for m in range(1, n):
            g = gcd(m, n)
            period = n // g
            for start in range(g):
                cycle = [(start + i * m) % n for i in range(period)]
                wall = next((i for i, x in enumerate(cycle) if not in_tu[x]), None)
                if wall is None:
                    for x in cycle:
                        run[x] = period
                    continue
                run[cycle[wall]] = 0
                acc = 0
                for back in range(1, period):
                    x = cycle[wall - back]
                    acc = acc + 1 if in_tu[x] else 0
                    run[x] = acc
            best = max(best, _reference_best_window(run, g))
    return best


def _stabilizer(n, t_set):
    return {v for v in range(1, n) if gcd(v, n) == 1
            and {(v * x) % n for x in t_set} == t_set}


def test_ht_search_matches_unreduced_search_on_closed_sets():
    rng = random.Random(29)
    cases = [(15, 2), (21, 2), (31, 2), (63, 2), (15, 4), (17, 4), (26, 3),
             (40, 3), (24, 5), (62, 5), (48, 7), (57, 7), (51, 16), (48, 25)]
    for n, q in cases:
        s = cyclotomic_cosets(n, q)
        for _ in range(2):
            labels = rng.sample(s.reps[1:], rng.randint(1, min(4, s.z)))
            t_set = frozenset(s.closure(labels))
            if len(t_set) == n:
                continue
            assert _ht_search(n, t_set) == _reference_ht_search(n, t_set), (n, q, labels)


def test_ht_search_matches_unreduced_search_on_open_sets():
    # arbitrary sets whose stabilizer is {1} or {1, -1}
    rng = random.Random(31)
    checked = {1: 0, 2: 0}
    while min(checked.values()) < 8:
        n = rng.choice([7, 12, 16, 20, 25, 33, 45, 64])
        half = rng.sample(range(n), rng.randint(1, n // 3))
        if rng.random() < 0.5:
            half += [(-x) % n for x in half]
        t_set = frozenset(half)
        stab = _stabilizer(n, t_set)
        if stab not in ({1}, {1, n - 1}):
            continue
        assert _ht_search(n, t_set) == _reference_ht_search(n, t_set), (n, t_set)
        checked[len(stab)] += 1


def test_ht_search_keeps_both_step_directions():
    # A window is credited only when its smallest run sits at its right
    # end, so the search is not symmetric under m -> n - m or u -> -u: on
    # this coset-closed set (q = 7) only step 46 with u = 9, 13, 37 or 41
    # reaches the best value.
    t_set = frozenset([4, 11, 17, 19, 22, 23, 27, 28, 31, 33, 39, 46])
    assert cyclotomic_cosets(50, 7).closure(t_set) == tuple(sorted(t_set))
    assert _ht_search(50, t_set) == _reference_ht_search(50, t_set) == 5


def test_ht_search_in_several_step_blocks(monkeypatch):
    # blocks of 50 cells hold a single step for n > 25
    monkeypatch.setattr(bch, "_HT_BLOCK", 50)
    for n, q, labels in [(31, 2, [1, 5]), (26, 3, [1, 2, 13]), (45, 2, [1, 3, 7])]:
        t_set = frozenset(cyclotomic_cosets(n, q).closure(labels))
        assert _ht_search(n, t_set) == _reference_ht_search(n, t_set), (n, q, labels)


def _unit_cosets(n, t_set):
    stab = _stabilizer(n, t_set)
    units = {u for u in range(1, n) if gcd(u, n) == 1}
    return {frozenset((u * v) % n for v in stab) for u in units}


@pytest.mark.parametrize("n, q, labels", [(51, 16, [1, 5, 7]), (51, 16, [3, 11]),
                                         (85, 2, [1, 3, 9]), (85, 2, [5, 13])])
@pytest.mark.parametrize("block", [None, 1])
def test_ht_search_builds_runs_once_per_step_block(monkeypatch, n, q, labels, block):
    # block 1 holds a single step per block
    if block is not None:
        monkeypatch.setattr(bch, "_HT_BLOCK", block)
    t_set = frozenset(cyclotomic_cosets(n, q).closure(labels))
    assert len(_unit_cosets(n, t_set)) >= 8
    calls = []
    runs = bch._runs
    monkeypatch.setattr(bch, "_runs", lambda *args: calls.append(1) or runs(*args))
    assert _ht_search(n, t_set) == _reference_ht_search(n, t_set)
    rows = max(1, bch._HT_BLOCK // n)
    assert len(calls) == len(range(1, n, rows))


def test_ht_search_with_stabilizer_beyond_q():
    # T is closed under 2 and 5 mod 63, so its stabilizer is larger than
    # the group <2, -1> that coset closure and reflection give
    n = 63
    t_set = set()
    for seed in (1, 9):
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            if x not in t_set:
                t_set.add(x)
                frontier += [(2 * x) % n, (5 * x) % n]
    t_set = frozenset(t_set)
    q_and_minus_one = {(sign * pow(2, i, n)) % n for i in range(6) for sign in (1, -1)}
    assert q_and_minus_one < _stabilizer(n, t_set)
    assert _ht_search(n, t_set) == _reference_ht_search(n, t_set)


def _chain_cells(n, t_set):
    """(u, x) with x and x - u^-1 in T, over every unit u of Z_n."""
    return [(u, x) for u in range(1, n) if gcd(u, n) == 1
            for x in t_set if (x - pow(u, -1, n)) % n in t_set]


def test_ht_search_matches_unreduced_search_on_arbitrary_sets():
    rng = random.Random(37)
    seen = {"wrap": 0, "all_but_one": 0, "trivial_stabilizer": 0, "no_chain": 0}
    for _ in range(10):
        n = rng.randint(6, 30)
        length = rng.randint(2, n - 2)
        back = rng.randint(1, length - 1)
        wrap = {(i - back) % n for i in range(length)}  # a run across 0
        sets = [wrap, set(range(n)) - {rng.randrange(n)},
                set(rng.sample(range(n), rng.randint(1, n - 1)))]
        p = next(d for d in range(2, n + 1) if n % d == 0)
        # differences of multiples of p are never units, so no unit has a chain
        sets.append(set(rng.sample(range(0, n, p), rng.randint(1, n // p))))
        for t_set in map(frozenset, sets):
            seen["wrap"] += 0 in t_set and (n - 1) in t_set and len(t_set) < n - 1
            seen["all_but_one"] += len(t_set) == n - 1
            seen["trivial_stabilizer"] += _stabilizer(n, t_set) == {1}
            seen["no_chain"] += not _chain_cells(n, t_set)
            assert _ht_search(n, t_set) == _reference_ht_search(n, t_set), (n, sorted(t_set))
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("block", [60, 7])
def test_ht_search_splits_steps_and_chain_cells(monkeypatch, block):
    # for n = 26, blocks of 60 entries hold 2 steps and chunks of 30 chain
    # cells; blocks of 7 hold 1 step and chunks of 7 cells
    monkeypatch.setattr(bch, "_HT_BLOCK", block)
    n, rng = 26, random.Random(41)
    checked = 0
    while checked < 4:
        t_set = frozenset(rng.sample(range(n), rng.randint(8, 18)))
        if _stabilizer(n, t_set) != {1} or len(_chain_cells(n, t_set)) <= 30:
            continue
        assert _ht_search(n, t_set) == _reference_ht_search(n, t_set), sorted(t_set)
        checked += 1


def test_hartmann_tzeng_at_large_lengths():
    assert hartmann_tzeng_bound(1023, cyclotomic_cosets(1023, 2).closure([1, 3, 5])) == 7
    # the search works on T's 22 members; one over all 2047 positions per
    # unit peaks near 6 MiB on this set
    t_set = frozenset(cyclotomic_cosets(2047, 2).closure([1, 3]))
    tracemalloc.start()
    try:
        assert _ht_search(2047, t_set) == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    assert hartmann_tzeng_bound(2047, t_set) == 5


def test_bch_asym_code_small_rows():
    cases = [
        (15, 4, 0, 1, (3, 1, 1, 3, 2, 12)),
        (24, 5, 1, 2, (5, 3, 3, 4, 3, 19)),
        (19, 7, 1, 2, (7, 4, 4, 5, 3, 12)),
    ]
    for n, q, s, t, (k1, k2, c, dzb, dxb, k) in cases:
        built = bch_asym_code(cyclotomic_cosets(n, q), s, t, budget=0)
        p = built.params
        assert (p.k1, p.k2, p.c, p.k) == (k1, k2, c, k)
        assert (built.dz_bound, built.dx_bound) == (dzb, dxb)
        assert p.dz.value == dzb and not p.dz.exact
        assert p.c == p.k2


def test_bch_asym_code_deltas():
    built = bch_asym_code(cyclotomic_cosets(24, 5), 1, 2, budget=0)
    assert built.delta1 == (0, 1, 2, 5, 10)
    assert built.delta2 == (0, 19, 23)
    assert built.c1.k == 5 and built.c2.k == 3


@pytest.mark.parametrize("n, q", [(15, 2), (15, 4), (24, 5), (26, 3), (31, 2),
                                  (20, 9), (35, 8), (21, 4)])
def test_bch_asym_code_set_count_matches_rank(n, q):
    # c = |delta2 ∩ (-delta1)| is dim C2 and the dimensions are the coset
    # sizes on every (s, t); the rank of G1·G2ᵀ agrees
    structure = cyclotomic_cosets(n, q)
    for t in range(1, structure.z):
        for s in range(t):
            built = bch_asym_code(structure, s, t, budget=0)
            p = built.params
            k1, k2 = sum(structure.sizes[: t + 1]), sum(structure.sizes[: s + 1])
            assert (p.k1, p.k2) == (built.c1.k, built.c2.k) == (k1, k2)
            assert p.c == k2 == LinearCode.pairing_rank(built.c1, built.c2)


def test_coset_union_set_rules_match_products():
    # on every pair of equal-size coset unions, the set count equals the
    # rank of G1·G2ᵀ and the set mirror rule (delta2 is delta1 or -delta1)
    # equals the reversed product H1·reversed(G2)ᵀ = 0; against a plain
    # LinearCode a cyclic code falls back to the products
    seen, pairs = set(), 0
    for n, q in [(15, 2), (21, 2), (13, 3), (8, 3), (11, 4), (20, 3), (9, 4)]:
        structure = cyclotomic_cosets(n, q)
        by_size = {}
        for mask in range(1 << len(structure.cosets)):
            delta = [x for i, coset in enumerate(structure.cosets)
                     if mask >> i & 1 for x in coset]
            by_size.setdefault(len(delta), []).append(CyclicCode(structure, delta))
        for codes in by_size.values():
            for a in codes:
                for b in codes:
                    c, mirrored = a.pairing_rank(b), a.mirrors(b)
                    plain = LinearCode(b.field, b.gen)
                    where = (n, q, a.delta, b.delta)
                    assert c == LinearCode.pairing_rank(a, b) == a.pairing_rank(plain), where
                    assert mirrored == LinearCode.mirrors(a, b) == a.mirrors(plain), where
                    seen.add((mirrored, a.delta == b.delta))
                    pairs += 1
    assert seen == {(True, True), (True, False), (False, False)}
    assert pairs == 1858


def test_bch_asym_code_exact_upgrade():
    # the 4^12 dual side fits the default budget, the 4^14 side does not
    built = bch_asym_code(cyclotomic_cosets(15, 4), 0, 1)
    p = built.params
    assert p.dz.value == 3 and p.dz.exact
    assert p.dx.value == 2 and not p.dx.exact
    assert p.display() == "[[15, 12, 3/>=2; 1]]_4"


def test_bch_asym_code_validation():
    s = cyclotomic_cosets(15, 4)
    for bad_s, bad_t in [(1, 1), (2, 1), (0, 8), (-1, 1)]:
        with pytest.raises(ValueError):
            bch_asym_code(s, bad_s, bad_t, budget=0)
    # fewer than three cosets leave no valid (s, t) at all
    for n, q, count in [(1, 2, 1), (3, 2, 2)]:
        message = f"at least three cyclotomic cosets; n={n} has {count} over GF({q})"
        with pytest.raises(ValueError, match=re.escape(message)):
            bch_asym_code(cyclotomic_cosets(n, q), 0, 0, budget=0)


def test_closed_form_within_conditions():
    p = closed_form_bch_params(2, 1, 4, 15, 0, 1)
    assert (p.n, p.k, p.c, p.k1, p.k2) == (15, 10, 1, 5, 1)
    assert p.dz.value == 4 and not p.dz.exact
    assert p.dx.value == 2


def test_closed_form_rejects_large_coset_leader():
    with pytest.raises(ValueError):
        closed_form_bch_params(2, 1, 4, 15, 0, 2)
    with pytest.raises(ValueError):
        closed_form_bch_params(2, 4, 8, 51, 1, 4)


def test_closed_form_relaxed():
    p = closed_form_bch_params(2, 1, 4, 15, 0, 2, enforce_conditions=False)
    assert (p.n, p.k, p.c) == (15, 6, 1)
    assert p.dz.value == 6

    p = closed_form_bch_params(2, 4, 8, 51, 1, 4, enforce_conditions=False)
    assert (p.q, p.n, p.k, p.c) == (16, 51, 42, 3)
    assert (p.k1, p.k2) == (9, 3)
    assert p.dz.value == 6 and p.dx.value == 3


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form_bch_params(2, 3, 8, 51, 1, 4)  # r does not divide ell
    with pytest.raises(ValueError):
        closed_form_bch_params(2, 1, 4, 14, 0, 1)  # 14 does not divide 15
    with pytest.raises(ValueError, match="three cyclotomic cosets; n=1 has 1 over GF"):
        closed_form_bch_params(2, 1, 4, 1, 0, 0)
    with pytest.raises(ValueError, match="three cyclotomic cosets; n=3 has 2 over GF"):
        closed_form_bch_params(2, 1, 2, 3, 0, 0)
