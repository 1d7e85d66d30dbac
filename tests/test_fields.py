"""Field construction, arithmetic tables, embeddings, traces."""

import random
import tracemalloc

import numpy as np
import pytest

from aeaqecc.fields import (
    FiniteField,
    default_modulus,
    field_create,
    field_from_designator,
    is_irreducible,
    is_prime,
    multiplicative_order,
    prime_power_decomposition,
    primitive_nth_root,
    subfield_embedding,
)

# every field the benchmark workloads build
WORKLOAD_FIELDS = [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8), (2, 10), (2, 12),
    (3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 1), (5, 2), (5, 3),
    (5, 4), (5, 5), (7, 1), (7, 2), (7, 3), (7, 4),
]


def _scalar_mul(field, a, b):
    """Polynomial product of two encodings, reduced by the modulus in plain Python."""
    p, r, mod = field.p, field.degree, list(field.modulus)

    def decode(v):
        return [(v // p**i) % p for i in range(r)]

    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(decode(a)):
        for j, bj in enumerate(decode(b)):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(2 * r - 2, r - 1, -1):
        lead = prod[top]
        for i in range(r):
            prod[top - r + i] = (prod[top - r + i] - lead * mod[i]) % p
    return sum(c * p**i for i, c in enumerate(prod[:r]))


def _scalar_generator(field):
    """The least v with v^((q-1)/t) != 1 for every prime t | q-1."""
    q = field.order

    def pow_raw(a, e):
        result = 1
        while e:
            if e & 1:
                result = _scalar_mul(field, result, a)
            a = _scalar_mul(field, a, a)
            e >>= 1
        return result

    factors = [t for t in range(2, q) if (q - 1) % t == 0 and all(t % d for d in range(2, t))]
    return next(v for v in range(1, q) if all(pow_raw(v, (q - 1) // t) != 1 for t in factors))


def _digit_add(a, b, p, r):
    """Sum of two encodings, digit by digit mod p."""
    return sum((a // p**i + b // p**i) % p * p**i for i in range(r))


def _scalar_tables(field):
    """The field's tables built one element at a time, as an oracle.

    The generator comes from _scalar_generator, and exp is filled by
    repeated multiplication by it; log 0 is z = 2(q - 1), and exp is 0
    from z on.  An odd extension's Zech logs come from digit-wise sums
    of 1 and each unit; neg and inv, which the field computes from
    exp/log, come from the digits and from exp/log.
    """
    p, r, q = field.p, field.degree, field.order
    z = 2 * (q - 1)
    gen = _scalar_generator(field)
    exp = np.zeros(2 * z + 1, dtype=np.int32)
    log = np.full(q, z, dtype=np.int32)
    cur = 1
    for i in range(q - 1):
        exp[i] = exp[i + q - 1] = cur
        log[cur] = i
        cur = _scalar_mul(field, cur, gen)
    neg = [sum((p - a // p**i % p) % p * p**i for i in range(r)) for a in range(q)]
    inv = [int(exp[(q - 1) - log[a]]) for a in range(1, q)]
    tables = {"generator": gen, "_exp": exp, "_log": log, "neg": neg, "inv": inv}
    if p != 2 and r > 1:
        zech = np.zeros(2 * z + 1, dtype=np.int32)  # b = 0: a + b = a
        for lb in range(q - 1):  # a = 0: a + b = b
            zech[lb] = lb - z
        for d in range(2 - q, q - 1):  # units: a + b = a * (1 + g^d)
            zech[d + z] = log[_digit_add(1, int(exp[d % (q - 1)]), p, r)]
        tables["_zech"] = zech
    else:
        tables["_zech"] = None
    return tables


def _assert_tables_match_oracle(field):
    for name, want in _scalar_tables(field).items():
        if name == "neg":
            got = field.neg(np.arange(field.order)).tolist()
        elif name == "inv":
            got = field.inv(np.arange(1, field.order)).tolist()
        else:
            got = getattr(field, name)
        if name in ("generator", "neg", "inv") or want is None:
            assert got == want, (field, name)
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want), (field, name)


def _naive_poly_eval(coeffs, x, field):
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def _naive_irreducible(coeffs, p):
    """Trial division by every lower-degree monic polynomial."""
    d = len(coeffs) - 1

    def poly_to_int(c):
        v = 0
        for x in reversed(c):
            v = v * p + x
        return v

    def int_to_poly(v, width):
        out = []
        for _ in range(width):
            out.append(v % p)
            v //= p
        return out

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                break
            lead = a[-1]
            inv = pow(b[-1], -1, p)
            f = (lead * inv) % p
            shift = len(a) - len(b)
            for i in range(len(b)):
                a[shift + i] = (a[shift + i] - f * b[i]) % p
            while a and a[-1] == 0:
                a.pop()
        return a

    for deg in range(1, d // 2 + 1):
        for m in range(p**deg):
            cand = int_to_poly(m, deg) + [1]
            if not rem(coeffs, cand):
                return False
    return True


def test_prime_helpers():
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(15)
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(25) == (5, 2)
    with pytest.raises(ValueError):
        prime_power_decomposition(12)


def test_default_modulus_values():
    # frozen outputs of the deterministic lowest-encoding scan
    assert default_modulus(2, 1) == (0, 1)
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert default_modulus(5, 2) == (2, 0, 1)
    assert default_modulus(7, 1) == (0, 1)


def test_modulus_scan_matches_naive_irreducibility():
    # the scan must return the first monic polynomial the naive oracle accepts
    for p, degree in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 1)]:
        expected = None
        for m in range(p**degree):
            coeffs = []
            v = m
            for _ in range(degree):
                coeffs.append(v % p)
                v //= p
            coeffs.append(1)
            if _naive_irreducible(coeffs, p):
                expected = tuple(coeffs)
                break
        assert default_modulus(p, degree) == expected


def _unscreened_modulus(p, degree):
    """The first monic candidate that passes the Rabin test, every
    candidate tested."""
    for m in range(p**degree):
        coeffs = [(m // p**i) % p for i in range(degree)] + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    return None


def test_root_screen_keeps_the_lowest_irreducible():
    # passing over candidates with a root in GF(p) must not change the
    # modulus of any field the package can build (order <= 2^16)
    limit = 1 << 16
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, 257):
        if sieve[i]:
            sieve[i * i :: i] = False
    primes = np.flatnonzero(sieve).tolist()
    cases = [(p, d) for p in primes for d in range(1, 17) if p**d <= limit]
    assert len(cases) == 6635 and len([c for c in cases if c[1] > 1]) == 93
    for p, degree in cases:
        assert default_modulus(p, degree) == _unscreened_modulus(p, degree), (p, degree)


def test_is_irreducible_agrees_with_naive():
    rng = random.Random(7)
    for p, degree in [(2, 4), (3, 3), (5, 2)]:
        for _ in range(40):
            coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
            assert is_irreducible(coeffs, p) == _naive_irreducible(coeffs, p)


def test_field_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(2, 0)
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 0, 1))  # (x+1)^2


def test_gf4_arithmetic_examples():
    F = field_create(2, 2)
    assert F.mul(2, 2) == 3
    assert F.inv(3) == 2
    assert F.add(2, 3) == 1
    assert F.trace(2) == 1
    assert F.pow(2, 3) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_tables_match_scalar_oracle():
    for p, r in WORKLOAD_FIELDS + [(11, 1), (13, 1), (257, 1)]:
        _assert_tables_match_oracle(field_create(p, r))


def test_tables_match_scalar_oracle_when_x_is_not_primitive():
    # the root x of the default modulus has order below q - 1 here
    for (p, r), gen in {(2, 12): 3, (5, 4): 6, (5, 5): 10, (7, 4): 12}.items():
        field = field_create(p, r)
        assert field.generator == gen
        assert multiplicative_order(field, p) < field.order - 1
        _assert_tables_match_oracle(field)


def test_tables_match_scalar_oracle_for_other_moduli():
    for p, modulus in [(2, (1, 0, 0, 1, 1)), (3, (2, 2, 0, 1)), (5, (2, 1, 1)),
                       (2, (1, 0, 1, 1, 1, 0, 0, 0, 1))]:
        field = FiniteField(p, len(modulus) - 1, modulus)
        assert field.modulus != default_modulus(p, field.degree)
        _assert_tables_match_oracle(field)


def test_generator_search_matches_scalar_oracle_past_many_candidates():
    # these generators lie several candidate batches past p; the build
    # tests every candidate at once instead of walking each orbit
    for p, r in [(7, 3), (3, 8), (19, 3), (71, 2), (37, 3), (3, 10), (239, 2)]:
        field = field_create(p, r)
        assert field.generator == _scalar_generator(field), field
        assert field.generator - p >= 8
        assert sorted(field._exp[: field.order - 1]) == list(range(1, field.order))


def test_tables_stay_linear_in_the_order():
    # exp, log and Zech logs take O(q) entries: no field keeps a table
    # of pairs, up to the largest supported order
    for p, r in [(2, 4), (5, 2), (3, 3), (2, 11), (3, 7), (2, 16)]:
        field = FiniteField(p, r)
        x = np.arange(field.order)
        field.add(x, field.mul(field.neg(x), x[::-1]))  # every operation once
        arrays = [v for v in vars(field).values() if isinstance(v, np.ndarray)]
        assert {a.ndim for a in arrays} == {1}
        assert max(a.size for a in arrays) <= 4 * field.order, field
        assert (field._zech is None) == (p == 2)


def _assert_operations_match_digit_oracles(field, a, b):
    """add against digit-wise sums, mul against polynomial products reduced
    by the modulus, neg and inv against add and mul; on arrays and on ints."""
    p, r = field.p, field.degree
    pairs = list(zip(a.tolist(), b.tolist()))
    assert field.add(a, b).tolist() == [_digit_add(x, y, p, r) for x, y in pairs]
    assert field.mul(a, b).tolist() == [_scalar_mul(field, x, y) for x, y in pairs]
    assert [field.add(x, y) for x, y in pairs] == field.add(a, b).tolist()
    assert [field.mul(x, y) for x, y in pairs] == field.mul(a, b).tolist()
    assert not field.add(a, field.neg(a)).any()
    units = a[a != 0]
    assert (field.mul(units, field.inv(units)) == 1).all()
    assert [field.inv(x) for x in units.tolist()] == field.inv(units).tolist()
    with pytest.raises(ZeroDivisionError):
        field.inv(a)  # holds a zero


def test_dense_tables_match_scalar_ops():
    # every pair of the small fields, as dense q x q grids
    for p, r in [(2, 4), (5, 2), (3, 3)]:
        field = field_create(p, r)
        a, b = (g.ravel() for g in np.meshgrid(np.arange(field.order), np.arange(field.order)))
        _assert_operations_match_digit_oracles(field, a, b)


def test_scalar_add_below_and_above_the_pair_table_limit():
    # 200 random pairs, zeros included, of fields on either side of
    # order 2^11 up to the largest supported order
    rng = np.random.default_rng(21)
    for p, r in [(2, 11), (3, 7), (2, 12), (5, 5), (2, 16)]:
        field = field_create(p, r)
        a, b = rng.integers(0, field.order, 200), rng.integers(0, field.order, 200)
        a[:2], b[1:3] = 0, 0
        _assert_operations_match_digit_oracles(field, a, b)


def test_build_memory_stays_small():
    # the tables are linear in the order; a q x q table of 2-byte entries
    # would be 8 and 32 MiB for the last two orders
    for degree in (10, 11, 12):
        tracemalloc.start()
        try:
            FiniteField(2, degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (degree, peak / 2**20)


def test_field_axioms_exhaustive_small():
    for p, r in [(2, 2), (3, 1), (2, 3), (5, 1)]:
        F = field_create(p, r)
        q = F.order
        for a in range(q):
            for b in range(q):
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in range(q):
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
                    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)


def test_field_axioms_random_large():
    rng = random.Random(11)
    for p, r in [(2, 8), (5, 4), (7, 3), (3, 4)]:
        F = field_create(p, r)
        q = F.order
        for _ in range(300):
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
            assert F.pow(a, F.order - 1) in (0, 1)


def test_frobenius_is_additive():
    rng = random.Random(13)
    for p, r in [(2, 4), (3, 2), (5, 2)]:
        F = field_create(p, r)
        for _ in range(200):
            a, b = rng.randrange(F.order), rng.randrange(F.order)
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


def test_trace_linear_and_surjective():
    for p, r in [(2, 2), (2, 4), (2, 8), (3, 2), (5, 2), (2, 3)]:
        F = field_create(p, r)
        images = {F.trace(a) for a in range(F.order)}
        assert images == set(range(p))
        for a in range(min(F.order, 64)):
            for b in range(min(F.order, 64)):
                assert F.trace(F.add(a, b)) == (F.trace(a) + F.trace(b)) % p


def test_trace_to_intermediate_subfield_fixed_by_frobenius():
    F = field_create(2, 4)
    sub_q = 4
    for a in range(F.order):
        t = F.trace(a, 2)
        assert F.pow(t, sub_q) == t


def test_multiplicative_order_matches_naive():
    for p, r in [(2, 4), (5, 2), (3, 2)]:
        F = field_create(p, r)
        for a in range(1, F.order):
            cur, k = a, 1
            while cur != 1:
                cur = F.mul(cur, a)
                k += 1
            assert multiplicative_order(F, a) == k


def test_primitive_nth_root_invariants():
    F16 = field_create(2, 4)
    assert primitive_nth_root(F16, 15) == 2  # the generator itself
    assert primitive_nth_root(F16, 1) == 1
    r5 = primitive_nth_root(F16, 5)
    assert F16.pow(r5, 5) == 1 and all(F16.pow(r5, m) != 1 for m in (1, 2, 3, 4))
    # lowest encoding among order-5 elements
    others = [v for v in range(1, 16) if multiplicative_order(F16, v) == 5]
    assert r5 == min(others)
    with pytest.raises(ValueError):
        primitive_nth_root(F16, 7)
    F25 = field_create(5, 2)
    r24 = primitive_nth_root(F25, 24)
    assert multiplicative_order(F25, r24) == 24
    for F in (F16, F25, field_create(3, 4), field_create(2, 8)):
        for n in range(1, F.order):
            if (F.order - 1) % n == 0:
                of_order_n = [v for v in range(1, F.order) if multiplicative_order(F, v) == n]
                assert primitive_nth_root(F, n) == min(of_order_n)


def test_designators_round_trip():
    assert field_from_designator("2^4") is field_create(2, 4)
    assert field_from_designator("5") is field_create(5, 1)
    assert field_from_designator("4") is field_create(2, 2)
    assert field_create(2, 4).designator == "2^4"
    assert field_create(7, 1).designator == "7"
    with pytest.raises(ValueError):
        field_from_designator("6")
    with pytest.raises(ValueError):
        field_from_designator("2^")


def test_subfield_embedding_is_a_field_homomorphism():
    cases = [((2, 2), (2, 4)), ((2, 2), (2, 8)), ((3, 1), (3, 3)), ((5, 2), (5, 4)), ((2, 3), (2, 6))]
    for (ps, rs), (pb, rb) in cases:
        small, big = field_create(ps, rs), field_create(pb, rb)
        emb = subfield_embedding(small, big)
        assert emb._embed[0] == 0 and emb._embed[1] == 1
        for a in range(small.order):
            for b in range(small.order):
                assert emb._embed[small.add(a, b)] == big.add(emb._embed[a], emb._embed[b])
                assert emb._embed[small.mul(a, b)] == big.mul(emb._embed[a], emb._embed[b])
        # image is exactly the fixed set of x -> x^q
        image = {emb._embed[a] for a in range(small.order)}
        fixed = {v for v in range(big.order) if big.pow(v, small.order) == v}
        assert image == fixed
        # the embedding root is the smallest one
        roots = [v for v in range(big.order) if _naive_poly_eval(small.modulus, v, big) == 0]
        assert emb.beta == min(roots)
    # scalar oracle on every (small, big) pair with p <= 13 and |big| <= 2^13
    pairs = [((p, s), (p, r)) for p in (2, 3, 5, 7, 11, 13) for r in range(1, 14)
             if p**r <= 2**13 for s in range(1, r + 1) if r % s == 0]
    assert len(pairs) == 85
    for (ps, rs), (pb, rb) in pairs:
        small, big = field_create(ps, rs), field_create(pb, rb)
        emb = subfield_embedding(small, big)
        beta = next(v for v in range(big.order) if _naive_poly_eval(small.modulus, v, big) == 0)
        embed = [_naive_poly_eval([(x // ps**j) % ps for j in range(rs)], beta, big)
                 for x in range(small.order)]
        assert emb.beta == beta
        assert emb._embed.dtype == np.int32 and emb._embed.tolist() == embed
        assert [emb.retract(v) for v in embed] == list(range(small.order))
        outside = sorted(set(range(big.order)) - set(embed))[:5]
        for v in outside:
            with pytest.raises(ValueError):
                emb.retract(v)
        assert emb.trace_table.tolist() == [emb.relative_trace(v) for v in range(big.order)]


def test_relative_trace_maps_onto_small_field():
    small, big = field_create(2, 2), field_create(2, 4)
    emb = subfield_embedding(small, big)
    traces = {emb.relative_trace(v) for v in range(big.order)}
    assert traces == set(range(small.order))
    # GF(q)-linearity over the embedded copy
    for s in range(small.order):
        for v in range(0, big.order, 3):
            lhs = emb.relative_trace(big.mul(emb._embed[s], v))
            assert lhs == small.mul(s, emb.relative_trace(v))
    with pytest.raises(ValueError):
        emb.retract(2)  # alpha of GF(16) is not in the GF(4) copy


def test_trace_table_matches_relative_trace():
    # GF(2^12), as every field, sums its traces by XOR or Zech logs
    cases = [((2, 1), (2, 12)), ((2, 2), (2, 8)), ((5, 1), (5, 3)), ((5, 2), (5, 4))]
    for (ps, rs), (pb, rb) in cases:
        emb = subfield_embedding(field_create(ps, rs), field_create(pb, rb))
        table = emb.trace_table
        assert table.shape == (emb.big.order,)
        assert table.tolist() == [emb.relative_trace(v) for v in range(emb.big.order)]
        assert not table.flags.writeable


def test_embedding_rejects_non_subfield():
    with pytest.raises(ValueError):
        subfield_embedding(field_create(2, 2), field_create(2, 3))
    with pytest.raises(ValueError):
        subfield_embedding(field_create(3, 1), field_create(2, 4))
