"""Field construction, arithmetic tables, embeddings, traces."""

import random

import pytest

from aeaqecc.errors import FieldMismatchError
from aeaqecc.fields import (
    FieldElement,
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


def test_dense_tables_match_scalar_ops():
    for p, r in [(2, 4), (5, 2), (3, 3)]:
        F = field_create(p, r)
        add, mul = F.add_table, F.mul_table
        for a in range(F.order):
            for b in range(F.order):
                assert int(add[a, b]) == F.add(a, b)
                assert int(mul[a, b]) == F.mul(a, b)


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


def test_field_elements_check_field_identity():
    F4 = field_create(2, 2)
    F9 = field_create(3, 2)
    a = F4.element(2)
    b = F9.element(2)
    with pytest.raises(FieldMismatchError):
        _ = a + b
    with pytest.raises(TypeError):
        _ = a + 1
    assert (a * a).value == 3
    assert (-a).value == 2
    assert (F9.element(1) + F9.element(2)).value == 0
    with pytest.raises(ValueError):
        F4.element(4)


def test_field_element_is_hashable_and_frozen():
    F = field_create(3, 1)
    s = {F.element(1), F.element(1), F.element(2)}
    assert len(s) == 2
    assert FieldElement(F, 1) == F.element(1)


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
        assert emb.embed(0) == 0 and emb.embed(1) == 1
        for a in range(small.order):
            for b in range(small.order):
                assert emb.embed(small.add(a, b)) == big.add(emb.embed(a), emb.embed(b))
                assert emb.embed(small.mul(a, b)) == big.mul(emb.embed(a), emb.embed(b))
        # image is exactly the fixed set of x -> x^q
        image = {emb.embed(a) for a in range(small.order)}
        fixed = {v for v in range(big.order) if big.pow(v, small.order) == v}
        assert image == fixed
        # the embedding root is the smallest one
        roots = [v for v in range(big.order) if _naive_poly_eval(small.modulus, v, big) == 0]
        assert emb.beta == min(roots)


def test_relative_trace_maps_onto_small_field():
    small, big = field_create(2, 2), field_create(2, 4)
    emb = subfield_embedding(small, big)
    traces = {emb.relative_trace(v) for v in range(big.order)}
    assert traces == set(range(small.order))
    # GF(q)-linearity over the embedded copy
    for s in range(small.order):
        for v in range(0, big.order, 3):
            lhs = emb.relative_trace(big.mul(emb.embed(s), v))
            assert lhs == small.mul(s, emb.relative_trace(v))
    with pytest.raises(ValueError):
        emb.retract(2)  # alpha of GF(16) is not in the GF(4) copy


def test_trace_table_matches_relative_trace():
    # GF(2^12) has no pair tables, so its table cannot lean on them
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
