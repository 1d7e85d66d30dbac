"""Finite fields GF(p^r) with exp/log arithmetic.

Elements are integers encoding polynomial-basis coordinates: the element
c_0 + c_1*x + ... + c_{r-1}*x^{r-1} over GF(p) has encoding
c_0 + c_1*p + ... + c_{r-1}*p^{r-1}.  The reduction modulus is the monic
irreducible polynomial of the requested degree with the lowest encoding,
found by a deterministic scan, so a field built twice is identical down
to every table entry.

Every field, up to the largest supported order, has one arithmetic:
exp/log tables over a fixed generator (the lowest-encoding primitive
element), with a zero sentinel so that a product is one add and one
gather.  Sums are XOR in characteristic 2, mod p in a prime field and
Zech logs in an odd extension.  The tables take O(q) memory.

Tables, subfield embeddings and traces are built with array operations
over all encodings at once; only the batches of generator candidates, the
walk along the generator's powers and the trace's sum over the conjugates
are loops.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

_LOG_TABLE_LIMIT = 1 << 16
# Generator candidates tested together by _build_tables.
_GENERATOR_BATCH = 4


def _prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def is_prime(p: int) -> bool:
    return p >= 2 and _prime_factors(p) == [p]


@lru_cache(maxsize=None)
def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Write q as p^r with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = _prime_factors(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = fac[0]
    r = 0
    while q % p == 0:
        q //= p
        r += 1
    if q != 1:
        raise ValueError(f"{q * p**r} is not a prime power")
    return p, r


def check_order(q: int) -> None:
    """Refuse a field order past the largest whose tables are built."""
    if q > _LOG_TABLE_LIMIT:
        raise ValueError(f"field order {q} beyond supported table size")


def _decode(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _value(x):
    """A gathered numpy scalar as an int, an array as itself."""
    return x if x.ndim else int(x)


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod is monic
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - d
            for i in range(d):
                a[shift + i] = (a[shift + i] - lead * mod[i]) % p
        a.pop()
    return _poly_trim(a)


def _poly_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_rem(list(base), mod, p)
    while e:
        if e & 1:
            result = _poly_rem(_poly_mul(result, base, p), mod, p)
        base = _poly_rem(_poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        inv_lead = pow(b[-1], -1, p)
        a, b = b, _poly_rem(a, [(c * inv_lead) % p for c in b], p)
    return a


def is_irreducible(coeffs: tuple[int, ...] | list[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over GF(p)."""
    mod = list(coeffs)
    d = len(mod) - 1
    if d < 1 or mod[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    x = [0, 1]
    if _poly_powmod(x, p**d, mod, p) != _poly_rem(list(x), mod, p):
        return False
    for t in _prime_factors(d):
        h = _poly_powmod(x, p ** (d // t), mod, p)
        # h - x
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        diff = _poly_trim(diff)
        g = _poly_gcd(mod, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


def _has_root(coeffs: list[int], p: int) -> bool:
    """Whether the polynomial has a root in GF(p), by Horner at each x."""
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if not acc:
            return True
    return False


def default_modulus(p: int, degree: int) -> tuple[int, ...]:
    """Monic irreducible polynomial of given degree with lowest encoding.

    A candidate of degree > 1 with a root in GF(p) has a linear factor,
    so it is passed over before the Rabin test.
    """
    for m in range(p**degree):
        coeffs = _decode(m, p, degree) + [1]
        if degree > 1 and _has_root(coeffs, p):
            continue
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {degree} over GF({p})")  # pragma: no cover


class FiniteField:
    """GF(p^degree) with a fixed modulus and exp, log and Zech log tables.

    add, neg, mul, inv and trace take encodings as ints or as numpy
    arrays, which broadcast, and return an int for ints and an array for
    arrays.
    """

    def __init__(self, p: int, degree: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        self.p = p
        self.degree = degree
        self.order = p**degree
        check_order(self.order)
        if modulus is None:
            modulus = default_modulus(p, degree)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != degree + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of the field's degree")
            if not is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._build_tables()

    def _build_tables(self) -> None:
        """Fill the exp, log and Zech log tables.

        Multiplication by x is one gather on encodings, read off the
        modulus; multiplication by v is then a linear map over GF(p) whose
        matrix has the digits of x^i * v as row i.  The generator is the
        least v with v^((q-1)/t) != 1 for every prime t | q - 1, tested on
        a batch of candidates at a time by square-and-multiply on those
        matrices; its orbit 1, v, v^2, ..., walked through the map
        a -> a*v, is the exp table.
        """
        p, r, q = self.p, self.degree, self.order
        powers = p ** np.arange(r, dtype=np.int64)
        vals = np.arange(q, dtype=np.int64)
        digits = (vals[:, None] // powers[None, :]) % p

        # x * a: shift the digits up one place and subtract lead * modulus
        shifted = np.zeros_like(digits)
        shifted[:, 1:] = digits[:, :-1]
        shifted -= digits[:, -1:] * np.array(self.modulus[:r], dtype=np.int64)
        times_x = (shifted % p) @ powers
        x_powers = np.empty((r, q), dtype=np.int64)  # [i, a] = x^i * a
        x_powers[0] = vals
        for i in range(1, r):
            x_powers[i] = times_x[x_powers[i - 1]]

        eye = np.eye(r, dtype=np.int64)

        def power(m, e):  # m^e for a stack of matrices over GF(p)
            out = np.broadcast_to(eye, m.shape)
            while e:
                if e & 1:
                    out = out @ m % p
                m = m @ m % p
                e >>= 1
            return out

        cofactors = [(q - 1) // t for t in _prime_factors(q - 1)]
        # below p lies the prime field, whose units have order < q - 1 when r > 1
        for start in range(p if r > 1 else 1, q, _GENERATOR_BATCH):
            cands = vals[start : start + _GENERATOR_BATCH]
            mats = digits[x_powers[:, cands]].transpose(1, 0, 2)  # [v, i] = x^i * v
            primitive = np.ones(len(cands), dtype=bool)
            for e in cofactors:
                primitive &= (power(mats, e) != eye).any(axis=(1, 2))
            if primitive.any():
                winner = int(primitive.argmax())
                self.generator = int(cands[winner])
                break
        else:
            raise RuntimeError(f"no generator of the unit group of GF({q})")

        times_v = ((digits @ mats[winner] % p) @ powers).tolist()
        orbit, cur = [1], times_v[1]
        while cur != 1:
            orbit.append(cur)
            cur = times_v[cur]
        if len(orbit) != q - 1:
            raise RuntimeError(f"GF({q}) generator {self.generator} has order {len(orbit)}")

        # log 0 = z lies past every sum of two unit logs, and exp is 0 from
        # z on, so exp[log a + log b] is a * b for zero factors too
        z = self._zero_log = 2 * (q - 1)
        exp = np.zeros(2 * z + 1, dtype=np.int32)
        exp[:z] = orbit * 2
        log = np.empty(q, dtype=np.int32)
        log[exp[: q - 1]] = np.arange(q - 1)
        log[0] = z
        self._exp, self._log, self._zech = exp, log, None
        if p != 2 and r > 1:
            # a + b = exp[log a + zech[log b - log a + z]].  For units,
            # b/a = g^d and the entry is log(1 + g^d): adding 1 changes
            # digit 0 alone, and the log is z where the sum is 0.  The
            # entry is log b - z for a = 0, and 0 for b = 0.
            d = np.arange(2 - q, q - 1)
            units = exp[d % (q - 1)]
            low = units % p
            zech = np.zeros(2 * z + 1, dtype=np.int32)
            zech[: q - 1] = np.arange(q - 1) - z
            zech[d + z] = log[units - low + (low + 1) % p]
            self._zech = zech

    def spread_digits(self, stride: int) -> np.ndarray:
        """Every encoding with its base-p digit j moved to bit stride*j."""
        vals = np.arange(self.order, dtype=np.int64)
        out = np.zeros(self.order, dtype=np.int64)
        for j in range(self.degree):
            out |= (vals // self.p**j % self.p) << (stride * j)
        return out

    # -- operations on ints or numpy arrays of encodings ----------------

    def add(self, a, b):
        """a + b: XOR in characteristic 2, mod p in a prime field, and by
        Zech logs in an odd extension, a + b = a * (1 + b/a)."""
        if self.p == 2:
            return a ^ b
        if self.degree == 1:
            return (a + b) % self.p
        la, lb = self._log[a], self._log[b]
        return _value(self._exp[la + self._zech[lb - la + self._zero_log]])

    def neg(self, a):
        """-a, the product with -1, whose encoding is p - 1."""
        return self.mul(a, self.p - 1)

    def mul(self, a, b):
        return _value(self._exp[self._log[a] + self._log[b]])

    def inv(self, a):
        if not np.all(a):
            raise ZeroDivisionError(f"0 has no inverse in {self}")
        return _value(self._exp[self.order - 1 - self._log[a]])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError(f"0 has no inverse in {self}")
            return 1 if e == 0 else 0
        return int(self._exp[int(self._log[a]) * e % (self.order - 1)])

    def trace(self, a, subfield_degree: int = 1):
        """Trace onto GF(p^subfield_degree), returned in this field's encoding.

        The sum of the conjugates a^(s^i), s = p^subfield_degree, each read
        as exp[log a * s^i mod (q - 1)] with log 0 kept on the zero
        sentinel.  The result lies in the subfield fixed by x -> x^s; for
        the prime subfield the encoding is the subfield value itself.
        """
        if self.degree % subfield_degree != 0:
            raise ValueError(
                f"GF({self.p}^{subfield_degree}) is not a subfield of {self}"
            )
        la = self._log[a].astype(np.int64)
        zero = la == self._zero_log
        acc, power = 0, 1  # power = s^i mod (q - 1)
        for _ in range(self.degree // subfield_degree):
            acc = self.add(acc, self._exp[np.where(zero, la, la * power % (self.order - 1))])
            power = power * self.p**subfield_degree % (self.order - 1)
        return acc if np.ndim(acc) else int(acc)

    # -- conveniences ----------------------------------------------------

    @property
    def designator(self) -> str:
        return f"{self.p}^{self.degree}" if self.degree > 1 else str(self.p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (
            self.p == other.p
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.designator})"


@lru_cache(maxsize=None)
def field_create(p: int, degree: int = 1) -> FiniteField:
    """Cached field constructor with the canonical modulus."""
    return FiniteField(p, degree)


def field_from_designator(text: str) -> FiniteField:
    """Parse 'p' or 'p^r' into a field."""
    parts = text.strip().split("^")
    try:
        if len(parts) == 1:
            p, r = int(parts[0]), 1
        elif len(parts) == 2:
            p, r = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"malformed field designator {text!r}") from None
    if not is_prime(p):
        # accept prime-power shorthand like "4" by splitting it
        try:
            p, extra = prime_power_decomposition(p)
        except ValueError:
            raise ValueError(f"field designator {text!r} is not a prime power") from None
        r *= extra
    return field_create(p, r)


def multiplicative_order(field: FiniteField, a: int) -> int:
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    return (field.order - 1) // int(np.gcd(int(field._log[a]), field.order - 1))


def primitive_nth_root(field: FiniteField, n: int) -> int:
    """Lowest-encoded element of multiplicative order exactly n."""
    if n < 1 or (field.order - 1) % n != 0:
        raise ValueError(f"no element of order {n} in {field}")
    # the elements of order n are g^(k(q-1)/n) with k a unit mod n
    units = np.array([k for k in range(n) if gcd(k, n) == 1], dtype=np.int64)
    return int(field._exp[units * ((field.order - 1) // n)].min())


def _horner(field: FiniteField, coeffs, x) -> np.ndarray:
    """sum_j coeffs[j] * x^j in ``field``, elementwise over arrays."""
    acc = np.zeros_like(x)  # takes the coefficients' shape on the first step
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


class SubfieldEmbedding:
    """GF(p^r) inside GF(p^l), r | l, via the lowest-encoded modulus root.

    _embed maps small-field encodings to big-field encodings and _retract
    inverts it on the image, with -1 for every big-field encoding outside.
    """

    def __init__(self, small: FiniteField, big: FiniteField):
        if small.p != big.p or big.degree % small.degree != 0:
            raise ValueError(f"{small} does not embed into {big}")
        self.small = small
        self.big = big
        roots = np.flatnonzero(_horner(big, small.modulus, np.arange(big.order)) == 0)
        if roots.size == 0:
            raise RuntimeError(f"modulus of {small} has no root in {big}")
        self.beta = beta = int(roots[0])
        # x = sum_j x_j * beta^j for the digits x_j of every small encoding
        values = np.arange(small.order, dtype=np.int32)
        digits = [(values // small.p**j) % small.p for j in range(small.degree)]
        self._embed = _horner(big, digits, beta)
        self._retract = np.full(big.order, -1, dtype=np.int64)
        self._retract[self._embed] = values


@lru_cache(maxsize=None)
def subfield_embedding(small: FiniteField, big: FiniteField) -> SubfieldEmbedding:
    return SubfieldEmbedding(small, big)
