"""Gilbert-Varshamov style existence bounds for asymmetric EAQECCs.

The finite form is an exact rational inequality: a code with the queried
parameters exists whenever a weighted pair of sphere sums stays below 1.
Both weights share the denominator q^n - 1, so the inequality is decided
on integer numerators and verdicts near the boundary are trustworthy.
The asymptotic form compares q-ary entropies of the relative distances
against the dual rates; those are evaluated with 60-digit decimals and
strict inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

from .codes import WeightReport
from .eaqecc import AsymEaqeccParams
from .errors import ThresholdEmptyError
from .fields import prime_power_decomposition

_PRECISION = 60

Numeric = int | float | str | Decimal


def _validate_shape(q: int, n: int, k1: int, k2: int, c: int) -> None:
    prime_power_decomposition(q)
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k1 <= n or not 0 <= k2 <= n:
        raise ValueError("k1 and k2 must lie in [0, n]")
    if not k1 + k2 - n <= c <= min(k1, k2):
        raise ValueError("c outside [k1 + k2 - n, min(k1, k2)]")


@dataclass(frozen=True)
class GvQuery:
    q: int
    n: int
    k1: int
    k2: int
    c: int
    dz: int
    dx: int

    def __post_init__(self):
        _validate_shape(self.q, self.n, self.k1, self.k2, self.c)
        if self.dz < 1 or self.dx < 1:
            raise ValueError("distances must be at least 1")


@dataclass(frozen=True)
class ThresholdPair:
    dz_threshold: int
    dx_threshold: int


def sphere_sum(q: int, n: int, d: int) -> int:
    """Number of words within distance d-1 of a fixed word, center excluded."""
    return sum(comb(n, i) * (q - 1) ** i for i in range(1, d))


def _fractions(q, n, k1, k2, c) -> tuple[int, int]:
    """Numerators of the two sphere-sum weights over the denominator q^n - 1."""
    f1 = q ** (n - k1) - q ** (k2 - c)
    f2 = q ** (n - k2) - q ** (k1 - c)
    if f1 < 0 or f2 < 0:
        raise RuntimeError(f"negative weight for q={q}, n={n}, k1={k1}, k2={k2}, c={c}")
    return f1, f2


def gv_finite_sum(query: GvQuery) -> Fraction:
    """Exact left-hand side of the finite existence inequality."""
    q, n = query.q, query.n
    f1, f2 = _fractions(q, n, query.k1, query.k2, query.c)
    return Fraction(
        f1 * sphere_sum(q, n, query.dz) + f2 * sphere_sum(q, n, query.dx), q**n - 1
    )


def gv_finite_holds(query: GvQuery) -> bool:
    """True when the bound certifies existence of the queried code."""
    return gv_finite_sum(query) < 1


def gv_threshold(q: int, n: int, k1: int, k2: int, c: int) -> ThresholdPair:
    """Largest certifiable distance pair, first coordinate taking priority.

    Among 1 <= d1, d2 <= n+1, a pair qualifies when the sum is below 1 but
    bumping one coordinate pushes it to 1 or beyond; the result is the
    lexicographic maximum.  Pairs at the grid edge whose neighbors all
    stay below 1 never qualify.

    The sphere sums grow with d, so for each d1 the pairs below 1 are
    d2 <= last(d1), and last only grows as d1 falls.  One walk of d1 from
    n+1 down, with last moved up alongside, stops at the first d1 that
    qualifies, paired with last(d1): that pair qualifies through its right
    neighbor unless last = n+1, and then only through its upper one, which
    no smaller d2 could do either.
    """
    _validate_shape(q, n, k1, k2, c)
    f1, f2 = _fractions(q, n, k1, k2, c)
    one = q**n - 1  # the sums below are numerators over this denominator
    # prefix sums up to the off-grid neighbor d = n+2; the i > n binomials
    # vanish, so that last entry repeats and edge pairs drop out naturally
    sums = [0] * (n + 3)
    for d in range(2, n + 3):
        sums[d] = sums[d - 1] + comb(n, d - 1) * (q - 1) ** (d - 1)
    last = 0
    for d1 in range(n + 1, 0, -1):
        while last <= n and f1 * sums[d1] + f2 * sums[last + 1] < one:
            last += 1
        if last and (last <= n or f1 * sums[d1 + 1] + f2 * sums[last] >= one):
            return ThresholdPair(d1, last)
    raise ThresholdEmptyError(
        f"no threshold pair for q={q}, n={n}, k1={k1}, k2={k2}, c={c}"
    )


# -- asymptotic form ----------------------------------------------------

def _as_decimal(value: Numeric) -> Decimal:
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        # repr round-trip keeps '0.11' meaning the literal 0.11
        return Decimal(repr(value))
    return Decimal(value)


def entropy(y: Numeric, q: int) -> Decimal:
    """The q-ary entropy -y log_q y - (1-y) log_q (1-y), 0 at y = 0."""
    if q < 2:
        raise ValueError("entropy base must be at least 2")
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        yy = +_as_decimal(y)
        if not 0 <= yy <= 1:
            raise ValueError("entropy argument must lie in [0, 1]")
        if yy == 0 or yy == 1:
            return Decimal(0)
        lnq = Decimal(q).ln()
        one = Decimal(1)
        return -(yy * yy.ln() + (one - yy) * (one - yy).ln()) / lnq


def gv_asymptotic_holds(
    K1: Numeric,
    K2: Numeric,
    delta_z: Numeric,
    delta_x: Numeric,
    lam: Numeric,
    q: int,
) -> bool:
    """Strict entropy test for asymptotic existence at rates (K1, K2)."""
    prime_power_decomposition(q)
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        K1d, K2d = _as_decimal(K1), _as_decimal(K2)
        lam_d = _as_decimal(lam)
        dz, dx = _as_decimal(delta_z), _as_decimal(delta_x)
        if not K1d + K2d - 1 <= lam_d <= min(K1d, K2d):
            raise ValueError("lambda outside [K1 + K2 - 1, min(K1, K2)]")
        for delta in (dz, dx):
            if not 0 <= delta < 1:
                raise ValueError("relative distances must lie in [0, 1)")
        lnq = Decimal(q).ln()
        logq_qm1 = Decimal(q - 1).ln() / lnq
        lhs_z = entropy(dz, q) + dz * logq_qm1
        lhs_x = entropy(dx, q) + dx * logq_qm1
        return lhs_z < K1d and lhs_x < K2d


def asymptotic_params(
    K1: Numeric,
    K2: Numeric,
    delta_z: Numeric,
    delta_x: Numeric,
    lam: Numeric,
    n: int,
    q: int,
) -> AsymEaqeccParams:
    """Floored parameter tuple promised for large n; a target, not a code."""
    if n < 1:
        raise ValueError("n must be positive")
    if not gv_asymptotic_holds(K1, K2, delta_z, delta_x, lam, q):
        raise ValueError("entropy inequalities fail at these rates")
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        K1d, K2d = _as_decimal(K1), _as_decimal(K2)
        lam_d = _as_decimal(lam)
        if lam_d < 0:
            raise ValueError("lambda must be nonnegative for a parameter tuple")
        nd = Decimal(n)
        k = int(nd - nd * K1d - nd * K2d + nd * lam_d)
        dz = int(nd * _as_decimal(delta_z))
        dx = int(nd * _as_decimal(delta_x))
        c = int(nd * lam_d)
    return AsymEaqeccParams(
        q=q,
        n=n,
        k=k,
        dz=WeightReport(value=dz, exact=True, enumerated=0),
        dx=WeightReport(value=dx, exact=True, enumerated=0),
        c=c,
    )
