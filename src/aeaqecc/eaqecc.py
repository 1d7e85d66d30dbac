"""Asymmetric entanglement-assisted code parameters from classical pairs.

A pair of classical codes C1, C2 of the same length over the same field
determines an asymmetric EAQECC with parameters [[n, n-k1-k2+c, dz/dx; c]]_q
where c is the rank of the pairing G1·G2ᵀ between the two codes,
dz is the minimum weight of dual(C1) outside C2, and dx the minimum
weight of dual(C2) outside C1.  For two cyclic codes on the same
cyclotomic cosets, with defining sets Δ1 and Δ2, no product is formed:
dual(C1) ∩ C2 is the cyclic code on Δ2 \\ (-Δ1), so c = |Δ2 ∩ (-Δ1)|
(bch.CyclicCode).  This module computes those parameters,
the symplectic-rank form of c, the puncturing trade-off, and a small
demonstration that growing C1 raises dz without touching dx.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import LinearCode, WeightReport, _check_pair, min_weight, relative_min_weight
from .enumeration import DEFAULT_BUDGET, check_budget
from .errors import BudgetExceededError, DegeneratePairError, FieldMismatchError
from .fields import FiniteField
from .linalg import MatrixGF, mat_mul, rank, stack


@dataclass(frozen=True)
class AsymEaqeccParams:
    """Parameters [[n, k, dz/dx; c]]_q; k1 and k2 are kept when known."""

    q: int
    n: int
    k: int
    dz: WeightReport
    dx: WeightReport
    c: int
    k1: int | None = None
    k2: int | None = None

    def __post_init__(self):
        if self.q < 2 or self.n < 1:
            raise ValueError("need q >= 2 and n >= 1")
        if self.k < 0 or self.c < 0:
            raise ValueError("k and c must be nonnegative")
        if (self.k1 is None) != (self.k2 is None):
            raise ValueError("k1 and k2 must be supplied together")
        if self.k1 is not None:
            if self.k != self.n - self.k1 - self.k2 + self.c:
                raise ValueError("k does not match n - k1 - k2 + c")
            if not self.k1 + self.k2 - self.n <= self.c <= min(self.k1, self.k2):
                raise ValueError("c outside [k1 + k2 - n, min(k1, k2)]")

    def display(self) -> str:
        return (
            f"[[{self.n}, {self.k}, {self.dz.display()}/{self.dx.display()};"
            f" {self.c}]]_{self.q}"
        )

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "dz": self.dz.as_dict(),
            "dx": self.dx.as_dict(),
            "c": self.c,
            "k1": self.k1,
            "k2": self.k2,
        }


def entanglement_c(c1: LinearCode, c2: LinearCode) -> int:
    """Number of entangled pairs the code pair consumes.

    This is the rank of G1 G2^T for any generator matrices of the two
    codes; it vanishes exactly when C2 is orthogonal to C1.  Two cyclic
    codes on the same cosets read it off their defining sets as
    |Δ2 ∩ (-Δ1)|, with no product and no elimination; any other pair
    takes the rank (LinearCode.pairing_rank).
    """
    _check_pair(c1, c2)
    return c1.pairing_rank(c2)


def _relative_or_floor(c1: LinearCode, c2: LinearCode, budget, floor, label):
    """wt(dual(C1) \\ C2), or the floor if its q^(n-k1) words exceed budget."""
    try:
        check_budget(c1.field.order, c1.n - c1.k, budget)
    except BudgetExceededError:
        if floor is None:
            raise
        return WeightReport(value=floor, exact=False, enumerated=0)
    report = relative_min_weight(c1.dual(), c2, budget=budget)
    if floor is not None and report.value < floor:
        raise RuntimeError(
            f"{label} bound {floor} above exact value {report.value}"
        )
    return report


def asym_params(
    c1: LinearCode,
    c2: LinearCode,
    budget: int = DEFAULT_BUDGET,
    *,
    dz_floor: int | None = None,
    dx_floor: int | None = None,
) -> AsymEaqeccParams:
    """Parameters of the asymmetric EAQECC built from (C1, C2).

    c is entanglement_c: |Δ2 ∩ (-Δ1)| for two cyclic codes on the same
    cosets, so such a pair meets no elimination here, and the rank of
    G1·G2ᵀ for any other pair.  First, k = n - k1 - k2 + c = 0 raises
    DegeneratePairError at any budget: dim(dual(C1) ∩ C2) = k2 - c is
    then n - k1, so dual(C1) lies in C2, and likewise dual(C2) in C1.
    Then a distance whose scan exceeds the budget (q^(n-k1) words for dz,
    q^(n-k2) for dx) is refused before any dual is built: dz_floor or
    dx_floor, an algebraic lower bound, is reported with exact=False, and
    without a floor the budget error propagates.

    With k1 = k2 and equal floors, dx is dz without a second scan when
    C2 is C1 or C1 read backwards: reversing coordinates maps dual(C1)
    onto dual(C2) and C2 onto C1, so dual(C2) \\ C1 is dual(C1) \\ C2
    read backwards, of the same weights, and both scans cover
    q^(n-k1) - 1 words.  A refused dz means a refused dx, with the same
    floor.  Reversal maps the cyclic code on Δ to the code on -Δ, so two
    cyclic codes on the same cosets are mirrored exactly when
    Δ2 ∈ {Δ1, -Δ1}; any other pair is tested by one product
    (LinearCode.mirrors).
    """
    c = entanglement_c(c1, c2)  # checks the pair
    n, k1, k2 = c1.n, c1.k, c2.k
    k = n - k1 - k2 + c
    if k == 0:
        raise DegeneratePairError(
            "dz is undefined: dual code lies inside the other code"
        )
    dz = _relative_or_floor(c1, c2, budget, dz_floor, "dz")
    if k1 == k2 and dz_floor == dx_floor and (not dz.exact or c1.mirrors(c2)):
        dx = dz
    else:
        dx = _relative_or_floor(c2, c1, budget, dx_floor, "dx")
    return AsymEaqeccParams(
        q=c1.field.order, n=n, k=k, dz=dz, dx=dx, c=c, k1=k1, k2=k2
    )


def css_stack(c1: LinearCode, c2: LinearCode) -> tuple[MatrixGF, MatrixGF]:
    """Stacked check matrices (HX, HZ) with X checks from C1, Z from C2."""
    _check_pair(c1, c2)
    field = c1.field
    hx = stack(c1.gen, MatrixGF.zeros(field, c2.k, c1.n))
    hz = stack(MatrixGF.zeros(field, c1.k, c1.n), c2.gen)
    return hx, hz


def symplectic_c(hx: MatrixGF, hz: MatrixGF) -> int:
    """Entanglement count from check matrices: rank(HX HZ^T - HZ HX^T)/2.

    The matrix is alternating, so its rank is even in every
    characteristic; an odd rank would mean a bug, not bad input.
    """
    if hx.field != hz.field:
        raise FieldMismatchError(f"{hx.field} vs {hz.field}")
    if hx.shape != hz.shape:
        raise ValueError(f"shape mismatch: {hx.shape} vs {hz.shape}")
    field = hx.field
    prod = mat_mul(hx, hz.transpose())
    neg = MatrixGF(field, field.neg_table[mat_mul(hz, hx.transpose()).entries])
    form = MatrixGF(field, field.add_table[prod.entries, neg.entries])
    r = rank(form)
    if r % 2:
        raise RuntimeError(f"alternating form with odd rank {r}")
    return r // 2


def punctured_params(
    c1: LinearCode,
    c2: LinearCode,
    c: int,
    budget: int = DEFAULT_BUDGET,
) -> AsymEaqeccParams:
    """Trade c qudits of length for c entangled pairs, given C2 inside C1.

    Requires 1 <= c <= min(d(dual C1), d(C2)) - 1.  The distances reported
    are computed from the unpunctured pair: dz = wt(dual(C2) \\ dual(C1)),
    dx = wt(C1 \\ C2).
    """
    _check_pair(c1, c2)
    if not c2.is_subcode_of(c1):
        raise ValueError("puncturing needs C2 contained in C1")
    d_dual1 = min_weight(c1.dual(), budget=budget)
    d_2 = min_weight(c2, budget=budget)
    if d_dual1.is_empty or d_2.is_empty:
        raise ValueError("puncturing needs both d(dual C1) and d(C2) defined")
    cap = min(d_dual1.value, d_2.value) - 1
    if not 1 <= c <= cap:
        raise ValueError(f"c must lie in [1, {cap}], got {c}")
    dz = relative_min_weight(c2.dual(), c1.dual(), budget=budget)
    dx = relative_min_weight(c1, c2, budget=budget)
    if dz.is_empty or dx.is_empty:
        raise RuntimeError("a strictly nested pair must leave words outside")
    return AsymEaqeccParams(
        q=c1.field.order,
        n=c1.n - c,
        k=c1.k - c2.k + c,
        dz=dz,
        dx=dx,
        c=c,
    )


def enlargement_demo(
    field: FiniteField, budget: int = DEFAULT_BUDGET
) -> tuple[AsymEaqeccParams, AsymEaqeccParams]:
    """Show that enlarging C1 raises dz while dx and the rate stand still.

    Over a field with q >= 4 elements and n = q - 1, the pair
    (E_{2}, E_{0, n-1}) of evaluation codes has dz = 2; replacing the
    first code by E_{1, 2} gives dz >= 3 at the same k and dx.  At q = 4
    the length is too short and the construction degenerates.  The codes
    are cyclic: mod q - 1 every q-cyclotomic coset is a singleton and
    GF(q) holds the n-th roots of unity, so coset_code builds them.  A
    budget too small for the first scan, q^(n-1) words, is refused before
    any code is built.
    """
    from .bch import coset_code

    if field.order < 4:
        raise ValueError("demonstration needs a field with at least 4 elements")
    q, n = field.order, field.order - 1
    check_budget(q, n - 1, budget)  # asym_params' first check, before any code
    c1 = coset_code(n, q, [2])
    c2 = coset_code(n, q, [0, n - 1])
    enlarged = coset_code(n, q, [1, 2])
    before = asym_params(c1, c2, budget=budget)
    after = asym_params(enlarged, c2, budget=budget)
    if after.dx != before.dx:
        raise RuntimeError("dx must not move")
    if after.k != before.k or after.n != before.n:
        raise RuntimeError("rate must not move")
    if after.dz.value <= before.dz.value:
        raise RuntimeError("dz must grow")
    return before, after
