"""BCH-style constructions: cosets, evaluation codes, subfield-subcodes.

A length n coprime to q splits {0,...,n-1} into q-cyclotomic cosets.
Unions of cosets select monomial exponent sets Delta; evaluating those
monomials at the n-th roots of unity in a big field GF(p^l) and cutting
down to GF(q) by the trace yields the classical codes whose pairs drive
the asymmetric EAQECC factory at the bottom of this module.  The package
builds them from generator polynomials (CyclicCode); the trace route has
no caller inside the package and stays as the tests' oracle.
Distance floors come from the consecutive-run (BCH) bound and the
arithmetic-progression (Hartmann-Tzeng) generalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable

import numpy as np

from .codes import LinearCode, WeightReport
from .eaqecc import AsymEaqeccParams, asym_params
from .enumeration import DEFAULT_BUDGET
from .errors import FieldMismatchError
from .fields import (
    FiniteField,
    field_create,
    prime_power_decomposition,
    primitive_nth_root,
    subfield_embedding,
)
from .linalg import MatrixGF


class CosetStructure:
    """The q-cyclotomic cosets of {0,...,n-1} with sorted representatives."""

    def __init__(self, n: int, q: int):
        prime_power_decomposition(q)
        if n < 1:
            raise ValueError("n must be positive")
        if gcd(n, q) != 1:
            raise ValueError(f"n={n} and q={q} must be coprime")
        self.n = n
        self.q = q
        rep_of: dict[int, int] = {}
        cosets = []
        for a in range(n):
            if a in rep_of:
                continue
            orbit = [a]
            x = (a * q) % n
            while x != a:
                orbit.append(x)
                x = (x * q) % n
            for x in orbit:
                rep_of[x] = a
            cosets.append(tuple(sorted(orbit)))
        self._rep_of = rep_of
        self.cosets = tuple(cosets)
        self.reps = tuple(c[0] for c in cosets)
        self.sizes = tuple(len(c) for c in cosets)
        self._coset_by_rep = {c[0]: c for c in cosets}

    @property
    def z(self) -> int:
        """Index of the last nonzero representative (reps are a_0..a_z)."""
        return len(self.reps) - 1

    def rep_of(self, x: int) -> int:
        return self._rep_of[x % self.n]

    def coset_of(self, x: int) -> tuple[int, ...]:
        return self._coset_by_rep[self.rep_of(x)]

    def size_of(self, x: int) -> int:
        return len(self.coset_of(x))

    def closure(self, labels: Iterable[int]) -> tuple[int, ...]:
        """Union of the cosets through the given elements, sorted.

        Labels must lie in [0, n); anything else raises ValueError rather
        than being reduced mod n.
        """
        out: set[int] = set()
        for a in labels:
            if not 0 <= a < self.n:
                raise ValueError(f"label {a} outside [0, {self.n - 1}]")
            out.update(self.coset_of(a))
        return tuple(sorted(out))

    def is_closed(self, delta: Iterable[int]) -> bool:
        d = set(delta)
        return all((a * self.q) % self.n in d for a in d)

    def reps_in(self, delta: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted({self.rep_of(a) for a in delta}))

    def __repr__(self) -> str:
        return f"CosetStructure(n={self.n}, q={self.q}, reps={list(self.reps)})"


@lru_cache(maxsize=None)
def cyclotomic_cosets(n: int, q: int) -> CosetStructure:
    return CosetStructure(n, q)


def reciprocal_rep(structure: CosetStructure, a: int) -> int:
    """Representative of the coset containing n - a."""
    if a not in structure._coset_by_rep:
        raise ValueError(f"{a} is not a coset representative mod {structure.n}")
    rep = structure.rep_of((structure.n - a) % structure.n)
    if structure.size_of(rep) != structure.size_of(a):
        raise RuntimeError(f"negation changed the size of the coset of {a}")
    return rep


@lru_cache(maxsize=None)
def splitting_field(n: int, q: int) -> FiniteField:
    """The smallest field containing GF(q) whose units have order n.

    That is GF(q^m) for m = ord_n(q), the size of the coset {1, q, q^2,
    ...} mod n; for n = 1 it is the coset {0}, of size 1.
    """
    p, r = prime_power_decomposition(q)
    return field_create(p, r * cyclotomic_cosets(n, q).size_of(1))


class EvaluationCode:
    """Code spanned by evaluations of monomials X^a at the roots of unity.

    The points are the powers 1, alpha, ..., alpha^(n-1) of the canonical
    primitive n-th root, so the generator matrix is reproducible.
    """

    def __init__(self, big_field: FiniteField, n: int, delta: Iterable[int]):
        if n < 1 or (big_field.order - 1) % n != 0:
            raise ValueError(f"n={n} must divide {big_field.order} - 1")
        delta = tuple(sorted(set(delta)))
        if delta and not 0 <= delta[0] <= delta[-1] < n:
            raise ValueError("exponents must lie in [0, n)")
        self.big_field = big_field
        self.n = n
        self.delta = delta
        alpha = primitive_nth_root(big_field, n)
        step = int(big_field._log[alpha])
        points = big_field._exp[(np.arange(n) * step) % (big_field.order - 1)]
        self.points = tuple(int(v) for v in points)
        exponents = np.outer(np.array(delta, dtype=np.int64), np.arange(n)) % n
        self.gen = MatrixGF(big_field, points[exponents].reshape(len(delta), n))

    @property
    def code(self) -> LinearCode:
        code = LinearCode(self.big_field, self.gen)
        if code.k != len(self.delta):
            raise RuntimeError(  # Vandermonde rows are independent
                f"evaluation code spans {code.k}, expected {len(self.delta)}"
            )
        return code


def evaluation_code(big_field: FiniteField, n: int, delta: Iterable[int]) -> EvaluationCode:
    return EvaluationCode(big_field, n, delta)


def subfield_subcode(ev: EvaluationCode, q: int) -> LinearCode:
    """Restriction of an evaluation code to GF(q) coordinates.

    The generator comes from componentwise traces tr(gamma * ev(X^a)) with
    a running over the coset representatives inside Delta and gamma over a
    basis of the big field over GF(q).  Delta must be a union of
    q-cyclotomic cosets; the dimension is checked against the coset sizes.
    """
    p, r = prime_power_decomposition(q)
    big = ev.big_field
    if big.p != p or big.degree % r != 0:
        raise FieldMismatchError(f"GF({q}) is not a subfield of {big}")
    structure = cyclotomic_cosets(ev.n, q)
    if not structure.is_closed(ev.delta):
        raise ValueError("exponent set is not a union of cyclotomic cosets")
    small = field_create(p, r)
    emb = subfield_embedding(small, big)
    # gamma runs over 1, X, ..., X^(m-1): the class of X generates the big
    # field over GF(q), and X^j has encoding p^j while j < degree.
    gamma_logs = big._log[p ** np.arange(big.degree // r)]
    reps = structure.reps_in(ev.delta)
    rows = ev.gen.entries[[ev.delta.index(a) for a in reps]].astype(np.int64)
    products = big._exp[gamma_logs[None, :, None] + big._log[rows][:, None, :]]
    entries = emb._retract[big.trace(products, r)].reshape(-1, ev.n)
    if (entries < 0).any():
        raise RuntimeError(f"a trace fell outside the embedded copy of {small}")
    code = LinearCode(small, MatrixGF(small, entries))
    expected = sum(structure.size_of(a) for a in reps)
    if code.k != expected:
        raise RuntimeError(f"trace construction spans {code.k}, expected {expected}")
    return code


def coset_code(n: int, q: int, labels: Iterable[int]) -> LinearCode:
    """Subfield-subcode over GF(q) from the closure of the given labels."""
    structure = cyclotomic_cosets(n, q)
    return CyclicCode(structure, structure.closure(labels))


def dual_defining_set(structure: CosetStructure, delta: Iterable[int]) -> tuple[int, ...]:
    """Exponent set of the dual of the subfield-subcode of E_delta.

    Pairing ev(X^a) against ev(X^b) is nonzero exactly when a + b = 0
    mod n, so the dual keeps the exponents whose negation is missing from
    delta.
    """
    delta = tuple(sorted(set(delta)))
    if not structure.is_closed(delta):
        raise ValueError("exponent set is not a union of cyclotomic cosets")
    n = structure.n
    negated = {(n - a) % n for a in delta}
    return tuple(sorted(set(range(n)) - negated))


# -- cyclic codes from their defining sets ------------------------------

@lru_cache(maxsize=None)
def _log_tables(field: FiniteField) -> tuple[tuple, tuple, tuple | None]:
    """The field's exp table over two periods, its log table and, for an
    odd extension field, its Zech logs zech[i] = log(1 + g^i), as tuples.
    Built once per field and read-only, as every caller shares them."""
    z, zech = field._zero_log, field._zech
    if zech is not None:
        zech = tuple(zech[z : z + field.order - 1].tolist())
    return tuple(field._exp[:z].tolist()), tuple(field._log.tolist()), zech


def _poly_mul(field: FiniteField, tables: tuple, a: list, b: list) -> list:
    """a*b over ``field``, lowest degree first, one pass per entry of the
    shorter factor."""
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        out[i : i + len(b)] = _axpy(field, tables, out[i : i + len(b)], c, b)
    return out


def _axpy(field: FiniteField, tables: tuple, y: list, c: int, x: list) -> list:
    """y + c*x entrywise from _log_tables, by FiniteField's rules on
    lists: exp/log products; sums by XOR in characteristic 2, mod p in a
    prime field, and otherwise by Zech logs, u + v = u*(1 + v/u)."""
    if not c:
        return y
    p = field.p
    if p != 2 and field.degree == 1:
        return [(a + c * b) % p for a, b in zip(y, x)]
    exp, log, zech = tables
    lc = log[c]
    if p == 2:
        return [a ^ exp[lc + log[b]] if b else a for a, b in zip(y, x)]
    units, out = len(zech), []
    for a, b in zip(y, x):
        if b:
            lv = lc + log[b]
            if a:
                la = log[a]
                z = zech[(lv - la) % units]
                a = exp[la + z] if z < units else 0  # z is log 0 where u = -v
            else:
                a = exp[lv]
        out.append(a)
    return out


@lru_cache(maxsize=None)
def _minimal_polynomials(n: int, q: int) -> dict[int, list[int]]:
    """GF(q) encodings of the minimal polynomial of beta^a for every
    representative a, with beta the root EvaluationCode evaluates at: the
    product of x - beta^e over the coset of a, formed in the splitting
    field, one pass over the product per factor.
    """
    big = splitting_field(n, q)
    retract = subfield_embedding(field_create(*prime_power_decomposition(q)), big)._retract
    tables = _log_tables(big)
    beta = primitive_nth_root(big, n)
    out = {}
    for coset in cyclotomic_cosets(n, q).cosets:
        poly = [1]
        for e in coset:  # x*poly - beta^e*poly
            poly = _axpy(big, tables, [0] + poly, big.neg(big.pow(beta, e)), poly + [0])
        out[coset[0]] = [int(retract[c]) for c in poly]
        if min(out[coset[0]]) < 0:
            raise RuntimeError(f"minimal polynomial of beta^{coset[0]} leaves GF({q})")
    return out


class CyclicCode(LinearCode):
    """The code subfield_subcode(evaluation_code(..., delta), q) spans,
    built with no elimination.  Its words vanish at beta^e exactly for e
    in -(Z_n \\ delta): its generator polynomial g, of degree n - k, is
    those cosets' minimal polynomials multiplied.  Row i of its reduced
    generator [I_k | P] is x^i + x^k u_i with u_i = -(x^(n-k+i) mod g), a
    multiple of g (times x^(n-k) it is x^(n-k+i) + u_i mod x^n - 1), and
    one shift-register pass gives u_(i+1) = x u_i - lead(u_i) g.  The dual
    vanishes on delta and has [I_(n-k) | -Pᵀ], the parity check [-Pᵀ | I_k]
    rotated by k places, so the pass runs on the smaller of the two degrees.
    The tails u_i go into one int32 array that already holds I_k.
    """

    is_cyclic = True

    def __init__(self, structure: CosetStructure, delta: Iterable[int]):
        delta = tuple(sorted(set(delta)))
        if not structure.is_closed(delta):
            raise ValueError("exponent set is not a union of cyclotomic cosets")
        n, k, members = structure.n, len(delta), set(delta)
        field = field_create(*prime_power_decomposition(structure.q))
        tables = _log_tables(field)
        minimal = _minimal_polynomials(n, structure.q)
        on_dual = 2 * k < n  # the dual's generator polynomial has degree k
        g = [1]
        for a in structure.reps:
            if (a in members) if on_dual else ((-a) % n not in members):
                g = _poly_mul(field, tables, g, minimal[a])
        neg_g = field.neg(g).tolist()
        flat, u = [], g[:-1]
        for _ in range(n + 1 - len(g)):
            flat += u
            if u:
                u = _axpy(field, tables, [0] + u[:-1], u[-1], neg_g)
        tails = np.array(flat, dtype=np.int32).reshape(n + 1 - len(g), len(g) - 1)
        gen = _identity(k, n)
        gen[:, k:] = field.neg(tails.T) if on_dual else tails
        self._set(structure, delta, field, gen)

    def _set(self, structure, delta, field, gen) -> None:  # gen = [I | P]
        self.field, self.n, self.k = field, structure.n, len(delta)
        self.gen = MatrixGF(field, gen)
        self.pivots = tuple(range(self.k))
        self.structure, self.delta = structure, delta

    def dual(self) -> "CyclicCode":
        code = CyclicCode.__new__(CyclicCode)
        k, n = self.k, self.n
        gen = _identity(n - k, n)
        gen[:, n - k :] = self.field.neg(self.gen.entries[:, k:].T)
        code._set(self.structure, dual_defining_set(self.structure, self.delta), self.field, gen)
        code.parity_check = self.gen
        return code

    def _negated_delta(self, other: LinearCode) -> set[int] | None:
        """-delta when other is a CyclicCode on the same (n, q), else None."""
        if not (isinstance(other, CyclicCode)
                and (other.n, other.structure.q) == (self.n, self.structure.q)):
            return None
        return {(-a) % self.n for a in self.delta}

    def pairing_rank(self, other: LinearCode) -> int:
        """|delta_other ∩ (-delta)| against a cyclic code on the same
        cosets: dual(self) ∩ other is the cyclic code on
        delta_other \\ (-delta), of dimension k_other - rank(G·G_otherᵀ)."""
        negated = self._negated_delta(other)
        if negated is None:
            return super().pairing_rank(other)
        return len(negated.intersection(other.delta))

    def mirrors(self, other: LinearCode) -> bool:
        """delta_other is delta or -delta for a cyclic code on the same
        cosets: reading coordinates backwards maps the code on delta to
        the code on -delta, and distinct sets give distinct codes."""
        negated = self._negated_delta(other)
        if negated is None:
            return super().mirrors(other)
        return other.delta == self.delta or set(other.delta) == negated


def _identity(k: int, n: int) -> np.ndarray:
    """[I_k | 0], shape (k, n), as the int32 entries MatrixGF keeps."""
    gen = np.zeros((k, n), dtype=np.int32)
    np.fill_diagonal(gen, 1)
    return gen


def bch_bound(structure: CosetStructure, t: int) -> int:
    """Dual-distance floor a_(t+1) + 1 from t+1 leading cosets."""
    if not 0 <= t < structure.z:
        raise ValueError(f"t must lie in [0, {structure.z - 1}]")
    return structure.reps[t + 1] + 1


# -- Hartmann-Tzeng bound ----------------------------------------------

def hartmann_tzeng_bound(n: int, defining_set: Iterable[int]) -> int:
    """Distance floor from arithmetic progressions inside the root set.

    Searches all patterns {b + i*a1 + j*a2 : 0 <= i <= delta-2, 0 <= j <= s}
    contained in the set, with gcd(a1, n) = 1 and gcd(a2, n) < delta, and
    returns the best delta + s.  Runs of distinct translates only, so s
    stays below n / gcd(a2, n).  A pattern is credited only when the
    translate at the end of its run of multiples of a1 has the shortest
    run along a2 (see _ht_search), so the result can fall below the best
    pattern; it is still a floor.  Runs and windows are read on the
    members of the set only: a step costs work over units x |T| cells,
    not units x n positions.  The empty set gives 1; the full set (a code
    with only the zero word) gives n + 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _ht_bound(n, tuple(sorted({x % n for x in defining_set})))


@lru_cache(maxsize=None)
def _ht_bound(n: int, t_sorted: tuple[int, ...]) -> int:
    if not t_sorted:
        return 1
    if len(t_sorted) == n:
        return n + 1
    return _ht_search(n, frozenset(t_sorted))


# (step, cell) entries of one array of the search
_HT_BLOCK = 1 << 16


def _ht_search(n: int, t_set: frozenset) -> int:
    """Best credited window over one unit per coset of the stabilizer of T.

    Units v with vT = T form a group, which contains q when T is a union
    of q-cyclotomic cosets.  For such v the unit u*v scans u*v*T = u*T,
    the very set u scans, so one unit per coset u*Stab(T) is enough.

    Unit u's run at step u*m and position y is T's run at step m and
    position x = u^-1*y, and its window y, y-1, ... is x, x-a, ... with
    a = u^-1.  A window whose runs are all at least the run r at its right
    end x is credited r plus its width once the width reaches g = gcd(m, n):
    it holds {y - i + j*u*m : i < width, j < r}.  So everything is read off
    T's runs on T's member columns, built once per step block.  A width-1
    window pays r + 1 only when g = 1, which is the starting 2 for r = 1;
    for r >= 2 the unit with u^-1 = m*s (s in Stab(T)) credits at least as
    much to the window s*(x+m), s*x at step m*s.  So only chain cells
    (u, x) with x - a in T need a scan, every unit's at once: it follows
    the (units x |T|) table prev, x -> x - a, in (steps x cells) chunks of
    at most _HT_BLOCK entries.
    """
    best = 2  # any root rules out weight-1 words
    elems = np.array(sorted(t_set), dtype=np.int64)
    size = elems.size
    column = np.full(n, size)  # T's column of each residue, size for a non-member
    column[elems] = np.arange(size)
    member = column < size
    units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
    stabilizer = units[member[(units[:, None] * elems) % n].all(1)].tolist()  # vT = T
    covered = bytearray(n)
    back = []  # a = u^-1 for one u per coset of the stabilizer
    for u in units.tolist():
        if covered[u]:
            continue
        for v in stabilizer:
            covered[(u * v) % n] = 1
        back.append(pow(u, -1, n))
    prev = np.full((len(back), size + 1), size)  # the zero column leads to itself
    prev[:, :size] = column[(elems[None, :] - np.array(back)[:, None]) % n]
    unit_of, cells = np.nonzero(prev[:, :size] < size)
    rows = max(1, _HT_BLOCK // n)
    for lo in range(1, n, rows):
        steps = np.arange(lo, min(lo + rows, n))[:, None]
        run = _runs(member, elems, steps)
        g, chunk = np.gcd(steps, n), max(1, _HT_BLOCK // len(steps))
        for c0 in range(0, cells.size, chunk):
            unit, at = unit_of[c0:c0 + chunk], cells[c0:c0 + chunk]
            own = run[:, at]
            inside, width = own > 0, np.ones_like(own)
            while True:
                at = prev[unit, at]
                inside &= run[:, at] >= own
                if not inside.any():
                    break
                width += inside
            best = max(best, int(np.where(width >= g, own + width, 0).max()))
    return best


def _runs(member: np.ndarray, columns: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """run[m, j] for the set ``member`` at x = columns[j], over a column of steps m.

    run[m, j] counts the members x, x+m, x+2m, ... before the first
    non-member, or the whole orbit of x when it holds no non-member.  A
    last column of zeros stands for the non-members.
    """
    n = member.size
    period = n // np.gcd(steps, n)
    alive = np.ones((len(steps), columns.size), dtype=bool)
    run = np.zeros((len(steps), columns.size + 1), dtype=np.int32)
    run[:, :-1] = 1
    at = columns
    for j in range(1, n):
        at = (at + steps) % n
        alive &= member[at] & (j < period)  # a full orbit is capped
        if not alive.any():
            break
        run[:, :-1] += alive
    return run


# -- the asymmetric EAQECC factory -------------------------------------

@dataclass(frozen=True)
class BchConstruction:
    params: AsymEaqeccParams
    c1: LinearCode
    c2: LinearCode
    delta1: tuple[int, ...]
    delta2: tuple[int, ...]
    dz_bound: int
    dx_bound: int


def _check_coset_indices(structure: CosetStructure, s: int, t: int) -> None:
    if structure.z < 2:
        raise ValueError("the construction needs at least three cyclotomic cosets; "
                         f"n={structure.n} has {structure.z + 1} over GF({structure.q})")
    if not 0 <= s < t <= structure.z - 1:
        raise ValueError(f"need 0 <= s < t <= {structure.z - 1}")


def bch_asym_code(
    structure: CosetStructure, s: int, t: int, budget: int = DEFAULT_BUDGET
) -> BchConstruction:
    """Asymmetric EAQECC from the first t+1 cosets against the reciprocals
    of the first s+1.

    C1 collects the cosets of a_0..a_t; C2 collects the reciprocal cosets
    of a_0..a_s, so delta2 lies in -delta1 and c = |delta2 ∩ (-delta1)|
    is dim C2 (the tests check this against the rank of G1·G2ᵀ).
    Distances default to the consecutive-run floors a_(t+1)+1 and
    a_(s+1)+1 and are upgraded to exact values when the enumeration
    budget allows.
    """
    _check_coset_indices(structure, s, t)
    delta1 = structure.closure(structure.reps[: t + 1])
    recip = [reciprocal_rep(structure, a) for a in structure.reps[: s + 1]]
    delta2 = structure.closure(recip)
    c1 = CyclicCode(structure, delta1)
    c2 = CyclicCode(structure, delta2)
    dz_bound = bch_bound(structure, t)
    dx_bound = structure.reps[s + 1] + 1
    return BchConstruction(
        params=asym_params(c1, c2, budget, dz_floor=dz_bound, dx_floor=dx_bound),
        c1=c1,
        c2=c2,
        delta1=delta1,
        delta2=delta2,
        dz_bound=dz_bound,
        dx_bound=dx_bound,
    )


def _ceil_fraction(num: int, den: int) -> int:
    return -(-num // den)


def closed_form_bch_params(
    p: int,
    r: int,
    ell: int,
    n: int,
    s: int,
    t: int,
    enforce_conditions: bool = True,
) -> AsymEaqeccParams:
    """Closed-form parameters [[n, n - (l/r)t - 1, ..; (l/r)s + 1]] over p^r.

    Valid when every nonzero coset involved has the full size l/r, which
    the two classical admissibility conditions guarantee: the length must
    satisfy q^floor(l/2r) < n <= p^l - 1, and a_(t+1) must stay below
    n * q^floor(l/2r) / (p^l - 1).  Pass enforce_conditions=False to skip
    those checks; the result is still verified against the constructed
    codes, so an inconsistent tuple cannot be returned.
    """
    if r < 1 or ell % r != 0:
        raise ValueError("need r dividing ell")
    q = p**r
    if (p**ell - 1) % n != 0:
        raise ValueError(f"n={n} must divide p^ell - 1 = {p ** ell - 1}")
    structure = cyclotomic_cosets(n, q)
    _check_coset_indices(structure, s, t)
    a_t1 = structure.reps[t + 1]
    a_s1 = structure.reps[s + 1]
    m = ell // r
    if enforce_conditions:
        half = q ** (ell // (2 * r))
        if not half < n <= p**ell - 1:
            raise ValueError(f"length condition fails: {half} < {n} <= {p ** ell - 1}")
        if not (2 <= a_t1 <= n and a_t1 * (p**ell - 1) <= n * half):
            raise ValueError(
                f"coset condition fails: a={a_t1} exceeds {n}*{half}/{p ** ell - 1}"
            )
        if t != _ceil_fraction((a_t1 - 1) * (q - 1), q):
            raise ValueError("t does not match the predicted coset count")
        if s != _ceil_fraction((a_s1 - 1) * (q - 1), q):
            raise ValueError("s does not match the predicted coset count")
    params = AsymEaqeccParams(
        q=q,
        n=n,
        k=n - m * t - 1,
        dz=WeightReport(value=a_t1 + 1, exact=False, enumerated=0),
        dx=WeightReport(value=a_s1 + 1, exact=False, enumerated=0),
        c=m * s + 1,
        k1=m * t + 1,
        k2=m * s + 1,
    )
    # budget 0 refuses every scan, so the built distances are these floors
    if bch_asym_code(structure, s, t, budget=0).params != params:
        raise RuntimeError(
            "closed form disagrees with the constructed codes; "
            f"some coset size differs from {m}"
        )
    return params
