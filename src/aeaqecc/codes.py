"""Classical linear codes: canonical representation, duals, weights, files.

A code is stored by the reduced row echelon form of its generator matrix,
so two codes are equal exactly when they describe the same row space.
Every intersection comes from LinearCode.intersect, which eliminates
on a pairing matrix no wider than n.  Minimum weights come from an
exhaustive scan of the codeword set.  A relative minimum weight of two
cyclic codes comes from the window search instead (enumeration module
docstring), which certifies the minimum from the cyclic information
windows without a scan; any other pair is scanned.  Both are guarded by
an explicit budget on q^k, and both report q^k - 1 words covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .enumeration import DEFAULT_BUDGET, minimum_weight_scan
from .errors import CodeFormatError, FieldMismatchError
from .fields import FiniteField, field_from_designator
from .linalg import MatrixGF, echelon_basis, mat_mul, mat_vec, null_space, rank, stack


@dataclass(frozen=True)
class WeightReport:
    """Outcome of a minimum-weight computation.

    value is None exactly when the target set was empty.  exact is False
    for reports that only carry an algebraic lower bound; enumerated is
    the number of codewords covered to produce the report, q^k - 1 for a
    scan of k rows.
    """

    value: int | None
    exact: bool
    enumerated: int

    @property
    def is_empty(self) -> bool:
        return self.value is None

    def as_dict(self) -> dict:
        return {"value": self.value, "exact": self.exact, "enumerated": self.enumerated}

    def display(self) -> str:
        if self.value is None:
            return "empty"
        return str(self.value) if self.exact else f">={self.value}"


def _check_pair(a: LinearCode, b: LinearCode) -> None:
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")


class LinearCode:
    """A linear [n, k] code over a finite field, kept in canonical form.

    gen is the reduced generator and pivots its pivot columns, the column
    of each row's leading 1.
    """

    def __init__(self, field: FiniteField, gen: MatrixGF):
        if gen.field != field:
            raise FieldMismatchError(f"{gen.field} generator for {field} code")
        self.field = field
        self.n = gen.cols
        self.gen, self.pivots = echelon_basis(gen)
        self.k = self.gen.rows

    @classmethod
    def from_rows(cls, field: FiniteField, rows: Iterable[Sequence[int]], n: int | None = None) -> "LinearCode":
        rows = [list(r) for r in rows]
        if rows:
            return cls(field, MatrixGF.from_rows(field, rows))
        if n is None:
            raise ValueError("length n required for a code with no rows")
        return cls(field, MatrixGF.zeros(field, 0, n))

    @classmethod
    def zero(cls, field: FiniteField, n: int) -> "LinearCode":
        return cls(field, MatrixGF.zeros(field, 0, n))

    @classmethod
    def full(cls, field: FiniteField, n: int) -> "LinearCode":
        return cls(field, MatrixGF.identity(field, n))

    @cached_property
    def parity_check(self) -> MatrixGF:
        """Generator of the dual code; x is a codeword iff its syndrome is 0.

        Read off the reduced generator and its pivots, with no elimination.
        """
        return null_space(self.gen, self.pivots)

    @cached_property
    def is_cyclic(self) -> bool:
        """Closed under the cyclic shift: H·shift(G)ᵀ = 0, one product."""
        shifted = MatrixGF(self.field, np.roll(self.gen.entries, 1, axis=1))
        return not mat_mul(self.parity_check, shifted.transpose()).entries.any()

    def dual(self) -> "LinearCode":
        """The dual code; its parity check is this code's generator, and it
        is cyclic exactly when this code is."""
        code = LinearCode(self.field, self.parity_check)
        code.parity_check = self.gen
        code.is_cyclic = self.is_cyclic
        return code

    def contains(self, vec: Sequence[int]) -> bool:
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (self.n,):
            raise ValueError(f"expected a length-{self.n} vector")
        if self.k == 0:
            return not v.any()
        if self.k == self.n:
            return True
        return not mat_vec(self.parity_check, v).any()

    def is_subcode_of(self, other: "LinearCode") -> bool:
        if self.field != other.field or self.n != other.n:
            return False
        return rank(stack(other.gen, self.gen)) == other.k

    def intersect(self, other: "LinearCode") -> "LinearCode":
        """The words m·G of other with H·(m·G)ᵀ = 0, H = self.parity_check.

        m spans the right kernel of the pairing H·Gᵀ; for dual(C1) ∩ C2
        that is G1·G2ᵀ, of rank c, so the result has dimension k2 - c.
        """
        _check_pair(self, other)
        pairing = mat_mul(self.parity_check, other.gen.transpose())
        return LinearCode(self.field, mat_mul(null_space(pairing), other.gen))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.gen == other.gen

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.gen))

    def __repr__(self) -> str:
        return f"[{self.n},{self.k}] code over GF({self.field.designator})"


def symplectic_weight(vec: Sequence[int]) -> int:
    """Number of positions i with (a_i, b_i) != (0, 0) for vec = (a | b)."""
    v = np.asarray(vec, dtype=np.int64)
    if v.ndim != 1 or v.size % 2 != 0:
        raise ValueError("symplectic weight needs a flat (a | b) vector of even length")
    half = v.size // 2
    return int((v[:half] | v[half:]).astype(bool).sum())


def min_weight(code: LinearCode, budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Exact minimum Hamming weight by exhaustive enumeration.

    The zero code has no nonzero codeword, reported as the empty marker.
    Raises BudgetExceededError before visiting anything when q^k > budget.
    """
    if code.k == 0:
        return WeightReport(value=None, exact=True, enumerated=0)
    value, visited = minimum_weight_scan(code.gen.entries, code.field, budget=budget)
    if value is None:
        raise RuntimeError("a nonzero code must have a nonzero word")
    return WeightReport(value=value, exact=True, enumerated=visited)


def relative_min_weight(a: LinearCode, b: LinearCode, budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Minimum weight of codewords of a outside the intersection with b.

    This is the minimum over a \\ (a intersect b); the empty marker is
    returned when a is contained in b (decided without enumeration).
    Raises BudgetExceededError when q^k_a > budget.

    When a and b are both cyclic (closed under the cyclic shift, one
    product each), no word is scanned.  a's reduced generator is then
    [I_k | P], the window search walks a's messages of weight t = 1, 2,
    ... one per scalar class, and each candidate lighter than the best so
    far gets one syndrome test against b.  Every shift of a word of
    a \\ b is in a \\ b with the same weight, so after level t an unseen
    one has more than t nonzeros on each of the n cyclic windows of k
    positions, which cover each position k times: it weighs at least
    ceil((t + 1) n / k), and the search stops once the best found is no
    larger (enumeration module docstring).  Any other pair is scanned
    (_scan_relative_min_weight).  Either way the report counts the
    q^k_a - 1 words covered: the search settles each word of a, by a
    visit up to a scalar and a shift or by the bound, as the scan does
    by visiting one word per scalar class.
    """
    _check_pair(a, b)
    if not (a.is_cyclic and b.is_cyclic):
        return _scan_relative_min_weight(a, b, budget)
    # column i is the syndrome of a's row i against b
    syndromes = mat_mul(b.parity_check, a.gen.transpose()).entries
    if not syndromes.any():
        return WeightReport(value=None, exact=True, enumerated=0)
    if a.pivots != tuple(range(a.k)):
        raise RuntimeError("a cyclic code must be systematic on its first k positions")
    value, visited = minimum_weight_scan(
        a.gen.entries, a.field, syndromes=syndromes.T, budget=budget
    )
    if value is None:
        raise RuntimeError("a non-subcode must have a word outside b")
    return WeightReport(value=value, exact=True, enumerated=visited)


def _scan_relative_min_weight(a: LinearCode, b: LinearCode, budget: int) -> WeightReport:
    """relative_min_weight by a scan of every scalar class of a.

    The scan runs over the basis [I; R] of a: I is the reduced basis of
    a.intersect(b), and R the rows of a's reduced generator whose pivot
    columns lead no row of I.  A word of a then lies in b exactly when
    its R digits are all zero, which the scan's skip excludes.
    """
    inter = a.intersect(b)
    s = inter.k
    if s == a.k:
        return WeightReport(value=None, exact=True, enumerated=0)
    shared = np.zeros(a.n, dtype=bool)  # the leading columns of I
    shared[list(inter.pivots)] = True
    rest = a.gen.entries[~shared[list(a.pivots)]]
    value, visited = minimum_weight_scan(
        np.vstack([inter.gen.entries, rest]), a.field, skip=s, budget=budget
    )
    if value is None:
        raise RuntimeError("a non-subcode must have a word outside b")
    return WeightReport(value=value, exact=True, enumerated=visited)


# -- code files ---------------------------------------------------------

def format_code(code: LinearCode) -> str:
    lines = [
        f"field {code.field.designator}",
        f"n {code.n}",
        f"k {code.k}",
    ]
    for i in range(code.k):
        lines.append("row " + " ".join(str(v) for v in code.gen.row(i)))
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> LinearCode:
    """Parse the code file format; raises CodeFormatError with a location."""
    tokens: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            tokens.append((lineno, body.split()))

    def expect_header(index: int, name: str) -> tuple[int, list[str]]:
        if index >= len(tokens):
            raise CodeFormatError(f"missing '{name}' header")
        lineno, parts = tokens[index]
        if parts[0] != name:
            raise CodeFormatError(f"expected '{name}' header, got {parts[0]!r}", lineno)
        if len(parts) != 2:
            raise CodeFormatError(f"'{name}' header needs exactly one value", lineno)
        return lineno, parts

    lineno, parts = expect_header(0, "field")
    try:
        field = field_from_designator(parts[1])
    except ValueError as exc:
        raise CodeFormatError(str(exc), lineno, 2) from None

    def int_header(index: int, name: str) -> int:
        lineno, parts = expect_header(index, name)
        try:
            value = int(parts[1])
        except ValueError:
            raise CodeFormatError(f"'{name}' must be an integer", lineno, 2) from None
        if value < 0:
            raise CodeFormatError(f"'{name}' must be nonnegative", lineno, 2)
        return value

    n = int_header(1, "n")
    k = int_header(2, "k")
    if n < 1:
        raise CodeFormatError("'n' must be positive", tokens[1][0], 2)
    if k > n:
        raise CodeFormatError(f"k={k} exceeds n={n}", tokens[2][0], 2)

    rows = []
    for i in range(k):
        index = 3 + i
        if index >= len(tokens):
            raise CodeFormatError(f"expected {k} 'row' lines, found {i}")
        lineno, parts = tokens[index]
        if parts[0] != "row":
            raise CodeFormatError(f"expected 'row', got {parts[0]!r}", lineno, 1)
        if len(parts) != n + 1:
            raise CodeFormatError(
                f"row needs {n} entries, found {len(parts) - 1}", lineno
            )
        row = []
        for j, tok in enumerate(parts[1:], start=2):
            try:
                v = int(tok)
            except ValueError:
                raise CodeFormatError(f"bad entry {tok!r}", lineno, j) from None
            if not 0 <= v < field.order:
                raise CodeFormatError(
                    f"entry {v} outside GF({field.designator})", lineno, j
                )
            row.append(v)
        rows.append(row)
    if len(tokens) > 3 + k:
        lineno, parts = tokens[3 + k]
        raise CodeFormatError(f"unexpected extra line starting {parts[0]!r}", lineno)

    code = LinearCode.from_rows(field, rows, n=n)
    if code.k != k:
        raise CodeFormatError(
            f"declared k={k} but rows span only {code.k} dimensions"
        )
    return code


def read_code_file(path) -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code(fh.read())


def write_code_file(code: LinearCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_code(code))
