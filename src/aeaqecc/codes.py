"""Classical linear codes: canonical representation, duals, weights, files.

A code is stored by the reduced row echelon form of its generator matrix,
so two codes are equal exactly when they describe the same row space.
A minimum weight is the relative minimum weight against the zero code.  A
relative minimum weight of a and b starts from one product, the
syndromes S = H_b·G_aᵀ of a's rows against b: S = 0 says a lies in b.
For two cyclic codes the window search then certifies the minimum from
the cyclic information windows without a scan (enumeration module
docstring); any other pair is scanned, with a ∩ b read off the kernel
of S.  Both are guarded by an explicit budget on q^k, and both report
q^k - 1 words covered.
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

    def pairing_rank(self, other: "LinearCode") -> int:
        """rank(G·G_otherᵀ) for a code of the same field and length."""
        return rank(mat_mul(self.gen, other.gen.transpose()))

    def mirrors(self, other: "LinearCode") -> bool:
        """other is this code or this code read backwards, for a code of
        the same field, length and dimension: H·reversed(G_other)ᵀ = 0."""
        if self == other:
            return True
        reversed_other = MatrixGF(other.field, other.gen.entries[:, ::-1])
        return not mat_mul(self.parity_check, reversed_other.transpose()).entries.any()

    def is_subcode_of(self, other: "LinearCode") -> bool:
        if self.field != other.field or self.n != other.n:
            return False
        return rank(stack(other.gen, self.gen)) == other.k

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.gen == other.gen

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.gen))

    def __repr__(self) -> str:
        return f"[{self.n},{self.k}] code over GF({self.field.designator})"


def min_weight(code: LinearCode, budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Exact minimum Hamming weight, as the relative minimum weight
    against the zero code: its parity check is I_n, so S = Gᵀ, and a
    cyclic code takes the window search, any other code the scan.

    The zero code has no nonzero codeword, reported as the empty marker.
    Raises BudgetExceededError before visiting anything when q^k > budget.
    """
    return relative_min_weight(code, LinearCode.zero(code.field, code.n), budget)


def relative_min_weight(a: LinearCode, b: LinearCode, budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Minimum weight of codewords of a outside the intersection with b.

    This is the minimum over a \\ (a intersect b); the empty marker is
    returned when a is contained in b, decided by S = H_b·G_aᵀ = 0 before
    any budget check or enumeration.  Raises BudgetExceededError when
    q^k_a > budget.

    When a and b are both cyclic (closed under the cyclic shift, one
    product each), no word is scanned.  a's reduced generator is then
    [I_k | P], the window search walks a's messages of weight t = 1, 2,
    ... one per scalar class, and each candidate lighter than the best so
    far gets one syndrome test against b.  Every shift of a word of
    a \\ b is in a \\ b with the same weight, so after level t an unseen
    one has more than t nonzeros on each of the n cyclic windows of k
    positions, which cover each position k times: it weighs at least
    ceil((t + 1) n / k), and the search stops once the best found is no
    larger (enumeration module docstring).  Any other pair is scanned,
    with a ∩ b read off the kernel of S (_scan_relative_min_weight).
    Either way the report counts the q^k_a - 1 words covered: the search
    settles each word of a, by a visit up to a scalar and a shift or by
    the bound, as the scan does by visiting one word per scalar class.
    """
    _check_pair(a, b)
    # column i is the syndrome of a's row i against b
    syndromes = mat_mul(b.parity_check, a.gen.transpose())
    if not syndromes.entries.any():
        return WeightReport(value=None, exact=True, enumerated=0)
    if not (a.is_cyclic and b.is_cyclic):
        value, visited = _scan_relative_min_weight(a, syndromes, budget)
    elif a.pivots != tuple(range(a.k)):
        raise RuntimeError("a cyclic code must be systematic on its first k positions")
    else:
        value, visited = minimum_weight_scan(
            a.gen.entries, a.field, syndromes=syndromes.entries.T, budget=budget
        )
    if value is None:
        raise RuntimeError("a non-subcode must have a word outside b")
    return WeightReport(value=value, exact=True, enumerated=visited)


def _scan_relative_min_weight(
    a: LinearCode, syndromes: MatrixGF, budget: int
) -> tuple[int | None, int]:
    """(minimum, words covered) of a \\ b, by a scan of every scalar
    class of a.

    syndromes is the nonzero S = H_b·G_aᵀ of relative_min_weight.  A
    message m gives a word m·G_a of b exactly when S·mᵀ = 0, so
    null_space(S)·G_a spans a ∩ b.  The scan runs over the basis [I; R]
    of a: I is the reduced basis of a ∩ b, and R the rows of a's reduced
    generator whose pivot columns lead no row of I.  A word of a then
    lies in b exactly when its R digits are all zero, which the scan's
    skip excludes.
    """
    inter = LinearCode(a.field, mat_mul(null_space(syndromes), a.gen))
    shared = np.zeros(a.n, dtype=bool)  # the leading columns of I
    shared[list(inter.pivots)] = True
    rest = a.gen.entries[~shared[list(a.pivots)]]
    return minimum_weight_scan(
        np.vstack([inter.gen.entries, rest]), a.field, skip=inter.k, budget=budget
    )


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
