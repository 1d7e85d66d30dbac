"""Exception types shared across the package."""


class FieldMismatchError(ValueError):
    """Operands live in different finite fields."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would visit more codewords than allowed.

    required is the exact count q^k; the message writes it as q^k, since
    in decimal it can run past the digits Python converts to text.
    """

    def __init__(self, q: int, k: int, budget: int):
        super().__init__(
            f"enumeration needs {q}^{k} codeword visits, budget is {budget}"
        )
        self.q, self.k, self.budget = q, k, budget

    @property
    def required(self) -> int:
        return self.q**self.k


class DegeneratePairError(ValueError):
    """A set difference defining a distance is empty."""


class ThresholdEmptyError(ValueError):
    """No distance pair satisfies the existence-threshold conditions."""


class CodeFormatError(ValueError):
    """A code file does not follow the expected format."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", field {column}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.column = column
