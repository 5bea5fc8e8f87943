"""Exception types shared across the package, and the input work limit."""

# Upper limit of every count and degree flag of the CLI and of every
# exponent in an input document, so no input can ask for unbounded work;
# far above what the acceptance and benchmark runs use.
FLAG_LIMIT = 10_000


class DomainError(ValueError):
    """Input data violates an invariant of the operation it was passed to."""


class SchemaError(ValueError):
    """A JSON document does not match the expected schema.

    ``field`` names the offending key so callers can point at it.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class SingularSystemError(DomainError):
    """A square linear system is singular over the rational function field."""


class DegreeDetectionError(DomainError):
    """No fiber degree within the allowed bound fits a trace sequence.

    ``outcomes[d - 1]`` says why each tried degree d = 1, 2, ... was
    rejected: None when the d x d Hankel system is singular, otherwise a
    window k at which the depth-d recurrence provably fails.
    """

    def __init__(self, outcomes: tuple[int | None, ...]):
        reasons = ", ".join(
            f"d={d} singular" if k is None else f"d={d} fails at window {k}"
            for d, k in enumerate(outcomes, start=1))
        super().__init__(
            "no fiber degree is consistent with the traces: "
            + (reasons or "too few traces to try any degree"))
        self.outcomes = outcomes


class ContinuationError(DomainError):
    """A sampled trace series admits no rational match within the degree bounds.

    ``index`` is the position of the offending trace in its batch.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index
