"""Exception and warning types shared across the package.

Error messages use 1-based process numbering to match configuration files and
reports; structured attributes keep the raw values they were raised with.

Every error derives from exactly one of three categories, and the command
line exits with its category's code: ``UsageError`` (2) for a configuration,
argument or model parameter that is invalid, ``DataError`` (3) for input data
that are malformed, empty or too short, and ``DegenerateEstimate`` (4) for
data that admit no estimate a later step needs.
"""

from __future__ import annotations


class OpriskError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(OpriskError):
    """A configuration, argument or model parameter is invalid (exit 2)."""


class DataError(OpriskError):
    """Input data are malformed, empty or too short (exit 3)."""


class DegenerateEstimate(OpriskError):
    """The data admit no estimate that a later step needs (exit 4)."""


class DimensionMismatch(UsageError):
    """A vector or matrix has the wrong shape for the declared process count."""

    def __init__(self, field: str, expected, got) -> None:
        self.field = field
        self.expected = expected
        self.got = got
        super().__init__(f"{field}: expected shape {expected}, got {got}")


class NonPositiveLambda(UsageError):
    """A noise rate is zero, negative, or not a number."""

    def __init__(self, index: int, value: float) -> None:
        self.index = index
        self.value = value
        super().__init__(f"lambda[{index + 1}] = {value!r} must be finite and > 0")


class NegativeHorizon(UsageError):
    """A memory horizon is negative or not an integer."""

    def __init__(self, row: int, col: int, value) -> None:
        self.row = row
        self.col = col
        self.value = value
        super().__init__(
            f"horizons[{row + 1}][{col + 1}] = {value!r} must be an integer >= 0"
        )


class ZeroHorizonWithCoupling(UsageError):
    """A nonzero coupling has a zero horizon and could never fire."""

    def __init__(self, row: int, col: int, coupling: float) -> None:
        self.row = row
        self.col = col
        self.coupling = coupling
        super().__init__(
            f"couplings[{row + 1}][{col + 1}] = {coupling} requires "
            f"horizons[{row + 1}][{col + 1}] >= 1"
        )


class NonFiniteParameter(UsageError):
    """A model parameter is NaN or infinite."""

    def __init__(self, field: str, index) -> None:
        self.field = field
        self.index = index
        super().__init__(f"{field}{list(index)} is not finite")


class HorizonExceedsHistory(UsageError):
    """A trigger count was requested over more steps than the history holds."""

    def __init__(self, horizon: int, depth: int) -> None:
        self.horizon = horizon
        self.depth = depth
        super().__init__(f"horizon {horizon} exceeds history depth {depth}")


class DatabaseTooShort(DataError):
    """The loss database does not cover one full memory window plus one step."""

    def __init__(self, n_steps: int, required: int) -> None:
        self.n_steps = n_steps
        self.required = required
        super().__init__(
            f"database has {n_steps} steps but at least {required} are required"
        )


class MissingTheta(DegenerateEstimate):
    """A coupling inversion needs a threshold estimate that is unavailable."""

    def __init__(self, index: int) -> None:
        self.index = index
        super().__init__(
            f"theta estimate for process {index + 1} is unavailable but required"
        )


class EstimationDegenerate(DegenerateEstimate):
    """Estimates required downstream are unavailable (degenerate data)."""

    def __init__(self, indices) -> None:
        self.indices = list(indices)
        pretty = ", ".join(str(i + 1) for i in self.indices)
        super().__init__(f"no usable theta estimate for process(es): {pretty}")


class InvalidProbability(UsageError):
    """A probability argument is outside the open interval (0, 1)."""


class NonNegativeTheta(UsageError):
    """A threshold argument must be strictly negative."""


class InvalidQuantile(UsageError):
    """A quantile argument must be finite and strictly positive."""


class InvalidOrder(UsageError):
    """A quantile/percentile order must lie in the open interval (0, 1)."""


class EmptySample(DataError):
    """A sample vector is empty."""


class ZeroTrueValue(UsageError):
    """A relative error was requested against a true value of zero."""


class UnknownProcess(DataError):
    """A loss record names a process id outside [1, N]."""

    def __init__(self, process_id, n: int) -> None:
        self.process_id = process_id
        self.n = n
        super().__init__(f"process id {process_id!r} outside [1, {n}]")


class NonPositiveAmount(DataError):
    """A loss record carries a zero, negative, or non-finite amount."""

    def __init__(self, amount, context: str = "") -> None:
        self.amount = amount
        where = f" ({context})" if context else ""
        super().__init__(f"loss amount {amount!r} must be finite and > 0{where}")


class EmptyDatabase(DataError):
    """No loss records were supplied."""


class MalformedRecord(DataError):
    """A loss-database line could not be parsed."""

    def __init__(self, line_no: int, reason: str) -> None:
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class TimestampSpanOverflow(DataError):
    """Two loss timestamps lie too far apart to count the steps between them."""


class ConfigError(UsageError):
    """A configuration document is missing or violates the schema."""

    def __init__(self, key: str, reason: str) -> None:
        self.key = key
        self.reason = reason
        super().__init__(f"config key '{key}': {reason}")


class DegeneracyWarning(UserWarning):
    """Emitted when counters admit no finite estimate (ratio 0 or 1, or no data)."""
