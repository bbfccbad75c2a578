"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, DataError and
FormatError -> 3, NumericError and DivergenceError -> 4.
"""

from contextlib import contextmanager


class OncokitError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(OncokitError):
    """Array extents do not satisfy an operation's requirements."""


class ContractError(OncokitError):
    """A documented precondition was violated by the caller."""


class NumericError(OncokitError):
    """Non-finite values or numerically invalid inputs."""


class DivergenceError(NumericError):
    """An iterative fit left the trust region (e.g. separated data)."""


class FormatError(OncokitError):
    """A file does not conform to its on-disk format."""


class DataError(OncokitError):
    """Input data is structurally invalid (missing files, bad rows)."""


class ConfigError(OncokitError):
    """An experiment or CLI configuration is invalid."""


class EvaluationError(OncokitError):
    """A metric is undefined for the given inputs."""


@contextmanager
def malformed(what: str):
    """Report a missing field, or a value of the wrong type or shape, met
    while decoding ``what`` (a parsed JSON object) as a DataError."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{what}: missing field {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise DataError(f"{what}: {exc}") from exc
