"""Exception hierarchy shared across the toolkit, and its file-safety helpers.

The CLI maps these onto exit codes: ConfigError -> 2, DataError,
FormatError and EvaluationError -> 3, NumericError and DivergenceError -> 4.
"""

import os
from contextlib import contextmanager
from pathlib import Path


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


def write_atomic(path, data: bytes) -> None:
    """Write through a temp file renamed over ``path``: a reader sees the old
    file or the whole new one, and a failed write leaves ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
