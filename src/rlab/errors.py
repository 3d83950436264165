"""Exception taxonomy shared across the package, and the type checks that raise one."""

from itertools import chain


class ContractError(ValueError):
    """An argument violates a documented precondition."""


class ShapeError(ContractError):
    """A tensor has the wrong rank or an incompatible axis; message names the axis."""


class CatalogueError(ContractError):
    """Unknown enum token (activation kind, optimizer kind, preset id, ...)."""


class DivergenceError(FloatingPointError):
    """A gradient became NaN/Inf; the message names its parameter."""


class DatasetFormatError(ValueError):
    """A dataset file is unreadable (bad magic, version, truncation, checksum)
    or holds values no generator writes (non-finite, energy not above 0)."""


class WorkerLostError(RuntimeError):
    """A worker process died (killed, out of memory) before it returned a training."""


class DegenerateFitError(ValueError):
    """A fit has no solution on the given data (e.g. all-zero clusters)."""


class ConfigError(ValueError):
    """An experiment config file is missing keys or holds invalid values."""


def _require_types(allowed: set, what: str, values: dict) -> None:
    if not set(map(type, values.values())) <= allowed:     # one pass in C: a grid builds thousands
        for name, value in values.items():
            items = value if type(value) is tuple else (value,)
            if items and type(items[0]) is tuple:       # conv and pool layers: pairs
                items = tuple(chain.from_iterable(items))
            if not set(map(type, items)) <= allowed:
                raise ContractError(f"{name} takes {what} only, got {value!r}")


def require_counts(**values) -> None:
    """Raise ContractError unless each value is an int, or a tuple of ints or
    of int tuples; a bool or an integral float is not a count."""
    _require_types({int}, "integers", values)


def require_seeds(**values) -> None:
    """require_counts, and each value at least 0: a seed's words are unsigned."""
    require_counts(**values)
    for name, value in values.items():
        if value < 0:
            raise ContractError(f"{name} must be a non-negative integer, got {value!r}")


def require_reals(**values) -> None:
    """The same for numbers: an int or a float, not a bool or a numeric string."""
    _require_types({int, float}, "numbers", values)


def require_strings(**values) -> None:
    """The same for names and paths: a str, not a number or a list."""
    _require_types({str}, "strings", values)
