"""Exception taxonomy shared across the package."""


class ContractError(ValueError):
    """An argument violates a documented precondition."""


class ShapeError(ContractError):
    """A tensor has the wrong rank or an incompatible axis; message names the axis."""


class CatalogueError(ContractError):
    """Unknown enum token (activation kind, optimizer kind, preset id, ...)."""


class DivergenceError(FloatingPointError):
    """A gradient or parameter became NaN/Inf.  Carries the parameter index."""

    def __init__(self, param_index: int, detail: str = ""):
        self.param_index = param_index
        msg = f"non-finite value at parameter {param_index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DatasetFormatError(ValueError):
    """A dataset file is unreadable (bad magic, version, truncation, checksum)
    or holds values no generator writes (non-finite, energy not above 0)."""


class WorkerLostError(RuntimeError):
    """A worker process died (killed, out of memory) before it returned a training."""


class DegenerateFitError(ValueError):
    """A fit has no solution on the given data (e.g. all-zero clusters)."""


class ConfigError(ValueError):
    """An experiment config file is missing keys or holds invalid values."""
