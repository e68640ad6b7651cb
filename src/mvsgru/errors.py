"""Exception types shared across the package.

Everything raised on purpose derives from MvsError so the CLI can map
validation problems to exit code 1 and genuine runtime failures to 2.
"""


class MvsError(Exception):
    """Base class for all errors this package raises deliberately."""


class ShapeError(MvsError):
    """An array has the wrong rank, extent, or axis for the requested op."""


class ContractError(MvsError):
    """A call violated a documented precondition (not a shape problem)."""


class ConfigError(MvsError):
    """Invalid configuration value, camera setup, or CLI argument."""


class FileFormatError(MvsError):
    """Malformed on-disk artifact. Carries the path and byte offset."""

    def __init__(self, path, offset, message):
        super().__init__(f"{path}: byte {offset}: {message}")
        self.path = str(path)
        self.offset = int(offset)


class SceneGenerationError(MvsError):
    """A synthetic scene spec produced a degenerate scene."""


class NumericalError(MvsError):
    """A computation went numerically bad: a runtime failure, not bad input."""


class TrainStepError(NumericalError):
    """A training step went numerically bad (NaN gradient or loss)."""


class EmptySampleError(MvsError):
    """A training sample has no valid ground-truth pixels and was skipped."""
