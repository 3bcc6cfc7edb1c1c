"""Exception types raised across the library."""


class SemidanseError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(SemidanseError, ValueError):
    """Operands have incompatible or invalid shapes."""


class NumericError(SemidanseError, ValueError):
    """Non-finite values or a numerically invalid matrix (e.g. not PSD)."""


class SingularityError(SemidanseError, ValueError):
    """A matrix that must be inverted is singular (or a dynamics guard hit)."""


class DivergenceError(SemidanseError, RuntimeError):
    """A simulated trajectory left the admissible region.

    Carries the raw step index at which divergence was detected.
    """

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


class CalibrationError(SemidanseError, ValueError):
    """A noise-calibration routine received degenerate inputs."""


class ArtifactMismatchError(SemidanseError, ValueError):
    """A stored artifact was made under settings other than the ones requested."""


class ChecksumError(SemidanseError, IOError):
    """A container file failed its CRC check."""


class FormatVersionError(SemidanseError, IOError):
    """A container file was written by a newer format version."""


class TrainingError(SemidanseError, RuntimeError):
    """Training aborted (e.g. non-finite loss); carries diagnostics."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
