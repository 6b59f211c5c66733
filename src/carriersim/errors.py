"""Exception hierarchy shared across the package."""


class SimulatorError(Exception):
    """Base class for all carriersim errors."""


class ConfigError(SimulatorError):
    """Network configuration violates an invariant."""


class BadReferenceError(ConfigError):
    """A pairing/mobility/threshold entry references an unknown cell."""


class MissingColumnError(SimulatorError):
    """A dataset file lacks a required column."""


class MalformedRowError(SimulatorError):
    """A dataset row violates a record invariant."""

    def __init__(self, path, row_index, message):
        super().__init__(f"{path}, row {row_index}: {message}")
        self.path = str(path)
        self.row_index = row_index
        self.message = message

    def __reduce__(self):  # pickle rebuilds through __init__'s arguments
        return type(self), (self.path, self.row_index, self.message)


class NoSamplesError(SimulatorError):
    """No KPI samples available for a (cell, hour) pair."""

    def __init__(self, cell, hour):
        super().__init__(f"no samples for cell {cell!r} at hour {hour}")
        self.cell = cell
        self.hour = hour

    def __reduce__(self):
        return type(self), (self.cell, self.hour)


class EmptyCandidateSetError(SimulatorError):
    """Agent selection was invoked with no candidate cells."""


class InconsistentReplayError(SimulatorError):
    """Restoring a cell from the replay log would drive a host negative."""


class NonPositiveSigmaError(SimulatorError):
    """Gaussian likelihood evaluated with sigma <= 0."""


class UnknownRadioTypeError(SimulatorError):
    """Radio type not present in the trained feature schema."""


class TooManyCarriersError(SimulatorError):
    """Radio unit carries more cells than the schema supports."""


class EmptyTrainingSetError(SimulatorError):
    """Model training invoked without samples."""


class ZeroActiveTimeError(SimulatorError):
    """Mean rate requested for a record with zero active transmit time."""


class EmptyCountersError(SimulatorError):
    """Percentile rate requested from all-zero rate bin counters."""


class UnknownCellError(SimulatorError):
    """Rate prediction requested for a cell absent from the model."""


class InvalidSpecError(SimulatorError):
    """Scenario specification is unusable."""


class LengthMismatchError(SimulatorError):
    """Paired series have different lengths."""


class EmptySeriesError(SimulatorError):
    """Metric requested over an empty series."""


class KeyMismatchError(SimulatorError):
    """Estimator and ground-truth tables do not cover the same keys."""


class UnsupportedVersionError(SimulatorError, ValueError):
    """A saved model file has a format version this code cannot read."""


class CorruptModelError(SimulatorError, ValueError):
    """A saved model file is damaged: unreadable, or its arrays inconsistent."""
