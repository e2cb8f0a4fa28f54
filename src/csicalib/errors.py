"""Exception hierarchy shared across the toolkit."""


class CsiCalibError(Exception):
    """Base class for all toolkit errors; exit_code is the CLI's exit status."""

    exit_code = 3


# --- trace parsing -----------------------------------------------------------

class TruncatedRecord(CsiCalibError):
    """A framed record claims more bytes than remain in the input."""
    exit_code = 2


class LengthMismatch(CsiCalibError):
    """Declared CSI payload length disagrees with the computed length."""
    exit_code = 2


class InvariantViolation(CsiCalibError):
    """A record field is out of range or inconsistent."""
    exit_code = 2


class SchemaError(CsiCalibError):
    """A text-trace line is malformed; carries the 1-based line number."""
    exit_code = 2

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# --- calibration / phase -----------------------------------------------------

class AbsentPort(CsiCalibError):
    """A port pair names a port beyond a record's n_rx (differential_series)."""


class InsufficientData(CsiCalibError):
    """Not enough samples for the requested statistic."""


class MixedLayout(CsiCalibError):
    """Records of one capture carry different numbers of receive ports."""


# --- simulation / control ----------------------------------------------------

class ConfigError(CsiCalibError):
    """Simulation or CLI configuration is invalid."""
    exit_code = 4


class InsufficientPorts(CsiCalibError):
    """Control loop needs at least two ports with loss estimates."""
