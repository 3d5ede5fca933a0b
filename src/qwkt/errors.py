"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, unreadable or schema-violating input data with 3, and estimation
or Fisher series failures with 4.
"""


class ConfigurationError(ValueError):
    """Invalid parameter combination or mismatched grid pairing."""


class InputDataError(Exception):
    """Input data missing, malformed, or outside the supported range."""


class EstimationError(Exception):
    """An estimation stage could not produce a usable result."""


class MalformedSpectrumError(EstimationError):
    """Spectrum lacks the structure the estimator relies on."""


class QuadratureError(EstimationError):
    """The Fisher information series did not meet its stop test within its term cap."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(f"{message} (value={value!r}, error_estimate={error_estimate!r})")
        self.value = value
        self.error_estimate = error_estimate
