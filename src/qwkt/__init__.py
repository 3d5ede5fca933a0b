"""Spectrally resolved two-photon interference toolkit.

Simulates frequency-entangled photon pairs bouncing off layered samples,
realizes the exact discrete Fourier pair between two-photon correlation
functions and joint spectral intensities, and estimates layer delays with
Fisher-information benchmarks against the quantum limit.
"""

from ._version import __version__
from .biphoton import (
    SPEED_OF_LIGHT,
    BiphotonSource,
    DelayProfile,
    bandwidth_nm_to_rads,
    cross_correlation,
    envelope_density,
    envelope_peak_normalized,
    fringe_factor,
    joint_spectral_intensity,
)
from .errors import (
    ConfigurationError,
    EstimationError,
    InputDataError,
    MalformedSpectrumError,
    QuadratureError,
)
from .estimation import (
    FisherReport,
    MleResult,
    PeakReport,
    QfiReport,
    SweepCell,
    SweepResult,
    extract_delays,
    fisher_information,
    mle_fit,
    quantum_fisher_information,
    sweep,
)
from .hom import (
    DetectionModel,
    JointAmplitude,
    OutcomeTable,
    antibunch_amplitude,
    binned_envelope,
    coincidence_probability,
    outcome_probabilities,
    sample_counts,
)
from .io import (
    RunManifest,
    read_manifest,
    read_spectrum,
    sha256_digest,
    write_manifest,
    write_spectrum,
)
from .transform import (
    FrequencyGrid,
    SpectralPattern,
    TemporalCorrelation,
    TemporalGrid,
    default_frequency_grid,
    forward_qwkt,
    inverse_qwkt,
)

__all__ = [
    "__version__",
    "SPEED_OF_LIGHT",
    "BiphotonSource",
    "DelayProfile",
    "bandwidth_nm_to_rads",
    "cross_correlation",
    "envelope_density",
    "envelope_peak_normalized",
    "fringe_factor",
    "joint_spectral_intensity",
    "ConfigurationError",
    "EstimationError",
    "InputDataError",
    "MalformedSpectrumError",
    "QuadratureError",
    "FisherReport",
    "MleResult",
    "PeakReport",
    "QfiReport",
    "SweepCell",
    "SweepResult",
    "extract_delays",
    "fisher_information",
    "mle_fit",
    "quantum_fisher_information",
    "sweep",
    "DetectionModel",
    "JointAmplitude",
    "OutcomeTable",
    "antibunch_amplitude",
    "binned_envelope",
    "coincidence_probability",
    "outcome_probabilities",
    "sample_counts",
    "RunManifest",
    "read_manifest",
    "read_spectrum",
    "sha256_digest",
    "write_manifest",
    "write_spectrum",
    "FrequencyGrid",
    "SpectralPattern",
    "TemporalCorrelation",
    "TemporalGrid",
    "default_frequency_grid",
    "forward_qwkt",
    "inverse_qwkt",
]
