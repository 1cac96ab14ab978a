"""Simulator and analysis toolkit for a cavity-mediated two-photon
polarization-entanglement experiment: parameterized noisy state generation,
Monte-Carlo polarization detection, CHSH analysis, nine-basis state
tomography, entanglement measures, and lifetime fitting."""

__version__ = "0.1.0"

from .bell import (
    BellResult,
    CorrelationEstimate,
    analytic_chsh,
    analytic_correlation,
    chsh_from_counts,
    correlation_from_counts,
    max_chsh_from_state,
)
from .detection import (
    CountRecord,
    DetectorParams,
    MeasurementSetting,
    TomographyDataset,
    analyzer_projectors,
    outcome_probabilities,
    simulate_counts,
    simulate_tomography_dataset,
)
from .lifetime import LifetimeFit, fit_lifetime
from .measures import (
    EntanglementReport,
    concurrence,
    entanglement_of_formation,
    fidelity_singlet,
    log_negativity,
    report,
)
from .protocol import (
    EfficiencyParams,
    NoiseParams,
    RateReport,
    apply_storage_noise,
    atom_photon_state,
    final_state,
    map_to_photon_pair,
    noise_for_fidelity_dephasing,
    noise_for_fidelity_werner,
    pumping_channel,
    rate_budget,
)
from .qcore import (
    DensityMatrix,
    partial_trace,
    partial_transpose,
    tensor,
    trace_distance,
    validate_density,
)
from .tomography import (
    BootstrapErrors,
    ReconstructionResult,
    bootstrap_errors,
    exact_table,
    linear_inversion,
    mle_reconstruct,
    mle_reconstruct_batch,
)
