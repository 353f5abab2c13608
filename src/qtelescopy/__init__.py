"""Few-mode photonic simulation and phase-estimation toolkit for
long-baseline stellar interferometry with entangled ancillas.

The package is organized around a truncated-Fock-space state engine
(``state_engine``: dense registers, and cutoff-1 registers held on their
support), lifted linear-optics and photon-number controlled gates
(``gates``), stellar source models (``sources``), executable measurement
protocols (``protocols``), classical/quantum Fisher information
(``fisher``), Monte-Carlo estimation (``estimation``), closed-form
reference tables used by the validation suite (``analytic``), and a batch
CLI (``cli``).
"""

from .errors import (
    ConfigError,
    CutoffError,
    EstimationError,
    FisherDivergenceError,
    GBoundaryError,
    InvalidSubspaceError,
    KernelSupportError,
    LeakageError,
    NumericalInvariantError,
    QTelescopyError,
    QubitRegisterError,
)
from .estimation import (
    DEFAULT_SCHEDULE,
    CrbReport,
    EstimateReport,
    ExperimentPlan,
    crb_report,
    mle_phase,
    run_experiment,
    wrap_phase,
)
from .fisher import (
    FisherMatrix,
    OutcomeModel,
    classical_fisher,
    qfi_matrix,
    saturability_check,
    sld,
    sld_commutation_trace,
)
from .gates import (
    MeasurementBasis,
    beam_splitter,
    cnot_fock,
    cz_fock,
    measure_in_basis,
    measurement_distribution,
    not_fock,
    parity_basis,
    phase_shift,
    project,
    rotated_basis,
    two_mode_unitary,
    x_basis,
    z_fock,
)
from .protocols import (
    BellRegister,
    DetectionRecord,
    Herald,
    MemoryResources,
    MemoryRunResult,
    ProtocolConfig,
    Variant,
    bell_register,
    bin_digits,
    classify_herald,
    cnot_distribution,
    decode_time_bin,
    direct_distribution,
    encode_time_bin_modified,
    gottesman_distribution,
    linear_bound_search,
    memory_resources,
    pairs_for_bins,
    run_direct_window,
    run_memory_modified,
    run_memory_unmodified,
    sample_cnot_windows,
)
from .sources import (
    NO_PHOTON,
    StellarSource,
    conditional_g_derivative,
    conditional_phi_derivative,
    sample_arrival,
    single_photon_conditional,
)
from .state_engine import (
    ModeUnitary,
    QubitRegister,
    StateVector,
    apply_unitary,
    basis_index,
    basis_label,
    basis_labels,
    fock,
    number_measurement_distribution,
    space_dim,
    tensor_at,
)

__version__ = "0.1.0"
