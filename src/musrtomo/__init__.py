"""musrtomo: tomographic-probability toolkit for muon and muon-electron
spin states — tomograms and their inversion, muonium-family spin dynamics,
entanglement diagnostics, a decay-histogram bridge, and initial-state
reconstruction from measurable muon tomograms."""

from .dynamics import (
    DEFAULT_CONSTANTS,
    HamiltonianSpec,
    PhysicalConstants,
    PropagatorSpec,
    analytic_free_mu,
    analytic_free_mu_reduced,
    build_hamiltonian,
    evolve_density,
    evolve_tomogram,
    initial_muonium_state,
)
from .entanglement import (
    BellSetting,
    bell_number,
    bell_number_of_state,
    entanglement_measure,
    entanglement_series,
    max_bell,
    negativity,
    positivity_coefficients,
    ppt_tomogram,
    star_kernel,
    tomographic_m34,
)
from .linalg import (
    SubsystemDims,
    eig_hermitian,
    kron,
    partial_trace,
    partial_transpose,
)
from .materials import Material, available_presets, load_material
from .musr import (
    DecayModel,
    Detector,
    DetectorGeometry,
    HistogramSeries,
    estimate_tomogram,
    gamma_distribution,
    histogram_to_tomogram,
    simulate_events,
)
from .reconstruction import (
    MeasurementPlan,
    build_design_matrix,
    forward_model,
    identifiability,
    reconstruct_initial,
)
from .tomography import (
    Direction,
    QuadratureGrid,
    SpinTomogram,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    clebsch_gordan,
    dual_basis,
    quantizer,
    reconstruct_from_sphere,
    reconstruct_qubit_three_directions,
    rotation_matrix,
    three_j,
    tomogram,
)
from .twospin import (
    TwoSpinBasis,
    TwoSpinTomogram,
    blockdiag_rotation,
    cg_matrix,
    individual_tomogram,
    individual_tomogram_unitary,
    reconstruct_blockdiag,
    reconstruct_two_spin,
    reduced_tomogram,
    total_from_individual,
    total_pdf,
    total_pdf_on_grid,
    total_tomogram,
)

__version__ = "0.1.0"
