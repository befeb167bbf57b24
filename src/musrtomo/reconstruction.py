"""Initial-state reconstruction from reduced-tomogram time series.

Given a known two-spin evolution U(t) and measured muon tomogram values
w(+1/2, n_k, t_l), the initial density matrix is affine in the measured
values: rho0 = I/4 + sum_i x_i G_i over the orthonormal traceless two-qubit
operator basis, and each measurement is 1/2 + (M x)_kl with a design matrix
M. Row (t, k) of M is (1/2) n_k . S_t, where
S_t[a, i] = Tr[G_i U_t^dag (sigma_a x I) U_t] expands the muon spin in the
Heisenberg picture over the basis. Reconstruction is weighted least squares
followed by a projection onto the positive cone.

Identifiability is a property of the (propagator, directions, times) plan
and is computed by SVD of the design matrix. Static muonium-family
Hamiltonians cap the reachable rank below 15: B and the anisotropy axis span
at most a plane, so a frame exists in which H is real, the eigenstate muon
Bloch vectors are coplanar, and at most two of the three conserved
(frequency-zero) muon-visible combinations are independent. The rank test
makes such deficiencies explicit instead of guessing a closed-form criterion.
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import PropagatorSpec
from .linalg import TWO_QUBIT_BASIS, eig_hermitian
from .tomography import X_AXIS, Y_AXIS, Z_AXIS


def coefficients_to_state(x: np.ndarray) -> np.ndarray:
    """rho = I/4 + sum_i x_i G_i."""
    return np.eye(4) / 4 + np.tensordot(x, TWO_QUBIT_BASIS, axes=1)


def golden_jitter_times(span: float, n: int = 5) -> list[float]:
    """n times spread over [0, span] by golden-ratio offsets; pairwise
    incommensurate with any single period, avoiding resonant coincidences."""
    golden = (np.sqrt(5) - 1) / 2
    return [span * (((k + 1) * golden) % 1.0) for k in range(n)]


def default_times(propagator: PropagatorSpec, n: int = 5) -> list[float]:
    """Times spread over one beat period of the two lowest eigenfrequency
    gaps of the propagator, jittered by golden-ratio offsets."""
    gaps = propagator.eigenfrequency_gaps()
    if len(gaps) == 0:
        raise ValueError("propagator has no nonzero eigenfrequency gaps")
    beat = gaps[1] - gaps[0] if len(gaps) > 1 and gaps[1] - gaps[0] >= 1e-12 else gaps[0]
    return golden_jitter_times(2 * np.pi / beat, n)


@dataclass(frozen=True)
class MeasurementPlan:
    """Directions, times and the known two-qubit evolution behind a
    reduced-tomogram measurement campaign; times default to
    ``default_times`` of the propagator."""

    propagator: PropagatorSpec
    directions: tuple = (X_AXIS, Y_AXIS, Z_AXIS)
    times: tuple = ()

    def __post_init__(self):
        if not isinstance(self.propagator, PropagatorSpec):
            raise TypeError("propagator must be a PropagatorSpec, "
                            f"got {type(self.propagator).__name__}")
        dim = self.propagator.hamiltonian.dim
        if dim != 4:
            raise ValueError("reconstruction needs a two-qubit (4x4) propagator, "
                             f"got a {dim}x{dim} Hamiltonian")
        object.__setattr__(self, "directions", tuple(self.directions))
        for d in self.directions:
            if not np.isfinite([d.theta, d.phi]).all():
                raise ValueError(f"direction (theta, phi) = ({d.theta!r}, {d.phi!r}) "
                                 "must be finite")
        times = tuple(float(t) for t in self.times or default_times(self.propagator))
        for t in times:
            if not 0.0 <= t < np.inf:
                raise ValueError(f"time {t!r} must be finite and nonnegative")
        if len(set(times)) != len(times):
            raise ValueError("times must be pairwise distinct")
        object.__setattr__(self, "times", times)


@dataclass
class DesignMatrix:
    """Linear map from the 15 traceless coefficients of rho0 to the
    predicted measurement values (offset 1/2 subtracted). One SVD, taken at
    construction, gives the rank, the condition number and the null space; it
    is the full SVD only below 15 rows, where the null space needs all of Vt."""

    matrix: np.ndarray
    singular_values: np.ndarray = field(init=False)
    _vt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        _, self.singular_values, self._vt = np.linalg.svd(
            self.matrix, full_matrices=len(self.matrix) < 15)

    @property
    def rank(self) -> int:
        sv = self.singular_values
        return int((sv > 1e-10 * sv[0]).sum())

    @property
    def condition_number(self) -> float:
        """Ratio of extreme singular values above the rank threshold."""
        return float(self.singular_values[0] / self.singular_values[self.rank - 1])

    def null_space(self) -> np.ndarray:
        return self._vt[self.rank:]


def build_design_matrix(plan: MeasurementPlan) -> DesignMatrix:
    """Rows indexed by (time-major, direction-minor) measurement order:
    row (t, k) = (1/2) Tr[G_i U_t^dag (n_k . sigma x I) U_t]. The identity
    part of each projector drops out against the traceless G_i. The
    propagator gives the stack of U_t in one call."""
    u = plan.propagator.unitary(np.array(plan.times))
    n = np.array([d.vector for d in plan.directions])
    spin = np.tensordot(n, TWO_QUBIT_BASIS[:3], axes=1)  # (n_k . sigma x I) / 2
    heisenberg = u.conj().swapaxes(-1, -2)[:, None] @ spin @ u[:, None]  # (t, k, 4, 4)
    rows = np.tensordot(heisenberg, TWO_QUBIT_BASIS, axes=([-1, -2], [1, 2])).real
    return DesignMatrix(rows.reshape(-1, 15))


def time_generic_rank(plan: MeasurementPlan) -> int:
    """The largest rank that any choice of times gives the directions of a
    plan: one SVD of its propagator's spectral table contracted with the
    directions, no times involved. A plan rank below it is lost to the
    chosen times, not to the Hamiltonian."""
    traces = plan.propagator.spectral_table.traces(TWO_QUBIT_BASIS)  # (15, 3, p)
    n = np.array([d.vector for d in plan.directions])
    coeffs = np.tensordot(n, traces, axes=([1], [1]))
    return DesignMatrix(coeffs.transpose(0, 2, 1).reshape(-1, 15)).rank


@dataclass
class ReconstructionResult:
    rho0: np.ndarray
    rank: int
    condition_number: float
    residual_norm: float
    clipped: bool
    null_space: np.ndarray


def reconstruct_initial(values, plan: MeasurementPlan, sigmas=None,
                        allow_deficient: bool = False,
                        design: DesignMatrix | None = None) -> ReconstructionResult:
    """Weighted least squares for rho0 from measured reduced-tomogram values.

    Requires a rank-15 plan unless ``allow_deficient`` is set, in which case
    the minimum-norm solution is returned together with the unidentifiable
    directions (the null space). The least-squares estimate is projected onto
    the positive cone by eigenvalue clipping and trace renormalization; the
    ``clipped`` flag reports when that projection moved an eigenvalue by more
    than three propagated standard errors (any clipping at all for noiseless
    input). ``design`` is the plan's ``build_design_matrix``, when the
    caller has built it already.
    """
    values = np.asarray(values, dtype=float)
    if design is None:
        design = build_design_matrix(plan)
    if values.shape != (design.matrix.shape[0],):
        raise ValueError(f"expected {design.matrix.shape[0]} measurement values")
    if not np.isfinite(values).all():
        raise ValueError("measurement values must be finite")
    if design.rank < 15 and not allow_deficient:
        raise ValueError(f"plan is rank deficient (rank {design.rank} < 15); "
                         "pass allow_deficient=True for a minimum-norm solution")
    if sigmas is None:
        weights = np.ones_like(values)
    else:
        sigmas = np.asarray(sigmas, dtype=float)
        if sigmas.shape != values.shape:
            raise ValueError(f"expected {len(values)} sigmas, one per measurement value, "
                             f"got shape {sigmas.shape}")
        if not np.all((sigmas > 0) & (sigmas < np.inf)):  # NaN fails
            raise ValueError("sigmas must be positive and finite")
        weights = 1.0 / sigmas
    a = design.matrix * weights[:, None]
    b = (values - 0.5) * weights
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=1e-10)
    rho_ls = coefficients_to_state(x)
    resid = float(np.linalg.norm(a @ x - b))

    w, v = eig_hermitian((rho_ls + rho_ls.conj().T) / 2)
    clip_scale = _eigenvalue_error_scale(a, sigmas)
    clipped = bool(np.any(w < -max(3 * clip_scale, 1e-12)))
    w_pos = np.clip(w, 0.0, None)
    if w_pos.sum() <= 0:
        raise ValueError("least-squares estimate has no positive part")
    w_pos = w_pos / w_pos.sum()
    rho0 = (v * w_pos) @ v.conj().T
    return ReconstructionResult(rho0=rho0, rank=design.rank,
                                condition_number=design.condition_number,
                                residual_norm=resid, clipped=clipped,
                                null_space=design.null_space())


def _eigenvalue_error_scale(weighted_design: np.ndarray, sigmas) -> float:
    """First-order scale of eigenvalue errors of the estimate: the largest
    per-coefficient standard error propagated through the linear model.
    Zero for noiseless input (sigmas None)."""
    if sigmas is None:
        return 0.0
    gram = weighted_design.T @ weighted_design
    w, _ = np.linalg.eigh(gram)
    w_floor = w[w > 1e-12 * max(w.max(), 1.0)]
    if len(w_floor) == 0:
        return float("inf")
    return float(np.sqrt(1.0 / w_floor.min()) / 2)
