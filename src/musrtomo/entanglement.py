"""Entanglement and separability diagnostics in the tomographic picture.

Implements the Bell-like number built from joint projection probabilities at
two settings per spin, its closed-form maximum over settings, the
partial-transpose map at both the density-matrix and tomogram level, the
positivity coefficients M2..M4 of a unit-trace 4x4 Hermitian matrix, the
entanglement measure E = |M3| + |M4| - M3 - M4 evaluated on the partial
transpose, negativity for 2x2 and 2x3 systems, and the tomographic
star-product route to M3/M4.

Bell-number convention: with W[outcome, setting] the 4x4 matrix of joint
probabilities (outcomes ++, +-, -+, -- by row; settings 11, 12, 21, 22 by
column) and S the CHSH sign table below, B = sum(S * W) elementwise. For any
state this equals -(1/2) (a1-a2)^T T (b1-b2) with T the spin correlation
matrix, so |B| <= 2 s_max(T) <= 2 and separable states satisfy |B| <= 2.
This reading is pinned by the free-muonium benchmark max_B(t) = |sin w0 t|;
the alternative contraction Tr[S W] (plain CHSH) fails that benchmark.

Time traces: ``correlation_matrix``, ``entanglement_measure`` and
``negativity`` also take a stack (n, d, d) of states, and
``entanglement_series`` gives every diagnostic of a stack of two-qubit
states at once. Each diagnostic is one array pass over the stack (one
einsum for T, one batched SVD, one batched eigvalsh of the partial
transposes, batched traces of powers); the per-state functions run the same
kernels on one state.
"""

import json
from dataclasses import dataclass

import numpy as np

from .linalg import PAULI, SubsystemDims, partial_transpose, require_density_matrix
from .tomography import Direction
from .twospin import TwoSpinTomogram, individual_tomogram

CHSH_SIGNS = np.array([
    [1, -1, -1, 1],
    [1, -1, -1, 1],
    [1, -1, -1, 1],
    [-1, 1, 1, -1],
], dtype=float)


@dataclass(frozen=True)
class BellSetting:
    """Two measurement directions per spin."""

    n1_mu: Direction
    n2_mu: Direction
    n1_e: Direction
    n2_e: Direction


def bell_cells(rho: np.ndarray, setting: BellSetting) -> np.ndarray:
    """4x4 matrix of joint probabilities; rows (++, +-, -+, --), columns
    (n1n1, n1n2, n2n1, n2n2)."""
    cols = []
    for n_mu in (setting.n1_mu, setting.n2_mu):
        for n_e in (setting.n1_e, setting.n2_e):
            w = individual_tomogram(rho, 0.5, 0.5, n_mu, n_e)
            cols.append(w.reshape(-1))
    return np.array(cols).T


def bell_number(cells: np.ndarray) -> float:
    """Bell-like number from the 16 joint probabilities (see module docstring
    for the contraction convention). Columns must each sum to 1."""
    cells = np.asarray(cells, dtype=float)
    if cells.shape != (4, 4):
        raise ValueError("expected a 4x4 probability table")
    if np.max(np.abs(cells.sum(axis=0) - 1.0)) > 1e-8:
        raise ValueError("each setting column must sum to 1")
    return float(np.sum(CHSH_SIGNS * cells))


def bell_number_of_state(rho: np.ndarray, setting: BellSetting) -> float:
    return bell_number(bell_cells(rho, setting))


# sigma_i x sigma_j for i, j in (x, y, z), shape (3, 3, 4, 4)
_PAULI_PAIRS = np.einsum("iac,jbd->ijabcd", PAULI, PAULI).reshape(3, 3, 4, 4)


def _per_state(values: np.ndarray, rho: np.ndarray):
    """A float for one state, the array for a stack."""
    return float(values) if rho.ndim == 2 else values


def _two_qubit_states(rho: np.ndarray, what: str) -> np.ndarray:
    rho = require_density_matrix(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"{what} requires a two-qubit state")
    return rho


def _correlations(rho: np.ndarray) -> np.ndarray:
    return np.einsum("...ab,ijba->...ij", rho, _PAULI_PAIRS).real


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """Two-qubit spin correlation matrix T_ij = Tr[rho sigma_i x sigma_j];
    (3, 3) for one state, (n, 3, 3) for a stack."""
    return _correlations(_two_qubit_states(rho, "correlation matrix"))


def max_bell(rho: np.ndarray):
    """Maximum of |B| over the four directions, with an exact argmax setting.

    Since |a1 - a2| <= 2 and |b1 - b2| <= 2, |B| <= 2 s_max(T). The bound is
    attained at a1 = -a2 = u and b2 = -b1 = v for the top singular pair (u, v)
    of T (Horodecki et al., Phys. Lett. A 200, 340 (1995)), where B = +2 s_max.
    Returns (max |B|, that setting).
    """
    u, s, vt = np.linalg.svd(correlation_matrix(rho))
    a, b = u[:, 0], vt[0]
    setting = BellSetting(Direction.from_vector(a), Direction.from_vector(-a),
                          Direction.from_vector(-b), Direction.from_vector(b))
    return 2 * float(s[0]), setting


def ppt_tomogram(w: TwoSpinTomogram) -> TwoSpinTomogram:
    """Tomogram of the partial transpose of the underlying state: the muon
    direction is mirrored through n_y -> -n_y, a node permutation on the
    phi-uniform grid."""
    perm = w.grid_mu.ppt_permutation()
    return TwoSpinTomogram(w.j_mu, w.j_e, w.grid_mu, w.grid_e,
                           w.values[:, perm, :, :])


@dataclass(frozen=True)
class PositivityCoefficients:
    """Elementary symmetric polynomials e2, e3, e4 of the spectrum of a
    unit-trace 4x4 Hermitian matrix; all nonnegative iff the matrix is PSD."""

    m2: float
    m3: float
    m4: float


def _power_coefficients(lam: np.ndarray) -> tuple:
    """(M2, M3, M4) of unit-trace Hermitian matrices (..., 4, 4), each an
    array over the leading axes."""
    l2 = lam @ lam
    p2 = np.trace(l2, axis1=-2, axis2=-1).real
    p3 = np.trace(l2 @ lam, axis1=-2, axis2=-1).real
    p4 = np.trace(l2 @ l2, axis1=-2, axis2=-1).real
    return ((1 - p2) / 2,
            (1 - 3 * p2 + 2 * p3) / 6,
            (1 - 6 * p2 + 3 * p2 ** 2 + 8 * p3 - 6 * p4) / 24)


def _measure(m3, m4):
    return abs(m3) + abs(m4) - m3 - m4


def _ppt_negativity(ppt: np.ndarray) -> np.ndarray:
    """Sum of |negative eigenvalues| of each partial transpose of a stack;
    +0.0, not -0.0, for PPT states."""
    w = np.linalg.eigvalsh(ppt)
    return np.where(w < 0, -w, 0.0).sum(axis=-1)


def positivity_coefficients(lam: np.ndarray) -> PositivityCoefficients:
    """M2, M3, M4 from traces of powers:
    M2 = (1 - p2)/2,
    M3 = (1 - 3 p2 + 2 p3)/6,
    M4 = (1 - 6 p2 + 3 p2^2 + 8 p3 - 6 p4)/24,   p_k = Tr[lam^k].
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (4, 4):
        raise ValueError("positivity coefficients are defined for 4x4 matrices")
    if abs(np.trace(lam) - 1.0) > 1e-10:
        raise ValueError("matrix must have unit trace")
    if np.linalg.norm(lam - lam.conj().T) > 1e-10 * max(1.0, np.linalg.norm(lam)):
        raise ValueError("matrix must be Hermitian")
    return PositivityCoefficients(*(float(m) for m in _power_coefficients(lam)))


def entanglement_measure(rho: np.ndarray):
    """E = |M3| + |M4| - M3 - M4 with the coefficients evaluated on the
    partial transpose; zero for separable two-qubit states, positive exactly
    when the partial transpose fails positivity through M3 or M4. A float
    for one state, an (n,) array for a stack (n, 4, 4)."""
    rho = _two_qubit_states(rho, "the measure")
    _, m3, m4 = _power_coefficients(partial_transpose(rho, SubsystemDims(2, 2)))
    return _per_state(_measure(m3, m4), rho)


def negativity(rho: np.ndarray, dims: SubsystemDims):
    """Sum of |negative eigenvalues| of the partial transpose. For 2x2 and
    2x3 splits this vanishes iff the state is separable. A float for one
    state, an (n,) array for a stack (n, d, d)."""
    rho = require_density_matrix(rho)
    if (dims.dim_a, dims.dim_b) not in ((2, 2), (2, 3)):
        raise ValueError("negativity supported for 2x2 and 2x3 splits only")
    dims.check(rho)
    return _per_state(_ppt_negativity(partial_transpose(rho, dims)), rho)


def entanglement_series(rho: np.ndarray, include_max_bell: bool = True) -> dict:
    """Every diagnostic of a stack of two-qubit states (n, 4, 4), each an
    (n,) array, keyed as in ``EntanglementReport.to_json``: E, M2, M3, M4,
    max_bell (NaN unless included) and negativity. The stack is validated
    once and the partial transposes are formed once."""
    rho = _two_qubit_states(rho, "entanglement series")
    ppt = partial_transpose(rho, SubsystemDims(2, 2))
    m2, m3, m4 = _power_coefficients(ppt)
    if include_max_bell:
        bell = 2 * np.linalg.svd(_correlations(rho), compute_uv=False)[..., 0]
    else:
        bell = np.full(rho.shape[:-2], np.nan)
    return {"E": _measure(m3, m4), "M2": m2, "M3": m3, "M4": m4,
            "max_bell": bell, "negativity": _ppt_negativity(ppt)}


# --------------------------------------------------------------------------
# star product

def _kernel_factor(m_out, n_out, m1, n1, m2, n2):
    """Single-spin star kernel factor
    1/4 + 9 m1 m2 (n1.n2) + 3 m m1 (n.n1) + 3 m m2 (n.n2)
        + 18i m m1 m2 (n.[n1 x n2]).
    """
    return (0.25 + 9 * m1 * m2 * np.dot(n1, n2)
            + 3 * m_out * m1 * np.dot(n_out, n1)
            + 3 * m_out * m2 * np.dot(n_out, n2)
            + 18j * m_out * m1 * m2 * np.dot(n_out, np.cross(n1, n2)))


def star_kernel(x_primed, x_doubleprimed, x_out) -> complex:
    """Two-spin star-product kernel: the product of per-spin factors.

    Each argument is (m_mu, n_mu, m_e, n_e) with n given as a Direction or a
    3-vector. Composing two tomographic symbols against this kernel yields
    the symbol of the operator product.
    """
    def unpack(x):
        m_mu, n_mu, m_e, n_e = x
        to_vec = lambda n: n.vector if isinstance(n, Direction) else np.asarray(n, float)
        return m_mu, to_vec(n_mu), m_e, to_vec(n_e)

    mp_mu, np_mu, mp_e, np_e = unpack(x_primed)
    mpp_mu, npp_mu, mpp_e, npp_e = unpack(x_doubleprimed)
    m_mu, n_mu, m_e, n_e = unpack(x_out)
    return complex(_kernel_factor(m_mu, n_mu, mp_mu, np_mu, mpp_mu, npp_mu)
                   * _kernel_factor(m_e, n_e, mp_e, np_e, mpp_e, npp_e))


def _kernel_tensor(j: float, grid, out_dirs) -> np.ndarray:
    """Per-spin kernel K[(m1,i1),(m2,i2),(m_out,o)] including quadrature
    weights on the two integrated slots. j must be 1/2."""
    if j != 0.5:
        raise ValueError("star-product route implemented for spin 1/2 factors")
    ms = np.array([0.5, -0.5])
    vecs = np.array([d.vector for d in grid.nodes()])
    outs = np.array([d.vector if isinstance(d, Direction) else np.asarray(d, float)
                     for d in out_dirs])
    w = grid.weights
    dot12 = vecs @ vecs.T
    dot1o = vecs @ outs.T
    dot2o = vecs @ outs.T
    cross = np.cross(vecs[:, None, :], vecs[None, :, :])  # (i1, i2, 3)
    triple = np.einsum("abk,ok->abo", cross, outs)
    m1 = ms[:, None, None, None, None, None]
    m2 = ms[None, None, :, None, None, None]
    mo = ms[None, None, None, None, :, None]
    k = (0.25
         + 9 * m1 * m2 * dot12[None, :, None, :, None, None]
         + 3 * mo * m1 * dot1o[None, :, None, None, None, :]
         + 3 * mo * m2 * dot2o[None, None, None, :, None, :]
         + 18j * mo * m1 * m2 * triple[None, :, None, :, None, :])
    k = k * w[None, :, None, None, None, None] * w[None, None, None, :, None, None]
    return k  # shape (2, n, 2, n, 2, n_out)


def _star_on_grid(f: np.ndarray, g: np.ndarray, k_mu: np.ndarray,
                  k_e: np.ndarray) -> np.ndarray:
    """Star product of two sampled two-spin symbols, evaluated at the output
    slots baked into the kernel tensors."""
    return np.einsum("aubv,cwdx,aucwey,bvdxfz->eyfz", f, g, k_mu, k_e,
                     optimize=True)


def tomographic_m34(w: TwoSpinTomogram, eval_dirs=None):
    """M3 and M4 of the partial transpose computed entirely from tomogram
    samples via iterated star products:

        M3 = (1/6) sum_m [w - 3 w*w + 2 w*w*w](m, n),
        M4 = (1/24)[3 (sum_m [w*w])^2
                    + sum_m (w - 6 w*w + 8 w*w*w - 6 w*w*w*w)](m, n),

    where w is the tomogram of the partial transpose and the sums over
    projections run at a fixed direction pair, on which the result does not
    depend. Matches the trace route on the reconstructed matrix.
    """
    if (w.j_mu, w.j_e) != (0.5, 0.5):
        raise ValueError("tomographic M3/M4 implemented for two qubits")
    wp = ppt_tomogram(w).values.astype(complex)
    if eval_dirs is None:
        eval_dirs = (Direction(0.0, 0.0), Direction(0.0, 0.0))
    out_mu, out_e = eval_dirs

    k_mu_grid = _kernel_tensor(0.5, w.grid_mu, w.grid_mu.nodes())
    k_e_grid = _kernel_tensor(0.5, w.grid_e, w.grid_e.nodes())
    k_mu_out = _kernel_tensor(0.5, w.grid_mu, [out_mu])
    k_e_out = _kernel_tensor(0.5, w.grid_e, [out_e])

    w2_grid = _star_on_grid(wp, wp, k_mu_grid, k_e_grid)
    w2_out = _star_on_grid(wp, wp, k_mu_out, k_e_out)
    w3_out = _star_on_grid(w2_grid, wp, k_mu_out, k_e_out)
    w4_out = _star_on_grid(w2_grid, w2_grid, k_mu_out, k_e_out)

    def msum(arr):
        return complex(arr.sum())

    s1 = 1.0  # sum_m w = trace of the state
    s2 = msum(w2_out)
    s3 = msum(w3_out)
    s4 = msum(w4_out)
    m3 = (s1 - 3 * s2 + 2 * s3) / 6
    m4 = (3 * s2 ** 2 + s1 - 6 * s2 + 8 * s3 - 6 * s4) / 24
    return float(m3.real), float(m4.real)


@dataclass
class EntanglementReport:
    """Entanglement diagnostics of a two-qubit state at one instant."""

    t: float
    e_measure: float
    m2: float
    m3: float
    m4: float
    max_bell: float
    negativity: float

    @classmethod
    def from_state(cls, rho: np.ndarray, t: float = 0.0,
                   include_max_bell: bool = True) -> "EntanglementReport":
        rho = np.asarray(rho)
        if rho.ndim != 2:
            raise ValueError("expected a 2-d array")
        series = entanglement_series(rho[None], include_max_bell)
        one = {key: float(values[0]) for key, values in series.items()}
        return cls(t=t, e_measure=one["E"], m2=one["M2"], m3=one["M3"], m4=one["M4"],
                   max_bell=one["max_bell"], negativity=one["negativity"])

    def to_json(self) -> str:
        return json.dumps({"t": self.t, "E": self.e_measure, "M2": self.m2,
                           "M3": self.m3, "M4": self.m4, "max_bell": self.max_bell,
                           "negativity": self.negativity})
