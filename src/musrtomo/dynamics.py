"""Spin Hamiltonians of the muonium family and their unitary propagators.

One Hamiltonian, A (J_mu.J_e) - g_mu mu_mu (B.J_mu) + g_e mu_e (B.J_e)
+ dA (N.J_mu)(N.J_e), covers free muonium (B = 0, dA = 0), muonium in a field
and anomalous muonium (dA != 0): its parameters say which system it is.

Units: time in ns, angular frequencies in rad/ns, magnetic field in Gauss.
Hamiltonians are handled as H/hbar in rad/ns throughout; material constants
quoted in MHz are converted on ingestion with an explicit flag saying whether
the number is an angular frequency (rad-based) or a linear frequency (cycles,
multiplied by 2 pi).

Closed-form propagators are tabulated for: the pure coupling (j_e in
{1/2, 1}); B along z, x or y without anisotropy; N along z, x or y with B
zero or along z (j_e = 1/2 for all but the pure coupling). Everything else
goes through the numeric eigensolve path, against which every closed form is
cross-checked in the test suite.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import require_density_matrix
from .tomography import AXES, Direction, QuadratureGrid, angular_momentum_ops
from .twospin import TwoSpinTomogram, individual_tomogram_on_grid


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 values; moments in J/T, hbar in J s."""

    hbar: float = 1.054571817e-34
    bohr_magneton: float = 9.2740100783e-24
    proton_magneton: float = 1.41060679736e-26
    g_mu: float = 2.0
    g_e: float = 2.0023193
    muon_moment_ratio: float = 3.18334  # mu_mu / mu_p

    @property
    def mu_mu(self) -> float:
        return self.muon_moment_ratio * self.proton_magneton

    @property
    def gamma_mu(self) -> float:
        """g_mu mu_mu / hbar in rad/ns per Gauss."""
        return self.g_mu * self.mu_mu / self.hbar * 1e-13

    @property
    def gamma_e(self) -> float:
        """g_e mu_e / hbar in rad/ns per Gauss."""
        return self.g_e * self.bohr_magneton / self.hbar * 1e-13

    def critical_field(self, a_rad_ns: float) -> float:
        """Field (Gauss) where B (g_e mu_e - g_mu mu_mu) equals the coupling."""
        return a_rad_ns / (self.gamma_e - self.gamma_mu)


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class HamiltonianSpec:
    """Parameters of a muonium-family spin Hamiltonian.

    ``a`` and ``delta_a`` are angular frequencies (rad/ns), i.e. couplings
    divided by hbar. ``b_field`` is the magnitude in Gauss along ``b_axis``,
    and the anisotropy axis ``aniso_axis`` is N; each axis is read only where
    its term is present (``b_field``, respectively ``delta_a``, nonzero).
    """

    a: float
    delta_a: float = 0.0
    b_field: float = 0.0
    b_axis: Direction | None = None
    aniso_axis: Direction | None = None
    j_e: float = 0.5

    def __post_init__(self):
        for name in ("a", "delta_a", "b_field"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (2 * self.j_e >= 1 and float(2 * self.j_e).is_integer()):  # NaN fails too
            raise ValueError(f"j_e must be a positive multiple of 1/2, got {self.j_e!r}")
        if self.delta_a != 0.0 and self.aniso_axis is None:
            raise ValueError("nonzero anisotropy requires an anisotropy axis")
        if self.b_field != 0.0 and self.b_axis is None:
            raise ValueError("nonzero field requires a field axis")

    @classmethod
    def hyperfine(cls, omega0: float, j_e: float = 0.5) -> "HamiltonianSpec":
        return cls(a=omega0, j_e=j_e)

    @property
    def dim(self) -> int:
        return 2 * int(round(2 * self.j_e + 1))


@functools.cache
def _spin_operators(j_e: float) -> tuple:
    """(J_mu, J_e, J_mu x I, I x J_e) of a muon and an electron shell of spin
    j_e, each a read-only stack over x, y, z; the products are in the
    muon-major product basis. Built once per j_e."""
    j_mu, j_el = np.array(angular_momentum_ops(0.5)), np.array(angular_momentum_ops(j_e))
    ops = (j_mu, j_el, np.kron(j_mu, np.eye(len(j_el[0]))), np.kron(np.eye(2), j_el))
    for op in ops:
        op.flags.writeable = False
    return ops


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """H/hbar in rad/ns, in the muon-major product basis (projections
    descending). Zeeman signs: muon enters with -gamma_mu, electron +gamma_e."""
    j_mu, j_e, mu, el = _spin_operators(spec.j_e)
    h = spec.a * sum(mu @ el)
    if spec.b_field != 0.0:
        b_vec = (spec.b_axis.vector * spec.b_field)[:, None, None]
        h = h - DEFAULT_CONSTANTS.gamma_mu * sum(b_vec * mu) \
            + DEFAULT_CONSTANTS.gamma_e * sum(b_vec * el)
    if spec.delta_a != 0.0:
        n_vec = spec.aniso_axis.vector[:, None, None]
        n_mu, n_e = sum(n_vec * j_mu), sum(n_vec * j_e)
        # (N.J_mu) x (N.J_e) from the same elementwise products as np.kron
        h = h + spec.delta_a * (n_mu[:, None, :, None] * n_e[None, :, None, :]).reshape(h.shape)
    return h


# --------------------------------------------------------------------------
# closed forms

def _axis_name(direction: Direction) -> str:
    """'x', 'y' or 'z' for a coordinate axis, 'oblique' for any other."""
    return next((name for name, ref in AXES.items()
                 if np.linalg.norm(direction.vector - ref.vector) < 1e-12), "oblique")


@dataclass(frozen=True)
class DerivedScalars:
    """Shorthand frequencies entering the closed-form propagators (rad/ns)."""

    a: float
    b_plus: float
    b_minus: float
    c: float
    d: float
    f: float
    h: float

    @classmethod
    def from_spec(cls, spec: HamiltonianSpec) -> "DerivedScalars":
        a_h, da_h, b = spec.a, spec.delta_a, spec.b_field
        gm, ge = DEFAULT_CONSTANTS.gamma_mu, DEFAULT_CONSTANTS.gamma_e
        return cls(
            a=a_h / 4,
            b_plus=b * (gm + ge) / 2,
            b_minus=b * (gm - ge) / 2,
            c=np.sqrt(a_h ** 2 + b ** 2 * (gm + ge) ** 2) / 2,
            d=da_h / 4,
            f=np.sqrt(da_h ** 2 + 4 * b ** 2 * (gm - ge) ** 2) / 4,
            h=np.sqrt((a_h + da_h / 2) ** 2 + b ** 2 * (gm + ge) ** 2) / 2,
        )


def _sin_ratio(num: float, freq: float, t):
    """num * sin(freq t) / freq, finite in the freq -> 0 limit."""
    return num * t * np.sinc(freq * t / np.pi)


# Every closed form takes a time t, or an array of times, and returns U(t)
# with shape t.shape + (d, d): the entries are elementwise in t.

def _phase(x) -> np.ndarray:
    """e^{i x} shaped to scale a stack of matrices."""
    return np.exp(1j * x)[..., None, None]


def propagator_hyperfine(omega0: float, t) -> np.ndarray:
    """4x4 propagator of the pure coupling: triplet phase e^{-i w0 t/4},
    singlet e^{+3i w0 t/4}, written in the product basis."""
    t = np.asarray(t, dtype=float)
    e = np.exp(1j * omega0 * t)
    u = np.zeros(t.shape + (4, 4), dtype=complex)
    u[..., 0, 0] = u[..., 3, 3] = 2
    u[..., 1, 1] = u[..., 2, 2] = 1 + e
    u[..., 1, 2] = u[..., 2, 1] = 1 - e
    return 0.5 * _phase(-omega0 * t / 4) * u


def propagator_mu_transverse_x(s: DerivedScalars, t) -> np.ndarray:
    """Isotropic Hamiltonian, B along x. Symmetric, six distinct entries;
    the signs of the (1,2)/(1,3) pair are fixed by the Zeeman sign convention
    of ``build_hamiltonian`` (flipping both corresponds to B along -x)."""
    t = np.asarray(t, dtype=float)
    em = np.exp(-1j * s.a * t)
    ep = np.exp(1j * s.a * t)
    cb, sb = np.cos(s.b_minus * t), np.sin(s.b_minus * t)
    cc = np.cos(s.c * t)
    asc = _sin_ratio(2 * s.a, s.c, t)
    bsc = _sin_ratio(s.b_plus, s.c, t)
    u11 = 0.5 * (em * cb + ep * (cc - 1j * asc))
    u22 = 0.5 * (em * cb + ep * (cc + 1j * asc))
    u12 = 0.5j * (em * sb - bsc * ep)
    u13 = 0.5j * (em * sb + bsc * ep)
    u14 = 0.5 * (em * cb - ep * (cc - 1j * asc))
    u23 = 0.5 * (em * cb - ep * (cc + 1j * asc))
    u = np.empty(t.shape + (4, 4), dtype=complex)
    u[..., 0, 0] = u[..., 3, 3] = u11
    u[..., 1, 1] = u[..., 2, 2] = u22
    u[..., 0, 1] = u[..., 1, 0] = u[..., 2, 3] = u[..., 3, 2] = u12
    u[..., 0, 2] = u[..., 2, 0] = u[..., 1, 3] = u[..., 3, 1] = u13
    u[..., 0, 3] = u[..., 3, 0] = u14
    u[..., 1, 2] = u[..., 2, 1] = u23
    return u


def propagator_mu_transverse_y(s: DerivedScalars, t) -> np.ndarray:
    """Isotropic Hamiltonian, B along y: phase pattern D U_x D^dag with
    D = diag(1, i, i, -1), i.e. the x-field propagator rotated about z."""
    ux = propagator_mu_transverse_x(s, t)
    d = np.array([1.0, 1j, 1j, -1.0])
    return (d[:, None] * ux) * d.conj()[None, :]


def propagator_mustar_zz(s: DerivedScalars, t) -> np.ndarray:
    """Anisotropic Hamiltonian, N and B both along z; at dA = 0 (d = 0) the
    isotropic Hamiltonian with B along z."""
    t = np.asarray(t, dtype=float)
    ct = np.cos(s.c * t)
    ad = s.a + s.d
    u = np.zeros(t.shape + (4, 4), dtype=complex)
    u[..., 0, 0] = np.exp(-1j * (2 * ad - s.b_minus) * t)
    u[..., 1, 1] = ct + 1j * _sin_ratio(s.b_plus, s.c, t)
    u[..., 2, 2] = ct - 1j * _sin_ratio(s.b_plus, s.c, t)
    u[..., 1, 2] = u[..., 2, 1] = -1j * _sin_ratio(2 * s.a, s.c, t)
    u[..., 3, 3] = np.exp(-1j * (2 * ad + s.b_minus) * t)
    return _phase(ad * t) * u


def propagator_mustar_xz(s: DerivedScalars, t) -> np.ndarray:
    """Anisotropic Hamiltonian, N along x, B along z. The (4,4) entry is the
    complex conjugate pattern of (1,1); writing them equal breaks unitarity."""
    t = np.asarray(t, dtype=float)
    em = np.exp(-1j * s.a * t)
    ep = np.exp(1j * s.a * t)
    cf, ch = np.cos(s.f * t), np.cos(s.h * t)
    u = np.zeros(t.shape + (4, 4), dtype=complex)
    u[..., 0, 0] = em * (cf + 1j * _sin_ratio(s.b_minus, s.f, t))
    u[..., 3, 3] = em * (cf - 1j * _sin_ratio(s.b_minus, s.f, t))
    u[..., 0, 3] = u[..., 3, 0] = -1j * em * _sin_ratio(s.d, s.f, t)
    u[..., 1, 1] = ep * (ch + 1j * _sin_ratio(s.b_plus, s.h, t))
    u[..., 2, 2] = ep * (ch - 1j * _sin_ratio(s.b_plus, s.h, t))
    u[..., 1, 2] = u[..., 2, 1] = -1j * ep * _sin_ratio(2 * s.a + s.d, s.h, t)
    return u


def propagator_mustar_yz(s: DerivedScalars, t) -> np.ndarray:
    """Anisotropic Hamiltonian, N along y, B along z: equals the xz matrix
    with the (1,4)/(4,1) entries sign-flipped."""
    u = propagator_mustar_xz(s, t)
    u[..., 0, 3] = -u[..., 0, 3]
    u[..., 3, 0] = -u[..., 3, 0]
    return u


def propagator_hyperfine_spin1(a: float, t) -> np.ndarray:
    """Pure coupling with an effective electron spin 1; 6x6 in the
    muon-major product basis (up,1),(up,0),(up,-1),(down,1),(down,0),(down,-1)."""
    t = np.asarray(t, dtype=float)
    v1 = np.exp(-1j * a * t / 2)
    arg = 3 * a * t / 4
    ph = np.exp(1j * a * t / 4)
    v2 = -1j * ph * (2 * np.sqrt(2) / 3) * np.sin(arg)
    vp = ph * (np.cos(arg) + 1j / 3 * np.sin(arg))
    vm = ph * (np.cos(arg) - 1j / 3 * np.sin(arg))
    u = np.zeros(t.shape + (6, 6), dtype=complex)
    u[..., 0, 0] = u[..., 5, 5] = v1
    u[..., 1, 1] = vm
    u[..., 1, 3] = u[..., 3, 1] = v2
    u[..., 2, 2] = vp
    u[..., 2, 4] = u[..., 4, 2] = v2
    u[..., 3, 3] = vp
    u[..., 4, 4] = vm
    return u


class OrientationNotTabulated(ValueError):
    """The requested field/axis orientation has no tabulated closed form."""


# (j_e, B axis, N axis) -> closed form; an axis is None where its term is
# absent, so (j_e, None, None) is the pure coupling (B = 0 and dA = 0)
_CLOSED_FORMS = {
    (0.5, None, None): propagator_hyperfine,
    (1.0, None, None): propagator_hyperfine_spin1,
    (0.5, "z", None): propagator_mustar_zz,
    (0.5, "x", None): propagator_mu_transverse_x,
    (0.5, "y", None): propagator_mu_transverse_y,
    (0.5, None, "z"): propagator_mustar_zz,
    (0.5, "z", "z"): propagator_mustar_zz,
    (0.5, None, "x"): propagator_mustar_xz,
    (0.5, "z", "x"): propagator_mustar_xz,
    (0.5, None, "y"): propagator_mustar_yz,
    (0.5, "z", "y"): propagator_mustar_yz,
}


def closed_form(spec: HamiltonianSpec) -> functools.partial:
    """t -> U(t) by the tabulated closed form of the spec, or raise
    OrientationNotTabulated: the form bound to the coupling ``spec.a`` for
    the pure coupling, to the spec's ``DerivedScalars`` for the others."""
    key = (spec.j_e, _axis_name(spec.b_axis) if spec.b_field != 0.0 else None,
           _axis_name(spec.aniso_axis) if spec.delta_a != 0.0 else None)
    if key not in _CLOSED_FORMS:
        raise OrientationNotTabulated(f"no closed form for j_e={spec.j_e} with "
                                      f"B axis {key[1]} and anisotropy axis {key[2]}")
    pure = key[1:] == (None, None)
    return functools.partial(_CLOSED_FORMS[key],
                             spec.a if pure else DerivedScalars.from_spec(spec))


@dataclass
class PropagatorSpec:
    """Hamiltonian behind the callable ``unitary(t)``.

    ``unitary`` transcribes the tabulated closed form of the orientation
    (``closed_form_unitary``) and falls back to the Hermitian eigensolve
    (``numeric_unitary``) where none is tabulated. Each takes a time, giving
    U(t) of shape (d, d), or a 1-d array of n times, giving the stack
    (n, d, d) in one array pass.
    """

    hamiltonian: HamiltonianSpec

    def matrix(self) -> np.ndarray:
        return build_hamiltonian(self.hamiltonian)

    @functools.cached_property
    def _eigensystem(self) -> tuple:
        return np.linalg.eigh(self.matrix())

    def unitary(self, t) -> np.ndarray:
        try:
            return self.closed_form_unitary(t)
        except OrientationNotTabulated:
            return self.numeric_unitary(t)

    def numeric_unitary(self, t) -> np.ndarray:
        w, v = self._eigensystem
        phases = np.exp(-1j * np.multiply.outer(t, w))
        return (v * phases[..., None, :]) @ v.conj().T

    def closed_form_unitary(self, t) -> np.ndarray:
        return closed_form(self.hamiltonian)(t)

    @functools.cached_property
    def spectral_table(self) -> "MuonSpinTable":
        """The muon spin in the Heisenberg picture, built once per propagator."""
        return MuonSpinTable.from_eigensystem(*self._eigensystem)

    def eigenfrequency_gaps(self) -> np.ndarray:
        """Distinct positive gaps of H/hbar (rad/ns), ascending; none for one level."""
        return self.spectral_table.gaps


def _require_dimension(rho0: np.ndarray, dim: int, what: str) -> None:
    if rho0.shape[-1] != dim:
        raise ValueError(f"initial state dimension {rho0.shape[-1]} does not match "
                         f"the {what} dimension {dim}")


def evolve_density(rho0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U rho0 U^dag; trace, Hermiticity and spectrum preserved.

    ``u`` is one unitary (d, d) or a stack (n, d, d), giving the stack of
    evolved states; each matrix of the stack must be unitary.
    """
    rho0 = require_density_matrix(rho0)
    if rho0.ndim != 2:
        raise ValueError("the initial state must be one density matrix")
    u = np.asarray(u, dtype=complex)
    _require_dimension(rho0, u.shape[-1], "evolution operator")
    u_dag = u.conj().swapaxes(-1, -2)
    defects = np.linalg.norm(u @ u_dag - np.eye(u.shape[-1]), axis=(-2, -1))
    if np.any(defects > 1e-10 * u.shape[-1]):
        raise ValueError("evolution operator is not unitary")
    return u @ rho0 @ u_dag


def initial_muonium_state(j_e: float = 0.5) -> np.ndarray:
    """Fully polarized muon (spin up along z) times a maximally mixed
    electron shell: the standard state right after muonium formation."""
    d_e = int(round(2 * j_e + 1))
    return np.kron(np.diag([1.0, 0.0]), np.eye(d_e) / d_e)


def evolve_tomogram(rho0: np.ndarray, unitary_of_t, times,
                    j_mu: float = 0.5, j_e: float = 0.5,
                    grid_mu: QuadratureGrid | None = None,
                    grid_e: QuadratureGrid | None = None) -> list[TwoSpinTomogram]:
    """Individual two-spin tomogram along a time grid: the state is evolved
    by conjugation, rho(t) = U(t) rho0 U(t)^dag, and sampled on the grids.

    ``unitary_of_t`` is called once, with the 1-d array of ``times``, and
    must return the stack (n_times, d, d), as ``PropagatorSpec.unitary`` does.
    """
    times = np.asarray(times, dtype=float)
    if len(times) == 0:
        return []
    grid_mu = grid_mu if grid_mu is not None else QuadratureGrid.for_spin(j_mu)
    grid_e = grid_e if grid_e is not None else QuadratureGrid.for_spin(j_e)
    rho_t = evolve_density(rho0, unitary_of_t(times))
    values = individual_tomogram_on_grid(rho_t, j_mu, j_e, grid_mu, grid_e)
    return [TwoSpinTomogram(j_mu, j_e, grid_mu, grid_e, v) for v in values]


def analytic_free_mu(m_mu: float, n_mu: Direction, m_e: float, n_e: Direction,
                     t: float, omega0: float) -> float:
    """Closed-form individual tomogram of the freshly formed muonium under the
    pure coupling: (1/4)[1 + m_mu nz_mu + m_e nz_e
    + (m_mu nz_mu - m_e nz_e) cos w0 t + 2 m_mu m_e (n_mu x n_e)_z sin w0 t].
    """
    v_mu, v_e = n_mu.vector, n_e.vector
    cross_z = v_mu[0] * v_e[1] - v_mu[1] * v_e[0]
    return 0.25 * (1 + m_mu * v_mu[2] + m_e * v_e[2]
                   + (m_mu * v_mu[2] - m_e * v_e[2]) * np.cos(omega0 * t)
                   + 2 * m_mu * m_e * cross_z * np.sin(omega0 * t))


def analytic_free_mu_reduced(m_mu: float, n_mu: Direction, t: float,
                             omega0: float) -> float:
    """Muon marginal of analytic_free_mu:
    (1/2)[1 + m_mu nz_mu (1 + cos w0 t)]."""
    return 0.5 * (1 + m_mu * n_mu.vector[2] * (1 + np.cos(omega0 * t)))


# times (or bins) per evaluation slice of a spectral table: its trig rows stay in cache
_SLICE_TIMES = 8192


@dataclass(frozen=True, eq=False)  # array fields: identity, not value, equality
class MuonSpinTable:
    """The muon spin in the Heisenberg picture, sigma_a(t) = U(t)^dag
    (sigma_a x I) U(t) = sum_p C[a, p] phi_p(t) over the functions
    phi = (1, cos g_1 t, ..., cos g_G t, sin g_1 t, ..., sin g_G t) of the
    distinct positive level gaps ``gaps`` (rad/ns, ascending): its eigenbasis
    entries are S_a[k, l] e^{i (w_k - w_l) t}. ``coefficients`` holds the
    Hermitian C[a, p], shape (3, 1 + 2G, d, d); both arrays are read-only.
    Tr[X sigma_a(t)] is ``at_times`` of ``traces(X)``, and its decay-weighted
    bin integrals are ``over_bins`` of the same."""

    gaps: np.ndarray
    coefficients: np.ndarray

    @classmethod
    def from_eigensystem(cls, w: np.ndarray, v: np.ndarray) -> "MuonSpinTable":
        """From the eigenvalues and eigenvectors of H/hbar; level gaps closer
        than 1e-12 max|w| are one, and those that close to zero are constant."""
        diff = w[:, None] - w
        values = np.sort(np.abs(diff), axis=None)
        firsts = values[np.concatenate([[True], np.diff(values) > 1e-12 * np.abs(w).max()])]
        label = np.searchsorted(firsts, np.abs(diff), side="right") - 1
        # the eigenbasis entries (k, l) of each basis function: the pairs of its
        # gap for the cos rows, times i sign(w_k - w_l) for the sin rows
        masks = label == np.arange(len(firsts))[:, None, None]
        masks = np.concatenate([masks, 1j * np.sign(diff) * masks[1:]])
        mu = _spin_operators((len(w) // 2 - 1) / 2)[2]  # J_mu x I
        spin = v.conj().T @ (2 * mu) @ v  # sigma x I = 2 (J_mu x I) in every entry
        table = cls(firsts[1:], v @ (spin[:, None] * masks) @ v.conj().T)
        table.gaps.flags.writeable = table.coefficients.flags.writeable = False
        return table

    def traces(self, ops: np.ndarray) -> np.ndarray:
        """Tr[X C[a, p]] of an operator X (d, d), shape (3, 1 + 2G), or of each
        of a stack (..., d, d), shape (..., 3, 1 + 2G); real for Hermitian X."""
        return np.tensordot(ops, self.coefficients, axes=([-1, -2], [2, 3])).real

    def at_times(self, coeffs: np.ndarray, times) -> np.ndarray:
        """sum_p coeffs[m, p] phi_p(t) at each time, shape (n, m), in fixed
        slices of times, so the trig rows stay cache-sized."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((len(times), len(coeffs)))
        for at in range(0, len(times), _SLICE_TIMES):
            phase = np.multiply.outer(times[at:at + _SLICE_TIMES], self.gaps)
            basis = np.hstack([np.ones((len(phase), 1)), np.cos(phase), np.sin(phase)])
            np.matmul(basis, coeffs.T, out=out[at:at + len(phase)])
        return out

    def over_bins(self, coeffs: np.ndarray, edges, lifetime_ns: float) -> np.ndarray:
        """sum_p coeffs[m, p] int_b e^{-t/tau}/tau phi_p(t) dt over each bin b of
        the ascending ``edges``, shape (n_bins, m), in closed form: the cos and
        sin terms of a gap g are the real and imaginary parts of
        e^{z t0} (e^{z dt} - 1) / (z tau), z = i g - 1/tau, the bracket taken
        without cancellation once per distinct bin width (uniform edges repeat
        a few). Bins run in fixed slices, so the temporaries stay cache-sized."""
        edges = np.asarray(edges, dtype=float)
        rate, gaps = 1.0 / lifetime_ns, self.gaps
        out = np.empty((len(edges) - 1, len(coeffs)))
        for at in range(0, len(out), _SLICE_TIMES):
            part = edges[at:at + _SLICE_TIMES + 1]
            start = part[:-1, None]
            width, of_bin = np.unique(np.diff(part), return_inverse=True)
            decay, turn = -rate * width[:, None], gaps * width[:, None]
            step = (np.expm1(decay) * np.cos(turn) - 2 * np.sin(turn / 2) ** 2
                    + 1j * np.exp(decay) * np.sin(turn)) / ((1j * gaps - rate) * lifetime_ns)
            pairs = np.exp(-rate * start) * np.exp(1j * gaps * start) * step[of_bin]
            mass = np.exp(-rate * start) * -np.expm1(decay[of_bin])
            np.matmul(np.hstack([mass, pairs.real, pairs.imag]), coeffs.T,
                      out=out[at:at + len(start)])
        return out


def muon_polarization_function(rho0: np.ndarray, prop: PropagatorSpec):
    """Vectorized t -> muon Bloch vectors P(t) of the evolved reduced state,
    shape (n, 3): P_a(t) = Tr[rho0 sigma_a(t)] from the propagator's
    ``spectral_table``. The callable carries ``decay_integrals(edges,
    lifetime_ns)``, the decay-weighted integrals of P over time bins in closed
    form, shape (n_bins, 3) (see ``musr.decay_bin_integrals``)."""
    rho0 = require_density_matrix(rho0)
    _require_dimension(rho0, prop.hamiltonian.dim, "propagator")
    amps = prop.spectral_table.traces(rho0)
    polarization = functools.partial(prop.spectral_table.at_times, amps)
    # an attribute, which functools.wraps copies onto any wrapper
    polarization.decay_integrals = functools.partial(prop.spectral_table.over_bins, amps)
    return polarization
