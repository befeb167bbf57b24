"""Spin Hamiltonians of the muonium family and their unitary propagators.

Families
--------
- hyperfine:   H = hbar w0 (J_mu . J_e), the free (vacuum) coupling;
- isotropic:   adds Zeeman terms  - g_mu mu_mu (B . J_mu) + g_e mu_e (B . J_e);
- anisotropic: adds an axially anisotropic exchange dA (N.J_mu)(N.J_e).

Units: time in ns, angular frequencies in rad/ns, magnetic field in Gauss.
Hamiltonians are handled as H/hbar in rad/ns throughout; material constants
quoted in MHz are converted on ingestion with an explicit flag saying whether
the number is an angular frequency (rad-based) or a linear frequency (cycles,
multiplied by 2 pi).

Closed-form propagators are tabulated for the orientations: hyperfine (any
j_e in {1/2, 1}); isotropic with B along z, x or y; anisotropic with
(N, B) in {(z,z), (x,z), (y,z)}. Everything else goes through the numeric
eigensolve path, against which every closed form is cross-checked in the
test suite.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import PAULI, kron, require_density_matrix
from .tomography import AXES, Direction, QuadratureGrid, angular_momentum_ops
from .twospin import TwoSpinTomogram


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


class HamiltonianFamily(enum.Enum):
    HYPERFINE = "hyperfine"
    ISOTROPIC = "isotropic"
    ANISOTROPIC = "anisotropic"


@dataclass(frozen=True)
class HamiltonianSpec:
    """Parameters of a muonium-family spin Hamiltonian.

    ``a`` and ``delta_a`` are angular frequencies (rad/ns), i.e. couplings
    divided by hbar. ``b_field`` is the magnitude in Gauss along ``b_axis``.
    """

    family: HamiltonianFamily
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
        if self.family is HamiltonianFamily.ANISOTROPIC and self.aniso_axis is None:
            raise ValueError("anisotropic family requires an anisotropy axis")
        if self.b_field != 0.0 and self.b_axis is None:
            raise ValueError("nonzero field requires a field axis")
        if self.family is HamiltonianFamily.HYPERFINE and self.b_field != 0.0:
            raise ValueError("hyperfine family has no Zeeman term; use isotropic")

    @classmethod
    def hyperfine(cls, omega0: float, j_e: float = 0.5) -> "HamiltonianSpec":
        return cls(HamiltonianFamily.HYPERFINE, a=omega0, j_e=j_e)

    @property
    def omega0(self) -> float:
        return self.a

    @property
    def dim(self) -> int:
        return 2 * int(round(2 * self.j_e + 1))


def build_hamiltonian(spec: HamiltonianSpec,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS) -> np.ndarray:
    """H/hbar in rad/ns, in the muon-major product basis (projections
    descending). Zeeman signs: muon enters with -gamma_mu, electron +gamma_e."""
    j_mu_ops = angular_momentum_ops(0.5)
    j_e_ops = angular_momentum_ops(spec.j_e)
    d_e = j_e_ops[0].shape[0]
    eye_mu, eye_e = np.eye(2), np.eye(d_e)
    h = spec.a * sum(kron(jm, je) for jm, je in zip(j_mu_ops, j_e_ops))
    if spec.b_field != 0.0:
        b_vec = spec.b_axis.vector * spec.b_field
        h = h - constants.gamma_mu * sum(b_vec[i] * kron(j_mu_ops[i], eye_e)
                                         for i in range(3))
        h = h + constants.gamma_e * sum(b_vec[i] * kron(eye_mu, j_e_ops[i])
                                        for i in range(3))
    if spec.family is HamiltonianFamily.ANISOTROPIC and spec.delta_a != 0.0:
        n_vec = spec.aniso_axis.vector
        op_mu = sum(n_vec[i] * j_mu_ops[i] for i in range(3))
        op_e = sum(n_vec[i] * j_e_ops[i] for i in range(3))
        h = h + spec.delta_a * kron(op_mu, op_e)
    return h


# --------------------------------------------------------------------------
# closed forms

def _axis_name(direction: Direction | None) -> str | None:
    if direction is None:
        return None
    v = direction.vector
    for name, ref in AXES.items():
        if np.linalg.norm(v - ref.vector) < 1e-12:
            return name
    return None


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
    def from_spec(cls, spec: HamiltonianSpec,
                  constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "DerivedScalars":
        a_h, da_h, b = spec.a, spec.delta_a, spec.b_field
        gm, ge = constants.gamma_mu, constants.gamma_e
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


def propagator_mu_longitudinal(s: DerivedScalars, t) -> np.ndarray:
    """Isotropic Hamiltonian, B along z."""
    t = np.asarray(t, dtype=float)
    ct = np.cos(s.c * t)
    u = np.zeros(t.shape + (4, 4), dtype=complex)
    u[..., 0, 0] = np.exp(-1j * (2 * s.a - s.b_minus) * t)
    u[..., 1, 1] = ct + 1j * _sin_ratio(s.b_plus, s.c, t)
    u[..., 2, 2] = ct - 1j * _sin_ratio(s.b_plus, s.c, t)
    u[..., 1, 2] = u[..., 2, 1] = -1j * _sin_ratio(2 * s.a, s.c, t)
    u[..., 3, 3] = np.exp(-1j * (2 * s.a + s.b_minus) * t)
    return _phase(s.a * t) * u


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
    """Anisotropic Hamiltonian, N and B both along z."""
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


def closed_form_variant(spec: HamiltonianSpec) -> str:
    """Name of the applicable closed form, or raise OrientationNotTabulated."""
    b_name = _axis_name(spec.b_axis) if spec.b_field != 0.0 else None
    n_name = _axis_name(spec.aniso_axis)
    if spec.family is HamiltonianFamily.HYPERFINE or \
            (spec.family is HamiltonianFamily.ISOTROPIC and spec.b_field == 0.0):
        if spec.j_e == 0.5:
            return "hf"
        if spec.j_e == 1.0:
            return "hf_spin1"
        raise OrientationNotTabulated(f"no closed form for j_e={spec.j_e}")
    if spec.j_e != 0.5:
        raise OrientationNotTabulated("field closed forms cover j_e=1/2 only")
    if spec.family is HamiltonianFamily.ISOTROPIC:
        if b_name in ("x", "y", "z"):
            return f"mu_{b_name}"
        raise OrientationNotTabulated("isotropic closed forms need B along x, y or z")
    if spec.family is HamiltonianFamily.ANISOTROPIC:
        if spec.delta_a == 0.0:
            if spec.b_field == 0.0:
                return "hf"
            if b_name in ("x", "y", "z"):
                return f"mu_{b_name}"
        if (n_name, b_name) == ("z", "z") or (n_name == "z" and spec.b_field == 0.0):
            return "mustar_zz"
        if (n_name, b_name) == ("x", "z") or (n_name == "x" and spec.b_field == 0.0):
            return "mustar_xz"
        if (n_name, b_name) == ("y", "z") or (n_name == "y" and spec.b_field == 0.0):
            return "mustar_yz"
        raise OrientationNotTabulated("anisotropic closed forms need N in {x,y,z}, B along z")
    raise OrientationNotTabulated(f"unknown family {spec.family}")


@dataclass
class PropagatorSpec:
    """Hamiltonian and constants behind the callable ``unitary(t)``.

    ``unitary`` transcribes the tabulated closed form of the orientation
    (``closed_form_unitary``) and falls back to the Hermitian eigensolve
    (``numeric_unitary``) where none is tabulated. Each takes a time, giving
    U(t) of shape (d, d), or a 1-d array of n times, giving the stack
    (n, d, d) in one array pass.
    """

    hamiltonian: HamiltonianSpec
    constants: PhysicalConstants = DEFAULT_CONSTANTS
    _eig: tuple = field(default=None, repr=False, compare=False)

    @property
    def scalars(self) -> DerivedScalars:
        return DerivedScalars.from_spec(self.hamiltonian, self.constants)

    def matrix(self) -> np.ndarray:
        return build_hamiltonian(self.hamiltonian, self.constants)

    def _eigensystem(self):
        if self._eig is None:
            w, v = np.linalg.eigh(self.matrix())
            self._eig = (w, v)
        return self._eig

    def unitary(self, t) -> np.ndarray:
        try:
            return self.closed_form_unitary(t)
        except OrientationNotTabulated:
            return self.numeric_unitary(t)

    def numeric_unitary(self, t) -> np.ndarray:
        w, v = self._eigensystem()
        phases = np.exp(-1j * np.multiply.outer(t, w))
        return (v * phases[..., None, :]) @ v.conj().T

    def closed_form_unitary(self, t) -> np.ndarray:
        variant = closed_form_variant(self.hamiltonian)
        if variant == "hf":
            return propagator_hyperfine(self.hamiltonian.a, t)
        if variant == "hf_spin1":
            return propagator_hyperfine_spin1(self.hamiltonian.a, t)
        return _FIELD_FORMS[variant](self.scalars, t)

    def eigenfrequency_gaps(self) -> np.ndarray:
        """Distinct positive gaps of H/hbar (rad/ns), ascending."""
        return _frequency_gaps(self._eigensystem()[0])[0][1:]


_FIELD_FORMS = {
    "mu_z": propagator_mu_longitudinal,
    "mu_x": propagator_mu_transverse_x,
    "mu_y": propagator_mu_transverse_y,
    "mustar_zz": propagator_mustar_zz,
    "mustar_xz": propagator_mustar_xz,
    "mustar_yz": propagator_mustar_yz,
}


def evolve_density(rho0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U rho0 U^dag; trace, Hermiticity and spectrum preserved.

    ``u`` is one unitary (d, d) or a stack (n, d, d), giving the stack of
    evolved states; each matrix of the stack must be unitary.
    """
    rho0 = require_density_matrix(rho0)
    if rho0.ndim != 2:
        raise ValueError("the initial state must be one density matrix")
    u = np.asarray(u, dtype=complex)
    u_dag = u.conj().swapaxes(-1, -2)
    defects = np.linalg.norm(u @ u_dag - np.eye(u.shape[-1]), axis=(-2, -1))
    if np.any(defects > 1e-10 * u.shape[-1]):
        raise ValueError("evolution operator is not unitary")
    return u @ rho0 @ u_dag


def initial_muonium_state(j_e: float = 0.5) -> np.ndarray:
    """Fully polarized muon (spin up along z) times a maximally mixed
    electron shell: the standard state right after muonium formation."""
    d_e = int(round(2 * j_e + 1))
    up = np.zeros((2, 2))
    up[0, 0] = 1.0
    return kron(up, np.eye(d_e) / d_e)


def evolve_tomogram(rho0: np.ndarray, unitary_of_t, times,
                    j_mu: float = 0.5, j_e: float = 0.5,
                    grid_mu: QuadratureGrid | None = None,
                    grid_e: QuadratureGrid | None = None) -> list[TwoSpinTomogram]:
    """Individual two-spin tomogram along a time grid: the state is evolved
    by conjugation, rho(t) = U(t) rho0 U(t)^dag, and sampled on the grids."""
    grid_mu = grid_mu if grid_mu is not None else QuadratureGrid.for_spin(j_mu)
    grid_e = grid_e if grid_e is not None else QuadratureGrid.for_spin(j_e)
    return [TwoSpinTomogram.from_state(evolve_density(rho0, unitary_of_t(t)),
                                       j_mu, j_e, grid_mu, grid_e)
            for t in times]


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


def _frequency_gaps(w: np.ndarray):
    """Distinct gaps of the ascending eigenvalues w, and the gap of each pair.

    Pairs are (lo[p], hi[p]) with lo < hi, so w[hi] - w[lo] >= 0. Gaps closer
    than 1e-12 max|w| are one; ``gaps[0]`` is the zero gap of degenerate
    levels and ``labels[p]`` indexes the gap of pair p.
    """
    lo, hi = np.triu_indices(len(w), 1)
    pair_gaps = w[hi] - w[lo]
    order = np.argsort(pair_gaps)
    ranked = np.concatenate([[0.0], pair_gaps[order]])
    starts = np.diff(ranked) > 1e-12 * np.abs(w).max()
    labels = np.empty(len(order), dtype=int)
    labels[order] = np.cumsum(starts)
    return ranked[np.concatenate([[True], starts])], labels, lo, hi


def muon_polarization_function(rho0: np.ndarray, prop: PropagatorSpec):
    """Vectorized t -> muon Bloch vectors P(t) of the evolved reduced state.

    Writes P_a(t) = Tr[rho(t) (sigma_a x I)] in the eigenbasis of the
    propagator as c_a + sum_k [A_ak cos(w_k t) + B_ak sin(w_k t)] over the
    distinct nonzero level gaps w_k: each (k, l) term is paired with its
    complex-conjugate (l, k) term, equal gaps are merged and the zero gaps of
    degenerate levels join the constant. One evaluation is at most
    d(d-1)/2 real cosines and sines per time and one small real matmul;
    suitable for millions of Monte Carlo decay times.
    """
    rho0 = require_density_matrix(rho0)
    w, v = prop._eigensystem()
    d_e = rho0.shape[0] // 2
    rho_p = v.conj().T @ rho0 @ v
    # c[a, k, l] = rho_p[k, l] (sigma_a)_p[l, k]; c[a, l, k] is its conjugate
    c = np.array([rho_p * (v.conj().T @ kron(s, np.eye(d_e)) @ v).T for s in PAULI])
    gaps, labels, lo, hi = _frequency_gaps(w)
    # 2 c[a, hi, lo] summed over the pairs of each gap: (n_gaps, 3), complex
    merged = (labels == np.arange(len(gaps))[:, None]) @ (2 * c[:, hi, lo].T)
    const = np.einsum("akk->a", c).real + merged[0].real
    omegas = gaps[1:]
    amps = np.concatenate([merged[1:].real, merged[1:].imag])  # (2K, 3)
    n_gaps = len(omegas)

    def polarization(times):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        phases = np.multiply.outer(times, omegas)
        trig = np.empty((len(times), 2 * n_gaps))
        np.cos(phases, out=trig[:, :n_gaps])
        np.sin(phases, out=trig[:, n_gaps:])
        return trig @ amps + const

    return polarization
