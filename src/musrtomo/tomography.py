"""Single-spin tomography.

A spin-j state is equivalently described by the tomogram w(m, n): the
probability of finding spin projection m along the unit direction n. This
module provides

- :class:`Direction` and the product :class:`QuadratureGrid` on the sphere,
- SU(2) rotation matrices, per direction or as a cached read-only stack per
  spin and grid, 3j symbols and Clebsch-Gordan coefficients,
- the forward map state -> tomogram and the quantizer operators that invert
  it by quadrature over the sphere; on a grid each is one matrix product
  against a cached, read-only symbol or quantizer table per spin and grid,
- the three-direction inverse for qubits (dual-basis formula).

Conventions
-----------
A spin j is a nonnegative multiple of 1/2: :func:`spin_dim` decides that and
gives 2j+1 to every module, and ``_exact_degree`` states once that a grid of
degree >= 4j makes the tomogram-quantizer quadrature exact.
Projections m are ordered descending (+j first). ``rotation_matrix(j, n)``
is exp(-i (n_perp . J) theta) with n_perp = (-sin phi, cos phi, 0), computed
as e^{-i phi Jz} d^j(theta) e^{+i phi Jz} with d^j(theta) = e^{-i theta Jy}
taken from the cached eigensystem of Jy; its first column is the spin-up
state along n. The tomogram is the diagonal of R^dag rho R, which for a
qubit gives w(m, n) = 1/2 + m Tr[rho (n.sigma)]. The pairing
tomogram/quantizer is fixed by requiring the sphere-quadrature round trip to
be exact, which also makes the j=1/2 quantizer equal I/2 + 3m (n.sigma).
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import lgamma
from numbers import Real

import numpy as np

from .linalg import PAULI, require_probabilities, require_state

SUPPORTED_SPINS = (0.0, 0.5, 1.0, 1.5, 2.0)


# --------------------------------------------------------------------------
# directions and grids

@dataclass(frozen=True)
class Direction:
    """Unit vector n(theta, phi) on the sphere."""

    theta: float
    phi: float

    @property
    def vector(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.array([np.cos(self.phi) * st, np.sin(self.phi) * st, np.cos(self.theta)])

    @property
    def n_perp(self) -> np.ndarray:
        return np.array([-np.sin(self.phi), np.cos(self.phi), 0.0])

    @classmethod
    def from_vector(cls, v) -> "Direction":
        v = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"direction components must be finite, got {v.tolist()}")
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise ValueError("cannot build a direction from a (near) zero vector")
        v = v / norm
        theta = float(np.arccos(np.clip(v[2], -1.0, 1.0)))
        phi = float(np.arctan2(v[1], v[0])) % (2 * np.pi)
        return cls(theta, phi)


X_AXIS = Direction(np.pi / 2, 0.0)
Y_AXIS = Direction(np.pi / 2, np.pi / 2)
Z_AXIS = Direction(0.0, 0.0)
AXES = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}


@lru_cache(maxsize=32)
def _grid_arrays(degree: int) -> tuple:
    """Read-only (thetas, theta_weights, phis) of the grid of ``degree``:
    Gauss-Legendre nodes in cos(theta), theta ascending, and a uniform phi."""
    n_theta = max(2, degree + 1)
    n_phi = max(3, degree + 2)
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)  # theta ascending
    arrays = np.arccos(x[order]), wx[order] / 2.0, 2 * np.pi * np.arange(n_phi) / n_phi
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature on the sphere: Gauss-Legendre in cos(theta) times a
    uniform trapezoid in phi, with weights normalized to integrate dn/4pi.

    Exact for spherical polynomials up to ``degree``. A grid is its degree:
    grids of equal degree are equal, share the read-only arrays of
    ``_grid_arrays`` and share cached tables.
    """

    degree: int
    thetas: np.ndarray = field(init=False, repr=False, compare=False)
    theta_weights: np.ndarray = field(init=False, repr=False, compare=False)
    phis: np.ndarray = field(init=False, repr=False, compare=False)
    n_nodes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.degree, bool) or not isinstance(self.degree, (int, np.integer)) \
                or self.degree < 0:
            raise ValueError(f"grid degree must be an integer >= 0, got {self.degree!r}")
        thetas, theta_weights, phis = _grid_arrays(self.degree)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "theta_weights", theta_weights)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "n_nodes", len(thetas) * len(phis))

    @classmethod
    def for_spin(cls, j: float) -> "QuadratureGrid":
        """Grid exact to degree 4j, sufficient for tomogram-quantizer integrals."""
        return cls.of_degree(_exact_degree(j))

    @classmethod
    @lru_cache(maxsize=32)
    def of_degree(cls, degree: int) -> "QuadratureGrid":
        """``QuadratureGrid(degree)``, one instance per degree, so that cache
        lookups keyed on it compare by identity."""
        return cls(degree)

    def nodes(self) -> list[Direction]:
        """Flattened nodes, theta-major: index = i_theta * n_phi + i_phi."""
        return [Direction(float(t), float(p)) for t in self.thetas for p in self.phis]

    @property
    def weights(self) -> np.ndarray:
        n_phi = len(self.phis)
        return np.repeat(self.theta_weights / n_phi, n_phi)

    def ppt_permutation(self) -> np.ndarray:
        """Node permutation realizing phi -> -phi on this grid."""
        n_phi = len(self.phis)
        perm_phi = (-np.arange(n_phi)) % n_phi
        idx = np.arange(self.n_nodes).reshape(-1, n_phi)
        return idx[:, perm_phi].reshape(-1)


# --------------------------------------------------------------------------
# angular-momentum algebra

def spin_dim(j: float) -> int:
    """2j+1, the dimension of spin j, a nonnegative multiple of 1/2; any other
    value (a bool, 0.7, -1/2, NaN, inf, a list or an array) raises ValueError."""
    try:
        return _spin_dim(j)
    except TypeError:  # unhashable, so no spin: the uncached check names it
        return _spin_dim.__wrapped__(j)


@lru_cache(maxsize=64, typed=True)  # typed: True is not read as 1
def _spin_dim(j: float) -> int:
    if isinstance(j, bool) or not (isinstance(j, Real) and j >= 0 and float(2 * j).is_integer()):
        raise ValueError(f"spin must be a nonnegative multiple of 1/2, got {j!r}")
    return int(2 * j) + 1


def _exact_degree(j: float, grid: QuadratureGrid | None = None) -> int:
    """The degree 4j that makes spin-j grid quadrature exact; ValueError if ``grid`` is below it."""
    need = 2 * spin_dim(j) - 2
    if grid is not None and grid.degree < need:
        raise ValueError(f"grid degree {grid.degree} insufficient for j={j}; need >= {need}")
    return need


def spin_projections(j: float) -> np.ndarray:
    """Projections m = j, j-1, ..., -j (descending)."""
    return j - np.arange(spin_dim(j))


def angular_momentum_ops(j: float):
    """(Jx, Jy, Jz) in the |j m> basis, m descending."""
    ms = spin_projections(j)
    jz = np.diag(ms).astype(complex)
    jplus = np.diag(np.sqrt(j * (j + 1) - ms[1:] * (ms[1:] + 1)), 1).astype(complex)
    jminus = jplus.conj().T
    return (jplus + jminus) / 2, (jplus - jminus) / 2j, jz


def _lf(x: float) -> float:
    return lgamma(x + 1.0)


def three_j(j1: float, j2: float, j3: float, m1: float, m2: float, m3: float) -> float:
    """Wigner 3j symbol via the Racah sum with log-factorials.

    Selection-rule violations return 0 rather than raising.
    """
    if round(m1 + m2 + m3, 12) != 0:
        return 0.0
    if j3 > j1 + j2 or j3 < abs(j1 - j2):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if round(2 * (j1 + j2 + j3)) % 2 != 0:
        return 0.0
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        if (j - m) != round(j - m):
            return 0.0
    pre = 0.5 * (_lf(j1 + j2 - j3) + _lf(j1 - j2 + j3) + _lf(-j1 + j2 + j3)
                 - _lf(j1 + j2 + j3 + 1)
                 + _lf(j1 + m1) + _lf(j1 - m1) + _lf(j2 + m2) + _lf(j2 - m2)
                 + _lf(j3 + m3) + _lf(j3 - m3))
    kmin = int(round(max(0.0, j2 - j3 - m1, j1 - j3 + m2)))
    kmax = int(round(min(j1 + j2 - j3, j1 - m1, j2 + m2)))
    total = 0.0
    for k in range(kmin, kmax + 1):
        ln = pre - (_lf(k) + _lf(j1 + j2 - j3 - k) + _lf(j1 - m1 - k)
                    + _lf(j2 + m2 - k) + _lf(j3 - j2 + m1 + k) + _lf(j3 - j1 - m2 + k))
        total += (-1.0) ** k * np.exp(ln)
    return float((-1.0) ** round(j1 - j2 - m3) * total)


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float,
                   jtot: float, mtot: float) -> float:
    """<j1 m1, j2 m2 | jtot mtot> with the Condon-Shortley phase."""
    return float((-1.0) ** round(j1 - j2 + mtot) * np.sqrt(2 * jtot + 1)
                 * three_j(j1, j2, jtot, m1, m2, -mtot))


# --------------------------------------------------------------------------
# rotations, tomograms, quantizers

def rotation_matrix(j: float, direction: Direction) -> np.ndarray:
    """exp(-i (n_perp . J) theta) in the |j m> basis, m descending.

    Matrix elements e^{-i(m'-m)phi} d^j_{m'm}(theta); the first column is the
    coherent spin state pointing along ``direction``.
    """
    mu, v = _jy_eigensystem(j)
    small_d = ((v * np.exp(-1j * direction.theta * mu)) @ v.conj().T).real
    phase = np.exp(-1j * direction.phi * spin_projections(j))
    return phase[:, None] * small_d * phase.conj()


@lru_cache(maxsize=32)
def rotations(j: float, grid: QuadratureGrid) -> np.ndarray:
    """``rotation_matrix(j, node)`` for every node of ``grid.nodes()``, shape
    (n_nodes, 2j+1, 2j+1): read-only, built once per spin and grid in one
    broadcast, e^{-i phi Jz} V e^{-i theta mu} V^dag e^{+i phi Jz}."""
    mu, v = _jy_eigensystem(j)
    small_d = ((v * np.exp(-1j * np.multiply.outer(grid.thetas, mu))[:, None]) @ v.conj().T).real
    phase = np.exp(-1j * np.multiply.outer(grid.phis, spin_projections(j)))
    r = phase[None, :, :, None] * small_d[:, None] * phase.conj()[None, :, None, :]
    r = r.reshape(grid.n_nodes, len(mu), len(mu))
    r.flags.writeable = False
    return r


@lru_cache(maxsize=len(SUPPORTED_SPINS))
def _jy_eigensystem(j: float) -> tuple:
    """Read-only eigenvalues and eigenvectors of Jy for a supported spin j."""
    if j not in SUPPORTED_SPINS:
        raise ValueError(f"unsupported spin j={j}; supported: {SUPPORTED_SPINS}")
    eigensystem = np.linalg.eigh(angular_momentum_ops(j)[1])
    for a in eigensystem:
        a.flags.writeable = False  # shared by every rotation of spin j
    return eigensystem


def tomogram(rho: np.ndarray, j: float, direction: Direction) -> np.ndarray:
    """Probabilities of spin projections along ``direction``, m descending.

    Diagonal of R^dag rho R; nonnegative for positive rho and summing to 1.
    """
    rho = require_state(rho, spin_dim(j), "2j+1")
    r = rotation_matrix(j, direction)
    return np.einsum("ai,ab,bi->i", r.conj(), rho, r).real


@lru_cache(maxsize=len(SUPPORTED_SPINS))
def _quantizer_kernels(j: float) -> np.ndarray:
    """Read-only rows k_m = sum_L (2L+1) <j m|T^{L0}|j m> diag(T^{L0}), the
    quantizer's diagonal kernels, over the normalized T^{L0}, L = 0..2j."""
    ms = spin_projections(j)
    kernels = np.zeros((len(ms), len(ms)))
    for ell in range(len(ms)):
        diag = np.array([clebsch_gordan(j, m, ell, 0.0, j, m) for m in ms])
        diag /= np.linalg.norm(diag)
        kernels += (2 * ell + 1) * np.outer(diag, diag)
    kernels.flags.writeable = False
    return kernels


def quantizer(j: float, m: float, direction: Direction) -> np.ndarray:
    """Quantizer operator dual to the tomogram: rho equals the quadrature sum
    of w(m, n) * quantizer(j, m, n) over m and the sphere.

    Built as R diag(k_m) R^dag with the diagonal kernel of ``_quantizer_kernels``;
    for j = 1/2 this reduces to I/2 + 3m (n.sigma).
    """
    if m not in spin_projections(j):  # 0.7 is not rounded to 1/2; NaN fails too
        raise ValueError(f"projection m={m} invalid for j={j}")
    idx = int(j - m)
    r = rotation_matrix(j, direction)
    kernel = _quantizer_kernels(j)[idx]
    return (r * kernel) @ r.conj().T


@dataclass
class SpinTomogram:
    """Tomogram on a grid: values (2j+1, n_nodes), checked by linalg.require_probabilities."""

    j: float
    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        dim = spin_dim(self.j)
        if values.shape != (dim, self.grid.n_nodes):
            raise ValueError(f"values shape {values.shape} != ({dim}, {self.grid.n_nodes})")
        self.values = require_probabilities(values, 0, "probabilities")

    @classmethod
    def from_state(cls, rho: np.ndarray, j: float,
                   grid: QuadratureGrid | None = None) -> "SpinTomogram":
        rho = require_state(rho, spin_dim(j), "2j+1")
        grid = grid if grid is not None else QuadratureGrid.for_spin(j)
        return cls(j, grid, operator_symbol_on_grid(rho, j, grid).real)


def reconstruct_from_sphere(tom: SpinTomogram) -> np.ndarray:
    """Density matrix from a sphere-sampled tomogram by quadrature against the
    quantizer operators. Requires grid degree >= 4j."""
    _exact_degree(tom.j, tom.grid)
    return operator_from_symbol(tom.values, tom.j, tom.grid)


def operator_symbol_on_grid(op: np.ndarray, j: float, grid: QuadratureGrid) -> np.ndarray:
    """Tomographic symbol Tr[op R|j m><j m|R^dag] of an arbitrary operator, or
    of each of a stack (..., d, d) of them, shape (..., 2j+1, n_nodes): one
    product with the cached symbol table of ``_grid_tables``."""
    d = spin_dim(j)
    op = np.asarray(op)
    if op.shape[-2:] != (d, d):
        raise ValueError(f"operator shape {op.shape} does not end in (2j+1, 2j+1) = {(d, d)}")
    return (op.reshape(op.shape[:-2] + (d * d,)) @ _grid_tables(j, grid)[0]).reshape(
        op.shape[:-2] + (d, grid.n_nodes))


def operator_from_symbol(symbol: np.ndarray, j: float, grid: QuadratureGrid) -> np.ndarray:
    """Inverse of ``operator_symbol_on_grid`` on grids of degree >= 4j: the
    quadrature sum of w_n symbol[..., m, n] times the quantizers R_n diag(k_m)
    R_n^dag, one product with the cached quantizer table of ``_grid_tables``."""
    d = spin_dim(j)
    symbol = np.asarray(symbol)
    if symbol.shape[-2:] != (d, grid.n_nodes):
        raise ValueError(f"symbol shape {symbol.shape} does not end in "
                         f"(2j+1, grid.n_nodes) = {(d, grid.n_nodes)}")
    return (symbol.reshape(symbol.shape[:-2] + (d * grid.n_nodes,))
            @ _grid_tables(j, grid)[1]).reshape(symbol.shape[:-2] + (d, d))


@lru_cache(maxsize=32)
def _grid_tables(j: float, grid: QuadratureGrid) -> tuple:
    """Read-only symbol and quantizer tables of spin j on ``grid``, from the
    ``rotations`` stack R, the weights w and the kernels k of
    ``_quantizer_kernels``: T[(a, b), (m, n)] = R_n[b, m] conj(R_n[a, m]),
    shape (d^2, d n), and Q[(m, n), (a, b)] = w_n (R_n diag(k_m) R_n^dag)[a, b],
    shape (d n, d^2), with d = 2j+1 and n the node count."""
    r = rotations(j, grid)
    d, n = r.shape[-1], grid.n_nodes
    symbol = np.einsum("nam,nbm->abmn", r.conj(), r).reshape(d * d, d * n)
    quant = np.einsum("n,mk,nak,nbk->mnab", grid.weights, _quantizer_kernels(j),
                      r, r.conj()).reshape(d * n, d * d)
    for table in (symbol, quant):
        table.flags.writeable = False
    return symbol, quant


def dual_basis(n1: Direction, n2: Direction, n3: Direction):
    """Vectors l_k with (l_i . n_j) = delta_ij; rejects coplanar triples."""
    v1, v2, v3 = n1.vector, n2.vector, n3.vector
    triple = float(np.dot(v1, np.cross(v2, v3)))
    if abs(triple) < 1e-10:
        raise ValueError("directions are coplanar; no dual basis exists")
    return (np.cross(v2, v3) / triple,
            np.cross(v3, v1) / triple,
            np.cross(v1, v2) / triple)


def reconstruct_qubit_three_directions(ws, directions) -> np.ndarray:
    """Qubit density matrix from the three probabilities w(+1/2, n_k).

    rho = I/2 + sum_k (2 w_k - 1) (l_k . J), J = sigma/2, with {l_k} dual to
    the measurement directions. Hermitian and unit trace by construction; the
    caller must check positivity when the inputs carry noise.
    """
    if len(ws) != 3 or len(directions) != 3:
        raise ValueError("need exactly three probabilities and directions")
    for w in ws:
        if not -1e-9 <= w <= 1 + 1e-9:
            raise ValueError(f"probability {w} outside [0, 1]")
    l1, l2, l3 = dual_basis(*directions)
    bloch = sum((2 * w - 1) * l for w, l in zip(ws, (l1, l2, l3)))
    return (np.eye(2) + np.tensordot(bloch, PAULI, axes=1)) / 2
