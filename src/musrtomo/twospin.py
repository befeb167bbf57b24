"""Two-spin (muon x electron) tomography.

Provides the Clebsch-Gordan change of basis between the product basis
|m_mu, m_e> and the coupled basis |L M>, and the tomogram flavors built on
them: the individual tomogram (joint projection probabilities along a
direction per spin), its measurable muon marginal, the total tomogram in the
coupled basis, the block-diagonal rotation and the total probability
distribution f^(L)(M, N), plus reconstruction routines.

Basis ordering is fixed globally: product labels are muon-major with both
projections descending; coupled labels are (L descending, M descending).
:class:`TwoSpinBasis` rejects a value that is not a spin through ``spin_dim``;
the grid routes read ``spin_dim`` directly and build no basis.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .linalg import (SubsystemDims, kron, partial_trace, require_probabilities,
                     require_state, require_unitary)
from .tomography import (
    Direction,
    QuadratureGrid,
    _exact_degree,
    _grid_tables,
    clebsch_gordan,
    operator_from_symbol,
    rotation_matrix,
    spin_dim,
    spin_projections,
)


@dataclass(frozen=True)
class TwoSpinBasis:
    """Label bookkeeping for a muon spin coupled to an effective electron spin."""

    j_mu: float
    j_e: float

    def __post_init__(self):
        for j in (self.j_mu, self.j_e):
            spin_dim(j)

    @property
    def dim(self) -> int:
        return spin_dim(self.j_mu) * spin_dim(self.j_e)

    @property
    def dims(self) -> SubsystemDims:
        return SubsystemDims(spin_dim(self.j_mu), spin_dim(self.j_e))

    def total_spins(self) -> list[float]:
        hi = self.j_mu + self.j_e  # down to |j_mu - j_e|: 2 min(j_mu, j_e) + 1 values
        return [hi - k for k in range(spin_dim(min(self.j_mu, self.j_e)))]

    def coupled_labels(self) -> list[tuple[float, float]]:
        return [(ell, m) for ell in self.total_spins() for m in spin_projections(ell)]

    def blocks(self) -> list[tuple[float, slice]]:
        """(L, rows) of each diagonal block of the coupled basis, in coupled
        order: L descending, each block's rows following the previous's."""
        spins = self.total_spins()
        sizes = [spin_dim(ell) for ell in spins]
        return [(ell, slice(at, at + d))
                for ell, d, at in zip(spins, sizes, accumulate(sizes, initial=0))]


def cg_matrix(j_mu: float, j_e: float) -> np.ndarray:
    """Unitary change of basis, coupled components = U_CG @ product components.

    Rows run over (L desc, M desc), columns over the muon-major product basis;
    entries are real Clebsch-Gordan coefficients <m_mu, m_e | L M>.
    """
    coupled = TwoSpinBasis(j_mu, j_e).coupled_labels()
    product = [(m_mu, m_e) for m_mu in spin_projections(j_mu) for m_e in spin_projections(j_e)]
    u = np.zeros((len(coupled), len(product)))
    for a, (ell, m) in enumerate(coupled):
        for b, (m_mu, m_e) in enumerate(product):
            u[a, b] = clebsch_gordan(j_mu, m_mu, j_e, m_e, ell, m)
    return u


def individual_tomogram_unitary(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Diagonal of U rho U^dag in the product basis (joint probabilities)."""
    u = require_unitary(u)
    if u.shape != np.shape(rho):
        raise ValueError(f"unitary shape {u.shape} != state shape {np.shape(rho)}")
    rho = require_state(rho, len(u), "unitary dimension")
    return np.einsum("ia,ab,ib->i", u, rho, u.conj()).real


def individual_tomogram(rho: np.ndarray, j_mu: float, j_e: float,
                        dir_mu: Direction, dir_e: Direction) -> np.ndarray:
    """Joint probabilities of muon projection along dir_mu and electron
    projection along dir_e, shape (2j_mu+1, 2j_e+1), projections descending."""
    rho = require_state(rho, TwoSpinBasis(j_mu, j_e).dim, "(2j_mu+1)(2j_e+1)")
    u = kron(rotation_matrix(j_mu, dir_mu), rotation_matrix(j_e, dir_e))
    diag = np.einsum("ai,ab,bi->i", u.conj(), rho, u).real
    return diag.reshape(spin_dim(j_mu), spin_dim(j_e))


def reduced_tomogram(rho: np.ndarray, j_mu: float, j_e: float,
                     dir_mu: Direction) -> np.ndarray:
    """Muon marginal of the individual tomogram: the single-spin tomogram of
    Tr_e[rho]. Independent of any electron direction (non-signalling)."""
    basis = TwoSpinBasis(j_mu, j_e)
    rho_mu = partial_trace(require_state(rho, basis.dim, "(2j_mu+1)(2j_e+1)"), basis.dims,
                           keep="a")
    r = rotation_matrix(j_mu, dir_mu)
    return np.einsum("ai,ab,bi->i", r.conj(), rho_mu, r).real


def _coupled(rho: np.ndarray, j_mu: float, j_e: float,
             u: np.ndarray | None = None) -> np.ndarray:
    """U_CG u rho u^dag U_CG^T: the state, first conjugated by the unitary
    ``u`` when one is given, in the coupled basis."""
    v = cg_matrix(j_mu, j_e)
    if u is not None:
        if np.shape(u) != v.shape:
            raise ValueError(f"unitary shape {np.shape(u)} != {v.shape}")
        v = v @ require_unitary(u)
    return v @ rho @ v.conj().T


def total_tomogram(rho: np.ndarray, j_mu: float, j_e: float, u: np.ndarray) -> np.ndarray:
    """<L M| U rho U^dag |L M> over the coupled labels (L desc, M desc)."""
    rho = require_state(rho, TwoSpinBasis(j_mu, j_e).dim, "(2j_mu+1)(2j_e+1)")
    return _coupled(rho, j_mu, j_e, u).diagonal().real.copy()


def blockdiag_rotation(j_mu: float, j_e: float, direction: Direction) -> np.ndarray:
    """Direct sum over L of the spin-L rotations, in the coupled basis
    (blocks ordered L descending). Equals the CG conjugation of the product
    rotation R^(j_mu) x R^(j_e)."""
    basis = TwoSpinBasis(j_mu, j_e)
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for ell, rows in basis.blocks():
        out[rows, rows] = rotation_matrix(ell, direction)
    return out


def total_pdf(rho: np.ndarray, j_mu: float, j_e: float, direction: Direction) -> dict:
    """f^(L)(M, N): per-L probabilities of total projection M along N.

    Diagonal of R_L^dag rho_LL R_L for each diagonal block rho_LL of the
    coupled-basis state, which is the direct-sum rotation's diagonal grouped
    by L. Not invertible in general; see reconstruct_blockdiag for the
    permutation-symmetric (block-diagonal) case.
    """
    basis = TwoSpinBasis(j_mu, j_e)
    rho_coupled = _coupled(require_state(rho, basis.dim, "(2j_mu+1)(2j_e+1)"), j_mu, j_e)
    out = {}
    for ell, rows in basis.blocks():
        r = rotation_matrix(ell, direction)
        out[ell] = np.einsum("ai,ab,bi->i", r.conj(), rho_coupled[rows, rows], r).real
    return out


def total_pdf_on_grid(rho: np.ndarray, j_mu: float, j_e: float,
                      grid: QuadratureGrid) -> dict:
    """f^(L)(M, N) sampled on a grid; maps L -> array (2L+1, n_nodes)."""
    per_node = [total_pdf(rho, j_mu, j_e, node) for node in grid.nodes()]
    basis = TwoSpinBasis(j_mu, j_e)
    return {ell: np.array([smp[ell] for smp in per_node]).T
            for ell in basis.total_spins()}


def reconstruct_blockdiag(f_samples: dict, grid: QuadratureGrid,
                          j_mu: float, j_e: float) -> np.ndarray:
    """Reconstruct the block-diagonal (coupled-basis) part of a state from its
    total probability distribution: each block L is the spin-L inverse
    ``operator_from_symbol`` of f^(L), an array (2L+1, n_nodes).

    Exact for permutation-symmetric states, whose coupled-basis density matrix
    is block-diagonal.
    """
    basis = TwoSpinBasis(j_mu, j_e)
    blocks = basis.blocks()
    _exact_degree(blocks[0][0], grid)
    spins = [ell for ell, _ in blocks]
    if set(f_samples) != set(spins):
        raise ValueError(f"f_samples holds L = {list(f_samples)}, "
                         f"the basis L = {spins}")
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for ell, rows in blocks:
        values = np.asarray(f_samples[ell])
        expect = (rows.stop - rows.start, grid.n_nodes)
        if values.shape != expect:
            raise ValueError(f"f_samples[{ell}] has shape {values.shape}, not {expect}")
        out[rows, rows] = operator_from_symbol(values, ell, grid)
    return out


@dataclass
class TwoSpinTomogram:
    """Individual two-spin tomogram on a product grid.

    ``values`` has shape (2j_mu+1, nodes_mu, 2j_e+1, nodes_e); the projection
    axes are ordered descending; ``linalg.require_probabilities`` checks it.
    """

    j_mu: float
    j_e: float
    grid_mu: QuadratureGrid
    grid_e: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expect = (spin_dim(self.j_mu), self.grid_mu.n_nodes,
                  spin_dim(self.j_e), self.grid_e.n_nodes)
        if values.shape != expect:
            raise ValueError(f"values shape {values.shape} != {expect}")
        self.values = require_probabilities(values, (0, 2), "joint probabilities")

    @classmethod
    def from_state(cls, rho: np.ndarray, j_mu: float, j_e: float,
                   grid_mu: QuadratureGrid | None = None,
                   grid_e: QuadratureGrid | None = None) -> "TwoSpinTomogram":
        rho = require_state(rho, spin_dim(j_mu) * spin_dim(j_e), "(2j_mu+1)(2j_e+1)")
        grid_mu = grid_mu if grid_mu is not None else QuadratureGrid.for_spin(j_mu)
        grid_e = grid_e if grid_e is not None else QuadratureGrid.for_spin(j_e)
        return cls(j_mu, j_e, grid_mu, grid_e,
                   individual_tomogram_on_grid(rho, j_mu, j_e, grid_mu, grid_e))


def individual_tomogram_on_grid(rho: np.ndarray, j_mu: float, j_e: float,
                                grid_mu: QuadratureGrid, grid_e: QuadratureGrid) -> np.ndarray:
    """Individual tomogram of a state or a stack (..., D, D) of states, only
    shape-checked here, on all node pairs: shape (..., 2j_mu+1, n_mu, 2j_e+1, n_e).
    (T_mu^T X) T_e with X[(a, b), (c, d)] = rho[(a, c), (b, d)] and the symbol
    tables T of ``_grid_tables``: muon symbols first, then the electron's."""
    d_mu, d_e = spin_dim(j_mu), spin_dim(j_e)
    rho = np.asarray(rho)
    if rho.shape[-2:] != (d_mu * d_e,) * 2:
        raise ValueError(f"state shape {rho.shape} does not end in (D, D), "
                         f"D = (2j_mu+1)(2j_e+1) = {d_mu * d_e}")
    x = rho.reshape(-1, d_mu, d_e, d_mu, d_e).transpose(0, 1, 3, 2, 4).reshape(
        -1, d_mu * d_mu, d_e * d_e)
    values = _grid_tables(j_mu, grid_mu)[0].T @ x @ _grid_tables(j_e, grid_e)[0]
    return values.reshape(rho.shape[:-2] + (d_mu, grid_mu.n_nodes, d_e, grid_e.n_nodes)).real


def reconstruct_two_spin(w: TwoSpinTomogram) -> np.ndarray:
    """Density matrix from the individual tomogram by double sphere quadrature
    against the product quantizers, electron first: X = Q_mu^T (V Q_e), as in
    ``individual_tomogram_on_grid``, with V the values and Q quantizer tables."""
    for grid, j in ((w.grid_mu, w.j_mu), (w.grid_e, w.j_e)):
        _exact_degree(j, grid)
    d_mu, n_mu, d_e, n_e = w.values.shape
    x = _grid_tables(w.j_mu, w.grid_mu)[1].T @ (
        w.values.reshape(d_mu * n_mu, d_e * n_e) @ _grid_tables(w.j_e, w.grid_e)[1])
    return x.reshape(d_mu, d_mu, d_e, d_e).transpose(0, 2, 1, 3).reshape(d_mu * d_e, d_mu * d_e)


def total_from_individual(w: TwoSpinTomogram, u: np.ndarray) -> np.ndarray:
    """Total tomogram <L M|U rho U^dag|L M> evaluated from individual-tomogram
    samples: the state is rebuilt by quadrature against the product quantizers
    and then conjugated into the coupled basis."""
    rho = reconstruct_two_spin(w)
    return _coupled((rho + rho.conj().T) / 2, w.j_mu, w.j_e, u).diagonal().real.copy()
