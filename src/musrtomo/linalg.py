"""Dense complex-matrix primitives: Kronecker products, partial trace and
transpose over a bipartite split, Hermitian eigendecomposition, and unitary
propagators exp(-iHt/hbar).

All functions are pure and operate on plain ``numpy`` complex arrays. Matrices
stay small here (dimension <= ~16), so the propagator goes through a full
Hermitian eigensolve rather than a series or Pade scheme.
"""

from dataclasses import dataclass

import numpy as np

HERMITIAN_RTOL = 1e-12

# Pauli matrices (sigma_x, sigma_y, sigma_z), stacked along the first axis
PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


@dataclass(frozen=True)
class SubsystemDims:
    """Dimensions of the two factors of a bipartite space (muon x electron)."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be >= 1")

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b

    def check(self, matrix: np.ndarray) -> None:
        if matrix.shape != (self.total, self.total):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"{self.dim_a}x{self.dim_b} bipartite split"
            )


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def partial_trace(m: np.ndarray, dims: SubsystemDims, keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite matrix.

    ``keep`` selects the surviving subsystem, ``"a"`` (first factor) or
    ``"b"``. Trace-preserving: Tr(result) == Tr(m).
    """
    m = _as_matrix(m)
    dims.check(m)
    r = m.reshape(dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b)
    k = keep.lower()
    if k == "a":
        return np.einsum("ibjb->ij", r)
    if k == "b":
        return np.einsum("aiaj->ij", r)
    raise ValueError("keep must be 'a' or 'b'")


def partial_transpose(m: np.ndarray, dims: SubsystemDims, which: str = "a") -> np.ndarray:
    """Transpose the index pair of one factor; an involution."""
    m = _as_matrix(m)
    dims.check(m)
    r = m.reshape(dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b)
    w = which.lower()
    if w == "a":
        out = r.transpose(2, 1, 0, 3)
    elif w == "b":
        out = r.transpose(0, 3, 2, 1)
    else:
        raise ValueError("which must be 'a' or 'b'")
    return out.reshape(m.shape)


def _require_hermitian(m: np.ndarray, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(np.linalg.norm(m), 1.0)
    if np.linalg.norm(m - m.conj().T) > rtol * scale:
        raise ValueError("matrix is not Hermitian within tolerance; "
                         "symmetrize (m + m^dag)/2 before calling")
    return m


def eig_hermitian(m: np.ndarray, rtol: float = HERMITIAN_RTOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary
    eigenvector matrix ``v`` (columns are eigenvectors).
    """
    m = _require_hermitian(m, rtol)
    w, v = np.linalg.eigh(m)
    return w, v


def propagator(h: np.ndarray, t: float, hbar: float = 1.0) -> np.ndarray:
    """Unitary exp(-i h t / hbar) of a time-independent Hermitian generator."""
    w, v = eig_hermitian(h)
    phases = np.exp(-1j * w * (t / hbar))
    return (v * phases) @ v.conj().T


def require_density_matrix(rho: np.ndarray, trace_tol: float = 1e-10) -> np.ndarray:
    """Validate Hermiticity and unit trace of a density matrix."""
    rho = _as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    scale = max(np.linalg.norm(rho), 1.0)
    if np.linalg.norm(rho - rho.conj().T) > 1e-10 * scale:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {np.trace(rho)} != 1")
    return rho


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
