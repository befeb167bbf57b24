"""Dense complex-matrix primitives: the Pauli matrices and the two-qubit
operator basis built from them, Kronecker products, partial trace and
transpose over a bipartite split, Hermitian eigendecomposition, and the
package's only input checks for states, unitaries and probability tables.

All functions are pure and operate on plain ``numpy`` arrays. Matrices
stay small here (dimension <= ~16). The partial trace, the partial transpose
and the checks also take a stack (..., d, d) of matrices, one per instant of
a time trace, and act per matrix.

Every other module validates with ``require_density_matrix``,
``require_state``, ``require_unitary`` and ``require_probabilities`` instead
of restating them: a few numpy calls each, which reject NaN or infinity.
"""

from dataclasses import dataclass

import numpy as np

# Pauli matrices (sigma_x, sigma_y, sigma_z), stacked along the first axis
PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

# the 15 orthonormal traceless two-qubit operators
# {sigma_i x I, I x sigma_j, sigma_i x sigma_j} / 2, shape (15, 4, 4)
TWO_QUBIT_BASIS = np.array([np.kron(p, np.eye(2)) for p in PAULI]
                           + [np.kron(np.eye(2), p) for p in PAULI]
                           + [np.kron(p, q) for p in PAULI for q in PAULI]) / 2


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
        if matrix.shape[-2:] != (self.total, self.total):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"{self.dim_a}x{self.dim_b} bipartite split"
            )


def _as_stack(m) -> np.ndarray:
    """A matrix (d, d) or a stack of matrices (..., d, d), finite and complex."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise ValueError("expected a 2-d array")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _as_matrix(m) -> np.ndarray:
    a = _as_stack(m)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def partial_trace(m: np.ndarray, dims: SubsystemDims, keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite matrix.

    ``keep`` selects the surviving subsystem, ``"a"`` (first factor) or
    ``"b"``. Trace-preserving: Tr(result) == Tr(m).
    """
    m = _as_stack(m)
    dims.check(m)
    r = m.reshape(m.shape[:-2] + (dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b))
    k = keep.lower()
    if k == "a":
        return np.einsum("...ibjb->...ij", r)
    if k == "b":
        return np.einsum("...aiaj->...ij", r)
    raise ValueError("keep must be 'a' or 'b'")


def partial_transpose(m: np.ndarray, dims: SubsystemDims) -> np.ndarray:
    """Transpose the index pair of the first factor (the muon); an involution."""
    m = _as_stack(m)
    dims.check(m)
    r = m.reshape(m.shape[:-2] + (dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b))
    return r.swapaxes(-4, -2).reshape(m.shape)


def eig_hermitian(m: np.ndarray):
    """Eigendecomposition of a square matrix, Hermitian within 1e-12 max(|m|_F, 1).

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary
    eigenvector matrix ``v`` (columns are eigenvectors).
    """
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if np.linalg.norm(m - m.conj().T) > 1e-12 * max(np.linalg.norm(m), 1.0):
        raise ValueError("matrix is not Hermitian within tolerance; "
                         "symmetrize (m + m^dag)/2 before calling")
    return np.linalg.eigh(m)


def _squared_norms(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of a matrix, or of each matrix of a stack."""
    return (m.conj() * m).real.sum(axis=(-2, -1))


def require_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix, or each matrix of a stack (..., d, d):
    finite, square, Hermitian within 1e-10 max(|rho|_F, 1) and unit trace
    within 1e-10."""
    rho = _as_stack(rho)
    if rho.shape[-1] != rho.shape[-2]:
        raise ValueError("density matrix must be square")
    # errors within bounds of at least 1e-10 pass together while their squares
    # sum to at most 1e-20, one np.vdot; only a larger sum is tested one by one
    defect = rho - rho.conj().swapaxes(-1, -2)  # |defect|_F <= 1e-10 max(|rho|_F, 1)
    if np.vdot(defect, defect).real > 1e-20 and \
            (_squared_norms(defect) > 1e-20 * np.maximum(_squared_norms(rho), 1.0)).any():
        raise ValueError("density matrix is not Hermitian")
    traces = rho.diagonal(0, -2, -1).sum(-1)
    errors = traces - 1.0
    if np.vdot(errors, errors).real > 1e-20 and (np.abs(errors) > 1e-10).any():
        raise ValueError(f"density matrix trace {traces.flat[np.abs(errors).argmax()]} != 1")
    return rho


def require_state(rho: np.ndarray, dim: int, name: str) -> np.ndarray:
    """One density matrix (not a stack) of dimension ``dim``, called ``name``."""
    rho = require_density_matrix(rho)
    if rho.ndim != 2:
        raise ValueError(f"expected one density matrix, got a stack of shape {rho.shape}")
    if rho.shape[0] != dim:
        raise ValueError(f"density matrix dimension {rho.shape[0]} != {name} = {dim}")
    return rho


def require_unitary(u: np.ndarray) -> np.ndarray:
    """Validate a unitary (d, d), or each matrix of a stack (..., d, d):
    finite, square and |U U^dag - I|_F <= 1e-10 d."""
    u = _as_stack(u)
    if u.shape[-1] != u.shape[-2]:
        raise ValueError(f"unitary must be a square matrix, got shape {u.shape}")
    d = u.shape[-1]
    defects = _squared_norms(u @ u.conj().swapaxes(-1, -2) - np.eye(d))
    if (defects > (1e-10 * d) ** 2).any():
        raise ValueError("evolution operator is not unitary")
    return u


def require_probabilities(values, sum_axes, what: str) -> np.ndarray:
    """Validate a table of probabilities, returned as floats: every value in
    [-1e-12, 1 + 1e-12] (NaN fails) and every sum over ``sum_axes`` within
    1e-10 of 1. ``what`` names the probabilities in the messages."""
    values = np.asarray(values, dtype=float)
    if not (values.min() >= -1e-12 and values.max() <= 1 + 1e-12):
        raise ValueError(f"negative or missing {what}: tomogram values outside [0, 1]")
    errors = values.sum(axis=sum_axes) - 1.0  # gated as in require_density_matrix
    if np.vdot(errors, errors) > 1e-20 and np.abs(errors).max() > 1e-10:
        raise ValueError(f"{what} must sum to 1 over axes {sum_axes}")
    return values
