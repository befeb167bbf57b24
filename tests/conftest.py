import numpy as np
import pytest

from musrtomo.linalg import eig_hermitian


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i h t) of a time-independent Hermitian generator, by a
    full eigensolve."""
    w, v = eig_hermitian(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def singlet():
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    return np.outer(v, v.conj())


@pytest.fixture
def up_state():
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def random_product_mixture(rng, n_terms=4):
    """Convex mixture of product states; separable by construction."""
    probs = rng.dirichlet(np.ones(n_terms))
    rho = np.zeros((4, 4), dtype=complex)
    for p in probs:
        rho += p * np.kron(random_density_matrix(2, rng), random_density_matrix(2, rng))
    return rho


def random_direction(rng):
    from musrtomo.tomography import Direction
    return Direction.from_vector(rng.normal(size=3))
