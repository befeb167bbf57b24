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


def decay_weighted_gl(source, edges, lifetime_ns, panels, nodes=16):
    """(m_b, Q_b) of each bin of ``edges`` by composite Gauss-Legendre in t:
    ``panels`` equal panels of ``nodes`` nodes per bin, weight e^{-t/tau}/tau.
    Q_b = int_b e^{-t/tau}/tau P(t) dt for a source of (n, 3) Bloch vectors or
    (n, 2, 2) density matrices; at most about 65,536 nodes per source call."""
    from musrtomo.musr import _as_polarization
    edges = np.asarray(edges, dtype=float)
    x, w = np.polynomial.legendre.leggauss(nodes)
    lo, width = edges[:-1], np.diff(edges)
    mass, q = np.empty(len(lo)), np.empty((len(lo), 3))
    per_call = max(1, 4096 // panels)
    for a in range(0, len(lo), per_call):
        h = width[a:a + per_call, None, None] / panels
        t = lo[a:a + per_call, None, None] + h * (np.arange(panels)[:, None] + (x + 1) / 2)
        weight = h / 2 * w * np.exp(-t / lifetime_ns) / lifetime_ns
        pol = _as_polarization(source, t.ravel()).reshape(*t.shape, 3)
        mass[a:a + per_call] = weight.sum(axis=(1, 2))
        q[a:a + per_call] = np.einsum("bpn,bpna->ba", weight, pol)
    return mass, q
