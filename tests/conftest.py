import csv
from pathlib import Path

import numpy as np
import pytest

from musrtomo.dynamics import DEFAULT_CONSTANTS, HamiltonianSpec, PropagatorSpec
from musrtomo.linalg import (TWO_QUBIT_BASIS, eig_hermitian, require_density_matrix,
                             require_state, require_unitary)
from musrtomo.materials import load_material
from musrtomo.reconstruction import build_design_matrix

# a material file of a muon coupled to an electron shell of spin 1
SPIN1 = str(Path(__file__).resolve().parent / "fixtures" / "spin1-hyperfine.json")


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


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class HermitianPropagator(PropagatorSpec):
    """A two-qubit PropagatorSpec of any Hermitian 4x4 H/hbar, outside the
    muonium family: ``unitary`` is the eigensolve of H, and ``hamiltonian``
    only sets the dimension 4."""

    def __init__(self, h: np.ndarray):
        super().__init__(HamiltonianSpec(a=0.0))
        self.h = h

    def matrix(self) -> np.ndarray:
        return self.h

    def unitary(self, t) -> np.ndarray:
        return self.numeric_unitary(t)


def generic_propagator(seed=3) -> HermitianPropagator:
    """A structureless two-spin Hamiltonian; its plans reach the full rank 15."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return HermitianPropagator((g + g.conj().T) / 2)


def material_propagator(material, b_field=0.0, b_axis=None, aniso_axis=None) -> PropagatorSpec:
    """The propagator of a preset or material file in a field."""
    return PropagatorSpec(load_material(material).hamiltonian_spec(
        b_field=b_field, b_axis=b_axis, aniso_axis=aniso_axis))


def read_csv(path) -> list:
    """The rows of a written CSV file as dicts; '#' lines are skipped."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


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
    Q_b = int_b e^{-t/tau}/tau P(t) dt for a source of (n, 3) Bloch vectors;
    at most about 65,536 nodes per source call."""
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


# oracles that only tests call, kept out of the library's public surface

def critical_field(a_rad_ns: float) -> float:
    """Field (Gauss) where B (g_e mu_e - g_mu mu_mu) equals the coupling."""
    return a_rad_ns / (DEFAULT_CONSTANTS.gamma_e - DEFAULT_CONSTANTS.gamma_mu)


def state_to_coefficients(rho: np.ndarray) -> np.ndarray:
    """x_i = Tr[G_i rho] over the 15 basis operators, the inverse of
    ``reconstruction.coefficients_to_state``."""
    rho = require_density_matrix(rho)
    return np.einsum("iab,ba->i", TWO_QUBIT_BASIS, rho).real


def forward_model(rho0: np.ndarray, plan) -> np.ndarray:
    """Predicted w(+1/2, n_k, t_l) of a plan, ordered like the design rows."""
    return 0.5 + build_design_matrix(plan).matrix @ state_to_coefficients(rho0)


def identifiability(plan) -> tuple[int, float]:
    """(rank, condition number) of the plan's design matrix; rank 15 means
    the full initial state is reconstructible."""
    design = build_design_matrix(plan)
    return design.rank, design.condition_number


def individual_tomogram_unitary(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Diagonal of U rho U^dag in the product basis (joint probabilities)."""
    u = require_unitary(u)
    if u.shape != np.shape(rho):
        raise ValueError(f"unitary shape {u.shape} != state shape {np.shape(rho)}")
    rho = require_state(rho, len(u), "unitary dimension")
    return np.einsum("ia,ab,ib->i", u, rho, u.conj()).real
