"""The batched grid kernels (one cached rotation stack per spin and grid)
against the per-node routes they replace, kept here as oracles: a rotation
matrix, projector or quantizer per (m, node) and one state per instant, and
the total probability distribution from the full direct-sum rotation."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_density_matrix, random_direction
from musrtomo import linalg, tomography, twospin
from musrtomo.dynamics import HamiltonianSpec, PropagatorSpec, evolve_density, evolve_tomogram
from musrtomo.entanglement import _kernel_tensor
from musrtomo.tomography import (
    SUPPORTED_SPINS,
    QuadratureGrid,
    SpinTomogram,
    Z_AXIS,
    clebsch_gordan,
    operator_from_symbol,
    operator_symbol_on_grid,
    quantizer,
    reconstruct_from_sphere,
    rotation_matrix,
    rotations,
    spin_projections,
)
from musrtomo.linalg import kron
from musrtomo.twospin import (
    TwoSpinBasis,
    TwoSpinTomogram,
    cg_matrix,
    reconstruct_blockdiag,
    reconstruct_two_spin,
    total_pdf,
    total_pdf_on_grid,
)

TWO_SPIN_SHAPES = ((0.5, 0.5), (0.5, 1.0))
COUPLED_SHAPES = ((0.5, 0.5), (0.5, 1.0), (0.5, 1.5), (1.0, 1.0))


# --------------------------------------------------------------------------
# per-node oracles

def measurement_projector(j, m, direction):
    """Rank-one effect R|j m><j m|R^dag: projection m along ``direction``."""
    col = rotation_matrix(j, direction)[:, int(round(j - m))]
    return np.outer(col, col.conj())


def quantizer_per_node(j, m, direction):
    """R K_m R^dag with K_m = sum_L (2L+1) <j m|T^{L0}|j m> T^{L0}, the
    diagonals of the normalized T^{L0} taken from Clebsch-Gordan sums."""
    ms = spin_projections(j)
    kernel = np.zeros(len(ms))
    for ell in range(len(ms)):
        diag = np.array([clebsch_gordan(j, mm, ell, 0.0, j, mm) for mm in ms])
        diag /= np.linalg.norm(diag)
        kernel += (2 * ell + 1) * diag[int(round(j - m))] * diag
    r = rotation_matrix(j, direction)
    return (r * kernel) @ r.conj().T


def symbol_per_node(op, j, grid):
    """Tr[op R|j m><j m|R^dag], one rotation matrix per node."""
    cols = []
    for node in grid.nodes():
        r = rotation_matrix(j, node)
        cols.append(np.einsum("ai,ab,bi->i", r.conj(), op, r))
    return np.array(cols).T


def reconstruct_per_node(tom):
    """Quadrature sum of w_n w(m, n) quantizer(j, m, n), one term per (m, node)."""
    dim = int(round(2 * tom.j)) + 1
    rho = np.zeros((dim, dim), dtype=complex)
    for mi, m in enumerate(spin_projections(tom.j)):
        for ni, node in enumerate(tom.grid.nodes()):
            rho += tom.grid.weights[ni] * tom.values[mi, ni] * quantizer_per_node(tom.j, m, node)
    return rho


def two_spin_values_per_node(rho, j_mu, j_e, grid_mu, grid_e):
    """Individual tomogram from one projector per (m, node) and spin."""
    proj_mu = np.array([[measurement_projector(j_mu, m, node) for node in grid_mu.nodes()]
                        for m in spin_projections(j_mu)])
    proj_e = np.array([[measurement_projector(j_e, m, node) for node in grid_e.nodes()]
                       for m in spin_projections(j_e)])
    d_mu, d_e = len(proj_mu), len(proj_e)
    rho_t = rho.reshape(d_mu, d_e, d_mu, d_e)
    return np.einsum("acbd,miba,njdc->minj", rho_t, proj_mu, proj_e).real


def reconstruct_two_spin_per_node(w):
    """Double quadrature against one product quantizer per (m, node) pair."""
    quant_mu = np.array([[quantizer_per_node(w.j_mu, m, node) for node in w.grid_mu.nodes()]
                         for m in spin_projections(w.j_mu)])
    quant_e = np.array([[quantizer_per_node(w.j_e, m, node) for node in w.grid_e.nodes()]
                        for m in spin_projections(w.j_e)])
    wq = w.values * w.grid_mu.weights[None, :, None, None] \
        * w.grid_e.weights[None, None, None, :]
    rho_t = np.einsum("minj,miab,njcd->acbd", wq, quant_mu, quant_e)
    dim = w.values.shape[0] * w.values.shape[2]
    return rho_t.reshape(dim, dim)


def total_pdf_direct_sum(rho, j_mu, j_e, direction):
    """f^(L)(M, N) from the diagonal of the whole D x D conjugation of the
    coupled-basis state by U_CG (R^(j_mu) x R^(j_e)) U_CG^T, the direct sum
    of the spin-L rotations, split into blocks of 2L+1 entries."""
    ucg = cg_matrix(j_mu, j_e)
    u = ucg @ kron(rotation_matrix(j_mu, direction), rotation_matrix(j_e, direction)) @ ucg.T
    diag = np.einsum("ai,ab,bi->i", u.conj(), ucg @ rho @ ucg.T, u).real
    out, at = {}, 0
    for ell in TwoSpinBasis(j_mu, j_e).total_spins():
        d = int(round(2 * ell)) + 1
        out[ell] = diag[at:at + d]
        at += d
    return out


def reconstruct_blockdiag_per_node(f_samples, grid, j_mu, j_e):
    """Block-diagonal inverse as the quadrature sum of w_n f^(L)(m, n)
    quantizer(L, m, n), one term per (L, m, node)."""
    blocks = []
    for ell in TwoSpinBasis(j_mu, j_e).total_spins():
        d = int(round(2 * ell)) + 1
        block = np.zeros((d, d), dtype=complex)
        for mi, m in enumerate(spin_projections(ell)):
            for ni, node in enumerate(grid.nodes()):
                block += grid.weights[ni] * f_samples[ell][mi, ni] * quantizer(ell, m, node)
        blocks.append(block)
    dim = sum(len(block) for block in blocks)
    out, at = np.zeros((dim, dim), dtype=complex), 0
    for block in blocks:
        out[at:at + len(block), at:at + len(block)] = block
        at += len(block)
    return out


def blockdiag_state(rng, j_mu, j_e):
    """A random state that is block-diagonal in the coupled basis, in the
    product basis, with its coupled-basis matrix."""
    basis = TwoSpinBasis(j_mu, j_e)
    rho_coupled = np.zeros((basis.dim, basis.dim), dtype=complex)
    weights = rng.dirichlet(np.ones(len(basis.total_spins())))
    for weight, (ell, rows) in zip(weights, basis.blocks(), strict=True):
        rho_coupled[rows, rows] = weight * random_density_matrix(rows.stop - rows.start, rng)
    ucg = cg_matrix(j_mu, j_e)
    return ucg.T @ rho_coupled @ ucg, rho_coupled


def evolve_per_instant(rho0, unitary_of_t, times, j_mu, j_e):
    """One evolved state, unitary call and tomogram per instant."""
    grid_mu, grid_e = QuadratureGrid.for_spin(j_mu), QuadratureGrid.for_spin(j_e)
    return [two_spin_values_per_node(evolve_density(rho0, unitary_of_t(t)),
                                     j_mu, j_e, grid_mu, grid_e) for t in times]


def random_operator(dim, rng, *batch):
    return rng.normal(size=(*batch, dim, dim)) + 1j * rng.normal(size=(*batch, dim, dim))


# --------------------------------------------------------------------------
# batched kernels against the oracles

class TestAgainstPerNodeOracles:
    @given(j=st.sampled_from(SUPPORTED_SPINS), seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=25)
    def test_single_spin(self, j, seed):
        rng = np.random.default_rng(seed)
        dim = int(round(2 * j)) + 1
        grid = QuadratureGrid.for_spin(j)
        stack = rotations(j, grid)
        for r, node in zip(stack, grid.nodes(), strict=True):
            assert np.abs(r - rotation_matrix(j, node)).max() <= 1e-13
        for m in spin_projections(j):
            assert np.abs(quantizer(j, m, grid.nodes()[-1])
                          - quantizer_per_node(j, m, grid.nodes()[-1])).max() <= 1e-13
        rho = random_density_matrix(dim, rng)
        tom = SpinTomogram.from_state(rho, j)
        assert np.abs(tom.values - symbol_per_node(rho, j, grid).real).max() <= 1e-13
        assert np.abs(reconstruct_from_sphere(tom) - reconstruct_per_node(tom)).max() <= 1e-13
        ops = random_operator(dim, rng, 3)
        got = operator_symbol_on_grid(ops, j, grid)
        for op, sym in zip(ops, got, strict=True):
            assert np.abs(sym - symbol_per_node(op, j, grid)).max() <= 1e-13

    @given(shape=st.sampled_from(TWO_SPIN_SHAPES), seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=15)
    def test_two_spin(self, shape, seed):
        rng = np.random.default_rng(seed)
        j_mu, j_e = shape
        rho = random_density_matrix(int(round((2 * j_mu + 1) * (2 * j_e + 1))), rng)
        w = TwoSpinTomogram.from_state(rho, j_mu, j_e)
        want = two_spin_values_per_node(rho, j_mu, j_e, w.grid_mu, w.grid_e)
        assert np.abs(w.values - want).max() <= 1e-13
        assert np.abs(reconstruct_two_spin(w) - reconstruct_two_spin_per_node(w)).max() <= 1e-13

    @given(shape=st.sampled_from(TWO_SPIN_SHAPES), seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=10)
    def test_evolve_tomogram(self, shape, seed):
        rng = np.random.default_rng(seed)
        j_mu, j_e = shape
        prop = PropagatorSpec(HamiltonianSpec.hyperfine(rng.uniform(1.0, 5.0), j_e))
        rho0 = random_density_matrix(prop.hamiltonian.dim, rng)
        times = rng.uniform(0.0, 3.0, 3)
        got = evolve_tomogram(rho0, prop.unitary, times, j_mu, j_e)
        want = evolve_per_instant(rho0, prop.unitary, times, j_mu, j_e)
        for tom, ref in zip(got, want, strict=True):
            assert np.abs(tom.values - ref).max() <= 1e-13


    @given(shape=st.sampled_from(COUPLED_SHAPES), seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=12)
    def test_total_routes(self, shape, seed):
        rng = np.random.default_rng(seed)
        j_mu, j_e = shape
        rho, rho_coupled = blockdiag_state(rng, j_mu, j_e)
        generic = random_density_matrix(len(rho), rng)
        for _ in range(3):
            direction = random_direction(rng)
            for state in (rho, generic):
                got, want = total_pdf(state, j_mu, j_e, direction), \
                    total_pdf_direct_sum(state, j_mu, j_e, direction)
                assert list(got) == list(want)
                for ell in want:
                    assert np.abs(got[ell] - want[ell]).max() <= 1e-13
        grid = QuadratureGrid.for_spin(j_mu + j_e)
        samples = total_pdf_on_grid(rho, j_mu, j_e, grid)
        rec = reconstruct_blockdiag(samples, grid, j_mu, j_e)
        assert np.abs(rec - reconstruct_blockdiag_per_node(samples, grid, j_mu, j_e)).max() \
            <= 1e-13
        assert np.abs(rec - rho_coupled).max() <= 1e-12


class TestCachedTables:
    @pytest.mark.parametrize("j", [0.5, 2.0])
    def test_two_degrees_get_two_stacks(self, j, rng):
        grid = QuadratureGrid.for_spin(j)
        finer = QuadratureGrid(grid.degree + 2)
        rho = random_density_matrix(int(round(2 * j)) + 1, rng)
        SpinTomogram.from_state(rho, j, grid)  # fills the default grid's stack first
        tom = SpinTomogram.from_state(rho, j, finer)
        assert np.abs(tom.values - symbol_per_node(rho, j, finer).real).max() <= 1e-13
        assert np.abs(reconstruct_from_sphere(tom) - rho).max() <= 1e-9
        assert finer != grid and finer.n_nodes > grid.n_nodes
        assert rotations(j, finer).shape[0] == finer.n_nodes
        assert tomography._grid_tables(j, finer)[0].shape[1] > \
            tomography._grid_tables(j, grid)[0].shape[1]

    def test_equal_grids_share_a_stack(self):
        grid = QuadratureGrid.for_spin(1.0)
        twin = QuadratureGrid(4)
        assert twin is not grid
        assert twin == grid and hash(twin) == hash(grid)
        assert twin.thetas is grid.thetas and twin.phis is grid.phis
        assert rotations(1.0, twin) is rotations(1.0, grid)
        assert QuadratureGrid.of_degree(4) is grid

    def test_a_grid_is_its_degree(self):
        grid = QuadratureGrid.for_spin(1.0)
        assert grid == QuadratureGrid(4) and repr(grid) == "QuadratureGrid(degree=4)"
        assert QuadratureGrid(4) != QuadratureGrid(6)
        tables = tomography._grid_tables(1.0, grid)
        before = tomography._grid_tables.cache_info()
        assert tomography._grid_tables(1.0, QuadratureGrid(4)) is tables
        after = tomography._grid_tables.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)
        assert after.hits == before.hits + 1
        with pytest.raises(AttributeError):
            grid.thetas = grid.thetas  # frozen

    @pytest.mark.parametrize("degree", [-3, -1, True, False, 2.5, 4.0, "4", None])
    def test_degree_must_be_a_nonnegative_integer(self, degree):
        with pytest.raises(ValueError, match=f"grid degree must be an integer >= 0, "
                                             f"got {re.escape(repr(degree))}"):
            QuadratureGrid(degree)

    @pytest.mark.parametrize("degree", [0, 3, np.int64(4)])
    def test_integer_degrees_build_grids(self, degree):
        grid = QuadratureGrid(degree)
        assert grid.degree == degree and grid.weights.sum() == pytest.approx(1.0)

    def test_cached_arrays_are_read_only(self):
        grid = QuadratureGrid.for_spin(1.5)
        for table in (grid.thetas, grid.theta_weights, grid.phis, rotations(1.5, grid),
                      *tomography._grid_tables(1.5, grid),
                      _kernel_tensor(QuadratureGrid.for_spin(0.5))):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    def test_unsupported_spin(self):
        with pytest.raises(ValueError, match="unsupported spin"):
            rotations(2.5, QuadratureGrid.for_spin(2.5))

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (2, 3), (3, 3), (2, 2, 1)])
    def test_symbol_rejects_a_misshapen_operator(self, shape):
        # (1, 4) has the size of a 2 x 2 operator, which a bare reshape would take
        with pytest.raises(ValueError, match=r"\(2j\+1, 2j\+1\) = \(2, 2\)"):
            operator_symbol_on_grid(np.ones(shape), 0.5, QuadratureGrid.for_spin(0.5))

    @pytest.mark.parametrize("shape", [(24,), (12, 2), (2, 11), (3, 12), (2, 12, 1)])
    def test_inverse_rejects_a_misshapen_symbol(self, shape):
        # (12, 2) is the transposed symbol, the same size as the right one
        with pytest.raises(ValueError, match=r"\(2j\+1, grid.n_nodes\) = \(2, 12\)"):
            operator_from_symbol(np.ones(shape), 0.5, QuadratureGrid.for_spin(0.5))


def test_round_trips_build_no_per_node_matrices_after_warm_up(monkeypatch, rng):
    """After one warm-up, a j = 2 sphere round trip, 1/2 x 1 and 1/2 x 1/2
    two-spin round trips (the latter on hand-built grids), the 1/2 x 1
    block-diagonal inverse and a 1/2 x 1/2 tomogram evolution call no
    rotation_matrix, quantizer, leggauss or moveaxis, and build no grid
    arrays and no symbol or quantizer table."""
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (tomography, twospin):
        counted(module, "rotation_matrix")
    counted(tomography, "quantizer")
    counted(np.polynomial.legendre, "leggauss")
    counted(np, "moveaxis")
    rho4, rho5, rho6 = (random_density_matrix(d, rng) for d in (4, 5, 6))
    grid = QuadratureGrid.for_spin(1.5)
    samples = total_pdf_on_grid(blockdiag_state(rng, 0.5, 1.0)[0], 0.5, 1.0, grid)
    prop = PropagatorSpec(HamiltonianSpec.hyperfine(4.453))

    def round_trips():
        reconstruct_from_sphere(SpinTomogram.from_state(rho5, 2.0))
        reconstruct_two_spin(TwoSpinTomogram.from_state(rho6, 0.5, 1.0))
        reconstruct_two_spin(TwoSpinTomogram.from_state(rho4, 0.5, 0.5, QuadratureGrid(2),
                                                         QuadratureGrid(2)))
        reconstruct_blockdiag(samples, grid, 0.5, 1.0)
        evolve_tomogram(rho4, prop.unitary, [0.0, 0.3, 1.1])

    round_trips()
    calls.clear()
    caches = (tomography._grid_arrays, tomography.rotations, tomography._grid_tables)
    built = [cache.cache_info().misses for cache in caches]
    round_trips()
    assert calls == {}
    assert [cache.cache_info().misses for cache in caches] == built
    tomography.quantizer(0.5, 0.5, Z_AXIS)  # the counters do count
    assert calls == {"quantizer": 1, "rotation_matrix": 1}


def test_two_spin_round_trips_check_each_input_once(monkeypatch, rng):
    """After one warm-up, a 1/2 x 1/2 and a 1/2 x 1 round trip each check the
    state once (require_density_matrix) and the tomogram once
    (require_probabilities), and build no rotation stack and no symbol or
    quantizer table."""
    checks = ("require_density_matrix", "require_probabilities")
    calls = Counter()
    for module in (linalg, tomography, twospin):
        for name in checks:
            if hasattr(module, name):
                real = getattr(module, name)

                def wrapper(*args, _real=real, _name=name, **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, wrapper)
    states = {j_e: random_density_matrix(2 * int(2 * j_e + 1), rng) for j_e in (0.5, 1.0)}
    for j_e, rho in states.items():
        reconstruct_two_spin(TwoSpinTomogram.from_state(rho, 0.5, j_e))
    caches = (tomography.rotations, tomography._grid_tables)
    for j_e, rho in states.items():
        calls.clear()
        built = [cache.cache_info().misses for cache in caches]
        out = reconstruct_two_spin(TwoSpinTomogram.from_state(rho, 0.5, j_e))
        assert calls == {name: 1 for name in checks}
        assert [cache.cache_info().misses for cache in caches] == built
        assert np.abs(out - rho).max() <= 1e-12


def test_two_spin_round_trip_builds_no_basis(monkeypatch, rng):
    """A 1/2 x 1/2 round trip on the default grids reads the dimensions from
    tomography.spin_dim alone: it builds no TwoSpinBasis."""
    built = []
    real = twospin.TwoSpinBasis.__post_init__

    def counted(self):
        built.append((self.j_mu, self.j_e))
        real(self)

    monkeypatch.setattr(twospin.TwoSpinBasis, "__post_init__", counted)
    rho = random_density_matrix(4, rng)
    reconstruct_two_spin(TwoSpinTomogram.from_state(rho, 0.5, 0.5))  # warm-up
    built.clear()
    out = reconstruct_two_spin(TwoSpinTomogram.from_state(rho, 0.5, 0.5))
    assert built == []
    assert np.abs(out - rho).max() <= 1e-12
    TwoSpinBasis(0.5, 0.5)  # the counter does count
    assert built == [(0.5, 0.5)]
