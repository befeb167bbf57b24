import itertools
from math import lgamma

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import propagator, random_density_matrix, random_direction
from musrtomo.tomography import (
    SUPPORTED_SPINS,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    Direction,
    QuadratureGrid,
    SpinTomogram,
    angular_momentum_ops,
    clebsch_gordan,
    dual_basis,
    operator_symbol_on_grid,
    quantizer,
    reconstruct_from_sphere,
    reconstruct_qubit_three_directions,
    rotation_matrix,
    spin_dim,
    three_j,
    tomogram,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
PAULI = (SX, SY, SZ)


def racah_small_d(j, mp, m, beta):
    """Oracle: d^j_{mp,m}(beta) = <j mp|e^{-i beta Jy}|j m> by the Racah sum
    with log-factorials."""
    def lf(x):
        return lgamma(x + 1.0)

    kmin = int(round(max(0.0, m - mp)))
    kmax = int(round(min(j + m, j - mp)))
    pre = 0.5 * (lf(j + m) + lf(j - m) + lf(j + mp) + lf(j - mp))
    c, s = np.cos(beta / 2), np.sin(beta / 2)
    total = 0.0
    for k in range(kmin, kmax + 1):
        ln = pre - (lf(j + m - k) + lf(k) + lf(j - mp - k) + lf(k - m + mp))
        total += (-1.0) ** round(mp - m + k) * np.exp(ln) \
            * c ** round(2 * j - 2 * k + m - mp) * s ** round(2 * k - m + mp)
    return total


def racah_rotation(j, direction):
    """Oracle: e^{-i(m'-m)phi} d^j_{m'm}(theta), element by element."""
    ms = j - np.arange(int(round(2 * j)) + 1)
    return np.array([[np.exp(-1j * (mp - m) * direction.phi)
                      * racah_small_d(j, mp, m, direction.theta) for m in ms]
                     for mp in ms])


def small_d(j, beta):
    """d^j(beta) through the library: the rotation about y (phi = 0)."""
    return rotation_matrix(j, Direction(beta, 0.0))


class TestDirection:
    @given(theta=st.floats(0, np.pi), phi=st.floats(0, 2 * np.pi, exclude_max=True))
    @settings(deadline=None, max_examples=50)
    def test_unit_norm_and_perp(self, theta, phi):
        d = Direction(theta, phi)
        assert abs(np.linalg.norm(d.vector) - 1) < 1e-14
        assert abs(np.dot(d.n_perp, [0, 0, 1])) < 1e-14
        assert abs(np.linalg.norm(d.n_perp) - 1) < 1e-14

    def test_from_vector_roundtrip(self, rng):
        for _ in range(20):
            d = random_direction(rng)
            d2 = Direction.from_vector(d.vector)
            assert np.abs(d.vector - d2.vector).max() < 1e-12


class TestQuadratureGrid:
    def test_weights_positive_and_normalized(self):
        for j in (0.5, 1.0, 1.5, 2.0):
            grid = QuadratureGrid.for_spin(j)
            assert np.all(grid.weights > 0)
            assert abs(grid.weights.sum() - 1.0) < 1e-14

    def test_exact_sphere_moments(self):
        # analytic averages over the unit sphere: <nz^2> = 1/3,
        # <nz^4> = 1/5, <nx^2 ny^2> = 1/15, odd moments vanish
        grid = QuadratureGrid.for_spin(1.0)
        vecs = np.array([d.vector for d in grid.nodes()])
        w = grid.weights
        assert abs(np.dot(w, vecs[:, 2] ** 2) - 1 / 3) < 1e-14
        assert abs(np.dot(w, vecs[:, 2] ** 4) - 1 / 5) < 1e-14
        assert abs(np.dot(w, vecs[:, 0] ** 2 * vecs[:, 1] ** 2) - 1 / 15) < 1e-14
        for i in range(3):
            assert abs(np.dot(w, vecs[:, i])) < 1e-14
            assert abs(np.dot(w, vecs[:, i] ** 3)) < 1e-14

    def test_ppt_permutation_mirrors_phi(self):
        grid = QuadratureGrid.for_spin(0.5)
        perm = grid.ppt_permutation()
        nodes = grid.nodes()
        for i, node in enumerate(nodes):
            mirrored = nodes[perm[i]]
            assert abs(mirrored.theta - node.theta) < 1e-14
            assert abs((mirrored.phi + node.phi) % (2 * np.pi)) < 1e-14


class TestRotationMatrix:
    def test_identity_at_north_pole(self):
        assert np.allclose(rotation_matrix(0.5, Z_AXIS), np.eye(2))

    def test_qubit_closed_form(self, rng):
        # 2x2 rotation: [[c, -s e^{-i phi}], [s e^{i phi}, c]]
        for _ in range(10):
            d = random_direction(rng)
            c, s = np.cos(d.theta / 2), np.sin(d.theta / 2)
            ref = np.array([[c, -s * np.exp(-1j * d.phi)],
                            [s * np.exp(1j * d.phi), c]])
            assert np.abs(rotation_matrix(0.5, d) - ref).max() < 1e-14

    def test_matches_generator_exponential(self, rng):
        for j in (0.5, 1.0, 1.5, 2.0):
            jx, jy, jz = angular_momentum_ops(j)
            for _ in range(5):
                d = random_direction(rng)
                n = d.n_perp
                generated = propagator(n[0] * jx + n[1] * jy + n[2] * jz, d.theta)
                assert np.abs(rotation_matrix(j, d) - generated).max() <= 1e-12


class TestWignerSmallD:
    def test_half_spin_diagonal(self, rng):
        for beta in rng.uniform(0, np.pi, 5):
            assert abs(small_d(0.5, beta)[0, 0] - np.cos(beta / 2)) < 1e-14

    def test_identity_at_zero(self):
        for j in (0.5, 1.0, 1.5, 2.0):
            dim = int(2 * j) + 1
            assert np.abs(small_d(j, 0.0) - np.eye(dim)).max() < 1e-14

    def test_row_orthonormality(self, rng):
        # unitarity of the beta rotation, whose matrix is real
        for j in (0.5, 1.0, 1.5, 2.0):
            d = small_d(j, rng.uniform(0, np.pi))
            assert np.abs(d.imag).max() == 0.0
            assert np.abs((d.real ** 2).sum(axis=1) - 1).max() < 1e-12


class TestEverySupportedSpin:
    @given(j=st.sampled_from(SUPPORTED_SPINS), seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=40)
    def test_rotation_and_round_trips(self, j, seed):
        rng = np.random.default_rng(seed)
        d = random_direction(rng)
        assert np.abs(rotation_matrix(j, d) - racah_rotation(j, d)).max() <= 1e-13
        rho = random_density_matrix(int(round(2 * j)) + 1, rng)
        tom = SpinTomogram.from_state(rho, j)
        assert np.abs(reconstruct_from_sphere(tom) - rho).max() <= 1e-9


class TestThreeJ:
    def test_half_half_zero(self):
        # from <1/2 1/2, 1/2 -1/2|0 0> = 1/sqrt(2) and the 3j-CG conversion
        assert abs(three_j(0.5, 0.5, 0.0, 0.5, -0.5, 0.0) - 1 / np.sqrt(2)) < 1e-14

    def test_selection_rule(self):
        assert three_j(1, 1, 1, 1, 1, 1) == 0.0
        assert three_j(0.5, 0.5, 2.0, 0.5, -0.5, 0.0) == 0.0

    def test_orthogonality_sum(self):
        # sum_{m1,m2} (2 j3 + 1) * 3j^2 = 1 per valid (j3, m3), j <= 2
        js = [0.5, 1.0, 1.5, 2.0]
        for j1, j2 in itertools.product(js, js):
            j3 = abs(j1 - j2)
            while j3 <= j1 + j2 + 1e-9:
                for m3 in (j3 - np.arange(int(2 * j3) + 1)):
                    total = 0.0
                    for m1 in (j1 - np.arange(int(2 * j1) + 1)):
                        for m2 in (j2 - np.arange(int(2 * j2) + 1)):
                            total += (2 * j3 + 1) * three_j(j1, j2, j3, m1, m2, m3) ** 2
                    assert abs(total - 1) < 1e-12, (j1, j2, j3, m3)
                j3 += 1

    def test_cg_against_tabulated(self):
        assert abs(clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0.0, 0.0) - 1 / np.sqrt(2)) < 1e-14
        assert abs(clebsch_gordan(0.5, 0.5, 1.0, 1.0, 1.5, 1.5) - 1.0) < 1e-14


class TestTomogram:
    def test_up_state(self, up_state, rng):
        for _ in range(10):
            d = random_direction(rng)
            w = tomogram(up_state, 0.5, d)
            assert abs(w[0] - (1 + np.cos(d.theta)) / 2) < 1e-14
            assert abs(w[1] - (1 - np.cos(d.theta)) / 2) < 1e-14

    def test_maximally_mixed_isotropic(self, rng):
        for _ in range(5):
            w = tomogram(np.eye(2) / 2, 0.5, random_direction(rng))
            assert np.allclose(w, 0.5, atol=1e-14)

    def test_qubit_affine_form(self, rng):
        # w(m, n) = 1/2 + m Tr[rho (n.sigma)]
        for _ in range(20):
            rho = random_density_matrix(2, rng)
            d = random_direction(rng)
            w = tomogram(rho, 0.5, d)
            dot = sum(d.vector[i] * np.trace(rho @ PAULI[i]).real for i in range(3))
            assert abs(w[0] - (0.5 + 0.5 * dot)) < 1e-13
            assert abs(w[1] - (0.5 - 0.5 * dot)) < 1e-13

    @given(seed=st.integers(0, 10_000),
           theta=st.floats(0, np.pi), phi=st.floats(0, 2 * np.pi, exclude_max=True))
    @settings(deadline=None, max_examples=60)
    def test_normalized_and_nonnegative(self, seed, theta, phi):
        rng = np.random.default_rng(seed)
        j = rng.choice([0.5, 1.0])
        rho = random_density_matrix(int(2 * j) + 1, rng)
        w = tomogram(rho, j, Direction(theta, phi))
        assert abs(w.sum() - 1) <= 1e-12
        assert np.all(w >= -1e-12)


class TestQuantizer:
    def test_qubit_closed_form(self, rng):
        # I/2 + 3 m (n.sigma)
        for m in (0.5, -0.5):
            for _ in range(5):
                d = random_direction(rng)
                n = d.vector
                ref = np.eye(2) / 2 + 3 * m * sum(n[i] * PAULI[i] for i in range(3))
                assert np.abs(quantizer(0.5, m, d) - ref).max() < 1e-13

    def test_qubit_z_axis_values(self):
        assert np.allclose(quantizer(0.5, 0.5, Z_AXIS), np.diag([2.0, -1.0]), atol=1e-14)

    def test_sum_over_m_is_identity(self, rng):
        # direction independent, trace 2j+1
        for j in (0.5, 1.0):
            for _ in range(5):
                d = random_direction(rng)
                total = sum(quantizer(j, m, d) for m in (j - np.arange(int(2 * j) + 1)))
                assert np.abs(total - np.eye(int(2 * j) + 1)).max() < 1e-12

    def test_hermitian(self, rng):
        for j in (0.5, 1.0, 1.5):
            d = random_direction(rng)
            q = quantizer(j, j, d)
            assert np.abs(q - q.conj().T).max() < 1e-13


class TestSphereReconstruction:
    def test_up_state(self, up_state):
        tom = SpinTomogram.from_state(up_state, 0.5)
        assert np.abs(reconstruct_from_sphere(tom) - up_state).max() <= 1e-10

    def test_maximally_mixed(self):
        tom = SpinTomogram.from_state(np.eye(2) / 2, 0.5)
        assert np.abs(reconstruct_from_sphere(tom) - np.eye(2) / 2).max() <= 1e-12

    def test_random_roundtrips(self, rng):
        for j in (0.5, 1.0):
            dim = int(2 * j) + 1
            for _ in range(100):
                rho = random_density_matrix(dim, rng)
                tom = SpinTomogram.from_state(rho, j)
                assert np.abs(reconstruct_from_sphere(tom) - rho).max() <= 1e-9

    def test_biorthogonality_on_operators(self, rng):
        # symbol -> quantizer quadrature reproduces arbitrary Hermitian ops
        for j in (0.5, 1.0):
            dim = int(2 * j) + 1
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            op = (g + g.conj().T) / 2
            grid = QuadratureGrid.for_spin(j)
            sym = operator_symbol_on_grid(op, j, grid)
            rec = np.zeros((dim, dim), dtype=complex)
            for mi, m in enumerate(j - np.arange(dim)):
                for ni, node in enumerate(grid.nodes()):
                    rec += grid.weights[ni] * sym[mi, ni] * quantizer(j, m, node)
            assert np.abs(rec - op).max() < 1e-10


class TestDualBasis:
    def test_orthonormal_self_dual(self):
        l1, l2, l3 = dual_basis(X_AXIS, Y_AXIS, Z_AXIS)
        assert np.allclose(l1, [1, 0, 0], atol=1e-14)
        assert np.allclose(l2, [0, 1, 0], atol=1e-14)
        assert np.allclose(l3, [0, 0, 1], atol=1e-14)

    @given(seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=40)
    def test_defining_property(self, seed):
        rng = np.random.default_rng(seed)
        dirs = [random_direction(rng) for _ in range(3)]
        triple = np.dot(dirs[0].vector, np.cross(dirs[1].vector, dirs[2].vector))
        if abs(triple) < 1e-3:
            return
        ls = dual_basis(*dirs)
        for i in range(3):
            for j in range(3):
                assert abs(np.dot(ls[i], dirs[j].vector) - (i == j)) <= 1e-12


class TestThreeDirectionInverse:
    def test_up_state(self):
        rho = reconstruct_qubit_three_directions([1.0, 0.5, 0.5], [Z_AXIS, X_AXIS, Y_AXIS])
        assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-14

    def test_maximally_mixed(self):
        rho = reconstruct_qubit_three_directions([0.5, 0.5, 0.5], [Z_AXIS, X_AXIS, Y_AXIS])
        assert np.abs(rho - np.eye(2) / 2).max() < 1e-14

    def test_roundtrip_random_states_and_triads(self, rng):
        for _ in range(100):
            rho = random_density_matrix(2, rng)
            dirs = [random_direction(rng) for _ in range(3)]
            triple = np.dot(dirs[0].vector, np.cross(dirs[1].vector, dirs[2].vector))
            if abs(triple) < 1e-2:
                continue
            ws = [tomogram(rho, 0.5, d)[0] for d in dirs]
            rec = reconstruct_qubit_three_directions(ws, dirs)
            assert np.abs(rec - rho).max() <= 1e-12

    def test_orthogonal_triads_are_least_noisy(self, rng):
        # mean Frobenius error under w-noise: orthogonal beats a skewed triad
        rho = random_density_matrix(2, np.random.default_rng(4))
        orth = [Z_AXIS, X_AXIS, Y_AXIS]
        skew = [Z_AXIS, Direction(0.35, 0.0), Direction(0.35, 1.2)]
        sigma = 0.01

        def mean_error(dirs):
            ws = np.array([tomogram(rho, 0.5, d)[0] for d in dirs])
            errs = []
            for _ in range(1000):
                noisy = ws + rng.normal(0, sigma, 3)
                rec = reconstruct_qubit_three_directions(np.clip(noisy, 0, 1), dirs)
                errs.append(np.linalg.norm(rec - rho))
            return np.mean(errs)

        assert mean_error(orth) < mean_error(skew)


class TestSpinRule:
    @pytest.mark.parametrize("j, dim", [(0, 1), (0.5, 2), (1, 3), (1.5, 4), (2.0, 5),
                                        (np.float64(1.5), 4), (np.int64(1), 3), (7 / 2, 8)])
    def test_dimension_of_a_spin(self, j, dim):
        assert spin_dim(j) == dim and type(spin_dim(j)) is int

    def test_for_spin_is_degree_4j(self):
        assert [QuadratureGrid.for_spin(j).degree for j in SUPPORTED_SPINS] == [0, 2, 4, 6, 8]
