import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import propagator, random_density_matrix
from musrtomo.dynamics import propagator_hyperfine
from musrtomo.linalg import (
    SubsystemDims,
    eig_hermitian,
    kron,
    partial_trace,
    partial_transpose,
    require_density_matrix,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def rand_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_shapes_multiply(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        assert kron(a, b).shape == (6, 6)

    def test_local_z_sum_spectrum(self):
        # direct 4x4 eigensolve of (sz/2) x I + I x (sz/2)
        h = kron(SZ / 2, np.eye(2)) + kron(np.eye(2), SZ / 2)
        w, _ = eig_hermitian(h)
        assert np.allclose(w, [-1.0, 0.0, 0.0, 1.0], atol=1e-14)

    @given(seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=30)
    def test_mixed_product(self, seed):
        rng = np.random.default_rng(seed)
        a, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in "ac")
        b, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in "bd")
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1, np.abs(rhs).max())


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        out = partial_trace(kron(a, b), SubsystemDims(2, 3), keep="a")
        assert np.abs(out - a).max() <= 1e-13

    def test_polarized_muon_mixed_electron(self, up_state):
        rho = kron(up_state, np.eye(2) / 2)
        out = partial_trace(rho, SubsystemDims(2, 2), keep="a")
        assert np.allclose(out, up_state, atol=1e-14)

    def test_singlet_marginal_is_maximally_mixed(self, singlet):
        # 4x4 hand computation: both marginals of the singlet are I/2
        for keep in ("a", "b"):
            out = partial_trace(singlet, SubsystemDims(2, 2), keep=keep)
            assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_trace_preserving(self, rng):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        out = partial_trace(m, SubsystemDims(2, 3), keep="b")
        assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), SubsystemDims(2, 3), keep="a")


class TestPartialTranspose:
    def test_product_state(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        out = partial_transpose(kron(a, b), SubsystemDims(2, 2))
        assert np.allclose(out, kron(a.T, b), atol=1e-14)

    def test_singlet_spectrum(self, singlet):
        # 4x4 eigensolve: one -1/2 eigenvalue and three +1/2
        out = partial_transpose(singlet, SubsystemDims(2, 2))
        w, _ = eig_hermitian(out)
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-13)

    def test_involution(self, rng):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        dims = SubsystemDims(2, 3)
        assert np.allclose(partial_transpose(partial_transpose(m, dims), dims), m)

    def test_hermiticity_preserved(self, rng):
        h = rand_hermitian(rng, 4)
        out = partial_transpose(h, SubsystemDims(2, 2))
        assert np.abs(out - out.conj().T).max() < 1e-14

    def test_composition_with_other_factor_is_full_transpose(self, rng):
        # the electron-factor transpose, by hand: swap its two index slots
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        pt_e = m.reshape(2, 2, 2, 2).swapaxes(1, 3).reshape(4, 4)
        both = partial_transpose(pt_e, SubsystemDims(2, 2))
        assert np.allclose(both, m.T, atol=1e-14)


class TestEigHermitian:
    def test_pauli_x(self):
        w, v = eig_hermitian(SX)
        assert np.allclose(w, [-1, 1])
        assert np.allclose(v @ v.conj().T, np.eye(2), atol=1e-13)

    def test_hyperfine_spectrum(self):
        # singlet-triplet splitting of J.J for two spin-1/2
        ops = [SX / 2, np.array([[0, -1j], [1j, 0]]) / 2, SZ / 2]
        h = sum(kron(o, o) for o in ops)
        w, _ = eig_hermitian(h)
        assert np.allclose(w, [-0.75, 0.25, 0.25, 0.25], atol=1e-13)

    def test_identity(self):
        w, _ = eig_hermitian(np.eye(5))
        assert np.allclose(w, 1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_reconstruction_error(self, rng):
        for dim in (4, 6, 8):
            h = rand_hermitian(rng, dim)
            w, v = eig_hermitian(h)
            assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-12 * np.linalg.norm(h)
        assert np.all(np.diff(w) >= 0)


class TestPropagator:
    def test_zero_generator(self):
        assert np.allclose(propagator(np.zeros((3, 3)), 2.7), np.eye(3))

    def test_matches_hyperfine_closed_form(self):
        # tabulated 4x4 coupling propagator, entrywise
        omega0 = 1.3
        ops = [SX / 2, np.array([[0, -1j], [1j, 0]]) / 2, SZ / 2]
        h = omega0 * sum(kron(o, o) for o in ops)
        for t in (0.0, 0.42, 3.1, 17.0):
            assert np.abs(propagator(h, t) - propagator_hyperfine(omega0, t)).max() <= 1e-10

    def test_group_law_and_unitarity(self, rng):
        for _ in range(100):
            dim = rng.choice([4, 6])
            h = rand_hermitian(rng, dim)
            t1, t2 = rng.uniform(-5, 5, 2)
            u1, u2, u12 = propagator(h, t1), propagator(h, t2), propagator(h, t1 + t2)
            assert np.abs(u1 @ u2 - u12).max() <= 1e-11
            assert np.abs(u1 @ u1.conj().T - np.eye(dim)).max() <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            propagator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestDensityMatrixTolerances:
    """The check rejects a Hermitian defect |rho - rho^dag|_F above
    1e-10 max(|rho|_F, 1) and a trace error above 1e-10; pinned at 0.9 and
    1.1 times each bound, for one matrix and for one slice of a stack."""

    # unit trace and Hermitian: |rho|_F < 1 (scale 1) and |rho|_F = sqrt(13)
    BASES = [np.diag([0.7, 0.3]).astype(complex), np.diag([3.0, -2.0]).astype(complex)]

    @staticmethod
    def checked(rho, stacked):
        """require_density_matrix on rho, or on a stack holding it between
        two clean states."""
        if stacked:
            clean = np.eye(len(rho)) / len(rho)
            rho = np.array([clean, rho, clean])
        return require_density_matrix(rho)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("base", range(len(BASES)))
    @pytest.mark.parametrize("factor, ok", [(0.9, True), (1.1, False)])
    def test_hermitian_defect_bound(self, stacked, base, factor, ok):
        rho = self.BASES[base].copy()
        bound = 1e-10 * max(np.linalg.norm(rho), 1.0)
        # rho[0, 1] = i delta gives rho - rho^dag = i delta (E01 + E10), norm sqrt(2) delta
        rho[0, 1] = 1j * factor * bound / np.sqrt(2)
        if ok:
            self.checked(rho, stacked)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                self.checked(rho, stacked)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("base", range(len(BASES)))
    @pytest.mark.parametrize("error, ok", [(0.9e-10, True), (-0.9e-10, True),
                                           (1.1e-10, False), (-1.1e-10, False)])
    def test_trace_bound(self, stacked, base, error, ok):
        rho = self.BASES[base].copy()
        rho[1, 1] += error
        if ok:
            self.checked(rho, stacked)
        else:
            with pytest.raises(ValueError, match="trace"):
                self.checked(rho, stacked)
