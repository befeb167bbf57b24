from collections import Counter

import numpy as np
import pytest

from conftest import random_density_matrix, random_direction
from musrtomo import linalg, tomography, twospin
from musrtomo.dynamics import initial_muonium_state, propagator_hyperfine
from musrtomo.linalg import kron
from musrtomo.tomography import (
    QuadratureGrid,
    Z_AXIS,
    angular_momentum_ops,
    rotation_matrix,
    tomogram,
)
from musrtomo.twospin import (
    TwoSpinBasis,
    TwoSpinTomogram,
    blockdiag_rotation,
    cg_matrix,
    individual_tomogram,
    individual_tomogram_unitary,
    reconstruct_blockdiag,
    reconstruct_two_spin,
    reduced_tomogram,
    total_from_individual,
    total_pdf,
    total_pdf_on_grid,
    total_tomogram,
)

EQ14_MATRIX = np.array([
    [1, 0, 0, 0],
    [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0],
    [0, 0, 0, 1],
    [0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0],
])


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestTwoSpinBasis:
    @pytest.mark.parametrize("j_mu", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("j_e", [0.5, 1.0, 1.5, 2.0])
    def test_blocks_tile_the_coupled_basis_in_order(self, j_mu, j_e):
        basis = TwoSpinBasis(j_mu, j_e)
        blocks = basis.blocks()
        assert [ell for ell, _ in blocks] == basis.total_spins()
        stops = [0] + [rows.stop for _, rows in blocks]
        assert [rows.start for _, rows in blocks] == stops[:-1] and stops[-1] == basis.dim
        labels = basis.coupled_labels()
        for ell, rows in blocks:
            assert [label[0] for label in labels[rows]] == [ell] * (int(round(2 * ell)) + 1)


class TestCGMatrix:
    def test_two_qubit_explicit(self):
        assert np.abs(cg_matrix(0.5, 0.5) - EQ14_MATRIX).max() < 1e-14

    def test_unitary(self):
        for j_e in (0.5, 1.0, 1.5):
            u = cg_matrix(0.5, j_e)
            assert np.abs(u @ u.T - np.eye(u.shape[0])).max() < 1e-13

    def test_qubit_qutrit_stretched(self):
        u = cg_matrix(0.5, 1.0)
        # |3/2,3/2> = |1/2,1/2>|1,1>, first row and column
        assert abs(u[0, 0] - 1.0) < 1e-14
        assert np.abs(u[0, 1:]).max() < 1e-14

    def test_diagonalizes_total_spin(self, rng):
        # independent check: U_CG must map J_tot^2 and J_tot_z to diagonals
        # with the (L desc, M desc) eigenvalue layout
        for j_e in (0.5, 1.0):
            basis = TwoSpinBasis(0.5, j_e)
            u = cg_matrix(0.5, j_e)
            ops_mu = angular_momentum_ops(0.5)
            ops_e = angular_momentum_ops(j_e)
            d_e = int(2 * j_e) + 1
            j_tot = [kron(a, np.eye(d_e)) + kron(np.eye(2), b)
                     for a, b in zip(ops_mu, ops_e)]
            j_sq = sum(j @ j for j in j_tot)
            expect_sq = np.array([ell * (ell + 1) for ell, _ in basis.coupled_labels()])
            expect_z = np.array([m for _, m in basis.coupled_labels()])
            got_sq = u @ j_sq @ u.T
            got_z = u @ j_tot[2] @ u.T
            assert np.abs(got_sq - np.diag(expect_sq)).max() < 1e-12
            assert np.abs(got_z - np.diag(expect_z)).max() < 1e-12


class TestIndividualTomogramUnitary:
    def test_identity_on_fresh_muonium(self):
        w = individual_tomogram_unitary(initial_muonium_state(), np.eye(4))
        assert np.allclose(w, [0.5, 0.5, 0.0, 0.0], atol=1e-14)

    def test_maximally_mixed(self, rng):
        u = random_unitary(rng, 4)
        w = individual_tomogram_unitary(np.eye(4) / 4, u)
        assert np.allclose(w, 0.25, atol=1e-13)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            individual_tomogram_unitary(np.eye(4) / 4, np.diag([1.0, 1.0, 1.0, 0.5]))

    def test_rejects_a_non_finite_unitary(self):
        u = np.eye(4)
        u[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            individual_tomogram_unitary(np.eye(4) / 4, u)
        with pytest.raises(ValueError, match="finite"):
            total_tomogram(np.eye(4) / 4, 0.5, 0.5, u)

    def test_rejects_non_square(self):
        # a 3x4 isometry passes u u^dag = I but is no unitary
        isometry = np.eye(4)[:3]
        with pytest.raises(ValueError, match=r"square matrix, got shape \(3, 4\)"):
            individual_tomogram_unitary(np.eye(4) / 4, isometry)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match=r"unitary shape \(3, 3\) != state shape \(4, 4\)"):
            individual_tomogram_unitary(np.eye(4) / 4, np.eye(3))

    def test_matches_analytic_free_evolution(self, rng):
        # rotations composed with the coupling propagator reproduce the
        # closed-form evolved tomogram
        from musrtomo.dynamics import analytic_free_mu
        omega0, t = 4.453, 0.37
        u_t = propagator_hyperfine(omega0, t)
        rho0 = initial_muonium_state()
        for _ in range(5):
            d_mu, d_e = random_direction(rng), random_direction(rng)
            u = kron(rotation_matrix(0.5, d_mu), rotation_matrix(0.5, d_e)).conj().T @ u_t
            w = individual_tomogram_unitary(rho0, u).reshape(2, 2)
            for mi, m_mu in enumerate((0.5, -0.5)):
                for mj, m_e in enumerate((0.5, -0.5)):
                    ref = analytic_free_mu(m_mu, d_mu, m_e, d_e, t, omega0)
                    assert abs(w[mi, mj] - ref) < 1e-13


class TestIndividualTomogram:
    def test_product_state_factorizes(self, rng):
        rho_mu = random_density_matrix(2, rng)
        rho_e = random_density_matrix(2, rng)
        d_mu, d_e = random_direction(rng), random_direction(rng)
        w = individual_tomogram(kron(rho_mu, rho_e), 0.5, 0.5, d_mu, d_e)
        outer = np.outer(tomogram(rho_mu, 0.5, d_mu), tomogram(rho_e, 0.5, d_e))
        assert np.abs(w - outer).max() < 1e-13

    def test_fresh_muonium_form(self, rng):
        # w = (1/2)(1/2 + m_mu * nz_mu), independent of the electron slot
        rho0 = initial_muonium_state()
        for _ in range(5):
            d_mu, d_e = random_direction(rng), random_direction(rng)
            w = individual_tomogram(rho0, 0.5, 0.5, d_mu, d_e)
            nz = d_mu.vector[2]
            for mi, m_mu in enumerate((0.5, -0.5)):
                assert np.allclose(w[mi], 0.5 * (0.5 + m_mu * nz), atol=1e-13)

    def test_singlet_anticorrelated(self, singlet, rng):
        d = random_direction(rng)
        w = individual_tomogram(singlet, 0.5, 0.5, d, d)
        assert abs(w[0, 0]) < 1e-13 and abs(w[1, 1]) < 1e-13
        assert abs(w[0, 1] - 0.5) < 1e-13 and abs(w[1, 0] - 0.5) < 1e-13


    def test_rejects_a_stack(self):
        with pytest.raises(ValueError, match=r"expected one density matrix, got a stack "
                                             r"of shape \(2, 4, 4\)"):
            individual_tomogram(np.stack([np.eye(4) / 4] * 2), 0.5, 0.5, Z_AXIS, Z_AXIS)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match=r"density matrix dimension 6 != "
                                             r"\(2j_mu\+1\)\(2j_e\+1\) = 4"):
            individual_tomogram(np.eye(6) / 6, 0.5, 0.5, Z_AXIS, Z_AXIS)


class TestReducedTomogram:
    def test_checks_the_state_once(self, monkeypatch, rng):
        calls = Counter()
        for module in (linalg, tomography, twospin):
            if hasattr(module, "require_density_matrix"):
                real = module.require_density_matrix

                def wrapper(*args, _real=real, **kwargs):
                    calls["require_density_matrix"] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, "require_density_matrix", wrapper)
        rho, d_mu = random_density_matrix(6, rng), random_direction(rng)
        w = reduced_tomogram(rho, 0.5, 1.0, d_mu)
        assert calls == {"require_density_matrix": 1}
        ref = individual_tomogram(rho, 0.5, 1.0, d_mu, Z_AXIS).sum(axis=1)
        assert np.abs(w - ref).max() <= 1e-13

    def test_fresh_muonium(self, rng):
        rho0 = initial_muonium_state()
        d = random_direction(rng)
        w = reduced_tomogram(rho0, 0.5, 0.5, d)
        nz = d.vector[2]
        assert np.allclose(w, [(1 + nz) / 2, (1 - nz) / 2], atol=1e-13)

    def test_maximally_mixed(self, rng):
        w = reduced_tomogram(np.eye(4) / 4, 0.5, 0.5, random_direction(rng))
        assert np.allclose(w, 0.5, atol=1e-13)

    def test_non_signalling_marginal(self, rng):
        # summing out the electron reproduces the reduced tomogram for any
        # electron direction
        for _ in range(50):
            rho = random_density_matrix(4, rng)
            d_mu = random_direction(rng)
            ref = reduced_tomogram(rho, 0.5, 0.5, d_mu)
            for _ in range(3):
                w = individual_tomogram(rho, 0.5, 0.5, d_mu, random_direction(rng))
                assert np.abs(w.sum(axis=1) - ref).max() <= 1e-13

    def test_resolution_of_identity(self, rng):
        for j in (0.5, 1.0):
            d = random_direction(rng)
            r = rotation_matrix(j, d)
            total = sum(np.outer(r[:, k].conj(), r[:, k]).T for k in range(r.shape[0]))
            assert np.abs(total - np.eye(r.shape[0])).max() <= 1e-13


class TestTotalTomogram:
    def test_singlet_sits_in_l0(self, singlet):
        w = total_tomogram(singlet, 0.5, 0.5, np.eye(4))
        assert np.allclose(w, [0, 0, 0, 1], atol=1e-13)

    def test_fresh_muonium_weights(self):
        # coupled-basis diagonal of diag(1/2, 1/2, 0, 0)
        w = total_tomogram(initial_muonium_state(), 0.5, 0.5, np.eye(4))
        assert np.allclose(w, [0.5, 0.25, 0.0, 0.25], atol=1e-14)

    def test_maximally_mixed(self, rng):
        w = total_tomogram(np.eye(4) / 4, 0.5, 0.5, random_unitary(rng, 4))
        assert np.allclose(w, 0.25, atol=1e-13)

    def test_same_diagonal_as_individual_in_rotated_basis(self, rng):
        # the two tomograms are diagonals of one conjugated matrix
        for _ in range(10):
            rho = random_density_matrix(4, rng)
            u = random_unitary(rng, 4)
            lhs = total_tomogram(rho, 0.5, 0.5, u)
            rhs = individual_tomogram_unitary(rho, cg_matrix(0.5, 0.5) @ u)
            assert np.abs(lhs - rhs).max() < 1e-13


class TestBlockdiagRotation:
    def test_identity_at_north_pole(self):
        assert np.allclose(blockdiag_rotation(0.5, 0.5, Z_AXIS), np.eye(4), atol=1e-14)

    def test_equals_cg_conjugated_product(self, rng):
        # both sides computed independently, spins (1/2,1/2) and (1/2,1)
        for j_e in (0.5, 1.0):
            ucg = cg_matrix(0.5, j_e)
            for _ in range(50):
                d = random_direction(rng)
                lhs = blockdiag_rotation(0.5, j_e, d)
                rhs = ucg @ kron(rotation_matrix(0.5, d), rotation_matrix(j_e, d)) @ ucg.T
                assert np.abs(lhs - rhs).max() <= 1e-12

    def test_block_structure(self, rng):
        u = blockdiag_rotation(0.5, 1.0, random_direction(rng))
        assert np.abs(u[:4, 4:]).max() < 1e-13
        assert np.abs(u[4:, :4]).max() < 1e-13


class TestTotalPdf:
    def test_singlet_invariant(self, singlet, rng):
        for _ in range(5):
            f = total_pdf(singlet, 0.5, 0.5, random_direction(rng))
            assert abs(f[0.0][0] - 1.0) < 1e-13
            assert np.abs(f[1.0]).max() < 1e-13

    def test_stretched_triplet(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |1,1> in both bases
        f = total_pdf(rho, 0.5, 0.5, Z_AXIS)
        assert abs(f[1.0][0] - 1.0) < 1e-14

    def test_blind_to_cross_block_coherence(self, rng):
        # a singlet-triplet coherence changes the state but not f^(L)(M, N)
        ucg = cg_matrix(0.5, 0.5)
        rho_coupled = np.diag([0.3, 0.2, 0.1, 0.4]).astype(complex)
        rho_plain = ucg.T @ rho_coupled @ ucg
        rho_coupled[0, 3] = rho_coupled[3, 0] = 0.1
        rho_coherent = ucg.T @ rho_coupled @ ucg
        assert np.abs(rho_plain - rho_coherent).max() > 0.01
        for _ in range(10):
            d = random_direction(rng)
            fa = total_pdf(rho_plain, 0.5, 0.5, d)
            fb = total_pdf(rho_coherent, 0.5, 0.5, d)
            for ell in fa:
                assert np.abs(fa[ell] - fb[ell]).max() < 1e-13


class TestReconstructBlockdiag:
    def grid(self):
        return QuadratureGrid.for_spin(1.0)

    def test_singlet(self, singlet):
        f = total_pdf_on_grid(singlet, 0.5, 0.5, self.grid())
        rec = reconstruct_blockdiag(f, self.grid(), 0.5, 0.5)
        expect = np.diag([0, 0, 0, 1.0])
        assert np.abs(rec - expect).max() <= 1e-10

    def test_random_blockdiagonal_roundtrip(self, rng):
        ucg = cg_matrix(0.5, 0.5)
        for _ in range(10):
            block3 = random_density_matrix(3, rng) * 0.7
            rho_coupled = np.zeros((4, 4), dtype=complex)
            rho_coupled[:3, :3] = block3
            rho_coupled[3, 3] = 0.3
            rho = ucg.T @ rho_coupled @ ucg
            f = total_pdf_on_grid(rho, 0.5, 0.5, self.grid())
            rec = reconstruct_blockdiag(f, self.grid(), 0.5, 0.5)
            assert np.abs(rec - rho_coupled).max() <= 1e-9

    def test_werner_state(self, singlet, rng):
        p = 0.6
        rho = p * singlet + (1 - p) * np.eye(4) / 4
        f = total_pdf_on_grid(rho, 0.5, 0.5, self.grid())
        rec = reconstruct_blockdiag(f, self.grid(), 0.5, 0.5)
        ucg = cg_matrix(0.5, 0.5)
        assert np.abs(rec - ucg @ rho @ ucg.T).max() <= 1e-9


class TestTotalRouteBoundaries:
    WRONG_DIM = (np.eye(3) / 3, r"density matrix dimension 3 != \(2j_mu\+1\)\(2j_e\+1\) = 4")
    STACK = (np.stack([np.eye(4) / 4] * 2),
             r"expected one density matrix, got a stack of shape \(2, 4, 4\)")
    ROUTES = {
        "total_pdf": lambda rho: total_pdf(rho, 0.5, 0.5, Z_AXIS),
        "total_pdf_on_grid": lambda rho: total_pdf_on_grid(rho, 0.5, 0.5,
                                                           QuadratureGrid.for_spin(1.0)),
        "total_tomogram": lambda rho: total_tomogram(rho, 0.5, 0.5, np.eye(4)),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("case", ["wrong_dim", "stack"])
    def test_state_is_one_matrix_of_the_basis_dimension(self, route, case):
        rho, message = self.WRONG_DIM if case == "wrong_dim" else self.STACK
        with pytest.raises(ValueError, match=message):
            self.ROUTES[route](rho)

    @pytest.mark.parametrize("u", [np.eye(3), np.eye(4)[:3]], ids=["3x3", "3x4"])
    def test_unitary_of_the_basis_dimension(self, u, singlet):
        with pytest.raises(ValueError, match=r"unitary shape \(3, [34]\) != \(4, 4\)"):
            total_tomogram(singlet, 0.5, 0.5, u)
        with pytest.raises(ValueError, match=r"unitary shape \(3, [34]\) != \(4, 4\)"):
            total_from_individual(TwoSpinTomogram.from_state(singlet, 0.5, 0.5), u)

    def samples(self, singlet):
        grid = QuadratureGrid.for_spin(1.0)
        return total_pdf_on_grid(singlet, 0.5, 0.5, grid), grid

    def test_blockdiag_rejects_missing_l(self, singlet):
        f, grid = self.samples(singlet)
        del f[0.0]
        with pytest.raises(ValueError, match=r"f_samples holds L = \[1.0\], "
                                             r"the basis L = \[1.0, 0.0\]"):
            reconstruct_blockdiag(f, grid, 0.5, 0.5)

    def test_blockdiag_rejects_extra_l(self, singlet):
        f, grid = self.samples(singlet)
        f[2.0] = np.zeros((5, grid.n_nodes))
        with pytest.raises(ValueError, match="f_samples holds L"):
            reconstruct_blockdiag(f, grid, 0.5, 0.5)

    def test_blockdiag_rejects_wrong_block_shape(self, singlet):
        f, grid = self.samples(singlet)
        f[1.0] = f[1.0][:, :-1]
        with pytest.raises(ValueError, match=rf"f_samples\[1.0\] has shape \(3, "
                                             rf"{grid.n_nodes - 1}\), not \(3, {grid.n_nodes}\)"):
            reconstruct_blockdiag(f, grid, 0.5, 0.5)


class TestReconstructTwoSpin:
    def test_random_two_qubit(self, rng):
        for _ in range(50):
            rho = random_density_matrix(4, rng)
            w = TwoSpinTomogram.from_state(rho, 0.5, 0.5)
            assert np.abs(reconstruct_two_spin(w) - rho).max() <= 1e-9

    def test_product_state(self, rng):
        rho = kron(random_density_matrix(2, rng), random_density_matrix(2, rng))
        w = TwoSpinTomogram.from_state(rho, 0.5, 0.5)
        assert np.abs(reconstruct_two_spin(w) - rho).max() <= 1e-10

    def test_qubit_qutrit(self, rng):
        for _ in range(10):
            rho = random_density_matrix(6, rng)
            w = TwoSpinTomogram.from_state(rho, 0.5, 1.0)
            assert np.abs(reconstruct_two_spin(w) - rho).max() <= 1e-9

    def test_insufficient_grid_rejected(self, rng):
        rho = random_density_matrix(6, rng)
        coarse = QuadratureGrid.of_degree(2)
        w = TwoSpinTomogram.from_state(rho, 0.5, 1.0, grid_e=coarse)
        with pytest.raises(ValueError):
            reconstruct_two_spin(w)


class TestTotalFromIndividual:
    def test_agrees_with_direct_path(self, rng):
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            u = random_unitary(rng, 4)
            w = TwoSpinTomogram.from_state(rho, 0.5, 0.5)
            lhs = total_from_individual(w, u)
            rhs = total_tomogram(rho, 0.5, 0.5, u)
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_maximally_mixed(self, rng):
        w = TwoSpinTomogram.from_state(np.eye(4) / 4, 0.5, 0.5)
        out = total_from_individual(w, random_unitary(rng, 4))
        assert np.allclose(out, 0.25, atol=1e-10)

    def test_fresh_muonium(self):
        w = TwoSpinTomogram.from_state(initial_muonium_state(), 0.5, 0.5)
        out = total_from_individual(w, np.eye(4))
        assert np.allclose(out, [0.5, 0.25, 0.0, 0.25], atol=1e-10)


class TestTwoSpinTomogramContainer:
    def test_from_state_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match=r"density matrix dimension 3 != "
                                             r"\(2j_mu\+1\)\(2j_e\+1\) = 4"):
            TwoSpinTomogram.from_state(np.eye(3) / 3, 0.5, 0.5)

    def test_from_state_rejects_a_stack(self):
        with pytest.raises(ValueError, match=r"expected one density matrix, got a stack "
                                             r"of shape \(2, 4, 4\)"):
            TwoSpinTomogram.from_state(np.stack([np.eye(4) / 4] * 2), 0.5, 0.5)

    def test_marginal_matches_reduced(self, rng):
        rho = random_density_matrix(4, rng)
        w = TwoSpinTomogram.from_state(rho, 0.5, 0.5)
        marg = w.values.sum(axis=(2, 3)) / w.grid_e.n_nodes
        for ni, node in enumerate(w.grid_mu.nodes()):
            ref = reduced_tomogram(rho, 0.5, 0.5, node)
            assert np.abs(marg[:, ni] - ref).max() < 1e-12

    def test_missing_probability_rejected(self, rng):
        w = TwoSpinTomogram.from_state(random_density_matrix(4, rng), 0.5, 0.5)
        values = w.values.copy()
        values[-1, -1, -1, -1] = np.nan
        with pytest.raises(ValueError, match="negative or missing joint probabilities"):
            TwoSpinTomogram(0.5, 0.5, w.grid_mu, w.grid_e, values)
