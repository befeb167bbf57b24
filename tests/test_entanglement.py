import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import random_density_matrix, random_direction, random_product_mixture
from musrtomo.dynamics import PropagatorSpec, HamiltonianSpec, evolve_density, \
    initial_muonium_state, propagator_hyperfine_spin1
from musrtomo.entanglement import (
    BellSetting,
    bell_cells,
    bell_number_of_state,
    correlation_matrix,
    entanglement_measure,
    entanglement_series,
    max_bell,
    negativity,
    positivity_coefficients,
    ppt_tomogram,
    star_kernel,
    tomographic_m34,
)
from musrtomo.linalg import (
    SubsystemDims,
    kron,
    partial_transpose,
)
from musrtomo.tomography import Direction, Z_AXIS
from musrtomo.twospin import TwoSpinTomogram, reconstruct_two_spin

OMEGA0 = 4.453


def free_mu_state(wt):
    prop = PropagatorSpec(HamiltonianSpec.hyperfine(OMEGA0))
    return evolve_density(initial_muonium_state(), prop.unitary(wt / OMEGA0))


def symmetric_polys(eigs):
    """Independent oracle: elementary symmetric polynomials by enumeration."""
    out = {}
    for k in (2, 3, 4):
        out[k] = sum(np.prod(c) for c in itertools.combinations(eigs, k))
    return out


class TestBellNumber:
    def test_maximally_mixed_is_zero(self, rng):
        setting = BellSetting(*(random_direction(rng) for _ in range(4)))
        assert abs(bell_number_of_state(np.eye(4) / 4, setting)) < 1e-13

    def test_product_states_bounded(self, rng):
        for _ in range(20):
            rho = kron(random_density_matrix(2, rng), random_density_matrix(2, rng))
            for _ in range(50):
                setting = BellSetting(*(random_direction(rng) for _ in range(4)))
                assert abs(bell_number_of_state(rho, setting)) <= 2 + 1e-12

    def test_singlet_frozen_value(self, singlet):
        # oracle: B = -(1/2)(a1-a2).T(b1-b2) with T = -I for the singlet;
        # polar angles (90,0) for the muon and (45,135) for the electron give
        # (1/2)(a1-a2).(b1-b2) = -sqrt(2)/2
        setting = BellSetting(Direction(np.pi / 2, 0), Direction(0, 0),
                              Direction(np.pi / 4, 0), Direction(3 * np.pi / 4, 0))
        got = bell_number_of_state(singlet, setting)
        assert abs(got - (-np.sqrt(2) / 2)) < 1e-12

    def test_matches_correlation_form(self, rng):
        # dual route: cell contraction vs -(1/2)(a1-a2).T(b1-b2)
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            t_matrix = correlation_matrix(rho)
            dirs = [random_direction(rng) for _ in range(4)]
            setting = BellSetting(*dirs)
            da = dirs[0].vector - dirs[1].vector
            db = dirs[2].vector - dirs[3].vector
            ref = -0.5 * da @ t_matrix @ db
            assert abs(bell_number_of_state(rho, setting) - ref) < 1e-12

    def test_tsirelson_sanity(self, rng):
        for _ in range(100):
            rho = random_density_matrix(4, rng)
            setting = BellSetting(*(random_direction(rng) for _ in range(4)))
            assert abs(bell_number_of_state(rho, setting)) <= 2 * np.sqrt(2)

    def test_cells_layout(self, singlet, rng):
        d = random_direction(rng)
        setting = BellSetting(d, random_direction(rng), d, random_direction(rng))
        cells = bell_cells(singlet, setting)
        # column 0 is the (n1, n1) setting: anticorrelated singlet outcomes
        assert abs(cells[0, 0]) < 1e-13 and abs(cells[3, 0]) < 1e-13
        assert abs(cells[1, 0] - 0.5) < 1e-13 and abs(cells[2, 0] - 0.5) < 1e-13


def random_state_of_rank(rng, rank):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def perturbed(direction, rng, scale):
    return Direction.from_vector(direction.vector + scale * rng.normal(size=3))


class TestMaxBell:
    def test_singlet(self, singlet):
        val, _ = max_bell(singlet)
        assert abs(val - 2.0) <= 1e-10

    def test_free_muonium_law(self):
        for wt in (0.4, 1.3, 2.2):
            val, setting = max_bell(free_mu_state(wt))
            assert abs(val - abs(np.sin(wt))) <= 1e-10
            # returned setting must reproduce the returned value through the
            # probability-cell route
            assert abs(abs(bell_number_of_state(free_mu_state(wt), setting)) - val) < 1e-12

    def test_product_state_bound(self, rng):
        for _ in range(3):
            rho = kron(random_density_matrix(2, rng), random_density_matrix(2, rng))
            val, _ = max_bell(rho)
            assert val <= 2 + 1e-6

    def test_matches_singular_value_oracle(self, rng):
        # the maximum is 2 s_max(T)
        for _ in range(5):
            rho = random_density_matrix(4, rng)
            ref = 2 * np.linalg.svd(correlation_matrix(rho), compute_uv=False)[0]
            val, _ = max_bell(rho)
            assert abs(val - ref) <= 1e-10

    @given(seed=st.integers(0, 10_000), rank=st.integers(1, 4))
    @settings(deadline=None, max_examples=40)
    def test_setting_attains_and_bounds_the_cell_route(self, seed, rank):
        # checked only through the probability cells, without the SVD: the
        # returned setting gives +max, and neither random settings nor small
        # perturbations of the returned one do better
        rng = np.random.default_rng(seed)
        rho = random_state_of_rank(rng, rank)
        val, setting = max_bell(rho)
        assert abs(bell_number_of_state(rho, setting) - val) <= 1e-12
        for _ in range(20):
            other = BellSetting(*(random_direction(rng) for _ in range(4)))
            assert abs(bell_number_of_state(rho, other)) <= val + 1e-12
            nearby = BellSetting(*(perturbed(d, rng, 1e-3) for d in (
                setting.n1_mu, setting.n2_mu, setting.n1_e, setting.n2_e)))
            assert abs(bell_number_of_state(rho, nearby)) <= val + 1e-12


class TestPptTomogram:
    def test_real_product_state_unchanged(self, rng):
        # a real muon factor has no sigma_y component, so the mirror is a no-op
        rho_mu = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        rho = kron(rho_mu, random_density_matrix(2, rng))
        w = TwoSpinTomogram.from_state(rho, 0.5, 0.5)
        assert np.abs(ppt_tomogram(w).values - w.values).max() < 1e-13

    def test_matches_matrix_partial_transpose(self, rng):
        for _ in range(30):
            rho = random_density_matrix(4, rng)
            w = TwoSpinTomogram.from_state(rho, 0.5, 0.5)
            lhs = reconstruct_two_spin(ppt_tomogram(w))
            rhs = partial_transpose(rho, SubsystemDims(2, 2))
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_involution(self, rng):
        rho = random_density_matrix(4, rng)
        w = TwoSpinTomogram.from_state(rho, 0.5, 0.5)
        assert np.abs(ppt_tomogram(ppt_tomogram(w)).values - w.values).max() < 1e-14


class TestPositivityCoefficients:
    def test_maximally_mixed(self):
        # symmetric polynomials of (1/4, 1/4, 1/4, 1/4)
        c = positivity_coefficients(np.eye(4) / 4)
        assert abs(c.m2 - 3 / 8) < 1e-14
        assert abs(c.m3 - 1 / 16) < 1e-14
        assert abs(c.m4 - 1 / 256) < 1e-14

    def test_pure_state(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        c = positivity_coefficients(np.outer(v, v.conj()))
        assert max(abs(c.m2), abs(c.m3), abs(c.m4)) < 1e-13

    def test_singlet_partial_transpose(self, singlet):
        # spectrum (-1/2, 1/2, 1/2, 1/2); enumeration oracle gives
        # e2 = 0, e3 = -1/4, e4 = -1/16
        ppt = partial_transpose(singlet, SubsystemDims(2, 2))
        ref = symmetric_polys(np.linalg.eigvalsh(ppt))
        c = positivity_coefficients(ppt)
        assert abs(ref[2] - 0.0) < 1e-13
        assert abs(ref[3] - (-0.25)) < 1e-13
        assert abs(ref[4] - (-1 / 16)) < 1e-13
        assert abs(c.m2 - ref[2]) < 1e-12
        assert abs(c.m3 - ref[3]) < 1e-12
        assert abs(c.m4 - ref[4]) < 1e-12

    def test_equals_enumeration_oracle(self, rng):
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            ref = symmetric_polys(np.linalg.eigvalsh(rho))
            c = positivity_coefficients(rho)
            assert abs(c.m2 - ref[2]) < 1e-12
            assert abs(c.m3 - ref[3]) < 1e-12
            assert abs(c.m4 - ref[4]) < 1e-12

    def test_m2_invariant_under_partial_transpose(self, rng):
        for _ in range(30):
            rho = random_density_matrix(4, rng)
            ppt = partial_transpose(rho, SubsystemDims(2, 2))
            assert abs(positivity_coefficients(rho).m2
                       - positivity_coefficients(ppt).m2) < 1e-13


class TestEntanglementMeasure:
    def test_free_muonium_law(self):
        for wt in np.linspace(0.05, 4 * np.pi, 40):
            e_val = entanglement_measure(free_mu_state(wt))
            assert abs(e_val - np.sin(wt) ** 4 / 128) <= 1e-10

    def test_product_states_vanish(self, rng):
        for _ in range(20):
            rho = kron(random_density_matrix(2, rng), random_density_matrix(2, rng))
            assert entanglement_measure(rho) <= 1e-12

    def test_singlet_value(self, singlet):
        # e3 = -1/4 and e4 = -1/16 on the partial transpose, so
        # E = 2(1/4) + 2(1/16) = 5/8 (enumeration oracle above)
        assert abs(entanglement_measure(singlet) - 5 / 8) < 1e-12

    def test_iff_negativity(self, rng):
        for _ in range(200):
            if rng.random() < 0.5:
                rho = random_density_matrix(4, rng)
            else:
                rho = random_product_mixture(rng)
            e_val = entanglement_measure(rho)
            neg = negativity(rho, SubsystemDims(2, 2))
            assert (e_val > 1e-12) == (neg > 1e-12)


class TestNegativity:
    def test_separable_mixtures(self, rng):
        for _ in range(50):
            rho = random_product_mixture(rng)
            assert negativity(rho, SubsystemDims(2, 2)) <= 1e-12

    def test_singlet(self, singlet):
        assert abs(negativity(singlet, SubsystemDims(2, 2)) - 0.5) < 1e-13

    def test_ppt_state_gives_positive_zero(self):
        # a product state has no negative partial-transpose eigenvalue to
        # sum, and the empty sum must print as 0.0, not -0.0
        neg = negativity(initial_muonium_state(), SubsystemDims(2, 2))
        assert neg == 0.0
        assert math.copysign(1.0, neg) == 1.0

    def test_qubit_qutrit_evolution(self):
        # coupling to a spin-1 shell entangles the fresh state
        rho0 = initial_muonium_state(j_e=1.0)
        for frac in (0.3, 0.5, 0.8):
            u = propagator_hyperfine_spin1(1.0, frac * 2 * np.pi / 3)
            rho_t = u @ rho0 @ u.conj().T
            assert negativity(rho_t, SubsystemDims(2, 3)) > 1e-3


class TestStarKernel:
    def test_aligned_value(self):
        # per factor 1/4 + 9/4 + 3/4 + 3/4 = 4, squared over two factors
        x = (0.5, Z_AXIS, 0.5, Z_AXIS)
        assert abs(star_kernel(x, x, x) - 16.0) < 1e-14

    def test_coplanar_is_real(self, rng):
        phis = rng.uniform(0, 2 * np.pi, 6)
        args = [(0.5, Direction(np.pi / 2, p), -0.5, Direction(np.pi / 2, q))
                for p, q in zip(phis[:3], phis[3:])]
        assert abs(star_kernel(*args).imag) < 1e-14

    def test_conjugation_under_argument_swap(self, rng):
        for _ in range(10):
            xs = [(float(rng.choice([0.5, -0.5])), random_direction(rng),
                   float(rng.choice([0.5, -0.5])), random_direction(rng))
                  for _ in range(3)]
            k1 = star_kernel(xs[0], xs[1], xs[2])
            k2 = star_kernel(xs[1], xs[0], xs[2])
            assert abs(k1 - np.conj(k2)) < 1e-12


class TestTomographicM34:
    def test_maximally_mixed(self):
        w = TwoSpinTomogram.from_state(np.eye(4) / 4, 0.5, 0.5)
        m3, m4 = tomographic_m34(w)
        assert abs(m3 - 1 / 16) < 1e-10
        assert abs(m4 - 1 / 256) < 1e-10

    def test_singlet_matches_trace_route(self, singlet):
        w = TwoSpinTomogram.from_state(singlet, 0.5, 0.5)
        m3, m4 = tomographic_m34(w)
        ppt = partial_transpose(singlet, SubsystemDims(2, 2))
        c = positivity_coefficients(ppt)
        assert abs(m3 - c.m3) < 1e-10 and abs(m3 - (-0.25)) < 1e-10
        assert abs(m4 - c.m4) < 1e-10 and abs(m4 - (-1 / 16)) < 1e-10

    def test_free_muonium_quarter_period(self):
        # at w0 t = pi/2 the star-product route gives E = 1/128
        rho = free_mu_state(np.pi / 2)
        w = TwoSpinTomogram.from_state(rho, 0.5, 0.5)
        m3, m4 = tomographic_m34(w)
        e_val = abs(m3) + abs(m4) - m3 - m4
        assert abs(e_val - 1 / 128) <= 1e-6

    def test_random_states_match_trace_route(self, rng):
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            w = TwoSpinTomogram.from_state(rho, 0.5, 0.5)
            m3, m4 = tomographic_m34(w)
            c = positivity_coefficients(partial_transpose(rho, SubsystemDims(2, 2)))
            assert abs(m3 - c.m3) <= 1e-6
            assert abs(m4 - c.m4) <= 1e-6

    def test_direction_independence(self, rng):
        rho = random_density_matrix(4, rng)
        w = TwoSpinTomogram.from_state(rho, 0.5, 0.5)
        ref = tomographic_m34(w)
        for _ in range(3):
            got = tomographic_m34(w, eval_dirs=(random_direction(rng),
                                                random_direction(rng)))
            assert abs(got[0] - ref[0]) <= 1e-6
            assert abs(got[1] - ref[1]) <= 1e-6

class TestEntanglementSeries:
    def test_measure_invariants_per_state(self, rng, singlet):
        # E >= 0, E = |M3| + |M4| - M3 - M4, and E > 0 exactly when M3 or M4 < 0,
        # on random states and on the singlet and the maximally mixed state
        rho = np.stack([random_density_matrix(4, rng) for _ in range(8)]
                       + [singlet, np.eye(4) / 4])
        series = entanglement_series(rho)
        e, m3, m4 = series["E"], series["M3"], series["M4"]
        assert np.all(e >= 0)
        assert np.abs(e - (np.abs(m3) + np.abs(m4) - m3 - m4)).max() < 1e-14
        assert np.array_equal(e > 1e-12, (m3 < -1e-13) | (m4 < -1e-13))
        assert e[-2] > 0 and e[-1] == 0
