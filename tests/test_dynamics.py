import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import decay_weighted_gl, random_density_matrix, random_direction
from musrtomo.dynamics import (
    DEFAULT_CONSTANTS,
    _SLICE_TIMES,
    DerivedScalars,
    HamiltonianSpec,
    MuonSpinTable,
    OrientationNotTabulated,
    PropagatorSpec,
    _spin_operators,
    analytic_free_mu,
    analytic_free_mu_reduced,
    build_hamiltonian,
    closed_form,
    evolve_density,
    evolve_tomogram,
    initial_muonium_state,
    muon_polarization_function,
    propagator_hyperfine,
    propagator_hyperfine_spin1,
    propagator_mu_transverse_x,
    propagator_mu_transverse_y,
    propagator_mustar_xz,
    propagator_mustar_yz,
    propagator_mustar_zz,
)
from musrtomo.linalg import PAULI, SubsystemDims, kron, partial_trace
from musrtomo.materials import (_PRESET_DIR, available_presets, load_material,
                                material_from_dict)
from musrtomo.musr import MUON_LIFETIME_NS
from musrtomo.tomography import (
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    Direction,
    angular_momentum_ops,
    rotation_matrix,
)
from musrtomo.twospin import individual_tomogram_unitary, reduced_tomogram


def phase_insensitive_error(u, v):
    """max |e^{i chi} u - v| minimized over one global phase."""
    inner = np.trace(u.conj().T @ v)
    chi = inner / abs(inner) if abs(inner) > 1e-14 else 1.0
    return np.abs(u * chi - v).max()


def spec_for(variant, rng):
    a = rng.uniform(0.5, 30.0)
    da = rng.uniform(-20.0, 20.0)
    b = rng.uniform(1.0, 4000.0)
    if variant == "hf":
        return HamiltonianSpec.hyperfine(a)
    if variant == "hf_spin1":
        return HamiltonianSpec.hyperfine(a, j_e=1.0)
    axis = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}[variant[-1]]
    if variant.startswith("mu_"):
        return HamiltonianSpec(a=a, b_field=b, b_axis=axis)
    n_axis = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}[variant[-2]]
    return HamiltonianSpec(a=a, delta_a=da, b_field=b, b_axis=Z_AXIS, aniso_axis=n_axis)


ALL_VARIANTS = ["hf", "mu_z", "mu_x", "mu_y", "mustar_zz", "mustar_xz",
                "mustar_yz", "hf_spin1"]


class TestConstants:
    def test_gyromagnetic_ratios(self):
        # rad/ns per Gauss -> kHz/G and MHz/G
        assert abs(DEFAULT_CONSTANTS.gamma_mu * 1e9 / (2 * np.pi) / 1e3
                   - 13.554) < 0.001
        assert abs(DEFAULT_CONSTANTS.gamma_e * 1e9 / (2 * np.pi) / 1e6
                   - 2.8025) < 0.0005

    def test_quartz_critical_field(self):
        a = load_material("quartz").a_rad_ns
        bc = DEFAULT_CONSTANTS.critical_field(a)
        assert 1580 * 0.99 <= bc <= 1580 * 1.01

    def test_silicon_critical_field(self):
        a = load_material("si-mustar").a_rad_ns
        bc = DEFAULT_CONSTANTS.critical_field(a)
        assert 33 * 0.95 <= bc <= 33 * 1.05


class TestBuildHamiltonian:
    def test_hyperfine_spectrum(self):
        h = build_hamiltonian(HamiltonianSpec.hyperfine(1.0))
        w = np.linalg.eigvalsh(h)
        assert np.allclose(w, [-0.75, 0.25, 0.25, 0.25], atol=1e-13)

    def test_isotropic_reduces_at_zero_field(self):
        # a zero field reads no field axis
        iso = HamiltonianSpec(a=2.2, b_axis=X_AXIS)
        assert np.abs(build_hamiltonian(iso)
                      - build_hamiltonian(HamiltonianSpec.hyperfine(2.2))).max() < 1e-14

    def test_anisotropic_reduces_without_delta(self):
        # a zero anisotropy reads no anisotropy axis
        aniso = HamiltonianSpec(a=2.2, delta_a=0.0, b_field=50.0, b_axis=Z_AXIS,
                                aniso_axis=X_AXIS)
        iso = HamiltonianSpec(a=2.2, b_field=50.0, b_axis=Z_AXIS)
        assert np.abs(build_hamiltonian(aniso) - build_hamiltonian(iso)).max() < 1e-14

    def test_zeeman_signs(self):
        # muon Zeeman enters negative, electron positive, both along B
        spec = HamiltonianSpec(a=0.0, b_field=100.0, b_axis=Z_AXIS)
        h = build_hamiltonian(spec)
        gm = DEFAULT_CONSTANTS.gamma_mu * 100
        ge = DEFAULT_CONSTANTS.gamma_e * 100
        expect = np.diag([(-gm + ge) / 2, (-gm - ge) / 2, (gm + ge) / 2, (gm - ge) / 2])
        assert np.abs(h - expect).max() < 1e-12

    def test_requires_axis_for_field(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(a=1.0, b_field=10.0)

    @pytest.mark.parametrize("j_e", [0.5, 1.0, 1.5])
    def test_matches_kronecker_sums(self, j_e, rng):
        # one Kronecker product per component and term, summed in order
        j_mu_ops, j_e_ops = angular_momentum_ops(0.5), angular_momentum_ops(j_e)
        eye_e = np.eye(len(j_e_ops[0]))
        for _ in range(5):
            a, da, b = rng.uniform(0.5, 30.0), rng.uniform(-20.0, 20.0), rng.uniform(1, 4000)
            b_axis, n_axis = random_direction(rng), random_direction(rng)
            spec = HamiltonianSpec(a=a, delta_a=da, b_field=b, b_axis=b_axis,
                                   aniso_axis=n_axis, j_e=j_e)
            b_vec, n_vec = b_axis.vector * b, n_axis.vector
            want = a * sum(np.kron(jm, je) for jm, je in zip(j_mu_ops, j_e_ops))
            want = want - DEFAULT_CONSTANTS.gamma_mu * sum(
                b_vec[i] * np.kron(j_mu_ops[i], eye_e) for i in range(3))
            want = want + DEFAULT_CONSTANTS.gamma_e * sum(
                b_vec[i] * np.kron(np.eye(2), j_e_ops[i]) for i in range(3))
            want = want + da * np.kron(sum(n_vec[i] * j_mu_ops[i] for i in range(3)),
                                       sum(n_vec[i] * j_e_ops[i] for i in range(3)))
            assert np.array_equal(build_hamiltonian(spec), want)

    @pytest.mark.parametrize("j_e", [0.7, 0.0, -0.5, 0.25, np.nan, np.inf])
    def test_electron_spin_must_be_a_half_integer(self, j_e):
        with pytest.raises(ValueError, match="j_e must be a positive multiple of 1/2"):
            HamiltonianSpec.hyperfine(1.0, j_e=j_e)


class TestClosedForms:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_matches_numeric_exponential(self, variant):
        rng = np.random.default_rng(hash(variant) % 2 ** 32)
        for _ in range(100):
            spec = spec_for(variant, rng)
            prop = PropagatorSpec(spec)
            t = rng.uniform(0, 50.0)
            u_cf = prop.closed_form_unitary(t)
            u_num = prop.numeric_unitary(t)
            assert phase_insensitive_error(u_cf, u_num) <= 1e-9

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_unitarity(self, variant):
        rng = np.random.default_rng(hash(variant + "u") % 2 ** 32)
        dim = 6 if variant == "hf_spin1" else 4
        for _ in range(125):
            spec = spec_for(variant, rng)
            u = PropagatorSpec(spec).closed_form_unitary(rng.uniform(0, 100.0))
            assert np.abs(u @ u.conj().T - np.eye(dim)).max() <= 1e-12

    def test_hyperfine_full_period_phase(self):
        # one coupling period is a global phase e^{-i pi/2}
        omega0 = 2.0
        u = propagator_hyperfine(omega0, 2 * np.pi / omega0)
        assert np.abs(u - np.exp(-1j * np.pi / 2) * np.eye(4)).max() < 1e-13

    def test_longitudinal_reduces_to_hyperfine_at_zero_field(self):
        spec = HamiltonianSpec(a=3.3)
        s = DerivedScalars.from_spec(spec)
        for t in (0.3, 2.1):
            assert np.abs(propagator_mustar_zz(s, t)
                          - propagator_hyperfine(3.3, t)).max() < 1e-12

    def test_spin1_matrix_elements(self):
        a = 1.7
        t = 0.9
        u = PropagatorSpec(HamiltonianSpec.hyperfine(a, j_e=1.0)).closed_form_unitary(t)
        assert abs(u[0, 0] - np.exp(-1j * a * t / 2)) < 1e-14
        # coupling element vanishes when 3at/4 is a multiple of pi
        t_node = 4 * np.pi / (3 * a)
        u_node = PropagatorSpec(HamiltonianSpec.hyperfine(a, j_e=1.0)) \
            .closed_form_unitary(t_node)
        assert abs(u_node[1, 3]) < 1e-13

    def test_transverse_y_phase_pattern(self):
        # the y-field matrix is D U_x D^dag with D = diag(1, i, i, -1)
        spec = HamiltonianSpec(a=5.0, b_field=800.0, b_axis=X_AXIS)
        s = DerivedScalars.from_spec(spec)
        d = np.diag([1.0, 1j, 1j, -1.0])
        for t in (0.17, 3.9):
            lhs = propagator_mu_transverse_y(s, t)
            rhs = d @ propagator_mu_transverse_x(s, t) @ d.conj().T
            assert np.abs(lhs - rhs).max() < 1e-14

    def test_yz_differs_from_xz_only_in_corner(self):
        spec = HamiltonianSpec(a=0.58, delta_a=-0.47, b_field=100.0, b_axis=Z_AXIS,
                               aniso_axis=X_AXIS)
        s = DerivedScalars.from_spec(spec)
        for t in (0.4, 11.0):
            u_xz = propagator_mustar_xz(s, t)
            u_yz = propagator_mustar_yz(s, t)
            diff = u_yz - u_xz
            assert abs(diff[0, 3] + 2 * u_xz[0, 3]) < 1e-14
            diff[0, 3] = diff[3, 0] = 0.0
            assert np.abs(diff).max() < 1e-14

    def test_degenerate_frequency_limit(self):
        # a = -dA/2 at zero field makes one internal frequency vanish; the
        # closed form must stay finite and exact
        spec = HamiltonianSpec(a=1.0, delta_a=-2.0, aniso_axis=X_AXIS)
        prop = PropagatorSpec(spec)
        for t in (0.0, 0.7, 3.0):
            u = prop.closed_form_unitary(t)
            assert np.all(np.isfinite(u))
            assert np.abs(u - prop.numeric_unitary(t)).max() < 1e-12

    def test_spin_three_halves_numeric_only(self, rng):
        # acceptor-center shells (j_e = 3/2) go through the numeric path
        spec = HamiltonianSpec(a=1.1, delta_a=0.4, b_field=25.0, b_axis=Z_AXIS,
                               aniso_axis=X_AXIS, j_e=1.5)
        prop = PropagatorSpec(spec)
        with pytest.raises(OrientationNotTabulated):
            prop.closed_form_unitary(0.5)
        for t in rng.uniform(0, 20, 5):
            u = prop.unitary(t)
            assert u.shape == (8, 8)
            assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12

    def test_untabulated_orientation_raises_and_numeric_covers(self):
        spec = HamiltonianSpec(a=1.0, delta_a=0.3, b_field=10.0, b_axis=X_AXIS,
                               aniso_axis=X_AXIS)
        prop = PropagatorSpec(spec)
        with pytest.raises(OrientationNotTabulated):
            prop.closed_form_unitary(1.0)
        u = prop.unitary(1.0)  # auto falls back to the numeric path
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12

    def test_scalar_definitions(self):
        spec = HamiltonianSpec(a=4.0, delta_a=-1.0, b_field=200.0, b_axis=Z_AXIS,
                               aniso_axis=X_AXIS)
        s = DerivedScalars.from_spec(spec)
        gm, ge = DEFAULT_CONSTANTS.gamma_mu, DEFAULT_CONSTANTS.gamma_e
        assert abs(s.a - 1.0) < 1e-15
        assert abs(s.d - (-0.25)) < 1e-15
        assert abs(s.b_plus - 100 * (gm + ge)) < 1e-15
        assert abs(s.b_minus - 100 * (gm - ge)) < 1e-15
        assert abs(s.f - np.sqrt(s.d ** 2 + s.b_minus ** 2)) < 1e-14
        assert abs(s.h - np.sqrt((2 * s.a + s.d) ** 2 + s.b_plus ** 2)) < 1e-14
        assert abs(s.c - np.sqrt(4 * s.a ** 2 + s.b_plus ** 2)) < 1e-14


# --------------------------------------------------------------------------
# oracle: the family-based Hamiltonian and closed-form choice that the
# parameter-based ones replaced; the family is one of the strings below

FAMILIES = ("hyperfine", "isotropic", "anisotropic")
OBLIQUE = Direction.from_vector([0.6, 0.0, 0.8])
ORACLE_AXES = (None, X_AXIS, Y_AXIS, Z_AXIS, OBLIQUE)
VARIANT_FORMS = {"hf": propagator_hyperfine, "hf_spin1": propagator_hyperfine_spin1,
                 "mu_z": propagator_mustar_zz, "mu_x": propagator_mu_transverse_x,
                 "mu_y": propagator_mu_transverse_y, "mustar_zz": propagator_mustar_zz,
                 "mustar_xz": propagator_mustar_xz, "mustar_yz": propagator_mustar_yz}


def family_hamiltonian(family, spec):
    """H/hbar of a (family, parameters) pair: the anisotropy term only for
    the anisotropic family, one Kronecker product per term."""
    j_mu, j_e = np.array(angular_momentum_ops(0.5)), np.array(angular_momentum_ops(spec.j_e))
    mu, el = np.kron(j_mu, np.eye(len(j_e[0]))), np.kron(np.eye(2), j_e)
    h = spec.a * sum(mu @ el)
    if spec.b_field != 0.0:
        b_vec = (spec.b_axis.vector * spec.b_field)[:, None, None]
        h = h - DEFAULT_CONSTANTS.gamma_mu * sum(b_vec * mu) \
            + DEFAULT_CONSTANTS.gamma_e * sum(b_vec * el)
    if family == "anisotropic" and spec.delta_a != 0.0:
        n_vec = spec.aniso_axis.vector[:, None, None]
        h = h + spec.delta_a * np.kron(sum(n_vec * j_mu), sum(n_vec * j_e))
    return h


def _oracle_axis_name(direction):
    if direction is None:
        return None
    for name, ref in {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}.items():
        if np.linalg.norm(direction.vector - ref.vector) < 1e-12:
            return name
    return None


def family_variant(family, spec):
    """Name of the closed form a (family, parameters) pair chose, or None."""
    b_name = _oracle_axis_name(spec.b_axis) if spec.b_field != 0.0 else None
    n_name = _oracle_axis_name(spec.aniso_axis)
    if family == "hyperfine" or (family == "isotropic" and spec.b_field == 0.0):
        return {0.5: "hf", 1.0: "hf_spin1"}.get(spec.j_e)
    if spec.j_e != 0.5:
        return None
    if family == "isotropic":
        return f"mu_{b_name}" if b_name in ("x", "y", "z") else None
    if spec.delta_a == 0.0:
        if spec.b_field == 0.0:
            return "hf"
        if b_name in ("x", "y", "z"):
            return f"mu_{b_name}"
    if n_name in ("x", "y", "z") and (b_name == "z" or spec.b_field == 0.0):
        return f"mustar_{n_name}z"
    return None


# (family, anisotropic, in a field, B axis, N axis, j_e) of every consistent
# spec: the anisotropic family has an axis, only it has a nonzero dA, the
# hyperfine family has no field, and a field has an axis
CONSISTENT_CASES = [
    (family, aniso, field, b_axis, n_axis, j_e)
    for family in FAMILIES for aniso in (False, True) for field in (False, True)
    for b_axis in ORACLE_AXES for n_axis in ORACLE_AXES for j_e in (0.5, 1.0, 1.5)
    if not (family == "anisotropic" and n_axis is None)
    and (family == "anisotropic" or not aniso)
    and not (family == "hyperfine" and field)
    and not (field and b_axis is None)]


class TestFamilyOracle:
    def test_case_count(self):
        assert len(CONSISTENT_CASES) == 426

    @given(a=st.floats(0.5, 30.0), da=st.floats(-20.0, 20.0).filter(bool),
           b=st.floats(1.0, 4000.0), t=st.floats(0.0, 10.0))
    @settings(deadline=None, max_examples=20)
    def test_parameters_choose_as_the_family_did(self, a, da, b, t):
        # every consistent spec: bit-equal Hamiltonians and the same closed
        # form, or none, but for dA = 0, B = 0, j_e = 1 under the anisotropic
        # family, which the family left to the numeric path
        for family, aniso, field, b_axis, n_axis, j_e in CONSISTENT_CASES:
            spec = HamiltonianSpec(a=a, delta_a=da if aniso else 0.0,
                                   b_field=b if field else 0.0, b_axis=b_axis,
                                   aniso_axis=n_axis, j_e=j_e)
            assert build_hamiltonian(spec).tobytes() == \
                family_hamiltonian(family, spec).tobytes()
            try:
                form = closed_form(spec).func
            except OrientationNotTabulated:
                form = None
            variant = family_variant(family, spec)
            if variant is None and (family, aniso, field, j_e) == \
                    ("anisotropic", False, False, 1.0):
                assert form is propagator_hyperfine_spin1
                prop = PropagatorSpec(spec)
                assert np.abs(prop.closed_form_unitary(t)
                              - prop.numeric_unitary(t)).max() <= 1e-12
            else:
                assert form is VARIANT_FORMS.get(variant)

    def test_spin_operators_built_once_per_spin(self, monkeypatch):
        specs = [HamiltonianSpec(a=1.3, delta_a=-0.4, b_field=50.0, b_axis=OBLIQUE,
                                 aniso_axis=OBLIQUE, j_e=j_e) for j_e in (0.5, 1.0, 1.5)]

        def table(spec):
            return MuonSpinTable.from_eigensystem(*np.linalg.eigh(build_hamiltonian(spec)))

        for spec in specs:  # warm-up
            table(spec)
        calls = []
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda *args: calls.append(args) or kron(*args))
        for spec in specs:
            table(spec)
        assert calls == []
        for spec in specs:
            for op in _spin_operators(spec.j_e):
                assert not op.flags.writeable

    @pytest.mark.parametrize("j_e", [0.5, 1.0, 1.5])
    def test_muon_pauli_stack_is_twice_the_muon_spin(self, j_e, rng):
        # equal in every entry (a zero may differ in sign), and so to the last
        # bit in the eigenbasis of any Hamiltonian
        sigma = np.kron(PAULI, np.eye(int(round(2 * j_e + 1))))
        twice = 2 * _spin_operators(j_e)[2]
        assert np.array_equal(twice, sigma)
        _, v = np.linalg.eigh(random_density_matrix(len(sigma[0]), rng))
        assert (v.conj().T @ twice @ v).tobytes() == (v.conj().T @ sigma @ v).tobytes()


class TestEvolveDensity:
    def test_identity(self, rng):
        rho = random_density_matrix(4, rng)
        assert np.abs(evolve_density(rho, np.eye(4)) - rho).max() < 1e-14

    def test_purity_invariant(self, rng):
        for _ in range(100):
            rho = random_density_matrix(4, rng)
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, r = np.linalg.qr(g)
            u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            rho_t = evolve_density(rho, u)
            assert abs(np.trace(rho_t @ rho_t) - np.trace(rho @ rho)) < 1e-12

    def test_rejects_non_unitary(self, rng):
        with pytest.raises(ValueError):
            evolve_density(random_density_matrix(4, rng), np.diag([1, 1, 1, 0.5]))

    def test_dimension_mismatch_names_both(self, rng):
        with pytest.raises(ValueError, match="initial state dimension 4 does not match "
                                             "the evolution operator dimension 6"):
            evolve_density(random_density_matrix(4, rng), np.eye(6))

    def test_reduced_tomogram_after_coupling(self, rng):
        omega0 = 4.453
        rho0 = initial_muonium_state()
        for t in (0.0, 0.3, 1.9):
            rho_t = evolve_density(rho0, propagator_hyperfine(omega0, t))
            for _ in range(4):
                d = random_direction(rng)
                got = reduced_tomogram(rho_t, 0.5, 0.5, d)
                for mi, m in enumerate((0.5, -0.5)):
                    assert abs(got[mi] - analytic_free_mu_reduced(m, d, t, omega0)) < 1e-12


class TestEvolveTomogram:
    def test_paths_agree(self):
        # conjugating the state equals folding the evolution into each node's
        # measurement unitary: w_t(m, u) = w_0(m, u U(t))
        prop = PropagatorSpec(HamiltonianSpec.hyperfine(4.453))
        rho0 = initial_muonium_state()
        ts = [0.0, 0.7, 2.3]
        for t, w in zip(ts, evolve_tomogram(rho0, prop.unitary, ts)):
            u_t = prop.unitary(t)
            for ni, n_mu in enumerate(w.grid_mu.nodes()):
                for nj, n_e in enumerate(w.grid_e.nodes()):
                    u = kron(rotation_matrix(0.5, n_mu), rotation_matrix(0.5, n_e)).conj().T
                    joint = individual_tomogram_unitary(rho0, u @ u_t).reshape(2, 2)
                    assert np.abs(w.values[:, ni, :, nj] - joint).max() <= 1e-10

    def test_matches_closed_form(self):
        omega0 = 4.453
        prop = PropagatorSpec(HamiltonianSpec.hyperfine(omega0))
        rho0 = initial_muonium_state()
        t = 0.51
        w = evolve_tomogram(rho0, prop.unitary, [t])[0]
        for mi, m_mu in enumerate((0.5, -0.5)):
            for ni, n_mu in enumerate(w.grid_mu.nodes()):
                for mj, m_e in enumerate((0.5, -0.5)):
                    for nj, n_e in enumerate(w.grid_e.nodes()):
                        ref = analytic_free_mu(m_mu, n_mu, m_e, n_e, t, omega0)
                        assert abs(w.values[mi, ni, mj, nj] - ref) < 1e-12

    def test_initial_instant_is_factorized(self):
        prop = PropagatorSpec(HamiltonianSpec.hyperfine(4.453))
        w = evolve_tomogram(initial_muonium_state(), prop.unitary, [0.0])[0]
        for ni, n_mu in enumerate(w.grid_mu.nodes()):
            nz = n_mu.vector[2]
            for mi, m_mu in enumerate((0.5, -0.5)):
                assert np.abs(w.values[mi, ni] - 0.5 * (0.5 + m_mu * nz)).max() < 1e-13

    def test_stationary_singlet(self, singlet):
        prop = PropagatorSpec(HamiltonianSpec.hyperfine(4.453))
        ws = evolve_tomogram(singlet, prop.unitary, [0.0, 0.4, 1.1])
        for w in ws[1:]:
            assert np.abs(w.values - ws[0].values).max() < 1e-12
        # normalization and nonnegativity hold at every step (enforced by the
        # container, asserted here explicitly)
        for w in ws:
            assert np.all(w.values >= -1e-12)
            assert np.abs(w.values.sum(axis=(0, 2)) - 1).max() < 1e-12

    def test_no_times(self, singlet):
        prop = PropagatorSpec(HamiltonianSpec.hyperfine(4.453))
        assert evolve_tomogram(singlet, prop.unitary, []) == []

    def test_state_dimension_not_the_spins(self):
        # a 1/2 x 1/2 propagator and state sampled as 1/2 x 1
        prop = PropagatorSpec(HamiltonianSpec.hyperfine(4.453))
        with pytest.raises(ValueError, match=r"\(2j_mu\+1\)\(2j_e\+1\) = 6"):
            evolve_tomogram(np.eye(4) / 4, prop.unitary, [0.1], 0.5, 1.0)


class TestAnalyticFreeMu:
    def test_reduced_values(self):
        omega0 = 2.0
        assert abs(analytic_free_mu_reduced(0.5, Z_AXIS, 0.0, omega0) - 1.0) < 1e-15
        assert abs(analytic_free_mu_reduced(0.5, Z_AXIS, np.pi / omega0, omega0) - 0.5) < 1e-15
        for t in (0.0, 0.3, 0.9):
            assert abs(analytic_free_mu_reduced(0.5, X_AXIS, t, omega0) - 0.5) < 1e-15
            assert abs(analytic_free_mu_reduced(0.5, Y_AXIS, t, omega0) - 0.5) < 1e-15

    def test_marginal_consistency(self, rng):
        omega0, t = 3.1, 0.77
        for _ in range(10):
            n_mu, n_e = random_direction(rng), random_direction(rng)
            for m_mu in (0.5, -0.5):
                total = sum(analytic_free_mu(m_mu, n_mu, m_e, n_e, t, omega0)
                            for m_e in (0.5, -0.5))
                assert abs(total - analytic_free_mu_reduced(m_mu, n_mu, t, omega0)) < 1e-14


SPIN1_MATERIAL = material_from_dict({"name": "spin1", "family": "hyperfine",
                                     "A_MHz": 2000.0, "A_is_angular": False,
                                     "deltaA_MHz": 0.0, "j_e": 1.0})


class TestPolarizationFunction:
    def test_dimension_mismatch_names_both(self):
        prop = PropagatorSpec(SPIN1_MATERIAL.hamiltonian_spec(b_field=0.0))
        with pytest.raises(ValueError, match="initial state dimension 4 does not match "
                                             "the propagator dimension 6"):
            muon_polarization_function(initial_muonium_state(0.5), prop)

    def test_matches_direct_evolution(self, rng):
        mat = load_material("si-mustar")
        spec = mat.hamiltonian_spec(b_field=20.0, b_axis=Z_AXIS, aniso_axis=X_AXIS)
        prop = PropagatorSpec(spec)
        rho0 = initial_muonium_state()
        polarization = muon_polarization_function(rho0, prop)
        ts = rng.uniform(0, 100, 7)
        got = polarization(ts)
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1, -1])]
        for k, t in enumerate(ts):
            rho_mu = partial_trace(evolve_density(rho0, prop.unitary(t)),
                                   SubsystemDims(2, 2), "a")
            ref = [np.trace(rho_mu @ p).real for p in paulis]
            assert np.abs(got[k] - ref).max() < 1e-11

    @given(material=st.sampled_from([*available_presets(), "spin1"]),
           b_field=st.one_of(st.just(0.0), st.floats(1.0, 3200.0)),
           seed=st.integers(0, 10_000), fresh=st.booleans())
    @settings(deadline=None, max_examples=80)
    def test_matches_partial_trace(self, material, b_field, seed, fresh):
        # random fields, axes and initial states on every preset and the
        # j_e = 1 material; zero field makes the level gaps degenerate
        rng = np.random.default_rng(seed)
        mat = SPIN1_MATERIAL if material == "spin1" else load_material(material)
        spec = mat.hamiltonian_spec(
            b_field=b_field, b_axis=random_direction(rng) if b_field else None,
            aniso_axis=random_direction(rng))
        prop = PropagatorSpec(spec)
        d_e = int(round(2 * mat.j_e + 1))
        rho0 = initial_muonium_state(mat.j_e) if fresh else \
            random_density_matrix(2 * d_e, rng)
        ts = np.concatenate([[0.0], rng.uniform(0, 100, 6)])
        got = muon_polarization_function(rho0, prop)(ts)
        assert got.shape == (len(ts), 3)
        for k, t in enumerate(ts):
            rho_mu = partial_trace(evolve_density(rho0, prop.unitary(t)),
                                   SubsystemDims(2, d_e), "a")
            ref = [np.trace(rho_mu @ p).real for p in PAULI]
            assert np.abs(got[k] - ref).max() < 1e-11

    @pytest.mark.parametrize("material", [*available_presets(), "spin1"])
    @pytest.mark.parametrize("b_field", [0.0, 57.3, 3200.0])
    def test_matches_partial_trace_over_simulate_window(self, material, b_field):
        # decay times across the whole default simulate window, 0 to 3 lifetimes
        rng = np.random.default_rng(int(b_field) + len(material))
        mat = SPIN1_MATERIAL if material == "spin1" else load_material(material)
        spec = mat.hamiltonian_spec(
            b_field=b_field, b_axis=random_direction(rng) if b_field else None,
            aniso_axis=random_direction(rng))
        prop = PropagatorSpec(spec)
        d_e = int(round(2 * mat.j_e + 1))
        ts = np.concatenate([[0.0, 3 * MUON_LIFETIME_NS],
                             rng.uniform(0, 3 * MUON_LIFETIME_NS, 40)])
        for rho0 in (initial_muonium_state(mat.j_e), random_density_matrix(2 * d_e, rng)):
            got = muon_polarization_function(rho0, prop)(ts)
            rho_mu = partial_trace(evolve_density(rho0, prop.unitary(ts)),
                                   SubsystemDims(2, d_e), "a")
            ref = np.einsum("nab,kba->nk", rho_mu, PAULI).real
            assert np.abs(got - ref).max() < 1e-9

    @pytest.mark.parametrize("material", ["quartz", "spin1"])
    def test_slice_invariance(self, material, rng):
        # one call over several evaluation slices equals the calls on its
        # slices, to the last bit; on any other cut the BLAS kernel chosen for
        # the piece's width may move only the last bit
        mat = SPIN1_MATERIAL if material == "spin1" else load_material(material)
        spec = mat.hamiltonian_spec(b_field=176.0, b_axis=random_direction(rng))
        polarization = muon_polarization_function(initial_muonium_state(mat.j_e),
                                                  PropagatorSpec(spec))
        ts = rng.exponential(MUON_LIFETIME_NS, 2 * _SLICE_TIMES + 777)
        whole = polarization(ts)
        slices = [polarization(ts[a:a + _SLICE_TIMES])
                  for a in range(0, len(ts), _SLICE_TIMES)]
        assert np.array_equal(whole, np.concatenate(slices))
        cuts = [0, 1, 3, 5000, _SLICE_TIMES + 3, 2 * _SLICE_TIMES + 1, len(ts)]
        pieces = [polarization(ts[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.abs(whole - np.concatenate(pieces)).max() <= 1e-15
        assert polarization(ts[:0]).shape == (0, 3)


class TestMaterials:
    def test_presets_load(self):
        for name in ("vacuum", "quartz", "si-mustar"):
            mat = load_material(name)
            assert mat.name == name

    def test_angular_flag_conversion(self):
        vac = load_material("vacuum")
        assert abs(vac.a_rad_ns - 4.453) < 1e-12  # already angular
        qtz = load_material("quartz")
        assert abs(qtz.a_rad_ns - 2 * np.pi * 4.404) < 1e-12  # linear -> 2 pi

    def test_spec_construction(self):
        mat = load_material("si-mustar")
        spec = mat.hamiltonian_spec(b_field=33.0, b_axis=Z_AXIS, aniso_axis=X_AXIS)
        assert spec.aniso_axis == X_AXIS
        assert spec.delta_a < 0

    def test_env_search_path(self, tmp_path, monkeypatch):
        custom = tmp_path / "mymat.json"
        custom.write_text('{"name": "mymat", "family": "hyperfine", '
                          '"A_MHz": 10.0, "A_is_angular": true}')
        monkeypatch.setenv("MUSRTOMO_MATERIALS", str(tmp_path))
        mat = load_material("mymat")
        assert abs(mat.a_rad_ns - 0.01) < 1e-15

    def test_missing_material(self):
        with pytest.raises(FileNotFoundError):
            load_material("unobtainium")

    @pytest.mark.parametrize("name", [*available_presets(), "spin1-file"])
    def test_files_load_to_the_family_hamiltonian(self, name):
        # the shipped presets and the j_e = 1 file give the Hamiltonian that
        # their family gave: the anisotropy (axis x by default) only for the
        # anisotropic family, whatever the field and the axes asked for
        path = SPIN1_FILE if name == "spin1-file" else _PRESET_DIR / f"{name}.json"
        data = json.loads(path.read_text())
        mat = material_from_dict(data)
        aniso = data["family"] == "anisotropic"
        for b_field, b_axis in ((0.0, None), (176.0, Z_AXIS), (176.0, OBLIQUE)):
            for n_axis in (None, X_AXIS, Z_AXIS, OBLIQUE):
                spec = mat.hamiltonian_spec(b_field=b_field, b_axis=b_axis, aniso_axis=n_axis)
                old = HamiltonianSpec(
                    a=mat.a_rad_ns, delta_a=mat.delta_a_rad_ns if aniso else 0.0,
                    b_field=b_field, b_axis=b_axis,
                    aniso_axis=(n_axis or X_AXIS) if aniso else None, j_e=mat.j_e)
                assert build_hamiltonian(spec).tobytes() == \
                    family_hamiltonian(data["family"], old).tobytes()

    def test_family_is_optional_and_only_checked(self):
        data = {"name": "m", "A_MHz": 92.595, "A_is_angular": False,
                "deltaA_MHz": -75.776}
        assert material_from_dict({**data, "family": "anisotropic"}) == \
            material_from_dict(data)
        flat = {**data, "deltaA_MHz": 0.0}
        for family in ("hyperfine", "isotropic", "anisotropic"):
            assert material_from_dict({**flat, "family": family}) == material_from_dict(flat)

    @pytest.mark.parametrize("family", ["hyperfine", "isotropic"])
    def test_family_without_anisotropy_rejects_delta(self, family):
        with pytest.raises(ValueError, match=f"family '{family}' has no anisotropy"):
            material_from_dict({"name": "m", "family": family, "A_MHz": 92.595,
                                "A_is_angular": False, "deltaA_MHz": -75.776})

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family 'isotropc'"):
            material_from_dict({"name": "m", "family": "isotropc", "A_MHz": 4404.0,
                                "A_is_angular": False})

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_angular_flag_must_be_a_boolean(self, flag):
        with pytest.raises(ValueError, match="A_is_angular must be true or false"):
            material_from_dict({"name": "m", "A_MHz": 4463.0, "A_is_angular": flag})

    @pytest.mark.parametrize("field", ["A_MHz", "deltaA_MHz", "j_e"])
    @pytest.mark.parametrize("value", ["4463", True, False, None],
                             ids=["string", "true", "false", "null"])
    def test_numbers_must_be_json_numbers(self, field, value):
        data = {"name": "m", "A_MHz": 4463.0, "A_is_angular": False, field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a JSON number, "
                                                       f"got {value!r}")):
            material_from_dict(data)

    def test_integers_load_as_their_floats(self):
        ints = material_from_dict({"name": "m", "A_MHz": 4463, "A_is_angular": False,
                                   "deltaA_MHz": 0, "j_e": 1})
        floats = material_from_dict({"name": "m", "A_MHz": 4463.0, "A_is_angular": False,
                                     "deltaA_MHz": 0.0, "j_e": 1.0})
        assert ints == floats


SPIN1_FILE = Path(__file__).resolve().parent / "fixtures" / "spin1-hyperfine.json"


class TestDecayIntegrals:
    # bins of the default simulate width (3 lifetimes / 512) at the start,
    # inside and at the end of its window, where the phases are largest
    WIDTH = 3 * MUON_LIFETIME_NS / 512
    STARTS = (0.0, 1000.0, 3 * MUON_LIFETIME_NS - WIDTH)

    @pytest.mark.parametrize("material", [*available_presets(), "spin1-file"])
    @pytest.mark.parametrize("b_field, b_axis", [
        (0.0, None), (176.0, Z_AXIS), (3200.0, X_AXIS),
        (176.0, Direction.from_vector([0.6, 0.0, 0.8]))],
        ids=["zero", "176-z", "3200-x", "176-oblique"])
    def test_closed_form_matches_gauss_legendre(self, material, b_field, b_axis):
        mat = load_material(str(SPIN1_FILE) if material == "spin1-file" else material)
        prop = PropagatorSpec(mat.hamiltonian_spec(b_field=b_field, b_axis=b_axis))
        # 16-node panels that each span at most 1 rad of the highest level gap
        panels = int(np.ceil(prop.eigenfrequency_gaps()[-1] * self.WIDTH)) + 1
        edges = np.ravel([(s, s + self.WIDTH) for s in self.STARTS])
        d = 2 * int(round(2 * mat.j_e + 1))
        for rho0 in (initial_muonium_state(mat.j_e),
                     random_density_matrix(d, np.random.default_rng(len(material)))):
            polarization = muon_polarization_function(rho0, prop)
            got = polarization.decay_integrals(edges, MUON_LIFETIME_NS)[::2]
            mass, want = decay_weighted_gl(polarization, edges, MUON_LIFETIME_NS, panels)
            mass, want = mass[::2], want[::2]
            exact_mass = np.exp(-edges[:-1:2] / MUON_LIFETIME_NS) - np.exp(
                -edges[1::2] / MUON_LIFETIME_NS)
            assert np.abs(mass / exact_mass - 1).max() <= 1e-13
            assert np.abs((got - want) / mass[:, None]).max() <= 1e-12

    def test_wrapper_keeps_the_closed_form(self):
        # functools.wraps copies function attributes onto a wrapper, as a
        # tracing or caching wrapper of the callable would use it
        prop = PropagatorSpec(load_material("quartz").hamiltonian_spec(
            b_field=176.0, b_axis=X_AXIS))
        polarization = muon_polarization_function(initial_muonium_state(), prop)
        wrapped = functools.wraps(polarization)(lambda ts: polarization(ts))
        assert wrapped.decay_integrals is polarization.decay_integrals
