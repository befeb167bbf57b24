import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import propagator, random_density_matrix
from musrtomo import entanglement
from musrtomo.dynamics import (
    HamiltonianSpec,
    PropagatorSpec,
    initial_muonium_state,
)
from musrtomo.linalg import TWO_QUBIT_BASIS, kron
from musrtomo.materials import available_presets, load_material
from musrtomo.reconstruction import (
    MeasurementPlan,
    build_design_matrix,
    coefficients_to_state,
    default_times,
    forward_model,
    golden_jitter_times,
    identifiability,
    reconstruct_initial,
    state_to_coefficients,
)
from musrtomo.tomography import AXES, Direction, X_AXIS, Y_AXIS, Z_AXIS

SIGMA = [np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]),
         np.array([[1, 0], [0, -1]], dtype=complex)]


def basis_by_kron():
    """The 15 operators {sigma_i x I, I x sigma_j, sigma_i x sigma_j} / 2,
    one Kronecker product each, from hand-written Pauli matrices."""
    eye = np.eye(2)
    return ([np.kron(p, eye) / 2 for p in SIGMA] + [np.kron(eye, p) / 2 for p in SIGMA]
            + [np.kron(p, q) / 2 for p in SIGMA for q in SIGMA])


def design_by_traces(plan):
    """Oracle for the design matrix: one unitary per time and, per row, one
    trace per basis operator of the evolved projector U^dag [(I + n.sigma)/2 x I] U."""
    eye = np.eye(2)
    rows = []
    for t in plan.times:
        if isinstance(plan.propagator, PropagatorSpec):
            u = plan.propagator.unitary(t)
        else:
            u = plan.propagator(t)
        for direction in plan.directions:
            proj = (eye + sum(c * p for c, p in zip(direction.vector, SIGMA))) / 2
            evolved = u.conj().T @ np.kron(proj, eye) @ u
            rows.append([np.trace(g @ evolved).real for g in basis_by_kron()])
    return np.array(rows)


def null_projector(vt_null):
    return vt_null.T @ vt_null


def mustar_xz_prop(b_field=100.0):
    mat = load_material("si-mustar")
    return PropagatorSpec(mat.hamiltonian_spec(b_field=b_field, b_axis=Z_AXIS,
                                               aniso_axis=X_AXIS))


def generic_unitary_family(seed=3):
    """A structureless two-spin Hamiltonian; reaches the full rank 15."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (g + g.conj().T) / 2
    return lambda t: propagator(h, t)


class TestOperatorBasis:
    def test_orthonormal(self):
        basis = TWO_QUBIT_BASIS
        assert basis.shape == (15, 4, 4)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert abs(np.trace(a.conj().T @ b).real - (i == j)) < 1e-14

    def test_matches_kronecker_products(self):
        assert np.array_equal(TWO_QUBIT_BASIS, np.array(basis_by_kron()))

    def test_correlation_table_is_the_shared_block(self):
        # entanglement's sigma_i x sigma_j table is the correlation block of
        # the one shared basis, not a second construction
        block = 2 * TWO_QUBIT_BASIS[6:].reshape(3, 3, 4, 4)
        assert np.array_equal(entanglement._PAULI_PAIRS, block)
        for i, p in enumerate(SIGMA):
            for j, q in enumerate(SIGMA):
                assert np.array_equal(block[i, j], np.kron(p, q))

    def test_coefficient_roundtrip(self, rng):
        rho = random_density_matrix(4, rng)
        x = state_to_coefficients(rho)
        assert np.abs(coefficients_to_state(x) - rho).max() < 1e-13


class TestForwardModel:
    def test_fresh_muonium_free_coupling(self):
        # evolved reduced tomogram along z follows
        # (1/2)[1 + (1/2)(1 + cos w0 t)]; x and y stay at 1/2
        omega0 = 4.453
        prop = PropagatorSpec(HamiltonianSpec.hyperfine(omega0))
        times = (0.1, 0.4, 0.9, 1.7, 2.6)
        plan = MeasurementPlan(prop, directions=(X_AXIS, Y_AXIS, Z_AXIS), times=times)
        vals = forward_model(initial_muonium_state(), plan)
        k = 0
        for t in times:
            for name in ("x", "y", "z"):
                if name == "z":
                    ref = 0.5 * (1 + 0.5 * (1 + np.cos(omega0 * t)))
                else:
                    ref = 0.5
                assert abs(vals[k] - ref) < 1e-12
                k += 1

    def test_maximally_mixed_is_flat(self):
        plan = MeasurementPlan(mustar_xz_prop())
        vals = forward_model(np.eye(4) / 4, plan)
        assert np.abs(vals - 0.5).max() < 1e-13

    def test_affine_in_the_state(self, rng):
        plan = MeasurementPlan(mustar_xz_prop())
        r1 = random_density_matrix(4, rng)
        r2 = random_density_matrix(4, rng)
        alpha = 0.3
        mix = forward_model(alpha * r1 + (1 - alpha) * r2, plan)
        parts = alpha * forward_model(r1, plan) + (1 - alpha) * forward_model(r2, plan)
        assert np.abs(mix - parts).max() < 1e-13

    def test_design_matrix_reproduces_forward_model(self, rng):
        plan = MeasurementPlan(mustar_xz_prop())
        design = build_design_matrix(plan)
        for _ in range(5):
            rho = random_density_matrix(4, rng)
            direct = forward_model(rho, plan)
            via = 0.5 + design.matrix @ state_to_coefficients(rho)
            assert np.abs(direct - via).max() <= 1e-12


class TestIdentifiability:
    def test_generic_hamiltonian_reaches_full_rank(self):
        u_of_t = generic_unitary_family()
        plan = MeasurementPlan(u_of_t, times=golden_jitter_times(8.0, 5))
        rank, cond = identifiability(plan)
        assert rank == 15
        assert cond < 1e6

    def test_isotropic_coupling_is_deficient(self):
        prop = PropagatorSpec(HamiltonianSpec.hyperfine(4.453))
        plan = MeasurementPlan(prop)
        rank, _ = identifiability(plan)
        assert rank < 15

    def test_zero_time_plan_sees_muon_only(self):
        plan = MeasurementPlan(mustar_xz_prop(), times=(0.0,))
        rank, _ = identifiability(plan)
        assert rank == 3

    def test_mustar_xz_symmetry_ceiling(self):
        # the anisotropic x/z configuration commutes with the pi rotation
        # about z, which pins the x/y/z-axis plan at rank 13; extra times do
        # not lift it
        plan5 = MeasurementPlan(mustar_xz_prop())
        assert identifiability(plan5)[0] == 13
        prop = mustar_xz_prop()
        plan9 = MeasurementPlan(prop, times=default_times(prop, 9))
        assert identifiability(plan9)[0] == 13

    def test_rank_invariant_under_global_rotation(self):
        # rotating all directions together with the propagator frame
        from musrtomo.tomography import rotation_matrix
        prop = mustar_xz_prop()
        plan = MeasurementPlan(prop)
        rank0, _ = identifiability(plan)
        frame = Direction(0.7, 1.1)
        r = rotation_matrix(0.5, frame)
        r2 = kron(r, r)
        rotated_dirs = []
        rot3 = _vector_rotation(frame)
        for d in plan.directions:
            rotated_dirs.append(Direction.from_vector(rot3 @ d.vector))
        rotated_plan = MeasurementPlan(
            lambda t: r2 @ prop.unitary(t) @ r2.conj().T,
            directions=tuple(rotated_dirs), times=plan.times)
        rank1, _ = identifiability(rotated_plan)
        assert rank0 == rank1


@st.composite
def plans(draw):
    """Measurement plans over every two-qubit preset (fields along z, along x
    and oblique; every anisotropy axis) and the generic callable family,
    with 1-6 distinct times on a 10 ps grid and 1-4 directions."""
    kind = draw(st.sampled_from([*available_presets(), "generic"]))
    if kind == "generic":
        prop = generic_unitary_family(draw(st.integers(0, 10_000)))
    else:
        b_field = draw(st.one_of(st.just(0.0), st.floats(1.0, 3200.0)))
        b_axis = draw(st.sampled_from(["z", "x", "oblique"]))
        aniso = draw(st.sampled_from("xyz")) if kind == "si-mustar" else None
        spec = load_material(kind).hamiltonian_spec(
            b_field=b_field,
            b_axis=Direction.from_vector([0.6, 0.0, 0.8]) if b_axis == "oblique"
            else AXES[b_axis],
            aniso_axis=AXES[aniso] if aniso else None)
        prop = PropagatorSpec(spec)
    ticks = draw(st.lists(st.integers(0, 2000), min_size=1, max_size=6, unique=True))
    angles = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))
    dirs = draw(st.lists(angles, min_size=1, max_size=4))
    return MeasurementPlan(prop, directions=tuple(Direction(*a) for a in dirs),
                           times=tuple(0.01 * k for k in ticks))


class TestDesignMatrix:
    @given(plan=plans())
    @settings(deadline=None, max_examples=120)
    def test_matches_trace_oracle_and_one_svd(self, plan):
        design = build_design_matrix(plan)
        oracle = design_by_traces(plan)
        assert design.matrix.shape == (len(plan.times) * len(plan.directions), 15)
        assert np.abs(design.matrix - oracle).max() <= 1e-13
        # the null space of the one SVD against a separate SVD of the oracle;
        # projectors, since a degenerate null-space basis may rotate. Close
        # plan times make the smallest kept singular value s_r tiny, and then
        # the null space itself is only defined to |A - A_oracle| / s_r
        # (Wedin's sin-theta bound), which the 1e-10 allowance extends.
        _, sv, vt = np.linalg.svd(oracle)
        rank = int((sv > 1e-10 * sv[0]).sum())
        assert design.rank == rank
        wedin = 2 * np.linalg.norm(design.matrix - oracle, 2) / sv[rank - 1]
        assert np.abs(null_projector(design.null_space())
                      - null_projector(vt[rank:])).max() <= 1e-10 + wedin
        assert design.condition_number == pytest.approx(sv[0] / sv[rank - 1],
                                                        rel=1e-12 + wedin)

    def test_rejects_a_larger_system(self):
        prop = PropagatorSpec(HamiltonianSpec.hyperfine(4.453, j_e=1.0))
        with pytest.raises(ValueError, match="4x4"):
            build_design_matrix(MeasurementPlan(prop, times=(0.1, 0.2)))

    def test_few_rows_keep_the_whole_null_space(self):
        # two times give six rows: the null space needs all 15 right
        # singular vectors, which only the full SVD holds
        design = build_design_matrix(MeasurementPlan(mustar_xz_prop(), times=(0.3, 1.7)))
        assert design.matrix.shape == (6, 15) and design.rank == 6
        null = design.null_space()
        assert null.shape == (15 - design.rank, 15)
        assert np.abs(null @ null.T - np.eye(9)).max() <= 1e-13
        assert np.abs(design.matrix @ null.T).max() <= 1e-13

    @pytest.mark.parametrize("n_times", [2, 5, 512])
    def test_reduced_and_full_svd_agree(self, n_times):
        plan = MeasurementPlan(mustar_xz_prop(), times=tuple(np.linspace(0.1, 90.0, n_times)))
        design = build_design_matrix(plan)
        _, sv, vt = np.linalg.svd(design.matrix, full_matrices=True)
        assert np.abs(design.singular_values - sv).max() <= 1e-13 * sv[0]
        assert design.null_space().shape == (15 - design.rank, 15)
        assert np.abs(null_projector(design.null_space())
                      - null_projector(vt[design.rank:])).max() <= 1e-10


def _vector_rotation(direction):
    """SO(3) matrix of the spin rotation used in the frame-rotation test."""
    theta = direction.theta
    axis = direction.n_perp
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)


class TestMeasurementPlan:
    def test_default_times_generated(self):
        plan = MeasurementPlan(mustar_xz_prop())
        assert len(plan.times) == 5
        assert len(set(plan.times)) == 5

    def test_single_level_has_no_default_times(self):
        prop = PropagatorSpec(HamiltonianSpec.hyperfine(0.0))
        with pytest.raises(ValueError, match="no nonzero eigenfrequency gaps"):
            default_times(prop)
        with pytest.raises(ValueError, match="no nonzero eigenfrequency gaps"):
            MeasurementPlan(prop)

    def test_duplicate_times_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPlan(mustar_xz_prop(), times=(1.0, 1.0, 2.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_non_finite_or_negative_time_rejected(self, bad):
        with pytest.raises(ValueError, match=f"time {bad!r} must be finite and nonnegative"):
            MeasurementPlan(mustar_xz_prop(), times=(1.0, bad, 2.0))


class TestReconstructInitial:
    def test_noiseless_roundtrip_full_rank(self, rng):
        plan = MeasurementPlan(generic_unitary_family(),
                               times=golden_jitter_times(8.0, 5))
        for _ in range(10):
            rho = random_density_matrix(4, rng)
            values = forward_model(rho, plan)
            result = reconstruct_initial(values, plan)
            assert np.abs(result.rho0 - rho).max() <= 1e-6
            assert result.rank == 15
            assert not result.clipped
            assert result.residual_norm < 1e-10

    def test_rank_deficient_plan_rejected_by_default(self):
        plan = MeasurementPlan(mustar_xz_prop())
        values = forward_model(initial_muonium_state(), plan)
        with pytest.raises(ValueError, match="rank deficient"):
            reconstruct_initial(values, plan)

    def test_fresh_muonium_recovered_despite_deficiency(self):
        # the polarized-muon/mixed-electron state lies inside the
        # identifiable subspace of the anisotropic x/z plan
        plan = MeasurementPlan(mustar_xz_prop())
        rho0 = initial_muonium_state()
        values = forward_model(rho0, plan)
        result = reconstruct_initial(values, plan, allow_deficient=True)
        assert result.rank == 13
        assert np.abs(result.rho0 - rho0).max() <= 1e-8
        assert result.null_space.shape == (2, 15)

    def test_minimum_norm_fits_the_data(self, rng):
        # for a deficient plan the returned state still reproduces every
        # measured value (the unidentifiable directions carry no signal)
        plan = MeasurementPlan(mustar_xz_prop())
        design = build_design_matrix(plan)
        rho = random_density_matrix(4, rng)
        values = forward_model(rho, plan)
        result = reconstruct_initial(values, plan, allow_deficient=True)
        assert result.residual_norm <= 1e-8
        predicted = 0.5 + design.matrix @ state_to_coefficients(result.rho0)
        assert np.abs(predicted - values).max() <= 1e-6

    def test_noise_scaling(self, rng):
        # Frobenius error grows linearly with the noise level, within a
        # geometry factor of the condition number
        plan = MeasurementPlan(generic_unitary_family(),
                               times=golden_jitter_times(8.0, 5))
        _, cond = identifiability(plan)
        rho = random_density_matrix(4, rng)
        clean = forward_model(rho, plan)
        sigma = 5e-3
        errs = []
        for _ in range(100):
            noisy = clean + rng.normal(0, sigma, clean.shape)
            result = reconstruct_initial(noisy, plan,
                                         sigmas=np.full(clean.shape, sigma))
            errs.append(np.linalg.norm(result.rho0 - rho))
        mean_err = np.mean(errs)
        assert mean_err <= 3 * sigma * cond
        assert mean_err >= sigma / 3

    def test_noisy_pure_state_projected_to_cone(self, rng):
        # a pure target drives the least-squares estimate outside the
        # positive cone; the result must come back PSD with unit trace, and
        # clipping consistent with the noise level must not raise the flag
        plan = MeasurementPlan(generic_unitary_family(),
                               times=golden_jitter_times(8.0, 5))
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        sigma = 2e-2
        clean = forward_model(rho, plan)
        for _ in range(10):
            noisy = clean + rng.normal(0, sigma, clean.shape)
            result = reconstruct_initial(noisy, plan,
                                         sigmas=np.full(clean.shape, sigma))
            eigs = np.linalg.eigvalsh(result.rho0)
            assert eigs.min() >= -1e-12
            assert abs(np.trace(result.rho0) - 1) < 1e-12
            assert not result.clipped

    def test_inconsistent_data_flags_clipping(self, rng):
        # values generated from a unit-trace Hermitian matrix with a large
        # negative eigenvalue: the fit reproduces it exactly, the cone
        # projection moves an eigenvalue far beyond any noise equivalent
        plan = MeasurementPlan(generic_unitary_family(),
                               times=golden_jitter_times(8.0, 5))
        bad = np.diag([0.8, 0.4, 0.1, -0.3]).astype(complex)
        values = 0.5 + build_design_matrix(plan).matrix @ state_to_coefficients(bad)
        result = reconstruct_initial(values, plan)
        assert result.clipped
        assert np.linalg.eigvalsh(result.rho0).min() >= -1e-12

    def test_wrong_value_count(self):
        plan = MeasurementPlan(mustar_xz_prop())
        with pytest.raises(ValueError):
            reconstruct_initial(np.zeros(7), plan, allow_deficient=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, message", [
        ("values", "measurement values must be finite"),
        ("sigmas", "sigmas must be positive and finite")])
    def test_non_finite_input_rejected_before_solving(self, monkeypatch, bad, field, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a non-finite input")

        monkeypatch.setattr(np.linalg, "lstsq", no_solve)
        plan = MeasurementPlan(generic_unitary_family(), times=golden_jitter_times(8.0, 5))
        inputs = {"values": forward_model(initial_muonium_state(), plan),
                  "sigmas": np.full(15, 0.01)}
        inputs[field][4] = bad
        with pytest.raises(ValueError, match=message):
            reconstruct_initial(inputs["values"], plan, sigmas=inputs["sigmas"])

    @pytest.mark.parametrize("sigmas", [np.full(3, 0.01), np.full(16, 0.01),
                                        np.full((15, 1), 0.01), 0.01])
    def test_sigma_count_rejected_before_solving(self, monkeypatch, sigmas):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved with misshapen sigmas")

        monkeypatch.setattr(np.linalg, "lstsq", no_solve)
        plan = MeasurementPlan(generic_unitary_family(), times=golden_jitter_times(8.0, 5))
        values = forward_model(initial_muonium_state(), plan)
        with pytest.raises(ValueError, match="expected 15 sigmas, one per measurement value"):
            reconstruct_initial(values, plan, sigmas=sigmas)
