"""The spectral muon-spin table of a PropagatorSpec against the routes it
replaced, kept here as oracles: the level-block polarization closure with its
bin integrals, the per-time einsum design rows and the two-pass gap search."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_density_matrix
from musrtomo.dynamics import (
    PropagatorSpec,
    initial_muonium_state,
    muon_polarization_function,
)
from musrtomo.linalg import PAULI, TWO_QUBIT_BASIS
from musrtomo.materials import available_presets, load_material
from musrtomo.musr import MUON_LIFETIME_NS
from musrtomo.reconstruction import MeasurementPlan, build_design_matrix, time_generic_rank
from musrtomo.tomography import AXES, Direction

SPIN1_FILE = str(Path(__file__).resolve().parent / "fixtures" / "spin1-hyperfine.json")
OBLIQUE = Direction.from_vector([0.6, 0.0, 0.8])


# --------------------------------------------------------------------------
# oracles: the routes the table replaced

def distinct(values, tol):
    """First value of each cluster of the ascending ``values`` (neighbours
    within tol are one), and the cluster of each value."""
    starts = np.concatenate([[True], np.diff(values) > tol])
    return values[starts], np.cumsum(starts) - 1


def gaps_by_levels(prop):
    """Distinct levels first, then the distinct gaps between them."""
    w = np.linalg.eigvalsh(prop.matrix())
    tol = 1e-12 * np.abs(w).max()
    levels = distinct(w, tol)[0]
    lo, hi = np.triu_indices(len(levels), 1)
    return distinct(np.sort(levels[hi] - levels[lo]), tol)[0]


def polarization_by_level_blocks(rho0, prop):
    """(P(t), Q_b) callables: rho0 times the muon spin summed over the blocks
    of the distinct levels l_p, P_a(t) = c_a + sum_{p<q} 2 Re[C_aqp
    e^{-i (l_q - l_p) t}], and each pair term integrated over a bin as
    e^{z t0} (e^{z dt} - 1) / (z tau), z = i w - 1/tau."""
    w, v = np.linalg.eigh(prop.matrix())
    d_e = rho0.shape[0] // 2
    rho_p = v.conj().T @ rho0 @ v
    c = np.array([rho_p * (v.conj().T @ np.kron(s, np.eye(d_e)) @ v).T for s in PAULI])
    levels, level_of = distinct(w, 1e-12 * np.abs(w).max())
    member = (level_of == np.arange(len(levels))[:, None]).astype(float)
    blocks = member @ c @ member.T
    const = np.einsum("app->a", blocks).real
    lo, hi = np.triu_indices(len(levels), 1)
    amps = 2 * np.concatenate([blocks[:, hi, lo].real, blocks[:, hi, lo].imag], axis=1)
    omegas = levels[hi] - levels[lo]

    def polarization(times):
        phase = np.multiply.outer(omegas, np.atleast_1d(times))
        return (amps @ np.concatenate([np.cos(phase), np.sin(phase)]) + const[:, None]).T

    def decay_integrals(edges, tau):
        # e^{z dt} - 1 written without cancellation
        start, width = edges[:-1, None], np.diff(edges)[:, None]
        decay, turn = -width / tau, omegas * width
        step = (np.expm1(decay) * np.cos(turn) - 2 * np.sin(turn / 2) ** 2
                + 1j * np.exp(decay) * np.sin(turn)) / ((1j * omegas - 1 / tau) * tau)
        pairs = np.exp(-start / tau) * (np.cos(omegas * start) + 1j * np.sin(omegas * start)) \
            * step
        mass = np.exp(-start / tau) * -np.expm1(decay)
        return mass * const + np.concatenate([pairs.real, pairs.imag], axis=1) @ amps.T

    return polarization, decay_integrals


def design_by_einsum(plan):
    """Design rows from the stacked U(t), one path-searching einsum."""
    u = plan.propagator.unitary(np.array(plan.times))
    s = np.einsum("tba,xbc,tcd,ida->txi", u.conj(), 2 * TWO_QUBIT_BASIS[:3], u,
                  TWO_QUBIT_BASIS, optimize=True).real
    n = np.array([d.vector for d in plan.directions])
    return 0.5 * np.einsum("ka,tai->tki", n, s).reshape(-1, 15)


# --------------------------------------------------------------------------

ORIENTATIONS = {"zero": (0.0, None), "z": (176.0, AXES["z"]), "x": (790.0, AXES["x"]),
                "oblique": (176.0, OBLIQUE)}


def propagator(material, b_field, b_axis, aniso_axis=None):
    mat = load_material(material)
    return PropagatorSpec(mat.hamiltonian_spec(b_field=b_field, b_axis=b_axis,
                                               aniso_axis=aniso_axis))


@st.composite
def configurations(draw):
    """(propagator, initial state) over every preset and the j_e = 1 file:
    zero field or fields up to 3200 G along z, x, y or an oblique axis,
    every anisotropy axis, fresh muonium or a random state."""
    material = draw(st.sampled_from([*available_presets(), SPIN1_FILE]))
    b_field = draw(st.one_of(st.just(0.0), st.floats(1.0, 3200.0)))
    b_axis = draw(st.sampled_from([*AXES.values(), OBLIQUE]))
    aniso = draw(st.sampled_from([*AXES.values(), OBLIQUE]))
    prop = propagator(material, b_field, b_axis if b_field else None, aniso)
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    d = prop.hamiltonian.dim
    rho0 = initial_muonium_state(prop.hamiltonian.j_e) if draw(st.booleans()) \
        else random_density_matrix(d, rng)
    return prop, rho0, rng


class TestAgainstOracles:
    @given(config=configurations())
    @settings(deadline=None, max_examples=150)
    def test_polarization_bins_rows_and_gaps(self, config):
        prop, rho0, rng = config
        polarization = muon_polarization_function(rho0, prop)
        want_p, want_q = polarization_by_level_blocks(rho0, prop)
        # times up to 20 ns: phases g t stay below about 1,200 rad, whose
        # rounding the two routes take at different places
        ts = np.concatenate([[0.0], rng.uniform(0.0, 20.0, 30)])
        assert np.abs(polarization(ts) - want_p(ts)).max() <= 1e-13
        # bins of the simulate width at the start, inside and at the end of
        # its window; Q_b carries the decay mass of its bin
        width = 3 * MUON_LIFETIME_NS / 512
        edges = np.sort(np.concatenate([[0.0, width], rng.uniform(0.0, 3 * MUON_LIFETIME_NS, 6)]))
        got = polarization.decay_integrals(edges, MUON_LIFETIME_NS)
        assert np.abs(got - want_q(edges, MUON_LIFETIME_NS)).max() <= 1e-13
        want_gaps = gaps_by_levels(prop)
        assert len(prop.eigenfrequency_gaps()) == len(want_gaps)
        assert np.abs(prop.eigenfrequency_gaps() - want_gaps).max(initial=0.0) \
            <= 1e-12 * max(1.0, want_gaps.max(initial=0.0))
        if prop.hamiltonian.dim == 4:
            directions = tuple(Direction.from_vector(rng.normal(size=3)) for _ in range(3))
            plan = MeasurementPlan(prop, directions=directions, times=tuple(ts[1:6]))
            assert np.abs(build_design_matrix(plan).matrix - design_by_einsum(plan)).max() \
                <= 1e-13

    def test_zero_field_muonium_has_one_gap(self):
        # zero-field muonium: the three triplet levels are one, and the two
        # pairs across the singlet gap give one cos and one sin term
        table = propagator("vacuum", 0.0, None).spectral_table
        assert table.gaps.tolist() == pytest.approx([4.453], rel=1e-14)
        assert table.coefficients.shape == (3, 3, 4, 4)
        for c in table.coefficients.reshape(-1, 4, 4):
            assert np.abs(c - c.conj().T).max() <= 1e-15

    def test_single_level_has_no_gaps(self):
        # no coupling and no field: H = 0, and the muon spin stays constant
        flat = PropagatorSpec(dataclasses.replace(
            propagator("vacuum", 0.0, None).hamiltonian, a=0.0)).spectral_table
        assert flat.gaps.shape == (0,) and flat.coefficients.shape == (3, 1, 4, 4)
        assert np.abs(flat.coefficients[:, 0] - 2 * TWO_QUBIT_BASIS[:3]).max() <= 1e-15


ALL_ORIENTATIONS = [(material, name, aniso)
                    for material in available_presets() for name in ORIENTATIONS
                    for aniso in (["x", "y", "z"] if material == "si-mustar" else [None])]


class TestTimeGenericRank:
    @pytest.mark.parametrize("material, orientation, aniso", ALL_ORIENTATIONS)
    def test_is_the_best_rank_of_random_plans(self, material, orientation, aniso):
        b_field, b_axis = ORIENTATIONS[orientation]
        prop = propagator(material, b_field, b_axis, AXES[aniso] if aniso else None)
        plan = MeasurementPlan(prop)
        generic = time_generic_rank(plan)
        rng = np.random.default_rng(len(material) + 7 * len(orientation))
        span = 4 * 2 * np.pi / prop.eigenfrequency_gaps()[0]
        ranks = [build_design_matrix(MeasurementPlan(
            prop, times=tuple(rng.uniform(0.0, span, 5)))).rank for _ in range(100)]
        # design rows lie in the span of the table's rows, whatever the times
        assert max(ranks) == generic

    @pytest.mark.parametrize("material, b_field, b_axis, aniso, want", [
        ("si-mustar", 100.0, AXES["z"], AXES["x"], 13),
        ("quartz", 176.0, OBLIQUE, None, 11),
        ("quartz", 790.0, AXES["x"], None, 11),
        ("quartz", 0.0, None, None, 9),
        ("vacuum", 0.0, None, None, 9),
    ])
    def test_stated_values(self, material, b_field, b_axis, aniso, want):
        prop = propagator(material, b_field, b_axis, aniso)
        assert time_generic_rank(MeasurementPlan(prop)) == want

    def test_fewer_directions_lower_it(self):
        prop = propagator("si-mustar", 100.0, AXES["z"], AXES["x"])
        plan = MeasurementPlan(prop, directions=(AXES["z"],))
        assert time_generic_rank(plan) < 13

    def test_rejects_a_larger_system(self):
        prop = propagator(SPIN1_FILE, 0.0, None)
        with pytest.raises(ValueError, match="4x4"):
            time_generic_rank(MeasurementPlan(prop, times=(0.1, 0.2)))

    def test_rejects_a_plain_callable(self):
        # a callable t -> U has no spectral table
        levels = np.array([0.75, -0.25, 0.5, -1.0])
        plan = MeasurementPlan(lambda t: np.diag(np.exp(-1j * levels * t)), times=(0.1, 0.2))
        with pytest.raises(ValueError, match="needs a two-qubit .* PropagatorSpec"):
            time_generic_rank(plan)


class TestOneEigensystem:
    @pytest.mark.parametrize("b_axis", [AXES["z"], OBLIQUE], ids=["closed-form", "numeric"])
    def test_one_eigh_per_propagator(self, b_axis, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(m, *args, **kwargs):
            calls.append(m.shape)
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        prop = propagator("quartz", 176.0, b_axis)
        polarization = muon_polarization_function(initial_muonium_state(), prop)
        polarization(np.linspace(0.0, 100.0, 11))
        polarization.decay_integrals(np.linspace(0.0, 6000.0, 9), MUON_LIFETIME_NS)
        build_design_matrix(MeasurementPlan(prop, times=(1.0, 2.0, 3.5)))
        prop.eigenfrequency_gaps()
        time_generic_rank(MeasurementPlan(prop, times=(1.0,)))
        assert calls == [(4, 4)]

    def test_table_is_cached_and_read_only(self):
        prop = propagator("si-mustar", 100.0, AXES["z"], AXES["x"])
        table = prop.spectral_table
        assert prop.spectral_table is table
        with pytest.raises(ValueError, match="read-only"):
            table.gaps[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            table.coefficients[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            prop.eigenfrequency_gaps()[:] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.gaps = np.zeros(1)
