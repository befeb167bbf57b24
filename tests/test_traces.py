"""Whole-trace route of evolve, bell and report (one stacked propagator and
batched diagnostics per field) against the per-instant library calls, and
the per-instant checks that the stacked route keeps; and the parser, built
once per process, with its per-call dispatch."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SPIN1, random_density_matrix, read_csv
from musrtomo import cli
from musrtomo.cli import build_parser, main
from musrtomo.dynamics import PropagatorSpec, evolve_density, initial_muonium_state
from musrtomo.entanglement import (
    correlation_matrix,
    entanglement_measure,
    entanglement_series,
    max_bell,
    negativity,
    positivity_coefficients,
)
from musrtomo.linalg import (
    PAULI,
    SubsystemDims,
    partial_transpose,
)
from musrtomo.materials import load_material
from musrtomo.tomography import X_AXIS, Y_AXIS, Z_AXIS, Direction
from musrtomo.twospin import reduced_tomogram

AXES = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS,
        "0.6,0,0.8": Direction.from_vector([0.6, 0.0, 0.8])}


@st.composite
def physics(draw):
    """(material, field in G, field axis, anisotropy axis or None)."""
    material = draw(st.sampled_from(["vacuum", "quartz", "si-mustar", SPIN1]))
    b_field = draw(st.one_of(st.just(0.0), st.floats(1.0, 3200.0)))
    b_axis = draw(st.sampled_from(["z", "x", "0.6,0,0.8"]))
    aniso = draw(st.sampled_from(["x", "y", "z"])) if material == "si-mustar" else None
    return material, b_field, b_axis, aniso


def propagator(material, b_field, b_axis, aniso):
    mat = load_material(material)
    spec = mat.hamiltonian_spec(b_field=b_field, b_axis=AXES[b_axis],
                                aniso_axis=AXES[aniso] if aniso else None)
    return PropagatorSpec(spec), mat.j_e


def per_instant(prop, t):
    return evolve_density(initial_muonium_state(prop.hamiltonian.j_e), prop.unitary(t))


def physics_flags(material, b_field, b_axis, aniso):
    flags = ["--material", material, "--B", repr(b_field), "--B-axis", b_axis]
    return flags + (["--aniso-axis", aniso] if aniso else [])


def eigh_negativity(rho, dims):
    """Reference: the per-instant eigh route that the batched eigvalsh replaced."""
    w = np.linalg.eigh(partial_transpose(rho, dims))[0]
    return -w[w < 0].sum()


def kron_max_bell(rho):
    """Reference: 2 s_max of T from nine traces with sigma_i x sigma_j."""
    t = [[np.trace(rho @ np.kron(si, sj)).real for sj in PAULI] for si in PAULI]
    return 2 * np.linalg.svd(t)[1][0]


def close(got, want, tol):
    assert abs(float(got) - float(want)) <= tol, (got, want)


class TestStackedEqualsPerInstant:
    def test_correlation_table_matches_kron_traces(self, rng):
        # the loop of 9 traces that the cached sigma_i x sigma_j table replaced
        rho = np.array([random_density_matrix(4, rng) for _ in range(6)])
        ref = np.array([[[np.trace(r @ np.kron(si, sj)).real for sj in PAULI]
                         for si in PAULI] for r in rho])
        assert np.abs(correlation_matrix(rho) - ref).max() <= 1e-15
        assert np.abs(correlation_matrix(rho[0]) - ref[0]).max() <= 1e-15

    @given(case=physics(),
           times=st.lists(st.floats(0.0, 100.0), max_size=7).map(lambda ts: [0.0, *ts]))
    @settings(deadline=None, max_examples=80)
    def test_library_route(self, case, times):
        prop, j_e = propagator(*case)
        times = np.array(times)
        stack = prop.unitary(times)
        assert stack.shape == (len(times), prop.hamiltonian.dim, prop.hamiltonian.dim)
        rho = evolve_density(initial_muonium_state(j_e), stack)
        for k, t in enumerate(times):
            assert np.abs(stack[k] - prop.unitary(t)).max() <= 1e-13
            assert np.abs(rho[k] - per_instant(prop, t)).max() <= 1e-12
        if j_e == 1.0:
            neg = negativity(rho, SubsystemDims(2, 3))
            for k, t in enumerate(times):
                rho_t = per_instant(prop, t)
                close(neg[k], negativity(rho_t, SubsystemDims(2, 3)), 1e-12)
                close(neg[k], eigh_negativity(rho_t, SubsystemDims(2, 3)), 1e-12)
            return
        series = entanglement_series(rho)
        e_stack = entanglement_measure(rho)
        for k, t in enumerate(times):
            rho_t = per_instant(prop, t)
            coeff = positivity_coefficients(partial_transpose(rho_t, SubsystemDims(2, 2)))
            close(series["E"][k], entanglement_measure(rho_t), 1e-12)
            close(e_stack[k], entanglement_measure(rho_t), 1e-12)
            close(series["M2"][k], coeff.m2, 1e-12)
            close(series["M3"][k], coeff.m3, 1e-12)
            close(series["M4"][k], coeff.m4, 1e-12)
            close(series["negativity"][k], negativity(rho_t, SubsystemDims(2, 2)), 1e-12)
            close(series["max_bell"][k], max_bell(rho_t)[0], 1e-12)
            close(series["negativity"][k], eigh_negativity(rho_t, SubsystemDims(2, 2)), 1e-12)
            close(series["max_bell"][k], kron_max_bell(rho_t), 1e-12)

    @given(case=physics(), t_max=st.floats(0.1, 100.0), steps=st.integers(1, 9))
    @settings(deadline=None, max_examples=40)
    def test_cli_traces(self, case, t_max, steps):
        prop, j_e = propagator(*case)
        grid = ["--t-max-ns", repr(t_max), "--steps", str(steps)]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            assert main(["evolve", *physics_flags(*case), *grid, "--bell",
                         "--out", str(out / "ev")]) == 0
            (trace,) = (out / "ev").glob("evolve_*.csv")
            rows = read_csv(trace)
            assert len(rows) == 3 * steps
            assert [r["axis"] for r in rows] == ["x", "y", "z"] * steps
            for row in rows:
                rho_t = per_instant(prop, float(row["t_ns"]))
                ref = reduced_tomogram(rho_t, 0.5, j_e, AXES[row["axis"]])[0]
                close(row["w_reduced"], ref, 1e-12)
                if j_e == 1.0:
                    close(row["negativity"],
                          negativity(rho_t, SubsystemDims(2, 3)), 1e-12)
                    assert row["E"] == row["max_bell"] == ""
                else:
                    close(row["E"], entanglement_measure(rho_t), 1e-12)
                    close(row["negativity"],
                          negativity(rho_t, SubsystemDims(2, 2)), 1e-12)
                    close(row["max_bell"], max_bell(rho_t)[0], 1e-12)
            if j_e != 0.5:
                return
            assert main(["bell", *physics_flags(*case), *grid,
                         "--out", str(out / "bell.csv")]) == 0
            assert main(["report", *physics_flags(*case), *grid,
                         "--out", str(out / "rep.json")]) == 0
            bell_rows = read_csv(out / "bell.csv")
            reports = json.loads((out / "rep.json").read_text())
        assert len(bell_rows) == len(reports) == steps
        for row, rep in zip(bell_rows, reports):
            assert float(row["t_ns"]) == rep["t"]
            rho_t = per_instant(prop, rep["t"])
            coeff = positivity_coefficients(partial_transpose(rho_t, SubsystemDims(2, 2)))
            for got, want in ((row["max_bell"], max_bell(rho_t)[0]),
                              (row["E"], entanglement_measure(rho_t)),
                              (row["negativity"], negativity(rho_t, SubsystemDims(2, 2))),
                              (rep["max_bell"], max_bell(rho_t)[0]),
                              (rep["E"], entanglement_measure(rho_t)),
                              (rep["M2"], coeff.m2), (rep["M3"], coeff.m3),
                              (rep["M4"], coeff.m4),
                              (rep["negativity"], negativity(rho_t, SubsystemDims(2, 2)))):
                close(got, want, 1e-12)


def run_verb(verb, tmp_path, material="quartz"):
    out = tmp_path / ("ev" if verb == "evolve" else f"{verb}.out")
    return main([verb, "--material", material, "--B", "790", "--B-axis", "x",
                 "--t-max-ns", "2.0", "--steps", "16", "--out", str(out)])


class TestStackedChecks:
    BAD = 11  # the one corrupted instant of the 16

    @pytest.mark.parametrize("verb", ["evolve", "bell", "report"])
    def test_one_non_unitary_slice(self, tmp_path, capsys, monkeypatch, verb):
        unitary = PropagatorSpec.unitary

        def one_bad(self, t):
            u = unitary(self, t)
            u[TestStackedChecks.BAD] *= 1.001
            return u
        monkeypatch.setattr(PropagatorSpec, "unitary", one_bad)
        assert run_verb(verb, tmp_path) == 2
        assert "evolution operator is not unitary" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, material", [
        ("evolve", "quartz"), ("evolve", SPIN1), ("bell", "quartz"), ("report", "quartz")])
    @pytest.mark.parametrize("defect, message", [
        (np.array([[0, 1e-6], [-1e-6, 0]]), "density matrix is not Hermitian"),
        (np.array([[1e-6, 0], [0, 0]]), "density matrix trace"),
    ])
    def test_one_bad_state(self, tmp_path, capsys, monkeypatch, verb, material,
                           defect, message):
        evolve = cli.evolve_density

        def one_bad(rho0, u):
            rho = evolve(rho0, u)
            rho[TestStackedChecks.BAD, :2, :2] += defect
            return rho
        monkeypatch.setattr(cli, "evolve_density", one_bad)
        assert run_verb(verb, tmp_path, material) == 2
        assert message in capsys.readouterr().err


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_dispatch_sees_rebound_command(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_bell", lambda args: seen.append(args.command) or 0)
        assert main(["bell", "--steps", "2"]) == 0
        assert seen == ["bell"]
