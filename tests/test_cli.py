import json

import numpy as np
import pytest

from conftest import SPIN1, decay_weighted_gl, read_csv
from test_boundaries import HEADER, SIGMAS, TIMES, material_text, measured, plan_text
from musrtomo.cli import main
from musrtomo.materials import load_material
from musrtomo.dynamics import (
    PropagatorSpec,
    evolve_density,
    initial_muonium_state,
    muon_polarization_function,
)
from musrtomo.musr import DecayModel
from musrtomo.tomography import X_AXIS, Y_AXIS, Z_AXIS, Direction
from musrtomo.twospin import reduced_tomogram


class TestEvolve:
    def test_quartz_zero_field_reduced_law(self, tmp_path):
        out = tmp_path / "ev"
        rc = main(["evolve", "--material", "quartz", "--B", "0",
                   "--t-max-ns", "1.4", "--steps", "64", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "evolve_quartz_B0.csv")
        omega0 = load_material("quartz").a_rad_ns
        for row in rows:
            t = float(row["t_ns"])
            w = float(row["w_reduced"])
            if row["axis"] == "z":
                assert abs(w - (3 + np.cos(omega0 * t)) / 4) <= 1e-10
            else:
                assert abs(w - 0.5) <= 1e-12
            assert 0.0 <= w <= 1.0
            assert float(row["E"]) >= 0.0

    def test_reduced_values_match_rotation_route(self, tmp_path):
        # the CLI reads w(+1/2, n) off the Bloch vector; the reference rotates
        out = tmp_path / "ev"
        rc = main(["evolve", "--material", "quartz", "--B", "790", "--B-axis", "x",
                   "--t-max-ns", "1.0", "--steps", "8", "--out", str(out)])
        assert rc == 0
        prop = PropagatorSpec(load_material("quartz").hamiltonian_spec(
            b_field=790.0, b_axis=X_AXIS))
        axes = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}
        for row in read_csv(out / "evolve_quartz_B790.csv"):
            rho_t = evolve_density(initial_muonium_state(), prop.unitary(float(row["t_ns"])))
            ref = reduced_tomogram(rho_t, 0.5, 0.5, axes[row["axis"]])[0]
            assert abs(float(row["w_reduced"]) - ref) <= 1e-12

    @pytest.mark.parametrize("flags, fields", [
        (["quartz", "--t-max-ns", "0.5", "--steps", "8"], [0.0, 790.0, 1580.0, 3160.0]),
        (["si-mustar", "--aniso-axis", "x", "--t-max-ns", "50", "--steps", "16"],
         [0.0, 10.0, 33.0, 100.0])], ids=["quartz", "si-mustar"])
    def test_default_sweep_emits_four_traces(self, tmp_path, flags, fields):
        assert main(["evolve", "--material", *flags, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fields_gauss"] == fields and len(manifest["files"]) == 4

    def test_material_file_names_trace_by_stem(self, tmp_path):
        assert main(["evolve", "--material", SPIN1, "--B", "0", "--t-max-ns", "1.0",
                     "--steps", "8", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "evolve_spin1-hyperfine_B0.csv")
        assert len(rows) == 3 * 8
        assert all(row["E"] == "" and float(row["negativity"]) >= 0 for row in rows)


class TestExitCodes:
    """The refusals of bad input, exit 2, are rows of tests/test_boundaries.py."""

    def test_ok_is_zero(self, tmp_path):
        assert main(["evolve", "--B", "0", "--t-max-ns", "1.0", "--steps", "2",
                     "--out", str(tmp_path)]) == 0

    def test_linalg_failure_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        def fail(self, t):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(PropagatorSpec, "unitary", fail)
        rc = main(["evolve", "--B", "0", "--out", str(tmp_path)])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["evolve", "bell", "report"])
    def test_single_level_spectrum_runs_with_a_time_span(self, tmp_path, verb):
        # no coupling and no field leave one level; --t-max-ns sets the window
        material = tmp_path / "custom.json"
        material.write_text(material_text(A_MHz=0))
        assert main([verb, "--material", str(material), "--B", "0", "--t-max-ns", "1.0",
                     "--steps", "4", "--out", str(tmp_path / "out")]) == 0


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--material", "vacuum", "--n-muons", "20000",
                "--seed", "9", "--steps", "3", "--t-max-ns", "4500"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "histograms.csv").read_text() == \
            (out2 / "histograms.csv").read_text()
        assert (out1 / "tomogram_estimate.csv").read_text() == \
            (out2 / "tomogram_estimate.csv").read_text()

    def test_outputs_exist_and_parse(self, tmp_path):
        assert main(["simulate", "--material", "vacuum", "--n-muons", "50000", "--seed", "3",
                     "--steps", "3", "--t-max-ns", "4500", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "histograms.csv").read_text()
        lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
        assert lines[0] == "detector_id,axis_theta,axis_phi,bin_start_ns,bin_end_ns,counts"
        assert len(lines) - 1 == 2 * 3
        meta = json.loads((tmp_path / "histograms.meta.json").read_text())
        assert (meta["n_muons"], meta["seed"]) == (50000, 3)
        assert meta["lifetime_ns"] == DecayModel().lifetime_ns
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        assert comparison, "comparison report should not be empty"

    def test_failed_estimate_keeps_the_histograms(self, tmp_path, capsys):
        # few muons over many bins: no bin reaches the estimate's count floor
        out = tmp_path / "sim"
        rc = main(["simulate", "--material", "si-mustar", "--B", "50", "--aniso-axis", "x",
                   "--detectors", "z+x+y", "--n-muons", "3000", "--steps", "2000",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no bins above the count floor" in err and str(out / "histograms.csv") in err
        rows = read_csv(out / "histograms.csv")
        assert len(rows) == 6 * 2000
        assert {int(r["detector_id"]) for r in rows} == set(range(6))
        assert sum(int(r["counts"]) for r in rows) > 0
        assert json.loads((out / "histograms.meta.json").read_text())["n_muons"] == 3000
        assert not (out / "tomogram_estimate.csv").exists()
        assert not (out / "comparison.json").exists()

    def test_truth_is_decay_weighted_bin_average(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--material", "quartz", "--B", "790", "--B-axis", "x",
                   "--detectors", "z+x+y", "--n-muons", "20000", "--seed", "5",
                   "--steps", "24", "--t-max-ns", "9000", "--out", str(out)])
        assert rc == 0
        prop = PropagatorSpec(load_material("quartz").hamiltonian_spec(
            b_field=790.0, b_axis=X_AXIS))
        polarization = muon_polarization_function(initial_muonium_state(), prop)
        lifetime = DecayModel().lifetime_ns
        edges = np.linspace(0.0, 9000.0, 25)
        kept = {(round(float(r["axis_theta"]), 12), round(float(r["axis_phi"]), 12),
                 float(r["t_ns"]))
                for r in read_csv(out / "tomogram_estimate.csv") if r["low_confidence"] == "0"}
        comparison = json.loads((out / "comparison.json").read_text())
        assert {(round(c["axis"][0], 12), round(c["axis"][1], 12), c["t_ns"])
                for c in comparison} == kept
        # the exact decay-weighted mean over each bin, by Gauss-Legendre with
        # 16-node panels that each span at most 1 rad of the highest level gap
        panels = int(np.ceil(prop.eigenfrequency_gaps()[-1] * 9000.0 / 24)) + 1
        mass, q = decay_weighted_gl(polarization, edges, lifetime, panels)
        # a pair of opposed 70-degree cones counts the share 1 - cos 70 of the
        # decays in a bin, plus that share of the 1% background spread evenly
        # over the 24 bins: about 46 counts expected in the last bin, more
        # than 6 Poisson sigmas below the count floor of 100, so the last
        # bins drop out of the comparison by construction
        expected = 20000 * (1 - np.cos(np.radians(70))) * (mass[-1] + 0.01 * mass.sum() / 24)
        assert expected + 6 * np.sqrt(expected) < 100
        assert len(comparison) < 3 * 24
        for c in comparison:
            i = int(c["t_ns"] // (9000.0 / 24))
            w_true = 0.5 + 0.5 * q[i] @ Direction(*c["axis"]).vector / mass[i]
            assert abs(c["w_truth"] - w_true) <= 1e-12


class TestReconstruct:
    def run(self, tmp_path, rows, plan=None, name="rep.json", header=HEADER, comments=()):
        """The report of reconstruct --allow-deficient on the plan (the 10a
        configuration by default) and the measurement rows."""
        (tmp_path / "plan.json").write_text(plan or plan_text())
        (tmp_path / "meas.csv").write_text(
            "\n".join([*comments, *map(",".join, [header, *rows])]) + "\n")
        out = tmp_path / name
        assert main(["reconstruct", "--plan", str(tmp_path / "plan.json"), "--measurements",
                     str(tmp_path / "meas.csv"), "--allow-deficient", "--out", str(out)]) == 0
        return out.read_text()

    def test_min_norm_report_recovers_fresh_muonium(self, tmp_path, capsys):
        text = self.run(tmp_path, measured())
        rep = json.loads(text)
        assert json.dumps(rep, indent=2) == text
        assert list(rep) == ["rank", "condition_number", "residual_norm", "clipped",
                             "rho0_real", "rho0_imag", "null_space_dimension", "null_space",
                             "plan", "time_generic_rank"]
        assert rep["rank"] == 13 and rep["residual_norm"] < 1e-8
        rho = np.array(rep["rho0_real"]) + 1j * np.array(rep["rho0_imag"])
        assert np.abs(rho - initial_muonium_state()).max() < 1e-6
        assert rep["null_space_dimension"] == len(rep["null_space"]) == 2
        assert all(len(row) == 15 for row in rep["null_space"])
        assert rep["clipped"] is False
        assert rep["plan"] == {"directions": [[d.theta, d.phi] for d in (X_AXIS, Y_AXIS, Z_AXIS)],
                               "times_ns": TIMES}
        # rank 13 is all that any times give the 10a configuration
        assert rep["time_generic_rank"] == rep["rank"] == 13
        assert "time-generic" not in capsys.readouterr().err

    def test_times_that_lose_directions_are_named(self, tmp_path, capsys):
        # two times give six rows, fewer than the 13 the Hamiltonian allows
        text = self.run(tmp_path, measured(times=[10.0, 25.0]), plan_text(times=[10.0, 25.0]))
        err = capsys.readouterr().err
        assert "rank 6 < time-generic rank 13" in err
        assert "the chosen times, not the Hamiltonian, lose directions" in err
        assert json.loads(text)["time_generic_rank"] == 13

    def test_sigmas_kept_past_an_unread_row_without_one(self, tmp_path):
        weighted = self.run(tmp_path, SIGMAS, name="a.json")
        assert self.run(tmp_path, SIGMAS + [["999.0", "0.0", "0.0", "0.5", ""]],
                        name="b.json") == weighted
        assert self.run(tmp_path, measured(), name="c.json") != weighted

    def test_a_read_row_without_sigma_drops_the_weights(self, tmp_path):
        unweighted = self.run(tmp_path, measured(), name="a.json")
        assert self.run(tmp_path, SIGMAS[:4] + measured()[4:5] + SIGMAS[5:],
                        name="b.json") == unweighted

    def test_rows_match_in_any_order_to_nine_digits(self, tmp_path):
        # '#' lines are skipped, and the plan's keys find their rows in any
        # order, with the times and angles compared rounded to 9 digits
        want = self.run(tmp_path, SIGMAS, name="a.json")
        shifted = [[repr(10.0 + 1e-11), *SIGMAS[0][1:]], *SIGMAS[1:]]
        assert self.run(tmp_path, shifted[::-1], comments=["# measured"], name="b.json") == want

    def test_a_missing_sigma_column_reads_as_empty_cells(self, tmp_path):
        unweighted = self.run(tmp_path, measured(), name="a.json")
        assert self.run(tmp_path, [row[:4] for row in measured()], header=HEADER[:4],
                        name="b.json") == unweighted


class TestBellAndReport:
    def test_bell_trace(self, tmp_path):
        out = tmp_path / "bell.csv"
        rc = main(["bell", "--material", "vacuum", "--t-max-ns", "1.0",
                   "--steps", "4", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert 0 <= float(row["max_bell"]) <= 1 + 1e-6
            assert float(row["E"]) >= 0

    def test_report_json(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["report", "--material", "vacuum", "--t-max-ns", "1.0",
                   "--steps", "3", "--no-bell", "--out", str(out)])
        assert rc == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 3
        assert {"t", "E", "M2", "M3", "M4", "max_bell", "negativity"} == set(reports[0])

    def test_report_without_bell_writes_nan(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["report", "--material", "quartz", "--B", "790", "--t-max-ns", "2.0",
                     "--steps", "17", "--no-bell", "--out", str(out)]) == 0
        text = out.read_text()
        assert '"max_bell": NaN' in text
        assert text == json.dumps(json.loads(text), indent=2)
