import csv
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import decay_weighted_gl
from musrtomo.cli import main
from musrtomo.materials import load_material
from musrtomo.reconstruction import MeasurementPlan, forward_model
from musrtomo.dynamics import (
    PropagatorSpec,
    evolve_density,
    initial_muonium_state,
    muon_polarization_function,
)
from musrtomo.musr import DecayModel
from musrtomo.tomography import X_AXIS, Y_AXIS, Z_AXIS, Direction
from musrtomo.twospin import reduced_tomogram


SPIN1 = str(Path(__file__).parent / "fixtures" / "spin1-hyperfine.json")


def write_material(folder, **fields) -> str:
    """A hyperfine material file with the given fields changed; the path."""
    data = {"name": "custom", "family": "hyperfine", "A_MHz": 4463.0,
            "A_is_angular": False, "deltaA_MHz": 0.0, "j_e": 0.5, **fields}
    path = folder / "custom.json"
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


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

    def test_quartz_default_sweep_emits_four_traces(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["evolve", "--material", "quartz", "--t-max-ns", "0.5",
                   "--steps", "8", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["fields_gauss"] == [0.0, 790.0, 1580.0, 3160.0]
        assert len(manifest["files"]) == 4

    def test_silicon_sweep(self, tmp_path):
        out = tmp_path / "si"
        rc = main(["evolve", "--material", "si-mustar", "--aniso-axis", "x",
                   "--t-max-ns", "50", "--steps", "16", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["fields_gauss"] == [0.0, 10.0, 33.0, 100.0]
        assert len(manifest["files"]) == 4

    def test_unknown_material_is_config_error(self, tmp_path):
        rc = main(["evolve", "--material", "nothere", "--out", str(tmp_path)])
        assert rc == 2

    def test_material_file_names_trace_by_stem(self, tmp_path):
        material = tmp_path / "spin1-hyperfine.json"
        material.write_text(json.dumps({
            "name": "spin1-hyperfine", "family": "hyperfine", "A_MHz": 2000.0,
            "A_is_angular": False, "j_e": 1.0}))
        out = tmp_path / "ev"
        rc = main(["evolve", "--material", str(material), "--B", "0",
                   "--t-max-ns", "1.0", "--steps", "8", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "evolve_spin1-hyperfine_B0.csv")
        assert len(rows) == 3 * 8
        assert all(row["E"] == "" and float(row["negativity"]) >= 0 for row in rows)


class TestExitCodes:
    def test_ok_is_zero(self, tmp_path):
        assert main(["evolve", "--B", "0", "--t-max-ns", "1.0", "--steps", "2",
                     "--out", str(tmp_path)]) == 0

    def test_non_finite_field_is_config_error(self, tmp_path, capsys):
        rc = main(["evolve", "--B", "nan", "--out", str(tmp_path)])
        assert rc == 2
        assert "b_field must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["nan,0,1", "inf,0,1"])
    def test_non_finite_field_axis_is_config_error(self, tmp_path, capsys, axis):
        rc = main(["evolve", "--material", "quartz", "--B", "100", "--B-axis", axis,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "cannot parse axis" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["evolve", "simulate"])
    def test_config_error_leaves_no_output_dir(self, tmp_path, verb):
        out = tmp_path / "x"
        extra = ["--n-muons", "100"] if verb == "simulate" else []
        assert main([verb, "--B", "nan", *extra, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--steps", "0"], ["--t-max-ns", "-1"],
                                       ["--t-max-ns", "inf"]])
    @pytest.mark.parametrize("verb", ["evolve", "simulate"])
    def test_bad_time_grid_is_config_error(self, tmp_path, capsys, verb, flags):
        extra = ["--n-muons", "100"] if verb == "simulate" else []
        rc = main([verb, *flags, *extra, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error: --" in capsys.readouterr().err

    def test_linalg_failure_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        def fail(self, t):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(PropagatorSpec, "unitary", fail)
        rc = main(["evolve", "--B", "0", "--out", str(tmp_path)])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_init_dimension_mismatch_is_config_error(self, tmp_path, capsys):
        init = tmp_path / "rho0.json"
        init.write_text(json.dumps({"real": (np.eye(4) / 4).tolist()}))
        rc = main(["simulate", "--material", SPIN1, "--init", str(init),
                   "--n-muons", "100", "--out", str(tmp_path / "sim")])
        assert rc == 2
        assert ("initial state dimension 4 does not match the propagator dimension 6"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("verb", ["evolve", "bell", "report"])
    def test_single_level_spectrum_needs_a_time_span(self, tmp_path, capsys, verb):
        # no coupling and no field leave one level, so no gap sets the window
        material = write_material(tmp_path, A_MHz=0)
        out = tmp_path / "out"
        assert main([verb, "--material", material, "--B", "0", "--out", str(out)]) == 2
        assert "pass --t-max-ns" in capsys.readouterr().err
        assert not out.exists()
        assert main([verb, "--material", material, "--B", "0", "--t-max-ns", "1.0",
                     "--steps", "4", "--out", str(out)]) == 0

    @pytest.mark.parametrize("j_e", [0.7, 0, -0.5, float("nan"), float("inf")])
    def test_electron_spin_must_be_a_half_integer(self, tmp_path, capsys, j_e):
        material = write_material(tmp_path, j_e=j_e)
        out = tmp_path / "out"
        rc = main(["evolve", "--material", material, "--B", "0", "--t-max-ns", "1.0",
                   "--out", str(out)])
        assert rc == 2
        assert "j_e must be a positive multiple of 1/2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields", [[], ["100", "200"]], ids=["none", "two"])
    @pytest.mark.parametrize("verb", ["simulate", "bell", "report"])
    def test_single_field_verbs_take_one_field(self, tmp_path, verb, fields):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([verb, "--B", *fields, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_evolve_takes_at_least_one_field(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--B", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", [
        ({"A_is_angular": "false"}, "A_is_angular must be true or false"),
        ({"deltaA_MHz": 10.0}, "family 'hyperfine' has no anisotropy"),
        ({"family": "isotropic", "deltaA_MHz": 10.0}, "family 'isotropic' has no anisotropy"),
        ({"family": "muonic"}, "unknown family 'muonic'"),
        ({"A_MHz": "4463"}, "A_MHz must be a JSON number, got '4463'"),
        ({"j_e": True}, "j_e must be a JSON number, got True"),
        ({"deltaA_MHz": None}, "deltaA_MHz must be a JSON number, got None"),
    ], ids=["string-flag", "hyperfine-delta", "isotropic-delta", "unknown-family",
            "string-coupling", "boolean-spin", "null-anisotropy"])
    def test_bad_material_file_is_config_error(self, tmp_path, capsys, fields, message):
        material = write_material(tmp_path, **fields)
        out = tmp_path / "out"
        rc = main(["evolve", "--material", material, "--B", "0", "--t-max-ns", "1.0",
                   "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["evolve", "bell", "report"])
    def test_seed_belongs_to_simulate_only(self, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--seed", "1"])
        assert exc.value.code == 2


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
        out = tmp_path / "sim"
        rc = main(["simulate", "--material", "vacuum", "--n-muons", "50000",
                   "--seed", "3", "--steps", "3", "--t-max-ns", "4500",
                   "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "histograms.meta.json").read_text())
        assert meta["n_muons"] == 50000
        comparison = json.loads((out / "comparison.json").read_text())
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
                   "--steps", "24", "--t-max-ns", "6000", "--out", str(out)])
        assert rc == 0
        prop = PropagatorSpec(load_material("quartz").hamiltonian_spec(
            b_field=790.0, b_axis=X_AXIS))
        polarization = muon_polarization_function(initial_muonium_state(), prop)
        lifetime = DecayModel().lifetime_ns
        edges = np.linspace(0.0, 6000.0, 25)
        kept = {(round(float(r["axis_theta"]), 12), round(float(r["axis_phi"]), 12),
                 float(r["t_ns"]))
                for r in read_csv(out / "tomogram_estimate.csv") if r["low_confidence"] == "0"}
        comparison = json.loads((out / "comparison.json").read_text())
        assert {(round(c["axis"][0], 12), round(c["axis"][1], 12), c["t_ns"])
                for c in comparison} == kept
        assert len(comparison) < 3 * 24  # the late bins fall below the count floor
        # the exact decay-weighted mean over each bin, by Gauss-Legendre with
        # 16-node panels that each span at most 1 rad of the highest level gap
        panels = int(np.ceil(prop.eigenfrequency_gaps()[-1] * 6000.0 / 24)) + 1
        mass, q = decay_weighted_gl(polarization, edges, lifetime, panels)
        for c in comparison:
            i = int(c["t_ns"] // (6000.0 / 24))
            w_true = 0.5 + 0.5 * q[i] @ Direction(*c["axis"]).vector / mass[i]
            assert abs(c["w_truth"] - w_true) <= 1e-12


class TestReconstruct:
    def write_inputs(self, tmp_path, times, material="si-mustar", b=100.0):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "material": material, "B": b, "B_axis": "z", "aniso_axis": "x",
            "directions": ["x", "y", "z"], "times_ns": times,
        }))
        mat = load_material(material)
        prop = PropagatorSpec(mat.hamiltonian_spec(b_field=b, b_axis=Z_AXIS,
                                                   aniso_axis=X_AXIS))
        plan = MeasurementPlan(prop, directions=(X_AXIS, Y_AXIS, Z_AXIS),
                               times=tuple(times))
        values = forward_model(initial_muonium_state(), plan)
        meas_file = tmp_path / "meas.csv"
        lines = ["t_ns,theta,phi,w_plus,sigma"]
        k = 0
        for t in plan.times:
            for d in plan.directions:
                lines.append(f"{t!r},{d.theta!r},{d.phi!r},{float(values[k])!r},")
                k += 1
        meas_file.write_text("\n".join(lines) + "\n")
        return plan_file, meas_file

    def test_deficient_plan_reports_rank(self, tmp_path, capsys):
        plan_file, meas_file = self.write_inputs(
            tmp_path, [10.0, 25.0, 47.0, 90.0, 130.0])
        rc = main(["reconstruct", "--plan", str(plan_file),
                   "--measurements", str(meas_file),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "rank deficient" in err
        assert "null" in err

    def test_min_norm_solution_recovers_fresh_muonium(self, tmp_path):
        plan_file, meas_file = self.write_inputs(
            tmp_path, [10.0, 25.0, 47.0, 90.0, 130.0])
        out = tmp_path / "rep.json"
        rc = main(["reconstruct", "--plan", str(plan_file),
                   "--measurements", str(meas_file),
                   "--allow-deficient", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["rank"] == 13
        assert rep["residual_norm"] < 1e-8
        rho = np.array(rep["rho0_real"]) + 1j * np.array(rep["rho0_imag"])
        assert np.abs(rho - initial_muonium_state()).max() < 1e-6

    def test_report_ends_with_the_time_generic_rank(self, tmp_path, capsys):
        # rank 13 is all that any times give the 10a configuration
        plan_file, meas_file = self.write_inputs(
            tmp_path, [10.0, 25.0, 47.0, 90.0, 130.0])
        out = tmp_path / "rep.json"
        assert main(["reconstruct", "--plan", str(plan_file), "--measurements",
                     str(meas_file), "--allow-deficient", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert list(rep)[-1] == "time_generic_rank"
        assert rep["time_generic_rank"] == rep["rank"] == 13
        assert "time-generic" not in capsys.readouterr().err

    def test_times_that_lose_directions_are_named(self, tmp_path, capsys):
        # two times give six rows, fewer than the 13 the Hamiltonian allows
        plan_file, meas_file = self.write_inputs(tmp_path, [10.0, 25.0])
        out = tmp_path / "rep.json"
        assert main(["reconstruct", "--plan", str(plan_file), "--measurements",
                     str(meas_file), "--allow-deficient", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "rank 6 < time-generic rank 13" in err
        assert "the chosen times, not the Hamiltonian, lose directions" in err
        assert json.loads(out.read_text())["time_generic_rank"] == 13

    def test_hyperfine_plan_is_deficient(self, tmp_path, capsys):
        plan_file, meas_file = self.write_inputs(
            tmp_path, [0.3, 0.7, 1.1, 1.9, 2.4], material="vacuum", b=0.0)
        rc = main(["reconstruct", "--plan", str(plan_file),
                   "--measurements", str(meas_file),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2

    def test_missing_measurement_rows(self, tmp_path):
        plan_file, meas_file = self.write_inputs(
            tmp_path, [10.0, 25.0, 47.0, 90.0, 130.0])
        lines = meas_file.read_text().strip().splitlines()
        meas_file.write_text("\n".join(lines[:-3]) + "\n")
        rc = main(["reconstruct", "--plan", str(plan_file),
                   "--measurements", str(meas_file), "--allow-deficient",
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 2


    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_plan_time_is_a_configuration_error(self, tmp_path, capsys, bad):
        plan_file, meas_file = self.write_inputs(
            tmp_path, [10.0, 25.0, 47.0, 90.0, 130.0])
        plan = json.loads(plan_file.read_text())
        plan["times_ns"][0] = bad
        plan_file.write_text(json.dumps(plan))  # NaN / Infinity literals
        rc = main(["reconstruct", "--plan", str(plan_file), "--measurements",
                   str(meas_file), "--allow-deficient", "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        assert f"time {bad!r} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def measured_with_sigmas(self, tmp_path):
        # every plan row carries a sigma, of a different size each
        plan_file, meas_file = self.write_inputs(
            tmp_path, [10.0, 25.0, 47.0, 90.0, 130.0])
        header, *rows = meas_file.read_text().strip().splitlines()
        rows = [f"{row}{0.01 * (1 + k % 4)!r}" for k, row in enumerate(rows)]
        return plan_file, meas_file, header, rows

    def run_reconstruct(self, tmp_path, plan_file, meas_file, name):
        out = tmp_path / name
        assert main(["reconstruct", "--plan", str(plan_file), "--measurements",
                     str(meas_file), "--allow-deficient", "--out", str(out)]) == 0
        return out.read_text()

    def test_sigmas_kept_past_an_unread_row_without_one(self, tmp_path):
        plan_file, meas_file, header, rows = self.measured_with_sigmas(tmp_path)
        meas_file.write_text("\n".join([header, *rows]) + "\n")
        weighted = self.run_reconstruct(tmp_path, plan_file, meas_file, "a.json")
        meas_file.write_text("\n".join([header, *rows, "999.0,0.0,0.0,0.5,"]) + "\n")
        assert self.run_reconstruct(tmp_path, plan_file, meas_file, "b.json") == weighted
        meas_file.write_text("\n".join([header, *(row.rsplit(",", 1)[0] + ","
                                                  for row in rows)]) + "\n")
        assert self.run_reconstruct(tmp_path, plan_file, meas_file, "c.json") != weighted

    def test_a_read_row_without_sigma_drops_the_weights(self, tmp_path):
        plan_file, meas_file, header, rows = self.measured_with_sigmas(tmp_path)
        meas_file.write_text("\n".join([header, *(row.rsplit(",", 1)[0] + ","
                                                  for row in rows)]) + "\n")
        unweighted = self.run_reconstruct(tmp_path, plan_file, meas_file, "a.json")
        rows[4] = rows[4].rsplit(",", 1)[0] + ","
        meas_file.write_text("\n".join([header, *rows]) + "\n")
        assert self.run_reconstruct(tmp_path, plan_file, meas_file, "b.json") == unweighted

    def test_rows_match_in_any_order_to_nine_digits(self, tmp_path):
        # '#' lines are skipped, and the plan's keys find their rows in any
        # order, with the times and angles compared rounded to 9 digits
        plan_file, meas_file, header, rows = self.measured_with_sigmas(tmp_path)
        meas_file.write_text("\n".join([header, *rows]) + "\n")
        want = self.run_reconstruct(tmp_path, plan_file, meas_file, "a.json")
        t, rest = rows[0].split(",", 1)
        shifted = [f"{float(t) + 1e-11!r},{rest}", *rows[1:]]
        meas_file.write_text("\n".join(["# measured", header, *reversed(shifted)]) + "\n")
        assert self.run_reconstruct(tmp_path, plan_file, meas_file, "b.json") == want

    def test_a_key_off_in_the_ninth_digit_is_missing(self, tmp_path, capsys):
        plan_file, meas_file, header, rows = self.measured_with_sigmas(tmp_path)
        t, rest = rows[0].split(",", 1)
        rows[0] = f"{float(t) + 1e-8!r},{rest}"
        meas_file.write_text("\n".join([header, *rows]) + "\n")
        assert main(["reconstruct", "--plan", str(plan_file), "--measurements",
                     str(meas_file), "--allow-deficient",
                     "--out", str(tmp_path / "rep.json")]) == 2
        assert "file misses sample (10.0, 1.570796327, 0.0)" in capsys.readouterr().err

    def test_a_missing_sigma_column_reads_as_empty_cells(self, tmp_path):
        plan_file, meas_file = self.write_inputs(
            tmp_path, [10.0, 25.0, 47.0, 90.0, 130.0])
        unweighted = self.run_reconstruct(tmp_path, plan_file, meas_file, "a.json")
        _, *rows = meas_file.read_text().strip().splitlines()
        meas_file.write_text("\n".join(["t_ns,theta,phi,w_plus",
                                        *(row.rsplit(",", 1)[0] for row in rows)]) + "\n")
        assert self.run_reconstruct(tmp_path, plan_file, meas_file, "b.json") == unweighted

    @pytest.mark.parametrize("repeat", ["read", "unread"])
    def test_repeated_row_is_config_error(self, tmp_path, capsys, repeat):
        # a second row for one (t_ns, theta, phi) is refused, not read over
        # the first, also where the plan does not read that key
        plan_file, meas_file, header, rows = self.measured_with_sigmas(tmp_path)
        t, theta, phi, _, sigma = rows[0].split(",")
        extra = [",".join([t, theta, phi, "0.9", sigma])] if repeat == "read" \
            else ["999.0,0.0,0.0,0.5,"] * 2
        meas_file.write_text("\n".join([header, *rows, *extra]) + "\n")
        assert main(["reconstruct", "--plan", str(plan_file), "--measurements",
                     str(meas_file), "--allow-deficient",
                     "--out", str(tmp_path / "rep.json")]) == 2
        key = "(10.0, 1.570796327, 0.0)" if repeat == "read" else "(999.0, 0.0, 0.0)"
        assert f"measurement file repeats the row {key}" in capsys.readouterr().err

    def test_empty_w_plus_is_config_error(self, tmp_path, capsys):
        plan_file, meas_file = self.write_inputs(
            tmp_path, [10.0, 25.0, 47.0, 90.0, 130.0])
        header, *rows = meas_file.read_text().strip().splitlines()
        t, theta, phi, _, sigma = rows[2].split(",")
        rows[2] = ",".join([t, theta, phi, "", sigma])
        meas_file.write_text("\n".join([header, *rows]) + "\n")
        assert main(["reconstruct", "--plan", str(plan_file), "--measurements",
                     str(meas_file), "--allow-deficient",
                     "--out", str(tmp_path / "rep.json")]) == 2
        assert "measurement file has no w_plus for (10.0, 0.0, 0.0)" in capsys.readouterr().err


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
