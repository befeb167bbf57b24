#!/usr/bin/env python3
"""Golden CLI outputs: the cases, their runner and the script that rewrites them.

Each case is one ``musrtomo`` invocation, run in-process from ``tests/``.
Its files land in ``tests/golden/<case>/``, next to ``status.txt``: the exit
code, stdout with the output directory written as ``<out>``, and stderr.
``tests/test_golden.py`` reruns every case and compares bytes. Rewrite the
set, inputs included, only when an output is meant to change:

    PYTHONPATH=src python tests/golden/regen.py
"""

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

from musrtomo.cli import main
from musrtomo.dynamics import PropagatorSpec, initial_muonium_state
from musrtomo.materials import load_material
from musrtomo.reconstruction import MeasurementPlan, forward_model
from musrtomo.tomography import X_AXIS, Y_AXIS, Z_AXIS

GOLDEN = Path(__file__).resolve().parent
TESTS = GOLDEN.parent
PLAN = "golden/inputs/plan.json"
MEASUREMENTS = "golden/inputs/measurements.csv"
QUARTZ_X = ["--material", "quartz", "--B", "790", "--B-axis", "x"]

# argv of each case, relative to tests/; {out} is the case's output directory
CASES = {
    "evolve_vacuum_bell": ["evolve", "--material", "vacuum", "--bell", "--steps", "16",
                           "--out", "{out}"],
    "evolve_quartz_x": ["evolve", *QUARTZ_X, "--steps", "16", "--out", "{out}"],
    "evolve_si_mustar": ["evolve", "--material", "si-mustar", "--aniso-axis", "x",
                         "--steps", "16", "--out", "{out}"],
    "evolve_spin1": ["evolve", "--material", "fixtures/spin1-hyperfine.json",
                     "--steps", "16", "--out", "{out}"],
    "simulate": ["simulate", "--material", "quartz", "--B", "176", "--B-axis", "0.6,0,0.8",
                 "--detectors", "z+x+y", "--n-muons", "10000", "--steps", "32",
                 "--background", "0.02", "--seed", "7", "--out", "{out}"],
    "reconstruct_deficient": ["reconstruct", "--plan", PLAN, "--measurements", MEASUREMENTS,
                              "--out", "{out}/reconstruction.json"],
    "reconstruct_allow_deficient": ["reconstruct", "--plan", PLAN,
                                    "--measurements", MEASUREMENTS, "--allow-deficient",
                                    "--out", "{out}/reconstruction.json"],
    "bell_vacuum": ["bell", "--material", "vacuum", "--steps", "16", "--out", "{out}/bell.csv"],
    "bell_quartz_x": ["bell", *QUARTZ_X, "--steps", "16", "--out", "{out}/bell.csv"],
    "report_vacuum": ["report", "--material", "vacuum", "--steps", "16",
                      "--out", "{out}/report.json"],
    "report_quartz_x": ["report", *QUARTZ_X, "--steps", "16", "--out", "{out}/report.json"],
}


def run_case(name: str, out: Path) -> None:
    """Run one case into the empty directory ``out``, status.txt included."""
    out.mkdir(parents=True)
    argv = [arg.replace("{out}", str(out)) for arg in CASES[name]]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(TESTS)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    (out / "status.txt").write_text(f"exit {code}\n--- stdout\n"
                                    f"{stdout.getvalue().replace(str(out), '<out>')}"
                                    f"--- stderr\n{stderr.getvalue()}")


def write_inputs() -> None:
    """The reconstruct plan (si-mustar at 100 G, rank 13 of 15) and its
    exact measurements of fresh muonium, with a sigma on every row."""
    times = [10.0, 25.0, 47.0, 90.0, 130.0]
    inputs = GOLDEN / "inputs"
    inputs.mkdir()
    (inputs / "plan.json").write_text(json.dumps({
        "material": "si-mustar", "B": 100.0, "B_axis": "z", "aniso_axis": "x",
        "directions": ["x", "y", "z"], "times_ns": times}, indent=2) + "\n")
    spec = load_material("si-mustar").hamiltonian_spec(b_field=100.0, b_axis=Z_AXIS,
                                                       aniso_axis=X_AXIS)
    plan = MeasurementPlan(PropagatorSpec(spec), directions=(X_AXIS, Y_AXIS, Z_AXIS),
                           times=tuple(times))
    values = forward_model(initial_muonium_state(), plan)
    rows = [f"{t!r},{d.theta!r},{d.phi!r},{float(values[k])!r},{0.01 * (1 + k % 3)!r}"
            for k, (t, d) in enumerate((t, d) for t in plan.times for d in plan.directions)]
    (inputs / "measurements.csv").write_text("\n".join(["t_ns,theta,phi,w_plus,sigma",
                                                        *rows]) + "\n")


def regenerate() -> None:
    for path in GOLDEN.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    write_inputs()
    for name in CASES:
        run_case(name, GOLDEN / name)


if __name__ == "__main__":
    regenerate()
