"""Command-line front end.

Verbs: evolve (field sweeps of the reduced tomogram and entanglement, one
trace per --B value), simulate (Monte Carlo histograms plus tomogram
estimation), reconstruct (initial state from a measurement file), bell
(Bell-number maximization along an evolution), report (entanglement report
time series); simulate, bell and report take one --B value.

Outputs are plot-ready long-format CSV plus JSON manifests; no plotting
dependency. Exit codes: 0 ok, 2 configuration error (usage errors
included), 3 numeric failure.
"""

import argparse
import csv
import functools
import json
import sys
from itertools import compress
from pathlib import Path

import numpy as np

from .dynamics import (
    PropagatorSpec,
    evolve_density,
    initial_muonium_state,
    muon_polarization_function,
)
from .entanglement import entanglement_series, negativity
from .linalg import PAULI, SubsystemDims, partial_trace, require_density_matrix
from .materials import available_presets, load_material
from .musr import (
    DecayModel,
    DetectorGeometry,
    ESTIMATE_SCHEMA,
    decay_bin_integrals,
    estimate_cells,
    estimate_tomogram,
    simulate_events,
)
from .reconstruction import (MeasurementPlan, build_design_matrix, reconstruct_initial,
                             time_generic_rank)
from .tomography import AXES, Direction, csv_text, float_cells

DEFAULT_SWEEPS = {
    "quartz": [0.0, 790.0, 1580.0, 3160.0],
    "si-mustar": [0.0, 10.0, 33.0, 100.0],
    "vacuum": [0.0],
}


class ConfigError(Exception):
    pass


def _axis(name: str) -> Direction:
    if name in AXES:
        return AXES[name]
    try:
        parts = [float(x) for x in name.split(",")]
        return Direction.from_vector(parts)
    except Exception as exc:
        raise ConfigError(f"cannot parse axis {name!r}: use x|y|z or 'vx,vy,vz'") from exc


def _load_init(path: str | None, j_e: float) -> np.ndarray:
    if path is None or path == "default":
        return initial_muonium_state(j_e)
    data = json.loads(Path(path).read_text())
    rho = np.array(data["real"], dtype=float) + 1j * np.array(data.get("imag", 0.0))
    return require_density_matrix(rho)


def _propagator(material_name: str, b_field: float, b_axis: str,
                aniso_axis: str | None) -> tuple[PropagatorSpec, float]:
    """(propagator, j_e) of a material in a field; the axes are names or
    'vx,vy,vz' strings, the field axis read only for a nonzero field."""
    material = load_material(material_name)
    spec = material.hamiltonian_spec(
        b_field=b_field,
        b_axis=_axis(b_axis) if b_field != 0.0 else None,
        aniso_axis=_axis(aniso_axis) if aniso_axis else None,
    )
    return PropagatorSpec(spec), material.j_e


def _check_time_flags(args) -> None:
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if args.t_max_ns is not None and not (np.isfinite(args.t_max_ns) and args.t_max_ns > 0):
        raise ConfigError(f"--t-max-ns must be finite and > 0, got {args.t_max_ns}")


def _time_grid(prop: PropagatorSpec, args) -> np.ndarray:
    _check_time_flags(args)
    if args.t_max_ns is not None:
        t_max = args.t_max_ns
    else:
        gaps = prop.eigenfrequency_gaps()
        if len(gaps) == 0:
            raise ConfigError("a single-level spectrum sets no time scale; pass --t-max-ns")
        t_max = 4 * 2 * np.pi / gaps[0]
    return np.linspace(0.0, t_max, args.steps)


def _muon_bloch(rho: np.ndarray, j_e: float) -> np.ndarray:
    """P = Tr[rho_mu sigma] of each state of a stack, shape (n, 3); the
    reduced tomogram is w(+1/2, n) = 1/2 + P.n/2."""
    d_e = int(round(2 * j_e + 1))
    rho_mu = partial_trace(rho, SubsystemDims(2, d_e), keep="a")
    return np.einsum("...ab,kba->...k", rho_mu, PAULI).real


# one record of comparison.json in the layout of json.dumps(records, indent=2)
_COMPARISON_RECORD = ('  {{\n    "axis": [\n      {},\n      {}\n    ],\n    "t_ns": {},\n'
                      '    "w_estimate": {},\n    "w_truth": {},\n    "sigma": {},\n'
                      '    "deviation_sigmas": {}\n  }}')


def _comparison_json(*columns) -> str:
    """json.dumps(records, indent=2) of the records whose fields, in template
    order, are the ``float_cells`` columns; no key and no finite repr holds
    'nan' or 'inf', so the text takes JSON's NaN and Infinity in one pass."""
    records = ",\n".join(map(_COMPARISON_RECORD.format, *columns))
    text = f"[\n{records}\n]" if records else "[]"
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def cmd_evolve(args) -> int:
    fields = args.B if args.B is not None else DEFAULT_SWEEPS.get(args.material, [0.0])
    # every configuration error surfaces before the output directory exists
    runs = []
    for b_field in fields:
        prop, j_e = _propagator(args.material, b_field, args.b_axis, args.aniso_axis)
        runs.append((b_field, prop, j_e, _load_init(args.init, j_e), _time_grid(prop, args)))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"material": args.material, "fields_gauss": fields, "files": []}
    axes = np.array([axis.vector for axis in AXES.values()])
    for b_field, prop, j_e, rho0, times in runs:
        rho = evolve_density(rho0, prop.unitary(times))  # (n, d, d), one pass
        e_val = neg = mb = None
        if j_e == 0.5:
            series = entanglement_series(rho, include_max_bell=args.bell)
            e_val, neg, mb = series["E"], series["negativity"], series["max_bell"]
        elif j_e == 1.0:
            neg = negativity(rho, SubsystemDims(2, 3))
        # rows run over times, then over the axes x, y, z
        w = np.clip(0.5 + 0.5 * _muon_bloch(rho, j_e) @ axes.T, 0.0, 1.0)
        n_axes = w.shape[1]
        extra = {"E": e_val, "negativity": neg, **({"max_bell": mb} if args.bell else {})}
        columns = {"t_ns": float_cells(times, n_axes), "axis": list(AXES) * len(times),
                   "w_reduced": float_cells(w),
                   **{name: [""] * w.size if values is None else float_cells(values, n_axes)
                      for name, values in extra.items()}}
        fname = out_dir / f"evolve_{Path(args.material).stem}_B{b_field:g}.csv"
        fname.write_text(csv_text("musrtomo/evolve-trace/v1", columns))
        manifest["files"].append(fname.name)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"wrote {len(manifest['files'])} trace(s) to {out_dir}")
    return 0


def cmd_simulate(args) -> int:
    _check_time_flags(args)
    prop, j_e = _propagator(args.material, args.B, args.b_axis, args.aniso_axis)
    rho0 = _load_init(args.init, j_e)
    polarization = muon_polarization_function(rho0, prop)
    model = DecayModel(asymmetry=args.asymmetry)
    geometry = DetectorGeometry.opposing_pairs(
        [_axis(a) for a in args.detectors.split("+")],
        half_angle=np.radians(args.half_angle_deg))
    t_max = args.t_max_ns if args.t_max_ns is not None else 3 * model.lifetime_ns
    bin_edges = np.linspace(0.0, t_max, args.steps + 1)
    hist = simulate_events(polarization, geometry, model, args.n_muons, args.seed,
                           bin_edges, background_fraction=args.background)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "histograms.csv").write_text(hist.to_csv(geometry))
    (out_dir / "histograms.meta.json").write_text(hist.metadata_json(model, args.seed))
    try:
        estimates = estimate_tomogram(hist, geometry, model)
    except ValueError as exc:
        raise ConfigError(f"{exc}; wrote {out_dir / 'histograms.csv'}") from exc
    cells = estimate_cells(estimates)
    (out_dir / "tomogram_estimate.csv").write_text(csv_text(ESTIMATE_SCHEMA, cells))

    # truth comparison: the exact decay-weighted mean polarization of every
    # bin that any axis keeps, Q_b / m_b in closed form; one record per
    # estimate CSV row that its axis keeps, in row order
    on = ~np.array([est.low_confidence for est in estimates])
    kept = np.flatnonzero(on.any(axis=0))
    mass, q = decay_bin_integrals(polarization, bin_edges, model.lifetime_ns)
    bloch = q[kept] / mass[kept, None]
    truth = np.array([0.5 + 0.5 * bloch @ est.axis.vector for est in estimates])[on[:, kept]]
    dev = (np.array([est.w_plus for est in estimates])[on] - truth) \
        / np.array([est.sigma for est in estimates])[on]
    keep = on.ravel().tolist()
    theta, phi, t_ns, w_est, sigma = (list(compress(cells[name], keep)) for name in (
        "axis_theta", "axis_phi", "t_ns", "w_plus", "sigma"))
    (out_dir / "comparison.json").write_text(_comparison_json(
        theta, phi, t_ns, w_est, float_cells(truth), sigma, float_cells(dev)))
    within = np.count_nonzero(np.abs(dev) <= 3)
    print(f"simulated {args.n_muons} muons; {within}/{len(dev)} bins within 3 sigma")
    return 0


def cmd_reconstruct(args) -> int:
    plan_data = json.loads(Path(args.plan).read_text())
    prop, _ = _propagator(plan_data["material"], plan_data.get("B", 0.0),
                          plan_data.get("B_axis", "z"), plan_data.get("aniso_axis"))
    dirs = [Direction(*d) if isinstance(d, (list, tuple)) else _axis(d)
            for d in plan_data.get("directions", ["x", "y", "z"])]
    plan = MeasurementPlan(prop, directions=tuple(dirs),
                           times=tuple(plan_data["times_ns"]))
    design = build_design_matrix(plan)
    values, sigmas = _read_measurements(args.measurements, plan)
    generic = time_generic_rank(plan)
    if design.rank < generic:
        print(f"note: rank {design.rank} < time-generic rank {generic}: the chosen "
              "times, not the Hamiltonian, lose directions", file=sys.stderr)
    if design.rank < 15 and not args.allow_deficient:
        null = design.null_space()
        print(f"error: plan is rank deficient: rank {design.rank} < 15, "
              f"null-space dimension {null.shape[0]}", file=sys.stderr)
        print(json.dumps({"rank": design.rank, "condition_number": design.condition_number,
                          "null_space": null.tolist()}, indent=2), file=sys.stderr)
        return 2
    result = reconstruct_initial(values, plan, sigmas=sigmas,
                                 allow_deficient=args.allow_deficient, design=design)
    Path(args.out).write_text(result.to_json(plan, time_generic_rank=generic))
    print(f"wrote reconstruction report to {args.out} "
          f"(rank {result.rank}, residual {result.residual_norm:.3e})")
    return 0


def _read_measurements(path: str, plan: MeasurementPlan):
    """(w_plus, sigma) of the plan's rows, in plan order; sigma is None
    unless every row the plan reads has one.

    Lines starting with '#' are skipped. Rows and plan keys (t_ns, theta,
    phi) match rounded to 9 digits; an empty or missing w_plus or sigma cell
    reads as NaN. A repeated row, a plan key without a row and a read row
    without w_plus are configuration errors.
    """
    def rounded(key):
        return tuple(round(float(x), 9) for x in key)

    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    table = {}
    for rec in csv.DictReader(lines):
        key = rounded(rec[c] for c in ("t_ns", "theta", "phi"))
        if key in table:
            raise ConfigError(f"measurement file repeats the row {key}")
        table[key] = [float(rec.get(v) or "nan") for v in ("w_plus", "sigma")]
    keys = [(t, d.theta, d.phi) for t in plan.times for d in plan.directions]
    try:
        values, sigmas = np.array([table[rounded(key)] for key in keys]).reshape(-1, 2).T
    except KeyError as exc:
        raise ConfigError(f"file misses sample {exc.args[0]}") from None
    missing = np.isnan(values)
    if missing.any():
        raise ConfigError(f"measurement file has no w_plus for {keys[missing.argmax()]}")
    return values, (None if np.isnan(sigmas).any() else sigmas)


def _two_qubit_series(args, what: str, include_max_bell: bool = True):
    prop, j_e = _propagator(args.material, args.B, args.b_axis, args.aniso_axis)
    if j_e != 0.5:
        raise ConfigError(f"{what} requires a two-qubit system")
    rho0 = _load_init(args.init, j_e)
    times = _time_grid(prop, args)
    rho = evolve_density(rho0, prop.unitary(times))
    return times, entanglement_series(rho, include_max_bell)


def cmd_bell(args) -> int:
    times, series = _two_qubit_series(args, "bell maximization")
    Path(args.out).write_text(csv_text("musrtomo/bell-trace/v1", {
        "t_ns": float_cells(times),
        **{name: float_cells(series[name]) for name in ("max_bell", "E", "negativity")}}))
    print(f"wrote bell trace to {args.out}")
    return 0


def cmd_report(args) -> int:
    times, series = _two_qubit_series(args, "entanglement report",
                                      include_max_bell=not args.no_bell)
    # one record per instant: t, then the series' keys in their order
    columns = {"t": times, **series}
    reports = [dict(zip(columns, values))
               for values in zip(*(c.tolist() for c in columns.values()))]
    Path(args.out).write_text(json.dumps(reports, indent=2))
    print(f"wrote {len(reports)} entanglement reports to {args.out}")
    return 0


def _common_physics_flags(p, sweep: bool = False):
    p.add_argument("--material", default="vacuum",
                   help=f"preset name or JSON path (presets: {', '.join(available_presets())})")
    p.add_argument("--B", type=float, nargs="+" if sweep else None,
                   default=None if sweep else 0.0,
                   help="field magnitudes in Gauss, one trace each" if sweep
                   else "field magnitude in Gauss")
    p.add_argument("--B-axis", dest="b_axis", default="z")
    p.add_argument("--aniso-axis", dest="aniso_axis", default=None)
    p.add_argument("--t-max-ns", dest="t_max_ns", type=float, default=None)
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--init", default="default",
                   help="'default' or path to a JSON density matrix {real, imag}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it as is)."""
    parser = argparse.ArgumentParser(prog="musrtomo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="field-sweep time traces of the reduced tomogram")
    _common_physics_flags(p, sweep=True)
    p.add_argument("--bell", action="store_true", help="include max_bell")
    p.add_argument("--out", default="evolve_out")

    p = sub.add_parser("simulate", help="Monte Carlo histograms and tomogram estimate")
    _common_physics_flags(p)
    p.add_argument("--detectors", default="z",
                   help="'+'-separated pair axes, e.g. 'z+x' (each gets a fwd/bwd pair)")
    p.add_argument("--n-muons", dest="n_muons", type=int, default=1_000_000)
    p.add_argument("--half-angle-deg", dest="half_angle_deg", type=float, default=70.0)
    p.add_argument("--background", type=float, default=0.01)
    p.add_argument("--asymmetry", type=float, default=1.0 / 3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="simulate_out")

    p = sub.add_parser("reconstruct", help="initial state from measured tomogram values")
    p.add_argument("--plan", required=True, help="plan JSON")
    p.add_argument("--measurements", required=True, help="CSV (t_ns,theta,phi,w_plus[,sigma])")
    p.add_argument("--allow-deficient", action="store_true",
                   help="return the minimum-norm solution for rank-deficient plans")
    p.add_argument("--out", default="reconstruction.json")

    p = sub.add_parser("bell", help="Bell-number maximization along an evolution")
    _common_physics_flags(p)
    p.add_argument("--out", default="bell_trace.csv")

    p = sub.add_parser("report", help="entanglement report time series (JSON)")
    _common_physics_flags(p)
    p.add_argument("--no-bell", action="store_true", help="skip max_bell")
    p.add_argument("--out", default="entanglement_report.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a rebound or patched cmd_* is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    # LinAlgError subclasses ValueError, so numeric failures are caught first
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
