"""Command-line front end.

Verbs: evolve (field sweeps of the reduced tomogram and entanglement),
simulate (Monte Carlo histograms plus tomogram estimation), reconstruct
(initial state from a measurement file), bell (Bell-number maximization
along an evolution), report (entanglement report time series).

Outputs are plot-ready long-format CSV plus JSON manifests; no plotting
dependency. Exit codes: 0 ok, 2 configuration error, 3 numeric failure.
"""

import argparse
import csv
import functools
import io
import json
import sys
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
    estimate_tomogram,
    estimates_to_csv,
    simulate_events,
)
from .reconstruction import (
    MeasurementPlan,
    identifiability,
    reconstruct_initial,
)
from .tomography import AXES, Direction

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


def _propagator_from_args(args, b_field: float) -> tuple[PropagatorSpec, float]:
    material = load_material(args.material)
    spec = material.hamiltonian_spec(
        b_field=b_field,
        b_axis=_axis(args.b_axis) if b_field != 0.0 else None,
        aniso_axis=_axis(args.aniso_axis) if args.aniso_axis else None,
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
        t_max = 4 * 2 * np.pi / gaps[0]
    return np.linspace(0.0, t_max, args.steps)


def _muon_bloch(rho: np.ndarray, j_e: float) -> np.ndarray:
    """P = Tr[rho_mu sigma] of each state of a stack, shape (n, 3); the
    reduced tomogram is w(+1/2, n) = 1/2 + P.n/2."""
    d_e = int(round(2 * j_e + 1))
    rho_mu = partial_trace(rho, SubsystemDims(2, d_e), keep="a")
    return np.einsum("...ab,kba->...k", rho_mu, PAULI).real


def _cells(values, n: int, repeat: int = 1) -> list:
    """CSV cells of one column: repr of each value, each repeated ``repeat``
    times; n * repeat empty cells when there are no values."""
    if values is None:
        return [""] * (n * repeat)
    return [text for text in map(repr, np.asarray(values).tolist())
            for _ in range(repeat)]


def cmd_evolve(args) -> int:
    fields = args.B if args.B is not None else DEFAULT_SWEEPS.get(args.material, [0.0])
    # every configuration error surfaces before the output directory exists
    runs = []
    for b_field in fields:
        prop, j_e = _propagator_from_args(args, b_field)
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
        n, n_axes = w.shape
        columns = [_cells(times, n, n_axes), list(AXES) * n, _cells(w.ravel(), n * n_axes),
                   _cells(e_val, n, n_axes), _cells(neg, n, n_axes)]
        header = ["t_ns", "axis", "w_reduced", "E", "negativity"]
        if args.bell:
            header.append("max_bell")
            columns.append(_cells(mb, n, n_axes))
        buf = io.StringIO()
        buf.write("# schema: musrtomo/evolve-trace/v1\n")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(zip(*columns))
        fname = out_dir / f"evolve_{Path(args.material).stem}_B{b_field:g}.csv"
        fname.write_text(buf.getvalue())
        manifest["files"].append(fname.name)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"wrote {len(manifest['files'])} trace(s) to {out_dir}")
    return 0


def cmd_simulate(args) -> int:
    _check_time_flags(args)
    b_field = args.B[0] if args.B else 0.0
    prop, j_e = _propagator_from_args(args, b_field)
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
    estimates = estimate_tomogram(hist, geometry, model)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "histograms.csv").write_text(hist.to_csv(geometry))
    (out_dir / "histograms.meta.json").write_text(hist.metadata_json(model, args.seed))
    (out_dir / "tomogram_estimate.csv").write_text(estimates_to_csv(estimates))

    # truth comparison: decay-weighted averages of the exact tomogram over
    # 33 points per bin, one polarization call for every bin that any axis keeps
    low = np.array([est.low_confidence for est in estimates])
    kept = np.nonzero(~low.all(axis=0))[0]
    ts = np.linspace(bin_edges[kept], bin_edges[kept + 1], 33, axis=1)
    wdecay = np.exp(-ts / model.lifetime_ns)
    pol = polarization(ts.ravel()).reshape(*ts.shape, 3)
    bloch = np.einsum("bs,bsa->ba", wdecay, pol) / wdecay.sum(axis=1)[:, None]
    report = []
    for est, est_low in zip(estimates, low):
        truths = 0.5 + 0.5 * bloch @ est.axis.vector
        for i, truth in zip(kept, truths):
            if est_low[i]:
                continue
            dev = (est.w_plus[i] - truth) / est.sigma[i]
            report.append({"axis": [est.axis.theta, est.axis.phi],
                           "t_ns": float(est.times[i]),
                           "w_estimate": float(est.w_plus[i]),
                           "w_truth": float(truth), "sigma": float(est.sigma[i]),
                           "deviation_sigmas": float(dev)})
    (out_dir / "comparison.json").write_text(json.dumps(report, indent=2))
    within = sum(1 for r in report if abs(r["deviation_sigmas"]) <= 3)
    print(f"simulated {args.n_muons} muons; {within}/{len(report)} bins within 3 sigma")
    return 0


def cmd_reconstruct(args) -> int:
    plan_data = json.loads(Path(args.plan).read_text())
    prop, _ = _propagator_from_args(
        argparse.Namespace(material=plan_data["material"],
                           b_axis=plan_data.get("B_axis", "z"),
                           aniso_axis=plan_data.get("aniso_axis")),
        plan_data.get("B", 0.0))
    dirs = [Direction(*d) if isinstance(d, (list, tuple)) else _axis(d)
            for d in plan_data.get("directions", ["x", "y", "z"])]
    plan = MeasurementPlan(prop, directions=tuple(dirs),
                           times=tuple(plan_data["times_ns"]))
    rank, cond = identifiability(plan)
    values, sigmas = _read_measurements(args.measurements, plan)
    if rank < 15 and not args.allow_deficient:
        from .reconstruction import build_design_matrix
        null = build_design_matrix(plan).null_space()
        print(f"error: plan is rank deficient: rank {rank} < 15, "
              f"null-space dimension {null.shape[0]}", file=sys.stderr)
        print(json.dumps({"rank": rank, "condition_number": cond,
                          "null_space": null.tolist()}, indent=2), file=sys.stderr)
        return 2
    result = reconstruct_initial(values, plan, sigmas=sigmas,
                                 allow_deficient=args.allow_deficient)
    Path(args.out).write_text(result.to_json(plan))
    print(f"wrote reconstruction report to {args.out} "
          f"(rank {result.rank}, residual {result.residual_norm:.3e})")
    return 0


def _read_measurements(path: str, plan: MeasurementPlan):
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if not line.startswith("#"):
                rows.append(line)
    reader = csv.DictReader(io.StringIO("".join(rows)))
    table = {}
    has_sigma = True
    for rec in reader:
        key = (round(float(rec["t_ns"]), 9),
               round(float(rec["theta"]), 9), round(float(rec["phi"]), 9))
        sigma = rec.get("sigma")
        if sigma in (None, ""):
            has_sigma = False
        table[key] = (float(rec["w_plus"]), float(sigma) if sigma else None)
    values, sigmas = [], []
    for t in plan.times:
        for d in plan.directions:
            key = (round(t, 9), round(d.theta, 9), round(d.phi, 9))
            if key not in table:
                raise ConfigError(f"measurement file misses (t={t}, "
                                  f"theta={d.theta}, phi={d.phi})")
            w, s = table[key]
            values.append(w)
            sigmas.append(s)
    return np.array(values), (np.array(sigmas, dtype=float) if has_sigma else None)


def _two_qubit_series(args, what: str, include_max_bell: bool = True):
    b_field = args.B[0] if args.B else 0.0
    prop, j_e = _propagator_from_args(args, b_field)
    if j_e != 0.5:
        raise ConfigError(f"{what} requires a two-qubit system")
    rho0 = _load_init(args.init, j_e)
    times = _time_grid(prop, args)
    rho = evolve_density(rho0, prop.unitary(times))
    return times, entanglement_series(rho, include_max_bell)


def cmd_bell(args) -> int:
    times, series = _two_qubit_series(args, "bell maximization")
    buf = io.StringIO()
    buf.write("# schema: musrtomo/bell-trace/v1\n")
    writer = csv.writer(buf)
    writer.writerow(["t_ns", "max_bell", "E", "negativity"])
    n = len(times)
    writer.writerows(zip(_cells(times, n), _cells(series["max_bell"], n),
                         _cells(series["E"], n), _cells(series["negativity"], n)))
    Path(args.out).write_text(buf.getvalue())
    print(f"wrote bell trace to {args.out}")
    return 0


def cmd_report(args) -> int:
    times, series = _two_qubit_series(args, "entanglement report",
                                      include_max_bell=not args.no_bell)
    # one EntanglementReport.to_json record per instant, keys in its order
    columns = {"t": times, **series}
    reports = [dict(zip(columns, values))
               for values in zip(*(c.tolist() for c in columns.values()))]
    Path(args.out).write_text(json.dumps(reports, indent=2))
    print(f"wrote {len(reports)} entanglement reports to {args.out}")
    return 0


def _common_physics_flags(p):
    p.add_argument("--material", default="vacuum",
                   help=f"preset name or JSON path (presets: {', '.join(available_presets())})")
    p.add_argument("--B", type=float, nargs="*", default=None,
                   help="field magnitudes in Gauss (sweep for evolve)")
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
    _common_physics_flags(p)
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
