"""Command-line front end.

Verbs: evolve (field sweeps of the reduced tomogram and entanglement, one
trace per --B value), simulate (Monte Carlo histograms plus tomogram
estimation), reconstruct (initial state from a measurement file), bell
(Bell-number maximization along an evolution), report (entanglement report
time series); simulate, bell and report take one --B value.

Every output file format is decided here: plot-ready long-format CSV plus
JSON manifests, no plotting dependency. Exit codes: 0 ok, 2 configuration
error (usage errors included), 3 numeric failure.
"""

import argparse
import csv
import functools
import json
import sys
from itertools import compress, starmap
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
from .materials import available_presets, is_json_number, json_field, json_object, load_material
from .musr import (
    DecayModel,
    DetectorGeometry,
    HistogramSeries,
    TomogramEstimate,
    decay_bin_integrals,
    estimate_tomogram,
    simulate_events,
)
from .reconstruction import (MeasurementPlan, build_design_matrix, reconstruct_initial,
                             time_generic_rank)
from .tomography import AXES, Direction, spin_dim

DEFAULT_SWEEPS = {
    "quartz": [0.0, 790.0, 1580.0, 3160.0],
    "si-mustar": [0.0, 10.0, 33.0, 100.0],
    "vacuum": [0.0],
}


class ConfigError(Exception):
    pass


def _axis(name) -> Direction:
    """x|y|z, a 'vx,vy,vz' string or, in a plan, a [theta, phi] pair of numbers."""
    if isinstance(name, list) and len(name) == 2 and all(map(is_json_number, name)):
        return Direction(*name)
    try:
        return AXES[name] if name in AXES else Direction.from_vector(
            [float(x) for x in name.split(",")])
    except Exception as exc:
        raise ConfigError(f"cannot parse axis {name!r}: use x|y|z or 'vx,vy,vz', "
                          "or [theta, phi] in a plan") from exc


def _is_numbers(value) -> bool:
    """Whether a parsed JSON value is a number or an array, nested or not, of numbers."""
    return all(map(_is_numbers, value)) if isinstance(value, list) else is_json_number(value)


def _load_init(path: str | None, j_e: float) -> np.ndarray:
    if path is None or path == "default":
        return initial_muonium_state(j_e)
    data = json_object(json.loads(Path(path).read_text()), "an --init file")
    kind = "a JSON number or nested arrays of numbers"
    real = np.array(json_field(data, "real", kind=kind, ok=_is_numbers), dtype=float)
    imag = np.array(json_field(data, "imag", 0.0, kind, _is_numbers), dtype=float)
    return require_density_matrix(real + 1j * imag)


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
    rho_mu = partial_trace(rho, SubsystemDims(2, spin_dim(j_e)), keep="a")
    return np.einsum("...ab,kba->...k", rho_mu, PAULI).real


def _float_cells(values, repeat: int = 1) -> list:
    """CSV cells of a float column: the repr of each value (flattened),
    formatted once and written ``repeat`` times in a row."""
    cells = list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))
    return cells if repeat == 1 else [cell for cell in cells for _ in range(repeat)]


def _csv_text(schema: str, columns: dict) -> str:
    """A '# schema:' line, then the header (the names of ``columns``) and one
    row per index of its equal-length columns of cell strings, as ``csv.writer``
    lays them out (cells joined by ',', rows ended by CRLF); no cell may need
    quoting. Columns of unequal length raise ValueError."""
    rows = map(",".join, zip(*columns.values(), strict=True))
    return f"# schema: {schema}\n" + "\r\n".join([",".join(columns), *rows]) + "\r\n"


def _histograms_csv(hist: HistogramSeries, geometry: DetectorGeometry) -> str:
    """histograms.csv: rows run over (detector, bin); the bin edges are
    formatted once."""
    axes, n_bins = [det.axis for det in geometry.detectors], hist.counts.shape[1]
    edges, n_dets = _float_cells(hist.bin_edges), len(axes)
    return _csv_text("musrtomo/histograms/v1", {
        "detector_id": [d for d in map(str, range(n_dets)) for _ in range(n_bins)],
        "axis_theta": _float_cells([axis.theta for axis in axes], n_bins),
        "axis_phi": _float_cells([axis.phi for axis in axes], n_bins),
        "bin_start_ns": edges[:-1] * n_dets, "bin_end_ns": edges[1:] * n_dets,
        "counts": list(map(str, hist.counts.ravel().tolist()))})


def _estimate_cells(est: TomogramEstimate) -> dict:
    """The columns of tomogram_estimate.csv as cell strings by header name:
    rows run over (pair, bin); the times are formatted once."""
    return {"axis_theta": _float_cells([axis.theta for axis in est.axes], len(est.times)),
            "axis_phi": _float_cells([axis.phi for axis in est.axes], len(est.times)),
            "t_ns": _float_cells(est.times) * len(est.axes),
            **{name: _float_cells(getattr(est, name)) for name in ("w_plus", "sigma",
                                                                    "pair_counts")},
            "low_confidence": list(map(str, est.low_confidence.astype(int).ravel().tolist()))}


def _records_json(columns: dict) -> str:
    """json.dumps(records, indent=2) of one record per row of the equal-length
    ``columns`` of cell strings (``_float_cells``), keyed by the column names in
    their order; a column of cell pairs gives each record a two-element list.
    No name and no finite repr holds 'nan' or 'inf', so the text takes JSON's
    NaN and Infinity in one pass. Columns of unequal length raise ValueError."""
    fields = (f'    "{name}": [\n      {{{i}[0]}},\n      {{{i}[1]}}\n    ]'
              if column and isinstance(column[0], tuple) else f'    "{name}": {{{i}}}'
              for i, (name, column) in enumerate(columns.items()))
    template = "  {{\n" + ",\n".join(fields) + "\n  }}"
    records = ",\n".join(starmap(template.format, zip(*columns.values(), strict=True)))
    text = f"[\n{records}\n]" if records else "[]"
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _evolution(args, b_field: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(times, rho(t) stack (n, d, d), j_e) of the configured evolution in a field."""
    prop, j_e = _propagator(args.material, b_field, args.b_axis, args.aniso_axis)
    rho0, times = _load_init(args.init, j_e), _time_grid(prop, args)
    return times, evolve_density(rho0, prop.unitary(times)), j_e


def cmd_evolve(args) -> int:
    fields = args.B if args.B is not None else DEFAULT_SWEEPS.get(args.material, [0.0])
    # every configuration error surfaces before the output directory exists
    runs = [(b_field, *_evolution(args, b_field)) for b_field in fields]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"material": args.material, "fields_gauss": fields, "files": []}
    axes = np.array([axis.vector for axis in AXES.values()])
    for b_field, times, rho, j_e in runs:
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
        columns = {"t_ns": _float_cells(times, n_axes), "axis": list(AXES) * len(times),
                   "w_reduced": _float_cells(w),
                   **{name: [""] * w.size if values is None else _float_cells(values, n_axes)
                      for name, values in extra.items()}}
        fname = out_dir / f"evolve_{Path(args.material).stem}_B{b_field:g}.csv"
        fname.write_text(_csv_text("musrtomo/evolve-trace/v1", columns))
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
    (out_dir / "histograms.csv").write_text(_histograms_csv(hist, geometry))
    (out_dir / "histograms.meta.json").write_text(json.dumps({
        "n_muons": int(hist.n_muons), "seed": args.seed,
        "background_fraction": hist.background_fraction, "asymmetry": model.asymmetry,
        "lifetime_ns": model.lifetime_ns, "species": model.species}, indent=2))
    try:
        est = estimate_tomogram(hist, geometry, model)
    except ValueError as exc:
        raise ConfigError(f"{exc}; wrote {out_dir / 'histograms.csv'}") from exc
    cells = _estimate_cells(est)
    (out_dir / "tomogram_estimate.csv").write_text(
        _csv_text("musrtomo/tomogram-estimate/v1", cells))

    # truth comparison: the exact decay-weighted mean polarization of every
    # bin that any axis keeps, Q_b / m_b in closed form; one record per
    # estimate CSV row that its axis keeps, in row order
    on = ~est.low_confidence
    kept = np.flatnonzero(on.any(axis=0))
    mass, q = decay_bin_integrals(polarization, bin_edges, model.lifetime_ns)
    bloch = q[kept] / mass[kept, None]
    axes = np.array([axis.vector for axis in est.axes])
    truth = (0.5 + 0.5 * bloch @ axes.T).T[on[:, kept]]
    dev = (est.w_plus[on] - truth) / est.sigma[on]
    keep = on.ravel().tolist()
    theta, phi, t_ns, w_est, sigma = (list(compress(cells[name], keep)) for name in (
        "axis_theta", "axis_phi", "t_ns", "w_plus", "sigma"))
    (out_dir / "comparison.json").write_text(_records_json({
        "axis": list(zip(theta, phi)), "t_ns": t_ns, "w_estimate": w_est,
        "w_truth": _float_cells(truth), "sigma": sigma, "deviation_sigmas": _float_cells(dev)}))
    within = np.count_nonzero(np.abs(dev) <= 3)
    print(f"simulated {args.n_muons} muons; {within}/{len(dev)} bins within 3 sigma")
    return 0


def cmd_reconstruct(args) -> int:
    plan_data = json_object(json.loads(Path(args.plan).read_text()), "a plan")
    material = json_field(plan_data, "material", kind="a string", ok=lambda v: isinstance(v, str))
    b_field = json_field(plan_data, "B", 0.0)
    directions = json_field(plan_data, "directions", ["x", "y", "z"], "an array",
                            lambda v: isinstance(v, list))
    times = json_field(plan_data, "times_ns", kind="an array of JSON numbers",
                       ok=lambda v: isinstance(v, list) and all(map(is_json_number, v)))
    prop, _ = _propagator(material, b_field, plan_data.get("B_axis", "z"),
                          plan_data.get("aniso_axis"))
    plan = MeasurementPlan(prop, directions=tuple(map(_axis, directions)), times=tuple(times))
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
    Path(args.out).write_text(json.dumps({
        "rank": result.rank, "condition_number": result.condition_number,
        "residual_norm": result.residual_norm, "clipped": result.clipped,
        "rho0_real": result.rho0.real.tolist(), "rho0_imag": result.rho0.imag.tolist(),
        "null_space_dimension": len(result.null_space), "null_space": result.null_space.tolist(),
        "plan": {"directions": [[d.theta, d.phi] for d in plan.directions],
                 "times_ns": list(plan.times)},
        "time_generic_rank": generic}, indent=2))
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
    times, rho, j_e = _evolution(args, args.B)
    if j_e != 0.5:
        raise ConfigError(f"{what} requires a two-qubit system")
    return times, entanglement_series(rho, include_max_bell)


def cmd_bell(args) -> int:
    times, series = _two_qubit_series(args, "bell maximization")
    Path(args.out).write_text(_csv_text("musrtomo/bell-trace/v1", {
        "t_ns": _float_cells(times),
        **{name: _float_cells(series[name]) for name in ("max_bell", "E", "negativity")}}))
    print(f"wrote bell trace to {args.out}")
    return 0


def cmd_report(args) -> int:
    times, series = _two_qubit_series(args, "entanglement report",
                                      include_max_bell=not args.no_bell)
    # one record per instant: t, then the series' keys in their order
    Path(args.out).write_text(_records_json({
        "t": _float_cells(times), **{name: _float_cells(v) for name, v in series.items()}}))
    print(f"wrote {len(times)} entanglement reports to {args.out}")
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
