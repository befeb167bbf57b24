"""The three benchmark workloads and the checks on their outputs.

A workload is a list of jobs generated from the workload seed. A job is one
call of ``musrtomo.cli.main`` (or two, for a decay campaign) or one library
round trip; it writes only under the fresh directory it is given. Each job
kind appears in a fixed number per pass and draws its physical inputs
(fields, time spans, states, noise, Monte Carlo seeds, order) from the seed,
so the work of a pass hardly depends on the seed while its inputs do.

Checks compare outputs with ``oracle`` by value, at tolerances that hold for
any correct implementation, never bit for bit: the planned refactors
(closed-form Bell maximum, vectorized kernels, re-streamed Monte Carlo) must
pass them unchanged.
"""

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

SPIN1_MATERIAL = Path(__file__).resolve().parent / "materials" / "spin1-hyperfine.json"


class JobError(Exception):
    """The program raised or exited with a nonzero code."""


# Job kind -> the start of the error that this version of the program is
# known to give on it (see RUN_RECORD.md); any other error is a failure.
KNOWN_ERRORS = {"evolve-file": "JobError: exit code 2"}
# Inputs of the set-up probe's first job of each kind, the same for every run.
SETUP_SEED = 0


class WrongOutput(Exception):
    """The program finished but its output failed the check."""


@dataclass
class Job:
    kind: str
    units: int
    run: Callable[[Path], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    unit: str
    jobs: list
    min_passes: int
    warmup: list = field(default_factory=list)


def _musrtomo():
    import musrtomo
    return musrtomo


def cli_call(argv: list) -> None:
    """musrtomo.cli.main(argv) with its console output captured; nonzero exit
    codes raise JobError. The attribute is looked up per call so that a
    tracer that rebinds it sees every call."""
    from musrtomo import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    if rc != 0:
        raise JobError(f"exit code {rc}: {err.getvalue().strip()[-300:]}")


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


def _close(got, want, tol: float, what: str) -> None:
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    _expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    _expect(dev <= tol, f"{what}: max deviation {dev:.3g} > {tol:g}")


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _column(rows, name) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


# --------------------------------------------------------------------------
# physics set-ups shared by sweep and decay

@dataclass(frozen=True)
class Physics:
    """A material with field and anisotropy orientation as the CLI spells
    them, plus the ranges that fields (Gauss) and time spans (ns) are drawn
    from."""

    material: str
    b_axis: str = "z"
    aniso_axis: str | None = None
    b_range: tuple = (0.0, 0.0)
    t_range: tuple = (1.0, 1.0)

    def draw(self, rng) -> tuple:
        return float(rng.uniform(*self.b_range)), float(rng.uniform(*self.t_range))

    def flags(self, b: float) -> list:
        out = ["--material", self.material, "--B", repr(b), "--B-axis", self.b_axis]
        return out + (["--aniso-axis", self.aniso_axis] if self.aniso_axis else [])

    def evolution(self, b: float) -> tuple:
        """(oracle evolution of fresh muonium, j_e) at field b."""
        m = _musrtomo()
        material = m.load_material(self.material)

        def direction(name):
            return m.Direction.from_vector(oracle.axis_vector(name))

        spec = material.hamiltonian_spec(
            b_field=b, b_axis=direction(self.b_axis) if b != 0.0 else None,
            aniso_axis=direction(self.aniso_axis) if self.aniso_axis else None)
        d_e = int(round(2 * material.j_e + 1))
        h = m.build_hamiltonian(spec)
        return oracle.Evolution.of(h, oracle.muonium_initial(d_e)), material.j_e


VACUUM = Physics("vacuum", t_range=(0.5, 3.0))
QUARTZ_Z = Physics("quartz", "z", b_range=(100.0, 3200.0), t_range=(0.2, 2.0))
QUARTZ_X = Physics("quartz", "x", b_range=(100.0, 3200.0), t_range=(0.2, 2.0))
# not a tabulated orientation: the propagator takes the numeric eigensolve
QUARTZ_OBLIQUE = Physics("quartz", "0.6,0,0.8", b_range=(100.0, 3200.0),
                         t_range=(0.2, 2.0))
SI_X = Physics("si-mustar", "z", "x", b_range=(5.0, 120.0), t_range=(10.0, 100.0))
SI_Z = Physics("si-mustar", "z", "z", b_range=(5.0, 120.0), t_range=(10.0, 100.0))
SPIN1_ZERO = Physics(str(SPIN1_MATERIAL), t_range=(0.5, 3.0))
SPIN1_X = Physics(str(SPIN1_MATERIAL), "x", b_range=(10.0, 200.0), t_range=(0.5, 3.0))


def _times(rows) -> np.ndarray:
    return np.array(sorted({float(r["t_ns"]) for r in rows}))


def _check_time_grid(times, t_max, steps, what) -> None:
    _close(times, np.linspace(0.0, t_max, steps), 1e-9 * max(t_max, 1.0), f"{what} times")


# --------------------------------------------------------------------------
# sweep: the CLI time-series verbs

SWEEP_STEPS = 64
BELL_STEPS = 2


def _evolve_job(phys: Physics, b: float, t_max: float, kind: str) -> Job:
    ev, j_e = phys.evolution(b)
    omega0 = _musrtomo().load_material("vacuum").a_rad_ns if phys is VACUUM else None
    argv = ["evolve", *phys.flags(b), "--t-max-ns", repr(t_max),
            "--steps", str(SWEEP_STEPS)]

    def run(out: Path):
        cli_call(argv + ["--out", str(out)])
        return out

    def check(out: Path):
        files = sorted(p for p in out.rglob("*.csv"))
        _expect(len(files) == 1, f"expected one trace file, found {len(files)}")
        rows = _read_csv(files[0])
        _expect(len(rows) == 3 * SWEEP_STEPS, f"{len(rows)} rows")
        times = _times(rows)
        _check_time_grid(times, t_max, SWEEP_STEPS, "evolve")
        rhos = ev.states(times)
        index = {t: i for i, t in enumerate(times)}
        k = [index[float(r["t_ns"])] for r in rows]
        bloch = oracle.muon_bloch(rhos, ev.d_e)[k]
        axes = np.array([oracle.axis_vector(r["axis"]) for r in rows])
        w = np.clip(0.5 + 0.5 * np.einsum("ij,ij->i", bloch, axes), 0.0, 1.0)
        _close(_column(rows, "w_reduced"), w, 1e-8, "w_reduced")
        spectra = oracle.ppt_spectra(rhos, ev.d_e)[k]
        _close(_column(rows, "negativity"), oracle.negativity(spectra), 1e-8, "negativity")
        if j_e == 0.5:
            e = oracle.positivity(spectra)["E"]
            _close(_column(rows, "E"), e, 1e-8, "E")
            if omega0 is not None:
                _close(_column(rows, "E"), np.sin(omega0 * _column(rows, "t_ns")) ** 4 / 128,
                       1e-10, "vacuum E against sin^4(w0 t)/128")

    return Job(kind, SWEEP_STEPS, run, check)


def _report_job(phys: Physics, b: float, t_max: float) -> Job:
    ev, _ = phys.evolution(b)
    argv = ["report", *phys.flags(b), "--t-max-ns", repr(t_max),
            "--steps", str(SWEEP_STEPS), "--no-bell"]

    def run(out: Path):
        cli_call(argv + ["--out", str(out / "report.json")])
        return out / "report.json"

    def check(path: Path):
        reports = json.loads(path.read_text())
        _expect(len(reports) == SWEEP_STEPS, f"{len(reports)} reports")
        times = np.array([r["t"] for r in reports])
        _check_time_grid(times, t_max, SWEEP_STEPS, "report")
        want = oracle.positivity(oracle.ppt_spectra(ev.states(times), 2))
        for key in ("E", "M2", "M3", "M4", "negativity"):
            _close([r[key] for r in reports], want[key], 1e-8, key)

    return Job("report", SWEEP_STEPS, run, check)


def _bell_job(phys: Physics, b: float, t_max: float) -> Job:
    ev, _ = phys.evolution(b)
    argv = ["bell", *phys.flags(b), "--t-max-ns", repr(t_max), "--steps", str(BELL_STEPS)]

    def run(out: Path):
        cli_call(argv + ["--out", str(out / "bell.csv")])
        return out / "bell.csv"

    def check(path: Path):
        rows = _read_csv(path)
        _expect(len(rows) == BELL_STEPS, f"{len(rows)} rows")
        times = _column(rows, "t_ns")
        _check_time_grid(times, t_max, BELL_STEPS, "bell")
        rhos = ev.states(times)
        _close(_column(rows, "max_bell"), oracle.bell_maximum(rhos), 1e-3,
               "max_bell against 2 s_max(T)")
        want = oracle.positivity(oracle.ppt_spectra(rhos, 2))
        _close(_column(rows, "E"), want["E"], 1e-8, "E")
        _close(_column(rows, "negativity"), want["negativity"], 1e-8, "negativity")

    return Job("bell", BELL_STEPS, run, check)


def sweep(seed: int) -> Workload:
    """Per pass: 28 evolve traces over every preset and orientation, 8
    report series, 2 Bell series and 2 evolve traces of the j_e = 1 material
    given by path."""
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for phys, n in ((VACUUM, 4), (QUARTZ_Z, 5), (QUARTZ_X, 5), (QUARTZ_OBLIQUE, 5),
                    (SI_X, 5), (SI_Z, 4)):
        jobs += [_evolve_job(phys, *phys.draw(rng), "evolve") for _ in range(n)]
    for phys in (VACUUM, QUARTZ_Z, QUARTZ_X, QUARTZ_OBLIQUE, SI_X, SI_Z, QUARTZ_Z, SI_X):
        jobs.append(_report_job(phys, *phys.draw(rng)))
    # Bell series stay on vacuum and the z-field orientation: there the
    # maximizer's cost per state is steady, while on x-oriented states it
    # swings twentyfold from one instant to the next.
    for phys in (VACUUM, QUARTZ_Z):
        jobs.append(_bell_job(phys, *phys.draw(rng)))
    # the j_e = 1 material is named by its path, as a user would name a file
    for phys in (SPIN1_ZERO, SPIN1_X):
        jobs.append(_evolve_job(phys, *phys.draw(rng), "evolve-file"))
    return _shuffled("instants", jobs, rng, min_passes=8)


# --------------------------------------------------------------------------
# decay: simulate + reconstruct campaigns

DECAY_BINS = 512
DECAY_T_MAX_NS = 3 * oracle.MUON_LIFETIME_NS
RECON_SIGMA = 0.001
RECON_TIMES = 15
RECON_DIRECTIONS = ("x", "y", "z")


def _campaign_job(phys: Physics, detectors: str, n_muons: int, rng,
                  work: Path, index: int) -> Job:
    b, t_span = phys.draw(rng)
    ev, j_e = phys.evolution(b)
    mc_seed = int(rng.integers(2 ** 31))
    sim = ["simulate", *phys.flags(b), "--detectors", detectors,
           "--n-muons", str(n_muons), "--seed", str(mc_seed),
           "--steps", str(DECAY_BINS), "--t-max-ns", repr(DECAY_T_MAX_NS)]
    rec = None
    if j_e == 0.5:
        rec = _reconstruct_inputs(phys, b, t_span, ev, rng, work / f"campaign{index}")

    def run(out: Path):
        cli_call(sim + ["--out", str(out)])
        if rec is not None:
            cli_call(["reconstruct", "--plan", str(rec["plan"]),
                      "--measurements", str(rec["measurements"]), "--allow-deficient",
                      "--out", str(out / "reconstruction.json")])
        return out

    def check(out: Path):
        _check_estimate(out / "tomogram_estimate.csv", ev)
        if rec is not None:
            _check_reconstruction(out / "reconstruction.json", rec)

    kind = "simulate+reconstruct" if rec is not None else "simulate"
    return Job(kind, n_muons, run, check)


def _check_estimate(path: Path, ev) -> None:
    """At least 98% of the confident bins lie within 3 sigma of the exact
    decay-weighted bin average of the muon tomogram, and the mean deviation
    in sigmas is below 10/sqrt(bins): a bias test, loose enough for the bin
    correlations that the fitted background introduces."""
    rows = [r for r in _read_csv(path) if int(r["low_confidence"]) == 0]
    _expect(len(rows) >= DECAY_BINS // 2, f"only {len(rows)} confident bins")
    edges = np.linspace(0.0, DECAY_T_MAX_NS, DECAY_BINS + 1)
    bloch = ev.decay_bin_polarization(edges)
    width = DECAY_T_MAX_NS / DECAY_BINS
    idx = np.rint(_column(rows, "t_ns") / width - 0.5).astype(int)
    axes = np.array([[math.sin(float(r["axis_theta"])) * math.cos(float(r["axis_phi"])),
                      math.sin(float(r["axis_theta"])) * math.sin(float(r["axis_phi"])),
                      math.cos(float(r["axis_theta"]))] for r in rows])
    truth = 0.5 + 0.5 * np.einsum("ij,ij->i", bloch[idx], axes)
    z = (_column(rows, "w_plus") - truth) / _column(rows, "sigma")
    share = float(np.mean(np.abs(z) <= 3.0))
    _expect(share >= 0.98, f"{share:.2%} of {len(rows)} bins within 3 sigma")
    bias = float(np.mean(z))
    _expect(abs(bias) <= 10 / math.sqrt(len(z)), f"mean deviation {bias:.3f} sigma")


def _reconstruct_inputs(phys, b, t_span, ev, rng, folder: Path) -> dict:
    """Plan and noisy measurement files for a two-qubit material; the true
    initial state is a random state mixed with the identity."""
    folder.mkdir(parents=True, exist_ok=True)
    times = np.sort(rng.uniform(0.05, 1.0, RECON_TIMES)) * t_span
    rho0 = 0.75 * np.eye(4) / 4 + 0.25 * oracle.random_state(rng, 4)
    directions = np.array([oracle.axis_vector(a) for a in RECON_DIRECTIONS])
    truth_ev = ev.starting_from(rho0)
    clean = truth_ev.measurements(times, directions)
    noisy = clean + RECON_SIGMA * rng.normal(size=clean.size)
    plan = {"material": phys.material, "B": b, "B_axis": phys.b_axis,
            "aniso_axis": phys.aniso_axis, "directions": list(RECON_DIRECTIONS),
            "times_ns": [float(t) for t in times]}
    (folder / "plan.json").write_text(json.dumps(plan))
    angles = {"x": (math.pi / 2, 0.0), "y": (math.pi / 2, math.pi / 2), "z": (0.0, 0.0)}
    lines = ["t_ns,theta,phi,w_plus,sigma"]
    k = 0
    for t in times:
        for a in RECON_DIRECTIONS:
            theta, phi = angles[a]
            lines.append(f"{float(t)!r},{theta!r},{phi!r},{float(noisy[k])!r},{RECON_SIGMA!r}")
            k += 1
    (folder / "measurements.csv").write_text("\n".join(lines) + "\n")
    return {"plan": folder / "plan.json", "measurements": folder / "measurements.csv",
            "times": times, "directions": directions, "clean": clean, "ev": ev,
            "rank": ev.design_rank(times, directions)}


def _check_reconstruction(path: Path, rec: dict) -> None:
    rep = json.loads(path.read_text())
    _expect(rep["rank"] == rec["rank"], f"rank {rep['rank']} != {rec['rank']}")
    rho = np.array(rep["rho0_real"]) + 1j * np.array(rep["rho0_imag"])
    _close(rho, rho.conj().T, 1e-10, "rho0 Hermiticity")
    _expect(abs(np.trace(rho) - 1.0) <= 1e-9, "rho0 trace")
    _expect(np.linalg.eigvalsh(rho).min() >= -1e-9, "rho0 positivity")
    dof = len(rec["clean"]) - rec["rank"]
    _expect(rep["residual_norm"] ** 2 <= dof + 10 * math.sqrt(2 * dof + 1) + 10,
            f"weighted residual {rep['residual_norm']:.3g} for {dof} degrees of freedom")
    fitted = rec["ev"].starting_from(rho).measurements(rec["times"], rec["directions"])
    _close(fitted, rec["clean"], 6 * RECON_SIGMA, "reconstructed values against truth")


def decay(seed: int, work: Path) -> Workload:
    """Per pass: six campaigns, each sized at one of six fixed muon counts
    spanning [2.5e5, 1e6] (jittered by 1%), over every preset, the j_e = 1
    material file and the three detector sets."""
    rng = np.random.default_rng([seed, 2])
    plan = ((VACUUM, "z"), (SPIN1_X, "z+x"), (QUARTZ_Z, "z+x"), (SI_X, "z+x+y"),
            (QUARTZ_OBLIQUE, "z+x+y"), (QUARTZ_X, "z+x+y"))
    jobs = []
    for i, (phys, detectors) in enumerate(plan):
        level = 250_000 + 150_000 * i
        n_muons = int(round(level * (1 + 0.01 * rng.uniform(-1, 1))))
        jobs.append(_campaign_job(phys, detectors, n_muons, rng, work, i))
    return _shuffled("muons", jobs, rng, min_passes=5)


# --------------------------------------------------------------------------
# tomo: library round trips

def _spin_job(rng, j: float) -> Job:
    rho = oracle.random_state(rng, int(round(2 * j + 1)))

    def run(_):
        m = _musrtomo()
        return m.reconstruct_from_sphere(m.SpinTomogram.from_state(rho, j))

    return Job(f"spin-{j:g}", 1, run, lambda got: _close(got, rho, 1e-10, "round trip"))


def _two_spin_job(rng, j_e: float) -> Job:
    rho = oracle.random_state(rng, 2 * int(round(2 * j_e + 1)))

    def run(_):
        m = _musrtomo()
        return m.reconstruct_two_spin(m.TwoSpinTomogram.from_state(rho, 0.5, j_e))

    return Job(f"two-spin-1/2x{j_e:g}", 1, run,
               lambda got: _close(got, rho, 1e-10, "round trip"))


def _blockdiag_job(rng, j_e: float) -> Job:
    m = _musrtomo()
    ells = m.TwoSpinBasis(0.5, j_e).total_spins()
    weights = rng.dirichlet(np.ones(len(ells)))
    blocks = [wl * oracle.random_state(rng, int(round(2 * ell + 1)))
              for wl, ell in zip(weights, ells)]
    dim = sum(len(blk) for blk in blocks)
    rho_coupled = np.zeros((dim, dim), dtype=complex)
    at = 0
    for blk in blocks:
        rho_coupled[at:at + len(blk), at:at + len(blk)] = blk
        at += len(blk)
    ucg = m.cg_matrix(0.5, j_e)
    rho = ucg.T @ rho_coupled @ ucg

    def run(_):
        m = _musrtomo()
        grid = m.QuadratureGrid.for_spin(max(ells))
        samples = m.total_pdf_on_grid(rho, 0.5, j_e, grid)
        return m.reconstruct_blockdiag(samples, grid, 0.5, j_e)

    return Job(f"blockdiag-1/2x{j_e:g}", 1, run,
               lambda got: _close(got, rho_coupled, 1e-10, "block-diagonal round trip"))


EVOLVE_TOMOGRAM_TIMES = 16


def _evolve_tomogram_job(rng) -> Job:
    m = _musrtomo()
    omega0 = m.load_material("vacuum").a_rad_ns
    times = np.sort(rng.uniform(0.0, 3.0, EVOLVE_TOMOGRAM_TIMES))
    rho0 = oracle.muonium_initial(2)
    spot = rng.integers(0, 1 << 16, size=(4, 4))  # (m_mu, node_mu, m_e, node_e) samples

    def run(_):
        m = _musrtomo()
        prop = m.PropagatorSpec(m.HamiltonianSpec.hyperfine(omega0))
        return m.evolve_tomogram(rho0, prop.unitary, times)

    def check(toms):
        _expect(len(toms) == len(times), f"{len(toms)} tomograms")
        tom = toms[0]
        v_mu = np.array([d.vector for d in tom.grid_mu.nodes()])
        v_e = np.array([d.vector for d in tom.grid_e.nodes()])
        ms = np.array([0.5, -0.5])
        want = oracle.free_muonium_tomogram(
            ms[None, :, None, None, None], v_mu[None, None, :, None, None, :],
            ms[None, None, None, :, None], v_e[None, None, None, None, :, :],
            times[:, None, None, None, None], omega0)
        _close(np.array([t.values for t in toms]), want, 1e-10, "evolved tomogram")
        nodes_mu, nodes_e = tom.grid_mu.nodes(), tom.grid_e.nodes()
        for mi, ni, mj, nj in spot % [2, len(nodes_mu), 2, len(nodes_e)]:
            ref = m.analytic_free_mu(ms[mi], nodes_mu[ni], ms[mj], nodes_e[nj],
                                     times[-1], omega0)
            _close(toms[-1].values[mi, ni, mj, nj], ref, 1e-10, "analytic_free_mu")

    return Job("evolve_tomogram", 1, run, check)


def _m34_job(rng) -> Job:
    rho = oracle.random_state(rng, 4)
    want = oracle.positivity(oracle.ppt_spectra(rho[None], 2))

    def run(_):
        m = _musrtomo()
        return m.tomographic_m34(m.TwoSpinTomogram.from_state(rho, 0.5, 0.5))

    def check(got):
        _close(got, [want["M3"][0], want["M4"][0]], 1e-6, "tomographic M3, M4")

    return Job("m34", 1, run, check)


def tomo(seed: int) -> Workload:
    """Per pass: 17 single-spin round trips over j = 1/2..2, 18 two-spin and
    4 block-diagonal round trips, 3 free-muonium tomogram evolutions and 4
    star-product M3/M4 evaluations. The counts put the median job inside the
    20 jobs of about 10 ms (1/2x1/2 two-spin round trips and M3/M4
    evaluations), with 10 cheaper ones below and 16 costlier ones above, so
    that job_p50_ms does not jump from one kind of job to another between
    runs."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for j, n in ((0.5, 10), (1.0, 2), (1.5, 3), (2.0, 2)):
        jobs += [_spin_job(rng, j) for _ in range(n)]
    for j_e, n in ((0.5, 16), (1.0, 2)):
        jobs += [_two_spin_job(rng, j_e) for _ in range(n)]
    for j_e, n in ((0.5, 2), (1.0, 2)):
        jobs += [_blockdiag_job(rng, j_e) for _ in range(n)]
    jobs += [_evolve_tomogram_job(rng) for _ in range(3)]
    jobs += [_m34_job(rng) for _ in range(4)]
    return _shuffled("round trips", jobs, rng, min_passes=10)


def _shuffled(unit, jobs, rng, min_passes) -> Workload:
    """Warm-up runs the first job of each kind in canonical order, so set-up
    cost does not depend on the seed; passes run the jobs in seeded order."""
    warmup = list({job.kind: job for job in reversed(jobs)}.values())
    order = rng.permutation(len(jobs))
    return Workload(unit, [jobs[i] for i in order], min_passes, warmup)


NAMES = ("decay", "sweep", "tomo")


def build(name: str, seed: int, work: Path) -> Workload:
    """Jobs of the named workload; input files go under ``work``."""
    if name == "sweep":
        return sweep(seed)
    if name == "decay":
        return decay(seed, work)
    if name == "tomo":
        return tomo(seed)
    raise ValueError(f"unknown workload {name!r}")
