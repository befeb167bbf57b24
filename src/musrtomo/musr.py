"""Bridge between spin tomograms and decay histograms.

The decay of a polarized muon emits the positron anisotropically,
Gamma(n) = 1 + a (P . n) with asymmetry a (1/3 when averaged over positron
energies), which ties the measurable angular distribution linearly to the
muon tomogram: w(+1/2, n) = 1/2 + (Gamma - 1)/(2a). This module provides the
forward Monte Carlo (exponential lifetimes, anisotropic emission, cone
detectors, flat background) and the inverse estimator that turns per-detector
histograms back into a time-resolved muon tomogram with statistical errors.

Counting conventions: histograms are raw positron counts per detector per
time bin; the estimator works on opposing detector pairs sharing an axis,
fits and subtracts a flat background using the known lifetime, and propagates
binomial errors through the count ratio.
"""

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .dynamics import _SLICE_TIMES
from .tomography import Direction

MUON_LIFETIME_NS = 2197.0
# muons per Monte Carlo block; each block draws from its own spawned stream
BLOCK_MUONS = 200_000
# kept muons per slice of a block: the per-muon rows stay in cache, and each
# slice is one slice of the polarization kernel
_SLICE_MUONS = _SLICE_TIMES


@dataclass(frozen=True)
class DecayModel:
    """Asymmetry, lifetime and species of the decaying muon ensemble."""

    asymmetry: float = 1.0 / 3.0
    lifetime_ns: float = MUON_LIFETIME_NS
    species: str = "mu_plus"

    def __post_init__(self):
        if not (1.0 / 3.0 - 1e-12 <= self.asymmetry <= 1.0 + 1e-12):
            raise ValueError("asymmetry must lie in [1/3, 1]")
        if not 0 < self.lifetime_ns < np.inf:
            raise ValueError("lifetime must be positive and finite")
        if self.species not in ("mu_plus", "mu_minus"):
            raise ValueError("species must be 'mu_plus' or 'mu_minus'")

    @property
    def emission_sign(self) -> float:
        """+1 for positrons along the spin (mu+), -1 for electrons (mu-)."""
        return 1.0 if self.species == "mu_plus" else -1.0


@dataclass(frozen=True)
class Detector:
    """Acceptance cone around an axis with a flat efficiency."""

    axis: Direction
    half_angle: float
    efficiency: float = 1.0

    def __post_init__(self):
        if not 0 < self.half_angle <= np.pi:
            raise ValueError("half angle must lie in (0, pi]")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must lie in (0, 1]")

    @property
    def cos_average(self) -> float:
        """Average of cos(angle to axis) over the cone; scales the asymmetry."""
        return (1 + np.cos(self.half_angle)) / 2


@dataclass(frozen=True)
class DetectorGeometry:
    detectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "detectors", tuple(self.detectors))

    @classmethod
    def opposing_pairs(cls, axes, half_angle: float,
                       efficiency: float = 1.0) -> "DetectorGeometry":
        """Forward/backward cone pair per axis."""
        dets = []
        for axis in axes:
            v = axis.vector
            dets.append(Detector(Direction.from_vector(v), half_angle, efficiency))
            dets.append(Detector(Direction.from_vector(-v), half_angle, efficiency))
        return cls(tuple(dets))

    def paired_indices(self) -> list[tuple[int, int]]:
        """(forward, backward) index pairs of antiparallel same-cone detectors."""
        pairs, used = [], set()
        dets = self.detectors
        for i, di in enumerate(dets):
            if i in used:
                continue
            for j in range(i + 1, len(dets)):
                if j in used:
                    continue
                dj = dets[j]
                if (np.dot(di.axis.vector, dj.axis.vector) < -1 + 1e-9
                        and abs(di.half_angle - dj.half_angle) < 1e-12
                        and abs(di.efficiency - dj.efficiency) < 1e-12):
                    pairs.append((i, j))
                    used.update((i, j))
                    break
        return pairs


@dataclass
class HistogramSeries:
    """Per-detector positron counts on a common time binning."""

    bin_edges: np.ndarray
    counts: np.ndarray  # (n_detectors, n_bins), stored as int64
    n_muons: int
    background_fraction: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts)
        if np.any(np.diff(self.bin_edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if counts.ndim != 2 or counts.shape[1] != len(self.bin_edges) - 1:
            raise ValueError("counts shape does not match bin edges")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if not np.isfinite(counts).all() or np.any(counts != np.round(counts)):
            raise ValueError("counts must be finite whole numbers")
        self.counts = counts.astype(np.int64, copy=False)

    @property
    def bin_centers(self) -> np.ndarray:
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2

    def to_csv(self, geometry: DetectorGeometry) -> str:
        buf = io.StringIO()
        buf.write("# schema: musrtomo/histograms/v1\n")
        writer = csv.writer(buf)
        writer.writerow(["detector_id", "axis_theta", "axis_phi",
                         "bin_start_ns", "bin_end_ns", "counts"])
        for d, det in enumerate(geometry.detectors):
            for b in range(self.counts.shape[1]):
                writer.writerow([d, repr(det.axis.theta), repr(det.axis.phi),
                                 repr(float(self.bin_edges[b])),
                                 repr(float(self.bin_edges[b + 1])),
                                 int(self.counts[d, b])])
        return buf.getvalue()

    def metadata_json(self, model: DecayModel, seed) -> str:
        meta = {"n_muons": int(self.n_muons), "seed": seed,
                "background_fraction": self.background_fraction,
                "asymmetry": model.asymmetry, "lifetime_ns": model.lifetime_ns,
                "species": model.species}
        meta.update(self.metadata)
        return json.dumps(meta, indent=2)


def gamma_distribution(polarization, direction: Direction, asymmetry: float) -> float:
    """Angular emission density Gamma(n) = 1 + a (P . n), normalized so that
    its average over the sphere is 1."""
    p = np.asarray(polarization, dtype=float)
    if np.linalg.norm(p) > 1 + 1e-12:
        raise ValueError("polarization must have norm <= 1")
    return float(1.0 + asymmetry * np.dot(p, direction.vector))


def histogram_to_tomogram(gamma_value, asymmetry: float,
                          species: str = "mu_plus", tol: float = 1e-6):
    """(w(+1/2), w(-1/2)) from an angular-distribution value, or elementwise
    from an array of them.

    w(+1/2) = 1/2 + (Gamma - 1)/(2a); for a = 1/3 this is (3/2) Gamma - 1.
    Negative muons swap the two outputs. Values outside [-tol, 1+tol] raise.
    """
    if asymmetry <= 0:
        raise ValueError("asymmetry must be positive")
    w_plus = 0.5 + (gamma_value - 1.0) / (2 * asymmetry)
    w_minus = 1.0 - w_plus
    if species == "mu_minus":
        w_plus, w_minus = w_minus, w_plus
    if not np.all((-tol <= w_plus) & (w_plus <= 1 + tol)):
        raise ValueError(f"gamma value {gamma_value} outside range for asymmetry {asymmetry}")
    return w_plus, w_minus


def _as_polarization(fn, times: np.ndarray) -> np.ndarray:
    """Evaluate a polarization source: callable -> (n, 3) vectors, or
    callable -> (n, 2, 2) density matrices converted to Bloch vectors."""
    out = np.asarray(fn(times))
    if out.ndim == 2 and out.shape == (len(times), 3):
        return np.asarray(out, dtype=float)
    if out.ndim == 3 and out.shape[1:] == (2, 2):
        px = 2 * out[:, 0, 1].real
        py = -2 * out[:, 0, 1].imag
        pz = (out[:, 0, 0] - out[:, 1, 1]).real
        return np.stack([px, py, pz], axis=1)
    raise ValueError("polarization source must yield (n,3) vectors or (n,2,2) matrices")


def _sample_emission(polar: np.ndarray, u: np.ndarray, psi: np.ndarray,
                     k_signed: float) -> np.ndarray:
    """Emission directions, shape (3, n), with density 1 + k_signed (P_hat . n) |P|,
    by closed-form CDF inversion of the uniform draws ``u`` in cos(angle to P)
    and the azimuths ``psi`` around P; works on the component rows of the
    (n, 3) polarizations."""
    px, py, pz = polar.T
    norms = np.sqrt(px * px + py * py + pz * pz)
    k = k_signed * norms
    small = np.abs(k) < 1e-12
    kb = np.where(small, 1.0, k)
    x = np.where(small, 2 * u - 1, (-1 + np.sqrt((1 - kb) ** 2 + 4 * kb * u)) / kb)
    np.clip(x, -1.0, 1.0, out=x)
    # orthonormal frame around P_hat (z for unpolarized events)
    polarized = norms > 1e-12
    scale = np.maximum(norms, 1e-300)
    px, py = np.where(polarized, px / scale, 0.0), np.where(polarized, py / scale, 0.0)
    pz = np.where(polarized, pz / scale, 1.0)
    # e1 = P_hat x z, or P_hat x x where P_hat lies near z; e2 = P_hat x e1
    near_z = np.abs(pz) >= 0.9
    e1x, e1y, e1z = (np.where(near_z, 0.0, py), np.where(near_z, pz, -px),
                     np.where(near_z, -py, 0.0))
    e1_norm = np.sqrt(e1x * e1x + e1y * e1y + e1z * e1z)
    e1x, e1y, e1z = e1x / e1_norm, e1y / e1_norm, e1z / e1_norm
    sin_t = np.sqrt(np.maximum(0.0, 1 - x ** 2))
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    return np.array([x * px + sin_t * (cos_psi * e1x + sin_psi * (py * e1z - pz * e1y)),
                     x * py + sin_t * (cos_psi * e1y + sin_psi * (pz * e1x - px * e1z)),
                     x * pz + sin_t * (cos_psi * e1z + sin_psi * (px * e1y - py * e1x))])


def simulate_events(polarization_of_t, geometry: DetectorGeometry, model: DecayModel,
                    n_muons: int, seed: int, bin_edges,
                    background_fraction: float = 0.01) -> HistogramSeries:
    """Monte Carlo decay histograms.

    Each muon draws an exponential decay time, evaluates the instantaneous
    muon polarization, samples the emission direction from the anisotropic
    density, and is recorded by every detector whose cone contains it (after
    an efficiency draw). Background clicks are added per detector as a
    Poisson count proportional to its signal, uniform in time.

    Generation runs in fixed blocks of BLOCK_MUONS muons, each with its own
    stream spawned from the seed, so the counts are a function of
    (seed, n_muons, inputs) only. A block draws its decay times, keeps those
    inside the window, then draws the emission variates of every kept muon;
    the per-muon work (polarization, emission, cone and efficiency test,
    binning) then runs in fixed slices of _SLICE_MUONS kept muons, the
    efficiency draws being the slices' rows of one (n, n_det) draw.

    Args:
        polarization_of_t: callable mapping an array of times (ns) to muon
            Bloch vectors (n, 3) or 2x2 density matrices (n, 2, 2).
        geometry: detector set.
        model: asymmetry/lifetime/species.
        n_muons: ensemble size (>= 1).
        seed: master seed.
        bin_edges: strictly increasing, finite histogram edges (ns).
        background_fraction: expected background clicks as a fraction of each
            detector's signal clicks.
    """
    if n_muons < 1:
        raise ValueError("need at least one muon")
    if not 0 <= background_fraction < 1:
        raise ValueError("background fraction must lie in [0, 1)")
    bin_edges = np.asarray(bin_edges, dtype=float)
    if bin_edges.ndim != 1 or len(bin_edges) < 2 or not np.isfinite(bin_edges).all():
        raise ValueError("bin edges must be a finite 1-d array of at least 2 values")
    if np.any(np.diff(bin_edges) <= 0):
        raise ValueError("bin edges must be strictly increasing")
    t_max = bin_edges[-1]
    n_det, n_bins = len(geometry.detectors), len(bin_edges) - 1
    counts = np.zeros((n_det, n_bins), dtype=np.int64)

    axes = np.array([d.axis.vector for d in geometry.detectors])
    cos_half = np.array([np.cos(d.half_angle) for d in geometry.detectors])
    effs = np.array([d.efficiency for d in geometry.detectors])
    # the efficiency draw comes last in a block's stream, so it can be skipped
    thinned = bool(np.any(effs < 1))
    cell_base = np.arange(n_det)[:, None] * n_bins  # cell of (d, bin): d * n_bins + bin
    k_signed = model.emission_sign * model.asymmetry

    # hit cells wait until they outnumber the cells, so a dense bincount
    # never costs more than the hits it adds, however many bins there are
    flat, pending, n_pending = counts.reshape(-1), [], 0
    n_blocks = (n_muons + BLOCK_MUONS - 1) // BLOCK_MUONS
    streams = np.random.SeedSequence(seed).spawn(n_blocks + 1)
    for c in range(n_blocks):
        rng = np.random.default_rng(streams[c])
        n = min(BLOCK_MUONS, n_muons - c * BLOCK_MUONS)
        t = rng.exponential(model.lifetime_ns, n)
        t = t[t < t_max]
        u = rng.random(t.size)
        psi = rng.uniform(0, 2 * np.pi, t.size)
        for start in range(0, t.size, _SLICE_MUONS):
            cut = slice(start, start + _SLICE_MUONS)
            ts = t[cut]
            polar = _as_polarization(polarization_of_t, ts)
            dirs = _sample_emission(polar, u[cut], psi[cut], k_signed)
            # (n_det, n) hit rows; times before the first edge fall in no bin
            bins = np.searchsorted(bin_edges, ts, "right") - 1
            hits = (axes @ dirs >= cos_half[:, None]) & (bins >= 0)
            if thinned:
                hits &= rng.random((len(ts), n_det)).T < effs[:, None]
            pending.append((cell_base + bins)[hits])
            n_pending += pending[-1].size
            if n_pending >= flat.size:
                flat += np.bincount(np.concatenate(pending), minlength=flat.size)
                pending, n_pending = [], 0
    if pending:
        flat += np.bincount(np.concatenate(pending), minlength=flat.size)

    if background_fraction > 0:
        rng_bg = np.random.default_rng(streams[-1])
        for d in range(n_det):
            n_bg = rng_bg.poisson(background_fraction * counts[d].sum())
            t_bg = rng_bg.uniform(bin_edges[0], t_max, n_bg)
            counts[d] += np.histogram(t_bg, bins=bin_edges)[0]

    return HistogramSeries(bin_edges=bin_edges, counts=counts, n_muons=n_muons,
                           background_fraction=background_fraction,
                           metadata={"seed": seed})


def _fit_flat_background(counts: np.ndarray, bin_edges: np.ndarray,
                         lifetime_ns: float) -> float:
    """Least-squares flat rate (counts/ns) of the model
    signal * exponential-bin-mass + rate * bin-width."""
    lo, hi = bin_edges[:-1], bin_edges[1:]
    decay = np.exp(-lo / lifetime_ns) - np.exp(-hi / lifetime_ns)
    width = hi - lo
    design = np.stack([decay, width], axis=1)
    sol, *_ = np.linalg.lstsq(design, counts.astype(float), rcond=None)
    return float(max(sol[1], 0.0))


@dataclass
class AxisEstimate:
    """Time-resolved tomogram estimate along one detector-pair axis."""

    axis: Direction
    times: np.ndarray
    w_plus: np.ndarray
    sigma: np.ndarray
    pair_counts: np.ndarray
    low_confidence: np.ndarray  # True where counts fall below the floor


def estimate_tomogram(hist: HistogramSeries, geometry: DetectorGeometry,
                      model: DecayModel, count_floor: int = 100) -> list[AxisEstimate]:
    """Invert histograms into w(+1/2, axis, t) per opposing detector pair.

    The forward/backward count ratio within a pair estimates the angular
    distribution at the pair axis with the cone-averaged asymmetry; a flat
    background (fitted per detector using the known lifetime) is subtracted
    first. Bins whose pair count falls below ``count_floor`` are flagged
    low-confidence and reported as NaN.
    """
    pairs = geometry.paired_indices()
    if not pairs:
        raise ValueError("geometry contains no opposing detector pairs")
    out = []
    centers = hist.bin_centers
    widths = np.diff(hist.bin_edges)
    for fw, bw in pairs:
        det = geometry.detectors[fw]
        a_eff = model.asymmetry * det.cos_average
        nf = hist.counts[fw].astype(float)
        nb = hist.counts[bw].astype(float)
        if hist.background_fraction > 0:
            nf = nf - _fit_flat_background(nf, hist.bin_edges, model.lifetime_ns) * widths
            nb = nb - _fit_flat_background(nb, hist.bin_edges, model.lifetime_ns) * widths
        total = nf + nb
        raw_total = hist.counts[fw] + hist.counts[bw]
        ok = (raw_total >= count_floor) & (total > 0)
        if not np.any(ok):
            raise ValueError("no bins above the count floor")
        w = np.full_like(total, np.nan)
        sig = np.full_like(total, np.nan)
        gamma_hat = 1.0 + (nf[ok] - nb[ok]) / total[ok]
        w[ok] = histogram_to_tomogram(gamma_hat, a_eff, model.species, tol=np.inf)[0]
        p = np.clip(gamma_hat / 2, 1e-12, 1 - 1e-12)
        sig[ok] = np.sqrt(p * (1 - p) / np.maximum(total[ok], 1.0)) / a_eff
        out.append(AxisEstimate(axis=det.axis, times=centers, w_plus=w, sigma=sig,
                                pair_counts=total, low_confidence=~ok))
    return out


def estimates_to_csv(estimates: list[AxisEstimate]) -> str:
    buf = io.StringIO()
    buf.write("# schema: musrtomo/tomogram-estimate/v1\n")
    writer = csv.writer(buf)
    writer.writerow(["axis_theta", "axis_phi", "t_ns", "w_plus", "sigma",
                     "pair_counts", "low_confidence"])
    for est in estimates:
        for i, t in enumerate(est.times):
            writer.writerow([repr(est.axis.theta), repr(est.axis.phi), repr(float(t)),
                             repr(float(est.w_plus[i])), repr(float(est.sigma[i])),
                             repr(float(est.pair_counts[i])), int(est.low_confidence[i])])
    return buf.getvalue()
