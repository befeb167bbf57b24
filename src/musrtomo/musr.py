"""Bridge between spin tomograms and decay histograms.

The decay of a polarized muon emits the positron anisotropically,
Gamma(n) = 1 + a (P . n) with asymmetry a (1/3 when averaged over positron
energies), which ties the measurable angular distribution linearly to the
muon tomogram: w(+1/2, n) = 1/2 + (Gamma - 1)/(2a). This module provides the
forward Monte Carlo (exponential lifetimes, anisotropic emission, cone
detectors, flat background; drawn in count space from the exact law of the
cells) and the inverse estimator that turns per-detector
histograms back into a time-resolved muon tomogram with statistical errors.

Counting conventions: histograms are raw positron counts per detector per
time bin; the estimator works on opposing detector pairs sharing an axis,
subtracts the flat background that the series states, and propagates
binomial errors through the count ratio.
"""

import functools
import json
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .tomography import Direction, csv_text, float_cells

MUON_LIFETIME_NS = 2197.0

# bins per slice of the cell draw of simulate_events: its (regions, bins)
# cell probabilities stay a few MB whatever the bin count
_SLICE_BINS = 4096


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

    def regions(self):
        """Hit-set regions of the cones: (hits, areas, moments) with hits
        (n_regions, n_detectors) the detectors whose cones hold the region,
        its area A_S and its first moment M_S = int_S n dOmega (n_regions, 3).
        Every region of positive area is listed once, the one outside every
        cone included, so the areas sum to 4 pi and the moments to 0. Exact
        up to rounding; built on first use and cached per cone set."""
        return _region_table(tuple((tuple(d.axis.vector.tolist()), d.half_angle)
                                   for d in self.detectors))


def _cap_intersection(axes, halves):
    """Area and first moment of the intersection of the caps
    {n : axes[i] . n >= cos halves[i]}, each of half angle in (0, pi/2], so
    that a nonempty intersection is convex with one boundary cycle of circle
    arcs. An arc of angle dphi around its cap's axis has geodesic curvature
    cot(alpha) and length sin(alpha) dphi, so Gauss-Bonnet gives
    A = 2 pi - sum over arcs of cos(alpha) dphi - the turning angles at the
    corners; Stokes gives M = 1/2 oint r x dr."""
    cos_h, sin_h = np.cos(halves), np.sin(halves)
    # (e1, e2, axis) right-handed; phi is the angle around the axis from e1
    helper = np.where(np.abs(axes[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    e1 = np.cross(helper, axes)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(axes, e1)
    cuts = [[] for _ in axes]
    for i, j in combinations(range(len(axes)), 2):
        g = float(axes[i] @ axes[j])
        if np.arccos(np.clip(g, -1.0, 1.0)) >= halves[i] + halves[j]:
            return 0.0, np.zeros(3)  # disjoint, or touching in one point
        det = 1 - g * g
        if det <= 0:
            continue  # one axis: nested circles
        x, y = (cos_h[i] - cos_h[j] * g) / det, (cos_h[j] - cos_h[i] * g) / det
        rest = 1 - (x * x + y * y + 2 * x * y * g)
        if rest < 0:
            continue  # nested circles do not cross
        off = np.sqrt(rest / det) * np.cross(axes[i], axes[j])
        for point in (x * axes[i] + y * axes[j] + off, x * axes[i] + y * axes[j] - off):
            for c in (i, j):
                cuts[c].append(np.arctan2(point @ e2[c], point @ e1[c]))

    def point(c, phi):
        return cos_h[c] * axes[c] + sin_h[c] * (np.cos(phi) * e1[c] + np.sin(phi) * e2[c])

    arcs = []  # (cap, phi_start, phi_end) of the boundary, counterclockwise
    for c, phis in enumerate(cuts):
        bounds = np.array([0.0, 2 * np.pi])
        if phis:
            phis = np.sort(phis)
            phis = phis[np.append(True, np.diff(phis) > 1e-12)]
            bounds = np.append(phis, phis[0] + 2 * np.pi)
        for a, b in zip(bounds[:-1], bounds[1:]):
            mid = point(c, (a + b) / 2)
            if all(axes[o] @ mid > cos_h[o] for o in range(len(axes)) if o != c):
                arcs.append((c, a, b))
    if not arcs:
        return 0.0, np.zeros(3)
    starts = np.array([point(c, a) for c, a, _ in arcs])
    ends = np.array([point(c, b) for c, _, b in arcs])
    caps = [c for c, _, _ in arcs]
    # tangents of increasing phi at both ends; each arc ends where the next starts
    t_start = np.cross(axes[caps], starts) / sin_h[caps, None]
    t_end = np.cross(axes[caps], ends) / sin_h[caps, None]
    nxt = np.argmin(np.linalg.norm(ends[:, None] - starts[None], axis=2), axis=1)
    turning = np.arctan2(np.einsum("ij,ij->i", ends, np.cross(t_end, t_start[nxt])),
                         np.einsum("ij,ij->i", t_end, t_start[nxt])).sum()
    area = 2 * np.pi - turning
    moment = np.zeros(3)
    for c, a, b in arcs:
        area -= cos_h[c] * (b - a)
        moment += 0.5 * (cos_h[c] * sin_h[c] * ((np.cos(b) - np.cos(a)) * e2[c]
                                                - (np.sin(b) - np.sin(a)) * e1[c])
                         + sin_h[c] ** 2 * (b - a) * axes[c])
    return float(area), moment


@functools.lru_cache(maxsize=64)
def _region_table(cones):
    """Regions of ``DetectorGeometry.regions`` for cones ((axis, half angle), ...).

    A cone wider than a hemisphere is the complement of the opposite cap, so
    every cone is a cap of half angle at most pi/2, hit or missed. The areas
    and moments of all nonempty intersections of caps (grown one cap at a
    time, as a subset with no area has none in its supersets) give those of
    the regions with an exact set of caps by inclusion-exclusion."""
    caps, cap_of, flipped = [], [], []
    for axis, half in cones:
        axis, flip = np.array(axis), half > np.pi / 2
        if flip:
            axis, half = -axis, np.pi - half
        same = [c for c, (a, h) in enumerate(caps)
                if abs(h - half) < 1e-12 and np.abs(a - axis).max() < 1e-12]
        if not same:
            caps.append((axis, half))
        cap_of.append(same[0] if same else len(caps) - 1)
        flipped.append(flip)
    axes = np.array([a for a, _ in caps])
    halves = np.array([h for _, h in caps])
    measures = {(): np.array([4 * np.pi, 0.0, 0.0, 0.0])}
    grow = [(c,) for c in range(len(caps)) if halves[c] > 0]  # a full cone leaves no cap
    while grow:
        subset = grow.pop()
        area, moment = _cap_intersection(axes[list(subset)], halves[list(subset)])
        if area > 0:
            measures[subset] = np.array([area, *moment])
            grow += [subset + (c,) for c in range(subset[-1] + 1, len(caps))]
    exact = {}
    for subset, measure in sorted(measures.items()):
        for size in range(len(subset) + 1):
            for inner in combinations(subset, size):
                sign = (-1) ** (len(subset) - size)
                exact[inner] = exact.get(inner, 0.0) + sign * measure
    kept = [(inner, m) for inner, m in sorted(exact.items()) if m[0] > 1e-12]
    hits = np.array([[(cap_of[d] in inner) != flipped[d] for d in range(len(cones))]
                     for inner, _ in kept])
    table = np.array([m for _, m in kept])
    out = hits, table[:, 0], table[:, 1:]
    for arr in out:
        arr.flags.writeable = False  # shared by every caller of the cache
    return out


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
        if counts.dtype.kind not in "iub" and not (np.isfinite(counts).all()
                                                   and np.all(counts == np.round(counts))):
            raise ValueError("counts must be finite whole numbers")
        self.counts = counts.astype(np.int64, copy=False)

    @property
    def bin_centers(self) -> np.ndarray:
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2

    def to_csv(self, geometry: DetectorGeometry) -> str:
        # rows run over (detector, bin); the bin edges are formatted once
        axes, n_bins = [det.axis for det in geometry.detectors], self.counts.shape[1]
        edges, n_dets = float_cells(self.bin_edges), len(axes)
        return csv_text("musrtomo/histograms/v1", {
            "detector_id": [d for d in map(str, range(n_dets)) for _ in range(n_bins)],
            "axis_theta": float_cells([axis.theta for axis in axes], n_bins),
            "axis_phi": float_cells([axis.phi for axis in axes], n_bins),
            "bin_start_ns": edges[:-1] * n_dets, "bin_end_ns": edges[1:] * n_dets,
            "counts": list(map(str, self.counts.ravel().tolist()))})

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
    """Evaluate a polarization source: a callable giving (n, 3) Bloch vectors."""
    out = np.asarray(fn(times))
    if out.shape != (len(times), 3):
        raise ValueError("polarization source must yield (n,3) vectors")
    return np.asarray(out, dtype=float)


def decay_bin_integrals(polarization_of_t, bin_edges, lifetime_ns: float):
    """Per bin b of the ascending ``bin_edges``: the decay mass
    m_b = int_b e^{-t/tau}/tau dt, shape (n_bins,), and the decay-weighted
    polarization integral Q_b = int_b e^{-t/tau}/tau P(t) dt, shape (n_bins, 3);
    Q_b / m_b is the bin's mean polarization.

    A source that carries ``decay_integrals(edges, lifetime_ns)`` (the callable
    of ``muon_polarization_function``) gives Q_b in closed form. Any other
    source is integrated over the decay mass u = e^{-t/tau}, so that the weight
    is flat, by composite 8-node Gauss-Legendre: the panels of a bin are
    doubled until two successive estimates of Q_b agree within 1e-12 m_b in
    every component, at most 1024 panels per bin (a warning names the bins
    left short of that bound). The weights of a bin sum to m_b, so
    |Q_b| <= m_b max|P| at the nodes. It assumes P(t) smooth within each bin:
    a jump between the nodes of two successive passes goes unseen (a step
    from +1 to -1 at 1000.3 ns gives the bin [1000, 1500] ns a mean of exactly
    -1, not about -0.9988, and no warning); a jump on a bin edge is exact.
    """
    edges = np.asarray(bin_edges, dtype=float)
    rate = 1.0 / lifetime_ns
    mass = np.exp(-rate * edges[:-1]) * -np.expm1(-rate * np.diff(edges))
    closed_form = getattr(polarization_of_t, "decay_integrals", None)
    if closed_form is not None:
        return mass, np.asarray(closed_form(edges, lifetime_ns), dtype=float)
    x, w = np.polynomial.legendre.leggauss(8)
    u_hi = np.exp(-rate * edges[1:])

    def integrals(bins, panels):
        """Q of the given bins from ``panels`` equal slices of their decay
        mass, at most 32,768 nodes per call of the source."""
        out = np.empty((len(bins), 3))
        per_call = max(1, 4096 // panels)
        for at in range(0, len(bins), per_call):
            part = bins[at:at + per_call]
            h = mass[part] / panels
            u = u_hi[part, None, None] + h[:, None, None] * (
                np.arange(panels)[:, None] + (x + 1) / 2)
            t = -np.log(np.maximum(u, np.finfo(float).tiny)) / rate
            pol = _as_polarization(polarization_of_t, t.ravel()).reshape(*t.shape, 3)
            out[at:at + per_call] = np.einsum("b,n,bpna->ba", h / 2, w, pol)
        return out

    bins, panels = np.arange(len(mass)), 1
    q = integrals(bins, panels)
    while bins.size and panels < 1024:
        panels *= 2
        finer = integrals(bins, panels)
        moved = np.abs(finer - q[bins]).max(axis=1) > 1e-12 * mass[bins]
        q[bins] = finer
        bins = bins[moved]
    if bins.size:
        warnings.warn(f"{bins.size} bin(s) of the polarization source, the first "
                      f"[{edges[bins[0]]}, {edges[bins[0] + 1]}] ns, are not resolved "
                      "to 1e-12 by 1024 Gauss-Legendre panels", RuntimeWarning)
    return mass, q


def _multinomial(rng, n: int, p: np.ndarray) -> np.ndarray:
    """Multinomial(n, p) counts, the last category taking what the others
    leave. numpy draws one conditional binomial per category; for fewer draws
    than half the categories, one sorted uniform per draw on the cumulative
    probabilities is cheaper and has the same law."""
    if 2 * n >= len(p):
        return rng.multinomial(n, p)
    u = np.sort(rng.random(n))
    return np.bincount(np.searchsorted(np.cumsum(p[:-1]), u, "right"), minlength=len(p))


def simulate_events(polarization_of_t, geometry: DetectorGeometry, model: DecayModel,
                    n_muons: int, seed: int, bin_edges,
                    background_fraction: float = 0.01) -> HistogramSeries:
    """Monte Carlo decay histograms, drawn in count space.

    A muon decays in bin b with its positron in the hit-set region S of the
    detector cones (``DetectorGeometry.regions``) with probability
    p(S, b) = (m_b A_S + k M_S . Q_b) / 4 pi: the emission density
    (1 + k P(t) . n) / 4 pi with the signed asymmetry k, integrated over the
    bin's decay times and over the region, whose area is A_S and first moment
    M_S = int_S n dOmega; m_b and Q_b are ``decay_bin_integrals``. The cell
    counts N_Sb are one Multinomial(n_muons, p) draw, a last cell holding the
    decays outside the window or outside every cone, taken in two levels
    over slices of ``_SLICE_BINS`` bins: one multinomial over the slices'
    shares, then one over the (region, bin) cells of each slice that holds
    muons, with p built for that slice only. Detector d keeps each muon of
    its regions independently with probability eff_d, so its count in bin b
    is one Binomial(sum_{S with d} N_Sb, eff_d) draw. This is the law of
    independent per-muon decay times, emissions, cone tests and efficiency
    tests. Background clicks are added per detector as a Poisson count
    proportional to its signal, uniform on the window, so a bin takes them
    by its share of the window's width. Cost and memory do not depend on
    n_muons: they grow with the bins (times the level gaps of a closed-form
    source) and with the seen regions times the bins, one slice at a time.

    The cell draw and the background take one stream each, spawned from the
    seed, so the counts are a function of (seed, n_muons, inputs) only.

    Args:
        polarization_of_t: callable mapping an array of times (ns) to muon
            Bloch vectors (n, 3).
        geometry: detector set.
        model: asymmetry/lifetime/species.
        n_muons: ensemble size (>= 1).
        seed: master seed.
        bin_edges: strictly increasing, finite histogram edges (ns).
        background_fraction: expected background clicks as a fraction of each
            detector's signal clicks.

    Raises ValueError, before any draw, for invalid inputs and for a source
    whose mean polarization over a bin, Q_b / m_b, has norm above 1 + 1e-12.
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
    mass, q = decay_bin_integrals(polarization_of_t, bin_edges, model.lifetime_ns)
    if not np.all(np.linalg.norm(q, axis=1) <= (1 + 1e-12) * mass):
        raise ValueError("the polarization source has a bin mean of norm above 1 "
                         "(or not finite)")
    hits, areas, moments = geometry.regions()
    seen = hits.any(axis=1)  # the region outside every cone joins the last cell
    hits, areas, moments = hits[seen].T.astype(float), areas[seen], moments[seen]
    k = model.emission_sign * model.asymmetry
    starts = np.arange(0, len(mass), _SLICE_BINS)
    # each slice's share of the cells; the last one also holds the rest
    shares = np.maximum(np.add.reduceat(mass * areas.sum() + k * q @ moments.sum(axis=0),
                                        starts), 0.0) / (4 * np.pi)
    shares[-1] = max(0.0, 1.0 - shares[:-1].sum())

    streams = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(streams[0])
    per_slice = _multinomial(rng, n_muons, shares)
    counts = np.zeros((len(hits), len(mass)), dtype=np.int64)
    for at, share, n in zip(starts, shares, per_slice):
        if n == 0:
            continue
        part = slice(at, at + _SLICE_BINS)
        p = (np.outer(areas, mass[part]) + k * moments @ q[part].T) / (4 * np.pi)
        np.maximum(p, 0.0, out=p)
        # the slice's cells in (region, bin) order, then its rest
        cells = _multinomial(rng, n, np.append(p.ravel(), 0.0) / max(share, p.sum()))
        counts[:, part] = hits @ cells[:-1].reshape(len(areas), -1)  # exact in float64
    # per detector: the efficiency, then clicks uniform on the window, which
    # fall in each bin by its width
    rng_bg = np.random.default_rng(streams[1])
    widths = np.diff(bin_edges) / (bin_edges[-1] - bin_edges[0])
    for row, detector in zip(counts, geometry.detectors):
        held = row > 0  # an empty bin draws nothing
        row[held] = rng.binomial(row[held], detector.efficiency)
        if background_fraction > 0:
            n_bg = rng_bg.poisson(background_fraction * row.sum())
            row += _multinomial(rng_bg, n_bg, widths)

    return HistogramSeries(bin_edges=bin_edges, counts=counts, n_muons=n_muons,
                           background_fraction=background_fraction,
                           metadata={"seed": seed})


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
    distribution at the pair axis with the cone-averaged asymmetry. The flat
    background is subtracted first, taking the series'
    ``background_fraction`` f as exact (there is no fit): a fraction f of
    each detector's signal clicks, uniform on the window, that is
    f / (1 + f) of its counts spread by bin width. A wrong f biases the
    estimates. sigma is the binomial error of the pair's split with the
    Poisson noise of the subtracted background added. Bins whose pair count
    falls below ``count_floor`` are flagged low-confidence and reported as
    NaN.
    """
    pairs = geometry.paired_indices()
    if not pairs:
        raise ValueError("geometry contains no opposing detector pairs")
    out = []
    centers = hist.bin_centers
    f = hist.background_fraction
    shares = f / (1 + f) * np.diff(hist.bin_edges) / (hist.bin_edges[-1] - hist.bin_edges[0])
    for fw, bw in pairs:
        det = geometry.detectors[fw]
        a_eff = model.asymmetry * det.cos_average
        bf, bb = shares * hist.counts[fw].sum(), shares * hist.counts[bw].sum()
        nf, nb = hist.counts[fw] - bf, hist.counts[bw] - bb
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
        # the pair's split, and the Poisson noise of the subtracted background
        n = np.maximum(total[ok], 1.0)
        sig[ok] = np.sqrt(p * (1 - p) / n + (bf[ok] + bb[ok]) / (4 * n * n)) / a_eff
        out.append(AxisEstimate(axis=det.axis, times=centers, w_plus=w, sigma=sig,
                                pair_counts=total, low_confidence=~ok))
    return out


ESTIMATE_SCHEMA = "musrtomo/tomogram-estimate/v1"


def estimate_cells(estimates: list[AxisEstimate]) -> dict:
    """The columns of the tomogram-estimate CSV as cell strings by header name."""
    columns = {name: [] for name in ("axis_theta", "axis_phi", "t_ns", "w_plus", "sigma",
                                     "pair_counts", "low_confidence")}
    times, time_cells = None, None  # estimate_tomogram gives every axis one times array
    for est in estimates:
        if est.times is not times:
            times, time_cells = est.times, float_cells(est.times)
        for column, cells in zip(columns.values(), (
                float_cells(est.axis.theta, len(est.times)),
                float_cells(est.axis.phi, len(est.times)),
                time_cells,
                *map(float_cells, (est.w_plus, est.sigma, est.pair_counts)),
                list(map(str, np.asarray(est.low_confidence, dtype=int).tolist())))):
            column += cells
    return columns
