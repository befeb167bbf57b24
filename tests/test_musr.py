import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import decay_weighted_gl, random_direction
from musrtomo.dynamics import PropagatorSpec, initial_muonium_state, muon_polarization_function
from musrtomo.materials import load_material
from musrtomo.musr import (
    AxisEstimate,
    DecayModel,
    ESTIMATE_SCHEMA,
    Detector,
    DetectorGeometry,
    HistogramSeries,
    decay_bin_integrals,
    estimate_cells,
    estimate_tomogram,
    gamma_distribution,
    _as_polarization,
    histogram_to_tomogram,
    simulate_events,
)
from musrtomo.tomography import QuadratureGrid, Direction, X_AXIS, Y_AXIS, Z_AXIS, csv_text

# muons per block of the event oracle; each block draws from its own stream
BLOCK_MUONS = 200_000
# The distribution tests compare counts with their exact law by Pearson's
# chi-square. Their seeds, cases and this false-alarm rate were fixed before
# they were first run: each test fails at p < ALPHA.
ALPHA = 1e-6
# z-score of a two-sided normal tail of about ALPHA, for single binomial counts
Z_ALPHA = 5.0
STATIC_UP = lambda ts: np.tile([0.0, 0.0, 1.0], (len(np.atleast_1d(ts)), 1))
UNPOLARIZED = lambda ts: np.zeros((len(np.atleast_1d(ts)), 3))


def precessing(ts):
    ts = np.atleast_1d(ts)
    return np.stack([0.4 * np.sin(ts / 300), np.zeros_like(ts),
                     0.5 + 0.5 * np.cos(ts / 300)], axis=1)


def turning(ts):
    # turns through all three components at two frequencies
    ts = np.atleast_1d(ts)
    return np.stack([0.4 * np.cos(ts / 500), -0.4 * np.sin(ts / 500),
                     0.8 * np.cos(ts / 300)], axis=1)


def hemisphere_pair():
    return DetectorGeometry.opposing_pairs([Z_AXIS], half_angle=np.radians(70))


def mixed_detectors():
    # per-detector cones and efficiencies below 1
    minus = lambda axis: Direction.from_vector(-axis.vector)
    return DetectorGeometry([Detector(Z_AXIS, 1.2), Detector(minus(Z_AXIS), 1.2, 0.7),
                             Detector(X_AXIS, 0.9, 0.9), Detector(minus(X_AXIS), 1.0, 0.55)])


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


def simulate_whole_blocks(polarization_of_t, geometry, model, n_muons, seed, bin_edges,
                          background_fraction=0.01):
    """Event oracle of musr.simulate_events: every muon draws its decay time,
    takes the polarization at that time, samples its emission direction and
    passes each detector's cone and efficiency test. Blocks of BLOCK_MUONS
    muons, each with its own stream; one polarization call, one emission
    sample and one (n, n_det) efficiency draw per block and one
    np.histogram per detector."""
    bin_edges = np.asarray(bin_edges, dtype=float)
    t_max = bin_edges[-1]
    n_det = len(geometry.detectors)
    counts = np.zeros((n_det, len(bin_edges) - 1), dtype=np.int64)
    axes = np.array([d.axis.vector for d in geometry.detectors])
    cos_half = np.array([np.cos(d.half_angle) for d in geometry.detectors])
    effs = np.array([d.efficiency for d in geometry.detectors])
    n_blocks = (n_muons + BLOCK_MUONS - 1) // BLOCK_MUONS
    streams = np.random.SeedSequence(seed).spawn(n_blocks + 1)
    for c in range(n_blocks):
        rng = np.random.default_rng(streams[c])
        t = rng.exponential(model.lifetime_ns, min(BLOCK_MUONS, n_muons - c * BLOCK_MUONS))
        t = t[t < t_max]
        if t.size == 0:
            continue
        polar = _as_polarization(polarization_of_t, t)
        u, psi = rng.random(t.size), rng.uniform(0, 2 * np.pi, t.size)
        dirs = _sample_emission(polar, u, psi, model.emission_sign * model.asymmetry)
        accept_draw = rng.random((t.size, n_det))
        hits = (axes @ dirs >= cos_half[:, None]) & (accept_draw.T < effs[:, None])
        for d in range(n_det):
            counts[d] += np.histogram(t[hits[d]], bins=bin_edges)[0]
    if background_fraction > 0:
        rng_bg = np.random.default_rng(streams[-1])
        for d in range(n_det):
            n_bg = rng_bg.poisson(background_fraction * counts[d].sum())
            t_bg = rng_bg.uniform(bin_edges[0], t_max, n_bg)
            counts[d] += np.histogram(t_bg, bins=bin_edges)[0]
    return counts


def sample_emission_rows(rng, polar, k_signed):
    """Row-layout oracle of musr._sample_emission: the same draws, CDF
    inversion and frame rule on (n, 3) arrays with boolean-mask scatter;
    returns (n, 3) directions."""
    n = polar.shape[0]
    norms = np.linalg.norm(polar, axis=1)
    k = k_signed * norms
    u = rng.random(n)
    x = np.empty(n)
    small = np.abs(k) < 1e-12
    x[small] = 2 * u[small] - 1
    kb = k[~small]
    x[~small] = (-1 + np.sqrt((1 - kb) ** 2 + 4 * kb * u[~small])) / kb
    np.clip(x, -1.0, 1.0, out=x)
    psi = rng.uniform(0, 2 * np.pi, n)
    p_hat = np.where(norms[:, None] > 1e-12, polar / np.maximum(norms, 1e-300)[:, None],
                     np.array([0.0, 0.0, 1.0]))
    px, py, pz = p_hat.T
    near_z = np.abs(pz) >= 0.9
    e1 = np.stack([np.where(near_z, 0.0, py), np.where(near_z, pz, -px),
                   np.where(near_z, -py, 0.0)], axis=1)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(p_hat, e1)
    sin_t = np.sqrt(np.maximum(0.0, 1 - x ** 2))
    return (x[:, None] * p_hat
            + sin_t[:, None] * (np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2))


def chi2_sf(stat: float, dof: int) -> float:
    """P(X >= stat) for X ~ chi-square(dof): the regularized upper incomplete
    gamma Q(dof/2, stat/2), by its series below dof/2 + 1 and its continued
    fraction (modified Lentz) above."""
    a, x = dof / 2, stat / 2
    if x <= 0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        term = total = 1 / a
        n = 0
        while abs(term) > 1e-17 * total:
            n += 1
            term *= x / (a + n)
            total += term
        return max(0.0, 1 - front * total)
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h = d
    for i in range(1, 100_000):
        an, b = -i * (i - a), b + 2
        d = an * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1) < 1e-16:
            break
    return front * h


def quartz_oblique():
    spec = load_material("quartz").hamiltonian_spec(
        b_field=176.0, b_axis=Direction.from_vector([0.6, 0.0, 0.8]))
    return muon_polarization_function(initial_muonium_state(0.5), PropagatorSpec(spec))


def detector_probabilities(source, geometry, model, edges):
    """Exact probability that one muon is counted by detector d in bin b,
    shape (n_det, n_bins): eff_d (m_b A_d + k M_d . Q_b) / 4 pi with the cone's
    area A_d = 2 pi (1 - cos a) and first moment M_d = pi sin^2 a axis, the sum
    over the regions the cone holds of the exact cell probabilities. Q_b is
    the closed form of a spectral source (checked against Gauss-Legendre in
    test_dynamics) and otherwise composite Gauss-Legendre in t, independent of
    the sampler's own quadrature."""
    edges = np.asarray(edges, dtype=float)
    tau = model.lifetime_ns
    mass = np.exp(-edges[:-1] / tau) - np.exp(-edges[1:] / tau)
    if hasattr(source, "decay_integrals"):
        q = source.decay_integrals(edges, tau)
    else:
        q = decay_weighted_gl(source, edges, tau, panels=8)[1]
    k = model.emission_sign * model.asymmetry
    return np.array([
        det.efficiency * (2 * np.pi * (1 - np.cos(det.half_angle)) * mass
                          + k * np.pi * np.sin(det.half_angle) ** 2 * q @ det.axis.vector)
        / (4 * np.pi) for det in geometry.detectors])


def assert_counts_follow(counts, probs, n_muons, what):
    """Pearson chi-square of each detector's counts against its exact
    multinomial law. Consecutive bins are pooled until each pool expects at
    least 5 counts; one more cell holds the muons the detector missed, or
    joins the last pool when it expects fewer than 5."""
    for d, (observed, p) in enumerate(zip(counts, probs)):
        expected = n_muons * p
        bounds, acc = [], 0.0
        for i, e in enumerate(expected):
            acc += e
            if acc >= 5:
                bounds.append(i + 1)
                acc = 0.0
        if not bounds:
            continue
        starts = [0, *bounds[:-1]]
        o = np.add.reduceat(observed, starts).astype(float)
        e = np.add.reduceat(expected, starts)
        o[-1] += observed[bounds[-1]:].sum()
        e[-1] += expected[bounds[-1]:].sum()
        o_rest, e_rest = n_muons - observed.sum(), n_muons - expected.sum()
        if e_rest >= 5:
            o, e = np.append(o, o_rest), np.append(e, e_rest)
        else:
            o[-1] += o_rest
            e[-1] += e_rest
        if len(e) < 2:
            continue
        stat = float(np.sum((o - e) ** 2 / e))
        p_value = chi2_sf(stat, len(e) - 1)
        assert p_value >= ALPHA, (f"{what}, detector {d}: chi2 {stat:.1f} on "
                                  f"{len(e) - 1} dof, p = {p_value:.2g}")


class TestChiSquareTail:
    @pytest.mark.parametrize("stat", [0.1, 1.0, 3.0, 10.0, 40.0, 80.0])
    def test_closed_forms(self, stat):
        # dof 2: e^{-x/2}; dof 1: erfc(sqrt(x/2)); dof 4: e^{-x/2} (1 + x/2)
        assert abs(chi2_sf(stat, 2) / math.exp(-stat / 2) - 1) < 1e-12
        assert abs(chi2_sf(stat, 1) / math.erfc(math.sqrt(stat / 2)) - 1) < 1e-10
        assert abs(chi2_sf(stat, 4) / (math.exp(-stat / 2) * (1 + stat / 2)) - 1) < 1e-12

    def test_large_dof_median(self):
        # the median of chi-square(k) is about k (1 - 2/(9k))^3
        for k in (50, 500, 5000):
            assert abs(chi2_sf(k * (1 - 2 / (9 * k)) ** 3, k) - 0.5) < 2e-3


class TestGammaDistribution:
    def test_polarized_along_z(self, rng):
        for _ in range(5):
            d = random_direction(rng)
            got = gamma_distribution([0, 0, 1], d, 1 / 3)
            assert abs(got - (1 + np.cos(d.theta) / 3)) < 1e-14

    def test_unpolarized_isotropic(self, rng):
        assert gamma_distribution([0, 0, 0], random_direction(rng), 1 / 3) == 1.0

    def test_sphere_average_is_one(self, rng):
        p = rng.normal(size=3)
        p /= np.linalg.norm(p) * 1.3
        grid = QuadratureGrid.for_spin(0.5)
        vals = [gamma_distribution(p, node, 1 / 3) for node in grid.nodes()]
        assert abs(np.dot(grid.weights, vals) - 1.0) <= 1e-12

    def test_overlong_polarization_rejected(self):
        with pytest.raises(ValueError):
            gamma_distribution([0, 0, 1.5], Z_AXIS, 1 / 3)


class TestHistogramToTomogram:
    def test_forward_peak(self):
        w_plus, w_minus = histogram_to_tomogram(4 / 3, 1 / 3)
        assert abs(w_plus - 1.0) < 1e-14
        assert abs(w_minus) < 1e-14

    def test_unpolarized(self):
        w_plus, w_minus = histogram_to_tomogram(1.0, 1 / 3)
        assert w_plus == w_minus == 0.5

    def test_roundtrip_with_gamma(self, rng):
        for _ in range(100):
            p = rng.normal(size=3)
            p /= np.linalg.norm(p) / rng.uniform(0, 1)
            d = random_direction(rng)
            a = rng.uniform(1 / 3, 1.0)
            gamma = gamma_distribution(p, d, a)
            w_plus, _ = histogram_to_tomogram(gamma, a)
            assert abs(w_plus - (0.5 + 0.5 * np.dot(p, d.vector))) < 1e-12

    def test_species_swap(self):
        wp_plus, wp_minus = histogram_to_tomogram(1.2, 1 / 3, "mu_plus")
        wm_plus, wm_minus = histogram_to_tomogram(1.2, 1 / 3, "mu_minus")
        assert wm_plus == wp_minus and wm_minus == wp_plus

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            histogram_to_tomogram(2.0, 1 / 3)

    @pytest.mark.parametrize("species", ["mu_plus", "mu_minus"])
    def test_array_is_elementwise(self, species):
        gammas = np.array([2 / 3, 0.9, 1.0, 1.25, 4 / 3])
        w_plus, w_minus = histogram_to_tomogram(gammas, 1 / 3, species)
        for g, wp, wm in zip(gammas, w_plus, w_minus):
            assert (wp, wm) == histogram_to_tomogram(g, 1 / 3, species)
        with pytest.raises(ValueError):
            histogram_to_tomogram(np.append(gammas, 2.0), 1 / 3, species)


class TestDecayModelAndGeometry:
    def test_asymmetry_range(self):
        with pytest.raises(ValueError):
            DecayModel(asymmetry=0.2)
        with pytest.raises(ValueError):
            DecayModel(asymmetry=1.1)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            Detector(Z_AXIS, half_angle=0.0)
        with pytest.raises(ValueError):
            Detector(Z_AXIS, half_angle=1.0, efficiency=0.0)

    @pytest.mark.parametrize("field, value", [
        ("lifetime_ns", np.nan), ("lifetime_ns", np.inf), ("lifetime_ns", 0.0),
        ("asymmetry", np.nan), ("asymmetry", np.inf), ("asymmetry", -np.inf)])
    def test_non_finite_inputs_rejected(self, field, value):
        with pytest.raises(ValueError):
            DecayModel(**{field: value})

    def test_pairing(self):
        geom = DetectorGeometry.opposing_pairs([Z_AXIS, X_AXIS], np.radians(30))
        pairs = geom.paired_indices()
        assert pairs == [(0, 1), (2, 3)]


class TestSampleEmission:
    @pytest.mark.parametrize("k_signed", [1 / 3, -1.0])
    def test_matches_row_layout_oracle(self, rng, k_signed):
        # random polarizations of every length, with unpolarized rows, rows
        # at and near +-z (the frame switches at |P_hat_z| = 0.9) and tiny |P|
        polar = rng.normal(size=(4000, 3))
        polar /= np.linalg.norm(polar, axis=1)[:, None]
        polar *= rng.uniform(0, 1, (4000, 1))
        polar[:50] = 0.0
        polar[50:60] = [0.0, 0.0, 1.0]
        polar[60:70] = [0.0, 0.0, -0.4]
        polar[70:80] = [np.sqrt(1 - 0.9 ** 2), 0.0, 0.9]
        polar[80:90] = [1e-3, -1e-3, -1.0] / np.linalg.norm([1e-3, -1e-3, -1.0])
        polar[90:100] = 1e-13
        state = rng.bit_generator.state
        want = sample_emission_rows(rng, polar, k_signed)
        rng.bit_generator.state = state
        u, psi = rng.random(len(polar)), rng.uniform(0, 2 * np.pi, len(polar))
        got = _sample_emission(polar, u, psi, k_signed)
        assert got.shape == (3, len(polar))
        assert np.abs(got.T - want).max() <= 1e-15
        assert np.allclose(np.linalg.norm(got, axis=0), 1.0)

    def test_column_layout_input(self, rng):
        # the polarization closure hands over (n, 3) views of (3, n) rows
        polar = rng.uniform(-0.5, 0.5, (3, 1000)).T
        u, psi = rng.random(1000), rng.uniform(0, 2 * np.pi, 1000)
        a = _sample_emission(polar, u, psi, 1 / 3)
        b = _sample_emission(np.ascontiguousarray(polar), u, psi, 1 / 3)
        assert np.array_equal(a, b)


def lens_by_quadrature(alpha1, alpha2, beta, n=400_000):
    """Area and first moment of the intersection of the caps (z, alpha1) and
    (b, alpha2), b at angle beta from z in the xz plane. At polar angle theta
    the azimuths inside the second cap form one interval |phi| <= h(theta),
    so both are 1-d integrals over theta (midpoint rule)."""
    theta = (np.arange(n) + 0.5) * alpha1 / n
    cos_h = (np.cos(alpha2) - np.cos(theta) * np.cos(beta)) / (np.sin(theta) * np.sin(beta))
    h = np.arccos(np.clip(cos_h, -1.0, 1.0))
    d_omega = alpha1 / n * np.sin(theta)
    return np.sum(2 * h * d_omega), np.array([np.sum(2 * np.sin(h) * np.sin(theta) * d_omega),
                                              0.0, np.sum(2 * h * np.cos(theta) * d_omega)])


def region_of(geometry, hit_set):
    hits, areas, moments = geometry.regions()
    row = [i for i, h in enumerate(hits) if list(np.nonzero(h)[0]) == sorted(hit_set)]
    assert len(row) == 1, f"hit set {hit_set} listed {len(row)} times"
    return areas[row[0]], moments[row[0]]


def sample_geometries():
    minus = lambda axis: Direction.from_vector(-axis.vector)
    wide = Direction.from_vector([1.0, 1.0, 1.0])
    return {
        "z": DetectorGeometry.opposing_pairs([Z_AXIS], np.radians(70)),
        "z+x": DetectorGeometry.opposing_pairs([Z_AXIS, X_AXIS], np.radians(70)),
        "z+x+y": DetectorGeometry.opposing_pairs([Z_AXIS, X_AXIS, Y_AXIS], np.radians(70)),
        "mixed": mixed_detectors(),
        # a cone wider than a hemisphere, the same cone twice, and a cone
        # equal to the complement of another
        "wide": DetectorGeometry([Detector(wide, 2.2), Detector(Z_AXIS, 0.8),
                                  Detector(Z_AXIS, 0.8, 0.5), Detector(X_AXIS, 1.0),
                                  Detector(minus(X_AXIS), np.pi - 1.0), Detector(Y_AXIS, 0.3)]),
        "full-sphere": DetectorGeometry([Detector(Z_AXIS, np.pi), Detector(X_AXIS, 0.5)]),
    }


class TestRegionTable:
    @pytest.mark.parametrize("half_angle", [0.3, np.radians(70), np.pi / 2, 2.2, np.pi])
    def test_single_cap(self, rng, half_angle):
        axis = random_direction(rng)
        geometry = DetectorGeometry([Detector(axis, half_angle)])
        area, moment = region_of(geometry, [0])
        assert abs(area - 2 * np.pi * (1 - np.cos(half_angle))) <= 1e-13
        assert np.abs(moment - np.pi * np.sin(half_angle) ** 2 * axis.vector).max() <= 1e-13
        assert len(geometry.regions()[1]) == (1 if half_angle == np.pi else 2)

    @pytest.mark.parametrize("alpha1, alpha2, beta", [
        (1.0, 0.7, 1.2), (np.pi / 2, 0.9, 1.3), (0.5, 1.1, 1.4), (1.2, 1.2, 2.0)])
    def test_two_cap_lens(self, alpha1, alpha2, beta):
        geometry = DetectorGeometry([Detector(Z_AXIS, alpha1), Detector(Direction(beta, 0.0), alpha2)])
        area, moment = region_of(geometry, [0, 1])
        want_area, want_moment = lens_by_quadrature(alpha1, alpha2, beta)
        assert abs(area - want_area) <= 1e-7
        assert np.abs(moment - want_moment).max() <= 1e-7

    @pytest.mark.parametrize("name", list(sample_geometries()))
    def test_sums_and_caps(self, name):
        geometry = sample_geometries()[name]
        hits, areas, moments = geometry.regions()
        assert abs(areas.sum() - 4 * np.pi) <= 1e-12
        assert np.abs(moments.sum(axis=0)).max() <= 1e-12
        assert np.all(areas > 0)
        assert len({tuple(h) for h in hits}) == len(hits)
        for d, det in enumerate(geometry.detectors):
            alpha = det.half_angle
            assert abs(areas[hits[:, d]].sum() - 2 * np.pi * (1 - np.cos(alpha))) <= 1e-12
            assert np.abs(moments[hits[:, d]].sum(axis=0)
                          - np.pi * np.sin(alpha) ** 2 * det.axis.vector).max() <= 1e-12

    @pytest.mark.parametrize("name, count", [("z", 3), ("z+x", 9), ("z+x+y", 26)])
    def test_region_count(self, name, count):
        assert len(sample_geometries()[name].regions()[1]) == count

    def test_regions_are_cached_and_read_only(self):
        first = sample_geometries()["z+x+y"].regions()
        again = sample_geometries()["z+x+y"].regions()
        assert all(a is b for a, b in zip(first, again))
        with pytest.raises(ValueError):
            first[1][0] = 0.0

    @pytest.mark.parametrize("name", ["z+x+y", "wide"])
    def test_sampled_directions(self, name):
        # 10^7 uniform directions: the count of each region and the sum of
        # its directions lie within Z_ALPHA binomial standard deviations of
        # n A / 4 pi and n M / 4 pi; every hit set met is in the table
        geometry = sample_geometries()[name]
        hits, areas, moments = geometry.regions()
        axes = np.array([d.axis.vector for d in geometry.detectors])
        cos_half = np.cos([d.half_angle for d in geometry.detectors])
        bits = 1 << np.arange(len(axes))
        region = np.full(2 ** len(axes), -1)
        region[hits @ bits] = np.arange(len(hits))
        n, count, total = 10 ** 7, np.zeros(len(hits)), np.zeros((3, len(hits)))
        rng = np.random.default_rng(2024)
        for _ in range(10):
            v = rng.normal(size=(n // 10, 3))
            v /= np.linalg.norm(v, axis=1)[:, None]
            r = region[(v @ axes.T >= cos_half) @ bits]
            assert np.all(r >= 0)
            count += np.bincount(r, minlength=len(hits))
            total += [np.bincount(r, weights=c, minlength=len(hits)) for c in v.T]
        p = areas / (4 * np.pi)
        assert np.all(np.abs(count - n * p) <= Z_ALPHA * np.sqrt(n * p * (1 - p)))
        assert np.all(np.abs(total.T - n * moments / (4 * np.pi))
                      <= Z_ALPHA * np.sqrt(n * p)[:, None])


class TestSimulateEvents:
    def test_deterministic(self):
        model = DecayModel()
        edges = np.linspace(0, 4000, 5)
        kw = dict(geometry=hemisphere_pair(), model=model, n_muons=50_000,
                  seed=42, bin_edges=edges, background_fraction=0.01)
        h1 = simulate_events(STATIC_UP, **kw)
        h2 = simulate_events(STATIC_UP, **kw)
        assert np.array_equal(h1.counts, h2.counts)

    def test_partial_chunks(self):
        # an odd muon count books every muon, once per full-sphere detector
        model = DecayModel()
        n_muons = 400_001
        edges = np.array([0.0, 50 * model.lifetime_ns])
        geom = DetectorGeometry.opposing_pairs([Z_AXIS], half_angle=np.pi)
        hist = simulate_events(STATIC_UP, geom, model, n_muons, 42, edges,
                               background_fraction=0.0)
        # hemispheres with half angle pi double-count every event
        assert hist.counts.sum() == 2 * n_muons

    def test_lifetime_recovered(self):
        # Poisson/exponential oracle: the mean decay time over a window
        # [0, T] is tau - T/(e^{T/tau} - 1); compare the binned mean within
        # three standard errors
        model = DecayModel()
        tau = model.lifetime_ns
        t_max = 10 * tau
        edges = np.linspace(0, t_max, 2001)
        hist = simulate_events(STATIC_UP, hemisphere_pair(), model, 400_000, 7,
                               edges, background_fraction=0.0)
        counts = hist.counts.sum(axis=0)
        n = counts.sum()
        mean_t = np.dot(hist.bin_centers, counts) / n
        expect = tau - t_max / np.expm1(t_max / tau)
        sigma = tau / np.sqrt(n)
        assert abs(mean_t - expect) <= 3 * sigma

    def test_unpolarized_source_is_isotropic(self):
        # opposite detectors receive statistically equal counts
        model = DecayModel()
        edges = np.array([0.0, 3000.0])
        hist = simulate_events(UNPOLARIZED, hemisphere_pair(), model, 200_000, 3,
                               edges, background_fraction=0.0)
        n_f, n_b = hist.counts[0, 0], hist.counts[1, 0]
        diff_sigma = abs(n_f - n_b) / np.sqrt(n_f + n_b)
        assert diff_sigma <= 3

    def test_polarized_asymmetry_direction(self):
        model = DecayModel()
        edges = np.array([0.0, 3000.0])
        hist = simulate_events(STATIC_UP, hemisphere_pair(), model, 100_000, 9,
                               edges, background_fraction=0.0)
        assert hist.counts[0, 0] > hist.counts[1, 0]

    def test_background_floor_at_late_times(self):
        # with a pure exponential the last bins are empty; the flat
        # background fills them at a visible level
        model = DecayModel()
        edges = np.linspace(0, 40 * model.lifetime_ns, 41)
        hist = simulate_events(STATIC_UP, hemisphere_pair(), model, 100_000, 5,
                               edges, background_fraction=0.05)
        late = hist.counts[:, -10:]
        assert late.sum() > 0

    def test_efficiency_thins_the_same_events(self):
        # the same seed draws the same events; an efficiency below 1 only
        # drops some of them, about in proportion
        model, edges = DecayModel(), np.linspace(0, 6000, 7)
        counts = [simulate_events(STATIC_UP, DetectorGeometry.opposing_pairs(
                      [Z_AXIS, X_AXIS], np.radians(70), eff), model, 100_000, 4, edges,
                      background_fraction=0.0).counts for eff in (1.0, 0.5)]
        assert np.all(counts[1] <= counts[0])
        assert abs(counts[1].sum() / counts[0].sum() - 0.5) < 0.01

    def test_density_matrix_source_rejected(self):
        # a source gives (n, 3) Bloch vectors, not a stack of 2x2 matrices
        rho_of_t = lambda ts: np.tile(np.diag([1.0, 0.0]).astype(complex), (len(ts), 1, 1))
        with pytest.raises(ValueError, match=r"must yield \(n,3\) vectors"):
            simulate_events(rho_of_t, hemisphere_pair(), DecayModel(), 20_000, 1,
                            np.array([0.0, 2000.0]), background_fraction=0.0)

    @pytest.mark.parametrize("source, geometry, model, n_muons, edges", [
        (STATIC_UP, hemisphere_pair, DecayModel(), 50_000, (0.0, 3, 65)),
        (UNPOLARIZED, mixed_detectors, DecayModel(), 50_000, (0.0, 3, 65)),
        (turning, mixed_detectors, DecayModel(), 50_000, (0.0, 3, 65)),
        (precessing, mixed_detectors, DecayModel(species="mu_minus"), 50_000, (0.0, 3, 65)),
        (precessing, mixed_detectors, DecayModel(asymmetry=0.5), 50_000, (137.5, 3, 33)),
        ("quartz-oblique", mixed_detectors, DecayModel(), 30_000, (0.0, 3, 513)),
        (precessing, mixed_detectors, DecayModel(), 1, (0.0, 20, 9)),
        (precessing, mixed_detectors, DecayModel(), 8193, (0.0, 20, 65)),
        (precessing, mixed_detectors, DecayModel(), 200_001, (100.0, 20, 65)),
        # 150,000 bins, most of them with expected counts below 1
        (precessing, mixed_detectors, DecayModel(), 200_001, (0.0, 3, 150_001)),
        # 8,193 bins: two full slices of cells and one of a single bin
        (STATIC_UP, hemisphere_pair, DecayModel(), 200_001, (0.0, 3, 8_194)),
        ("quartz-oblique", lambda: DetectorGeometry.opposing_pairs(
            [Z_AXIS, X_AXIS, Y_AXIS], np.radians(70)), DecayModel(), 200_001,
         (0.0, 3, 513)),
    ], ids=["static-up", "unpolarized", "turning", "mu-minus", "edges-above-0",
            "muonium-mixed", "one-muon", "slice-plus-one", "block-plus-one",
            "more-cells-than-hits", "three-slices", "muonium-block-plus-one"])
    def test_counts_equal_whole_block_oracle(self, source, geometry, model, n_muons,
                                             edges):
        # equal in law: the count-space sampler and the event oracle each
        # pass a chi-square test against the exact law of every detector's
        # counts. edges (first, window in lifetimes, count)
        if source == "quartz-oblique":
            source = quartz_oblique()
        first, lifetimes, n_edges = edges
        edges = np.linspace(first, lifetimes * model.lifetime_ns, n_edges)
        geometry = geometry()
        probs = detector_probabilities(source, geometry, model, edges)
        args = (source, geometry, model, n_muons, 23, edges, 0.0)
        assert_counts_follow(simulate_events(*args).counts, probs, n_muons, "sampler")
        assert_counts_follow(simulate_whole_blocks(*args), probs, n_muons, "event oracle")

    @pytest.mark.parametrize("species", ["mu_plus", "mu_minus"])
    def test_pair_counts_follow_the_exact_law(self, species):
        # overlapping cones of unequal size and efficiency, a wide cone and
        # a polarization that turns through every axis, at 400,000 muons
        minus = lambda axis: Direction.from_vector(-axis.vector)
        geometry = DetectorGeometry([
            Detector(Z_AXIS, 1.2), Detector(minus(Z_AXIS), 0.7, 0.6),
            Detector(X_AXIS, 1.1, 0.8), Detector(Direction.from_vector([1, 1, 1]), 2.2, 0.9),
            Detector(minus(Y_AXIS), 0.5)])
        model = DecayModel(species=species, asymmetry=0.8)
        edges = np.linspace(0.0, 4 * model.lifetime_ns, 41)
        probs = detector_probabilities(precessing, geometry, model, edges)
        args = (precessing, geometry, model, 400_000, 29, edges, 0.0)
        assert_counts_follow(simulate_events(*args).counts, probs, 400_000, "sampler")
        assert_counts_follow(simulate_whole_blocks(*args), probs, 400_000, "event oracle")

    def test_few_muons_per_cell_follow_the_exact_law(self):
        # fewer muons than half the cells: one uniform per muon places them.
        # Eleven wide bins around 4,000 narrow ones hold nearly every decay,
        # so the wide bins are tested one by one and the narrow ones pooled
        model, geometry = DecayModel(), mixed_detectors()
        edges = np.concatenate([np.linspace(0.0, 1500.0, 11),
                                np.linspace(1500.0, 1510.0, 4001)[1:], [6000.0]])
        probs = detector_probabilities(precessing, geometry, model, edges)
        args = (precessing, geometry, model, 10_000, 37, edges, 0.0)
        assert 2 * 10_000 < len(geometry.regions()[0]) * (len(edges) - 1)
        assert_counts_follow(simulate_events(*args).counts, probs, 10_000, "sampler")

    def test_over_polarized_source_rejected_before_any_draw(self, monkeypatch):
        # a bin mean of norm above 1 would make a cell probability negative;
        # the event sampler used to turn it into NaN directions
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        edges = np.linspace(0.0, 3000.0, 4)
        over = lambda ts: np.tile([0.0, 0.6, 0.9], (len(np.atleast_1d(ts)), 1))
        with pytest.raises(ValueError, match="norm above 1"):
            simulate_events(over, hemisphere_pair(), DecayModel(), 1000, 1, edges)

    def test_generic_sources_match_the_closed_form(self):
        # Gauss-Legendre over the decay mass of a plain callable against the
        # closed form of the same polarization, on the simulate bin width
        source = quartz_oblique()
        edges = np.linspace(0.0, 32 * 3 * 2197.0 / 512, 33)
        mass, want = decay_bin_integrals(source, edges, 2197.0)
        plain_mass, got = decay_bin_integrals(lambda ts: source(ts), edges, 2197.0)
        assert np.array_equal(plain_mass, mass)
        assert np.abs((got - want) / mass[:, None]).max() <= 1e-11

    def test_generic_step_on_a_bin_edge_is_exact(self):
        # the Gauss-Legendre route assumes P(t) smooth within each bin; a jump
        # on a bin edge leaves every bin constant, so each mean is exact
        edges = np.linspace(0.0, 3000.0, 7)
        step = lambda ts: np.where(ts[:, None] < 1000.0, 1.0, -1.0) * [0.0, 0.0, 1.0]
        mass, q = decay_bin_integrals(step, edges, 2197.0)
        exact = np.where(edges[:-1] < 1000.0, 1.0, -1.0)
        assert np.abs(q[:, 2] / mass - exact).max() <= 1e-12
        assert not q[:, :2].any()

    @pytest.mark.parametrize("edges", [
        5000.0, [[0.0, 1000.0], [2000.0, 3000.0]], [], [1000.0],
        [0.0, np.nan, 2000.0], [-np.inf, 0.0, 1000.0], [0.0, 1000.0, np.inf],
        [0.0, 1000.0, 1000.0, 2000.0], [0.0, 2000.0, 1000.0]],
        ids=["scalar", "2-d", "empty", "one-edge", "nan", "-inf", "inf", "repeated",
             "decreasing"])
    def test_bad_bin_edges_rejected_before_any_draw(self, edges):
        calls = []

        def source(ts):
            calls.append(len(ts))
            return STATIC_UP(ts)

        with pytest.raises(ValueError, match="bin edges"):
            simulate_events(source, hemisphere_pair(), DecayModel(), 1000, 1, edges)
        assert calls == []

    def test_memory_does_not_grow_with_the_muon_count(self):
        # quartz in an oblique field, three detector pairs, 512 bins; the
        # region table is built and cached by the first call
        source = quartz_oblique()
        geom = DetectorGeometry.opposing_pairs([Z_AXIS, X_AXIS, Y_AXIS], np.radians(70))
        edges = np.linspace(0.0, 3 * DecayModel().lifetime_ns, 513)
        simulate_events(source, geom, DecayModel(), 10, 3, edges)
        peaks = []
        for n_muons in (10 ** 4, 10 ** 9):
            tracemalloc.start()
            try:
                hist = simulate_events(source, geom, DecayModel(), n_muons, 3, edges)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert hist.counts.sum() > 10 ** 8
        assert abs(peaks[1] - peaks[0]) < 2 ** 20

    def test_memory_grows_with_the_bins_not_the_cells(self):
        # 10^5 bins: the z+x+y cones cut 25 seen regions and z cuts 2, but the
        # cell probabilities are built one slice of bins at a time, so the
        # peaks differ by about the four more detectors' rows of counts
        source, n_bins = quartz_oblique(), 100_000
        edges = np.linspace(0.0, 3 * DecayModel().lifetime_ns, n_bins + 1)
        peaks = []
        for axes in ([Z_AXIS], [Z_AXIS, X_AXIS, Y_AXIS]):
            geom = DetectorGeometry.opposing_pairs(axes, np.radians(70))
            geom.regions()
            tracemalloc.start()
            try:
                simulate_events(source, geom, DecayModel(), 10 ** 6, 3, edges)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        rows = 4 * 8 * n_bins  # four int64 rows of counts
        assert peaks[1] - peaks[0] < 2 * rows

    @pytest.mark.parametrize("n_muons, late_bins", [(1_000_000, 60), (100_000, 6000)],
                             ids=["many-clicks", "few-clicks"])
    def test_background_follows_its_law(self, n_muons, late_bins):
        # two full-sphere detectors count every decay, one at efficiency 0.5.
        # Over a window of 50 lifetimes fewer than 1e-2 signal counts are
        # expected after 20 lifetimes, so the late bins hold background
        # alone: per detector Poisson(f * its signal clicks), N eff_d on
        # average, spread by bin width. The late bins have uneven widths;
        # "few-clicks" has fewer clicks than half its bins
        model, f = DecayModel(), 0.02
        tau = model.lifetime_ns
        geom = DetectorGeometry([Detector(Z_AXIS, np.pi),
                                 Detector(Direction.from_vector([0, 0, -1]), np.pi, 0.5)])
        steps = np.cumsum(1 + np.arange(late_bins) % 7)
        late = 20 * tau + 30 * tau * steps / steps[-1]
        edges = np.concatenate([np.linspace(0.0, 20 * tau, 21), late])
        hist = simulate_events(UNPOLARIZED, geom, model, n_muons, 31, edges,
                               background_fraction=f)
        widths = np.diff(edges)[20:] / edges[-1]
        probs = np.array([f * det.efficiency * widths for det in geom.detectors])
        assert_counts_follow(hist.counts[:, 20:], probs, n_muons, "background")


class TestEstimateTomogram:
    def test_static_state_end_to_end(self):
        model = DecayModel()
        edges = np.array([0.0, 1500.0, 3000.0, 4500.0])
        hist = simulate_events(STATIC_UP, hemisphere_pair(), model, 1_000_000, 11,
                               edges, background_fraction=0.01)
        est = estimate_tomogram(hist, hemisphere_pair(), model)[0]
        assert est.sigma[0] < 5e-3
        assert abs(est.w_plus[0] - 1.0) <= 3 * est.sigma[0]

    def test_pulls_with_background_are_standard(self):
        # a background of 30% of the signal, subtracted as the series states
        # it: over 200 seeds of 8 bins the pulls against the exact bin means
        # have mean 0 and standard deviation 1, within about 6 and 5.5
        # standard errors. Without the background's own noise in sigma they
        # read 1.24, and about 1.5 in the last two bins
        model, geom = DecayModel(), hemisphere_pair()
        edges = np.linspace(0.0, 3 * model.lifetime_ns, 9)
        mass, q = decay_weighted_gl(precessing, edges, model.lifetime_ns, panels=8)
        pulls = []
        for seed in range(200):
            hist = simulate_events(precessing, geom, model, 1_000_000, seed, edges,
                                   background_fraction=0.3)
            est = estimate_tomogram(hist, geom, model)[0]
            truth = 0.5 + 0.5 * q @ est.axis.vector / mass
            pulls.append((est.w_plus - truth) / est.sigma)
        pulls = np.ravel(pulls)
        assert abs(pulls.mean()) <= 0.15
        assert 0.9 <= pulls.std() <= 1.1

    def test_unpolarized_source(self):
        model = DecayModel()
        edges = np.array([0.0, 2000.0, 4000.0])
        hist = simulate_events(UNPOLARIZED, hemisphere_pair(), model, 400_000, 21,
                               edges, background_fraction=0.0)
        est = estimate_tomogram(hist, hemisphere_pair(), model)[0]
        for i in range(2):
            assert abs(est.w_plus[i] - 0.5) <= 3 * est.sigma[i]

    def test_oscillating_evolution_within_errors(self):
        # slow coupling-style precession; truth is the decay-weighted bin
        # average of the exact reduced tomogram
        model = DecayModel()
        omega = 2 * np.pi / 800.0

        def pol(ts):
            ts = np.atleast_1d(ts)
            z = (1 + np.cos(omega * ts)) / 2
            return np.stack([np.zeros_like(z), np.zeros_like(z), z], axis=1)

        edges = np.linspace(0, 4400, 23)
        hist = simulate_events(pol, hemisphere_pair(), model, 1_000_000, 5,
                               edges, background_fraction=0.01)
        est = estimate_tomogram(hist, hemisphere_pair(), model, count_floor=1000)[0]
        for i in np.nonzero(~est.low_confidence)[0]:
            ts = np.linspace(edges[i], edges[i + 1], 41)
            weight = np.exp(-ts / model.lifetime_ns)
            truth = np.sum((0.5 + 0.5 * pol(ts)[:, 2]) * weight) / weight.sum()
            assert abs(est.w_plus[i] - truth) <= 3 * est.sigma[i]

    def test_species_swap_inverts_estimates(self):
        model = DecayModel()
        edges = np.array([0.0, 1500.0, 3000.0])
        hist = simulate_events(STATIC_UP, hemisphere_pair(), model, 200_000, 13,
                               edges, background_fraction=0.0)
        est_plus = estimate_tomogram(hist, hemisphere_pair(), model)[0]
        model_minus = DecayModel(species="mu_minus")
        est_minus = estimate_tomogram(hist, hemisphere_pair(), model_minus)[0]
        assert np.abs(est_minus.w_plus - (1 - est_plus.w_plus)).max() < 1e-12

    @pytest.mark.parametrize("species", ["mu_plus", "mu_minus"])
    def test_kept_bins_follow_the_scalar_relation(self, species):
        # w_plus of every kept bin is histogram_to_tomogram of the bin's
        # gamma estimate, to the last bit
        model = DecayModel(species=species)
        geom = DetectorGeometry.opposing_pairs([Z_AXIS, X_AXIS], np.radians(60))
        edges = np.linspace(0, 3 * model.lifetime_ns, 65)
        hist = simulate_events(STATIC_UP, geom, model, 200_000, 19, edges,
                               background_fraction=0.0)
        for est, (fw, bw) in zip(estimate_tomogram(hist, geom, model),
                                 geom.paired_indices()):
            nf, nb = hist.counts[fw].astype(float), hist.counts[bw].astype(float)
            a_eff = model.asymmetry * geom.detectors[fw].cos_average
            kept = np.nonzero(~est.low_confidence)[0]
            assert len(kept) > 32
            for i in kept:
                gamma = 1.0 + (nf[i] - nb[i]) / (nf[i] + nb[i])
                want = histogram_to_tomogram(gamma, a_eff, species, tol=np.inf)[0]
                assert est.w_plus[i] == want

    def test_late_bins_flagged_low_confidence(self):
        model = DecayModel()
        edges = np.linspace(0, 30 * model.lifetime_ns, 31)
        hist = simulate_events(STATIC_UP, hemisphere_pair(), model, 100_000, 17,
                               edges, background_fraction=0.0)
        est = estimate_tomogram(hist, hemisphere_pair(), model)[0]
        assert est.low_confidence[-1]
        assert np.isnan(est.w_plus[-1])
        assert not est.low_confidence[0]

    def test_all_bins_below_floor_raises(self):
        model = DecayModel()
        hist = HistogramSeries(np.array([0.0, 100.0]), np.array([[3], [2]]),
                               n_muons=10, background_fraction=0.0)
        with pytest.raises(ValueError):
            estimate_tomogram(hist, hemisphere_pair(), model)

    def test_unpaired_geometry_rejected(self):
        geom = DetectorGeometry([Detector(Z_AXIS, np.radians(40))])
        model = DecayModel()
        hist = HistogramSeries(np.array([0.0, 100.0]), np.array([[1000]]),
                               n_muons=10, background_fraction=0.0)
        with pytest.raises(ValueError):
            estimate_tomogram(hist, geom, model)


class TestSerialization:
    def test_histogram_csv_and_metadata(self):
        model = DecayModel()
        geom = hemisphere_pair()
        edges = np.array([0.0, 1000.0, 2000.0])
        hist = simulate_events(STATIC_UP, geom, model, 10_000, 3, edges)
        text = hist.to_csv(geom)
        lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
        assert lines[0] == "detector_id,axis_theta,axis_phi,bin_start_ns,bin_end_ns,counts"
        assert len(lines) - 1 == 2 * 2
        meta = json.loads(hist.metadata_json(model, seed=3))
        assert meta["n_muons"] == 10_000
        assert meta["lifetime_ns"] == model.lifetime_ns
        assert meta["seed"] == 3

    def test_counts_must_be_whole_numbers(self):
        with pytest.raises(ValueError, match="whole numbers"):
            HistogramSeries(np.array([0.0, 100.0]), np.array([[4.7]]),
                            n_muons=10, background_fraction=0.0)

    def test_whole_float_counts_round_trip(self):
        hist = HistogramSeries(np.array([0.0, 100.0]), np.array([[3.0]]),
                               n_muons=10, background_fraction=0.0)
        assert hist.counts.dtype == np.int64
        text = hist.to_csv(DetectorGeometry([Detector(Z_AXIS, np.radians(40))]))
        rows = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
        assert [row.split(",")[-1] for row in rows] == ["counts", "3"]

    def test_estimates_csv(self):
        est = AxisEstimate(axis=Z_AXIS, times=np.array([1.0]),
                           w_plus=np.array([0.9]), sigma=np.array([0.01]),
                           pair_counts=np.array([500.0]),
                           low_confidence=np.array([False]))
        text = csv_text(ESTIMATE_SCHEMA, estimate_cells([est]))
        assert "w_plus" in text and "0.9" in text
