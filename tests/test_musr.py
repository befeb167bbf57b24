import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_direction
from musrtomo.dynamics import PropagatorSpec, initial_muonium_state, muon_polarization_function
from musrtomo.materials import load_material, material_from_dict
from musrtomo import musr
from musrtomo.musr import (
    BLOCK_MUONS,
    _SLICE_MUONS,
    AxisEstimate,
    DecayModel,
    Detector,
    DetectorGeometry,
    HistogramSeries,
    estimate_tomogram,
    estimates_to_csv,
    gamma_distribution,
    _as_polarization,
    _sample_emission,
    histogram_to_tomogram,
    simulate_events,
)
from musrtomo.tomography import QuadratureGrid, Direction, X_AXIS, Y_AXIS, Z_AXIS

# traced peak of one simulate_events block with the j_e = 1 polarization in
# a field: about 8 MB when every per-muon step runs in fixed slices, about
# 40 MB with block-sized emission and hit arrays, 76 MB with block-sized
# trig matrices as well
BLOCK_MEMORY_BOUND_MB = 16
STATIC_UP = lambda ts: np.tile([0.0, 0.0, 1.0], (len(np.atleast_1d(ts)), 1))
UNPOLARIZED = lambda ts: np.zeros((len(np.atleast_1d(ts)), 3))


def precessing(ts):
    ts = np.atleast_1d(ts)
    return np.stack([0.4 * np.sin(ts / 300), np.zeros_like(ts),
                     0.5 + 0.5 * np.cos(ts / 300)], axis=1)


def rho_precessing(ts):
    ts = np.atleast_1d(ts)
    rho = np.zeros((len(ts), 2, 2), dtype=complex)
    rho[:, 0, 0] = 0.5 + 0.4 * np.cos(ts / 300)
    rho[:, 1, 1] = 1 - rho[:, 0, 0]
    rho[:, 0, 1] = 0.2 * np.exp(1j * ts / 500)
    rho[:, 1, 0] = rho[:, 0, 1].conj()
    return rho


def hemisphere_pair():
    return DetectorGeometry.opposing_pairs([Z_AXIS], half_angle=np.radians(70))


def mixed_detectors():
    # per-detector cones and efficiencies below 1
    minus = lambda axis: Direction.from_vector(-axis.vector)
    return DetectorGeometry([Detector(Z_AXIS, 1.2), Detector(minus(Z_AXIS), 1.2, 0.7),
                             Detector(X_AXIS, 0.9, 0.9), Detector(minus(X_AXIS), 1.0, 0.55)])


def simulate_whole_blocks(polarization_of_t, geometry, model, n_muons, seed, bin_edges,
                          background_fraction=0.01):
    """Oracle of musr.simulate_events: counts from whole-block passes, with
    one polarization call, one emission sample and one (n, n_det) efficiency
    draw per block and one sorting np.histogram per detector."""
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
        # n_muons not divisible by the block size still books every muon
        model = DecayModel()
        n_muons = 2 * BLOCK_MUONS + 1
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

    def test_density_matrix_input(self):
        model = DecayModel()
        edges = np.array([0.0, 2000.0])

        def rho_of_t(ts):
            n = len(np.atleast_1d(ts))
            rho = np.zeros((n, 2, 2), dtype=complex)
            rho[:, 0, 0] = 1.0
            return rho

        h1 = simulate_events(rho_of_t, hemisphere_pair(), model, 20_000, 1,
                             edges, background_fraction=0.0)
        h2 = simulate_events(STATIC_UP, hemisphere_pair(), model, 20_000, 1,
                             edges, background_fraction=0.0)
        assert np.array_equal(h1.counts, h2.counts)

    @pytest.mark.parametrize("source, geometry, model, n_muons, edges", [
        (STATIC_UP, hemisphere_pair, DecayModel(), 50_000, (0.0, 3, 65)),
        (UNPOLARIZED, mixed_detectors, DecayModel(), 50_000, (0.0, 3, 65)),
        (rho_precessing, mixed_detectors, DecayModel(), 50_000, (0.0, 3, 65)),
        (precessing, mixed_detectors, DecayModel(species="mu_minus"), 50_000, (0.0, 3, 65)),
        (precessing, mixed_detectors, DecayModel(asymmetry=0.5), 50_000, (137.5, 3, 33)),
        ("quartz-oblique", mixed_detectors, DecayModel(), 30_000, (0.0, 3, 513)),
        (precessing, mixed_detectors, DecayModel(), 1, (0.0, 20, 9)),
        (precessing, mixed_detectors, DecayModel(), _SLICE_MUONS + 1, (0.0, 20, 65)),
        (precessing, mixed_detectors, DecayModel(), BLOCK_MUONS + 1, (100.0, 20, 65)),
        # 600,000 cells, more than the hits of a block: the cells add up once
        (precessing, mixed_detectors, DecayModel(), BLOCK_MUONS + 1, (0.0, 3, 150_001)),
        ("quartz-oblique", lambda: DetectorGeometry.opposing_pairs(
            [Z_AXIS, X_AXIS, Y_AXIS], np.radians(70)), DecayModel(), BLOCK_MUONS + 1,
         (0.0, 3, 513)),
    ], ids=["static-up", "unpolarized", "density-matrix", "mu-minus", "edges-above-0",
            "muonium-mixed", "one-muon", "slice-plus-one", "block-plus-one",
            "more-cells-than-hits", "muonium-block-plus-one"])
    def test_counts_equal_whole_block_oracle(self, source, geometry, model, n_muons,
                                             edges):
        # edges (first, window in lifetimes, count); the window of 20
        # lifetimes keeps about every muon, so n_muons fixes the slices
        if source == "quartz-oblique":
            spec = load_material("quartz").hamiltonian_spec(
                b_field=176.0, b_axis=Direction.from_vector([0.6, 0.0, 0.8]))
            source = muon_polarization_function(initial_muonium_state(0.5),
                                                PropagatorSpec(spec))
        first, lifetimes, n_edges = edges
        edges = np.linspace(first, lifetimes * model.lifetime_ns, n_edges)
        args = (source, geometry(), model, n_muons, 23, edges, 0.02)
        want = simulate_whole_blocks(*args)
        assert np.array_equal(simulate_events(*args).counts, want)

    @pytest.mark.parametrize("slice_muons", [1, 7, 4096])
    @pytest.mark.parametrize("source", [precessing, rho_precessing],
                             ids=["vectors", "density-matrices"])
    def test_counts_do_not_depend_on_the_slice(self, monkeypatch, source, slice_muons):
        # sources elementwise in t, so that only the simulation's own slicing
        # (emission, cone test, efficiency rows, binning) is under test
        model = DecayModel()
        edges = np.linspace(50.0, 3 * model.lifetime_ns, 33)
        args = (source, mixed_detectors(), model, 3_000 if slice_muons == 1 else 20_000,
                31, edges)
        want = simulate_events(*args).counts
        monkeypatch.setattr(musr, "_SLICE_MUONS", slice_muons)
        assert np.array_equal(simulate_events(*args).counts, want)

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

    def test_block_memory_stays_slice_sized(self):
        # one full block with the j_e = 1 polarization in a field (15 level
        # pairs), so that block-sized trig matrices cannot come back unseen
        spin1 = material_from_dict({"name": "spin1", "family": "hyperfine",
                                    "A_MHz": 2000.0, "A_is_angular": False,
                                    "deltaA_MHz": 0.0, "j_e": 1.0})
        prop = PropagatorSpec(spin1.hamiltonian_spec(b_field=57.3, b_axis=X_AXIS))
        polarization = muon_polarization_function(initial_muonium_state(1.0), prop)
        geom = DetectorGeometry.opposing_pairs([Z_AXIS, X_AXIS], np.radians(70))
        edges = np.linspace(0.0, 3 * DecayModel().lifetime_ns, 513)
        tracemalloc.start()
        try:
            simulate_events(polarization, geom, DecayModel(), BLOCK_MUONS, 3, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCK_MEMORY_BOUND_MB * 2 ** 20


class TestEstimateTomogram:
    def test_static_state_end_to_end(self):
        model = DecayModel()
        edges = np.array([0.0, 1500.0, 3000.0, 4500.0])
        hist = simulate_events(STATIC_UP, hemisphere_pair(), model, 1_000_000, 11,
                               edges, background_fraction=0.01)
        est = estimate_tomogram(hist, hemisphere_pair(), model)[0]
        assert est.sigma[0] < 5e-3
        assert abs(est.w_plus[0] - 1.0) <= 3 * est.sigma[0]

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
        text = estimates_to_csv([est])
        assert "w_plus" in text and "0.9" in text
