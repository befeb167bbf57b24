import json

import numpy as np
import pytest

from conftest import random_direction
from musrtomo.musr import (
    BLOCK_MUONS,
    AxisEstimate,
    DecayModel,
    Detector,
    DetectorGeometry,
    HistogramSeries,
    estimate_tomogram,
    estimates_to_csv,
    gamma_distribution,
    histogram_to_tomogram,
    simulate_events,
)
from musrtomo.tomography import QuadratureGrid, X_AXIS, Z_AXIS

STATIC_UP = lambda ts: np.tile([0.0, 0.0, 1.0], (len(np.atleast_1d(ts)), 1))
UNPOLARIZED = lambda ts: np.zeros((len(np.atleast_1d(ts)), 3))


def hemisphere_pair():
    return DetectorGeometry.opposing_pairs([Z_AXIS], half_angle=np.radians(70))


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

    def test_pairing(self):
        geom = DetectorGeometry.opposing_pairs([Z_AXIS, X_AXIS], np.radians(30))
        pairs = geom.paired_indices()
        assert pairs == [(0, 1), (2, 3)]


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

    def test_estimates_csv(self):
        est = AxisEstimate(axis=Z_AXIS, times=np.array([1.0]),
                           w_plus=np.array([0.9]), sigma=np.array([0.01]),
                           pair_counts=np.array([500.0]),
                           low_confidence=np.array([False]))
        text = estimates_to_csv([est])
        assert "w_plus" in text and "0.9" in text
