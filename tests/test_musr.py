import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_direction
from musrtomo.dynamics import PropagatorSpec, initial_muonium_state, muon_polarization_function
from musrtomo.materials import material_from_dict
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
    _sample_emission,
    histogram_to_tomogram,
    simulate_events,
)
from musrtomo.tomography import QuadratureGrid, X_AXIS, Z_AXIS

# traced peak of one simulate_events block with the j_e = 1 polarization in
# a field: about 40 MB when the polarization runs in fixed slices, about
# 76 MB with block-sized trig matrices
BLOCK_MEMORY_BOUND_MB = 50
STATIC_UP = lambda ts: np.tile([0.0, 0.0, 1.0], (len(np.atleast_1d(ts)), 1))
UNPOLARIZED = lambda ts: np.zeros((len(np.atleast_1d(ts)), 3))


def hemisphere_pair():
    return DetectorGeometry.opposing_pairs([Z_AXIS], half_angle=np.radians(70))


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
        got = _sample_emission(rng, polar, k_signed)
        assert got.shape == (3, len(polar))
        assert np.abs(got.T - want).max() <= 1e-15
        assert np.allclose(np.linalg.norm(got, axis=0), 1.0)

    def test_column_layout_input(self, rng):
        # the polarization closure hands over (n, 3) views of (3, n) rows
        polar = rng.uniform(-0.5, 0.5, (3, 1000)).T
        a = _sample_emission(np.random.default_rng(5), polar, 1 / 3)
        b = _sample_emission(np.random.default_rng(5), np.ascontiguousarray(polar), 1 / 3)
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
