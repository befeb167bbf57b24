#!/usr/bin/env python3
"""End-to-end histogram demo: simulate a million muon decays for a slowly
precessing polarization, invert the histograms back into the muon tomogram,
and print the per-bin pulls against the exact decay-weighted truth."""

import sys

import numpy as np

from musrtomo.musr import (DecayModel, DetectorGeometry, decay_bin_integrals,
                           estimate_tomogram, simulate_events)
from musrtomo.tomography import Z_AXIS


def run(n_muons=1_000_000, seed=1):
    model = DecayModel()
    geometry = DetectorGeometry.opposing_pairs([Z_AXIS], half_angle=np.radians(70))
    omega = 2 * np.pi / 600.0

    def polarization(ts):
        ts = np.atleast_1d(ts)
        z = (1 + np.cos(omega * ts)) / 2
        return np.stack([np.zeros_like(z), np.zeros_like(z), z], axis=1)

    edges = np.linspace(0.0, 4400.0, 23)
    hist = simulate_events(polarization, geometry, model, n_muons, seed, edges,
                           background_fraction=0.01)
    est = estimate_tomogram(hist, geometry, model, count_floor=1000)
    mass, q = decay_bin_integrals(polarization, edges, model.lifetime_ns)

    print(f"{'t_ns':>8} {'counts':>9} {'w_est':>8} {'w_true':>8} {'pull':>6}")
    # the one pair is row 0 of the estimate
    w, sigma, counts, low = (getattr(est, name)[0] for name in (
        "w_plus", "sigma", "pair_counts", "low_confidence"))
    for i, t in enumerate(est.times):
        if low[i]:
            print(f"{t:8.0f} {counts[i]:9.0f}  (low confidence)")
            continue
        truth = 0.5 + 0.5 * q[i, 2] / mass[i]
        pull = (w[i] - truth) / sigma[i]
        print(f"{t:8.0f} {counts[i]:9.0f} {w[i]:8.4f} {truth:8.4f} {pull:+6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
