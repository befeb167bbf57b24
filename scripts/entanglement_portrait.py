#!/usr/bin/env python3
"""Entanglement portrait of a freshly formed muonium under the pure coupling:
prints E(t), negativity and the maximized Bell number over one period, plus
the analytic benchmarks they must track."""

import sys

import numpy as np

from musrtomo.dynamics import HamiltonianSpec, PropagatorSpec, evolve_density, \
    initial_muonium_state
from musrtomo.entanglement import entanglement_measure, max_bell, negativity
from musrtomo.linalg import SubsystemDims
from musrtomo.materials import load_material


def run(n_points=17):
    omega0 = load_material("vacuum").a_rad_ns
    prop = PropagatorSpec(HamiltonianSpec.hyperfine(omega0))
    rho0 = initial_muonium_state()
    print(f"{'w0*t':>6} {'E':>12} {'sin^4/128':>12} {'neg':>8} "
          f"{'maxB':>8} {'|sin|':>8}")
    for wt in np.linspace(0.0, 2 * np.pi, n_points):
        rho_t = evolve_density(rho0, prop.unitary(wt / omega0))
        e_val = entanglement_measure(rho_t)
        neg = negativity(rho_t, SubsystemDims(2, 2))
        bell, _ = max_bell(rho_t)
        print(f"{wt:6.3f} {e_val:12.3e} {np.sin(wt) ** 4 / 128:12.3e} "
              f"{neg:8.4f} {bell:8.4f} {abs(np.sin(wt)):8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
