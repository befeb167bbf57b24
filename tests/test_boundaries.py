"""The input boundary as two tables.

LIBRARY: each row calls one entry point with one bad input and expects an
exception of one type whose message matches a pattern. A row with a probe
also fails when the entry started its work first: drew random numbers (or
called its polarization source), or solved.

CLI: each row runs ``musrtomo`` on an argv and its input files and expects an
exit code (0 ok, 2 configuration error, 3 numeric failure), a stderr matching
a pattern, and no output written but the partial output that the row names.
"""

import json
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from conftest import (SPIN1, forward_model, generic_propagator, individual_tomogram_unitary,
                      material_propagator, propagator, random_density_matrix)
from test_checks import BOUNDS
from musrtomo.cli import _csv_text, _records_json, main
from musrtomo.dynamics import (HamiltonianSpec, OrientationNotTabulated, PropagatorSpec,
                               evolve_density, evolve_tomogram, initial_muonium_state,
                               muon_polarization_function, propagator_hyperfine)
from musrtomo.entanglement import (bell_number, correlation_matrix, entanglement_measure,
                                   entanglement_series, negativity, positivity_coefficients,
                                   tomographic_m34)
from musrtomo.linalg import (SubsystemDims, eig_hermitian, partial_trace, require_density_matrix,
                             require_unitary)
from musrtomo.materials import load_material, material_from_dict
from musrtomo.musr import (DecayModel, Detector, DetectorGeometry, HistogramSeries,
                           estimate_tomogram, gamma_distribution, histogram_to_tomogram,
                           simulate_events)
from musrtomo.reconstruction import (MeasurementPlan, default_times, golden_jitter_times,
                                     reconstruct_initial)
from musrtomo.tomography import (X_AXIS, Y_AXIS, Z_AXIS, Direction, QuadratureGrid, SpinTomogram,
                                 dual_basis, operator_from_symbol, operator_symbol_on_grid,
                                 quantizer, reconstruct_from_sphere,
                                 reconstruct_qubit_three_directions, rotation_matrix, rotations,
                                 spin_dim, spin_projections, tomogram)
from musrtomo.twospin import (TwoSpinBasis, TwoSpinTomogram, cg_matrix, individual_tomogram,
                              reconstruct_blockdiag, reconstruct_two_spin, reduced_tomogram,
                              total_from_individual, total_pdf, total_pdf_on_grid, total_tomogram)

I4, I6 = np.eye(4) / 4, np.eye(6) / 6
STACK = np.stack([I4] * 2)
SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]).astype(complex) / 2
GRID4 = QuadratureGrid(4)
NAN, INF = float("nan"), float("inf")


def drawn(dim):
    """The first random state of the ``rng`` fixture's stream."""
    return random_density_matrix(dim, np.random.default_rng(12345))


def with_entry(a, index, value):
    a = np.array(a, dtype=complex if np.iscomplexobj(a) or np.iscomplexobj(value) else float)
    a[index] = value
    return a


def mustar_xz():
    return material_propagator("si-mustar", 100.0, Z_AXIS, X_AXIS)


def generic_plan():
    """A rank-15 plan: a structureless two-spin Hamiltonian at 5 golden times."""
    return MeasurementPlan(generic_propagator(), times=golden_jitter_times(8.0, 5))


def untouched(ts):
    raise AssertionError("the polarization source was called")


def forbidden(*args, **kwargs):
    raise AssertionError("the entry did its work before it checked its input")


PROBES = {"no draw": (np.random, "default_rng"), "no solve": (np.linalg, "lstsq")}


def row(name, call, match, exc=ValueError, probe=None):
    return pytest.param(call, exc, match, probe, id=name)


SPIN_MESSAGE = r"spin must be a nonnegative multiple of 1/2, got "
# every public entry that takes a spin, called with the spin under test
SPIN_ENTRIES = {
    "spin_projections": spin_projections,
    "TwoSpinBasis(j, 1/2)": lambda j: TwoSpinBasis(j, 0.5),
    "TwoSpinBasis(1/2, j)": lambda j: TwoSpinBasis(0.5, j),
    "cg_matrix": lambda j: cg_matrix(0.5, j),
    "total_tomogram": lambda j: total_tomogram(I4, 0.5, j, np.eye(4)),
    "reduced_tomogram": lambda j: reduced_tomogram(I4, 0.5, j, Z_AXIS),
    "SpinTomogram": lambda j: SpinTomogram(j, QuadratureGrid(2), np.full((2, 12), 0.5)),
    "TwoSpinTomogram.from_state": lambda j: TwoSpinTomogram.from_state(I4, 0.5, j),
    "QuadratureGrid.for_spin": QuadratureGrid.for_spin,
    "initial_muonium_state": initial_muonium_state,
}
NOT_SPINS = [0.7, -0.5, -1, NAN, INF, True, False, np.True_, 0.5 + 1e-12, "1", None, 1j, [0.5],
             np.array(0.5)]
WRONG_DIM = r"density matrix dimension 3 != \(2j_mu\+1\)\(2j_e\+1\) = 4"
ONE_MATRIX = r"expected one density matrix, got a stack of shape \(2, 4, 4\)"
TOTAL_ROUTES = {
    "total_pdf": lambda rho: total_pdf(rho, 0.5, 0.5, Z_AXIS),
    "total_pdf_on_grid": lambda rho: total_pdf_on_grid(rho, 0.5, 0.5, GRID4),
    "total_tomogram": lambda rho: total_tomogram(rho, 0.5, 0.5, np.eye(4)),
}


def blockdiag(change):
    """reconstruct_blockdiag of the singlet's samples after ``change`` edits them."""
    f = total_pdf_on_grid(SINGLET, 0.5, 0.5, GRID4)
    change(f)
    return reconstruct_blockdiag(f, GRID4, 0.5, 0.5)


def spin_table(values):
    """A 1/2 table on the default grid, from the drawn state, with ``values`` applied."""
    tom = SpinTomogram.from_state(drawn(2), 0.5)
    return SpinTomogram(0.5, tom.grid, values(tom.values.copy()))


def two_spin_table(values):
    w = TwoSpinTomogram.from_state(drawn(4), 0.5, 0.5)
    return TwoSpinTomogram(0.5, 0.5, w.grid_mu, w.grid_e, values(w.values.copy()))


TOMOGRAPHY = [
    row("from_vector/zero", lambda: Direction.from_vector([0, 0, 0]), "zero vector"),
    *[row(f"from_vector/{v}", lambda v=v: Direction.from_vector([v, 0.0, 1.0]), "finite")
      for v in (NAN, INF, -INF)],
    row("rotation_matrix/j=2.5", lambda: rotation_matrix(2.5, Z_AXIS), "unsupported spin"),
    row("rotations/j=2.5", lambda: rotations(2.5, QuadratureGrid.for_spin(2.5)),
        "unsupported spin"),
    row("tomogram/trace", lambda: tomogram(np.diag([1.0, 0.5]), 0.5, Z_AXIS),
        "density matrix trace"),
    *[row(f"{name}/dimension", lambda f=f: f(I4, 0.5), r"density matrix dimension 4 != 2j\+1 = 2")
      for name, f in (("tomogram", lambda rho, j: tomogram(rho, j, Z_AXIS)),
                      ("SpinTomogram.from_state", SpinTomogram.from_state))],
    *[row(f"quantizer/m={m}", lambda m=m: quantizer(0.5, m, Z_AXIS),
          r"projection m=.* invalid for j=0.5") for m in (0.7, 0.25, NAN, 1.5)],
    row("dual_basis/coplanar", lambda: dual_basis(X_AXIS, Y_AXIS, Direction(np.pi / 2, np.pi / 4)),
        "directions are coplanar"),
    row("SpinTomogram/sums", lambda: SpinTomogram(0.5, QuadratureGrid(2), np.full((2, 12), 0.4)),
        "probabilities must sum to 1"),
    row("SpinTomogram/nan", lambda: spin_table(lambda v: with_entry(v, (-1, -1), NAN)),
        "tomogram values outside"),
    row("SpinTomogram/shape", lambda: SpinTomogram(0.5, QuadratureGrid(2), np.full((3, 12), 1 / 3)),
        r"values shape \(3, 12\) != \(2, 12\)"),
    row("reconstruct_qubit_three_directions/two", lambda: reconstruct_qubit_three_directions(
        [0.5, 0.5], [X_AXIS, Y_AXIS]), "need exactly three probabilities and directions"),
    row("reconstruct_qubit_three_directions/w=1.5", lambda: reconstruct_qubit_three_directions(
        [0.5, 0.5, 1.5], [X_AXIS, Y_AXIS, Z_AXIS]), r"probability 1.5 outside \[0, 1\]"),
    *[row(f"spin_dim/{j!r}", lambda j=j: [spin_dim(1), spin_dim(0), spin_dim(j)],
          SPIN_MESSAGE + re.escape(repr(j)) + "$") for j in NOT_SPINS],
    *[row(f"{name}/j={j!r}", lambda entry=entry, j=j: entry(j), SPIN_MESSAGE)
      for name, entry in SPIN_ENTRIES.items() for j in (0.7, -0.5, NAN, True)],
    *[row(f"{name}/degree", call, rf"^grid degree 2 insufficient for j={j}; need >= {need}$")
      for name, call, j, need in (
          ("reconstruct_from_sphere", lambda: reconstruct_from_sphere(
              SpinTomogram.from_state(drawn(3), 1.0, QuadratureGrid(2))), 1.0, 4),
          ("reconstruct_from_sphere/uniform", lambda: reconstruct_from_sphere(
              SpinTomogram.from_state(np.eye(3) / 3, 1.0, QuadratureGrid(2))), 1.0, 4),
          ("reconstruct_two_spin", lambda: reconstruct_two_spin(
              TwoSpinTomogram.from_state(drawn(6), 0.5, 1.0, grid_e=QuadratureGrid(2))), 1.0, 4),
          ("reconstruct_two_spin/uniform", lambda: reconstruct_two_spin(
              TwoSpinTomogram.from_state(I6, 0.5, 1.0, grid_e=QuadratureGrid(2))), 1.0, 4),
          ("reconstruct_blockdiag", lambda: reconstruct_blockdiag(
              {}, QuadratureGrid(2), 0.5, 1.0), 1.5, 6))],
    *[row(f"QuadratureGrid/{d!r}", lambda d=d: QuadratureGrid(d),
          f"grid degree must be an integer >= 0, got {re.escape(repr(d))}")
      for d in (-3, -1, True, False, 2.5, 4.0, "4", None)],
    *[row(f"operator_symbol_on_grid/{shape}",
          lambda s=shape: operator_symbol_on_grid(np.ones(s), 0.5, QuadratureGrid(2)),
          r"\(2j\+1, 2j\+1\) = \(2, 2\)") for shape in [(4,), (1, 4), (2, 3), (3, 3), (2, 2, 1)]],
    *[row(f"operator_from_symbol/{shape}",
          lambda s=shape: operator_from_symbol(np.ones(s), 0.5, QuadratureGrid(2)),
          r"\(2j\+1, grid.n_nodes\) = \(2, 12\)")
      for shape in [(24,), (12, 2), (2, 11), (3, 12), (2, 12, 1)]],
]

TWOSPIN = [
    row("individual_tomogram_unitary/not-unitary",
        lambda: individual_tomogram_unitary(I4, np.diag([1.0, 1.0, 1.0, 0.5])), "not unitary"),
    row("individual_tomogram_unitary/inf",
        lambda: individual_tomogram_unitary(I4, with_entry(np.eye(4), (0, 0), INF)), "finite"),
    row("total_tomogram/inf",
        lambda: total_tomogram(I4, 0.5, 0.5, with_entry(np.eye(4), (0, 0), INF)), "finite"),
    row("individual_tomogram_unitary/3x4", lambda: individual_tomogram_unitary(I4, np.eye(4)[:3]),
        r"square matrix, got shape \(3, 4\)"),
    row("individual_tomogram_unitary/3x3", lambda: individual_tomogram_unitary(I4, np.eye(3)),
        r"unitary shape \(3, 3\) != state shape \(4, 4\)"),
    row("individual_tomogram/stack",
        lambda: individual_tomogram(STACK, 0.5, 0.5, Z_AXIS, Z_AXIS), ONE_MATRIX),
    row("individual_tomogram/dimension", lambda: individual_tomogram(I6, 0.5, 0.5, Z_AXIS, Z_AXIS),
        r"density matrix dimension 6 != \(2j_mu\+1\)\(2j_e\+1\) = 4"),
    *[row(f"{name}/{case}", lambda f=f, rho=rho: f(rho), message)
      for name, f in TOTAL_ROUTES.items()
      for case, rho, message in (("dimension", np.eye(3) / 3, WRONG_DIM),
                                 ("stack", STACK, ONE_MATRIX))],
    *[row(f"{name}/{case}", lambda f=f, u=u: f(u),
          rf"unitary shape \(3, {u.shape[1]}\) != \(4, 4\)")
      for name, f in (("total_tomogram", lambda u: total_tomogram(SINGLET, 0.5, 0.5, u)),
                      ("total_from_individual", lambda u: total_from_individual(
                          TwoSpinTomogram.from_state(SINGLET, 0.5, 0.5), u)))
      for case, u in (("3x3", np.eye(3)), ("3x4", np.eye(4)[:3]))],
    row("reconstruct_blockdiag/missing-L", lambda: blockdiag(lambda f: f.pop(0.0)),
        r"f_samples holds L = \[1.0\], the basis L = \[1.0, 0.0\]"),
    row("reconstruct_blockdiag/extra-L",
        lambda: blockdiag(lambda f: f.update({2.0: np.zeros((5, GRID4.n_nodes))})),
        "f_samples holds L"),
    row("reconstruct_blockdiag/block-shape",
        lambda: blockdiag(lambda f: f.update({1.0: f[1.0][:, :-1]})),
        rf"f_samples\[1.0\] has shape \(3, {GRID4.n_nodes - 1}\), not \(3, {GRID4.n_nodes}\)"),
    row("TwoSpinTomogram.from_state/dimension",
        lambda: TwoSpinTomogram.from_state(np.eye(3) / 3, 0.5, 0.5), WRONG_DIM),
    row("TwoSpinTomogram.from_state/stack",
        lambda: TwoSpinTomogram.from_state(STACK, 0.5, 0.5), ONE_MATRIX),
    row("TwoSpinTomogram/nan", lambda: two_spin_table(lambda v: with_entry(v, (-1,) * 4, NAN)),
        "negative or missing joint probabilities"),
    row("TwoSpinTomogram/shape", lambda: two_spin_table(lambda v: v[:, :-1]),
        r"values shape \(2, 11, 2, 12\) != \(2, 12, 2, 12\)"),
]

JSON_VALUES = {"string": "4463", "true": True, "false": False, "null": None}
MATERIAL = {"name": "m", "A_MHz": 4463.0, "A_is_angular": False}
DYNAMICS = [
    row("HamiltonianSpec/field-axis", lambda: HamiltonianSpec(a=1.0, b_field=10.0),
        "nonzero field requires a field axis"),
    row("HamiltonianSpec/aniso-axis", lambda: HamiltonianSpec(a=1.0, delta_a=0.3),
        "nonzero anisotropy requires an anisotropy axis"),
    *[row(f"HamiltonianSpec/j_e={j!r}", lambda j=j: HamiltonianSpec.hyperfine(1.0, j_e=j),
          "j_e must be a positive multiple of 1/2") for j in (0.7, 0.0, -0.5, 0.25, NAN, INF,
                                                               True, "0.5", [0.5])],
    row("closed_form_unitary/j_e=3/2", lambda: PropagatorSpec(HamiltonianSpec(
        a=1.1, delta_a=0.4, b_field=25.0, b_axis=Z_AXIS, aniso_axis=X_AXIS, j_e=1.5))
        .closed_form_unitary(0.5), "no closed form for j_e=1.5", OrientationNotTabulated),
    row("closed_form_unitary/untabulated", lambda: PropagatorSpec(HamiltonianSpec(
        a=1.0, delta_a=0.3, b_field=10.0, b_axis=X_AXIS, aniso_axis=X_AXIS))
        .closed_form_unitary(1.0), "no closed form for j_e=0.5 with B axis x",
        OrientationNotTabulated),
    row("evolve_density/not-unitary",
        lambda: evolve_density(drawn(4), np.diag([1, 1, 1, 0.5])), "not unitary"),
    row("evolve_density/nan", lambda: evolve_density(drawn(4), np.full((4, 4), NAN)), "finite"),
    row("evolve_density/inf-slice", lambda: evolve_density(drawn(4), with_entry(
        propagator_hyperfine(4.453, np.linspace(0.0, 2.0, 8)), (5, 1, 2), INF)), "finite"),
    row("evolve_density/dimension", lambda: evolve_density(drawn(4), np.eye(6)),
        "density matrix dimension 4 != propagator dimension = 6"),
    row("evolve_tomogram/dimension", lambda: evolve_tomogram(
        I4, PropagatorSpec(HamiltonianSpec.hyperfine(4.453)).unitary, [0.1], 0.5, 1.0),
        r"\(2j_mu\+1\)\(2j_e\+1\) = 6"),
    row("muon_polarization_function/dimension",
        lambda: muon_polarization_function(initial_muonium_state(0.5),
                                           material_propagator(SPIN1)),
        "density matrix dimension 4 != propagator dimension = 6"),
    row("load_material/missing", lambda: load_material("unobtainium"),
        "no material preset or file named 'unobtainium'", FileNotFoundError),
    row("material_from_dict/array", lambda: material_from_dict([1]),
        r"a material file must hold a JSON object, got \[1\]"),
    *[row(f"material_from_dict/{family}-delta", lambda family=family: material_from_dict(
        {**MATERIAL, "family": family, "A_MHz": 92.595, "deltaA_MHz": -75.776}),
        f"family '{family}' has no anisotropy") for family in ("hyperfine", "isotropic")],
    row("material_from_dict/unknown-family",
        lambda: material_from_dict({**MATERIAL, "family": "isotropc", "A_MHz": 4404.0}),
        "unknown family 'isotropc'"),
    *[row(f"material_from_dict/A_is_angular={flag!r}",
          lambda flag=flag: material_from_dict({**MATERIAL, "A_is_angular": flag}),
          "A_is_angular must be true or false") for flag in ("false", "true", 0, 1, None)],
    *[row(f"material_from_dict/{field}={kind}",
          lambda field=field, value=value: material_from_dict({**MATERIAL, field: value}),
          re.escape(f"{field} must be a JSON number, got {value!r}"))
      for field in ("A_MHz", "deltaA_MHz", "j_e") for kind, value in JSON_VALUES.items()],
]

GRID_PROBS = np.full((4, 4), 0.25)
ENTANGLEMENT = [
    row("bell_number/columns", lambda: bell_number(np.full((4, 4), 0.3)),
        "Bell probabilities must sum to 1"),
    row("bell_number/shape", lambda: bell_number(np.full((2, 8), 0.5)), "expected a 4x4"),
    *[row(f"{f.__name__}/dimension", lambda f=f: f(I6), f"{what} requires a two-qubit state")
      for f, what in ((correlation_matrix, "correlation matrix"),
                      (entanglement_measure, "the measure"),
                      (entanglement_series, "entanglement series"))],
    row("tomographic_m34/qubit-qutrit", lambda: tomographic_m34(
        TwoSpinTomogram.from_state(I6, 0.5, 1.0)), "tomographic M3/M4 implemented for two qubits"),
    row("SubsystemDims/0", lambda: SubsystemDims(0, 2), "subsystem dimensions must be >= 1"),
    *[row(f"bell_number/cell={c}", lambda c=c: bell_number(with_entry(
        GRID_PROBS, (slice(None), 0), [1 - c, c, 0.0, 0.0])),
        "Bell probabilities: tomogram values outside") for c in (NAN, -0.5, INF)],
    row("positivity_coefficients/trace", lambda: positivity_coefficients(np.eye(4)),
        "density matrix trace"),
    row("positivity_coefficients/dimension", lambda: positivity_coefficients(np.eye(3) / 3),
        "density matrix dimension 3 != two-qubit dimension = 4"),
    row("positivity_coefficients/nan",
        lambda: positivity_coefficients(with_entry(I4, (1, 2), NAN)), "finite"),
    row("negativity/dims", lambda: negativity(drawn(8), SubsystemDims(2, 4)), "2x2 and 2x3"),
    row("partial_trace/dimension",
        lambda: partial_trace(np.eye(4), SubsystemDims(2, 3), keep="a"),
        r"shape \(4, 4\) does not match 2x3 bipartite split"),
    *[row(f"{name}/not-hermitian", lambda f=f: f(np.array([[0, 1], [0, 0]], dtype=complex)),
          "not Hermitian") for name, f in (("eig_hermitian", eig_hermitian),
                                           ("propagator", lambda h: propagator(h, 1.0)))],
    row("require_density_matrix/1-d", lambda: require_density_matrix(np.ones(4)), "2-d array"),
    row("eig_hermitian/stack", lambda: eig_hermitian(STACK), "expected a 2-d array"),
    row("eig_hermitian/2x3", lambda: eig_hermitian(np.ones((2, 3))), "matrix must be square"),
    *[row(f"require_unitary/{shape}", lambda s=shape: require_unitary(np.zeros(s)),
          "square matrix") for shape in [(3, 4), (2, 4, 3)]],
]


def quartz_evolution(unitaries=lambda u: u):
    """Fresh muonium evolved by ``unitaries`` of U(t) at 16 instants of quartz
    at 790 G along x."""
    u = material_propagator("quartz", 790.0, X_AXIS).unitary(np.linspace(0.0, 2.0, 16))
    return evolve_density(initial_muonium_state(), unitaries(u))


STACKS = [
    row("evolve_density/one-non-unitary",
        lambda: quartz_evolution(lambda u: with_entry(u, 11, 1.001 * u[11])),
        "evolution operator is not unitary"),
    *[row(f"{name}/one-non-hermitian", lambda f=f: f(with_entry(
        quartz_evolution(), (11, 0, 1), quartz_evolution()[11, 0, 1] + 1e-6)), "not Hermitian")
      for name, f in (("require_density_matrix", require_density_matrix),
                      ("entanglement_series", entanglement_series))],
]

HEMISPHERES = DetectorGeometry.opposing_pairs([Z_AXIS], half_angle=np.radians(70))
# bin edges that simulate_events and HistogramSeries both reject
BAD_EDGES = {
    "scalar": 5000.0, "2-d": [[0.0, 1000.0], [2000.0, 3000.0]], "empty": [], "one-edge": [1000.0],
    "nan": [0.0, NAN, 2000.0], "-inf": [-INF, 0.0, 1000.0], "inf": [0.0, 1000.0, INF],
    "repeated": [0.0, 1000.0, 1000.0, 2000.0], "decreasing": [0.0, 2000.0, 1000.0]}
# the one muon-count rule of simulate_events and HistogramSeries: a non-bool integer >= 1
BAD_MUON_COUNTS = [0, -5, 2.5, 3.0, True, NAN, "10"]
GAMMAS = np.array([2 / 3, 0.9, 1.0, 1.25, 4 / 3, 2.0])


def series(edges=(0.0, 100.0), counts=((3,),), n_muons=10, background_fraction=0.0):
    return HistogramSeries(np.asarray(edges), np.asarray(counts), n_muons=n_muons,
                           background_fraction=background_fraction)


MUSR = [
    row("gamma_distribution/overlong", lambda: gamma_distribution([0, 0, 1.5], Z_AXIS, 1 / 3),
        "polarization must be finite with norm <= 1"),
    *[row(f"gamma_distribution/{p}", lambda p=p: gamma_distribution(p, Z_AXIS, 1 / 3), "finite")
      for p in ([NAN, 0, 0], [0, INF, 0], [0, 0, -INF])],
    row("histogram_to_tomogram/gamma", lambda: histogram_to_tomogram(2.0, 1 / 3),
        "outside range for asymmetry"),
    *[row(f"histogram_to_tomogram/{species}-array",
          lambda s=species: histogram_to_tomogram(GAMMAS, 1 / 3, s), "outside range for asymmetry")
      for species in ("mu_plus", "mu_minus")],
    *[row(f"histogram_to_tomogram/asymmetry={a}", lambda a=a: histogram_to_tomogram(1.0, a),
          "asymmetry must be positive")
      for a in (0.0, -1 / 3, NAN, np.array([1 / 3, NAN]))],
    *[row(f"histogram_to_tomogram/species={s!r}", lambda s=s: histogram_to_tomogram(1.2, 1 / 3, s),
          "species must be") for s in ("mu-", "mu_plus ", "")],
    *[row(f"DecayModel/{field}={value}", lambda f=field, v=value: DecayModel(**{f: v}), message)
      for field, message, values in (
          ("asymmetry", r"asymmetry must lie in \[1/3, 1\]", (0.2, 1.1, NAN, INF, -INF)),
          ("lifetime_ns", "lifetime must be positive and finite", (NAN, INF, 0.0)))
      for value in values],
    row("DecayModel/species", lambda: DecayModel(species="mu"), "species must be 'mu_plus' or"),
    row("Detector/half_angle", lambda: Detector(Z_AXIS, half_angle=0.0),
        r"half angle must lie in \(0, pi\]"),
    row("Detector/efficiency", lambda: Detector(Z_AXIS, half_angle=1.0, efficiency=0.0),
        r"efficiency must lie in \(0, 1\]"),
    row("simulate_events/matrix-source", lambda: simulate_events(
        lambda ts: np.tile(np.diag([1.0, 0.0]).astype(complex), (len(ts), 1, 1)), HEMISPHERES,
        DecayModel(), 20_000, 1, np.array([0.0, 2000.0]), background_fraction=0.0),
        r"must yield \(n,3\) vectors"),
    row("simulate_events/over-polarized", lambda: simulate_events(
        lambda ts: np.tile([0.0, 0.6, 0.9], (len(np.atleast_1d(ts)), 1)), HEMISPHERES,
        DecayModel(), 1000, 1, np.linspace(0.0, 3000.0, 4)), "norm above 1", probe="no draw"),
    *[row(f"simulate_events/edges-{name}", lambda e=edges: simulate_events(
        untouched, HEMISPHERES, DecayModel(), 1000, 1, e), "bin edges", probe="no draw")
      for name, edges in BAD_EDGES.items()],
    *[row(f"simulate_events/n_muons={n!r}", lambda n=n: simulate_events(
        untouched, HEMISPHERES, DecayModel(), n, 1, [0.0, 1000.0]),
        "n_muons must be an integer >= 1", probe="no draw") for n in BAD_MUON_COUNTS],
    row("estimate_tomogram/floor", lambda: estimate_tomogram(
        series(counts=[[3], [2]]), HEMISPHERES, DecayModel()), "no bins above the count floor"),
    row("estimate_tomogram/unpaired", lambda: estimate_tomogram(
        series(counts=[[1000]]), DetectorGeometry([Detector(Z_AXIS, np.radians(40))]),
        DecayModel()), "no opposing detector pairs"),
    row("estimate_tomogram/half-angle-pi", lambda: estimate_tomogram(
        series(counts=[[1000], [900]]), DetectorGeometry.opposing_pairs([Z_AXIS], np.pi),
        DecayModel()), r"detector pair \(0, 1\) has half angle pi"),
    row("HistogramSeries/counts", lambda: series(counts=[[4.7]]), "whole numbers"),
    *[row(f"HistogramSeries/counts={c}", lambda c=c: series(counts=c), message)
      for c, message in (([[3, 4]], "counts shape does not match bin edges"),
                         ([3], "counts shape does not match bin edges"),
                         ([[-3]], "counts must be nonnegative"))],
    *[row(f"HistogramSeries/edges-{name}",
          lambda e=edges: series(edges=e, counts=np.zeros((1, 1))), "bin edges")
      for name, edges in BAD_EDGES.items()],
    *[row(f"HistogramSeries/background={f}", lambda f=f: series(background_fraction=f),
          r"background fraction must lie in \[0, 1\)") for f in (-0.5, 1.0, NAN, INF)],
    *[row(f"HistogramSeries/n_muons={n!r}", lambda n=n: series(n_muons=n),
          "n_muons must be an integer >= 1") for n in BAD_MUON_COUNTS],
]


def no_gaps():
    return PropagatorSpec(HamiltonianSpec.hyperfine(0.0))


def solve(values=lambda v: v, sigmas=np.full(15, 0.01)):
    """reconstruct_initial on the generic plan's exact values of fresh
    muonium, edited by ``values``."""
    plan = generic_plan()
    values = values(forward_model(initial_muonium_state(), plan))
    return reconstruct_initial(values, plan, sigmas=sigmas)


RECONSTRUCTION = [
    row("MeasurementPlan/j_e=1", lambda: MeasurementPlan(
        PropagatorSpec(HamiltonianSpec.hyperfine(4.453, j_e=1.0)), times=(0.1, 0.2)),
        r"needs a two-qubit \(4x4\) propagator, got a 6x6 Hamiltonian"),
    row("MeasurementPlan/j_e=1-file", lambda: MeasurementPlan(
        material_propagator(SPIN1), times=(0.1, 0.2)), "4x4"),
    row("MeasurementPlan/callable", lambda: MeasurementPlan(
        lambda t: np.diag(np.exp(-1j * np.array([0.75, -0.25, 0.5, -1.0]) * t)),
        times=(0.1, 0.2)), "propagator must be a PropagatorSpec, got function", TypeError),
    row("default_times/single-level", lambda: default_times(no_gaps()),
        "no nonzero eigenfrequency gaps"),
    row("MeasurementPlan/single-level", lambda: MeasurementPlan(no_gaps()),
        "no nonzero eigenfrequency gaps"),
    *[row(f"MeasurementPlan/set-{name}", lambda name=name: setattr(
        MeasurementPlan(mustar_xz()), name, ()), f"cannot assign to field '{name}'",
        FrozenInstanceError) for name in ("propagator", "directions", "times")],
    row("MeasurementPlan/repeated-time",
        lambda: MeasurementPlan(mustar_xz(), times=(1.0, 1.0, 2.0)), "pairwise distinct"),
    *[row(f"MeasurementPlan/time={t!r}",
          lambda t=t: MeasurementPlan(mustar_xz(), times=(1.0, t, 2.0)),
          f"time {t!r} must be finite and nonnegative") for t in (NAN, INF, -INF, -0.5)],
    row("reconstruct_initial/rank-deficient", lambda: reconstruct_initial(
        forward_model(initial_muonium_state(), MeasurementPlan(mustar_xz())),
        MeasurementPlan(mustar_xz())), "rank deficient"),
    row("reconstruct_initial/value-count", lambda: reconstruct_initial(
        np.zeros(7), MeasurementPlan(mustar_xz()), allow_deficient=True),
        "expected 15 measurement values"),
    *[case for bad in (NAN, INF, -INF) for case in (
        row(f"reconstruct_initial/values={bad}",
            lambda b=bad: solve(values=lambda v: with_entry(v, 4, b)),
            "measurement values must be finite", probe="no solve"),
        row(f"reconstruct_initial/sigmas={bad}",
            lambda b=bad: solve(sigmas=with_entry(np.full(15, 0.01), 4, b)),
            "sigmas must be positive and finite", probe="no solve"))],
    *[row(f"reconstruct_initial/sigmas-{name}", lambda s=sigmas: solve(sigmas=s),
          "expected 15 sigmas, one per measurement value", probe="no solve")
      for name, sigmas in (("3", np.full(3, 0.01)), ("16", np.full(16, 0.01)),
                           ("15x1", np.full((15, 1), 0.01)), ("scalar", 0.01))],
]

WRITERS = [
    row("_csv_text/unequal", lambda: _csv_text("musrtomo/test/v1", {"a": ["1", "2"], "b": ["3"]}),
        r"zip\(\) argument 2 is shorter"),
    row("_records_json/unequal", lambda: _records_json({"t": ["1.0", "2.0"], "E": ["0.5"]}),
        r"zip\(\) argument 2 is shorter"),
]

# 1.1 times each bound of the state, unitary and probability checks; 0.9 times
# it is accepted in tests/test_checks.py
PINS = [row(f"bound/{name}", lambda b=build: b(1.1), message) for name, build, message in BOUNDS]
LIBRARY = (TOMOGRAPHY + TWOSPIN + DYNAMICS + ENTANGLEMENT + STACKS + PINS + MUSR + RECONSTRUCTION
           + WRITERS)


@pytest.mark.parametrize("call, exc, match, probe", LIBRARY)
def test_library_rejects(call, exc, match, probe, monkeypatch):
    if probe:
        monkeypatch.setattr(*PROBES[probe], forbidden)
    with pytest.raises(exc, match=match):
        call()


# --------------------------------------------------------------------------
# the command line

TIMES = [10.0, 25.0, 47.0, 90.0, 130.0]
HEADER = ["t_ns", "theta", "phi", "w_plus", "sigma"]


def plan_text(material="si-mustar", b=100.0, times=TIMES, **changes):
    return json.dumps({"material": material, "B": b, "B_axis": "z", "aniso_axis": "x",
                       "directions": ["x", "y", "z"], "times_ns": times, **changes})


def measured(material="si-mustar", b=100.0, times=TIMES, sigmas=False) -> list:
    """Cells of the plan's rows, its exact values for fresh muonium, and a
    sigma of 0.01 (1 + k % 4) on row k or none."""
    spec = load_material(material).hamiltonian_spec(b_field=b, b_axis=Z_AXIS, aniso_axis=X_AXIS)
    plan = MeasurementPlan(PropagatorSpec(spec), times=tuple(times))
    values = forward_model(initial_muonium_state(), plan)
    keys = [(t, d) for t in plan.times for d in plan.directions]
    return [[repr(t), repr(d.theta), repr(d.phi), repr(float(v)),
             repr(0.01 * (1 + k % 4)) if sigmas else ""]
            for k, ((t, d), v) in enumerate(zip(keys, values))]


def edited(rows, *changes) -> list:
    """A copy of the cell rows with (row, column, cell) changes."""
    rows = [list(r) for r in rows]
    for r, c, cell in changes:
        rows[r][c] = cell
    return rows


def cli(name, argv, err, files=(), code=2, leaves=()):
    """A row; ``leaves`` names the files a documented partial output keeps."""
    return pytest.param(argv, dict(files), code, err, sorted(leaves), id=name)


def run_reconstruct(name, err, plan=None, rows=None, flags=("--allow-deficient",), header=HEADER):
    rows = measured() if rows is None else rows
    return cli(name, ["reconstruct", "--plan", "{tmp}/plan.json", "--measurements",
                      "{tmp}/meas.csv", *flags, "--out", "{out}"], err,
               {"plan.json": plan_text() if plan is None else plan,
                "meas.csv": "\n".join(map(",".join, [header, *rows])) + "\n"})


def material_text(**fields):
    """A hyperfine material file with the given fields changed."""
    return json.dumps({"name": "custom", "family": "hyperfine", "A_MHz": 4463.0,
                       "A_is_angular": False, "deltaA_MHz": 0.0, "j_e": 0.5, **fields})


def with_material(name, err, verbs=("evolve",), flags=("--t-max-ns", "1.0"), **fields):
    return [cli(f"{verb}/{name}", [verb, "--material", "{tmp}/custom.json", "--B", "0", *flags,
                                   "--out", "{out}"], err,
                {"custom.json": material_text(**fields)}) for verb in verbs]


def with_init(name, err, text, verbs=("evolve",), material="vacuum"):
    flags = {"simulate": ["--n-muons", "100"], "evolve": ["--B", "0", "50", "--steps", "4"],
             "bell": ["--steps", "4"], "report": ["--steps", "4"]}
    return [cli(f"{verb}/{name}", [verb, "--material", material, "--init", "{tmp}/init.json",
                                   *flags[verb], "--out", "{out}"], err, {"init.json": text})
            for verb in verbs]


SIGMAS = measured(sigmas=True)
VERBS = ("simulate", "evolve", "bell", "report")
MATERIAL_ERRORS = {
    "string-flag": ({"A_is_angular": "false"}, "A_is_angular must be true or false"),
    "hyperfine-delta": ({"deltaA_MHz": 10.0}, "family 'hyperfine' has no anisotropy"),
    "isotropic-delta": ({"family": "isotropic", "deltaA_MHz": 10.0},
                        "family 'isotropic' has no anisotropy"),
    "unknown-family": ({"family": "muonic"}, "unknown family 'muonic'"),
    "string-coupling": ({"A_MHz": "4463"}, "A_MHz must be a JSON number, got '4463'"),
    "boolean-spin": ({"j_e": True}, "j_e must be a JSON number, got True"),
    "null-anisotropy": ({"deltaA_MHz": None}, "deltaA_MHz must be a JSON number, got None"),
}

CLI = [
    cli("evolve/unknown-material", ["evolve", "--material", "nothere", "--out", "{out}"],
        "no material preset or file named 'nothere'"),
    cli("evolve/B=nan", ["evolve", "--B", "nan", "--out", "{out}"], "b_field must be finite"),
    cli("simulate/B=nan", ["simulate", "--B", "nan", "--n-muons", "100", "--out", "{out}"],
        "b_field must be finite"),
    *[cli(f"evolve/B-axis={axis}", ["evolve", "--material", "quartz", "--B", "100", "--B-axis",
                                    axis, "--out", "{out}"], "cannot parse axis")
      for axis in ("nan,0,1", "inf,0,1")],
    *[cli(f"{verb}/{flag}={value}", [verb, flag, value, *extra, "--out", "{out}"],
          f"configuration error: {flag} must be {rule}")
      for verb, extra in (("evolve", []), ("simulate", ["--n-muons", "100"]))
      for flag, value, rule in (("--steps", "0", ">= 1"), ("--t-max-ns", "-1", "finite and > 0"),
                                ("--t-max-ns", "inf", "finite and > 0"))],
    *with_init("init-dimension", "^configuration error: density matrix dimension 4 != "
               "propagator dimension = 6\n$", json.dumps({"real": I4.tolist()}), VERBS, SPIN1),
    *[cli(f"{verb}/spin1-shell", [verb, "--material", SPIN1, "--steps", "4", "--out", "{out}"],
          "requires a two-qubit system") for verb in ("bell", "report")],
    *with_material("single-level", "pass --t-max-ns", ("evolve", "bell", "report"), (), A_MHz=0),
    *[case for j_e in (0.7, 0, -0.5, NAN, INF)
      for case in with_material(f"j_e={j_e}", "j_e must be a positive multiple of 1/2", j_e=j_e)],
    *[case for name, (fields, err) in MATERIAL_ERRORS.items()
      for case in with_material(name, re.escape(err), **fields)],
    *[cli(f"{verb}/B-{name}", [verb, "--B", *fields, "--out", "{out}"], message)
      for verb in ("simulate", "bell", "report")
      for name, fields, message in (("none", [], "expected one argument"),
                                    ("two", ["100", "200"], "unrecognized arguments: 200"))],
    cli("evolve/B-none", ["evolve", "--B", "--out", "{out}"], "expected at least one argument"),
    cli("simulate/half-angle=180", ["simulate", "--half-angle-deg", "180", "--n-muons", "1000",
                                    "--steps", "4", "--out", "{out}"],
        r"detector pair \(0, 1\) has half angle pi.*; wrote .*histograms\.csv",
        leaves=("histograms.csv", "histograms.meta.json")),
    *[cli(f"{verb}/seed", [verb, "--seed", "1"], "unrecognized arguments: --seed 1")
      for verb in ("evolve", "bell", "report")],
    run_reconstruct("reconstruct/deficient", "(?s)rank deficient.*null", flags=()),
    run_reconstruct("reconstruct/hyperfine-deficient", "rank deficient",
                    plan_text("vacuum", 0.0, [0.3, 0.7, 1.1, 1.9, 2.4]),
                    measured("vacuum", 0.0, [0.3, 0.7, 1.1, 1.9, 2.4]), flags=()),
    run_reconstruct("reconstruct/missing-rows", r"file misses sample \(130.0, ",
                    rows=measured()[:-3]),
    *[run_reconstruct(f"reconstruct/{HEADER[column]}={cell}",
                      f"^configuration error: {message}\n$",
                      rows=edited([r[:4] + ["0.01"] for r in measured()], (3, column, cell)))
      for column, cell, message in ((4, "inf", "sigmas must be positive and finite"),
                                    (4, "-inf", "sigmas must be positive and finite"),
                                    (3, "inf", "measurement values must be finite"))],
    run_reconstruct("reconstruct/key-off-in-ninth-digit",
                    re.escape("file misses sample (10.0, 1.570796327, 0.0)"),
                    rows=edited(SIGMAS, (0, 0, repr(10.0 + 1e-8)))),
    run_reconstruct("reconstruct/repeated-read-row",
                    re.escape("measurement file repeats the row (10.0, 1.570796327, 0.0)"),
                    rows=SIGMAS + edited(SIGMAS[:1], (0, 3, "0.9"))),
    run_reconstruct("reconstruct/repeated-unread-row",
                    re.escape("measurement file repeats the row (999.0, 0.0, 0.0)"),
                    rows=SIGMAS + [["999.0", "0.0", "0.0", "0.5", ""]] * 2),
    run_reconstruct("reconstruct/empty-w_plus",
                    re.escape("measurement file has no w_plus for (10.0, 0.0, 0.0)"),
                    rows=edited(measured(), (2, 3, ""))),
    *[run_reconstruct(f"reconstruct/time={bad}", f"time {bad!r} must be finite",
                      plan_text(times=[bad, *TIMES[1:]])) for bad in (NAN, INF)],
    run_reconstruct("reconstruct/direction-nan",
                    re.escape("direction (theta, phi) = (nan, 0.0) must be finite"),
                    plan_text(directions=[[NAN, 0.0], "y", "z"])),
    *[run_reconstruct(f"reconstruct/direction={entry}", re.escape(f"cannot parse axis {entry!r}"),
                      plan_text(directions=["x", entry, "z"]))
      for entry in ([1.0], ["a", 0.0], [1, 2, 3])],
    # JSON values of the wrong type, named by their field
    *[run_reconstruct(f"reconstruct/{name}", re.escape(err), plan)
      for name, plan, err in (
          ("B-string", plan_text(b="100"), "B must be a JSON number, got '100'"),
          ("B-null", plan_text(b=None), "B must be a JSON number, got None"),
          ("B-boolean", plan_text(b=True), "B must be a JSON number, got True"),
          ("times-number", plan_text(times=5), "times_ns must be an array of JSON numbers, got 5"),
          ("times-string", plan_text(times="12"),
           "times_ns must be an array of JSON numbers, got '12'"),
          ("time-string", plan_text(times=[10.0, "25"]),
           "times_ns must be an array of JSON numbers, got [10.0, '25']"),
          ("directions-string", plan_text(directions="xz"),
           "directions must be an array, got 'xz'"),
          ("times-and-directions-strings", plan_text(times="12", directions="xz"),
           "directions must be an array, got 'xz'"),
          ("material-number", plan_text(material=5), "material must be a string, got 5"),
          ("plan-array", f"[{plan_text()}]", "a plan must hold a JSON object, got [{"))],
    *with_init("init-array", re.escape("an --init file must hold a JSON object, got [1, 2]"),
               "[1, 2]"),
    *with_init("init-number", "an --init file must hold a JSON object, got 5", "5"),
    *with_init("init-imag-string", "imag must be a JSON number or nested arrays of numbers, "
               "got 'x'", json.dumps({"real": (np.eye(4) / 4).tolist(), "imag": "x"})),
    cli("evolve/material-array", ["evolve", "--material", "{tmp}/custom.json", "--out", "{out}"],
        re.escape("a material file must hold a JSON object, got [1]"), {"custom.json": "[1]"}),
]


@pytest.mark.parametrize("argv, files, code, err, leaves", CLI)
def test_cli_rejects(argv, files, code, err, leaves, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    try:
        rc = main([arg.replace("{tmp}", str(tmp_path)).replace("{out}", str(out))
                   for arg in argv])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    assert rc == code
    assert re.search(err, capsys.readouterr().err)
    assert (sorted(p.name for p in out.iterdir()) == leaves) if leaves else not out.exists()
