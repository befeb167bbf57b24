"""The input checks of ``linalg`` against reference checks that state each
rule on its own, as the package wrote them before the checks became a handful
of numpy calls: ``require_density_matrix``, ``require_unitary`` and the
probability-table rules of ``SpinTomogram`` and ``TwoSpinTomogram``. Each
check accepts exactly what its reference accepts and rejects the rest with
the reference's message fragment, except for two changes to the two-spin
table: it gains the upper bound 1 + 1e-12, and an infinite entry is named as
a value outside [0, 1] rather than as a wrong sum."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_density_matrix, random_unitary
from musrtomo.linalg import require_density_matrix, require_unitary
from musrtomo.tomography import QuadratureGrid, SpinTomogram
from musrtomo.twospin import TwoSpinTomogram

# --------------------------------------------------------------------------
# reference checks


def _ref_stack(m):
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise ValueError("expected a 2-d array")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _ref_squared_norms(m):
    return np.einsum("...ij,...ij->...", m.conj(), m).real


def ref_density_matrix(rho):
    rho = _ref_stack(rho)
    if rho.shape[-1] != rho.shape[-2]:
        raise ValueError("density matrix must be square")
    defects = _ref_squared_norms(rho - rho.conj().swapaxes(-1, -2))
    if (defects > 1e-20).any() and \
            (defects > 1e-20 * np.maximum(_ref_squared_norms(rho), 1.0)).any():
        raise ValueError("density matrix is not Hermitian")
    traces = rho.diagonal(0, -2, -1).sum(-1)
    errors = np.abs(traces - 1.0)
    if (errors > 1e-10).any():
        raise ValueError(f"density matrix trace {traces.flat[errors.argmax()]} != 1")
    return rho


def ref_unitary(u):
    u = _ref_stack(u)
    if u.shape[-1] != u.shape[-2]:
        raise ValueError(f"unitary must be a square matrix, got shape {u.shape}")
    d = u.shape[-1]
    defects = np.linalg.norm(u @ u.conj().swapaxes(-1, -2) - np.eye(d), axis=(-2, -1))
    if np.any(defects > 1e-10 * d):
        raise ValueError("evolution operator is not unitary")
    return u


def ref_spin_table(values):
    if not (values.min() >= -1e-12 and values.max() <= 1 + 1e-12):  # NaN fails
        raise ValueError("tomogram values outside [0, 1]")
    if np.abs(values.sum(axis=0) - 1.0).max() > 1e-10:
        raise ValueError("tomogram columns must each sum to 1")


def ref_two_spin_table(values):
    if np.abs(values.sum(axis=(0, 2)) - 1.0).max() > 1e-10:
        raise ValueError("joint probabilities must sum to 1 per direction pair")
    if not values.min() >= -1e-12:  # NaN fails too
        raise ValueError("negative or missing joint probabilities")


# the matrix checks keep their messages; a table's message keeps its fragment
FRAGMENTS = ("negative or missing joint probabilities", "tomogram values outside", "sum to 1")


def message(check, x):
    """The ValueError message of ``check(x)``, or None when it accepts x."""
    try:
        check(x.copy())
    except ValueError as exc:
        return str(exc)
    return None


def fragment(text):
    if text is None:
        return None
    found = [f for f in FRAGMENTS if f in text]
    assert found, text
    return found[0]


# --------------------------------------------------------------------------
# matrices and stacks

NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


@st.composite
def perturbed_matrices(draw, build, kinds):
    """(kind, factor, d, target, array): one matrix or a stack of 3 from
    ``build(rng, d)``, d = 2, 4 or 6. A non-finite entry is set here in the
    matrix or the stack's middle slice, ``target``; the caller perturbs
    ``target`` by ``factor`` (+-0.9 or +-1.1) times a bound."""
    d = draw(st.sampled_from([2, 4, 6]))
    stacked = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.array([build(rng, d) for _ in range(3 if stacked else 1)])
    kind = draw(st.sampled_from(["none", "nan", "inf", "-inf", "non-square", *kinds]))
    factor = draw(st.sampled_from([0.9, 1.1, -0.9, -1.1]))
    target = a[len(a) // 2]
    if kind in NON_FINITE:
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        x = target[i, j]
        target[i, j] = complex(NON_FINITE[kind], x.imag) if draw(st.booleans()) \
            else complex(x.real, NON_FINITE[kind])
    elif kind == "non-square":
        a = a[..., :-1]
    return kind, factor, d, target, (a if stacked else a[0])


def hermitian_unit_trace(rng, d):
    """A Hermitian matrix of unit trace: a state, or a state plus a traceless
    Hermitian matrix, |rho|_F of several, so that the Hermitian bound
    1e-10 max(|rho|_F, 1) scales."""
    rho = random_density_matrix(d, rng)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = g + g.conj().T
    h -= np.trace(h) / d * np.eye(d)
    rho = rho + rng.choice([0.0, 1.0]) * h
    return (rho + rho.conj().T) / 2


@given(case=perturbed_matrices(hermitian_unit_trace, ["defect", "trace"]))
@settings(deadline=None, max_examples=300)
def test_density_matrix_check_matches_the_reference(case):
    kind, factor, d, target, rho = case
    if kind == "defect":
        # i delta (E_01 - E_10) in rho - rho^dag: norm sqrt(2) delta
        bound = 1e-10 * max(np.linalg.norm(target), 1.0)
        target[0, 1] += 1j * factor * bound / np.sqrt(2)
    elif kind == "trace":
        target[d - 1, d - 1] += factor * 1e-10
    want = message(ref_density_matrix, rho)
    assert message(require_density_matrix, rho) == want
    if kind in ("defect", "trace"):
        assert (want is None) == (abs(factor) < 1)


@given(case=perturbed_matrices(random_unitary, ["defect"]))
@settings(deadline=None, max_examples=300)
def test_unitary_check_matches_the_reference(case):
    kind, factor, d, target, u = case
    if kind == "defect":
        # sqrt(1 + e) U gives U U^dag - I = e I, of norm |e| sqrt(d)
        target *= np.sqrt(1 + factor * 1e-10 * np.sqrt(d))
    want = message(ref_unitary, u)
    assert message(require_unitary, u) == want
    if kind == "defect":
        assert (want is None) == (abs(factor) < 1)


# --------------------------------------------------------------------------
# probability tables

TABLES = {
    "spin": (ref_spin_table, (0,), lambda v: SpinTomogram(
        1.0, QuadratureGrid.for_spin(1.0), v)),
    "two-spin": (ref_two_spin_table, (0, 2), lambda v: TwoSpinTomogram(
        0.5, 0.5, QuadratureGrid.for_spin(0.5), QuadratureGrid.for_spin(0.5), v)),
}


def state_table(name, rng):
    if name == "spin":
        return SpinTomogram.from_state(random_density_matrix(3, rng), 1.0).values.copy()
    return TwoSpinTomogram.from_state(random_density_matrix(4, rng), 0.5, 0.5).values.copy()


def group(values, sum_axes, flat_at):
    """Index arrays of the sum group (one node or node pair) of the entry at
    flat index ``flat_at``: the entries that one sum over ``sum_axes`` adds."""
    at = np.unravel_index(flat_at, values.shape)
    ranges = [np.arange(n) if axis in sum_axes else [at[axis]]
              for axis, n in enumerate(values.shape)]
    return tuple(ix.ravel() for ix in np.meshgrid(*ranges, indexing="ij"))


@given(name=st.sampled_from(sorted(TABLES)), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["none", "nan", "inf", "-inf", "below", "above", "sum+", "sum-"]),
       factor=st.sampled_from([0.9, 1.1]), data=st.data())
@settings(deadline=None, max_examples=300)
def test_probability_rules_match_the_reference(name, seed, kind, factor, data):
    ref, sum_axes, build = TABLES[name]
    values = state_table(name, np.random.default_rng(seed))
    at = data.draw(st.integers(0, values.size - 1))
    members = group(values, sum_axes, at)
    entries = values[members]
    flat = values.reshape(-1)
    if kind in NON_FINITE:
        flat[at] = NON_FINITE[kind]
    elif kind == "below":
        # the entry drops to -factor 1e-12, another of its group takes the rest
        others = np.ravel_multi_index(members, values.shape)
        other = others[others != at][0]
        flat[other] += flat[at] + factor * 1e-12
        flat[at] = -factor * 1e-12
    elif kind == "above":
        values[members] = 0.0
        flat[at] = 1 + factor * 1e-12
    else:
        # the largest (smallest) entry of the group moves by -(+) factor 1e-10
        pick = entries.argmax() if kind == "sum-" else entries.argmin()
        values[tuple(ix[pick] for ix in members)] += (-1 if kind == "sum-" else 1) \
            * factor * 1e-10
    want = fragment(message(ref, values))
    got = fragment(message(build, values))
    if name == "two-spin" and kind == "above" and factor > 1:
        # the upper bound is new to the two-spin table
        assert (want, got) == (None, "negative or missing joint probabilities")
    elif name == "two-spin" and kind in ("inf", "-inf"):
        # the reference tested the sums first, and an infinite entry spoils one
        assert (want, got) == ("sum to 1", "negative or missing joint probabilities")
    else:
        assert got == want
    if kind in ("below", "sum+", "sum-"):
        assert (got is None) == (factor < 1)


# --------------------------------------------------------------------------
# every bound pinned: a defect of 0.9 times the bound is accepted here, one of
# 1.1 times it is refused in tests/test_boundaries.py (BOUNDS)

BASES = [np.diag([0.7, 0.3]).astype(complex), np.diag([3.0, -2.0]).astype(complex)]


def density_at(bound, base, stacked, factor):
    """A unit-trace state (|rho|_F < 1) or a unit-trace Hermitian matrix
    (|rho|_F = sqrt(13)) whose Hermitian defect is factor 1e-10 max(|rho|_F, 1)
    (rho[0, 1] = i delta: norm sqrt(2) delta), or whose trace is off by
    factor 1e-10; checked alone or between two clean states of a stack."""
    rho = BASES[base].copy()
    if bound == "hermitian":
        rho[0, 1] = 1j * factor * 1e-10 * max(np.linalg.norm(rho), 1.0) / np.sqrt(2)
    else:
        rho[1, 1] += factor * 1e-10
    return require_density_matrix(np.array([np.eye(2) / 2, rho, np.eye(2) / 2]) if stacked
                                  else rho)


def unitary_at(d, stacked, factor):
    """sqrt(1 + e) I, so that U U^dag - I = e I has the norm factor 1e-10 d;
    checked alone or between two identities of a stack."""
    u = np.sqrt(1 + factor * 1e-10 * np.sqrt(d)) * np.eye(d)
    return require_unitary(np.array([np.eye(d), u, np.eye(d)]) if stacked else u)


def table_at(name, bound, factor):
    """A valid table, 1/2 on the first and the last projection (pair) of
    each node (pair), with one entry at factor times the lower or upper
    bound, or one node's sum off by factor 1e-10."""
    if name == "spin":
        values = np.zeros((3, QuadratureGrid.for_spin(1.0).n_nodes))
        values[0] = values[-1] = 0.5
        half, other_half, empty = (0, 5), (2, 5), (1, 5)
    else:
        n = QuadratureGrid.for_spin(0.5).n_nodes
        values = np.zeros((2, n, 2, n))
        values[0, :, 0, :] = values[1, :, 1, :] = 0.5
        half, other_half, empty = (0, 5, 0, 7), (1, 5, 1, 7), (0, 5, 1, 7)
    if bound == "lower":
        values[empty] = -factor * 1e-12
    elif bound == "upper":
        values[half], values[other_half] = 1 + factor * 1e-12, 0.0
    else:
        values[half] += (1 if bound == "sum above" else -1) * factor * 1e-10
    return TABLES[name][2](values)


RANGE_FRAGMENT = {"spin": "tomogram values outside",
                  "two-spin": "negative or missing joint probabilities"}
# (name, builder of the input at a factor of its bound, message of a refusal)
BOUNDS = [
    *[(f"density-{bound}/{base}/{'stack' if stacked else 'matrix'}/{sign}",
       lambda f, b=bound, i=base, s=stacked, sign=sign: density_at(b, i, s, sign * f), message)
      for bound, message, signs in (("hermitian", "not Hermitian", (1,)),
                                    ("trace", "trace", (1, -1)))
      for base in range(len(BASES)) for stacked in (False, True) for sign in signs],
    *[(f"unitary/{d}/{'stack' if stacked else 'matrix'}",
       lambda f, d=d, s=stacked: unitary_at(d, s, f), "not unitary")
      for d in (2, 4, 6) for stacked in (False, True)],
    *[(f"{name}-table/{bound}", lambda f, n=name, b=bound: table_at(n, b, f),
       "sum to 1" if bound.startswith("sum") else RANGE_FRAGMENT[name])
      for name in sorted(TABLES) for bound in ("lower", "upper", "sum above", "sum below")],
]


@pytest.mark.parametrize("build", [b for _, b, _ in BOUNDS], ids=[n for n, _, _ in BOUNDS])
def test_within_a_bound_is_accepted(build):
    build(0.9)
