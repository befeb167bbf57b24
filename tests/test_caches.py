"""Every cached table of the package hands out read-only arrays: one caller
cannot change what the next one reads."""

import ast
from pathlib import Path

import numpy as np
import pytest

import musrtomo
from musrtomo import dynamics, entanglement, tomography
from musrtomo.dynamics import HamiltonianSpec, PropagatorSpec
from musrtomo.musr import DetectorGeometry
from musrtomo.tomography import X_AXIS, Z_AXIS, QuadratureGrid

GRID = QuadratureGrid.of_degree(4)

# one call per cache of src/, by the name of the cached function or property
CACHED = {
    "_grid_arrays": lambda: tomography._grid_arrays(4),
    "rotations": lambda: tomography.rotations(1.0, GRID),
    "_jy_eigensystem": lambda: tomography._jy_eigensystem(1.0),
    "_quantizer_kernels": lambda: tomography._quantizer_kernels(1.0),
    "_grid_tables": lambda: tomography._grid_tables(1.0, GRID),
    "_spin_operators": lambda: dynamics._spin_operators(1.0),
    "_kernel_tensor": lambda: entanglement._kernel_tensor(QuadratureGrid.of_degree(2)),
    "_region_table": lambda: DetectorGeometry.opposing_pairs([Z_AXIS, X_AXIS], 1.2).regions(),
    "_eigensystem": lambda: PropagatorSpec(
        HamiltonianSpec(1.0, delta_a=0.3, aniso_axis=X_AXIS))._eigensystem,
}
# caches that hold no array of their own: an int (spin_dim), a frozen grid
# whose arrays are _grid_arrays' (of_degree), the argument parser
# (build_parser), and a MuonSpinTable, which marks its own arrays read-only
# (spectral_table)
EXEMPT = {"spin_dim", "of_degree", "build_parser", "spectral_table"}
CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}


def arrays(value) -> list:
    """Every ndarray in a cached value, through nested tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    return [a for item in value for a in arrays(item)]


@pytest.mark.parametrize("name", sorted(CACHED))
def test_cached_arrays_are_read_only(name):
    held = arrays(CACHED[name]())
    assert held
    assert [a.flags.writeable for a in held] == [False] * len(held)
    with pytest.raises(ValueError, match="read-only"):
        held[0].flat[0] = 0


def test_every_cache_is_checked_or_exempt():
    """An ast guard: every function or property of src/ decorated with
    lru_cache, functools.cache or cached_property is in CACHED or EXEMPT, so
    a new cache must join the read-only test or be named as an exemption."""
    found = set()
    for path in sorted(Path(musrtomo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if (dec.attr if isinstance(dec, ast.Attribute) else dec.id) in CACHE_DECORATORS:
                    found.add(node.name)
    assert found == set(CACHED) | EXEMPT
