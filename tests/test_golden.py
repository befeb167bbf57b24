"""Every CLI output, byte for byte, against tests/golden/ (see its regen.py)."""

import csv
import json
import math

import pytest

from golden.regen import CASES, GOLDEN, run_case


def _cells(name: str, text: str) -> dict:
    """Cell label -> cell text: CSV by row and header, JSON by path, any
    other file by line and whitespace-separated token."""
    if name.endswith(".csv"):
        rows = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
        header = rows[0] if rows else []
        return {f"row {i} column {col}": cell for i, row in enumerate(rows[1:], 1)
                for col, cell in zip(header, row)}
    if name.endswith(".json"):
        def walk(node, path):
            items = node.items() if isinstance(node, dict) else \
                enumerate(node) if isinstance(node, list) else None
            if items is None:
                yield path or "<root>", repr(node)
            else:
                for key, child in items:
                    yield from walk(child, f"{path}[{key!r}]")
        return dict(walk(json.loads(text), ""))
    return {f"line {i} token {k}": token for i, line in enumerate(text.splitlines(), 1)
            for k, token in enumerate(line.split(), 1)}


def first_difference(name: str, got: str, want: str) -> str:
    """The first differing cell of two texts and the largest numeric difference."""
    a, b = _cells(name, got), _cells(name, want)
    labels = list(dict.fromkeys([*b, *a]))
    first = next((k for k in labels if a.get(k) != b.get(k)), None)
    if first is None:
        return f"{name}: the bytes differ outside the cells"
    largest = 0.0
    for label in labels:
        try:
            diff = abs(float(a[label]) - float(b[label]))
        except (KeyError, ValueError):
            continue
        if not math.isnan(diff):
            largest = max(largest, diff)
    return (f"{name}: first difference at {first}: got {a.get(first)!r}, "
            f"want {b.get(first)!r}; largest numeric difference {largest:.3g}")


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_golden(case, tmp_path):
    out = tmp_path / case
    run_case(case, out)
    names = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for fname in names:
        got, want = (out / fname).read_bytes(), (GOLDEN / case / fname).read_bytes()
        assert got == want, first_difference(fname, got.decode(), want.decode())
