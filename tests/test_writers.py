"""Oracles for the CSV and JSON writers: every output is re-emitted through
the standard library (csv.writer, json.dumps with indent=2) and must come
back as the same text, with each number written as the shortest repr of the
value it holds."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from musrtomo.cli import _comparison_json, main
from musrtomo.musr import (AxisEstimate, DetectorGeometry, ESTIMATE_SCHEMA, HistogramSeries,
                           estimate_cells)
from musrtomo.tomography import X_AXIS, Z_AXIS, Direction, csv_text, float_cells

SPIN1 = str(Path(__file__).parent / "fixtures" / "spin1-hyperfine.json")


def restated(cell: str) -> str:
    """The cell as the standard library writes the value it holds: str of an
    int, repr of a float, any other text as it is."""
    try:
        return str(int(cell))
    except ValueError:
        pass
    try:
        return repr(float(cell))
    except ValueError:
        return cell


def csv_oracle(text: str) -> list[list[str]]:
    """Parse a schema-headed CSV with ``csv``, rewrite it with ``csv.writer``
    and assert the same text comes back; returns the parsed rows."""
    schema, body = text.split("\n", 1)
    assert schema.startswith("# schema: musrtomo/")
    rows = list(csv.reader(io.StringIO(body, newline="")))
    buf = io.StringIO()
    csv.writer(buf).writerows([restated(cell) for cell in row] for row in rows)
    assert f"{schema}\n{buf.getvalue()}" == text
    return rows


def row_loop_text(schema: str, header: list, rows) -> str:
    """The reference layout: csv.writer over whole rows under a schema line."""
    buf = io.StringIO()
    buf.write(f"# schema: {schema}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read(path: Path) -> str:
    """The file's text with its line ends as written."""
    return path.read_bytes().decode()


def json_oracle(text: str):
    data = json.loads(text)
    assert json.dumps(data, indent=2) == text
    return data


class TestHelpers:
    def test_csv_text_is_csv_writer_layout(self):
        columns = [["0", "1", "2"], ["nan", "-inf", "1e-05"], ["", "x", "0.1"]]
        buf = io.StringIO()
        buf.write("# schema: musrtomo/test/v1\n")
        csv.writer(buf).writerows([["a", "b", "c"], *zip(*columns)])
        assert csv_text("musrtomo/test/v1", dict(zip("abc", columns))) == buf.getvalue()

    def test_csv_text_without_rows(self):
        text = csv_text("musrtomo/test/v1", {"a": [], "b": []})
        assert text == "# schema: musrtomo/test/v1\na,b\r\n"
        assert csv_oracle(text) == [["a", "b"]]

    def test_csv_text_rejects_unequal_columns(self):
        with pytest.raises(ValueError):
            csv_text("musrtomo/test/v1", {"a": ["1", "2"], "b": ["3"]})

    def test_float_cells(self):
        values = np.array([[0.1, -0.0], [np.nan, 1e300]])
        assert float_cells(values) == ["0.1", "-0.0", "nan", "1e+300"]
        assert float_cells([1, 2], 3) == ["1.0"] * 3 + ["2.0"] * 3
        assert float_cells(np.pi / 2, 2) == [repr(np.pi / 2)] * 2


def estimates_csv(estimates) -> str:
    """The tomogram-estimate CSV as ``simulate`` writes it."""
    return csv_text(ESTIMATE_SCHEMA, estimate_cells(estimates))


class TestSimulateWriters:
    def test_histograms_match_the_row_loop(self):
        geometry = DetectorGeometry.opposing_pairs([Z_AXIS, X_AXIS], np.radians(70))
        edges = np.linspace(0.0, 6591.0, 9)
        counts = np.arange(4 * 8).reshape(4, 8) * 37
        hist = HistogramSeries(edges, counts, n_muons=10_000, background_fraction=0.0)
        want = row_loop_text(
            "musrtomo/histograms/v1",
            ["detector_id", "axis_theta", "axis_phi", "bin_start_ns", "bin_end_ns", "counts"],
            ([d, repr(det.axis.theta), repr(det.axis.phi), repr(float(edges[b])),
              repr(float(edges[b + 1])), int(counts[d, b])]
             for d, det in enumerate(geometry.detectors) for b in range(8)))
        assert hist.to_csv(geometry) == want
        csv_oracle(want)

    def test_estimates_match_the_row_loop(self):
        rng = np.random.default_rng(4)
        times = np.linspace(10.0, 6000.0, 6)
        ests = [AxisEstimate(axis=axis, times=times, w_plus=rng.random(6),
                             sigma=rng.random(6) / 10, pair_counts=rng.integers(0, 999, 6),
                             low_confidence=rng.random(6) < 0.3)
                for axis in (Z_AXIS, X_AXIS, Direction.from_vector([0.6, 0.0, 0.8]))]
        want = row_loop_text(
            "musrtomo/tomogram-estimate/v1",
            ["axis_theta", "axis_phi", "t_ns", "w_plus", "sigma", "pair_counts",
             "low_confidence"],
            ([repr(est.axis.theta), repr(est.axis.phi), repr(float(t)),
              repr(float(est.w_plus[i])), repr(float(est.sigma[i])),
              repr(float(est.pair_counts[i])), int(est.low_confidence[i])]
             for est in ests for i, t in enumerate(est.times)))
        assert estimates_csv(ests) == want

    def test_estimates_with_their_own_times(self):
        # each axis keeps its own times when they are separate arrays
        ests = [AxisEstimate(axis=Z_AXIS, times=np.array(ts), w_plus=np.full(2, 0.5),
                             sigma=np.full(2, 0.1), pair_counts=np.array([9, 9]),
                             low_confidence=np.zeros(2, dtype=bool))
                for ts in ([1.0, 2.0], [3.0, 4.5])]
        rows = csv_oracle(estimates_csv(ests))
        assert [row[2] for row in rows[1:]] == ["1.0", "2.0", "3.0", "4.5"]

    def test_low_confidence_cells(self):
        est = [AxisEstimate(axis=axis, times=np.array([1.0, 3.0]),
                            w_plus=np.array([0.9, np.nan]), sigma=np.array([0.01, np.nan]),
                            pair_counts=np.array([500, 7]),
                            low_confidence=np.array([False, True]))
               for axis in (Z_AXIS, X_AXIS)]
        rows = csv_oracle(estimates_csv(est))
        assert rows[1] == ["0.0", "0.0", "1.0", "0.9", "0.01", "500.0", "0"]
        assert rows[2] == ["0.0", "0.0", "3.0", "nan", "nan", "7.0", "1"]
        assert rows[3][:2] == [repr(X_AXIS.theta), "0.0"] and len(rows) == 5


class TestComparisonJson:
    def test_matches_json_dumps(self):
        records = [{"axis": [0.0, 1.5707963267948966], "t_ns": 6.4, "w_estimate": 0.25,
                    "w_truth": 1 / 3, "sigma": 1e-05, "deviation_sigmas": -2.0}] * 2
        columns = [float_cells([r["axis"][0] for r in records]),
                   float_cells([r["axis"][1] for r in records]),
                   *(float_cells([r[key] for r in records])
                     for key in ("t_ns", "w_estimate", "w_truth", "sigma", "deviation_sigmas"))]
        assert _comparison_json(*columns) == json.dumps(records, indent=2)

    def test_non_finite_values(self):
        columns = [float_cells([v]) for v in (0.0, 0.0, 1.0, np.nan, np.inf, -np.inf, np.nan)]
        text = _comparison_json(*columns)
        (record,) = json_oracle(text)
        assert record["w_truth"] == np.inf and record["sigma"] == -np.inf
        assert np.isnan(record["w_estimate"]) and np.isnan(record["deviation_sigmas"])
        assert "NaN" in text and "-Infinity" in text

    def test_empty_report(self):
        assert _comparison_json(*[[]] * 7) == json.dumps([], indent=2) == "[]"


SIMULATE_SETUPS = {
    "vacuum-z": ["--material", "vacuum", "--detectors", "z", "--n-muons", "50000",
                 "--steps", "64"],
    "quartz-zx-background": ["--material", "quartz", "--B", "176", "--detectors", "z+x",
                             "--n-muons", "20000", "--steps", "64", "--background", "0.02"],
    "quartz-zxy-low-confidence": ["--material", "quartz", "--B", "790", "--B-axis", "x",
                                  "--detectors", "z+x+y", "--n-muons", "20000",
                                  "--steps", "24", "--t-max-ns", "6000"],
    "spin1-zxy": ["--material", SPIN1, "--B", "50", "--detectors", "z+x+y",
                  "--n-muons", "100000", "--steps", "64"],
}


class TestCommandWriters:
    @pytest.mark.parametrize("setup", list(SIMULATE_SETUPS))
    def test_simulate(self, setup, tmp_path):
        assert main(["simulate", *SIMULATE_SETUPS[setup], "--seed", "2",
                     "--out", str(tmp_path)]) == 0
        csv_oracle(read(tmp_path / "histograms.csv"))
        json_oracle(read(tmp_path / "histograms.meta.json"))
        header, *rows = csv_oracle(read(tmp_path / "tomogram_estimate.csv"))
        comparison = json_oracle(read(tmp_path / "comparison.json"))
        # one record per kept row of the estimate, in its order and its numbers
        kept = [dict(zip(header, row)) for row in rows if row[-1] == "0"]
        assert [(r["axis"], r["t_ns"], r["w_estimate"], r["sigma"]) for r in comparison] \
            == [([float(k["axis_theta"]), float(k["axis_phi"])], float(k["t_ns"]),
                 float(k["w_plus"]), float(k["sigma"])) for k in kept]
        assert all(r["deviation_sigmas"] == (r["w_estimate"] - r["w_truth"]) / r["sigma"]
                   for r in comparison)
        if setup.endswith("low-confidence"):
            assert len(kept) < len(rows)
            assert all(row[3:5] == ["nan", "nan"] for row in rows if row[-1] == "1")

    @pytest.mark.parametrize("material", ["quartz", "si-mustar", SPIN1])
    def test_evolve(self, material, tmp_path):
        assert main(["evolve", "--material", material, "--B", "0", "100", "--bell",
                     "--steps", "16", "--out", str(tmp_path)]) == 0
        manifest = json_oracle(read(tmp_path / "manifest.json"))
        for name in manifest["files"]:
            header, *rows = csv_oracle(read(tmp_path / name))
            assert header == ["t_ns", "axis", "w_reduced", "E", "negativity", "max_bell"]
            assert [row[1] for row in rows] == ["x", "y", "z"] * 16
            # one instant per three rows: its time and entanglement on each
            per_instant = [row[:1] + row[3:] for row in rows]
            assert per_instant[0::3] == per_instant[1::3] == per_instant[2::3]
            assert len({row[0] for row in rows}) == 16
            # a j_e = 1 shell has a negativity but no E or max_bell
            assert (rows[0][3] == "") == (material == SPIN1)

    def test_bell(self, tmp_path):
        out = tmp_path / "bell.csv"
        assert main(["bell", "--material", "quartz", "--B", "790", "--steps", "16",
                     "--out", str(out)]) == 0
        header, *rows = csv_oracle(read(out))
        assert header == ["t_ns", "max_bell", "E", "negativity"] and len(rows) == 16
