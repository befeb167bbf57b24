"""Negative control for the benchmark's output checks.

    python3 perfbench/selftest.py

Runs a few jobs of each workload untouched, then again with their outputs
corrupted after the program wrote them, and asserts that every corrupted job
counts as failed with a wrong output, so that ``failed_frac`` rises. Then it
makes the program raise and asserts that those jobs fail with an error that
is not an expected one, so that a run would not be ``correct``, while the
known ``evolve-file`` defect is expected. Exits nonzero on the first broken
expectation. Not part of the unit-test suite: it runs real jobs for a few
seconds.
"""

import csv
import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import musrtomo  # noqa: E402
import musrtomo.cli  # noqa: E402

import workloads  # noqa: E402


def failed_frac(jobs, work: Path) -> tuple:
    records = [run.execute(job, work / f"job{i}") for i, job in enumerate(jobs)]
    return sum(r.status != "ok" for r in records) / len(records), records


def shift_column(path: Path, column: str, delta: float) -> None:
    """Add delta to one column of every data row of a CSV file."""
    lines = path.read_text().splitlines(keepends=True)
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    for row in rows:
        row[column] = repr(float(row[column]) + delta)
    with open(path, "w", newline="") as fh:
        fh.writelines(comments)
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def corrupting_main(real_main):
    """cli.main that corrupts what evolve and simulate wrote."""
    def main(argv):
        rc = real_main(argv)
        out = Path(argv[argv.index("--out") + 1])
        if argv[0] == "evolve":
            for path in out.rglob("*.csv"):
                shift_column(path, "w_reduced", 1e-6)
        if argv[0] == "simulate":
            shift_column(out / "tomogram_estimate.csv", "w_plus", 0.1)
        return rc
    return main


def main() -> int:
    sweep = workloads.sweep(0).warmup
    jobs = [next(j for j in sweep if j.kind == "evolve"),
            next(j for j in workloads.tomo(0).warmup if j.kind == "spin-1")]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=run.ROOT))
    try:
        decay = workloads.decay(0, work / "inputs").warmup
        jobs.append(min(decay, key=lambda j: j.units))
        clean, records = failed_frac(jobs, work / "clean")
        assert clean == 0.0, [r.detail for r in records]

        real_cli, real_reconstruct = musrtomo.cli.main, musrtomo.reconstruct_from_sphere
        musrtomo.cli.main = corrupting_main(real_cli)
        musrtomo.reconstruct_from_sphere = lambda tom: real_reconstruct(tom) + 1e-9
        try:
            corrupted, records = failed_frac(jobs, work / "corrupted")
        finally:
            musrtomo.cli.main, musrtomo.reconstruct_from_sphere = real_cli, real_reconstruct
        assert corrupted == 1.0, [(r.kind, r.status, r.detail) for r in records]
        assert all(r.status == "wrong" for r in records), [r.status for r in records]
        for r in records:
            print(f"{r.kind}: {r.status}: {r.detail}")
        print(f"failed_frac clean {clean:.2f}, corrupted {corrupted:.2f}")

        def broken(*args):
            raise RuntimeError("injected failure")

        musrtomo.cli.main, musrtomo.reconstruct_from_sphere = broken, broken
        try:
            raising, records = failed_frac(jobs, work / "raising")
        finally:
            musrtomo.cli.main, musrtomo.reconstruct_from_sphere = real_cli, real_reconstruct
        assert raising == 1.0, [(r.kind, r.status, r.detail) for r in records]
        assert not any(run.expected_error(r) for r in records), [r.detail for r in records]
        known = run.execute(next(j for j in sweep if j.kind == "evolve-file"), work / "known")
        assert known.status == "ok" or run.expected_error(known), known.detail
        print(f"raising jobs: failed_frac {raising:.2f}, none expected; "
              f"evolve-file: {known.status}: {known.detail[:60]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
