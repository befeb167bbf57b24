"""Benchmark of musrtomo: run one workload and print every metric.

    python3 perfbench/run.py --workload sweep|decay|tomo --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each run is one process that executes whole passes over the
workload's seeded job list (a closed loop, one job at a time) until
``--seconds`` have elapsed and at least the workload's minimum number of
passes is done. Every job's output is checked; the last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (see RUN_RECORD.md);
``setup_s`` is the median over fresh interpreters, started between passes
and spread over the run, of importing the package plus the first job of
each kind. With ``--trace 1`` the run makes one plain pass and then one pass
under the per-layer tracer and reports per-layer counters and times instead.
Metric units are those of BENCHMARK.json.

``correct`` is false when any job's output fails its check, or when a job
raises or exits nonzero, unless that is the error ``workloads.KNOWN_ERRORS``
expects of its kind.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# BLAS runs on one thread, in this process and in the set-up probes, which
# inherit the setting; it must be made before numpy loads the library. A
# second thread bought no time on any workload and made the M3/M4 star
# products about three times slower, by an amount that swings with the
# machine's load (RUN_RECORD.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("cli", "materials", "linalg", "tomography", "twospin", "entanglement",
          "dynamics", "musr", "reconstruction")
SETUP_SAMPLES = 5
UNITS = {m["name"]: m["unit"]
         for group in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[group]}


@dataclass
class Record:
    kind: str
    units: int
    seconds: float
    status: str  # ok | error (raised or nonzero exit) | wrong (failed its check)
    detail: str = ""
    bytes_written: int = 0


def execute(job, out: Path, pause=contextlib.nullcontext) -> Record:
    """Run one job into a fresh directory, time it, then check its output
    inside ``pause()`` (the tracer's, so that the check's calls into the
    package are not counted as the program's)."""
    out.mkdir(parents=True)
    start = time.perf_counter()
    try:
        result = job.run(out)
    except Exception as exc:  # a failing job is counted, never fatal
        return Record(job.kind, job.units, time.perf_counter() - start, "error",
                      f"{type(exc).__name__}: {exc}"[:300])
    elapsed = time.perf_counter() - start
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    try:
        with pause():
            job.check(result)
    except workloads.WrongOutput as exc:
        return Record(job.kind, job.units, elapsed, "wrong", str(exc)[:300], written)
    except Exception as exc:  # unreadable or missing output is a wrong output too
        return Record(job.kind, job.units, elapsed, "wrong",
                      f"{type(exc).__name__}: {exc}"[:300], written)
    return Record(job.kind, job.units, elapsed, "ok", "", written)


def run_passes(workload, work: Path, tag: str, seconds: float = 0.0, passes: int = 0,
               pause=contextlib.nullcontext, before_pass=None):
    """Whole passes: exactly ``passes`` if given, else until ``seconds`` have
    elapsed and the workload's minimum is met. ``before_pass(elapsed)`` is
    called before each pass. Returns (records, passes, wall)."""
    records, done, start = [], 0, time.perf_counter()
    while (done < passes) if passes else (
            done < workload.min_passes or time.perf_counter() - start < seconds):
        if before_pass is not None:
            before_pass(time.perf_counter() - start)
        for i, job in enumerate(workload.jobs):
            records.append(execute(job, work / f"{tag}{done}" / f"job{i}", pause))
        done += 1
    return records, done, time.perf_counter() - start


def probe_setup(workload: str, work: Path) -> float:
    """Set-up seconds of one fresh interpreter (see probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(work)],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["import_s"] + sample["warmup_s"]


def blas_threads():
    """OpenBLAS thread count of this process; None if the BLAS is not
    OpenBLAS."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_int
                    return get()
    return None


def machine_facts() -> dict:
    import platform
    nproc = len(os.sched_getaffinity(0))
    cpu, l3 = platform.processor(), None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "cpu": cpu, "l3": l3,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "musrtomo").rglob("*.py"))


def summarize(records) -> None:
    kinds = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r)
    for kind, recs in sorted(kinds.items()):
        ok = [r.seconds * 1e3 for r in recs if r.status == "ok"]
        med = f"{statistics.median(ok):.1f} ms" if ok else "-"
        print(f"  {kind:24s} jobs {len(recs):4d}  ok {len(ok):4d}  median {med}")
        failed = [r for r in recs if r.status != "ok"]
        if failed:
            print(f"    {len(failed)} failed, first: {failed[0].status}: {failed[0].detail}")


def end_to_end(workload, records, setup: list) -> dict:
    """Each job runs once per pass; its typical time is its median over the
    passes, so that a slow spell of the machine during one pass does not
    count. Throughput is the successful work of a pass over the sum of its
    jobs' typical times, and the median latency is taken over the successful
    jobs' typical times. The tail is taken over every successful execution:
    the highest percentile with at least ten executions beyond it."""
    n = len(workload.jobs)
    per_job = [records[i::n] for i in range(n)]
    pass_s = sum(statistics.median(r.seconds for r in recs) for recs in per_job)
    pass_units = sum(recs[0].units * sum(r.status == "ok" for r in recs) / len(recs)
                     for recs in per_job)
    typical = [statistics.median(r.seconds * 1e3 for r in recs if r.status == "ok")
               for recs in per_job if any(r.status == "ok" for r in recs)] or [0.0]
    executions = sorted(r.seconds * 1e3 for r in records if r.status == "ok") or [0.0]
    rank = max(len(executions) - 11, 0)  # ten executions lie beyond this one
    pct = 100.0 * rank / max(len(executions) - 1, 1)
    each = [sum(r.units for r in records[k:k + n] if r.status == "ok")
            / sum(r.seconds for r in records[k:k + n]) for k in range(0, len(records), n)]
    print(f"throughput in {workload.unit}/s over a typical pass of {pass_s:.2f} s "
          f"(per pass: {', '.join(f'{x:.4g}' for x in each)}); "
          f"tail p{pct:.1f} of {len(executions)} executions; "
          f"set-up samples {[round(x, 3) for x in setup]}")
    return {
        "setup_s": statistics.median(setup),
        "throughput": pass_units / pass_s,
        "job_p50_ms": statistics.median(typical),
        "job_tail_ms": executions[rank],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def per_layer(workload, work: Path) -> tuple:
    """One plain pass, then the same pass traced. Returns (metrics, records)."""
    import tracer as tracing
    cpu = cpu_seconds()
    plain, _, plain_wall = run_passes(workload, work, "plain", passes=1)
    cpu = cpu_seconds() - cpu
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _, traced_wall = run_passes(workload, work, "traced", passes=1,
                                            pause=tracer.paused)
    finally:
        tracer.uninstall()
    values, absent = tracer.metrics(LAYERS)
    records = plain + traced
    values.update({
        "cli.bytes_written": sum(r.bytes_written for r in traced),
        "process.cpu_s": cpu,
        "src.lines": src_lines(),
        "trace.overhead_frac": traced_wall / plain_wall - 1,
        "failed_frac": sum(r.status != "ok" for r in records) / len(records),
    })
    top = sorted(tracer.fn_self_s.items(), key=lambda kv: -kv[1])[:8]
    print(f"plain pass {plain_wall:.2f} s, traced pass {traced_wall:.2f} s; "
          f"process cpu {cpu:.2f} s over the plain pass")
    print("largest self times: " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    if absent:
        print("absent (reported as 0): " + ", ".join(absent))
    return values, records


def expected_error(record: Record) -> bool:
    """The error that this version of the program is known to give on the
    job's kind (workloads.KNOWN_ERRORS)."""
    known = workloads.KNOWN_ERRORS.get(record.kind)
    return record.status == "error" and known is not None and record.detail.startswith(known)


def run(args, work: Path) -> dict:
    import musrtomo
    if not Path(musrtomo.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"musrtomo imported from {musrtomo.__file__}, not {SRC}")
    print("machine: " + json.dumps(machine_facts()))
    workload = workloads.build(args.workload, args.seed, work / "inputs")
    for i, job in enumerate(workload.warmup):
        execute(job, work / "warmup" / f"job{i}")
    if args.trace:
        metrics, records = per_layer(workload, work)
    else:
        setup = []

        def probe_due(elapsed: float) -> None:
            # The set-up probes are spread over the run, between passes: the
            # machine's speed drifts over tens of seconds, and probes taken
            # one after another would all see the same spell of it.
            if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * args.seconds / SETUP_SAMPLES:
                setup.append(probe_setup(args.workload, work / f"probe{len(setup)}"))

        records, passes, wall = run_passes(workload, work, "pass", seconds=args.seconds,
                                           before_pass=probe_due)
        while len(setup) < SETUP_SAMPLES:
            setup.append(probe_setup(args.workload, work / f"probe{len(setup)}"))
        print(f"workload {args.workload} seed {args.seed}: {passes} passes of "
              f"{len(workload.jobs)} jobs in {wall:.2f} s")
        metrics = end_to_end(workload, records, setup)
    summarize(records)
    return {
        "correct": all(r.status == "ok" or expected_error(r) for r in records)
                   and any(r.status == "ok" for r in records),
        "attempted": len(records),
        "failed": sum(r.status != "ok" for r in records),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "musrtomo" / "__init__.py").is_file():
        print(f"error: no musrtomo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
