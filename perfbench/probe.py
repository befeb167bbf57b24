"""Set-up probe for one fresh interpreter.

    python3 perfbench/probe.py <workload> <work dir>

Times the import of musrtomo and musrtomo.cli, then the first job of each
kind of the workload (which fills lazy caches), and prints one JSON line
{"import_s": ..., "warmup_s": ...}. The jobs' inputs come from the fixed
``workloads.SETUP_SEED``, so that set-up time does not depend on the run's
seed. Building the job list is not timed.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import musrtomo  # noqa: E402,F401
import musrtomo.cli  # noqa: E402,F401

import_s = time.perf_counter() - start

import workloads  # noqa: E402


def main() -> None:
    name, work = sys.argv[1], Path(sys.argv[2])
    workload = workloads.build(name, workloads.SETUP_SEED, work / "inputs")
    start = time.perf_counter()
    for i, job in enumerate(workload.warmup):
        out = work / f"job{i}"
        out.mkdir(parents=True)
        try:
            job.run(out)
        except Exception:  # a failing first job still costs its time
            pass
    print(json.dumps({"import_s": import_s, "warmup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
