"""One workload in one fresh process: set up, warm up, then measure.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|timed|traced --work-dir DIR --cycles K

Set-up builds and validates the workload's scenarios and runs one untimed,
checked warm-up report per scenario.  Then, by mode:

* ``setup``: stop.
* ``timed``: a closed loop, one caller; the next report starts when the
  previous one returns.  Reports run in whole cycles over the scenarios, in a
  seeded order per cycle, until ``S`` seconds of report time, at least
  ``MIN_TIMED_REPORTS`` reports and at least ``--cycles`` cycles are done.
  No wrapper is installed.
* ``traced``: the same loop for ``S / 2`` untraced, then whole traced cycles
  for ``S / 2`` (at least one) with :class:`tracer.Tracer` installed.

Every report is checked against ``reference.json``.  One JSON object goes to
stdout, with what set-up took: the clock readings (``CLOCK_MONOTONIC``)
``imported`` (the interpreter has started and imported ``gaborop``) and
``built`` (the scenarios are built and validated), and the time of each
warm-up report.  Anything the library prints goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gaborop  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTS, Tracer  # noqa: E402

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

MIN_TIMED_REPORTS = 100   # so that ten samples lie beyond p90


class Tally:
    """Attempted and failed reports, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, job) -> float:
        """Run one report, check it, and return its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            returned = job.call()
        except Exception:
            elapsed = time.perf_counter() - start
            problems = [f"{job.label}: raised\n{traceback.format_exc()}"]
        else:
            elapsed = time.perf_counter() - start
            try:
                problems = reference.check(job.collect(returned), job.ref)
            except Exception:
                problems = [f"{job.label}: output unreadable\n{traceback.format_exc()}"]
        if problems:
            self.failed += 1
            self.problems += problems[: max(0, 20 - len(self.problems))]
        return elapsed


def _cycles(jobs, seed):
    rng = random.Random(f"order-{seed}")
    while True:
        yield rng.sample(jobs, len(jobs))


def timed_phase(cycles, tally, seconds, min_reports, min_cycles):
    """(label, seconds) per report, over whole cycles."""
    samples, busy, done = [], 0.0, 0
    while busy < seconds or len(samples) < min_reports or done < min_cycles:
        for job in next(cycles):
            elapsed = tally.run(job)
            samples.append((job.label, elapsed))
            busy += elapsed
        done += 1
    return samples


def traced_phase(cycles, tally, seconds):
    """Per-cycle layer totals; counts must repeat exactly between cycles."""
    tracer = Tracer()
    tracer.install()
    per_cycle, rows, busy, reports = [], {}, 0.0, 0
    try:
        while busy < seconds or not per_cycle:
            before = tracer.snapshot()
            tracer.record_spans = not per_cycle
            for job in next(cycles):
                tracer.report_label = job.label
                tracer.report_dims = Counter()
                busy += tally.run(job)
                reports += 1
                if not per_cycle:
                    dims = sorted(tracer.report_dims.items(),
                                  key=lambda kv: (isinstance(kv[0], str), kv[0]))
                    rows[job.label] = {"eig_calls": sum(c for _, c in dims),
                                       "eig_dims": {str(d): c for d, c in dims}}
            after = tracer.snapshot()
            per_cycle.append({k: after[k] - before[k] for k in after})
    finally:
        tracer.uninstall()
    exact = [k for k in per_cycle[0] if k.split(".")[-1] in COUNTS + ("family_members",)]
    repeat = all(c[k] == per_cycle[0][k] for c in per_cycle for k in exact)
    mean = {k: (per_cycle[0][k] if k in exact else
                sum(c[k] for c in per_cycle) / len(per_cycle)) for k in per_cycle[0]}
    return {
        "layers": mean,
        "cycles": len(per_cycle),
        "counts_repeat": repeat,
        "reports_per_s": reports / busy,
        "rows": rows,
        "spans": tracer.spans,
        "restored": tracer.restored(),
    }


# ------------------------------------------------------------------ provenance


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None   # a plain checkout: the source digest identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gaborop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


# ------------------------------------------------------------------------ main


def run(args) -> dict:
    if Path(gaborop.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"imported gaborop from {gaborop.__file__}, not {ROOT / 'src'}")
    tally = Tally()
    jobs = workloads.build(args.workload, args.seed, Path(args.work_dir))
    built = time.clock_gettime(time.CLOCK_MONOTONIC)
    # warm-up: caches fill, lazy set-up finishes
    warmup = [(job.label, tally.run(job)) for job in jobs]
    result = {"imported": IMPORTED, "built": built, "warmup": warmup, "cycle_size": len(jobs)}
    if args.mode != "setup":
        cycles = _cycles(jobs, args.seed)
        result["provenance"] = provenance(args.seed)
        if args.mode == "timed":
            result["samples"] = timed_phase(cycles, tally, args.seconds, MIN_TIMED_REPORTS,
                                            args.cycles)
        else:
            result["samples"] = timed_phase(cycles, tally, args.seconds / 2, 0, 0)
            result["trace"] = traced_phase(cycles, tally, args.seconds / 2)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    stdout = sys.stdout
    with contextlib.redirect_stdout(sys.stderr):
        result = run(args)
    stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
