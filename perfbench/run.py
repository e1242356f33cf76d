"""The gaborop benchmark: end-to-end report metrics and per-layer traces.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in fresh processes (``worker.py``), one caller in a
closed loop, without the CLI's thread pool and with one BLAS thread.

``--trace 0`` prints the end-to-end metrics.  Gated (in ``BENCHMARK.json``):
``best_reports_per_s`` (reports per second if each report took the fastest
time seen for its scenario in the workload's first ``BEST_OF_CYCLES`` timed
cycles), ``setup_s`` (process launch until the first report can be timed:
starting the interpreter and importing ``gaborop``, building and validating
the scenarios, one warm-up report per scenario; each of these parts, and
each scenario's warm-up report, counts with its fastest time over
``SETUP_RUNS`` launches) and ``peak_rss_mb``.  Printed and recorded:
``reports_per_s`` (reports per second of report time), ``report_s.p50`` and
``report_s.p90`` (wall time of one report, timed around the public call,
over at least 100 reports).  On a shared machine these three move with the
neighbours' load from run to run; the fastest time per scenario varies far
less.
``--trace 1`` prints the per-layer metrics of one traced process.

Every report is checked against ``reference.json``; ``failed_ratio`` is
printed with the metrics and carried by the ``attempted`` and ``failed``
fields of the result, the last line of stdout.  A full record, with the
provenance block, the per-scenario rows and the spans of one traced cycle,
is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
# Timed cycles the fastest report per scenario is taken over: fixed, so every
# commit's minimum is over as many samples; about --seconds 20 of reports each.
BEST_OF_CYCLES = {"controlled-lattice": 20, "ordinary-large": 50, "cli-mixed": 30}
SETUP_ALLOWANCE_S = 60    # worker time beyond its timed phase: start, set-up, floors
WORKLOADS = ("controlled-lattice", "ordinary-large", "cli-mixed")
LAYER_FIELDS = {"calls": "count", "self_s": "s", "errors": "count",
                "eig_calls": "count", "eig_s": "s", "eig_d3": "D3-computed"}
END_TO_END = {"best_reports_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
DISTRIBUTION = {"reports_per_s": "1/s", "report_s.p50": "s", "report_s.p90": "s"}
PER_LAYER = {**{f"{layer}.{field}": unit for layer in LAYERS
                for field, unit in LAYER_FIELDS.items()},
             "frames.family_members": "count", "trace.overhead_ratio": "ratio"}


def _child_env() -> dict:
    # One BLAS thread (nproc is the ceiling): at D <= 512 a second thread made
    # reports slower and their times less steady on a shared 2-core machine.
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _launch(workload, seed, seconds, mode, work_dir) -> tuple[dict, dict]:
    """Run one worker process; return its result and its set-up phases."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--work-dir", str(work_dir), "--cycles", str(BEST_OF_CYCLES[workload])]
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                              cwd=ROOT, timeout=2 * seconds + SETUP_ALLOWANCE_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{workload} worker ({mode}) timed out after {exc.timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    phases = {"start_s": result["imported"] - launched,
              "build_s": result["built"] - result["imported"],
              **{f"warmup_s/{label}": t for label, t in result["warmup"]}}
    return result, phases


def _rate(samples) -> float:
    return len(samples) / sum(t for _, t in samples)


def best_rate(samples, cycle_size, cycles) -> float:
    """Scenarios per second of their fastest report in the first ``cycles`` cycles."""
    first = samples[:cycles * cycle_size]
    best = [min(ts) for ts in _by_scenario(first).values()]
    return len(best) / sum(best)


def setup_time(setups) -> float:
    """The sum of each set-up part's fastest time over the launches."""
    return sum(min(s[name] for s in setups) for name in setups[0])


def _by_scenario(samples) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for label, t in samples:
        out.setdefault(label, []).append(t)
    return out


def _rows(samples, trace) -> list[dict]:
    times = _by_scenario(samples)
    return [{"scenario": label, "report_s": statistics.median(times.get(label, [0.0])),
             **row} for label, row in trace["rows"].items()]


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Run one workload; return its metrics, check outcome and full record."""
    if trace:
        result, _ = _launch(workload, seed, seconds, "traced", work_dir)
        t = result["trace"]
        metrics = {name: t["layers"][name] for name in PER_LAYER
                   if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = t["reports_per_s"] / _rate(result["samples"])
        attempted, failed = result["attempted"], result["failed"]
        correct = failed == 0 and t["counts_repeat"] and t["restored"]
        record = {"rows": _rows(result["samples"], t), "cycles": t["cycles"],
                  "counts_repeat": t["counts_repeat"], "restored": t["restored"],
                  "spans": t["spans"]}
    else:
        setups, attempted, failed, problems = [], 0, 0, []
        for _ in range(SETUP_RUNS - 1):
            extra, setup = _launch(workload, seed, seconds, "setup", work_dir)
            setups.append(setup)
            attempted += extra["attempted"]
            failed += extra["failed"]
            problems += extra["problems"]
        result, setup = _launch(workload, seed, seconds, "timed", work_dir)
        setups.append(setup)
        result["problems"] = problems + result["problems"]
        times = [t for _, t in result["samples"]]
        metrics = {"best_reports_per_s": best_rate(result["samples"], result["cycle_size"],
                                                     BEST_OF_CYCLES[workload]),
                   "setup_s": setup_time(setups),
                   "peak_rss_mb": result["peak_rss_mb"]}
        attempted += result["attempted"]
        failed += result["failed"]
        correct = failed == 0
        distribution = {"reports_per_s": _rate(result["samples"]),
                        "report_s.p50": statistics.median(times),
                        "report_s.p90": statistics.quantiles(times, n=10)[8]}
        record = {"distribution": {name: {"value": value, "unit": DISTRIBUTION[name]}
                                   for name, value in distribution.items()},
                  "samples": result["samples"], "setup_runs": setups}
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "provenance": result["provenance"],
        "problems": result["problems"],
        **record,
    }


def _print_block(out: dict) -> None:
    print(f"== {out['workload']}")
    print("provenance " + json.dumps(out["provenance"], sort_keys=True))
    for row in out.get("rows", []):
        dims = " ".join(f"D={d}:{c}" for d, c in row["eig_dims"].items())
        print(f"row {row['scenario']:32s} report_s={row['report_s']:.6f} "
              f"eig_calls={row['eig_calls']} {dims}")
    for name, metric in {**out["metrics"], **out.get("distribution", {})}.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_ratio':28s} {out['failed_ratio']:.6g} "
          f"({out['failed']}/{out['attempted']} reports)")
    if "setup_runs" in out:
        print(f"{'report_s samples':28s} {len(out['samples'])}")
    for problem in out["problems"]:
        print(f"problem: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaborop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaborop" / "__init__.py").is_file():
        print(f"gaborop sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work_dir = HERE / ".work" / f"{os.getpid()}"
    outs = []
    try:
        for name in names:
            out = measure(name, args.seed, args.seconds, bool(args.trace), work_dir / name)
            _print_block(out)
            outs.append(out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    (HERE / "out").mkdir(exist_ok=True)
    record = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(outs, indent=1) + "\n", encoding="utf-8")

    if len(outs) == 1:
        metrics = outs[0]["metrics"]
    else:
        metrics = {f"{o['workload']}/{k}": v for o in outs for k, v in o["metrics"].items()}
    print(json.dumps({"correct": all(o["correct"] for o in outs),
                      "attempted": sum(o["attempted"] for o in outs),
                      "failed": sum(o["failed"] for o in outs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
