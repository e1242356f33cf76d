"""Tests of the benchmark itself.

Run with ``python -m pytest perfbench/tests``.
"""

import ast
import copy
import importlib
import inspect
import json
import pkgutil
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaborop
import reference
import run
import workloads
from gaborop import scenario as gscenario
from gaborop.presets import build_preset
from tracer import SOLVERS, Tracer

BENCH = Path(__file__).resolve().parents[1]
HARNESS = sorted(BENCH.glob("*.py"))


# ------------------------------------------------------------------- tracer


def test_self_time_is_span_time_minus_child_spans():
    ticks = iter([0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def solver(a):
        return a

    def first_inner():      # span 1.0 .. 3.0, one solve 1.5 .. 2.5
        return tracer.solve("eigvalsh", solver, (np.zeros((4, 4)),), {})

    def second_inner():     # span 4.0 .. 7.0, fails
        raise ValueError("boom")

    def outer():            # span 0.0 .. 10.0
        tracer.call("pencil", "first", first_inner, (), {})
        with pytest.raises(ValueError):
            tracer.call("pencil", "second", second_inner, (), {})

    tracer.call("frames", "outer", outer, (), {})
    frames, pencil = tracer.layers["frames"], tracer.layers["pencil"]
    assert (frames.calls, frames.self_s, frames.errors) == (1, 10.0 - 2.0 - 3.0, 0)
    assert (pencil.calls, pencil.self_s, pencil.errors) == (2, 5.0, 1)
    assert (pencil.eig_calls, pencil.eig_s, pencil.eig_d3) == (1, 1.0, 64)
    assert frames.eig_calls == 0
    assert dict(tracer.report_dims) == {4: 1}


def test_layers_are_the_gaborop_modules():
    modules = {info.name for info in pkgutil.iter_modules(gaborop.__path__)}
    assert modules == set(run.LAYERS)


def _namespaces():
    mods = [gaborop] + [importlib.import_module(f"gaborop.{m}") for m in run.LAYERS]
    spaces = mods + [np.linalg]
    for mod in mods:
        spaces += [obj for obj in vars(mod).values()
                   if inspect.isclass(obj) and obj.__module__.startswith("gaborop.")]
    return {id(ns): (ns, dict(vars(ns))) for ns in spaces}


def test_tracer_restores_every_attribute_by_identity():
    before = _namespaces()
    original_run = gscenario.run_scenario
    tracer = Tracer()
    tracer.install()
    try:
        assert gscenario.run_scenario is not original_run
        assert gaborop.ordinary_bounds is not before[id(gaborop)][1]["ordinary_bounds"]
        assert all(getattr(np.linalg, name) is not before[id(np.linalg)][1][name]
                   for name in SOLVERS)
        report = gscenario.run_scenario(build_preset("remark-theta0"))
    finally:
        tracer.uninstall()
    assert reference.check(report, "remark-theta0") == []
    assert tracer.layers["scenario"].calls >= 1
    assert tracer.layers["pencil"].eig_calls > 0
    assert tracer.restored()
    for ns, saved in before.values():
        current = vars(ns)
        assert all(current.get(k) is v for k, v in saved.items()), ns


# ---------------------------------------------------------------- reference


def _report_from(entry: dict) -> dict:
    results: dict = {}
    for path, value in entry["results"].items():
        *parents, leaf = path.split(".")
        node = results
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return {"results": results, "findings": list(entry["findings"])}


@pytest.mark.parametrize("key", sorted(reference.REFERENCE["scenarios"]))
def test_reference_check_rejects_a_constant_off_by_1e4_relative(key):
    entry = reference.REFERENCE["scenarios"][key]
    assert reference.check(_report_from(entry), key) == []
    constants = [p for p, v in entry["results"].items()
                 if isinstance(v, float) and v != 0.0]
    verdicts = [p for p, v in entry["results"].items() if isinstance(v, bool)]
    assert constants and verdicts
    for path in constants:
        bad = copy.deepcopy(entry)
        bad["results"][path] *= 1 + 1e-4
        assert reference.check(_report_from(bad), key), path
    for path in verdicts:
        bad = copy.deepcopy(entry)
        bad["results"][path] = not bad["results"][path]
        assert reference.check(_report_from(bad), key), path
    extra = _report_from(entry)
    extra["findings"].append("pert_check: predicted lower bound exceeds the computed optimal one")
    assert reference.check(extra, key)


@pytest.mark.parametrize("resolution", [2, 4])
def test_dense_operator_twin_shares_the_reference(tmp_path, resolution):
    twin, dense = workloads.dense_theta(resolution, None)
    assert reference.check(gscenario.run_scenario(twin), "pertexa/theta_bounds") == []
    scenario, _ = workloads.dense_theta(resolution, "theta.c16")
    dense.astype("<c16").tofile(tmp_path / "theta.c16")
    report = gscenario.run_scenario(scenario, base_dir=tmp_path)
    assert reference.check(report, "pertexa/theta_bounds") == []


def test_window_phases_leave_the_constants_unchanged():
    rng = random.Random(7)
    for name in ("sumexa", "pertexa", "thm2-tight", "exb1"):
        flipped = workloads.with_phases(build_preset(name), rng)
        assert reference.check(gscenario.run_scenario(flipped), name) == []


# ------------------------------------------------------------------ harness


def _gaborop_names_used(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules: dict[str, str] = {}   # local name -> gaborop module
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "gaborop":
                    modules[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gaborop"):
            for a in node.names:
                sub = f"{node.module}.{a.name}"
                if node.module == "gaborop" and a.name in run.LAYERS:
                    modules[a.asname or a.name] = sub
                else:
                    used.add((node.module, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((modules[node.value.id], node.attr))
    return used


def test_harness_uses_only_public_entry_points_and_no_job_pool():
    allowed_extra = {("gaborop.cli", "main"), ("gaborop", "__file__")}
    seen = set()
    for path in HARNESS:
        for module, name in _gaborop_names_used(path):
            seen.add((module, name))
            public = getattr(importlib.import_module(module), "__all__", ())
            assert name in public or (module, name) in allowed_extra, (path.name, module, name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not node.value.startswith("--jobs"), path.name
    assert ("gaborop.scenario", "run_scenario") in seen
    assert ("gaborop.cli", "main") in seen


def test_best_rate_uses_only_the_first_cycles():
    cycle = [("a", 0.5), ("b", 1.5)]
    samples = cycle * 3 + [("a", 0.1), ("b", 0.1)]
    assert run.best_rate(samples, cycle_size=2, cycles=3) == 2 / 2.0
    assert set(run.BEST_OF_CYCLES) == set(run.WORKLOADS)


def test_setup_time_sums_each_part_at_its_fastest():
    setups = [{"start_s": 0.3, "warmup_s/a": 1.0}, {"start_s": 0.2, "warmup_s/a": 1.4}]
    assert run.setup_time(setups) == pytest.approx(1.2)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ----------------------------------------------------------------- end to end


def _traced(workload):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly_for_a_seed(workload):
    first, second = _traced(workload), _traced(workload)
    exact = [k for k in run.PER_LAYER
             if k.rsplit(".", 1)[-1] in ("calls", "eig_calls", "eig_d3", "family_members")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    eig_s = sum(first[f"{layer}.eig_s"] for layer in run.LAYERS)
    if workload == "ordinary-large":
        assert first["pencil.eig_calls"] == 0 and first["frames.eig_calls"] > 0
    if workload == "controlled-lattice":
        assert first["pencil.eig_s"] > 0.5 * eig_s
