"""The benchmark's workloads: which scenarios run, at which sizes, and how.

Each workload is a list of jobs; one job produces one report.  The seed
varies only what leaves every reference constant unchanged: the order of the
reports in each cycle, and a sign (a unimodular phase) on each window index,
applied to that window in every system of the scenario so that window
differences and sums keep their norms.

Only public entry points are used: ``presets.build_preset``,
``presets.list_presets``, ``scenario.validate_scenario``,
``scenario.run_scenario`` and ``cli.main``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# modules, not names: the tracer rebinds module attributes, so timed calls
# go through them
from gaborop import cli, scenario as gscenario
from gaborop.presets import build_preset, list_presets

CONTROLLED = ("remark-theta0", "exper1-negative", "pertexa", "sumexa", "omega-check")


@dataclass
class Job:
    """One report: ``call`` is the timed public call, ``collect`` turns its
    return value into the report dictionary (untimed)."""

    label: str          # scenario and size, e.g. "sumexa@G32n2"
    ref: str            # key into the reference table
    call: Callable[[], object]
    collect: Callable[[object], dict]


def _flip(window):
    """The window multiplied by -1, as a scenario window spec."""
    if window == 0 or (isinstance(window, dict) and window.get("window") == "zero"):
        return window
    if "matrix" in window:
        return {"matrix": [[_flip(e) for e in row] for row in window["matrix"]]}
    return {"window": "scaled", "scale": -1.0, "of": window}


def with_phases(scenario: dict, rng: random.Random) -> dict:
    """Give window index l the sign s_l in every system of the scenario."""
    count = max((len(s["windows"]) for s in scenario.get("systems", [])), default=0)
    signs = [rng.choice((1, -1)) for _ in range(count)]
    for system in scenario.get("systems", []):
        system["windows"] = [_flip(w) if signs[l] < 0 else w
                             for l, w in enumerate(system["windows"])]
    return scenario


def _size(scenario: dict) -> tuple[int, int]:
    order = int(np.prod(scenario["group"]["factors"]))
    n = max(s["n"] for s in scenario["systems"])
    return order, n


def _label(name: str, scenario: dict) -> str:
    order, n = _size(scenario)
    return f"{name}@G{order}n{n}"


def _direct_job(name: str, ref: str, scenario: dict) -> Job:
    gscenario.validate_scenario(scenario)
    return Job(_label(name, scenario), ref, call=lambda: gscenario.run_scenario(scenario),
               collect=lambda report: report)


def ordinary_twin(preset: str, resolution: int) -> dict:
    """A preset's systems under the ``ordinary_bounds`` task."""
    scenario = build_preset(preset, resolution=resolution)
    scenario["task"] = "ordinary_bounds"
    scenario["args"] = {"systems": [s["name"] for s in scenario["systems"]]}
    return scenario


def dense_theta(resolution: int, data_file: str | None) -> tuple[dict, np.ndarray]:
    """``theta_bounds`` on pertexa's main system, and the dense expansion of
    pertexa's entry map (kron(I_|G|, M) on the flattened space).

    With ``data_file`` None the scenario keeps the entry map: the twin whose
    constants the dense scenario must reproduce.
    """
    scenario = build_preset("pertexa", resolution=resolution)
    entry = scenario["operators"][0]
    order, _ = _size(scenario)
    dense = np.kron(np.eye(order), np.asarray(entry["matrix"], dtype=np.complex128))
    scenario["systems"] = [s for s in scenario["systems"] if s["name"] == "main"]
    if data_file is not None:
        scenario["operators"] = [{"name": entry["name"], "kind": "dense",
                                  "n": entry["n"], "data_file": data_file}]
    scenario["task"] = "theta_bounds"
    scenario["args"] = {"system": "main", "operator": entry["name"]}
    return scenario, dense


def _cli_job(name: str, ref: str, path: Path, out_dir: Path) -> Job:
    out = out_dir / f"{path.stem}.json"
    spectra = out_dir / f"{path.stem}.csv"
    argv = ["--scenario", str(path), "--out", str(out), "--spectra", str(spectra)]

    def collect(code):
        if code != 0:
            raise RuntimeError(f"cli.main exited with {code}")
        report = json.loads(out.read_text(encoding="utf-8"))
        for file in report["provenance"]["spectra_files"].values():
            if not Path(file).is_file():
                raise RuntimeError(f"spectra file {file} missing")
        return report

    return Job(name, ref, call=lambda: cli.main(argv), collect=collect)


def build(workload: str, seed: int, work_dir: Path) -> list[Job]:
    """The jobs of ``workload`` for ``seed``; cli-mixed writes its files
    under ``work_dir``."""
    rng = random.Random(seed)
    if workload == "controlled-lattice":
        return [_direct_job(name, name, with_phases(build_preset(name, resolution=4), rng))
                for name in CONTROLLED]
    if workload == "ordinary-large":
        return [
            _direct_job("exb1", "exb1", with_phases(build_preset("exb1", resolution=64), rng)),
            _direct_job("pertexa-ordinary", "pertexa/ordinary_bounds",
                        with_phases(ordinary_twin("pertexa", 16), rng)),
        ]
    if workload != "cli-mixed":
        raise KeyError(f"unknown workload {workload!r}")

    scen_dir = work_dir / "scenarios"
    out_dir = work_dir / "out"
    scen_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []   # (label, reference key, scenario dict)
    for name, _ in list_presets():
        scenario = with_phases(build_preset(name), rng)
        entries.append((_label(name, scenario), name, scenario))
    entries.append((_label("sumexa-paper-bounds", build_preset("sumexa")),
                    "sumexa/paper_bounds", {"source": "sumexa", "use_paper_bounds": True}))
    for resolution in (2, 4):
        data_file = f"pertexa-theta-dense-r{resolution}.c16"
        scenario, dense = dense_theta(resolution, data_file)
        dense.astype("<c16").tofile(scen_dir / data_file)
        with_phases(scenario, rng)
        entries.append((_label("pertexa-theta-dense", scenario), "pertexa/theta_bounds",
                        scenario))
    jobs = []
    for label, ref, scenario in entries:
        path = scen_dir / f"{label.replace('@', '_')}.json"
        path.write_text(json.dumps(scenario, indent=1), encoding="utf-8")
        jobs.append(_cli_job(label, ref, path, out_dir))
    return jobs
