"""Reference verdicts and constants for every workload scenario.

``reference.json`` holds, per scenario, every scalar leaf of the report's
``results`` (verdicts, constants, labels) and the findings the report is
expected to carry.  The constants do not depend on the group size, so one
table serves every size a workload runs.  They were taken from the reports
at the presets' default sizes, rounded to 10 significant digits (values
below 1e-9 in magnitude to 0), and agree with the constants the presets
state (8 and 2, 20, 10, 2.5 and 10, 6.4 and 14.4, 0.25 and 22, ...).
"""

from __future__ import annotations

import json
from pathlib import Path

REL_TOL = 1e-6
ABS_FLOOR = 1e-9   # for constants that are zero in exact arithmetic
SKIPPED_KEYS = ("tolerances", "spectrum_file")

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text(encoding="utf-8"))


def leaves(obj, prefix: str = ""):
    """(dotted path, value) for every scalar leaf; lists and skipped keys are left out."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key not in SKIPPED_KEYS:
                yield from leaves(value, f"{prefix}.{key}" if prefix else key)
    elif not isinstance(obj, list):
        yield prefix, obj


def _agrees(have, want) -> bool:
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return have is want or (isinstance(want, str) and have == want)
    if isinstance(have, bool) or not isinstance(have, (int, float)):
        return False
    return abs(have - want) <= REL_TOL * abs(want) + ABS_FLOOR


def check(report: dict, key: str, table: dict = REFERENCE) -> list[str]:
    """Every way ``report`` departs from the reference entry ``key``."""
    entry = table["scenarios"][key]
    got = dict(leaves(report["results"]))
    problems = []
    for path, want in entry["results"].items():
        if path not in got:
            problems.append(f"{key}: {path} missing")
        elif not _agrees(got[path], want):
            problems.append(f"{key}: {path} = {got[path]!r}, reference {want!r}")
    unexpected = [f for f in report["findings"] if f not in entry["findings"]]
    problems += [f"{key}: unexpected finding {f!r}" for f in unexpected]
    return problems
