"""Command-line scenario runner.

Runs bundled presets or JSON scenario files and writes machine-readable
reports.  Exit codes: 0 completed, 2 scenario/schema error (or any other
``ValueError`` or ``OSError`` while a scenario loads or runs), 3 a strict-mode
finding (a hypothesis or validity check that should have held but did not).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .operators import DEFAULT_TOL
from .presets import build_preset, list_presets
from .scenario import ScenarioError, load_scenario, run_scenario, spectra_file

ENV_TOL = "GOF_DEFAULT_TOL"


def _tolerance(text: str) -> float:
    """``text`` as a tolerance: a finite number > 0, the rule run_scenario
    applies to every tolerance."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < float("inf"):  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


# built once: parse_args leaves the parser as it was
_PARSER = argparse.ArgumentParser(
    prog="gaborop",
    description="Matrix-valued Gabor frame scenarios: bounds, constructions, "
                "perturbations.",
)
_PARSER.add_argument("--scenario", action="append", default=[], metavar="PATH",
                     help="JSON scenario file (repeatable).")
_PARSER.add_argument("--preset", action="append", default=[], metavar="NAME",
                     help="bundled preset name (repeatable; see --list-presets).")
_PARSER.add_argument("--out", metavar="PATH",
                     help="report destination; a directory when several "
                          "scenarios run (default: stdout).")
_PARSER.add_argument("--spectra", metavar="PATH",
                     help="write frame-operator spectra as CSV next to the report.")
_PARSER.add_argument("--tol", type=_tolerance, default=None,
                     help=f"tolerance override (also via ${ENV_TOL}; "
                          f"default {DEFAULT_TOL}).")
_PARSER.add_argument("--strict", action="store_true",
                     help="exit 3 when any report carries findings.")
_PARSER.add_argument("--list-presets", action="store_true",
                     help="print preset names with descriptions and exit.")


def _resolve_tol(cli_value):
    if cli_value is not None:
        return cli_value
    env = os.environ.get(ENV_TOL)
    if env:
        try:
            return _tolerance(env)
        except argparse.ArgumentTypeError:
            print(f"warning: ignoring ${ENV_TOL}={env!r}, not a finite number > 0",
                  file=sys.stderr)
    return None


def _scenarios(args):
    for path in args.scenario:
        scenario = load_scenario(path)
        yield Path(path).stem, scenario, Path(path).resolve().parent
    for name in args.preset:
        try:
            scenario = build_preset(name)
        except KeyError as e:
            raise ScenarioError([str(e.args[0])]) from e
        scenario["provenance_preset"] = name
        yield name, scenario, Path.cwd()


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path is None:
        print(text)
    else:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(text + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv if argv is not None else sys.argv[1:])
    if args.list_presets:
        for name, description in list_presets():
            print(f"{name:18s} {description}")
        return 0
    if not args.scenario and not args.preset:
        print("nothing to do: give --scenario, --preset or --list-presets",
              file=sys.stderr)
        return 2

    tol = _resolve_tol(args.tol)
    try:
        scenarios = list(_scenarios(args))
        single = len(scenarios) == 1
        outcomes = [
            (label, run_scenario(
                scenario, base_dir=base_dir, tol=tol,
                spectra_path=None if args.spectra is None
                else spectra_file(args.spectra, label, single),
            ))
            for label, scenario, base_dir in scenarios
        ]
    except (ValueError, OSError) as e:  # ScenarioError is a ValueError
        problems = e.problems if isinstance(e, ScenarioError) else [str(e)]
        for p in problems:
            print(f"scenario error: {p}", file=sys.stderr)
        return 2

    out_dir = None
    if args.out and not single:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    any_findings = False
    for label, report in outcomes:
        if single:
            _emit(report, args.out)
        else:
            _emit(report, (out_dir / f"{label}.json") if out_dir else None)
        for finding in report["findings"]:
            any_findings = True
            print(f"finding [{label}]: {finding}", file=sys.stderr)
    return 3 if (args.strict and any_findings) else 0


if __name__ == "__main__":
    raise SystemExit(main())
