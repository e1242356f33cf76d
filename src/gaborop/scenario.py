"""JSON scenarios: schema, validation, object construction and execution.

A scenario names a group with a weight convention, systems (windows plus
lattices), operators, and one task with its arguments.  The compact form
``{"source": "<preset>", ...}`` starts from a bundled preset and merges the
remaining keys into the task arguments.

Reports are plain dictionaries, deterministic for a fixed scenario up to
the ``timing_seconds`` field.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from .constructions import (
    check_composed_image,
    check_image_frame,
    normalize_to_parseval,
    omega_characterization,
    tight_theta_frame,
)
from .frames import GaborSystem, ordinary_bounds, theta_bounds
from .groups import (
    Automorphism,
    FiniteAbelianGroup,
    MeasurePair,
    Subgroup,
    inverse_fourier,
)
from .operators import DEFAULT_TOL, SpaceOperator, diagnostics
from .perturbation import verify_perturbation, verify_sum
from .presets import build_preset
from .signals import MatrixSignal, SignalSpace

__all__ = [
    "ScenarioError",
    "SCENARIO_SCHEMA",
    "REPORT_SCHEMA",
    "load_scenario",
    "validate_scenario",
    "run_scenario",
    "spectra_file",
]

TASKS = (
    "ordinary_bounds",
    "theta_bounds",
    "hyponormal",
    "adjointable",
    "tight_construct",
    "omega_check",
    "image_check",
    "pert_check",
    "sum_check",
)

_COMPLEX_ENTRY = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}

_SCALAR_WINDOW = {
    "oneOf": [
        {"const": 0},
        {
            "type": "object",
            "properties": {
                "window": {
                    "enum": ["fourier_indicator", "values", "delta", "zero", "scaled"]
                },
                "set": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                "scale": {"type": "number"},
                "values": {"type": "array", "items": _COMPLEX_ENTRY},
                "at": {"type": "array", "items": {"type": "integer"}},
                "of": {"$ref": "#/$defs/scalar_window"},
            },
            "required": ["window"],
            "additionalProperties": False,
        },
    ]
}

_WINDOW = {
    "oneOf": [
        {"$ref": "#/$defs/scalar_window"},
        {
            "type": "object",
            "properties": {
                "matrix": {
                    "type": "array",
                    "items": {"type": "array", "items": {"$ref": "#/$defs/scalar_window"}},
                }
            },
            "required": ["matrix"],
            "additionalProperties": False,
        },
    ]
}

_LATTICE = {
    "oneOf": [
        {"enum": ["full", "trivial"]},
        {
            "type": "object",
            "properties": {
                "gens": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer"}},
                }
            },
            "required": ["gens"],
            "additionalProperties": False,
        },
    ]
}

_AUTOMORPHISM = {
    "type": "array",
    "items": {
        "oneOf": [
            {"type": "integer"},
            {"type": "array", "items": {"type": "integer"}},
        ]
    },
}

_GENS = {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}}

_SYSTEM = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "n": {"type": "integer", "minimum": 1},
        "lattice": _LATTICE,
        "dual_lattice": _LATTICE,
        "lattice_gens": _GENS,
        "dual_lattice_gens": _GENS,
        "automorphism": _AUTOMORPHISM,
        "dual_automorphism": _AUTOMORPHISM,
        "windows": {"type": "array", "items": _WINDOW, "minItems": 0},
    },
    "required": ["name", "n", "windows"],
    "additionalProperties": False,
}

_OPERATOR = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "kind": {"enum": ["entry_map", "dense", "identity", "zero"]},
        "n": {"type": "integer", "minimum": 1},
        "matrix": {"type": "array", "items": {"type": "array", "items": _COMPLEX_ENTRY}},
        "data_file": {"type": "string"},
    },
    "required": ["name", "kind", "n"],
    "additionalProperties": False,
}

_COMPACT_FORM = {
    "type": "object",
    "properties": {
        "source": {"type": "string"},
        "task": {"enum": list(TASKS)},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "args": {"type": "object"},
        "lambda": {"type": "number", "minimum": 0},
        "mu": {"type": "number", "minimum": 0},
        "eta": {"type": "number", "minimum": 0},
        "use_paper_bounds": {"type": "boolean"},
    },
    "required": ["source"],
    "additionalProperties": False,
}

_FULL_FORM = {
    "type": "object",
    "properties": {
        "description": {"type": "string"},
        "task": {"enum": list(TASKS)},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "group": {
            "type": "object",
            "properties": {
                "factors": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "weight_convention": {
                    "oneOf": [
                        {"enum": ["torus_like", "counting"]},
                        {
                            "type": "object",
                            "properties": {
                                "w_group": {"type": "number", "exclusiveMinimum": 0},
                                "w_dual": {"type": "number", "exclusiveMinimum": 0},
                            },
                            "required": ["w_group", "w_dual"],
                            "additionalProperties": False,
                        },
                    ]
                },
            },
            "required": ["factors"],
            "additionalProperties": False,
        },
        "systems": {"type": "array", "items": _SYSTEM},
        "operators": {"type": "array", "items": _OPERATOR},
        "args": {"type": "object"},
    },
    "required": ["task", "group", "systems"],
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://example.invalid/gaborop/scenario.schema.json",
    "title": "gaborop scenario",
    "$defs": {"scalar_window": _SCALAR_WINDOW},
    "oneOf": [_COMPACT_FORM, _FULL_FORM],
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://example.invalid/gaborop/report.schema.json",
    "title": "gaborop report",
    "type": "object",
    "properties": {
        "toolkit_version": {"type": "string"},
        "task": {"enum": list(TASKS)},
        "tolerance": {"type": "number"},
        "scenario": {"type": "object"},
        "results": {"type": "object"},
        "findings": {"type": "array", "items": {"type": "string"}},
        "provenance": {"type": "object"},
        "timing_seconds": {"type": "number"},
    },
    "required": [
        "toolkit_version",
        "task",
        "tolerance",
        "scenario",
        "results",
        "findings",
        "provenance",
        "timing_seconds",
    ],
    "additionalProperties": False,
}


class ScenarioError(ValueError):
    """Scenario failed schema validation or object construction."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def validate_scenario(raw: dict) -> None:
    """Schema-validate a scenario, reporting every offending field path.

    The compact and full forms are discriminated on the ``source`` key before
    validating, so errors carry the paths of the actual offending fields
    instead of a blanket oneOf failure.
    """
    branch = _COMPACT_FORM if "source" in raw else _FULL_FORM
    schema = {"$defs": {"scalar_window": _SCALAR_WINDOW}, **branch}
    validator = Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        problems = []
        for e in errors:
            path = "$" + "".join(
                f"[{p}]" if isinstance(p, int) else f".{p}" for p in e.absolute_path
            )
            problems.append(f"{path}: {e.message}")
        raise ScenarioError(problems)


_PRESET_ARG_KEYS = ("lambda", "mu", "eta", "use_paper_bounds")


def expand_scenario(raw: dict) -> dict:
    """Resolve the compact preset-reference form into a full scenario."""
    if "source" not in raw:
        return raw
    scenario = build_preset(raw["source"])
    scenario.setdefault("provenance_preset", raw["source"])
    if "task" in raw:
        scenario["task"] = raw["task"]
    if "tolerance" in raw:
        scenario["tolerance"] = raw["tolerance"]
    args = scenario.setdefault("args", {})
    args.update(raw.get("args", {}))
    for key in _PRESET_ARG_KEYS:
        if key in raw:
            args[key] = raw[key]
    return scenario


def load_scenario(path) -> dict:
    """Parse, validate and expand a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError([f"$: not valid JSON ({e.msg} at line {e.lineno})"]) from e
    if not isinstance(raw, dict):
        raise ScenarioError(["$: scenario must be a JSON object"])
    validate_scenario(raw)
    expanded = expand_scenario(raw)
    if "source" in raw:
        validate_scenario({k: v for k, v in expanded.items() if k != "provenance_preset"})
    return expanded


# ---------------------------------------------------------------------------
# object construction


def _build_group(spec: dict) -> tuple[FiniteAbelianGroup, MeasurePair]:
    group = FiniteAbelianGroup(tuple(spec["factors"]))
    conv = spec.get("weight_convention", "torus_like")
    if conv == "torus_like":
        measure = MeasurePair.torus_like(group)
    elif conv == "counting":
        measure = MeasurePair.counting(group)
    else:
        measure = MeasurePair(conv["w_group"], conv["w_dual"], group.order)
    return group, measure


def _complex_entry(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def _build_scalar_values(space: SignalSpace, spec) -> np.ndarray:
    group = space.group
    if spec == 0 or spec is None:
        return np.zeros(group.order, dtype=np.complex128)
    kind = spec["window"]
    if kind == "zero":
        return np.zeros(group.order, dtype=np.complex128)
    if kind == "scaled":
        return complex(spec["scale"]) * _build_scalar_values(space, spec["of"])
    if kind == "values":
        vals = [_complex_entry(v) for v in spec["values"]]
        if len(vals) != group.order:
            raise ScenarioError(
                [f"$.windows: 'values' must list {group.order} entries, got {len(vals)}"]
            )
        return np.asarray(vals, dtype=np.complex128)
    if kind == "delta":
        coords = spec.get("at", [0] * group.rank)
        out = np.zeros(group.order, dtype=np.complex128)
        out[group.element(coords).index] = spec.get("scale", 1.0)
        return out
    if kind == "fourier_indicator":
        scale = spec.get("scale", 1.0)
        hat = np.zeros((group.order, 1, 1), dtype=np.complex128)
        for idx in spec["set"]:
            if not 0 <= idx < group.order:
                raise ScenarioError(
                    [f"$.windows: fourier_indicator index {idx} outside the dual group"]
                )
            hat[idx, 0, 0] = scale
        scalar_space = SignalSpace(group, 1, space.measure)
        sig = inverse_fourier(MatrixSignal(scalar_space, hat, dual=True))
        return sig.values[:, 0, 0]
    raise ScenarioError([f"$.windows: unknown scalar window kind {kind!r}"])


def _build_window(space: SignalSpace, spec) -> MatrixSignal:
    n = space.n
    values = np.zeros((space.group.order, n, n), dtype=np.complex128)
    if isinstance(spec, dict) and "matrix" in spec:
        grid = spec["matrix"]
        if len(grid) != n or any(len(row) != n for row in grid):
            raise ScenarioError([f"$.windows: matrix window must be {n}x{n}"])
        for i in range(n):
            for j in range(n):
                values[:, i, j] = _build_scalar_values(space, grid[i][j])
    else:
        if n != 1:
            raise ScenarioError(["$.windows: scalar window given for a matrix system"])
        values[:, 0, 0] = _build_scalar_values(space, spec)
    return MatrixSignal(space, values)


def _build_lattice(group: FiniteAbelianGroup, spec, dual: bool) -> Subgroup:
    if spec is None or spec == "full":
        return Subgroup.full(group, dual=dual)
    if spec == "trivial":
        return Subgroup.trivial(group, dual=dual)
    make = group.dual_element if dual else group.element
    return Subgroup(group, [make(c) for c in spec["gens"]], dual=dual)


def _build_system(group, measure, spec: dict) -> GaborSystem:
    space = SignalSpace(group, spec["n"], measure)
    windows = tuple(_build_window(space, w) for w in spec["windows"])
    # 'lattice_gens' is the flat generator-list spelling of {'gens': ...}
    lat_spec = spec.get("lattice")
    if lat_spec is None and "lattice_gens" in spec:
        lat_spec = {"gens": spec["lattice_gens"]}
    dlat_spec = spec.get("dual_lattice")
    if dlat_spec is None and "dual_lattice_gens" in spec:
        dlat_spec = {"gens": spec["dual_lattice_gens"]}
    lattice = _build_lattice(group, lat_spec, dual=False)
    dual_lattice = _build_lattice(group, dlat_spec, dual=True)
    auto = spec.get("automorphism")
    dauto = spec.get("dual_automorphism")
    return GaborSystem(
        space,
        windows,
        lattice,
        dual_lattice,
        Automorphism(group, auto) if auto is not None else None,
        Automorphism(group, dauto, dual=True) if dauto is not None else None,
    )


def _build_operator(group, measure, spec: dict, base_dir: Path) -> SpaceOperator:
    space = SignalSpace(group, spec["n"], measure)
    kind = spec["kind"]
    if kind == "identity":
        return SpaceOperator.identity(space)
    if kind == "zero":
        return SpaceOperator.zero(space)
    if kind == "entry_map":
        if "matrix" not in spec:
            raise ScenarioError([f"$.operators[{spec['name']}]: entry_map needs 'matrix'"])
        mat = [[_complex_entry(v) for v in row] for row in spec["matrix"]]
        return SpaceOperator.from_entry_map(space, np.asarray(mat))
    if "data_file" not in spec:
        raise ScenarioError([f"$.operators[{spec['name']}]: dense needs 'data_file'"])
    path = base_dir / spec["data_file"]
    # layout: row-major complex128 little-endian, shape (dim, dim)
    data = np.fromfile(path, dtype="<c16")
    dim = space.dim
    if data.size != dim * dim:
        raise ScenarioError(
            [f"$.operators[{spec['name']}]: {path} holds {data.size} values, need {dim * dim}"]
        )
    return SpaceOperator.from_dense(space, data.reshape(dim, dim))


# ---------------------------------------------------------------------------
# task execution


def _need(args: dict, key: str, table: dict, what: str):
    name = args.get(key)
    if name is None or name not in table:
        raise ScenarioError([f"$.args.{key}: must name a declared {what}"])
    return table[name]


def _cross_check_findings(label: str, report) -> list[str]:
    """A finding for every reported constant that fails its residual certificate."""
    findings = []
    for side, name in (("lower", "alpha"), ("upper", "beta")):
        cert = report.cross_check.get(f"{name}_certificate")
        if cert is not None and not cert["holds"]:
            findings.append(
                f"{label}: the {side} constant fails its residual certificate "
                f"(min eigenvalue {cert['min_eig_at']} at it, {cert['min_eig_past']} "
                f"past it, slack {cert['slack']})"
            )
    return findings


def _check_cross_references(task: str, args: dict, systems: dict, operators: dict) -> None:
    """Systems and operators a task pairs must share n; perturbation and sum
    pairs must also share the window count.  Unknown names are left to the task."""
    if task == "tight_construct" or args.get("system") not in systems:
        return  # that construction's operator acts on the requested dimension
    ref, problems = systems[args["system"]], []
    for key, name in args.items():
        table = systems if key.endswith("system") else operators if key.endswith("operator") else {}
        if not isinstance(name, str) or name not in table:
            continue
        if table[name].space.n != ref.space.n:
            problems.append(f"$.args.{key}: {name!r} has n={table[name].space.n}, "
                            f"but system {args['system']!r} has n={ref.space.n}")
        elif key in ("perturbed_system", "second_system") and \
                len(table[name].windows) != len(ref.windows):
            problems.append(f"$.args.{key}: {name!r} has {len(table[name].windows)} windows, "
                            f"but system {args['system']!r} has {len(ref.windows)}")
    if problems:
        raise ScenarioError(problems)


def spectra_file(base, label: str, single: bool) -> Path:
    """``base`` for a single spectrum, else ``<stem>_<label><suffix or .csv>`` beside it."""
    base = Path(base)
    return base if single else base.with_name(f"{base.stem}_{label}{base.suffix or '.csv'}")


def _run_task(scenario: dict, systems: dict, operators: dict, tol: float):
    task = scenario["task"]
    args = scenario.get("args", {})
    findings: list[str] = []
    results: dict = {}
    provenance: dict = {}
    bounds_reports: dict = {}   # label -> (BoundsReport, path of its dict in results)

    if task == "ordinary_bounds":
        wanted = args.get("systems") or list(systems)
        for name in wanted:
            if name not in systems:
                raise ScenarioError([f"$.args.systems: unknown system {name!r}"])
            rep = ordinary_bounds(systems[name], tol)
            results[name] = rep.to_json_dict()
            bounds_reports[name] = (rep, (name,))

    elif task == "theta_bounds":
        system = _need(args, "system", systems, "system")
        theta = _need(args, "operator", operators, "operator")
        ordinary = ordinary_bounds(system, tol)
        controlled = theta_bounds(system, theta, tol)
        findings += _cross_check_findings("theta_bounds", controlled)
        results = {
            "ordinary": ordinary.to_json_dict(),
            "controlled": controlled.to_json_dict(),
            "operator": diagnostics(theta, tol).to_json_dict(),
        }
        bounds_reports = {
            "ordinary": (ordinary, ("ordinary",)),
            "controlled": (controlled, ("controlled",)),
        }

    elif task == "hyponormal":
        theta = _need(args, "operator", operators, "operator")
        results = {"operator": diagnostics(theta, tol).to_json_dict()}

    elif task == "adjointable":
        theta = _need(args, "operator", operators, "operator")
        results = {"operator": diagnostics(theta, tol).to_json_dict()}

    elif task == "tight_construct":
        source = _need(args, "source_system", systems, "system")
        theta = _need(args, "operator", operators, "operator")
        if source.space.n != 1:
            raise ScenarioError(["$.args.source_system: source must be scalar (n=1)"])
        try:
            source = normalize_to_parseval(source, tol)
        except ValueError as e:
            raise ScenarioError([f"$.args.source_system: {e}"]) from e
        construction = tight_theta_frame(
            float(args.get("tightness", 1.0)), source, int(args["dimension"]), theta, tol
        )
        results = construction.to_json_dict()
        if not construction.hypothesis_ok:
            findings += [f"tight_construct: {r}" for r in construction.reasons]
        else:
            bounds_reports = {
                "diagonal": (construction.diagonal_report, ("diagonal_report",)),
                "image": (construction.image_report, ("image_report",)),
            }
            t = construction.tightness
            rep = construction.diagonal_report
            if not (rep.tight and abs(rep.alpha_opt - t) <= tol * max(1.0, t)):
                findings.append(
                    f"tight_construct: diagonal system is not {t}-tight "
                    f"(bounds {rep.alpha_opt}, {rep.beta_opt})"
                )
            if not (construction.lower_valid and construction.upper_valid):
                findings.append("tight_construct: requested tightness is not a valid bound pair")

    elif task == "omega_check":
        system = _need(args, "system", systems, "system")
        theta = _need(args, "operator", operators, "operator")
        omega = omega_characterization(system, theta, tol)
        controlled = theta_bounds(system, theta, tol)
        results = {
            "omega": omega.to_json_dict(),
            "controlled": controlled.to_json_dict(),
            "verdicts_agree": bool(
                omega.lower_exists == controlled.lower_exists
                and omega.upper_exists == controlled.upper_exists
            ),
        }
        bounds_reports = {"controlled": (controlled, ("controlled",))}
        if not omega.basis_condition:
            findings.append("omega_check: synthesis operator misses the coefficient basis")
        if omega.max_gram_deviation > 1e-10:
            findings.append(
                f"omega_check: Omega Omega^* deviates from the frame operator by "
                f"{omega.max_gram_deviation}"
            )
        if not results["verdicts_agree"]:
            findings.append("omega_check: existence verdicts disagree with the direct route")

    elif task == "image_check":
        system = _need(args, "system", systems, "system")
        outer = _need(args, "operator", operators, "operator")
        if args.get("inner_operator"):
            inner = _need(args, "inner_operator", operators, "operator")
            report = check_composed_image(outer, inner, system, tol)
        else:
            report = check_image_frame(outer, system, tol)
        results = report.to_json_dict()
        bounds_reports = {
            "source": (report.source_report, ("source_report",)),
            "image": (report.image_report, ("image_report",)),
        }
        if all(v for k, v in report.hypotheses.items() if isinstance(v, bool)):
            if report.bounds_valid is False:
                findings.append(
                    "image_check: hypotheses hold but the source bounds are not valid "
                    "for the image family"
                )

    elif task == "pert_check":
        system = _need(args, "system", systems, "system")
        perturbed = _need(args, "perturbed_system", systems, "system")
        theta = _need(args, "operator", operators, "operator")
        bounds = None
        if args.get("use_paper_bounds"):
            pinned = args.get("paper_bounds")
            if not pinned:
                raise ScenarioError(["$.args.paper_bounds: required when use_paper_bounds"])
            bounds = (float(pinned[0]), float(pinned[1]))
        check, prediction = verify_perturbation(
            system, perturbed, theta,
            float(args.get("lambda", 0.0)), float(args.get("mu", 0.0)),
            float(args.get("eta", 0.0)), bounds, tol,
        )
        provenance["bounds_source"] = check.bounds_source
        results = {"hypothesis": check.to_json_dict(), "prediction": prediction.to_json_dict()}
        if prediction.perturbed_report is not None:
            bounds_reports = {
                "perturbed": (prediction.perturbed_report,
                              ("prediction", "perturbed_report")),
            }
        if check.holds and prediction.applicable:
            if prediction.lower_valid is False:
                findings.append(
                    "pert_check: predicted lower bound exceeds the computed optimal one"
                )
            if prediction.upper_valid is False:
                findings.append(
                    "pert_check: predicted upper bound undercuts the computed optimal one"
                )

    elif task == "sum_check":
        system = _need(args, "system", systems, "system")
        second = _need(args, "second_system", systems, "system")
        theta = _need(args, "operator", operators, "operator")
        bounds_first = bounds_second = None
        if args.get("use_paper_bounds"):
            bf, bs = args.get("paper_bounds_first"), args.get("paper_bounds_second")
            if not bf or not bs:
                raise ScenarioError(
                    ["$.args.paper_bounds_first/paper_bounds_second: required "
                     "when use_paper_bounds"]
                )
            bounds_first = (float(bf[0]), float(bf[1]))
            bounds_second = (float(bs[0]), float(bs[1]))
        check, prediction = verify_sum(system, second, theta, bounds_first, bounds_second, tol)
        provenance["bounds_source"] = check.bounds_source
        results = {"hypothesis": check.to_json_dict(), "prediction": prediction.to_json_dict()}
        if prediction.perturbed_report is not None:
            bounds_reports = {
                "summed": (prediction.perturbed_report,
                           ("prediction", "perturbed_report")),
            }
        if check.condition_ok and prediction.applicable:
            if prediction.lower_valid is False:
                findings.append(
                    "sum_check: predicted lower bound exceeds the computed optimal one"
                )
            if prediction.upper_valid is False:
                findings.append(
                    "sum_check: predicted upper bound undercuts the computed optimal one"
                )

    else:  # unreachable given schema, kept for safety
        raise ScenarioError([f"$.task: unknown task {task!r}"])

    return results, findings, provenance, bounds_reports


def run_scenario(scenario: dict, base_dir=None, tol: float | None = None,
                 spectra_path=None) -> dict:
    """Execute a validated scenario and return its report dictionary.

    ``spectra_path`` writes one ascending-eigenvalue CSV per bounds report
    (suffixed with the report's label) and records the file names.
    """
    start = time.perf_counter()
    base_dir = Path(base_dir) if base_dir else Path.cwd()
    tolerance = float(tol if tol is not None else scenario.get("tolerance", DEFAULT_TOL))
    group, measure = _build_group(scenario["group"])
    systems = {
        spec["name"]: _build_system(group, measure, spec)
        for spec in scenario.get("systems", [])
    }
    operators = {
        spec["name"]: _build_operator(group, measure, spec, base_dir)
        for spec in scenario.get("operators", [])
    }
    _check_cross_references(scenario["task"], scenario.get("args", {}), systems, operators)
    results, findings, provenance, bounds_reports = _run_task(
        scenario, systems, operators, tolerance
    )
    if "provenance_preset" in scenario:
        provenance["preset"] = scenario["provenance_preset"]

    spectra_files = {}
    if spectra_path is not None and bounds_reports:
        for label, (rep, result_path) in bounds_reports.items():
            eigs = rep.spectra.get("frame_operator", [])
            name = spectra_file(spectra_path, label, len(bounds_reports) == 1)
            with open(name, "w", encoding="utf-8") as fh:
                fh.write("index,eigenvalue\n")
                for i, v in enumerate(sorted(eigs)):
                    fh.write(f"{i},{v!r}\n")
            spectra_files[label] = str(name)
            target = results
            for key in result_path:
                target = target[key]
            target["spectrum_file"] = str(name)

    scenario_echo = {k: v for k, v in scenario.items() if k != "provenance_preset"}
    report = {
        "toolkit_version": __version__,
        "task": scenario["task"],
        "tolerance": tolerance,
        "scenario": scenario_echo,
        "results": results,
        "findings": findings,
        "provenance": {**provenance, "spectra_files": spectra_files},
        "timing_seconds": time.perf_counter() - start,
    }
    Draft202012Validator(REPORT_SCHEMA).validate(report)
    return report
