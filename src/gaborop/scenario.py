"""JSON scenarios: schema, validation, object construction and execution.

A scenario names a group with a weight convention, systems (windows plus
lattices), operators, and one task with its arguments.  The compact form
``{"source": "<preset>", ...}`` starts from a bundled preset and merges the
remaining keys into the task arguments.

Reports are plain dictionaries, deterministic for a fixed scenario up to
the ``timing_seconds`` field.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass
from importlib import resources
from numbers import Integral, Number
from pathlib import Path

import numpy as np

from . import __version__
from .constructions import check_composed_image, check_image_frame, tight_theta_frame
from .frames import (GaborSystem, bounded_below_promotion, omega_characterization,
                     ordinary_bounds, valid_bounds)
from .groups import (
    Automorphism,
    FiniteAbelianGroup,
    MeasurePair,
    Subgroup,
    _inverse_fourier_values,
)
from .operators import DEFAULT_TOL, SpaceOperator, diagnostics
from .perturbation import _same_lattices, verify_perturbation, verify_sum
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

# The schema files are the one source of the scenario and report formats.
SCENARIO_SCHEMA, REPORT_SCHEMA = (
    json.loads((resources.files(__package__) / "schemas" / f"{name}.schema.json")
               .read_text(encoding="utf-8"))
    for name in ("scenario", "report")
)

# ---------------------------------------------------------------------------
# schema checks: a compiled closure accepts, jsonschema explains a rejection


def _is_number(x) -> bool:
    """JSON Schema's ``number`` as jsonschema reads it: any Number but a bool."""
    return type(x) in (int, float) or (not isinstance(x, bool) and isinstance(x, Number))


def _is_finite_number(x) -> bool:
    """JSON Schema's ``number`` that is also finite: JSON has no NaN or
    Infinity, though Python's ``json`` reads both (and 1e400 as inf)."""
    kind = type(x)
    if kind is float:
        return math.isfinite(x)
    return kind is int or (_is_number(x) and (isinstance(x, Integral) or cmath.isfinite(x)))


def _is_integer(x) -> bool:
    """JSON Schema's ``integer``: an int but a bool, or a float without a fraction."""
    return ((isinstance(x, int) and not isinstance(x, bool))
            or (isinstance(x, float) and x.is_integer()))


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_finite_number,
    "integer": _is_integer,
}
# the keywords the compiler turns into checks, and those it reads past
_KEYWORDS = {"type", "enum", "const", "properties", "additionalProperties", "required",
             "items", "minItems", "maxItems", "minimum", "exclusiveMinimum", "anyOf", "oneOf",
             "if", "then", "else", "$ref"}
_ANNOTATIONS = {"$defs", "$id", "$schema", "title"}


def _equals_any(values: list):
    """A check that an instance equals one of the scalar ``values``; as in
    jsonschema, a bool equals only a bool."""
    if all(isinstance(v, str) for v in values):
        allowed = frozenset(values)
        return lambda x: isinstance(x, str) and x in allowed
    checks = []
    for v in values:
        if isinstance(v, bool):
            checks.append(lambda x, v=v: x is v)
        elif isinstance(v, str):
            checks.append(lambda x, v=v: isinstance(x, str) and x == v)
        elif _is_number(v):
            checks.append(lambda x, v=v: _is_number(x) and x == v)
        else:
            raise ValueError(f"enum or const value {v!r} is not a scalar")
    return lambda x: any(check(x) for check in checks)


def _compiler(defs: dict):
    """The function that compiles a schema into a check ``instance -> bool``.

    The check answers only whether the instance is valid, as jsonschema's
    Draft 2020-12 validator would with a finite ``number`` (see
    :meth:`_Schema.validator`); it gives no messages.  A ``$ref`` must name
    an entry of ``defs`` (``#/$defs/<name>``); each entry is compiled once, a
    recursive one looking itself up at call time.  A keyword outside
    ``_KEYWORDS`` raises ValueError, so no rule of the schema goes unchecked.
    """
    table: dict = {}

    def ref(target: str):
        name = target.removeprefix("#/$defs/")
        if name == target or name not in defs:
            raise ValueError(f"$ref {target!r} is not an entry of the local $defs")
        if name not in table:
            table[name] = None  # a reference back into this entry resolves at call time
            table[name] = compile(defs[name])
        return table[name] or (lambda x: table[name](x))

    def compile(schema: dict):
        unknown = schema.keys() - _KEYWORDS - _ANNOTATIONS
        if unknown:
            raise ValueError(f"schema keyword(s) {sorted(unknown)} have no compiled check")
        checks = []
        if "type" in schema:
            kind = schema["type"]
            if not isinstance(kind, str) or kind not in _TYPES:
                raise ValueError(f"type {kind!r} has no compiled check")
            checks.append(_TYPES[kind])
        if "enum" in schema:
            checks.append(_equals_any(schema["enum"]))
        if "const" in schema:
            checks.append(_equals_any([schema["const"]]))
        if "minimum" in schema:  # NaN compares false, so it passes, as in jsonschema
            low = schema["minimum"]
            checks.append(lambda x: not (_is_number(x) and x < low))
        if "exclusiveMinimum" in schema:
            above = schema["exclusiveMinimum"]
            checks.append(lambda x: not (_is_number(x) and x <= above))
        if schema.keys() & {"properties", "additionalProperties", "required"}:
            checks.append(object_check(schema))
        if schema.keys() & {"items", "minItems", "maxItems"}:
            checks.append(array_check(schema))
        if "anyOf" in schema:
            any_of = [compile(s) for s in schema["anyOf"]]
            checks.append(lambda x: any(check(x) for check in any_of))
        if "oneOf" in schema:
            one_of = [compile(s) for s in schema["oneOf"]]
            checks.append(lambda x: sum(1 for check in one_of if check(x)) == 1)
        if "if" in schema:
            checks.append(conditional_check(schema))
        if "$ref" in schema:
            checks.append(ref(schema["$ref"]))
        if len(checks) == 1:
            return checks[0]

        def check(x) -> bool:
            for c in checks:
                if not c(x):
                    return False
            return True

        return check

    def object_check(schema: dict):
        props = {key: compile(s) for key, s in schema.get("properties", {}).items()}
        extra = schema.get("additionalProperties", True)
        if isinstance(extra, dict):
            extra = compile(extra)
        required = tuple(schema.get("required", ()))

        def check(x) -> bool:
            if not isinstance(x, dict):
                return True
            for key in required:
                if key not in x:
                    return False
            for key, value in x.items():
                prop = props.get(key)
                if prop is not None:
                    if not prop(value):
                        return False
                elif extra is not True and (extra is False or not extra(value)):
                    return False
            return True

        return check

    def conditional_check(schema: dict):
        cond, then, other = (compile(schema[key]) if key in schema else None
                             for key in ("if", "then", "else"))

        def check(x) -> bool:
            branch = then if cond(x) else other
            return branch is None or branch(x)

        return check

    def array_check(schema: dict):
        item = compile(schema["items"]) if "items" in schema else None
        low, high = schema.get("minItems", 0), schema.get("maxItems", float("inf"))
        return lambda x: not isinstance(x, list) or (
            low <= len(x) <= high and (item is None or all(map(item, x))))

    for name in defs:  # every entry meets the keyword rule, referenced or not
        ref(f"#/$defs/{name}")
    return compile


class _Schema:
    """One schema, accepted by its compiled check; jsonschema, imported and
    built on the first rejection, explains what the check rejects."""

    def __init__(self, schema: dict, compile):
        self.schema = schema
        self.accepts = compile(schema)
        self._validator = None

    def validator(self):
        if self._validator is None:
            from jsonschema import Draft202012Validator, validators

            # a number is finite here as in the compiled checks
            types = Draft202012Validator.TYPE_CHECKER.redefine(
                "number", lambda _, x: _is_finite_number(x))
            self._validator = validators.extend(Draft202012Validator, type_checker=types)(
                self.schema)
        return self._validator

    def problems(self, instance, path=()) -> list:
        """A (path, message) pair for every jsonschema error of ``instance``
        and for every NaN or infinity in it, whose own paths follow ``path``;
        none when the compiled check accepts."""
        if self.accepts(instance):
            return []
        pairs = _non_finite(instance, list(path))
        for e in self.validator().iter_errors(instance):
            at = [*path, *e.absolute_path]
            if e.validator == "type" and isinstance(e.instance, float) \
                    and not math.isfinite(e.instance):
                continue  # listed by _non_finite
            if e.validator == "required":  # each missing key at its own path
                pairs += [(at, f"{_where(at)}.{key}: required property is missing")
                          for key in e.validator_value if key not in e.instance]
            else:
                pairs.append((at, f"{_where(at)}: {e.message}"))
        return pairs


def _non_finite(instance, path: list) -> list:
    """A (path, message) pair for every NaN or infinity in ``instance``, at
    its own path even inside an ``anyOf`` or ``oneOf``."""
    if isinstance(instance, dict):
        return [pair for key, value in instance.items() for pair in _non_finite(value, [*path, key])]
    if isinstance(instance, list):
        return [pair for i, value in enumerate(instance) for pair in _non_finite(value, [*path, i])]
    if isinstance(instance, float) and not math.isfinite(instance):
        return [(path, f"{_where(path)}: {json.dumps(instance)} is not a finite number")]
    return []


_DEFS = SCENARIO_SCHEMA["$defs"]
_compile_scenario = _compiler(_DEFS)
# one schema per scenario form, keyed on whether the form names a preset 'source'
_FORMS = {
    "source" in form["properties"]: _Schema({"$defs": _DEFS, **form}, _compile_scenario)
    for form in SCENARIO_SCHEMA["oneOf"]
}
_REPORT = _Schema(REPORT_SCHEMA, _compiler(REPORT_SCHEMA.get("$defs", {})))


class ScenarioError(ValueError):
    """Scenario failed schema validation or object construction."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def validate_scenario(raw: dict) -> dict:
    """Schema-check a scenario and return it expanded, reporting every offending field path.

    The ``source`` key picks the form and the task picks the ``args`` rules
    (``$defs/<task>_args``), so each scenario meets one form's and one task's
    rules and every error carries the path of the offending field.  A compact
    form is expanded before its ``args`` are checked.
    """
    if not isinstance(raw, dict):
        raise ScenarioError(["$: scenario must be a JSON object"])
    errors = _FORMS["source" in raw].problems(raw)
    if "source" in raw:
        _check(errors)
        raw = expand_scenario(raw)
    task = raw.get("task")
    if isinstance(task, str) and task in _ARGS:
        errors += _ARGS[task].problems(raw.get("args", {}), ["args"])
    _check(errors + _lattices_given_twice(raw))
    return raw


def _where(path) -> str:
    """A field path as ``$.key[index]...``."""
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def _lattices_given_twice(raw: dict) -> list:
    """A (path, message) pair for each system lattice given both as ``lattice``
    and as the flat ``lattice_gens`` (or both dual spellings): the schema lets
    the pair through, and the build would ignore the ``_gens`` key."""
    systems = raw.get("systems")
    return [(["systems", i, f"{key}_gens"],
             f"$.systems[{i}].{key}_gens: not allowed with {key!r}")
            for i, system in enumerate(systems if isinstance(systems, list) else [])
            if isinstance(system, dict)
            for key in ("lattice", "dual_lattice") if {key, f"{key}_gens"} <= system.keys()]


def _check(errors: list) -> None:
    """Raise a ScenarioError listing the messages of the (path, message) pairs in path order."""
    problems = [message for _, message in sorted(errors, key=lambda pair: pair[0])]
    if problems:
        raise ScenarioError(dict.fromkeys(problems))  # a required error repeats per missing key


_PRESET_ARG_KEYS = ("lambda", "mu", "eta", "use_paper_bounds")


def expand_scenario(raw: dict) -> dict:
    """Resolve the compact preset-reference form into a full scenario."""
    try:
        scenario = build_preset(raw["source"])
    except KeyError as e:
        raise ScenarioError([f"$.source: {e.args[0]}"]) from None
    scenario.setdefault("provenance_preset", raw["source"])
    scenario.update({key: raw[key] for key in ("task", "tolerance") if key in raw})
    args = scenario.setdefault("args", {})
    args.update(raw.get("args", {}))
    args.update({key: raw[key] for key in _PRESET_ARG_KEYS if key in raw})
    return scenario


def load_scenario(path) -> dict:
    """Parse a scenario file; return it validated and expanded."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError([f"$: not valid JSON ({e.msg} at line {e.lineno})"]) from e
    return validate_scenario(raw)


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


def _field(spec: dict, key: str, path: str):
    """``spec[key]``, or a ScenarioError at ``path`` naming the window kind that lacks it."""
    if key not in spec:
        raise ScenarioError([f"{path}.{key}: {spec['window']!r} window needs {key!r}"])
    return spec[key]


def _build_scalar(group: FiniteAbelianGroup, spec, primal: np.ndarray, hat: np.ndarray,
                  path: str) -> complex:
    """Write the scalar window entry at field path ``path`` into ``primal``
    (point values) or, for a ``fourier_indicator``, into ``hat`` (dual-side
    values); return the product of the ``scaled`` factors around it."""
    if spec == 0 or spec is None:
        return 1.0
    kind = spec["window"]
    if kind == "zero":
        return 1.0
    if kind == "scaled":
        return complex(_field(spec, "scale", path)) * _build_scalar(
            group, _field(spec, "of", path), primal, hat, f"{path}.of")
    if kind == "values":
        vals = [_complex_entry(v) for v in _field(spec, "values", path)]
        if len(vals) != group.order:
            raise ScenarioError(
                [f"{path}.values: 'values' must list {group.order} entries, got {len(vals)}"]
            )
        primal[:] = vals
    elif kind == "delta":
        at = [int(c) for c in spec.get("at", [0] * group.rank)]
        primal[group.element(at).index] = spec.get("scale", 1.0)
    elif kind == "fourier_indicator":
        order = group.order
        indices = [int(idx) for idx in _field(spec, "set", path)]
        for idx in indices:
            if not 0 <= idx < order:
                raise ScenarioError(
                    [f"{path}.set: fourier_indicator index {idx} outside the dual group"]
                )
        hat[indices] = spec.get("scale", 1.0)
    else:
        raise ScenarioError([f"{path}.window: unknown scalar window kind {kind!r}"])
    return 1.0


def _build_windows(space: SignalSpace, specs, path: str) -> np.ndarray:
    """The windows at field path ``path`` as one (L, |G|, n, n) stack.  Each
    scalar entry is written into its row of the point values or, for a
    ``fourier_indicator``, of the dual-side values; the dual-side stack takes
    one inverse transform, and one multiply by the ``scaled`` factors follows."""
    group, n = space.group, space.n
    primal = np.zeros((len(specs), group.order, n, n), dtype=np.complex128)
    hat = np.zeros_like(primal)
    factors = np.ones((len(specs), 1, n, n), dtype=np.complex128)
    for l, spec in enumerate(specs):
        window = f"{path}[{l}]"
        if isinstance(spec, dict) and "matrix" in spec:
            grid = spec["matrix"]
            if len(grid) != n or any(len(row) != n for row in grid):
                raise ScenarioError([f"{window}.matrix: matrix window must be {n}x{n}"])
            where = lambda i, j: f"{window}.matrix[{i}][{j}]"
        elif n != 1:
            raise ScenarioError([f"{window}: scalar window given for a matrix system"])
        else:
            grid, where = [[spec]], lambda i, j: window
        for i in range(n):
            for j in range(n):
                factors[l, 0, i, j] = _build_scalar(group, grid[i][j], primal[l, :, i, j],
                                                    hat[l, :, i, j], where(i, j))
    # finite numbers whose product overflows leave an entry inf or nan, which
    # the system's trace bound rejects at its windows
    with np.errstate(over="ignore", invalid="ignore"):
        if hat.any():
            primal += _inverse_fourier_values(space, hat, axis=1)
        return factors * primal


def _build_lattice(group: FiniteAbelianGroup, spec, dual: bool, built: dict) -> Subgroup:
    """The lattice of ``spec``, built once per distinct spec and side into
    ``built``: a Subgroup is read-only, so the systems of a scenario share it."""
    key = (json.dumps(spec), dual)
    if key not in built:
        if spec is None or spec == "full":
            built[key] = Subgroup.full(group, dual=dual)
        elif spec == "trivial":
            built[key] = Subgroup.trivial(group, dual=dual)
        else:
            make = group.dual_element if dual else group.element
            built[key] = Subgroup(group, [make([int(x) for x in c]) for c in spec["gens"]],
                                  dual=dual)
    return built[key]


def _energy(values: np.ndarray) -> float:
    """sum |v|^2 as a Python float: inf when it overflows and nan for a
    non-finite entry, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.vdot(values, values).real)


def _trace_bound(system: GaborSystem) -> float:
    """w |Gamma| |lattice| n sum_l ||g_l||^2, the trace of the frame operator,
    or |lattice| n sum_l ||g_l||^2 when w |Gamma| < 1: a bound on every entry
    of the frame-operator blocks and of the sums they are built from, in
    Python floats (inf when it overflows)."""
    space = system.space
    energy = sum(_energy(w.values) for w in system.windows)
    weight = max(space.weight() * len(system.dual_lattice), 1.0)
    return weight * len(system.lattice) * space.n * energy


def _build_system(group, measure, spec: dict, path: str, lattices: dict) -> GaborSystem:
    """The system at field path ``path``.  Its windows are built as one stack
    with one inverse transform (:func:`_build_windows`); its lattices come
    from ``lattices`` (see :func:`_build_lattice`)."""
    space = SignalSpace(group, int(spec["n"]), measure)
    windows = tuple(MatrixSignal(space, values)
                    for values in _build_windows(space, spec["windows"], f"{path}.windows"))
    # 'lattice_gens' is the flat generator-list spelling of {'gens': ...}
    lat_spec = spec.get("lattice")
    if lat_spec is None and "lattice_gens" in spec:
        lat_spec = {"gens": spec["lattice_gens"]}
    dlat_spec = spec.get("dual_lattice")
    if dlat_spec is None and "dual_lattice_gens" in spec:
        dlat_spec = {"gens": spec["dual_lattice_gens"]}
    lattice = _build_lattice(group, lat_spec, False, lattices)
    dual_lattice = _build_lattice(group, dlat_spec, True, lattices)
    auto = spec.get("automorphism")
    dauto = spec.get("dual_automorphism")
    system = GaborSystem(
        space,
        windows,
        lattice,
        dual_lattice,
        Automorphism(group, auto) if auto is not None else None,
        Automorphism(group, dauto, dual=True) if dauto is not None else None,
    )
    # finite windows whose frame operator overflows are rejected before it is built
    bound = _trace_bound(system)
    if not math.isfinite(bound):
        raise ScenarioError([f"{path}.windows: the frame operator overflows: its trace "
                             "bound is not finite"])
    return system


def _build_operator(group, measure, spec: dict, base_dir: Path) -> SpaceOperator:
    space = SignalSpace(group, int(spec["n"]), measure)
    kind = spec["kind"]
    if kind == "identity":
        return SpaceOperator.identity(space)
    if kind == "zero":
        return SpaceOperator.zero(space)
    if kind == "entry_map":
        if "matrix" not in spec:
            raise ValueError("entry_map needs 'matrix'")
        mat = [[_complex_entry(v) for v in row] for row in spec["matrix"]]
        op = SpaceOperator.from_entry_map(space, np.asarray(mat))
    else:
        if "data_file" not in spec:
            raise ValueError("dense needs 'data_file'")
        path = base_dir / spec["data_file"]
        # layout: row-major complex128 little-endian, shape (dim, dim)
        data = np.fromfile(path, dtype="<c16")
        dim = space.dim
        if data.size != dim * dim:
            raise ValueError(f"{path} holds {data.size} values, need {dim * dim}")
        op = SpaceOperator.from_dense(space, data.reshape(dim, dim))
    # the grams T T* and T* T are bounded by ||T||_F^2, so it must be finite
    if not math.isfinite(_energy(op._rep())):
        raise ValueError("the operator's grams overflow: its squared Frobenius norm "
                         "is not finite")
    return op


def _built(path: str, build, *args):
    """``build(*args)``, with a library ValueError, a file's OSError, or the
    MemoryError or OverflowError of an absurd size or integer, re-raised as a
    ScenarioError at ``path``."""
    try:
        return build(*args)
    except ScenarioError:
        raise
    except (ValueError, OSError, MemoryError, OverflowError) as e:
        raise ScenarioError([f"{path}: {e}"]) from e


def _named(scenario: dict, key: str, build) -> dict:
    """The objects ``build(spec, path)`` builds from the specs under ``key``,
    by their unique names."""
    table = {}
    for i, spec in enumerate(scenario.get(key, [])):
        path = f"$.{key}[{i}]"
        if spec["name"] in table:
            raise ScenarioError([f"{path}.name: duplicate name {spec['name']!r}"])
        table[spec["name"]] = _built(path, build, spec, path)
    return table


# ---------------------------------------------------------------------------
# task execution


def _need(args: dict, key: str, table: dict, what: str):
    name = args.get(key)
    if name is None or name not in table:
        raise ScenarioError([f"$.args.{key}: must name a declared {what}"])
    return table[name]


def _cross_check_findings(label: str, report) -> list[str]:
    """A finding, naming the report by ``label``, for every reported constant
    that fails its residual certificate."""
    findings = []
    for side, name in (("lower", "alpha"), ("upper", "beta")):
        cert = report.cross_check.get(f"{name}_certificate")
        if cert is not None and not cert["holds"]:
            findings.append(
                f"{label} report: the {side} constant fails its residual certificate "
                f"(min eigenvalue {cert['min_eig_at']} at it, {cert['min_eig_past']} "
                f"past it, slack {cert['slack']})"
            )
    return findings


def _check_cross_references(task: str, args: dict, systems: dict, operators: dict) -> None:
    """Systems and operators a task pairs must share n; perturbation and sum
    pairs must also share the window count, the lattices and the automorphisms.
    Unknown names are left to the task."""
    if task == "tight_construct" or args.get("system") not in systems:
        return  # that construction's operator acts on the requested dimension
    ref, problems = systems[args["system"]], []
    for key, name in args.items():
        table = systems if key.endswith("system") else operators if key.endswith("operator") else {}
        if not isinstance(name, str) or name not in table:
            continue
        other, paired = table[name], key in ("perturbed_system", "second_system")
        if other.space.n != ref.space.n:
            problems.append(f"$.args.{key}: {name!r} has n={other.space.n}, "
                            f"but system {args['system']!r} has n={ref.space.n}")
        elif paired and len(other.windows) != len(ref.windows):
            problems.append(f"$.args.{key}: {name!r} has {len(other.windows)} windows, "
                            f"but system {args['system']!r} has {len(ref.windows)}")
        elif paired and not _same_lattices(other, ref):
            problems.append(f"$.args.{key}: {name!r} has other lattices or automorphisms "
                            f"than system {args['system']!r}")
    if problems:
        raise ScenarioError(problems)


def spectra_file(base, label: str, single: bool) -> Path:
    """``base`` for a single spectrum, else ``<stem>_<label><suffix or .csv>`` beside it."""
    base = Path(base)
    return base if single else base.with_name(f"{base.stem}_{label}{base.suffix or '.csv'}")


@dataclass
class _Outcome:
    """A task's result: report objects (or dicts of them and plain values)
    serialised as ``results``, the bounds reports whose spectra may be
    written, keyed by file label, findings and provenance entries.  A failed
    certificate of any of those bounds reports is a finding too, added by
    :func:`run_scenario`."""

    results: object
    spectra: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)


def _as_json(value):
    """A result as JSON: its own ``to_json_dict`` if it has one, else a dataclass
    as its fields (less those marked ``metadata={"json": False}``) and a dict by
    its values, each serialised in turn."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if is_dataclass(value):
        return {f.name: _as_json(getattr(value, f.name)) for f in fields(value)
                if f.metadata.get("json", True)}
    if isinstance(value, dict):
        return {key: _as_json(v) for key, v in value.items()}
    return value


def _pinned(args: dict, key: str):
    """The bound pair under ``key`` when ``use_paper_bounds`` pins it, else None."""
    return tuple(float(v) for v in args[key]) if args.get("use_paper_bounds") else None


def _prediction_findings(task: str, prediction) -> list[str]:
    findings = []
    if prediction.lower_valid is False:
        findings.append(f"{task}: predicted lower bound exceeds the computed optimal one")
    if prediction.upper_valid is False:
        findings.append(f"{task}: predicted upper bound undercuts the computed optimal one")
    return findings


def _ordinary_bounds(args, systems, operators, tol) -> _Outcome:
    names = args["systems"] if "systems" in args else list(systems)
    for name in names:
        if name not in systems:
            raise ScenarioError([f"$.args.systems: unknown system {name!r}"])
    reports = {name: ordinary_bounds(systems[name], tol) for name in names}
    return _Outcome(reports, reports)


def _theta_bounds(args, systems, operators, tol) -> _Outcome:
    # one build and one solve serve the ordinary and controlled reports and the
    # promotion's predictions, which are checked only when its hypothesis holds
    promotion = bounded_below_promotion(_need(args, "system", systems, "system"),
                                        _need(args, "operator", operators, "operator"), tol)
    return _Outcome(promotion, {"ordinary": promotion.ordinary,
                                "controlled": promotion.controlled},
                    _prediction_findings("theta_bounds", promotion))


def _operator_diagnostics(args, systems, operators, tol) -> _Outcome:
    return _Outcome({"operator": diagnostics(_need(args, "operator", operators, "operator"), tol)})


def _tight_construct(args, systems, operators, tol) -> _Outcome:
    source = _need(args, "source_system", systems, "system")
    theta = _need(args, "operator", operators, "operator")
    if source.space.n != 1:
        raise ScenarioError(["$.args.source_system: source must be scalar (n=1)"])
    try:
        construction = tight_theta_frame(
            float(args.get("tightness", 1.0)), source, int(args["dimension"]), theta, tol
        )
    except ValueError as e:
        raise ScenarioError([f"$.args.source_system: {e}"]) from e
    if not construction.hypothesis_ok:
        return _Outcome(construction,
                        findings=[f"tight_construct: {r}" for r in construction.reasons])
    t, rep = construction.tightness, construction.diagonal_report
    findings = []
    if not (rep.tight and all(valid_bounds(rep, t, t, tol))):
        findings.append(
            f"tight_construct: diagonal system is not {t}-tight "
            f"(bounds {rep.alpha_opt}, {rep.beta_opt})"
        )
    if not (construction.lower_valid and construction.upper_valid):
        findings.append("tight_construct: requested tightness is not a valid bound pair")
    return _Outcome(construction, {"diagonal": rep, "image": construction.image_report},
                    findings)


def _omega_check(args, systems, operators, tol) -> _Outcome:
    # one build and one solve serve the omega report and the controlled report
    omega = omega_characterization(_need(args, "system", systems, "system"),
                                   _need(args, "operator", operators, "operator"), tol)
    controlled = omega.controlled
    findings = []
    if not omega.basis_condition:
        findings.append("omega_check: synthesis operator misses the coefficient basis")
    if omega.max_gram_deviation > tol * controlled.spectra["frame_operator"][-1]:
        findings.append(
            f"omega_check: Omega Omega^* deviates from the frame operator by "
            f"{omega.max_gram_deviation}"
        )
    # the omega verdicts are the controlled report's, so they agree by construction
    return _Outcome({"omega": omega, "controlled": controlled, "verdicts_agree": True},
                    {"controlled": controlled}, findings)


def _image_check(args, systems, operators, tol) -> _Outcome:
    system = _need(args, "system", systems, "system")
    outer = _need(args, "operator", operators, "operator")
    if args.get("inner_operator"):
        inner = _need(args, "inner_operator", operators, "operator")
        report = check_composed_image(outer, inner, system, tol)
    else:
        report = check_image_frame(outer, system, tol)
    findings = []
    if all(v for v in report.hypotheses.values() if isinstance(v, bool)) \
            and report.bounds_valid is False:
        findings.append(
            "image_check: hypotheses hold but the source bounds are not valid "
            "for the image family"
        )
    return _Outcome(report, {"source": report.source_report, "image": report.image_report},
                    findings)


def _stability_outcome(task: str, label: str, check, prediction) -> _Outcome:
    """A stability check's outcome: its hypothesis and prediction, the report of
    the perturbed (or summed) system under ``label``, and findings on the
    prediction, which is applicable only when the hypothesis holds."""
    report = prediction.perturbed_report
    return _Outcome(
        {"hypothesis": check, "prediction": prediction},
        {} if report is None else {label: report},
        _prediction_findings(task, prediction) if prediction.applicable else [],
        {"bounds_source": check.bounds_source},
    )


def _pert_check(args, systems, operators, tol) -> _Outcome:
    system = _need(args, "system", systems, "system")
    perturbed = _need(args, "perturbed_system", systems, "system")
    theta = _need(args, "operator", operators, "operator")
    coefficients = [float(args.get(key, 0.0)) for key in ("lambda", "mu", "eta")]
    # lambda S + mu T T* + eta T* T, term by term in Python floats before it is
    # formed: S is bounded by its trace bound, both grams by ||T||_F^2, and
    # both bounds are finite since the system and the operator were built
    gram = _energy(theta._rep())
    total = 0.0
    for key, coefficient, scale in zip(("lambda", "mu", "eta"), coefficients,
                                       (_trace_bound(system), gram, gram)):
        total += coefficient * scale
        if not math.isfinite(total):
            raise ScenarioError([f"$.args.{key}: the term {key} * {scale!r} of the "
                                 "domination bound overflows"])
    check, prediction = verify_perturbation(
        system, perturbed, theta, *coefficients, _pinned(args, "paper_bounds"), tol,
    )
    return _stability_outcome("pert_check", "perturbed", check, prediction)


def _sum_check(args, systems, operators, tol) -> _Outcome:
    system = _need(args, "system", systems, "system")
    second = _need(args, "second_system", systems, "system")
    theta = _need(args, "operator", operators, "operator")
    try:
        check, prediction = verify_sum(
            system, second, theta, _pinned(args, "paper_bounds_first"),
            _pinned(args, "paper_bounds_second"), tol,
        )
    except ValueError as e:  # the second system's upper bound, pinned or computed
        key = "paper_bounds_second" if args.get("use_paper_bounds") else "second_system"
        raise ScenarioError([f"$.args.{key}: {e}"]) from e
    return _stability_outcome("sum_check", "summed", check, prediction)


# task name -> handler(args, systems, operators, tol); the schemas' task enums list these keys
TASKS = {
    "ordinary_bounds": _ordinary_bounds,
    "theta_bounds": _theta_bounds,
    "hyponormal": _operator_diagnostics,
    "adjointable": _operator_diagnostics,
    "tight_construct": _tight_construct,
    "omega_check": _omega_check,
    "image_check": _image_check,
    "pert_check": _pert_check,
    "sum_check": _sum_check,
}
# one args schema per task, keyed by the task: its $defs/<task>_args entry
_ARGS = {task: _Schema({"$defs": _DEFS, **_DEFS[f"{task}_args"]}, _compile_scenario)
         for task in TASKS}


def run_scenario(scenario: dict, base_dir=None, tol: float | None = None,
                 spectra_path=None) -> dict:
    """Execute a validated scenario and return its report dictionary.

    ``spectra_path`` writes one ascending-eigenvalue CSV per bounds report
    (suffixed with the report's label) and records the file names.
    """
    start = time.perf_counter()
    base_dir = Path(base_dir) if base_dir else Path.cwd()
    tolerance = float(tol if tol is not None else scenario.get("tolerance", DEFAULT_TOL))
    if not 0.0 < tolerance < float("inf"):  # NaN fails too
        raise ScenarioError([f"$.tolerance: must be a finite number > 0, got {tolerance!r}"])
    group, measure = _built("$.group", _build_group, scenario["group"])
    lattices: dict = {}
    systems = _named(scenario, "systems",
                     lambda spec, path: _build_system(group, measure, spec, path, lattices))
    operators = _named(scenario, "operators",
                       lambda spec, path: _build_operator(group, measure, spec, base_dir))
    args = scenario.get("args", {})
    _check_cross_references(scenario["task"], args, systems, operators)
    outcome = TASKS[scenario["task"]](args, systems, operators, tolerance)
    for label, rep in outcome.spectra.items():
        outcome.findings += _cross_check_findings(f"{scenario['task']}: {label}", rep)
    if "provenance_preset" in scenario:
        outcome.provenance["preset"] = scenario["provenance_preset"]

    spectra_files = {}
    if spectra_path is not None:
        for label, rep in outcome.spectra.items():
            name = spectra_file(spectra_path, label, len(outcome.spectra) == 1)
            lines = "".join(f"{i},{v!r}\n" for i, v in enumerate(rep.spectra["frame_operator"]))
            with open(name, "w", encoding="utf-8") as fh:
                fh.write("index,eigenvalue\n" + lines)
            spectra_files[label] = rep.spectrum_file = str(name)

    scenario_echo = {k: v for k, v in scenario.items() if k != "provenance_preset"}
    report = {
        "toolkit_version": __version__,
        "task": scenario["task"],
        "tolerance": tolerance,
        "scenario": scenario_echo,
        "results": _as_json(outcome.results),
        "findings": outcome.findings,
        "provenance": {**outcome.provenance, "spectra_files": spectra_files},
        "timing_seconds": time.perf_counter() - start,
    }
    if not _REPORT.accepts(report):
        _REPORT.validator().validate(report)
    return report
