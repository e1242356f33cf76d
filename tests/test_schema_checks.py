"""The compiled schema checks against jsonschema, which explains what they reject.

A scenario or report is accepted when its compiled check says valid; only a
rejection runs jsonschema, whose messages and paths are the ones reported.
The checks must agree with jsonschema's Draft 2020-12 validator on every
input, and above all never accept what it rejects.
"""

import copy
import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from gaborop.presets import PRESETS, build_preset
from gaborop.scenario import (
    _ARGS,
    _DEFS,
    _FORMS,
    _REPORT,
    REPORT_SCHEMA,
    SCENARIO_SCHEMA,
    TASKS,
    _compiler,
    _Schema,
    run_scenario,
    validate_scenario,
)

_COMPACT = [
    {"source": "pertexa"},
    {"source": "pertexa", "lambda": 0.0, "mu": 0.2, "eta": 0.2, "use_paper_bounds": True},
    {"source": "sumexa", "use_paper_bounds": True, "tolerance": 1e-8},
    {"source": "thm2-tight", "task": "tight_construct", "args": {"tightness": 2.0}},
    {"source": "exb1", "args": {"systems": ["phi1-system"]}},
]


def _explicit_weights() -> dict:
    """exb1 with its weights and tolerance spelled out, so both
    ``exclusiveMinimum`` bounds sit in a base."""
    scenario = build_preset("exb1")
    scenario["group"]["weight_convention"] = {"w_group": 1 / 16, "w_dual": 1.0}
    scenario["tolerance"] = 1e-9
    return scenario


_BASES = [build_preset(name) for name in PRESETS] + _COMPACT + [_explicit_weights()]

_SCENARIO_CHECK = _compiler(_DEFS)(SCENARIO_SCHEMA)
_SCENARIO_VALIDATOR = Draft202012Validator(SCENARIO_SCHEMA)
_FORM_VALIDATORS = {compact: Draft202012Validator(form.schema) for compact, form in _FORMS.items()}
_ARGS_VALIDATORS = {task: Draft202012Validator(schema.schema) for task, schema in _ARGS.items()}


def _property_names(schema) -> set:
    """Every key named under a ``properties`` anywhere in ``schema``."""
    if isinstance(schema, list):
        return set().union(*map(_property_names, schema))
    if not isinstance(schema, dict):
        return set()
    names = set(schema.get("properties", {}))
    return names.union(*map(_property_names, schema.values()))


_KEYS = sorted(_property_names(SCENARIO_SCHEMA) | _property_names(REPORT_SCHEMA) | {"bogus"})
_VALUES = [0, 1, -1, 2.5, -0.5, 3.0, float("nan"), float("inf"), True, False, None, "x",
           "full", "torus_like", "pert_check", [], [0], [1, 2], [[1]], [[1, 2]], {},
           {"gens": [[1]]}, {"w_group": 1.0, "w_dual": -1.0}]
_WINDOWS = [0, 0.0, 1, False, None, "zero", [], {}, {"window": "zero"}, {"window": "bogus"},
            {"window": "delta"}, {"window": "delta", "at": [1], "scale": -2.0},
            {"window": "delta", "at": 1}, {"window": "values", "values": [1, [0, 1], [1]]},
            {"window": "fourier_indicator", "set": [0, 2]},
            {"window": "fourier_indicator", "set": [-1]},
            {"window": "scaled", "scale": 2.0, "of": {"window": "zero"}},
            {"window": "scaled", "scale": "x", "of": 0},
            {"window": "scaled", "of": {"window": "scaled", "of": {"bogus": 1}}},
            {"matrix": [[0, {"window": "zero"}], [{"window": "delta"}, 0]]},
            {"matrix": [[1]]}, {"matrix": 0}, {"matrix": [[0]], "window": "zero"}]


def _nodes(doc, path=()):
    """(path, value) for ``doc`` and every value inside it."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, (*path, i))


def _is_window(path) -> bool:
    """Whether ``path`` holds a window: an item of ``windows``, an entry of a
    window's ``matrix`` or a scaled window's ``of``."""
    return len(path) >= 3 and "windows" in path[:-1] and (
        path[-2] == "windows" or path[-1] == "of" or path[-3] == "matrix")


def _draw(data, pool):
    """A copy of a drawn entry of ``pool``: a later mutation must not edit the pool."""
    return copy.deepcopy(data.draw(st.sampled_from(pool)))


def _drop_key(data, value):
    if isinstance(value, dict) and value:
        value = dict(value)
        del value[data.draw(st.sampled_from(sorted(value)))]
    return value


def _add_key(data, value):
    if isinstance(value, dict):
        value = {**value, data.draw(st.sampled_from(_KEYS)): _draw(data, _VALUES)}
    return value


def _negate(data, value):
    """``-value``, ``-1`` for a zero, or zero: the two sides of every lower bound."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return data.draw(st.sampled_from([-value if value else -1, 0 * value]))
    return value


_MUTATIONS = {
    "drop-key": (lambda path, value: isinstance(value, dict) and value, _drop_key),
    "add-key": (lambda path, value: isinstance(value, dict), _add_key),
    "swap-type": (lambda path, value: True, lambda data, value: _draw(data, _VALUES)),
    "negate": (lambda path, value: isinstance(value, (int, float))
               and not isinstance(value, bool), _negate),
    "empty-list": (lambda path, value: isinstance(value, list), lambda data, value: []),
    "replace-window": (lambda path, value: _is_window(path),
                       lambda data, value: _draw(data, _WINDOWS)),
}


@st.composite
def _mutated(draw, bases):
    """A deep copy of one of ``bases`` with one to three drawn mutations, each
    at a drawn node that the mutation applies to."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    data = draw(st.data())
    for _ in range(draw(st.integers(1, 3))):
        applies, mutate = _MUTATIONS[draw(st.sampled_from(sorted(_MUTATIONS)))]
        paths = [path for path, value in _nodes(doc) if applies(path, value)]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        if not path:
            doc = mutate(data, doc)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = mutate(data, parent[path[-1]])
    return doc


def _valid(validator, instance) -> bool:
    return next(iter(validator.iter_errors(instance)), None) is None


def test_checks_accept_every_preset_and_compact_form(monkeypatch):
    # the happy path never builds a jsonschema validator
    monkeypatch.setattr(_Schema, "validator", lambda self: pytest.fail("jsonschema reached"))
    for base in _BASES:
        assert _SCENARIO_CHECK(base)
        validate_scenario(base)
    for name in PRESETS:
        run_scenario(build_preset(name))


@settings(max_examples=400)
@given(_mutated(_BASES))
def test_scenario_checks_agree_with_jsonschema(doc):
    assert _SCENARIO_CHECK(doc) == _valid(_SCENARIO_VALIDATOR, doc)
    if isinstance(doc, dict):
        compact = "source" in doc
        assert _FORMS[compact].accepts(doc) == _valid(_FORM_VALIDATORS[compact], doc)
        args = doc.get("args", {})
        for task in TASKS:
            assert _ARGS[task].accepts(args) == _valid(_ARGS_VALIDATORS[task], args), task


@pytest.fixture(scope="module")
def reports():
    return [run_scenario(build_preset(name)) for name in ("exb1", "pertexa", "thm2-tight")]


def test_report_check_agrees_with_jsonschema(reports):
    validator = Draft202012Validator(REPORT_SCHEMA)

    @settings(max_examples=200)
    @given(_mutated(reports))
    def agree(report):
        assert _REPORT.accepts(report) == _valid(validator, report)

    for report in reports:
        assert _REPORT.accepts(report)
    agree()


_RECURSIVE = {"$defs": {"node": {"type": "object", "additionalProperties": False,
                                  "properties": {"next": {"$ref": "#/$defs/node"}}}},
              "$ref": "#/$defs/node"}


@pytest.mark.parametrize("schema,instances", [
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, [1, 1.0, 1.5, "1", True]),
    ({"anyOf": [{"type": "number"}, {"type": "integer"}]}, [1, 1.5, "1", None]),
    ({"const": True}, [True, 1, 1.0, False, "true"]),
    ({"const": 0}, [0, 0.0, -0.0, False, None, [0]]),
    ({"enum": ["a", "b"]}, ["a", "c", ["a"], None]),
    ({"type": "integer", "minimum": 1}, [1, 1.0, 0, 2.5, True, float("nan"), float("inf")]),
    ({"type": "number", "exclusiveMinimum": 0}, [0, 0.0, 1e-300, -1, float("nan"), True]),
    ({"minimum": 0}, [-1, "x", None, [-1], False]),
    ({"type": "array", "items": {"type": "string"}, "minItems": 1, "maxItems": 2},
     [[], ["a"], ["a", "b", "c"], [1], "ab", ("a",)]),
    ({"type": "object", "required": ["a"], "properties": {"a": {"type": "boolean"}}},
     [{"a": False}, {"a": 0}, {}, {"b": None, "a": True}, [("a", True)]]),
    ({"additionalProperties": {"type": "boolean"}, "properties": {"a": {}}},
     [{"a": 1, "b": True}, {"b": 0}, 3]),
    ({"if": {"type": "string"}, "then": {"enum": ["x"]}}, ["x", "y", 0]),
    ({"if": {"type": "string"}, "else": {"const": 0}}, ["y", 0, 1]),
    (_RECURSIVE, [{}, {"next": {"next": {}}}, {"next": {"next": {"bad": 1}}}, {"next": 0}]),
])
def test_compiled_keywords_match_jsonschema(schema, instances):
    # each keyword's edge cases, where a schema of this package may not reach
    check = _compiler(schema.get("$defs", {}))(schema)
    validator = Draft202012Validator(schema)
    for instance in instances:
        assert check(instance) == _valid(validator, instance), instance


@pytest.mark.parametrize("where,keyword,value", [
    (("oneOf", 0, "properties", "source"), "pattern", "^[a-z]"),
    (("$defs", "bound_pair"), "uniqueItems", True),
    (("$defs", "scalar_window", "then", "properties", "at"), "maxContains", 1),
    (("oneOf", 1, "properties", "description"), "$ref", "other.schema.json#/x"),
    (("oneOf", 1, "properties", "task"), "type", ["string", "null"]),
    (("oneOf", 1, "properties", "description"), "type", "null"),
    (("oneOf", 1, "properties", "description"), "const", None),
])
def test_unsupported_schema_keyword_raises(where, keyword, value):
    # a schema edit the compiler does not cover fails at import, never unchecked
    schema = copy.deepcopy(SCENARIO_SCHEMA)
    node = schema
    for step in where:
        node = node[step]
    node[keyword] = value
    with pytest.raises(ValueError):
        _compiler(schema["$defs"])(schema)


def _run(args, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (
        os.path.join(os.path.dirname(__file__), os.pardir, "src"),
        os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env=env)


def test_valid_run_does_not_import_jsonschema(tmp_path):
    code = textwrap.dedent("""
        import sys
        import gaborop.cli
        code = gaborop.cli.main(["--preset", "exb1", "--out", "report.json"])
        print(code, "jsonschema" in sys.modules)
    """)
    result = _run(["-c", code], tmp_path)
    assert result.stdout.split() == ["0", "False"], result.stderr
    assert json.loads((tmp_path / "report.json").read_text())["task"] == "ordinary_bounds"


def test_invalid_scenario_file_exits_2_in_a_fresh_process(tmp_path):
    scenario = build_preset("pertexa")
    scenario["systems"][0]["windows"][0]["matrix"][0][1].update({"scale": "x"})
    (tmp_path / "bad.json").write_text(json.dumps(scenario))
    result = _run(["-m", "gaborop.cli", "--scenario", "bad.json"], tmp_path)
    assert result.returncode == 2
    assert ("scenario error: $.systems[0].windows[0].matrix[0][1].scale: "
            "'x' is not of type 'number'") in result.stderr.splitlines()
