"""Scenario leaves given in another form: integral floats, absurd sizes, and a
one-leaf mutation fuzz of every preset through the command line."""

import contextlib
import copy
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborop import groups
from gaborop.cli import main
from gaborop.presets import PRESETS, build_preset
from gaborop.scenario import run_scenario, validate_scenario


def _leaves(node, path=()):
    """(path, value) of every scalar or empty list in ``node``, in order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path, node


def _replaced(scenario: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(scenario)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _delta_at() -> dict:
    # no preset places a delta window, so exb1's first window becomes one
    scenario = build_preset("exb1")
    scenario["systems"][0]["windows"] = [{"window": "delta", "at": [3]}]
    return scenario


_BASES = {**{name: build_preset(name) for name in PRESETS}, "delta-at": _delta_at()}


def _comparable(report: dict) -> dict:
    return {key: value for key, value in report.items()
            if key not in ("timing_seconds", "scenario")}


@pytest.mark.parametrize("name", list(_BASES))
def test_integral_float_leaves_give_the_int_report(name):
    # JSON Schema's integer admits 2.0, so every integer leaf given as its
    # float must give the int form's report (the echo keeps the float)
    base = _BASES[name]
    expected = _comparable(run_scenario(validate_scenario(copy.deepcopy(base))))
    leaves = [(path, value) for path, value in _leaves(base) if _is_int(value)]
    assert leaves
    for path, value in leaves:
        # a span memoised for the int generators would hide float coordinates
        groups._span_minima.cache_clear()
        report = run_scenario(validate_scenario(_replaced(base, path, float(value))))
        assert _comparable(report) == expected, path


@pytest.mark.parametrize("preset,path,value,where", [
    ("exb1", ("systems", 0, "n"), 10**7, "$.systems[0]: Unable to allocate"),
    ("exb1", ("systems", 0, "n"), 2e200, "$.systems[0]: Maximum allowed dimension exceeded"),
    ("remark-theta0", ("operators", 0, "n"), 10**7, "$.operators[0]: "),
    ("remark-theta0", ("operators", 0, "n"), 2e200, "$.operators[0]: "),
    ("exb1", ("systems", 1, "automorphism"), [[2e200]], "$.systems[1]: "),
], ids=["system-n", "system-n-float", "operator-n", "operator-n-float", "automorphism"])
def test_absurd_sizes_exit_2_at_their_spec(tmp_path, capsys, preset, path, value, where):
    # each request is above any address space (22.7 PiB for n = 10**7 at
    # |G| = 16), so it fails before anything is allocated
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(_replaced(build_preset(preset), path, value)))
    assert main(["--scenario", str(file), "--strict"]) == 2
    assert f"scenario error: {where}" in capsys.readouterr().err


def _smallest(name: str) -> dict:
    """A preset on |G| = 8: resolution 1, or order 8 for the tight constructions."""
    return build_preset(name, **({"order": 8} if name.startswith(("thm2", "ex-after"))
                                 else {"resolution": 1}))


_SMALL = {name: _smallest(name) for name in PRESETS}
# every leaf but the group's factors, which would grow the group
_FUZZ_LEAVES = [(name, path, value) for name, scenario in _SMALL.items()
                for path, value in _leaves(scenario) if path[:2] != ("group", "factors")]
_FIXED = [-1, 0, 10**7, 2e200, "x", None, []]


@st.composite
def _mutations(draw):
    name, path, value = draw(st.sampled_from(_FUZZ_LEAVES))
    replacement = draw(st.sampled_from(([float(value)] if _is_int(value) else []) + _FIXED))
    return name, path, replacement


@settings(max_examples=800)
@given(mutation=_mutations())
def test_one_leaf_mutation_exits_0_2_or_3(tmp_path_factory, mutation):
    # through the command line, with warnings as errors: a mutated preset
    # runs (0), is rejected at a field path (2) or carries a finding (3),
    # and never raises
    name, path, replacement = mutation
    file = tmp_path_factory.getbasetemp() / "mutated.json"
    file.write_text(json.dumps(_replaced(_SMALL[name], path, replacement)))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["--strict", "--scenario", str(file)])
    assert code in (0, 2, 3)
    if code == 2:
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("scenario error: ")]
        assert errors and all("$." in line for line in errors), err.getvalue()
