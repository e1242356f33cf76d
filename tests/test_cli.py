"""Command-line runner: presets, scenario files, reports, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaborop.cli import main
from gaborop.presets import PRESETS, build_preset, list_presets
from gaborop.scenario import (
    REPORT_SCHEMA,
    SCENARIO_SCHEMA,
    TASKS,
    ScenarioError,
    load_scenario,
    run_scenario,
    validate_scenario,
)
from helpers import corrupt_constant, record_solves

REQUIRED_PRESETS = {
    "exb1", "remark-theta0", "exper1-negative", "pertexa",
    "sumexa", "ex2-negative", "thm2-tight", "ex-after-thm2",
}


def test_preset_registry_contents():
    names = {name for name, _ in list_presets()}
    assert REQUIRED_PRESETS <= names
    assert len(names) >= 8
    for name, description in list_presets():
        assert description


def test_list_presets_output(capsys):
    assert main(["--list-presets"]) == 0
    out = capsys.readouterr().out
    assert "exb1" in out and "sumexa" in out


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once; options of one call never leak into the next
    out = tmp_path / "report.json"
    assert main(["--preset", "exb1", "--preset", "sumexa", "--out", str(tmp_path)]) == 0
    assert main(["--preset", "exb1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["provenance"]["preset"] == "exb1"
    assert main([]) == 2
    assert "nothing to do" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--no-such-option"])
    assert exc.value.code == 2


def test_run_preset_exb1(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["--preset", "exb1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["phi1-system"]["alpha_opt"] == pytest.approx(8.0, abs=1e-9)
    assert report["results"]["phi2-system"]["alpha_opt"] == pytest.approx(2.0, abs=1e-9)
    assert report["results"]["phi1-system"]["tight"]
    assert report["provenance"]["preset"] == "exb1"


def test_run_preset_pertexa(tmp_path):
    out = tmp_path / "report.json"
    assert main(["--preset", "pertexa", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    pred = report["results"]["prediction"]
    assert pred["predicted_lower"] == pytest.approx(0.25, abs=1e-9)
    assert pred["predicted_upper"] == pytest.approx(22.0, abs=1e-9)
    assert pred["lower_valid"] and pred["upper_valid"]
    assert report["results"]["hypothesis"]["holds"]
    assert report["provenance"]["bounds_source"] == "computed"


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err


def test_schema_violation_lists_field_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "task": "no_such_task",
        "group": {"factors": [8]},
        "systems": [],
    }))
    assert main(["--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "$.task" in err


def test_scenario_error_collects_all_paths(tmp_path):
    raw = {
        "task": "theta_bounds",
        "group": {"factors": [0]},
        "systems": [{"name": "x", "n": 0, "windows": []}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    joined = " ".join(exc.value.problems)
    assert "factors" in joined
    assert ".n" in joined


def test_report_determinism():
    for name in PRESETS:
        rep1 = run_scenario(build_preset(name))
        rep2 = run_scenario(build_preset(name))
        rep1.pop("timing_seconds")
        rep2.pop("timing_seconds")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_strict_mode_flags_hypothesis_findings(tmp_path, capsys):
    # a tight construction driven by a non-hyponormal control operator must
    # surface findings and fail under --strict
    scenario = build_preset("thm2-tight")
    scenario["operators"] = [
        {"name": "control", "kind": "entry_map", "n": 2,
         "matrix": [[0, 0, 0, 2], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]}
    ]
    path = tmp_path / "bad_construct.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 0
    capsys.readouterr()
    assert main(["--scenario", str(path), "--strict"]) == 3
    err = capsys.readouterr().err
    assert "finding" in err and "hyponormal" in err


def test_spectra_csv(tmp_path):
    out = tmp_path / "report.json"
    spectra = tmp_path / "spectra.csv"
    assert main(["--preset", "exb1", "--out", str(out), "--spectra", str(spectra)]) == 0
    written = sorted(tmp_path.glob("spectra_*.csv"))
    assert len(written) == 2  # one per system
    lines = written[0].read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)
    report = json.loads(out.read_text())
    assert report["provenance"]["spectra_files"]
    # each bounds report records the file it was dumped to
    assert report["results"]["phi1-system"]["spectrum_file"].endswith(".csv")


def test_spectra_csv_holds_every_eigenvalue_by_repr(tmp_path, monkeypatch):
    # each file is the header line, then "i,repr(v)" for every eigenvalue of
    # its report's spectrum, in order, and nothing else
    outcomes = []
    task = TASKS["ordinary_bounds"]
    monkeypatch.setitem(TASKS, "ordinary_bounds",
                        lambda *args: outcomes.append(task(*args)) or outcomes[-1])
    report = run_scenario(build_preset("exb1"), spectra_path=tmp_path / "spectra.csv")
    (outcome,) = outcomes
    files = report["provenance"]["spectra_files"]
    assert sorted(files) == sorted(outcome.spectra) and len(files) == 2
    for label, name in files.items():
        spectrum = outcome.spectra[label].spectra["frame_operator"]
        want = "index,eigenvalue\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(spectrum))
        assert Path(name).read_bytes() == want.encode("utf-8")


def test_compact_preset_scenario_form(tmp_path):
    path = tmp_path / "compact.json"
    path.write_text(json.dumps({
        "source": "pertexa",
        "lambda": 0.0,
        "mu": 0.2,
        "eta": 0.2,
        "use_paper_bounds": True,
    }))
    scenario = load_scenario(path)
    report = run_scenario(scenario, base_dir=tmp_path)
    assert report["provenance"]["bounds_source"] == "paper_pinned"
    assert report["results"]["prediction"]["predicted_lower"] == pytest.approx(0.25)


def test_dense_operator_from_file(tmp_path):
    # a dense operator file reproducing the entry map gives the same report
    scenario = build_preset("exper1-negative")
    n_points = scenario["group"]["factors"][0]
    L = np.diag([1.0, 0.0, 0.0, 0.0]).astype(np.complex128)
    dense = np.kron(np.eye(n_points), L)
    dense.astype("<c16").tofile(tmp_path / "op.bin")
    scenario["operators"] = [
        {"name": "projector", "kind": "dense", "n": 2, "data_file": "op.bin"}
    ]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(scenario))
    loaded = load_scenario(path)
    report = run_scenario(loaded, base_dir=tmp_path)
    assert not report["results"]["controlled"]["upper_exists"]
    reference = run_scenario(build_preset("exper1-negative"))
    assert report["results"]["controlled"]["lower_exists"] == \
        reference["results"]["controlled"]["lower_exists"]


@pytest.mark.parametrize("preset", ["prop1a-image", "ex-after-thm2"])
def test_dense_split_image_takes_the_coset_blocks(tmp_path, preset):
    # the entry map written out as the dense kron(I, M) maps each coset into
    # itself: its image is a Gabor system on the coset blocks, with the
    # verdicts and (to 1e-12 relative) the constants of the entry map's report
    scenario = build_preset(preset)
    spec = scenario["operators"][0]
    matrix = np.array(spec["matrix"], dtype=np.complex128)
    np.kron(np.eye(scenario["group"]["factors"][0]), matrix).astype("<c16").tofile(
        tmp_path / "op.bin")
    scenario["operators"] = [{"name": spec["name"], "kind": "dense", "n": spec["n"],
                              "data_file": "op.bin"}]
    have = run_scenario(validate_scenario(scenario), base_dir=tmp_path)["results"]
    have = have["image_report"]
    want = run_scenario(build_preset(preset))["results"]["image_report"]
    assert have["route"]["name"] == "walnut"
    assert have["route"]["reason"] == "dense, zero off the coset blocks"
    for name in ("lower_exists", "upper_exists", "tight"):
        assert have[name] == want[name]
    for name in ("alpha_opt", "beta_opt"):
        assert have[name] == pytest.approx(want[name], rel=1e-12, abs=0.0)


def test_values_window_scenario(tmp_path):
    # explicit [re, im] value lists reproduce the tight delta-window system
    values = [[0.0, 0.0]] * 8
    values[0] = [np.sqrt(8.0), 0.0]
    scenario = {
        "task": "ordinary_bounds",
        "group": {"factors": [8], "weight_convention": "torus_like"},
        "systems": [{
            "name": "deltas", "n": 1,
            "lattice": "full",
            "dual_lattice": {"gens": []},
            "windows": [{"window": "values", "values": values}],
        }],
        "args": {},
    }
    path = tmp_path / "values.json"
    path.write_text(json.dumps(scenario))
    report = run_scenario(load_scenario(path), base_dir=tmp_path)
    rep = report["results"]["deltas"]
    assert rep["tight"]
    assert rep["alpha_opt"] == pytest.approx(1.0, abs=1e-9)


def test_env_tolerance_override(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    monkeypatch.setenv("GOF_DEFAULT_TOL", "1e-7")
    assert main(["--preset", "exb1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerance"] == 1e-7
    monkeypatch.setenv("GOF_DEFAULT_TOL", "bogus")
    assert main(["--preset", "exb1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerance"] == 1e-9
    assert "ignoring" in capsys.readouterr().err
    # the --tol flag wins over the environment
    monkeypatch.setenv("GOF_DEFAULT_TOL", "1e-7")
    assert main(["--preset", "exb1", "--out", str(out), "--tol", "1e-6"]) == 0
    assert json.loads(out.read_text())["tolerance"] == 1e-6


def test_schema_task_enums_match_task_table():
    forms = SCENARIO_SCHEMA["oneOf"]
    for schema in (*forms, REPORT_SCHEMA):
        assert schema["properties"]["task"]["enum"] == list(TASKS)
    # each task's args rules are one $defs entry, looked up by the task
    assert all(f"{task}_args" in SCENARIO_SCHEMA["$defs"] for task in TASKS)
    assert not any("allOf" in form for form in forms)


def _routes(node):
    """Every ``route`` of a bounds report nested anywhere in ``node``."""
    if isinstance(node, dict):
        if "route" in node:
            yield node["route"]
        for value in node.values():
            yield from _routes(value)
    elif isinstance(node, list):
        for value in node:
            yield from _routes(value)


def test_all_presets_validate_and_run():
    reports = {}
    for name in PRESETS:
        scenario = build_preset(name)
        report = run_scenario(scenario)
        assert report["findings"] == []
        assert report["task"] == scenario["task"]
        reports[name] = report["results"]
        # every preset system is lattice-generated and every operator an entry
        # map, so every report, operator images included, runs on coset blocks;
        # on the torus presets (Z_16, lattices <2> and <8>) each of the 2 cosets
        # splits over H = <2> into 8 blocks of n^2, and the tight constructions
        # (full lattices, so H = {0}) have 8 cosets of one point
        zak = {"name": "walnut", "blocks": 16, "block_dim": scenario["systems"][0]["n"] ** 2,
               "zak": 8}
        if scenario["task"] == "tight_construct":
            zak = {"name": "walnut", "blocks": 8, "zak": 1}
        routes = list(_routes(report["results"]))
        assert routes and all({k: route[k] for k in zak} == zak for route in routes), name

    approx9 = lambda v: pytest.approx(v, abs=1e-9)
    r = reports["exb1"]
    assert r["phi1-system"]["alpha_opt"] == approx9(8.0)
    assert r["phi2-system"]["alpha_opt"] == approx9(2.0)
    r = reports["remark-theta0"]
    assert not r["ordinary"]["lower_exists"]
    assert r["controlled"]["alpha_opt"] == approx9(20.0)
    assert r["controlled"]["beta_opt"] == approx9(20.0)
    r = reports["exper1-negative"]
    assert r["ordinary"]["alpha_opt"] == approx9(10.0)
    assert not r["controlled"]["upper_exists"]
    r = reports["pertexa"]
    assert r["prediction"]["predicted_lower"] == approx9(0.25)
    assert r["prediction"]["predicted_upper"] == approx9(22.0)
    assert r["prediction"]["lower_valid"] and r["prediction"]["upper_valid"]
    r = reports["sumexa"]
    assert r["hypothesis"]["condition_lhs"] == pytest.approx(2.5, abs=1e-8)
    assert r["hypothesis"]["condition_rhs"] == pytest.approx(2.0, abs=1e-12)
    assert r["prediction"]["predicted_upper"] == pytest.approx(20.8, abs=1e-6)
    r = reports["ex2-negative"]
    assert not r["hypotheses"]["commutation"]
    assert not r["image_report"]["upper_exists"]
    r = reports["prop1a-image"]
    assert r["image_report"]["alpha_opt"] == pytest.approx(10.0, abs=1e-8)
    assert r["image_report"]["beta_opt"] == pytest.approx(10.0, abs=1e-8)
    r = reports["thm2-tight"]
    assert r["diagonal_report"]["alpha_opt"] == approx9(1.0)
    r = reports["ex-after-thm2"]
    assert r["image_report"]["alpha_opt"] == approx9(3.0)
    assert r["image_report"]["beta_opt"] == approx9(3.0)
    r = reports["omega-check"]
    assert r["omega"]["alpha"] == approx9(2.5)
    assert r["omega"]["beta"] == approx9(10.0)
    assert r["verdicts_agree"]


def test_multiple_scenarios_to_directory(tmp_path):
    outdir = tmp_path / "reports"
    assert main([
        "--preset", "exb1", "--preset", "remark-theta0",
        "--out", str(outdir),
    ]) == 0
    assert (outdir / "exb1.json").exists()
    assert (outdir / "remark-theta0.json").exists()


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "gaborop.cli", "--list-presets"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "exb1" in result.stdout


def test_unknown_preset_exits_2(capsys):
    assert main(["--preset", "definitely-not-a-preset"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_unknown_compact_source_exits_2(tmp_path, capsys):
    path = tmp_path / "compact.json"
    path.write_text(json.dumps({"source": "nope"}))
    assert main(["--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "scenario error: $.source: unknown preset 'nope'; available: " in err
    assert "pertexa" in err


def test_no_arguments_exits_2(capsys):
    assert main([]) == 2


def test_operator_of_another_size_exits_2(tmp_path, capsys):
    scenario = build_preset("remark-theta0")
    scenario["operators"] = [
        {"name": "selector", "kind": "entry_map", "n": 1, "matrix": [[1]]}
    ]
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "scenario error: $.args.operator: 'selector' has n=1" in err


def test_pert_check_window_count_mismatch_exits_2(tmp_path, capsys):
    scenario = build_preset("pertexa")
    perturbed = next(s for s in scenario["systems"] if s["name"] == "perturbed")
    perturbed["windows"] = perturbed["windows"][:1]
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "scenario error: $.args.perturbed_system: 'perturbed' has 1 windows" in err


@pytest.mark.parametrize("preset,key,name,change", [
    ("pertexa", "perturbed_system", "perturbed", {"lattice_gens": [[4]]}),
    ("sumexa", "second_system", "second", {"dual_lattice_gens": [[4]]}),
    ("sumexa", "second_system", "second", {"automorphism": [3]}),
], ids=["pert-lattice", "sum-dual-lattice", "sum-automorphism"])
def test_pair_on_other_lattices_exits_2(tmp_path, capsys, preset, key, name, change):
    # the pair's members are matched index by index on the first system's
    # lattices, so a pair on other lattices has no difference or sum system
    scenario = build_preset(preset)
    next(s for s in scenario["systems"] if s["name"] == name).update(change)
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert (f"scenario error: $.args.{key}: {name!r} has other lattices or automorphisms "
            f"than system 'main'") in err


def test_pair_on_one_automorphism_written_two_ways_runs(tmp_path):
    # 19 = 3 mod 16: one map, so the pair shares its lattices and automorphisms
    results = []
    for second in (3, 19):
        scenario = build_preset("pertexa")
        for system, multiplier in zip(scenario["systems"], (3, second)):
            system["automorphism"] = [multiplier]
        path, out = tmp_path / f"auto{second}.json", tmp_path / f"report{second}.json"
        path.write_text(json.dumps(scenario))
        assert main(["--scenario", str(path), "--out", str(out)]) == 0
        results.append(json.loads(out.read_text())["results"])
    assert results[0] == results[1]


def _drop_dimension(scenario):
    del scenario["args"]["dimension"]


def _one_translate_source(scenario):
    # on full lattices every window is tight; one translate of this one is not
    scenario["systems"][0].update(
        {"lattice": "trivial", "windows": [{"window": "values", "values": [1, 2] + [0] * 6}]})


def _zero_second_windows(scenario):
    second = next(s for s in scenario["systems"] if s["name"] == "second")
    second["windows"] = [{"matrix": [[0, 0], [0, 0]]} for _ in second["windows"]]


@pytest.mark.parametrize("preset,corrupt,message", [
    ("pertexa", lambda s: s["args"].update({"lambda": -1}), "$.args.lambda: "),
    ("thm2-tight", _drop_dimension, "$.args.dimension: "),
    ("thm2-tight", lambda s: s["args"].update({"tightness": "x"}), "$.args.tightness: "),
    ("pertexa", lambda s: s["args"].update({"use_paper_bounds": True, "paper_bounds": [1]}),
     "$.args.paper_bounds: "),
    ("sumexa", _zero_second_windows,
     "$.args.second_system: second system needs a positive upper bound"),
    ("sumexa", lambda s: s["args"].update({"use_paper_bounds": True,
                                           "paper_bounds_second": [0.0, 0.0]}),
     "$.args.paper_bounds_second: second system needs a positive upper bound"),
    ("thm2-tight", _one_translate_source, "$.args.source_system: system is not tight"),
], ids=["negative-lambda", "no-dimension", "text-tightness", "short-paper-bounds",
        "zero-second-windows", "zero-pinned-second-bound", "non-tight-source"])
def test_malformed_task_args_exit_2(tmp_path, capsys, preset, corrupt, message):
    scenario = build_preset(preset)
    corrupt(scenario)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 2
    assert f"scenario error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("lattice", "full"), ("dual_lattice", "trivial")])
def test_lattice_given_twice_exits_2(tmp_path, capsys, key, value):
    # a lattice given both ways would run on one and silently drop the other
    scenario = build_preset("remark-theta0")
    assert f"{key}_gens" in scenario["systems"][0]
    scenario["systems"][0][key] = value
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 2
    assert (f"scenario error: $.systems[0].{key}_gens: not allowed with {key!r}"
            in capsys.readouterr().err)


def test_missing_operator_file_exits_2(tmp_path, capsys):
    scenario = build_preset("exper1-negative")
    scenario["operators"] = [
        {"name": "projector", "kind": "dense", "n": 2, "data_file": "missing.bin"}
    ]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 2
    assert "missing.bin" in capsys.readouterr().err


def test_corrupted_constant_is_a_finding(tmp_path, monkeypatch, capsys):
    clean = run_scenario(build_preset("remark-theta0"))
    cert = clean["results"]["controlled"]["cross_check"]["alpha_certificate"]
    assert cert["holds"] and cert["min_eig_past"] < 0.0
    corrupt_constant(monkeypatch, "alpha", 1.01)
    out = tmp_path / "report.json"
    assert main(["--preset", "remark-theta0", "--out", str(out), "--strict"]) == 3
    assert "the lower constant fails its residual certificate" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert not report["results"]["controlled"]["cross_check"]["alpha_certificate"]["holds"]


def _pertexa_theta_bounds() -> dict:
    """pertexa's main system under its entry map, which is bounded below."""
    scenario = build_preset("pertexa")
    scenario.update(task="theta_bounds", args={"system": "main", "operator": "theta"})
    return scenario


def test_failed_promotion_check_is_a_finding(tmp_path, monkeypatch, capsys):
    # a theta_bounds report checks the promotion's predictions against its
    # controlled constants, and a prediction that fails is a finding
    from gaborop import frames

    clean = run_scenario(_pertexa_theta_bounds())["results"]
    assert clean["hypothesis_ok"] and clean["lower_valid"] and clean["upper_valid"]
    monkeypatch.setattr(frames, "valid_bounds", lambda *args, **kwargs: (False, False))
    code, report = _run_strict(tmp_path, _pertexa_theta_bounds())
    assert code == 3
    assert report["findings"] == [
        "theta_bounds: predicted lower bound exceeds the computed optimal one",
        "theta_bounds: predicted upper bound undercuts the computed optimal one",
    ]
    assert "theta_bounds: predicted lower bound" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["remark-theta0", "exper1-negative"])
def test_promotion_needs_an_operator_bounded_below(tmp_path, monkeypatch, preset):
    # a selector and a projector are not bounded below: no prediction is made,
    # so none is checked, and a failing check is no finding
    from gaborop import frames

    monkeypatch.setattr(frames, "valid_bounds", lambda *args, **kwargs: (False, False))
    code, report = _run_strict(tmp_path, build_preset(preset))
    results = report["results"]
    assert code == 0 and report["findings"] == []
    assert (results["hypothesis_ok"], results["reason"]) == (False, "operator is not bounded below")
    assert results["predicted_lower"] is None and results["lower_valid"] is None


@pytest.mark.parametrize("preset,labels", [
    ("pertexa", ["pert_check: perturbed"]),
    ("sumexa", ["sum_check: summed"]),
    ("omega-check", ["omega_check: controlled"]),
    ("ex2-negative", ["image_check: source", "image_check: image"]),
    ("prop1a-image", ["image_check: image"]),
    ("ex-after-thm2", ["tight_construct: image"]),
])
def test_failed_certificate_is_a_finding_in_every_task(tmp_path, monkeypatch, preset, labels):
    # every bounds report a task writes is certified, not only theta_bounds'
    assert run_scenario(build_preset(preset))["findings"] == []
    corrupt_constant(monkeypatch, "alpha", 1.01)
    out = tmp_path / "report.json"
    assert main(["--preset", preset, "--out", str(out), "--strict"]) == 3
    findings = json.loads(out.read_text())["findings"]
    for label in labels:
        assert any(finding.startswith(f"{label} report: the lower constant fails its "
                                      "residual certificate") for finding in findings), label


# builds of S per preset report: one per system the report covers (exb1's two
# systems; an image check's source and image; pert_check's source, difference
# and perturbed systems; sum_check's two systems and their sum; a tight
# construction's source, diagonal system and image)
_BUILDS = {"exb1": 2, "ex2-negative": 2, "prop1a-image": 2,
           "remark-theta0": 1, "exper1-negative": 1, "omega-check": 1,
           "pertexa": 3, "sumexa": 3, "thm2-tight": 3, "ex-after-thm2": 3}


@pytest.mark.parametrize("name", list(_BUILDS))
def test_theta_bounds_task_builds_s_once(monkeypatch, name):
    # S is built once per system a report covers; a theta_bounds report is one
    # bounded_below_promotion call, whose ordinary report reads the spectrum of
    # the controlled one, with the same constants as the ordinary_bounds task
    # on that system; every module namespace holding a counted function is
    # patched
    import sys

    from gaborop import frames

    calls = {}
    for original in (frames._frame_blocks, frames.bounded_below_promotion):
        def counted(*args, _original=original, **kwargs):
            calls[_original.__name__] = calls.get(_original.__name__, 0) + 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("gaborop") and \
                    getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counted)
    report = run_scenario(build_preset(name))
    assert calls.get("_frame_blocks") == _BUILDS[name]
    if report["task"] != "theta_bounds":
        assert "bounded_below_promotion" not in calls
        return
    assert calls["bounded_below_promotion"] == 1
    ordinary = report["results"]["ordinary"]
    scenario = build_preset(name)
    scenario["task"], scenario["args"] = "ordinary_bounds", {"systems": ["main"]}
    want = run_scenario(scenario)["results"]["main"]
    assert ordinary["route"] == {**want["route"], "eigensolver": "pencil_eigh"}
    for key in ("lower_exists", "upper_exists", "tight"):
        assert ordinary[key] == want[key]
    for key in ("alpha_opt", "beta_opt"):
        assert ordinary[key] == pytest.approx(want[key], rel=1e-12, abs=1e-12 * want["beta_opt"])


def test_exb1_ordinary_report_makes_no_eigensolve(monkeypatch):
    # exb1's K blocks are 1 x 1, so both systems' spectra are the real parts
    # of their K blocks, with no LAPACK call
    calls = record_solves(monkeypatch)
    report = run_scenario(build_preset("exb1"))
    assert report["task"] == "ordinary_bounds" and len(report["results"]) == 2
    assert calls == []
    assert {rep["route"]["eigensolver"] for rep in report["results"].values()} == {"closed_form"}


def test_omega_check_task_builds_s_once(monkeypatch):
    # the task is one omega_characterization call, whose omega report and
    # controlled report share one build of the coset blocks and one pencil
    # solve, and the omega checks read integer pairings, not characters; every
    # module namespace holding a counted function is patched, after a first
    # run has memoised the layout (whose DFT over H takes characters)
    import sys

    from gaborop import frames, groups, pencil

    run_scenario(build_preset("omega-check"))
    calls = {}
    for original in (frames.omega_characterization, frames._frame_blocks,
                     pencil.solve_pencils, groups._characters):
        name = original.__name__

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("gaborop") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    report = run_scenario(build_preset("omega-check"))
    assert calls == {"omega_characterization": 1, "_frame_blocks": 1, "solve_pencils": 1}
    assert report["results"]["verdicts_agree"] and not report["findings"]


def test_every_preset_passes_validation():
    from gaborop.scenario import validate_scenario

    for name in PRESETS:
        validate_scenario(build_preset(name))


def test_compact_form_is_validated_once(tmp_path, monkeypatch, capsys):
    # the raw compact form is schema-checked once; after expansion only the
    # merged task and args meet the full form's task rules, with their paths
    import gaborop.scenario as gscenario

    calls = []
    validate = gscenario.validate_scenario
    monkeypatch.setattr(gscenario, "validate_scenario",
                        lambda raw: calls.append(raw) or validate(raw))
    path = tmp_path / "compact.json"
    path.write_text(json.dumps({"source": "pertexa", "args": {"lambda": -1}}))
    assert main(["--scenario", str(path)]) == 2
    assert "scenario error: $.args.lambda: " in capsys.readouterr().err
    assert len(calls) == 1 and "source" in calls[0]
    path.write_text(json.dumps({"source": "thm2-tight", "args": {"tightness": "x"}}))
    with pytest.raises(ScenarioError, match=r"\$\.args\.tightness: "):
        load_scenario(path)


def test_validate_scenario_checks_compact_args():
    # the compact form meets its task's args rules in validate_scenario itself,
    # and a valid one comes back expanded
    from gaborop.scenario import validate_scenario

    with pytest.raises(ScenarioError) as err:
        validate_scenario({"source": "pertexa", "args": {"lambda": -1}})
    assert err.value.problems == ["$.args.lambda: -1 is less than the minimum of 0"]
    with pytest.raises(ScenarioError) as err:
        validate_scenario({"source": "thm2-tight", "task": "sum_check"})
    assert err.value.problems == [f"$.args.{key}: required property is missing"
                                  for key in ("system", "second_system")]
    expanded = validate_scenario({"source": "pertexa", "mu": 0.3})
    assert expanded["task"] == "pert_check" and expanded["args"]["mu"] == 0.3
    assert expanded["provenance_preset"] == "pertexa"
    # form and args problems come in one error, in path order
    scenario = build_preset("pertexa")
    scenario["group"]["factors"] = [0]
    scenario["args"]["lambda"] = -1
    with pytest.raises(ScenarioError) as err:
        validate_scenario(scenario)
    assert err.value.problems == ["$.args.lambda: -1 is less than the minimum of 0",
                                  "$.group.factors[0]: 0 is less than the minimum of 1"]


@pytest.mark.parametrize("preset,corrupt,message", [
    ("pertexa",
     lambda s: s["systems"][0]["windows"][0]["matrix"][0][1].update({"scale": "x"}),
     "$.systems[0].windows[0].matrix[0][1].scale: 'x' is not of type 'number'"),
    ("exb1",
     lambda s: s["systems"][0]["windows"].__setitem__(
         0, {"window": "scaled", "scale": 2.0, "of": {"window": "delta", "at": 1}}),
     "$.systems[0].windows[0].of.at: 1 is not of type 'array'"),
    ("exb1",
     lambda s: s["systems"][0]["windows"].__setitem__(0, {"matrix": [[0]], "scale": 1.0}),
     "$.systems[0].windows[0]: Additional properties are not allowed ('scale' was unexpected)"),
    ("exb1", lambda s: s["systems"][0]["windows"].__setitem__(0, 1),
     "$.systems[0].windows[0]: 0 was expected"),
], ids=["matrix-entry-scale", "scaled-of-at", "matrix-extra-key", "scalar-not-zero"])
def test_bad_nested_window_reports_its_field_path(preset, corrupt, message):
    # a window's keys pick its branch, so an error names the offending field
    # rather than the whole window
    from gaborop.scenario import validate_scenario

    scenario = build_preset(preset)
    corrupt(scenario)
    with pytest.raises(ScenarioError) as err:
        validate_scenario(scenario)
    assert err.value.problems == [message]


def _oracle_scalar_window(space, spec) -> np.ndarray:
    """A scalar window entry from its definition, the transform as a direct sum."""
    from helpers import oracle_character

    group = space.group
    if spec == 0 or spec["window"] == "zero":
        return np.zeros(group.order, dtype=complex)
    if spec["window"] == "scaled":
        return spec["scale"] * _oracle_scalar_window(space, spec["of"])
    if spec["window"] == "values":
        return np.array([complex(*v) if isinstance(v, list) else v for v in spec["values"]])
    points = [e.coords for e in group.elements()]
    if spec["window"] == "delta":
        return np.array([spec.get("scale", 1.0) * (x == tuple(spec["at"])) for x in points],
                        dtype=complex)
    gammas = [points[i] for i in sorted(set(spec["set"]))]
    return space.measure.w_dual * spec.get("scale", 1.0) * np.array(
        [sum(oracle_character(group.factors, g, x) for g in gammas) for x in points])


def test_matrix_window_takes_one_transform(monkeypatch):
    # a system's windows are one stack: every fourier_indicator entry of every
    # window takes one inverse transform together
    import gaborop.scenario as gscenario
    from gaborop import FiniteAbelianGroup, MeasurePair, SignalSpace

    group = FiniteAbelianGroup((4, 3))
    space = SignalSpace(group, 2, MeasurePair.torus_like(group))
    values = [[0.5 * i, -1.0] for i in range(12)]
    specs = [
        {"matrix": [
            [{"window": "fourier_indicator", "set": [0, 5, 5, 7], "scale": 2.0},
             {"window": "scaled", "scale": -3.0,
              "of": {"window": "fourier_indicator", "set": [1, 11]}}],
            [{"window": "delta", "at": [2, 1], "scale": 1.5},
             {"window": "scaled", "scale": 0.5, "of": {"window": "values", "values": values}}],
        ]},
        {"matrix": [
            [{"window": "values", "values": values[::-1]},
             {"window": "scaled", "scale": -2.0,
              "of": {"window": "delta", "at": [0, 2]}}],
            [{"window": "scaled", "scale": 4.0,
              "of": {"window": "fourier_indicator", "set": [3], "scale": -0.5}}, 0],
        ]},
    ]
    calls = []
    transform = gscenario._inverse_fourier_values
    monkeypatch.setattr(gscenario, "_inverse_fourier_values",
                        lambda *args, **kwargs: calls.append(args) or transform(*args, **kwargs))
    windows = gscenario._build_windows(space, specs, "$.systems[0].windows")
    assert len(calls) == 1 and windows.shape == (2, 12, 2, 2)
    for window, spec in zip(windows, specs):
        for i in range(2):
            for j in range(2):
                want = _oracle_scalar_window(space, spec["matrix"][i][j])
                assert np.allclose(window[:, i, j], want, rtol=0.0, atol=1e-13)
    calls.clear()
    plain = {"matrix": [[{"window": "delta", "at": [0, 0]}, 0], [{"window": "zero"}, 0]]}
    assert gscenario._build_windows(space, [plain, plain],
                                    "$.systems[0].windows")[:, 0, 0, 0].tolist() == [1.0, 1.0]
    assert not calls


@pytest.mark.parametrize("n,spec,message", [
    (1, {"window": "values", "values": [1.0, 2.0]},
     ".values: 'values' must list 8 entries, got 2"),
    (2, {"matrix": [[0, {"window": "fourier_indicator", "set": [3, 8]}], [0, 0]]},
     ".matrix[0][1].set: fourier_indicator index 8 outside the dual group"),
    (1, {"window": "ramp"}, ".window: unknown scalar window kind 'ramp'"),
    (2, {"matrix": [[0, 0]]}, ".matrix: matrix window must be 2x2"),
    (2, {"window": "zero"}, ": scalar window given for a matrix system"),
    (1, {"window": "values"}, ".values: 'values' window needs 'values'"),
    (2, {"matrix": [[0, {"window": "fourier_indicator", "scale": 2.0}], [0, 0]]},
     ".matrix[0][1].set: 'fourier_indicator' window needs 'set'"),
    (1, {"window": "scaled", "scale": 2.0}, ".of: 'scaled' window needs 'of'"),
    (1, {"window": "scaled", "of": {"window": "delta"}}, ".scale: 'scaled' window needs 'scale'"),
    (1, {"window": "scaled", "scale": 2.0, "of": {"window": "scaled", "scale": 2.0}},
     ".of.of: 'scaled' window needs 'of'"),
], ids=["values-size", "indicator-index", "unknown-kind", "matrix-shape", "scalar-for-matrix",
        "values-missing", "indicator-set-missing", "scaled-of-missing", "scaled-scale-missing",
        "nested-of-missing"])
def test_window_errors_keep_their_messages(n, spec, message):
    # each message names the field path of the window entry at fault
    from gaborop import FiniteAbelianGroup, MeasurePair, SignalSpace
    from gaborop.scenario import _build_windows

    group = FiniteAbelianGroup((8,))
    blank = {"matrix": [[0] * n for _ in range(n)]}
    with pytest.raises(ScenarioError) as err:
        _build_windows(SignalSpace(group, n, MeasurePair.torus_like(group)),
                       [blank, blank, spec], "$.systems[1].windows")
    assert err.value.problems == [f"$.systems[1].windows[2]{message}"]


def test_window_without_its_fields_exits_2(tmp_path, capsys):
    scenario = build_preset("exb1")
    scenario["systems"][0]["windows"][0] = {"window": "scaled", "scale": 2.0}
    path = tmp_path / "window.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 2
    assert ("scenario error: $.systems[0].windows[0].of: 'scaled' window needs 'of'"
            in capsys.readouterr().err)


def test_window_index_error_exits_2_at_its_field_path(tmp_path, capsys):
    scenario = build_preset("remark-theta0")
    scenario["systems"][0]["windows"][0]["matrix"][0][1]["set"] = [0, 99]
    path = tmp_path / "window.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 2
    assert ("scenario error: $.systems[0].windows[0].matrix[0][1].set: fourier_indicator "
            "index 99 outside the dual group" in capsys.readouterr().err)


@pytest.mark.parametrize("preset,path,value,where,shown", [
    ("pertexa", ("args", "paper_bounds"), "[NaN, 1]", "$.args.paper_bounds[0]", "NaN"),
    ("sumexa", ("args", "paper_bounds_second"), "[0.1, NaN]",
     "$.args.paper_bounds_second[1]", "NaN"),
    ("exb1", ("group", "weight_convention"), '{"w_group": NaN, "w_dual": 1}',
     "$.group.weight_convention.w_group", "NaN"),
    ("remark-theta0", ("systems", 0, "windows", 0, "matrix", 0, 1, "scale"), "Infinity",
     "$.systems[0].windows[0].matrix[0][1].scale", "Infinity"),
    ("remark-theta0", ("systems", 0, "windows", 0, "matrix", 0, 1, "scale"), "1e400",
     "$.systems[0].windows[0].matrix[0][1].scale", "Infinity"),
    ("thm2-tight", ("args", "tightness"), "-Infinity", "$.args.tightness", "-Infinity"),
    ("pertexa", ("operators", 0, "matrix", 1, 0), "NaN", "$.operators[0].matrix[1][0]", "NaN"),
], ids=["paper-bounds", "sum-bounds", "weights", "scale-inf", "scale-1e400", "tightness",
        "entry-map"])
def test_non_finite_numbers_exit_2_at_their_field_path(tmp_path, capsys, preset, path,
                                                       value, where, shown):
    # Python's json reads NaN, Infinity and 1e400 (as inf); JSON has none of them
    scenario = build_preset(preset)
    if "use_paper_bounds" in scenario["args"]:
        scenario["args"]["use_paper_bounds"] = True  # pinned bounds are read only then
    parent = scenario
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = "@"
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(scenario).replace('"@"', value))
    assert main(["--scenario", str(file), "--strict"]) == 2
    assert f"scenario error: {where}: {shown} is not a finite number" in capsys.readouterr().err


def _scale_first_window(scenario, factor):
    for row in scenario["systems"][0]["windows"][0]["matrix"]:
        for entry in row:
            if entry["window"] != "zero":
                entry["scale"] = factor * entry.get("scale", 1.0)


def _nest_scales(scenario):
    # 1e200 * 1e200 overflows to inf in the window's entry factor
    scenario["systems"][0]["windows"][0]["matrix"][0][1] = {
        "window": "scaled", "scale": 1e200,
        "of": {"window": "scaled", "scale": 1e200, "of": {"window": "delta"}}}


def _scale_operator(scenario, factor):
    operator = scenario["operators"][0]
    operator["matrix"] = [[factor * v for v in row] for row in operator["matrix"]]


@pytest.mark.parametrize("preset,corrupt,where", [
    ("remark-theta0", lambda s: _scale_first_window(s, 1e155),
     "$.systems[0].windows: the frame operator overflows: its trace bound is not finite"),
    ("remark-theta0", _nest_scales,
     "$.systems[0].windows: the frame operator overflows: its trace bound is not finite"),
    ("pertexa", lambda s: s["args"].update({"lambda": 1e308}),
     "$.args.lambda: the term lambda * "),
    ("pertexa", lambda s: s["args"].update({"lambda": 1e300, "mu": 1.7e308}),
     "$.args.mu: the term mu * "),
    ("pertexa", lambda s: s["args"].update({"eta": 1e308}), "$.args.eta: the term eta * "),
    ("pertexa", lambda s: _scale_operator(s, 1e155),
     "$.operators[0]: the operator's grams overflow: its squared Frobenius norm is not "
     "finite"),
], ids=["window-scale", "nested-scale", "lambda", "mu", "eta", "entry-map"])
def test_finite_input_that_overflows_exits_2_at_its_field_path(tmp_path, capsys, preset,
                                                                 corrupt, where):
    # every number is finite, but the frame operator, an operator's grams or
    # a term of the domination bound is not; each is bounded in Python floats
    # before any numpy product, so no RuntimeWarning (an error here) comes first
    scenario = build_preset(preset)
    corrupt(scenario)
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(scenario))
    assert main(["--scenario", str(file), "--strict"]) == 2
    assert f"scenario error: {where}" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["remark-theta0", "omega-check"])
def test_large_finite_window_still_runs(tmp_path, preset):
    # a window scaled by 1e150 keeps its frame operator finite: the verdicts
    # hold, with the constants scaled by 1e300, and no product overflows
    # (the omega bound takes sqrt(a) sqrt(b) of two diagonals, not sqrt(a b))
    scenario = build_preset(preset)
    _scale_first_window(scenario, 1e150)
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(scenario))
    assert main(["--scenario", str(file), "--strict", "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_invalid_tol_flag_exits_2(tmp_path, capsys, tol):
    # the flag is rejected while the arguments are parsed, by the rule of
    # $GOF_DEFAULT_TOL, and the error names the flag, not a scenario field
    with pytest.raises(SystemExit) as exc:
        main(["--preset", "remark-theta0", "--tol", tol,
              "--out", str(tmp_path / "report.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tol: must be a finite number > 0, got {tol!r}" in err
    assert "$.tolerance" not in err
    assert not (tmp_path / "report.json").exists()


def test_invalid_tol_flag_exits_2_in_a_fresh_process():
    result = subprocess.run(
        [sys.executable, "-m", "gaborop.cli", "--preset", "exb1", "--tol", "-1"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert "argument --tol: must be a finite number > 0, got '-1'" in result.stderr


def test_empty_ordinary_bounds_systems_exit_2(tmp_path, capsys):
    # an empty list names no system: the schema rejects it at its field, and
    # the task reports the systems it is given, not every declared one
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"source": "exb1", "args": {"systems": []}}))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "report.json")]) == 2
    assert "scenario error: $.args.systems: " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    outcome = TASKS["ordinary_bounds"]({"systems": []}, {"main": None}, {}, 1e-9)
    assert outcome.results == {}


@pytest.mark.parametrize("name", ["exb1", "pertexa", "sumexa"])
def test_systems_share_their_lattices(monkeypatch, name):
    # one Subgroup per distinct lattice spec and side in a run: the systems
    # of these presets share both, and their report is the one built apart
    from gaborop import scenario as gscenario

    built = []
    build = gscenario._build_system
    monkeypatch.setattr(gscenario, "_build_system",
                        lambda *args: built.append(build(*args)) or built[-1])
    report = run_scenario(build_preset(name))
    assert len(built) >= 2
    for system in built[1:]:
        assert system.lattice is built[0].lattice
        assert system.dual_lattice is built[0].dual_lattice
    monkeypatch.setattr(gscenario, "_build_system",
                        lambda *args: build(*args[:-1], {}))
    apart = run_scenario(build_preset(name))
    report.pop("timing_seconds"), apart.pop("timing_seconds")
    assert report == apart


@pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
def test_invalid_env_tolerance_is_ignored(tmp_path, monkeypatch, capsys, value):
    out = tmp_path / "report.json"
    monkeypatch.setenv("GOF_DEFAULT_TOL", value)
    assert main(["--preset", "remark-theta0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerance"] == 1e-9
    assert "ignoring $GOF_DEFAULT_TOL" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_file_tolerance_exits_2(tmp_path, capsys, value):
    # Python's json reads these tokens, and no schema bound rejects NaN
    path = tmp_path / "tol.json"
    path.write_text('{"source": "remark-theta0", "tolerance": %s}' % value)
    assert main(["--scenario", str(path)]) == 2
    assert "scenario error: $.tolerance: " in capsys.readouterr().err


def _set_delta_at(scenario):
    scenario["systems"][0]["windows"][0]["matrix"][0][0] = {"window": "delta", "at": [1, 2]}


@pytest.mark.parametrize("corrupt,message", [
    (_set_delta_at, "$.systems[0]: expected 1 coordinates, got 2"),
    (lambda s: s["systems"][0].update({"lattice_gens": [[1, 2]]}),
     "$.systems[0]: expected 1 coordinates, got 2"),
    (lambda s: s["systems"][0].update({"automorphism": [[2]]}),
     "$.systems[0]: matrix does not act bijectively on the group"),
    (lambda s: s["operators"][0].update({"matrix": [[1, 0], [0, 1]]}),
     "$.operators[0]: entry map must be 4x4, got (2, 2)"),
    (lambda s: s["group"].update({"weight_convention": {"w_group": 1.0, "w_dual": 1.0}}),
     "$.group: inconsistent normalisation"),
    (lambda s: s["operators"][0].pop("matrix"), "$.operators[0]: entry_map needs 'matrix'"),
    (lambda s: s["operators"][0].update({"kind": "dense"}),
     "$.operators[0]: dense needs 'data_file'"),
    (lambda s: s["operators"][0].update({"kind": "dense", "data_file": "missing.bin"}),
     "$.operators[0]: [Errno 2] No such file or directory"),
], ids=["delta-rank", "lattice-rank", "automorphism", "entry-map-shape", "normalisation",
        "entry-map-matrix", "dense-data-file", "dense-missing-file"])
def test_construction_errors_carry_their_path(tmp_path, capsys, corrupt, message):
    scenario = build_preset("remark-theta0")
    corrupt(scenario)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 2
    assert f"scenario error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key,message", [
    ("systems", "$.systems[1].name: duplicate name 'main'"),
    ("operators", "$.operators[1].name: duplicate name 'selector'"),
])
def test_duplicate_names_exit_2(tmp_path, capsys, key, message):
    scenario = build_preset("remark-theta0")
    scenario[key].append(dict(scenario[key][0]))
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 2
    assert f"scenario error: {message}" in capsys.readouterr().err


def _run_strict(tmp_path, scenario):
    """(exit code, report or None) of ``scenario`` through ``main --strict``."""
    path, out = tmp_path / "scenario.json", tmp_path / "report.json"
    path.write_text(json.dumps(scenario))
    code = main(["--strict", "--scenario", str(path), "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_dense_operator_coupling_two_cosets_takes_the_dense_route(tmp_path):
    # kron(I_16, M) plus one entry coupling an even and an odd point is nonzero
    # off the coset blocks: the dense route, with both certificates holding and
    # the promotion's predictions valid
    scenario = _pertexa_theta_bounds()
    spec = scenario["operators"][0]
    t = np.kron(np.eye(scenario["group"]["factors"][0]), spec["matrix"]).astype("<c16")
    t[0, -1] = 1
    t.tofile(tmp_path / "op.bin")
    scenario["operators"] = [{"name": "theta", "kind": "dense", "n": 2, "data_file": "op.bin"}]
    code, report = _run_strict(tmp_path, scenario)
    results = report["results"]
    assert code == 0
    assert results["controlled"]["route"]["name"] == "dense"
    assert results["controlled"]["route"]["reason"] == "dense, nonzero off the coset blocks"
    cross = results["controlled"]["cross_check"]
    assert cross["alpha_certificate"]["holds"] and cross["beta_certificate"]["holds"]
    assert results["hypothesis_ok"] and results["lower_valid"] and results["upper_valid"]


def test_systems_on_two_lattices_get_their_lone_constants(tmp_path):
    # an ordinary_bounds report of systems on two lattices gives each system
    # the constants it gets alone
    scenario = build_preset("exb1")
    scenario["systems"].append({**scenario["systems"][0], "name": "coarse",
                                "lattice_gens": [[4]]})
    code, together = _run_strict(tmp_path, scenario)
    assert code == 0
    assert sorted(together["results"]) == ["coarse", "phi1-system", "phi2-system"]
    for name, report in together["results"].items():
        code, alone = _run_strict(tmp_path, {**scenario, "args": {"systems": [name]}})
        assert code == 0
        for key in ("alpha_opt", "beta_opt"):
            assert report[key] == alone["results"][name][key], (name, key)


@pytest.mark.parametrize("task", ["hyponormal", "adjointable"])
def test_operator_diagnostics_tasks(tmp_path, task):
    # both tasks report the diagnostics of the named operator, nothing else
    from dataclasses import asdict

    from gaborop import FiniteAbelianGroup, MeasurePair, SignalSpace, SpaceOperator
    from gaborop.operators import diagnostics

    scenario = build_preset("remark-theta0")
    scenario.update({"task": task, "args": {"operator": "selector"}})
    code, report = _run_strict(tmp_path, scenario)
    group = FiniteAbelianGroup((16,))
    selector = SpaceOperator.from_entry_map(SignalSpace(group, 2, MeasurePair.torus_like(group)),
                                            np.array(scenario["operators"][0]["matrix"]))
    assert code == 0
    assert report["results"] == {"operator": asdict(diagnostics(selector))}


def test_zero_operator_scenario(tmp_path):
    # under T = 0 the lower inequality holds with any alpha (||T* f|| = 0) and
    # no finite upper constant exists (ker T is everything, ker S is not)
    scenario = build_preset("remark-theta0")
    scenario["operators"][0] = {"name": "selector", "kind": "zero", "n": 2}
    code, report = _run_strict(tmp_path, scenario)
    assert code == 0
    controlled = report["results"]["controlled"]
    assert (controlled["lower_exists"], controlled["upper_exists"]) == (True, False)
    assert controlled["alpha_opt"] is None and controlled["beta_opt"] is None
    assert report["results"]["operator"]["operator_norm"] == 0.0


def test_tight_construction_of_another_dimension_is_a_finding(tmp_path, capsys):
    # the operator acts on 2 x 2 signals; a construction in dimension 3 is refused
    scenario = build_preset("thm2-tight")
    scenario["args"]["dimension"] = 3
    code, _ = _run_strict(tmp_path, scenario)
    assert code == 3
    assert ("tight_construct: operator space does not match the requested dimension"
            in capsys.readouterr().err)
