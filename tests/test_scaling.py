"""No verdict depends on scale.

The hypotheses of the paper (hyponormality, matrix adjointability, the
commutation of the composed-image result, the perturbation domination, the
controlled frame inequality) keep their truth when windows or operators are
multiplied by c > 0 times a phase, and the bound verdicts do not depend on
the measure convention.  Each check compares a residual with ``tol`` times
the norms it is built from, so every verdict and finding here must survive
c anywhere in [1e-6, 1e6].
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborop import SpaceOperator, check_pert_hypothesis
from gaborop.operators import DEFAULT_TOL, commutes
from gaborop.presets import build_preset
from gaborop.scenario import TASKS, run_scenario
from helpers import (
    COLUMN2_KEEPER,
    FLIP,
    LOG_SCALES,
    PERT_THETA,
    perturbed_window_system,
    random_entry_op,
    swap_window_system,
    torus_space,
)

PHASES = st.floats(0.0, 2 * np.pi)


def _scaled(op: SpaceOperator, c: float, phase: float) -> SpaceOperator:
    return SpaceOperator.from_entry_map(op.space, c * np.exp(1j * phase) * op.entry_matrix)


def _image_check(xi, theta):
    """(boolean hypotheses, findings) of the image_check task on the 10-tight
    swap system; ``theta`` None is the single-operator image."""
    args = {"system": "main", "operator": "xi"}
    operators = {"xi": xi}
    if theta is not None:
        args["inner_operator"] = "theta"
        operators["theta"] = theta
    outcome = TASKS["image_check"](args, {"main": swap_window_system()}, operators, DEFAULT_TOL)
    hypotheses = {k: v for k, v in outcome.results.hypotheses.items() if isinstance(v, bool)}
    return hypotheses, outcome.findings


@settings(max_examples=20)
@given(composed=st.booleans(), c_xi=LOG_SCALES, c_theta=LOG_SCALES,
       phase_xi=PHASES, phase_theta=PHASES)
@example(composed=True, c_xi=1e-6, c_theta=1e-6, phase_xi=0.0, phase_theta=0.0)
def test_operator_scaling_keeps_image_check(composed, c_xi, c_theta, phase_xi, phase_theta):
    # ex2-negative (column selector after the entry flip: no commutation) and
    # prop1a-image (the selector alone); at 1e-6 the commutator is 1e-12 in
    # absolute terms and must still count as nonzero
    space = torus_space(16, 2)
    xi = SpaceOperator.from_entry_map(space, COLUMN2_KEEPER)
    theta = SpaceOperator.from_entry_map(space, FLIP) if composed else None
    base = _image_check(xi, theta)
    scaled = _image_check(_scaled(xi, c_xi, phase_xi),
                          theta and _scaled(theta, c_theta, phase_theta))
    assert scaled == base
    assert base[1] == []
    if composed:
        assert base[0]["commutation"] is False


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), pair=st.sampled_from(["polynomial", "adjoint", "random"]),
       c_a=LOG_SCALES, c_b=LOG_SCALES, phase_a=PHASES, phase_b=PHASES)
@example(seed=0, pair="polynomial", c_a=1e6, c_b=1e6, phase_a=0.0, phase_b=0.0)
def test_operator_scaling_keeps_commutes(seed, pair, c_a, c_b, phase_a, phase_b):
    # a commutes with a^2 + 2a exactly and with a general map almost never;
    # scaling either side must not move the verdict (at 1e6 the rounding of
    # the commuting pair is far above 1e-9 in absolute terms)
    rng = np.random.default_rng(seed)
    space = torus_space(8, 2)
    a = random_entry_op(space, rng)
    m = a.entry_matrix
    b = {"polynomial": lambda: SpaceOperator.from_entry_map(space, m @ m + 2.0 * m),
         "adjoint": a.adjoint,
         "random": lambda: random_entry_op(space, rng)}[pair]()
    verdict = commutes(a, b)
    assert commutes(_scaled(a, c_a, phase_a), _scaled(b, c_b, phase_b)) == verdict
    if pair == "polynomial":
        assert verdict


@settings(max_examples=30)
@given(constants=st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.01, 0.01), (0.0, 0.2, 0.2),
                                  (0.1, 0.3, 0.1)]),
       c=LOG_SCALES, phase_windows=PHASES, phase_theta=PHASES)
@example(constants=(0.0, 0.01, 0.01), c=1e-6, phase_windows=0.0, phase_theta=0.0)
def test_joint_scaling_keeps_pert_hypothesis(constants, c, phase_windows, phase_theta):
    # windows and operator times c (each with its own phase): S, D, T T* and
    # T* T all scale by c^2, so the domination margin scales by c^2 and no
    # verdict moves; with mu = eta = 0.01 at 1e-6 the margin -3.8e-13 is
    # still a failed domination
    lam, mu, eta = constants
    system, perturbed = swap_window_system(), perturbed_window_system()
    theta = SpaceOperator.from_entry_map(system.space, PERT_THETA)
    unit = c * np.exp(1j * phase_windows)
    base = check_pert_hypothesis(system, perturbed, theta, lam, mu, eta)
    scaled = check_pert_hypothesis(
        system.with_windows([w * unit for w in system.windows]),
        perturbed.with_windows([w * unit for w in perturbed.windows]),
        _scaled(theta, c, phase_theta), lam, mu, eta,
    )
    verdicts = lambda r: (r.bounded_below_ok, r.ratio_ok, r.difference_ok, r.holds)
    assert verdicts(scaled) == verdicts(base)
    # the margin is O(1) at c = 1, and 0 up to rounding for (0, 0.2, 0.2)
    assert scaled.difference_margin == pytest.approx(c * c * base.difference_margin,
                                                     rel=1e-9, abs=1e-12 * c * c)
    if constants == (0.0, 0.01, 0.01):
        assert not base.difference_ok


def _verdicts(value, path="$"):
    """Every boolean and every None in a report, by path."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items()
                for k, v in _verdicts(item, f"{path}.{key}").items()}
    return {path: value} if isinstance(value, bool) or value is None else {}


def _report(name, convention, c):
    scenario = build_preset(name)
    scenario["group"]["weight_convention"] = convention
    for system in scenario["systems"]:
        system["windows"] = [{"matrix": [[{"window": "scaled", "scale": c, "of": entry}
                                          if entry != 0 else 0 for entry in row]
                                         for row in window["matrix"]]}
                             for window in system["windows"]]
    report = run_scenario(scenario)
    return _verdicts(report["results"]), report["findings"]


@settings(max_examples=12)
@given(name=st.sampled_from(["remark-theta0", "exper1-negative", "omega-check"]),
       convention=st.sampled_from(["torus_like", "counting"]), c=LOG_SCALES)
def test_measure_convention_and_scale_keep_verdicts(name, convention, c):
    # the counting measure rescales S by |G|; window scaling by c^2: the
    # theta_bounds and omega_check verdicts and findings stay those of the
    # torus-like convention at scale 1
    assert _report(name, convention, c) == _report(name, "torus_like", 1.0)
