"""Window perturbation and window-sum stability checks."""

import dataclasses

import numpy as np
import pytest

from gaborop import (
    Automorphism,
    FiniteAbelianGroup,
    MatrixSignal,
    MeasurePair,
    PertHypothesis,
    SpaceOperator,
    Subgroup,
    analysis,
    check_pert_hypothesis,
    check_sum_hypothesis,
    frobenius_norm,
    pert_predicted_bounds,
    scalar_parseval_system,
    sum_predicted_bounds,
    theta_bounds,
    tight_theta_frame,
    verify_perturbation,
    verify_sum,
)
from helpers import (
    diag_window_system,
    pert_theta_op,
    perturbed_window_system,
    random_signal,
    record_solves,
    selector_op,
    swap_window_system,
    torus_space,
)


@pytest.fixture(scope="module")
def setup():
    system = swap_window_system()
    return {
        "system": system,
        "perturbed": perturbed_window_system(),
        "second": diag_window_system(),
        "theta": pert_theta_op(system.space),
    }


def test_unchanged_windows_trivially_stable(setup):
    # a vanishing difference satisfies the domination inequality for any
    # nonnegative constants; the ratio condition still constrains them
    check = check_pert_hypothesis(
        setup["system"], setup["system"], setup["theta"], 0.1, 0.2, 0.3
    )
    assert check.bounded_below_ok
    assert check.difference_ok
    assert check.difference_margin >= -1e-10
    assert not check.ratio_ok  # (0.8 * 2.5 - 0.4) / 0.6 < 4
    mild = check_pert_hypothesis(
        setup["system"], setup["system"], setup["theta"], 0.0, 0.1, 0.1
    )
    assert mild.difference_ok and mild.ratio_ok and mild.holds


def test_unchanged_windows_degenerate_prediction(setup):
    check, prediction = verify_perturbation(
        setup["system"], setup["system"], setup["theta"], 0.0, 0.0, 0.0
    )
    assert check.holds
    # the degenerate constants halve the lower and double the upper bound
    assert prediction.predicted_lower == pytest.approx(1.25, abs=1e-8)
    assert prediction.predicted_upper == pytest.approx(20.0, abs=1e-8)
    assert prediction.lower_valid and prediction.upper_valid


def test_reference_perturbation_hypothesis(setup):
    check = check_pert_hypothesis(
        setup["system"], setup["perturbed"], setup["theta"], 0.0, 0.2, 0.2
    )
    assert check.holds
    assert check.hypothesis.gamma_o == pytest.approx(2.5, abs=1e-8)
    assert check.hypothesis.delta_o == pytest.approx(10.0, abs=1e-8)
    assert check.hypothesis.m_o == pytest.approx(1.0, abs=1e-12)
    assert check.hypothesis.theta_norm == pytest.approx(2.0, abs=1e-12)
    # ratio condition: (2.5 - 0.4) / 0.4 = 5.25 against 4
    assert check.hypothesis.ratio_margin() == pytest.approx(1.25, abs=1e-8)
    assert check.bounds_source == "computed"


def test_reference_difference_sum_value(setup, rng):
    # the window differences scale both reference atoms by one fifth, so the
    # difference frame sum is (2/5) ||f||^2
    diff = setup["system"].with_windows(
        [w - wt for w, wt in zip(setup["system"].windows, setup["perturbed"].windows)]
    )
    family = diff.family()
    for _ in range(20):
        f = random_signal(setup["system"].space, rng)
        assert analysis(family, f).norm_squared() == pytest.approx(
            0.4 * frobenius_norm(f) ** 2, rel=1e-9
        )


def test_reference_predicted_bounds(setup):
    check, prediction = verify_perturbation(
        setup["system"], setup["perturbed"], setup["theta"], 0.0, 0.2, 0.2
    )
    assert check.holds
    assert prediction.predicted_lower == pytest.approx(0.25, abs=1e-9)
    assert prediction.predicted_upper == pytest.approx(22.0, abs=1e-9)
    assert prediction.lower_valid and prediction.upper_valid
    rep = prediction.perturbed_report
    assert rep.lower_exists and rep.upper_exists
    assert prediction.predicted_lower <= rep.alpha_opt
    assert prediction.predicted_upper >= rep.beta_opt


def test_paper_pinned_bounds_mode(setup):
    check, prediction = verify_perturbation(
        setup["system"], setup["perturbed"], setup["theta"], 0.0, 0.2, 0.2,
        bounds=(2.5, 10.0),
    )
    assert check.bounds_source == "paper_pinned"
    assert prediction.predicted_lower == pytest.approx(0.25, abs=1e-12)
    assert prediction.predicted_upper == pytest.approx(22.0, abs=1e-12)


def test_eta_zero_limit_condition(setup):
    check, prediction = verify_perturbation(
        setup["system"], setup["system"], setup["theta"], 0.1, 0.2, 0.0
    )
    assert check.holds  # (1 - 0.2) * 2.5 - 0.4 = 1.6 > 0
    assert prediction.predicted_lower == pytest.approx((0.5 - 0.1) * 2.5 - 0.2, abs=1e-8)


def test_hypothesis_fails_for_unbounded_below_adjoint(setup):
    check = check_pert_hypothesis(
        setup["system"], setup["perturbed"], selector_op(setup["system"].space),
        0.0, 0.2, 0.2,
    )
    assert not check.bounded_below_ok
    assert not check.holds


def test_operator_form_matches_pointwise_form(setup, rng):
    # the PSD comparison agrees with evaluating the domination inequality on
    # random signals
    system, perturbed, theta = setup["system"], setup["perturbed"], setup["theta"]
    lam, mu, eta = 0.0, 0.2, 0.2
    check = check_pert_hypothesis(system, perturbed, theta, lam, mu, eta)
    diff = system.with_windows(
        [w - wt for w, wt in zip(system.windows, perturbed.windows)]
    )
    diff_family = diff.family()
    source_family = system.family()
    theta_star = theta.adjoint()
    worst = -np.inf
    for _ in range(200):
        f = random_signal(system.space, rng)
        lhs = analysis(diff_family, f).norm_squared()
        rhs = (
            lam * analysis(source_family, f).norm_squared()
            + mu * frobenius_norm(theta_star.apply(f)) ** 2
            + eta * frobenius_norm(theta.apply(f)) ** 2
        )
        worst = max(worst, lhs - rhs)
    assert check.difference_ok == (worst <= 1e-8)


def test_randomised_small_perturbations_bracket(setup, rng):
    system, theta = setup["system"], setup["theta"]
    checked = 0
    for _ in range(50):
        eps = float(rng.uniform(0.01, 0.25))
        noise = [
            MatrixSignal(
                system.space,
                eps * (rng.standard_normal(w.values.shape)
                       + 1j * rng.standard_normal(w.values.shape)),
            )
            for w in system.windows
        ]
        perturbed = system.with_windows([w + dn for w, dn in zip(system.windows, noise)])
        lam, mu, eta = 0.0, float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.1, 0.4))
        check, prediction = verify_perturbation(system, perturbed, theta, lam, mu, eta)
        if not (check.holds and prediction.applicable):
            continue
        checked += 1
        rep = prediction.perturbed_report
        assert prediction.predicted_lower <= rep.alpha_opt + 1e-8
        assert prediction.predicted_upper >= rep.beta_opt - 1e-8
    assert checked >= 10


@pytest.mark.parametrize("change", [
    "lattice", "dual_lattice", "automorphism", "dual_automorphism"])
def test_pairs_on_other_lattices_are_rejected(setup, change):
    # members pair up index by index on the first system's lattices, so a
    # perturbed or second system on other lattices has no difference or sum
    group = setup["system"].space.group
    other = {
        "lattice": Subgroup.full(group),
        "dual_lattice": Subgroup.full(group, dual=True),
        "automorphism": Automorphism(group, [3]),
        "dual_automorphism": Automorphism(group, [3], dual=True),
    }[change]
    perturbed = dataclasses.replace(setup["perturbed"], **{change: other})
    second = dataclasses.replace(setup["second"], **{change: other})
    with pytest.raises(ValueError, match="share their lattices and automorphisms"):
        verify_perturbation(setup["system"], perturbed, setup["theta"], 0.0, 0.2, 0.2)
    with pytest.raises(ValueError, match="share their lattices and automorphisms"):
        verify_sum(setup["system"], second, setup["theta"])


def test_second_system_bounds(setup):
    rep = theta_bounds(setup["second"], setup["theta"])
    assert rep.alpha_opt == pytest.approx(0.1, abs=1e-9)
    assert rep.beta_opt == pytest.approx(0.4, abs=1e-9)


def test_sum_condition_and_prediction(setup):
    check, prediction = verify_sum(setup["system"], setup["second"], setup["theta"])
    assert check.bounded_below_ok
    assert check.condition_ok
    assert check.condition_lhs == pytest.approx(2.5, abs=1e-8)
    assert check.condition_rhs == pytest.approx(2.0, abs=1e-12)
    lower, upper = sum_predicted_bounds(2.5, 10.0, 0.4, 2.0, 1.0)
    assert prediction.predicted_lower == pytest.approx(lower, abs=1e-7)
    assert prediction.predicted_upper == pytest.approx(upper, abs=1e-6)
    assert prediction.predicted_upper == pytest.approx(20.8, abs=1e-6)
    assert prediction.predicted_lower == pytest.approx(
        (np.sqrt(2.5) - 2.0 * np.sqrt(0.4)) ** 2, abs=1e-7
    )
    rep = prediction.perturbed_report
    assert prediction.predicted_lower <= rep.alpha_opt
    assert prediction.predicted_upper >= rep.beta_opt
    assert prediction.lower_valid and prediction.upper_valid


def test_randomised_sums_bracket(setup, rng):
    system, theta = setup["system"], setup["theta"]
    checked = 0
    for _ in range(50):
        eps = float(rng.uniform(0.02, 0.3))
        second = system.with_windows([
            MatrixSignal(
                system.space,
                eps * (rng.standard_normal(w.values.shape)
                       + 1j * rng.standard_normal(w.values.shape)),
            )
            for w in system.windows
        ])
        check, prediction = verify_sum(system, second, theta)
        if not (check.condition_ok and prediction.applicable):
            continue
        checked += 1
        rep = prediction.perturbed_report
        assert prediction.predicted_lower <= rep.alpha_opt + 1e-8
        assert prediction.predicted_upper >= rep.beta_opt - 1e-8
    assert checked >= 10


def test_sum_rejects_zero_second_system(setup):
    zero_windows = [w * 0.0 for w in setup["second"].windows]
    zero_system = setup["second"].with_windows(zero_windows)
    with pytest.raises(ValueError):
        check_sum_hypothesis(setup["system"], zero_system, setup["theta"])


def test_sum_accepts_small_second_system(setup):
    # second windows times 1e-6: delta_2 ~ 4e-13 is small but positive, so
    # the condition is checked and holds, and the predicted bounds are valid
    small = setup["second"].with_windows([w * 1e-6 for w in setup["second"].windows])
    check, prediction = verify_sum(setup["system"], small, setup["theta"])
    assert check.delta_2 == pytest.approx(4e-13, rel=1e-9)
    assert check.bounded_below_ok and check.condition_ok
    assert prediction.applicable
    assert prediction.lower_valid and prediction.upper_valid


def test_sum_hypothesis_fails_without_lower_bound(setup):
    check = check_sum_hypothesis(
        setup["system"], setup["second"], selector_op(setup["system"].space)
    )
    assert not check.bounded_below_ok


def test_pert_hypothesis_validates_constants():
    with pytest.raises(ValueError):
        PertHypothesis(-0.1, 0.0, 0.0, 1.0, 2.0, 1.0, 1.0)
    hyp = PertHypothesis(0.0, 0.2, 0.2, 2.5, 10.0, 1.0, 2.0)
    lower, upper = pert_predicted_bounds(hyp)
    assert lower == pytest.approx(0.25, abs=1e-12)
    assert upper == pytest.approx(22.0, abs=1e-12)


def test_perturbation_builds_each_system_once(setup, monkeypatch):
    # one pertexa verification meets three systems (source, difference,
    # perturbed): three block builds, the source's shared by its bounds and
    # the domination test, each on the coset blocks, none dense
    import gaborop.frames as frames
    import gaborop.perturbation as perturbation

    built = []
    build = frames._frame_blocks
    counted = lambda *args: built.append(build(*args)) or built[-1]
    monkeypatch.setattr(frames, "_frame_blocks", counted)
    monkeypatch.setattr(perturbation, "_frame_blocks", counted)
    check, prediction = verify_perturbation(
        setup["system"], setup["perturbed"], setup["theta"], 0.0, 0.2, 0.2
    )
    assert check.holds and prediction.lower_valid and prediction.upper_valid
    assert [blocks.route for blocks in built] == ["walnut"] * 3


def test_domination_test_takes_one_eigvalsh(setup, monkeypatch):
    # the margin of rhs - D and the scale of rhs come from one eigvalsh over
    # both stacks; pinned bounds keep the source's pencil out of the count
    solves = record_solves(monkeypatch)
    check = check_pert_hypothesis(setup["system"], setup["perturbed"], setup["theta"],
                                  0.0, 0.2, 0.2, bounds=(2.5, 10.0))
    assert check.holds and check.bounds_source == "paper_pinned"
    assert [name for name, _ in solves].count("eigvalsh") == 1


def test_sum_tests_the_operator_before_the_bounds(setup):
    # a first system with zero windows has no lower bound; the invertible
    # operator is still bounded below, so only the condition fails
    system = setup["system"]
    silent = system.with_windows([system.space.zero_signal() for _ in system.windows])
    check = check_sum_hypothesis(silent, setup["second"], setup["theta"])
    assert check.bounded_below_ok and not check.condition_ok
    assert check.gamma_1 is None
    assert check.theta_norm == pytest.approx(2.0, rel=1e-12)
    assert check.m_o == pytest.approx(1.0, rel=1e-12)


def test_split_dense_operator_memory():
    # pertexa's map as a dense kron(I, M) at D = 1024 (16 MB): every check
    # reads the operator on the 32 coset blocks of 32 and never forms its
    # adjoint or a D x D solve; the entry-map twin peaks at about 3 MB
    import tracemalloc

    from gaborop import SpaceOperator, bounded_below_promotion
    from gaborop.operators import DEFAULT_TOL
    from gaborop.scenario import TASKS

    system, perturbed, second = (swap_window_system(32), perturbed_window_system(32),
                                 diag_window_system(32))
    theta = SpaceOperator.from_dense(system.space, pert_theta_op(system.space).to_dense())
    assert system.space.dim == 1024
    calls = {
        "verify_perturbation": lambda: verify_perturbation(system, perturbed, theta,
                                                           0.0, 0.2, 0.2),
        "verify_sum": lambda: verify_sum(system, second, theta),
        "bounded_below_promotion": lambda: bounded_below_promotion(system, theta),
        "theta_bounds": lambda: TASKS["theta_bounds"](
            {"system": "s", "operator": "t"}, {"s": system}, {"t": theta}, DEFAULT_TOL),
    }
    for name, call in calls.items():
        call()  # warm
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, name


_NAN = float("nan")


def _tight(tightness):
    """A tight construction at ``tightness``, its reasons raised as a ValueError."""
    result = tight_theta_frame(tightness, scalar_parseval_system(FiniteAbelianGroup((8,))), 2,
                               SpaceOperator.identity(torus_space(8, 2)))
    if not result.hypothesis_ok:
        raise ValueError("; ".join(result.reasons))
    return result


@pytest.mark.parametrize("call,message", [
    (lambda setup: MeasurePair(_NAN, _NAN, 8), "point masses must be positive"),
    (lambda setup: MeasurePair(1.0 / 8.0, _NAN, 8), "point masses must be positive"),
    (lambda setup: PertHypothesis(_NAN, 0.1, 0.1, 2.5, 10.0, 1.0, 1.0), "nonnegative"),
    (lambda setup: PertHypothesis(0.0, _NAN, 0.1, 2.5, 10.0, 1.0, 1.0), "nonnegative"),
    (lambda setup: check_sum_hypothesis(setup["system"], setup["second"], setup["theta"],
                                        (2.5, 10.0), (0.1, _NAN)),
     "positive upper bound"),
    (lambda setup: _tight(_NAN), "tightness must be positive"),
], ids=["measure", "measure-dual", "pert-lambda", "pert-mu", "sum-delta", "tightness"])
def test_library_guards_reject_nan(setup, call, message):
    # each guard is written so that NaN fails it: NaN compares false, so a
    # guard of the form "x <= 0 raises" lets it through
    with pytest.raises(ValueError, match=message):
        call(setup)
