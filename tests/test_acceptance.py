"""Acceptance suite: one test per criterion, each printing a PASS line.

Desk scale throughout (|G| <= 64, n <= 3); every criterion finishes well
under a minute.
"""

import numpy as np

from gaborop import (
    FiniteAbelianGroup,
    MatrixSignal,
    SpaceOperator,
    adjoint,
    analysis,
    compose,
    fourier,
    frame_operator,
    frobenius_norm,
    image_system,
    lower_bound_constant,
    modulate,
    omega_characterization,
    operator_norm,
    ordinary_bounds,
    scalar_parseval_system,
    synthesis,
    theta_bounds,
    tight_theta_frame,
    trace_inner,
    translate,
    verify_perturbation,
    verify_sum,
)
from gaborop.operators import is_hyponormal
from gaborop.presets import PRESETS, build_preset
from gaborop.scenario import _build_group, _build_operator, _build_system
from helpers import (
    ZERO_MID_COLUMN_3,
    column_window_system,
    diag_window_system,
    flip_op,
    is_normal,
    null_space,
    oracle_norm_sq,
    pert_theta_op,
    perturbed_window_system,
    phi_system,
    projector_op,
    random_operator_for,
    random_signal,
    random_system,
    selector_op,
    swap_window_system,
    torus_space,
)

TOL_BOUND = 1e-9


def test_criterion_1_reference_tight_constants():
    for resolution, label in ((2, "Z16"), (3, "Z24")):
        rep1 = ordinary_bounds(phi_system(resolution, which=1))
        rep2 = ordinary_bounds(phi_system(resolution, which=2))
        assert rep1.tight and rep2.tight
        assert abs(rep1.alpha_opt - 8.0) < TOL_BOUND, label
        assert abs(rep1.beta_opt - 8.0) < TOL_BOUND, label
        assert abs(rep2.alpha_opt - 2.0) < TOL_BOUND, label
        assert abs(rep2.beta_opt - 2.0) < TOL_BOUND, label
    # normalisation-independent cross-check: the ratio of the two tight
    # constants is 4 under any weight convention
    from gaborop import MeasurePair, SignalSpace, GaborSystem
    from helpers import indicator_window, torus_lattices

    group = FiniteAbelianGroup((16,))
    conventions = [
        MeasurePair.torus_like(group),
        MeasurePair.counting(group),
        MeasurePair(0.25, 0.25, group.order),
        MeasurePair(1.0 / 32.0, 2.0, group.order),
    ]
    for measure in conventions:
        space = SignalSpace(group, 1, measure)
        lat, dlat = torus_lattices(group, 2)
        sys1 = GaborSystem(space, (indicator_window(space, 1.0),), lat, dlat)
        sys2 = GaborSystem(space, (indicator_window(space, 0.5),), lat, dlat)
        r1 = ordinary_bounds(sys1)
        r2 = ordinary_bounds(sys2)
        assert r1.tight and r2.tight
        assert abs(r1.alpha_opt / r2.alpha_opt - 4.0) < 1e-10
    print("ACCEPTANCE 1: PASS - tight constants 8 and 2 on Z16 and Z24; "
          "ratio 4 under every weight convention")


def test_criterion_2_column_window_system(rng):
    system = column_window_system()
    family = system.family()
    w = system.space.weight()
    for _ in range(100):
        f = random_signal(system.space, rng)
        target = 20.0 * w * (
            np.sum(np.abs(f.values[:, 0, 1]) ** 2)
            + np.sum(np.abs(f.values[:, 1, 1]) ** 2)
        )
        assert abs(analysis(family, f).norm_squared() - target) < 1e-8 * max(1.0, target)
    assert not ordinary_bounds(system).lower_exists
    rep = theta_bounds(system, selector_op(system.space))
    assert rep.lower_exists and rep.upper_exists
    assert abs(rep.alpha_opt - 20.0) < TOL_BOUND
    assert abs(rep.beta_opt - 20.0) < TOL_BOUND
    print("ACCEPTANCE 2: PASS - frame sum is 20(||f12||^2 + ||f22||^2); "
          "no ordinary lower bound; controlled bounds 20, 20")


def test_criterion_3_projector_negative():
    system = swap_window_system()
    ordinary = ordinary_bounds(system)
    assert ordinary.tight
    assert abs(ordinary.alpha_opt - 10.0) < TOL_BOUND
    assert abs(ordinary.beta_opt - 10.0) < TOL_BOUND
    rep = theta_bounds(system, projector_op(system.space))
    assert not rep.upper_exists  # kernel criterion
    print("ACCEPTANCE 3: PASS - 10-tight system; upper controlled bound "
          "nonexistent for the f11 projector")


def test_criterion_4_perturbation_example():
    system = swap_window_system()
    theta = pert_theta_op(system.space)
    rep = theta_bounds(system, theta)
    assert abs(rep.alpha_opt - 2.5) < TOL_BOUND
    assert abs(rep.beta_opt - 10.0) < TOL_BOUND
    assert abs(operator_norm(theta) - 2.0) < 1e-12
    assert abs(lower_bound_constant(adjoint(theta)) - 1.0) < 1e-12
    check, prediction = verify_perturbation(
        system, perturbed_window_system(), theta, 0.0, 0.2, 0.2
    )
    assert check.holds
    assert abs(prediction.predicted_lower - 0.25) < TOL_BOUND
    assert abs(prediction.predicted_upper - 22.0) < TOL_BOUND
    assert prediction.lower_valid and prediction.upper_valid
    assert prediction.predicted_lower <= prediction.perturbed_report.alpha_opt
    assert prediction.predicted_upper >= prediction.perturbed_report.beta_opt
    print("ACCEPTANCE 4: PASS - bounds 2.5 and 10; norm 2 and lower bound 1; "
          "hypothesis holds; predicted (0.25, 22) valid")


def test_criterion_5_sum_example():
    system = swap_window_system()
    second = diag_window_system()
    theta = pert_theta_op(system.space)
    rep2 = theta_bounds(second, theta)
    assert abs(rep2.alpha_opt - 0.1) < TOL_BOUND
    assert abs(rep2.beta_opt - 0.4) < TOL_BOUND
    check, prediction = verify_sum(system, second, theta)
    assert check.condition_ok
    assert abs(check.condition_lhs - 2.5) < 1e-8
    assert abs(check.condition_rhs - 2.0) < 1e-12
    lower = (np.sqrt(2.5) - 2.0 * np.sqrt(0.4)) ** 2
    assert abs(prediction.predicted_lower - lower) < 1e-7
    assert abs(prediction.predicted_upper - 20.8) < 1e-6
    rep = prediction.perturbed_report
    assert prediction.predicted_lower <= rep.alpha_opt <= rep.beta_opt
    assert rep.beta_opt <= prediction.predicted_upper
    print("ACCEPTANCE 5: PASS - second system bounds (0.1, 0.4); condition "
          "2.5 > 2; summed bounds inside the predicted interval")


def test_criterion_6_composed_image_negative(rng):
    system = swap_window_system()
    theta = flip_op(system.space)
    xi = selector_op(system.space)
    family = image_system(xi, system)
    composed = compose(xi, theta)
    rep = theta_bounds(family, composed)
    assert not rep.upper_exists  # kernel criterion
    # the contradiction witness: both atoms in the second column
    f = (rng.standard_normal(16) + 1j * rng.standard_normal(16))
    vals = np.zeros((16, 2, 2), dtype=np.complex128)
    vals[:, 0, 1] = f
    vals[:, 1, 1] = f
    witness = MatrixSignal(system.space, vals)
    assert frobenius_norm(composed.apply(witness)) < 1e-12
    assert analysis(family, witness).norm_squared() > 1e-6
    print("ACCEPTANCE 6: PASS - composed upper condition fails via the "
          "kernel criterion, witnessed by a second-column signal")


def test_criterion_7_tight_construction():
    for order in (8, 12):
        source = scalar_parseval_system(FiniteAbelianGroup((order,)))
        for tightness in (0.5, 1.0, 3.0, 7.0):
            space = torus_space(order, 2)
            result = tight_theta_frame(
                tightness, source, 2, SpaceOperator.identity(space)
            )
            assert result.hypothesis_ok
            s = frame_operator(result.diagonal_system).dense_matrix
            assert np.abs(s - tightness * np.eye(s.shape[0])).max() < TOL_BOUND
        space3 = torus_space(order, 3)
        theta = SpaceOperator.from_entry_map(space3, ZERO_MID_COLUMN_3)
        result = tight_theta_frame(3.0, source, 3, theta)
        assert result.hypothesis_ok
        assert result.lower_valid and result.upper_valid
        assert abs(result.image_report.alpha_opt - 3.0) < TOL_BOUND
        assert abs(result.image_report.beta_opt - 3.0) < TOL_BOUND
    print("ACCEPTANCE 7: PASS - diagonal systems are tight at 0.5, 1, 3, 7 "
          "on Z8 and Z12; the 3x3 selector keeps (3, 3) valid")


def _preset_instances():
    """(system, operator) pairs drawn from every bundled preset."""
    pairs = []
    for name in PRESETS:
        scenario = build_preset(name)
        group, measure = _build_group(scenario["group"])
        lattices = {}
        systems = {
            s["name"]: _build_system(group, measure, s, f"$.systems[{i}]", lattices)
            for i, s in enumerate(scenario.get("systems", []))
        }
        operators = {
            o["name"]: _build_operator(group, measure, o, None)
            for o in scenario.get("operators", [])
            if o["kind"] != "dense"
        }
        for system in systems.values():
            ops = [
                op for op in operators.values() if op.space == system.space
            ] or [SpaceOperator.identity(system.space)]
            for op in ops:
                pairs.append((system, op))
    return pairs


def test_criterion_8_omega_equivalence(rng):
    instances = _preset_instances()
    for _ in range(50):
        system = random_system(rng)
        instances.append((system, random_operator_for(system.space, rng)))
    for system, theta in instances:
        direct = theta_bounds(system, theta)
        via_omega = omega_characterization(system, theta)
        assert via_omega.lower_exists == direct.lower_exists
        assert via_omega.upper_exists == direct.upper_exists
        assert via_omega.max_gram_deviation < 1e-10
        assert via_omega.basis_condition
    print(f"ACCEPTANCE 8: PASS - verdicts agree and the synthesis gram "
          f"matches the frame operator on {len(instances)} instances")


def test_criterion_9_property_suites(rng):
    # Plancherel
    space = torus_space(6, 2)
    for _ in range(100):
        f = random_signal(space, rng)
        assert abs(oracle_norm_sq(f) - oracle_norm_sq(fourier(f))) < 1e-10

    # modulation/translation commutation phase
    from gaborop import character_value

    group = space.group
    for _ in range(100):
        f = random_signal(space, rng)
        a = group.element([int(rng.integers(0, 6))])
        eta = group.dual_element([int(rng.integers(0, 6))])
        lhs = modulate(translate(f, a), eta)
        rhs = character_value(eta, a) * translate(modulate(f, eta), a)
        assert np.abs(lhs.values - rhs.values).max() < 1e-12

    # adjoint involution
    for _ in range(100):
        op = random_operator_for(space, rng)
        twice = op.adjoint().adjoint()
        assert np.abs(twice.to_dense() - op.to_dense()).max() < 1e-12

    # analysis/synthesis adjointness
    for _ in range(100):
        system = random_system(rng)
        family = system.family()
        f = random_signal(system.space, rng)
        shape = (len(family), system.space.n, system.space.n)
        carr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs = type(analysis(family, f))(family.labels, carr)
        lhs = trace_inner(synthesis(family, coeffs), f)
        rhs = np.sum(carr * np.conj(analysis(family, f).array))
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    # hyponormal iff normal in finite dimensions
    for _ in range(100):
        op = random_operator_for(space, rng)
        hypo, _ = is_hyponormal(op)
        assert hypo == is_normal(op)

    # kernel-inclusion existence characterisations against feasibility
    for _ in range(100):
        system = random_system(rng)
        theta = random_operator_for(system.space, rng)
        rep = theta_bounds(system, theta)
        s = frame_operator(system).dense_matrix
        t = theta.to_dense()
        if rep.upper_exists and rep.beta_opt is not None:
            gram = t.conj().T @ t
            assert np.linalg.eigvalsh(rep.beta_opt * gram - s)[0] >= -1e-8
        if not rep.upper_exists:
            kernel = null_space(t.conj().T @ t)
            worst = max(
                float(np.real(kernel[:, i].conj() @ s @ kernel[:, i]))
                for i in range(kernel.shape[1])
            )
            assert worst > 0  # no finite beta can dominate
        if rep.lower_exists and rep.alpha_opt is not None:
            gram = t @ t.conj().T
            assert np.linalg.eigvalsh(s - rep.alpha_opt * gram)[0] >= -1e-8
        if not rep.lower_exists:
            kernel = null_space(s)
            worst = max(
                float(np.linalg.norm(t.conj().T @ kernel[:, i]))
                for i in range(kernel.shape[1])
            )
            assert worst > 1e-9
    print("ACCEPTANCE 9: PASS - six property suites, 100 randomised "
          "instances each, zero failures")
