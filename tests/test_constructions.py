"""Tight constructions, operator images and the synthesis characterisation."""

import numpy as np
import pytest

from gaborop import (
    FiniteAbelianGroup,
    GaborSystem,
    MatrixSignal,
    SpaceOperator,
    Subgroup,
    analysis,
    check_composed_image,
    check_image_frame,
    frame_operator,
    frobenius_norm,
    image_system,
    normalize_to_parseval,
    omega_characterization,
    ordinary_bounds,
    scalar_parseval_system,
    theta_bounds,
    tight_theta_frame,
)
from helpers import (
    PERT_THETA,
    ZERO_MID_COLUMN_3,
    flip_op,
    pert_theta_op,
    phi_system,
    projector_op,
    random_entry_op,
    random_operator_for,
    random_signal,
    random_system,
    selector_op,
    swap_window_system,
    torus_space,
)
from gaborop.operators import is_hyponormal, is_mv_adjointable
from gaborop.signals import SignalSpace


def test_scalar_parseval_default_z8(rng):
    system = scalar_parseval_system(FiniteAbelianGroup((8,)))
    s = frame_operator(system, as_operator=False)
    assert np.abs(s - np.eye(8)).max() < 1e-9
    family = system.family()
    for _ in range(100):
        f = random_signal(system.space, rng)
        assert analysis(family, f).norm_squared() == pytest.approx(
            frobenius_norm(f) ** 2, rel=1e-9
        )


def test_phi1_system_normalises_to_parseval():
    system = normalize_to_parseval(phi_system())
    rep = ordinary_bounds(system)
    assert rep.tight
    assert rep.alpha_opt == pytest.approx(1.0, abs=1e-9)
    # the rescale is exactly 1/sqrt(8)
    assert np.abs(
        system.windows[0].values - phi_system().windows[0].values / np.sqrt(8.0)
    ).max() < 1e-12


def test_normalize_rejects_non_tight(rng):
    system = random_system(rng)
    rep = ordinary_bounds(system)
    if rep.tight:
        pytest.skip("random draw happened to be tight")
    with pytest.raises(ValueError):
        normalize_to_parseval(system)


@pytest.mark.parametrize("order", [8, 12])
@pytest.mark.parametrize("tightness", [0.5, 1.0, 3.0, 7.0])
def test_diagonal_construction_is_tight(order, tightness):
    source = scalar_parseval_system(FiniteAbelianGroup((order,)))
    space = torus_space(order, 2)
    result = tight_theta_frame(tightness, source, 2, SpaceOperator.identity(space))
    assert result.hypothesis_ok
    s = frame_operator(result.diagonal_system, as_operator=False)
    assert np.abs(s - tightness * np.eye(s.shape[0])).max() < 1e-9


def test_three_by_three_selector_construction():
    source = scalar_parseval_system(FiniteAbelianGroup((8,)))
    space3 = torus_space(8, 3)
    theta = SpaceOperator.from_entry_map(space3, ZERO_MID_COLUMN_3)
    result = tight_theta_frame(3.0, source, 3, theta)
    assert result.hypothesis_ok
    assert result.lower_valid and result.upper_valid
    assert result.image_report.alpha_opt == pytest.approx(3.0, abs=1e-9)
    assert result.image_report.beta_opt == pytest.approx(3.0, abs=1e-9)


def test_identity_construction_is_parseval_matrix_frame():
    source = scalar_parseval_system(FiniteAbelianGroup((8,)))
    space = torus_space(8, 2)
    result = tight_theta_frame(1.0, source, 2, SpaceOperator.identity(space))
    assert result.hypothesis_ok
    assert result.diagonal_report.tight
    assert result.diagonal_report.alpha_opt == pytest.approx(1.0, abs=1e-9)
    assert result.image_report.alpha_opt == pytest.approx(1.0, abs=1e-9)


def test_right_unitary_construction_valid_bounds(rng):
    source = scalar_parseval_system(FiniteAbelianGroup((8,)))
    space = torus_space(8, 2)
    for _ in range(3):
        theta = random_entry_op(space, rng, "right_unitary")
        result = tight_theta_frame(7.0, source, 2, theta)
        assert result.hypothesis_ok
        assert result.lower_valid and result.upper_valid
        assert result.image_report.alpha_opt == pytest.approx(7.0, abs=1e-8)
        assert result.image_report.beta_opt == pytest.approx(7.0, abs=1e-8)


def test_construction_reports_hypothesis_failures():
    source = scalar_parseval_system(FiniteAbelianGroup((8,)))
    space = torus_space(8, 2)
    bad = tight_theta_frame(1.0, source, 2, pert_theta_op(space))
    assert not bad.hypothesis_ok
    assert any("hyponormal" in r for r in bad.reasons)
    not_adj = tight_theta_frame(1.0, source, 2, flip_op(space))
    assert not not_adj.hypothesis_ok
    assert any("adjointable" in r for r in not_adj.reasons)
    neg = tight_theta_frame(-2.0, source, 2, SpaceOperator.identity(space))
    assert not neg.hypothesis_ok


def test_construction_normalises_a_tight_source():
    # phi_system is 8-tight: the construction takes it as its Parseval form
    theta = selector_op(torus_space(16, 2))
    have = tight_theta_frame(3.0, phi_system(), 2, theta)
    want = tight_theta_frame(3.0, normalize_to_parseval(phi_system()), 2, theta)
    assert have.hypothesis_ok and want.hypothesis_ok
    for h, w in ((have.diagonal_report, want.diagonal_report),
                 (have.image_report, want.image_report)):
        assert (h.alpha_opt, h.beta_opt) == pytest.approx((w.alpha_opt, w.beta_opt), rel=1e-12)


def test_construction_rejects_a_non_tight_source():
    space = torus_space(8, 1)
    values = np.zeros((8, 1, 1))
    values[:2, 0, 0] = [1.0, 2.0]
    # one translate under every modulation: S multiplies by |g|^2, not a constant
    source = GaborSystem(space, (MatrixSignal(space, values),), Subgroup.trivial(space.group),
                         Subgroup.full(space.group, dual=True))
    with pytest.raises(ValueError, match="not tight"):
        tight_theta_frame(1.0, source, 2, SpaceOperator.identity(torus_space(8, 2)))


def test_image_under_identity_is_same_family():
    system = swap_window_system()
    image = image_system(SpaceOperator.identity(system.space), system)
    original = system.family()
    for got, want in zip(image.family().members, original.members):
        assert np.abs(got.values - want.values).max() < 1e-12


def test_selector_image_keeps_ten_tight_bounds():
    system = swap_window_system()
    report = check_image_frame(selector_op(system.space), system)
    assert report.hypotheses["hyponormal"]
    assert report.hypotheses["mv_adjointable"]
    assert report.bounds_valid
    assert report.image_report.alpha_opt == pytest.approx(10.0, abs=1e-8)
    assert report.image_report.beta_opt == pytest.approx(10.0, abs=1e-8)


def test_flip_image_bounds_hold_without_adjointability():
    # the unitary entry permutation is not adjointable for the matrix
    # pairing, yet the image family still carries the (10, 10) bounds:
    # the sufficient hypotheses are not necessary
    system = swap_window_system()
    report = check_image_frame(flip_op(system.space), system)
    assert report.hypotheses["hyponormal"]
    assert not report.hypotheses["mv_adjointable"]
    assert report.bounds_valid
    assert report.image_report.alpha_opt == pytest.approx(10.0, abs=1e-8)
    assert report.image_report.beta_opt == pytest.approx(10.0, abs=1e-8)


def test_adjointable_normal_images_preserve_bounds(rng):
    # for adjointable normal operators the source frame's bounds stay valid
    # for the image family
    system = swap_window_system()
    for _ in range(8):
        theta = random_entry_op(system.space, rng, "right_unitary")
        report = check_image_frame(theta, system)
        assert report.hypotheses["hyponormal"]
        assert report.hypotheses["mv_adjointable"]
        assert report.bounds_valid


def test_projector_image_collapses():
    # the projector sends every member of the swap-window family to zero
    system = swap_window_system()
    theta = projector_op(system.space)
    image = image_system(theta, system)
    assert max(frobenius_norm(f) for f in image.family().members) < 1e-12
    report = check_image_frame(theta, system)
    assert not report.hypotheses["mv_adjointable"]
    assert report.bounds_valid is False


def test_composed_image_fails_without_commutation():
    system = swap_window_system()
    theta = flip_op(system.space)
    xi = selector_op(system.space)
    report = check_composed_image(xi, theta, system)
    assert report.hypotheses["mv_adjointable"]
    assert report.hypotheses["hyponormal_on_range"]
    assert not report.hypotheses["commutation"]
    assert not report.image_report.upper_exists
    # the contradiction witness: second-column signals are killed by the
    # composed operator but keep a positive frame sum against the image
    vals = np.zeros((16, 2, 2), dtype=np.complex128)
    vals[:, 0, 1] = 1.0
    vals[:, 1, 1] = 1.0
    from gaborop import MatrixSignal, compose

    witness = MatrixSignal(system.space, vals)
    composed = compose(xi, theta)
    assert frobenius_norm(composed.apply(witness)) < 1e-12
    family = image_system(xi, system)
    assert analysis(family, witness).norm_squared() > 1.0


def test_omega_gram_equals_frame_operator(rng):
    for _ in range(5):
        system = random_system(rng)
        theta = random_operator_for(system.space, rng)
        report = omega_characterization(system, theta)
        assert report.basis_condition
        assert report.max_gram_deviation < 1e-10


def test_omega_reference_bounds():
    system = swap_window_system()
    report = omega_characterization(system, pert_theta_op(system.space))
    assert report.alpha == pytest.approx(2.5, abs=1e-9)
    assert report.beta == pytest.approx(10.0, abs=1e-9)
    assert report.basis_condition


def test_omega_no_finite_upper_for_projector():
    system = swap_window_system()
    report = omega_characterization(system, projector_op(system.space))
    assert not report.upper_exists
    assert report.beta is None


def test_omega_matches_direct_verdicts_randomised(rng):
    for _ in range(50):
        system = random_system(rng)
        theta = random_operator_for(system.space, rng)
        direct = theta_bounds(system, theta)
        via_omega = omega_characterization(system, theta)
        assert via_omega.lower_exists == direct.lower_exists
        assert via_omega.upper_exists == direct.upper_exists
        assert via_omega.alpha == direct.alpha_opt
        assert via_omega.beta == direct.beta_opt


@pytest.mark.parametrize("matrix", [PERT_THETA, np.eye(4)], ids=["pert_theta", "identity"])
def test_dense_split_operator_hypotheses_solve_on_the_blocks(monkeypatch, matrix):
    # a dense kron(I_|G|, M) maps every coset into itself, so the hypothesis
    # checks read it on the coset blocks: no D x D svd or eigvalsh, and the
    # verdicts of the checks on its D x D matrix
    import gaborop.constructions as constructions

    system = swap_window_system(4)
    scalar = scalar_parseval_system(system.space.group)
    space = SignalSpace(scalar.space.group, 2, scalar.space.measure)
    dense = np.kron(np.eye(space.group.order), matrix)
    assert space.dim == 128
    sizes, quiet = [], []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "pinv"):
        def recorded(*args, _solve=getattr(np.linalg, name), **kwargs):
            if not quiet:
                sizes.append(args[0].shape[-1])
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)

    def quietly(*args, _bounds=constructions.theta_bounds, **kwargs):
        # the image family of a dense operator is no Gabor system: its
        # controlled report is one dense block, outside the hypothesis checks
        quiet.append(True)
        try:
            return _bounds(*args, **kwargs)
        finally:
            quiet.pop()

    monkeypatch.setattr(constructions, "theta_bounds", quietly)
    for theta, run in (
        (SpaceOperator.from_dense(system.space, dense),
         lambda theta: check_image_frame(theta, system).hypotheses),
        (SpaceOperator.from_dense(space, dense),
         lambda theta: tight_theta_frame(1.0, scalar, 2, theta).reasons),
    ):
        quiet.append(True)
        hypo, min_eig = is_hyponormal(theta)  # the D x D checks
        adjointable = is_mv_adjointable(theta)
        quiet.pop()
        sizes.clear()
        got = run(theta)
        assert sizes and max(sizes) <= 32, sizes
        if isinstance(got, dict):
            assert got["hyponormal"] == hypo and got["mv_adjointable"] == adjointable
            assert got["self_commutator_min_eig"] == pytest.approx(min_eig, abs=1e-12)
        else:
            assert ("operator is not hyponormal" in got) == (not hypo)
            assert ("operator is not adjointable for the matrix pairing" in got) \
                == (not adjointable)
