"""Gabor families, analysis/synthesis, frame operators and bound reports."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaborop import (
    Automorphism,
    FiniteAbelianGroup,
    GaborSystem,
    MatrixSignal,
    MeasurePair,
    SignalSpace,
    SpaceOperator,
    Subgroup,
    VectorFamily,
    analysis,
    analysis_matrix,
    bounded_below_promotion,
    check_pert_hypothesis,
    check_sum_hypothesis,
    compose,
    diagnostics,
    frame_operator,
    image_system,
    modulate,
    mv_inner,
    omega_characterization,
    ordinary_bounds,
    synthesis,
    theta_bounds,
    trace_inner,
    translate,
    verify_perturbation,
    verify_sum,
)
from gaborop.frames import valid_bounds
from gaborop.operators import DEFAULT_TOL
from gaborop.scenario import TASKS
from helpers import (
    LOG_SCALES,
    column_window_system,
    diag_window_system,
    flip_op,
    is_normal,
    oracle_annihilator,
    oracle_character,
    oracle_family,
    oracle_frame_operator,
    oracle_frame_sum,
    oracle_omega_report,
    oracle_span,
    pert_theta_op,
    perturbed_window_system,
    phi_system,
    projector_op,
    random_entry_op,
    random_signal,
    random_system,
    selector_op,
    swap_window_system,
    torus_space,
)


def test_family_enumeration_order():
    system = phi_system()
    family = system.family()
    assert len(family) == 8 * 2
    labels = list(family.labels)
    assert labels[0] == (0, (0,), (0,))
    assert labels[1] == (0, (0,), (8,))
    assert labels[2] == (0, (2,), (0,))
    assert labels == sorted(labels)


def test_family_matches_oracle_on_product_group(rng):
    # a two-factor group, proper lattices and non-identity automorphisms on
    # both sides, against member-by-member coordinate arithmetic
    group = FiniteAbelianGroup((4, 6))
    space = SignalSpace(group, 2, MeasurePair.torus_like(group))
    lattice = Subgroup(group, [group.element([1, 2])])
    dual_lattice = Subgroup(group, [group.dual_element([2, 0]), group.dual_element([0, 3])])
    assert 1 < len(lattice) < group.order and 1 < len(dual_lattice) < group.order
    system = GaborSystem(
        space, (random_signal(space, rng), random_signal(space, rng)), lattice, dual_lattice,
        Automorphism(group, [[1, 2], [3, 1]]), Automorphism(group, [[3, 2], [3, 5]], dual=True),
    )
    family = system.family()
    array, labels = oracle_family(system)
    assert list(family.labels) == labels
    assert family.array.shape == array.shape == (2 * 12 * 4, 24, 2, 2)
    assert np.abs(family.array - array).max() < 1e-12
    assert np.array_equal(np.stack([f.values for f in family.members]), family.array)


def test_analysis_zero_signal():
    system = swap_window_system()
    f = system.space.zero_signal()
    coeffs = analysis(system, f)
    assert coeffs.norm_squared() == 0.0


def test_analysis_kills_first_column_signals(rng):
    system = column_window_system()
    vals = np.zeros((16, 2, 2), dtype=np.complex128)
    vals[:, 0, 0] = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    vals[:, 1, 0] = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    f = MatrixSignal(system.space, vals)
    assert analysis(system, f).norm_squared() < 1e-20


def test_frame_sum_equals_quadratic_form(rng):
    system = swap_window_system()
    family = system.family()
    s_op = frame_operator(system)
    for _ in range(100):
        f = random_signal(system.space, rng)
        direct = analysis(family, f).norm_squared()
        quad = trace_inner(s_op.apply(f), f).real
        assert abs(direct - quad) < 1e-8 * max(1.0, direct)


def test_frame_sum_matches_loop_oracle(rng):
    system = swap_window_system()
    family = system.family()
    for _ in range(5):
        f = random_signal(system.space, rng)
        assert analysis(family, f).norm_squared() == pytest.approx(
            oracle_frame_sum(family.members, f), rel=1e-10
        )


def test_synthesis_zero_and_tight_roundtrip(rng):
    system = swap_window_system()
    family = system.family()
    zero = analysis(family, system.space.zero_signal())
    out = synthesis(family, zero)
    assert np.abs(out.values).max() == 0.0
    f = random_signal(system.space, rng)
    # 10-tight: synthesis after analysis multiplies by the tight constant
    back = synthesis(family, analysis(family, f))
    assert np.abs(back.values - 10.0 * f.values).max() < 1e-8


def test_analysis_synthesis_adjointness(rng):
    system = swap_window_system()
    family = system.family()
    n = system.space.n
    for _ in range(20):
        f = random_signal(system.space, rng)
        coeffs = analysis(family, f)
        rand_coeffs = coeffs.array * 0 + (
            rng.standard_normal(coeffs.array.shape)
            + 1j * rng.standard_normal(coeffs.array.shape)
        )
        c = type(coeffs)(coeffs.labels, rand_coeffs)
        lhs = trace_inner(synthesis(family, c), f)
        rhs = np.sum(c.array * np.conj(analysis(family, f).array))
        assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("resolution,expected", [(2, 8.0), (3, 8.0)])
def test_phi1_system_tight_constant(resolution, expected):
    rep = ordinary_bounds(phi_system(resolution, which=1))
    assert rep.tight
    assert rep.alpha_opt == pytest.approx(expected, abs=1e-9)
    assert rep.beta_opt == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("resolution", [2, 3])
def test_phi2_system_tight_constant(resolution):
    rep = ordinary_bounds(phi_system(resolution, which=2))
    assert rep.tight
    assert rep.alpha_opt == pytest.approx(2.0, abs=1e-9)


def test_swap_window_system_ten_tight():
    rep = ordinary_bounds(swap_window_system())
    assert rep.tight
    assert rep.alpha_opt == pytest.approx(10.0, abs=1e-9)
    assert rep.beta_opt == pytest.approx(10.0, abs=1e-9)


def test_analysis_matrix_is_the_identity_expansion_exactly(rng):
    # row (m, i, j), column (x, p, r) is delta(i, p) sqrt(w) conj(f_m(x)[j, r]),
    # assigned on the diagonal slices: bit for bit the product with I_n
    for _ in range(5):
        system = random_system(rng)
        family, n = system.family(), system.space.n
        stack = np.sqrt(system.space.weight()) * np.conj(family.array)
        want = np.einsum("ip,mxjr->mijxpr", np.eye(n), stack).reshape(-1, system.space.dim)
        assert analysis_matrix(system).tobytes() == want.tobytes()


def test_frame_operator_hermitian_and_loop_assembled(rng):
    system = random_system(rng)
    family = system.family()
    s = frame_operator(family, as_operator=False)
    assert np.abs(s - s.conj().T).max() < 1e-10
    independent = oracle_frame_operator(family.members, family.space)
    assert np.abs(s - independent).max() < 1e-10
    a = analysis_matrix(family)
    assert np.abs(s - a.conj().T @ a).max() < 1e-10


def test_column_window_system_is_not_a_frame():
    rep = ordinary_bounds(column_window_system())
    assert not rep.lower_exists
    assert rep.alpha_opt == pytest.approx(0.0, abs=1e-9)
    assert rep.upper_exists


def test_empty_window_system():
    space = torus_space(8, 2)
    system = GaborSystem(space, (), Subgroup.full(space.group),
                         Subgroup.full(space.group, dual=True))
    rep = ordinary_bounds(system)
    assert not rep.lower_exists
    assert rep.beta_opt == pytest.approx(0.0, abs=1e-12)


def test_selector_bounds_twenty():
    system = column_window_system()
    rep = theta_bounds(system, selector_op(system.space))
    assert rep.lower_exists and rep.upper_exists and rep.tight
    assert rep.alpha_opt == pytest.approx(20.0, abs=1e-9)
    assert rep.beta_opt == pytest.approx(20.0, abs=1e-9)


def test_projector_kills_upper_bound():
    system = swap_window_system()
    rep = theta_bounds(system, projector_op(system.space))
    assert not rep.upper_exists
    assert rep.beta_opt is None
    assert rep.lower_exists  # the lower inequality survives


def test_pert_theta_bounds():
    system = swap_window_system()
    rep = theta_bounds(system, pert_theta_op(system.space))
    assert rep.alpha_opt == pytest.approx(2.5, abs=1e-9)
    assert rep.beta_opt == pytest.approx(10.0, abs=1e-9)
    assert rep.cross_check["alpha_pinv"] == pytest.approx(2.5, abs=1e-9)
    assert rep.cross_check["beta_pinv"] == pytest.approx(10.0, abs=1e-9)


def test_flip_bounds_ten_tight():
    system = swap_window_system()
    rep = theta_bounds(system, flip_op(system.space))
    assert rep.tight
    assert rep.alpha_opt == pytest.approx(10.0, abs=1e-9)
    assert rep.beta_opt == pytest.approx(10.0, abs=1e-9)


def test_identity_control_equals_ordinary(rng):
    for _ in range(5):
        system = random_system(rng)
        ident = SpaceOperator.identity(system.space)
        ordinary = ordinary_bounds(system)
        controlled = theta_bounds(system, ident)
        assert controlled.upper_exists
        assert controlled.beta_opt == pytest.approx(ordinary.beta_opt, abs=1e-8)
        if ordinary.lower_exists:
            assert controlled.alpha_opt == pytest.approx(ordinary.alpha_opt, abs=1e-8)


def test_zero_operator_with_nonzero_system():
    system = swap_window_system()
    rep = theta_bounds(system, SpaceOperator.zero(system.space))
    assert not rep.upper_exists  # reported, not raised
    assert rep.lower_exists      # vacuous lower inequality
    assert rep.alpha_opt is None


def test_kernel_criterion_matches_witnesses(rng):
    # whenever the upper verdict is negative there is a kernel vector with
    # positive frame sum; whenever positive, sampled quotients stay bounded
    hits = 0
    for _ in range(40):
        system = random_system(rng)
        theta = random_entry_op(system.space, rng,
                                "singular" if rng.random() < 0.5 else "general")
        family = system.family()
        rep = theta_bounds(family, theta, 1e-9)
        t = theta.to_dense()
        gram = t.conj().T @ t
        vals, vecs = np.linalg.eigh(gram)
        kernel = vecs[:, vals <= 1e-9 * max(vals[-1], 0.0)]
        s = frame_operator(family, as_operator=False)
        if kernel.shape[1] == 0:
            assert rep.upper_exists
            continue
        worst = max(
            float(np.real(kernel[:, i].conj() @ s @ kernel[:, i]))
            for i in range(kernel.shape[1])
        )
        if rep.upper_exists:
            assert worst <= 1e-6 * max(1.0, np.abs(s).max())
        else:
            hits += 1
            assert worst > 1e-9
    assert hits > 0


def test_bounded_below_promotion_identity_scaling(rng):
    system = swap_window_system()
    theta = SpaceOperator.from_entry_map(system.space, 3.0 * np.eye(4))
    result = bounded_below_promotion(system, theta)
    assert result.hypothesis_ok
    assert result.predicted_lower == pytest.approx(10.0 / 9.0, abs=1e-9)
    assert result.predicted_upper == pytest.approx(10.0 / 9.0, abs=1e-9)
    assert result.lower_valid and result.upper_valid
    # scaling identity keeps predictions optimal
    assert result.controlled.alpha_opt == pytest.approx(10.0 / 9.0, abs=1e-8)


def test_bounded_below_promotion_pert_theta():
    system = swap_window_system()
    result = bounded_below_promotion(system, pert_theta_op(system.space))
    assert result.hypothesis_ok
    assert result.predicted_lower == pytest.approx(2.5, abs=1e-9)
    assert result.lower_valid and result.upper_valid


def test_bounded_below_promotion_random_invertible(rng):
    system = swap_window_system()
    for _ in range(5):
        theta = random_entry_op(system.space, rng, "invertible")
        result = bounded_below_promotion(system, theta)
        assert result.hypothesis_ok
        assert result.lower_valid and result.upper_valid


def test_bounded_below_promotion_rejects_singular():
    system = swap_window_system()
    result = bounded_below_promotion(system, selector_op(system.space))
    assert not result.hypothesis_ok
    assert "bounded below" in result.reason


def test_monotonicity_window_enlargement(rng):
    for _ in range(10):
        system = random_system(rng)
        rep = ordinary_bounds(system)
        extra = random_signal(system.space, rng)
        bigger = system.with_windows(list(system.windows) + [extra])
        rep2 = ordinary_bounds(bigger)
        assert rep2.beta_opt >= rep.beta_opt - 1e-9
        if rep.lower_exists:
            assert rep2.alpha_opt >= rep.alpha_opt - 1e-9


def test_alpha_below_beta_invariant(rng):
    for _ in range(15):
        system = random_system(rng)
        theta = random_entry_op(system.space, rng)
        rep = theta_bounds(system, theta)
        if (
            rep.lower_exists and rep.upper_exists
            and rep.alpha_opt is not None and rep.beta_opt is not None
        ):
            assert rep.alpha_opt <= rep.beta_opt + 1e-8


def test_coefficient_lookup():
    system = phi_system()
    family = system.family()
    f = family.members[3]
    coeffs = analysis(family, f)
    label = family.labels[3]
    expected = mv_inner(f, family.members[3])
    assert np.abs(coeffs[label] - expected).max() < 1e-12


def _omega_check(system, theta):
    """(basis condition, verdicts agree, findings) of the omega_check task."""
    outcome = TASKS["omega_check"]({"system": "main", "operator": "theta"},
                                   {"main": system}, {"theta": theta}, DEFAULT_TOL)
    omega = outcome.results["omega"]
    return omega.basis_condition, outcome.results["verdicts_agree"], outcome.findings


@settings(max_examples=30)
@given(
    case=st.one_of(st.sampled_from(["remark-theta0", "omega-check"]),
                   st.integers(0, 2**32 - 1)),
    c=LOG_SCALES,
    phase=st.floats(0.0, 2 * np.pi),
)
@example(case="remark-theta0", c=1e-6, phase=0.0)
@example(case=3, c=1e-6, phase=0.0)  # an ordinary frame
@example(case="omega-check", c=1e3, phase=0.0)  # the gram deviation is exactly 0 at any scale
@example(case="omega-check", c=1e5, phase=0.0)
def test_window_scaling_scales_constants(case, c, phase):
    # windows times c: S scales by |c|^2, the grams stay, so alpha and beta
    # scale by |c|^2 and no verdict moves, from tiny to huge windows; the same
    # holds for the ordinary bounds, and the omega check raises no finding
    if case == "remark-theta0":
        system = column_window_system()
        theta = selector_op(system.space)
    elif case == "omega-check":
        system = swap_window_system()
        theta = pert_theta_op(system.space)
    else:
        rng = np.random.default_rng(case)
        system = random_system(rng)
        theta = random_entry_op(system.space, rng, ("singular", "general", "invertible")[case % 3])
    scale = c * np.exp(1j * phase)
    scaled_system = system.with_windows([w * scale for w in system.windows])
    base = theta_bounds(system, theta)
    scaled = theta_bounds(scaled_system, theta)
    verdicts = lambda r: (r.lower_exists, r.upper_exists, r.tight,
                          r.alpha_opt is None, r.beta_opt is None)
    assert verdicts(scaled) == verdicts(base)
    ordinary, ordinary_scaled = ordinary_bounds(system), ordinary_bounds(scaled_system)
    assert verdicts(ordinary_scaled) == verdicts(ordinary)
    assert ordinary_scaled.beta_opt == pytest.approx(c * c * ordinary.beta_opt, rel=1e-9, abs=0.0)
    for have, want in ((scaled.alpha_opt, base.alpha_opt), (scaled.beta_opt, base.beta_opt)):
        if want is not None:
            assert have == pytest.approx(c * c * want, rel=1e-9, abs=0.0)
    assert all(v["holds"] for k, v in scaled.cross_check.items() if k.endswith("_certificate"))
    assert _omega_check(scaled_system, theta) == _omega_check(system, theta) == (True, True, [])
    if case == "remark-theta0":
        assert scaled.tight
        assert scaled.alpha_opt == pytest.approx(20.0 * c * c, rel=1e-9, abs=0.0)
        assert scaled.beta_opt == pytest.approx(20.0 * c * c, rel=1e-9, abs=0.0)


def test_theta_bounds_eigensolver_budget(monkeypatch):
    # one eigh of S and both grams, one eigvalsh of the whitened blocks of
    # both sides and one of both certificates' pencils, whatever the size or
    # the kernels
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "pinv"):
        def counted(*args, _solve=getattr(np.linalg, name), **kwargs):
            calls.append(args[0].shape)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    counts = {}
    for resolution in (2, 4):
        system = column_window_system(resolution)
        theta = selector_op(system.space)
        calls.clear()
        rep = theta_bounds(system, theta)
        assert rep.tight
        counts[system.space.dim] = len(calls)
    assert sorted(counts) == [64, 128]
    assert counts[64] == counts[128] == 3


def test_ordinary_bounds_eigensolver_budget_at_4096(monkeypatch):
    # each block of S is I_n (x) K, so ordinary bounds make one eigvalsh, on
    # the 1024 blocks K of 2 x 2 at D = 4096, and repeat each eigenvalue n = 2
    # times; the constants are those read from S's own eigh in theta_bounds
    from gaborop.frames import _ordinary_report

    system = swap_window_system(128)
    theta = pert_theta_op(system.space)
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "pinv"):
        def counted(*args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(args[0])))
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rep = ordinary_bounds(system)
    assert calls == [("eigvalsh", (1024, 2, 2))]
    spectrum = rep.spectra["frame_operator"]
    assert system.space.dim == len(spectrum) == 4096
    assert spectrum[::2] == spectrum[1::2]
    controlled = theta_bounds(system, theta)
    dense_spectrum = controlled.spectra["frame_operator"]
    from_s = _ordinary_report(dense_spectrum, controlled.route, DEFAULT_TOL)
    assert rep.alpha_opt == pytest.approx(from_s.alpha_opt, rel=1e-12)
    assert rep.beta_opt == pytest.approx(from_s.beta_opt, rel=1e-12)
    assert (rep.lower_exists, rep.tight) == (from_s.lower_exists, from_s.tight)
    assert np.allclose(spectrum, dense_spectrum, rtol=0.0, atol=1e-12 * dense_spectrum[-1])


def _relabelled(system, matrix):
    """``system`` relabelled by the automorphism U of its group: windows
    g(U^-1 x), translations composed with U, and modulations composed with
    the dual map V for which chi_{V gamma}(U y) = chi_gamma(y)."""
    group = system.space.group
    u = Automorphism(group, matrix)
    points = list(group.elements())
    images = [u(y) for y in points]

    def dual_image(gamma):
        return next(eta.coords for eta in group.dual_elements()
                    if all(abs(oracle_character(group.factors, eta.coords, uy.coords)
                               - oracle_character(group.factors, gamma, y.coords)) < 1e-9
                           for y, uy in zip(points, images)))

    v = np.array([dual_image(e) for e in np.eye(group.rank, dtype=int).tolist()]).T
    windows = []
    for w in system.windows:
        values = np.empty_like(w.values)
        values[[uy.index for uy in images]] = w.values
        windows.append(MatrixSignal(system.space, values))
    return GaborSystem(system.space, tuple(windows), system.lattice, system.dual_lattice,
                       Automorphism(group, u.matrix @ system.automorphism.matrix),
                       Automorphism(group, v @ system.dual_automorphism.matrix, dual=True))


def _unitary_move(case, shift, move):
    if move == "relabel":
        # on Z4 x Z6, where automorphisms move subgroups
        system, theta = _walnut_case((4, 6), case)
        return system, _relabelled(system, _Z46_AUTOMORPHISMS[shift % 4]), theta
    rng = np.random.default_rng(case)
    system = random_system(rng)
    theta = random_entry_op(system.space, rng, ("singular", "general", "invertible")[case % 3])
    group = system.space.group
    if move == "translate":
        a = group.element([shift])
        moved = system.with_windows([translate(w, a) for w in system.windows])
    else:
        eta = group.dual_element([shift])
        moved = system.with_windows([modulate(w, eta) for w in system.windows])
    return system, moved, theta


@settings(max_examples=30)
@given(case=st.integers(0, 2**32 - 1), shift=st.integers(0, 47),
       move=st.sampled_from(["translate", "modulate", "relabel"]))
@example(case=5, shift=3, move="relabel")  # fails if V is dropped from the dual side
def test_moving_windows_keeps_bounds(case, shift, move):
    # translating or modulating every window, or relabelling the group by an
    # automorphism, conjugates S by a unitary that commutes with every entry
    # map, so no constant or verdict moves
    system, moved, theta = _unitary_move(case, shift, move)
    verdicts = lambda r: (r.lower_exists, r.upper_exists, r.tight,
                          r.alpha_opt is None, r.beta_opt is None)
    for bounds in (ordinary_bounds, lambda s: theta_bounds(s, theta)):
        base, after = bounds(system), bounds(moved)
        assert verdicts(after) == verdicts(base)
        scale = abs(base.beta_opt or 0.0) + abs(base.alpha_opt or 0.0)
        for have, want in ((after.alpha_opt, base.alpha_opt), (after.beta_opt, base.beta_opt)):
            if want is not None:
                assert have == pytest.approx(want, rel=1e-9, abs=1e-12 * scale)


def _scaling_operator(case, space):
    """A normal entry map with eigenvalues 1..4, or a right multiplication
    with 1e-6 relative noise (not adjointable)."""
    rng = np.random.default_rng(7)
    if case == "normal":
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        return SpaceOperator.from_entry_map(space, q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ q.conj().T)
    right = SpaceOperator.right_multiplication(space, rng.standard_normal((2, 2))).entry_matrix
    noise = 1e-6 * np.abs(right).max() * rng.standard_normal((4, 4))
    return SpaceOperator.from_entry_map(space, right + noise)


@settings(max_examples=30)
@given(
    case=st.one_of(st.sampled_from(["phi", "normal", "noisy-right"]),
                   st.integers(0, 2**32 - 1)),
    c=LOG_SCALES,
    phase=st.floats(0.0, 2 * np.pi),
)
@example(case="phi", c=1e-10, phase=0.0)
@example(case=1, c=1e-6, phase=0.0)  # a general 4x4 map stays not hyponormal
@example(case="normal", c=1e6, phase=0.0)  # a normal one stays hyponormal
@example(case="noisy-right", c=1e-6, phase=0.0)  # 1e-6 relative noise stays not adjointable
def test_operator_scaling_scales_constants(case, c, phase):
    # T times c: T T* and T* T scale by |c|^2, so alpha and beta scale by
    # 1/|c|^2, and the bounded-below tests (relative to ||T||) keep every
    # verdict, down to 1e-10 * I on a tight frame; so do the operator's own
    # diagnostics (relative to ||T||^2 and to its largest entry)
    if case == "phi":
        system = phi_system(2, 1)
        theta = SpaceOperator.identity(system.space)
    elif case in ("normal", "noisy-right"):
        system = swap_window_system()
        theta = _scaling_operator(case, system.space)
    else:
        rng = np.random.default_rng(case)
        system = random_system(rng)
        theta = random_entry_op(system.space, rng, ("singular", "general", "invertible")[case % 3])
    scale = c * np.exp(1j * phase)
    scaled_theta = SpaceOperator.from_entry_map(system.space, scale * theta.entry_matrix)
    verdicts = lambda r: (r.lower_exists, r.upper_exists, r.tight,
                          r.alpha_opt is None, r.beta_opt is None)
    base, scaled = theta_bounds(system, theta), theta_bounds(system, scaled_theta)
    assert verdicts(scaled) == verdicts(base)
    for have, want in ((scaled.alpha_opt, base.alpha_opt), (scaled.beta_opt, base.beta_opt)):
        if want is not None:
            assert have == pytest.approx(want / (c * c), rel=1e-9, abs=0.0)
    operator_verdicts = lambda t: (diagnostics(t).is_hyponormal,
                                   diagnostics(t).is_mv_adjointable, is_normal(t))
    assert operator_verdicts(scaled_theta) == operator_verdicts(theta)
    promotion = bounded_below_promotion(system, theta)
    promotion_scaled = bounded_below_promotion(system, scaled_theta)
    assert ((promotion_scaled.hypothesis_ok, promotion_scaled.reason,
             promotion_scaled.lower_valid, promotion_scaled.upper_valid)
            == (promotion.hypothesis_ok, promotion.reason,
                promotion.lower_valid, promotion.upper_valid))
    pert = check_pert_hypothesis(system, system, theta, 0.0, 0.0, 0.0)
    pert_scaled = check_pert_hypothesis(system, system, scaled_theta, 0.0, 0.0, 0.0)
    assert ((pert_scaled.bounded_below_ok, pert_scaled.holds)
            == (pert.bounded_below_ok, pert.holds))
    if base.upper_exists and base.beta_opt:
        total = check_sum_hypothesis(system, system, theta)
        total_scaled = check_sum_hypothesis(system, system, scaled_theta)
        assert ((total_scaled.bounded_below_ok, total_scaled.condition_ok)
                == (total.bounded_below_ok, total.condition_ok))
    if case in ("normal", "noisy-right"):
        assert operator_verdicts(scaled_theta) == {"normal": (True, False, True),
                                                   "noisy-right": (False, False, False)}[case]
    if case == "phi":
        assert promotion_scaled.hypothesis_ok and scaled.tight
        assert promotion_scaled.lower_valid and promotion_scaled.upper_valid
        assert scaled.alpha_opt == pytest.approx(8.0 / (c * c), rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# Walnut coset blocks against the dense route

_Z46_AUTOMORPHISMS = ([[3, 0], [0, 1]], [[1, 0], [0, 5]], [[1, 2], [3, 1]], [[3, 2], [3, 5]])


def _walnut_case(factors, seed):
    """A random system on Z_N or Z4xZ6: lattices from random generators,
    non-identity automorphisms on both sides, some zero windows, and an entry
    map that is general, rank-deficient or a 0/1 selector."""
    rng = np.random.default_rng(seed)
    group = FiniteAbelianGroup(factors)
    n = int(rng.integers(1, 3))
    space = SignalSpace(group, n, MeasurePair.torus_like(group))

    def subgroup(dual):
        make = group.dual_element if dual else group.element
        gens = [make([int(rng.integers(0, f)) for f in factors])
                for _ in range(int(rng.integers(0, 3)))]
        return Subgroup(group, gens, dual=dual)

    def automorphism(dual):
        if len(factors) == 2:
            return Automorphism(group, _Z46_AUTOMORPHISMS[int(rng.integers(0, 4))], dual=dual)
        units = [u for u in range(2, factors[0]) if np.gcd(u, factors[0]) == 1]
        return Automorphism(group, [int(rng.choice(units))], dual=dual)

    windows = tuple(space.zero_signal() if rng.random() < 0.25 else random_signal(space, rng)
                    for _ in range(int(rng.integers(0, 3))))
    system = GaborSystem(space, windows, subgroup(False), subgroup(True),
                         automorphism(False), automorphism(True))
    kind = ("general", "singular", "selector")[int(rng.integers(0, 3))]
    if kind == "selector":
        theta = SpaceOperator.from_entry_map(space, np.diag(rng.integers(0, 2, n * n)))
    else:
        theta = random_entry_op(space, rng, kind)
    return system, theta


def _zak_order(system) -> int:
    """|H| for H the lattice translations that lie in the annihilator of the
    modulations, by the loop oracles."""
    group = system.space.group
    translations = oracle_span(group, [system.automorphism(k) for k in system.lattice.generators])
    modulations = oracle_span(group, [system.dual_automorphism(m)
                                      for m in system.dual_lattice.generators], dual=True)
    return len(set(translations) & set(oracle_annihilator(group, modulations)))


def _assert_same_report(blocked, dense):
    assert blocked.route["name"] == "walnut" and dense.route["name"] == "dense"
    assert dense.route["zak"] == 1
    _assert_same_bounds(blocked, dense)


def _assert_zak_route(report, system):
    # |Gamma| cosets, each split into |H| blocks of |G| n^2 / (|Gamma| |H|)
    zak, dim = _zak_order(system), system.space.dim
    blocks = len(system.dual_lattice) * zak
    assert {k: report.route[k] for k in ("name", "blocks", "block_dim", "zak")} == \
        {"name": "walnut", "blocks": blocks, "block_dim": dim // blocks, "zak": zak}


def _assert_same_bounds(blocked, dense):
    verdicts = lambda r: (r.lower_exists, r.upper_exists, r.tight,
                          r.alpha_opt is None, r.beta_opt is None)
    assert verdicts(blocked) == verdicts(dense)
    for have, want in ((blocked.alpha_opt, dense.alpha_opt), (blocked.beta_opt, dense.beta_opt)):
        if want is not None:
            assert have == pytest.approx(want, rel=1e-9, abs=1e-12 * abs(dense.beta_opt or 0.0))
    for report in (blocked, dense):
        assert all(v["holds"] for k, v in report.cross_check.items() if k.endswith("_certificate"))
    assert blocked.spectra.keys() == dense.spectra.keys()
    for name, values in dense.spectra.items():
        scale = max(1.0, abs(values[-1])) if values else 1.0
        assert np.allclose(blocked.spectra[name], values, rtol=0.0, atol=1e-12 * scale)


def _assert_bitwise_equal_blocks(a, b):
    assert (a.route, a.reason) == (b.route, b.reason)
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=60)
@given(factors=st.sampled_from([(8,), (12,), (4, 6)]), seed=st.integers(0, 2**32 - 1))
@example(factors=(4, 6), seed=1522)  # H = Z2 x Z2 in 3 cosets of order 8, J = 2
# seed 110 (|H| = 6), then its twin on the same lattices under [[3, 0], [0, 1]] (|H| = 3)
@example(factors=(4, 6), seed="twin")
# Z_32 with lattice <2> and modulations <8>: H = <4>, two translates per coset of H
@example(factors=(32,), seed="z32")
def test_walnut_route_matches_dense_route(factors, seed):
    # the family of a Gabor system takes the dense route; the system itself
    # the Zak blocks inside the coset blocks: the same verdicts, constants
    # and spectra, and the same blocks bit for bit from a cold and a warm
    # lattice layout, whose gather keeps one translate per coset of H
    from dataclasses import replace

    from gaborop.frames import _frame_blocks, _layout

    _layout.cache_clear()
    if seed == "twin":
        system, theta = _walnut_case(factors, 110)
        twin = replace(system, automorphism=Automorphism(system.space.group,
                                                         _Z46_AUTOMORPHISMS[0]))
        cases = [(system, theta), (twin, theta)]
    elif seed == "z32":
        system, theta = _walnut_case(factors, 4)  # n = 2, two nonzero windows
        group = system.space.group
        cases = [(replace(system, lattice=Subgroup(group, [group.element([2])]),
                          dual_lattice=Subgroup(group, [group.dual_element([8])], dual=True)),
                  theta)]
        assert _zak_order(cases[0][0]) == 8
    else:
        cases = [_walnut_case(factors, seed)]
    cold = [_frame_blocks(system, theta) for system, theta in cases]
    for (system, theta), blocks in zip(cases, cold):
        _check_walnut_route(system, theta)
        _assert_bitwise_equal_blocks(_frame_blocks(system, theta), blocks)
        translates = len(system.lattice)
        assert _layout_of(system).gather.shape[0] == translates // _zak_order(system)
        assert _layout_of(system, split=False).gather.shape[0] == translates
        _check_dense_route_against_oracle(system)


def _check_dense_route_against_oracle(system):
    # the dense route, of the family and of the system under a dense operator
    # with an entry off the coset blocks, is S = A^* A from the analysis matrix
    from gaborop.frames import _frame_blocks

    family = system.family()
    want = frame_operator(family, as_operator=False)
    builds = [_frame_blocks(family)]
    index = _frame_blocks(system).index
    if len(index) > 1:  # an entry coupling two cosets
        coupled = np.eye(system.space.dim)
        coupled[index[0, 0], index[1, -1]] = 1.0
        builds.append(_frame_blocks(system, SpaceOperator.from_dense(system.space, coupled)))
    for blocks in builds:
        assert (blocks.route, blocks.index.shape) == ("dense", (1, system.space.dim))
        assert np.abs(blocks.s[0] - want).max() <= 1e-13 * np.abs(want).max()


def _check_walnut_route(system, theta):
    order = system.space.group.order
    assume(len(system.lattice) < order and len(system.dual_lattice) < order)
    controlled = theta_bounds(system, theta)
    _assert_zak_route(controlled, system)
    _assert_same_report(controlled, theta_bounds(system.family(), theta))
    ordinary = ordinary_bounds(system)
    _assert_zak_route(ordinary, system)
    _assert_same_report(ordinary, ordinary_bounds(system.family()))
    # the image under an entry map is the Gabor system of the mapped windows,
    # alone and with the composed operator; under the same map as a dense
    # matrix, which maps each coset into itself, it is the Gabor system of
    # the mapped translates over the trivial lattice, on the coset blocks
    image = image_system(theta, system)
    image_report = theta_bounds(image, theta)
    _assert_zak_route(image_report, system)
    family_image = system.family().transformed(theta)
    _assert_same_report(image_report, theta_bounds(family_image, theta))
    squared = compose(theta, theta)
    _assert_same_report(theta_bounds(image, squared), theta_bounds(family_image, squared))
    dense = SpaceOperator.from_dense(system.space, theta.to_dense())
    dense_image = image_system(dense, system)
    assert isinstance(dense_image, GaborSystem) and len(dense_image.lattice) == 1
    dense_report = theta_bounds(dense_image, dense)
    assert dense_report.route["reason"] == "dense, zero off the coset blocks"
    _assert_zak_route(dense_report, dense_image)
    family_report = theta_bounds(system.family().transformed(dense), dense)
    assert family_report.route["reason"] == "not a Gabor system"
    _assert_same_report(dense_report, family_report)
    _assert_same_report(image_report, family_report)
    # the omega report on the coset factorisation of Omega against the dense
    # Omega oracle, whose gram is compared with S entry by entry (Zak cross
    # terms and off-block entries included)
    from gaborop.frames import _frame_blocks

    omega = omega_characterization(system, theta)
    oracle = oracle_omega_report(system, _frame_blocks(system, theta), DEFAULT_TOL)
    verdicts = lambda r: (r.basis_condition, r.lower_exists, r.upper_exists,
                          r.alpha is None, r.beta is None)
    assert verdicts(omega) == verdicts(oracle) and omega.basis_condition
    top = np.abs(frame_operator(system, as_operator=False)).max()
    for have, want in ((omega.alpha, oracle.alpha), (omega.beta, oracle.beta)):
        if want is not None:
            assert have == pytest.approx(want, rel=1e-9, abs=1e-12 * top)
    assert max(omega.max_gram_deviation, oracle.max_gram_deviation) <= 1e-12 * top


@pytest.mark.parametrize("dense", ["family", "operator"])
def test_dense_omega_report_matches_oracle(dense, rng):
    # the dense route takes the basis and gram conditions as holding by
    # construction and solves the pencil on S; the dense Omega oracle builds
    # Omega and its gram and checks both
    from gaborop.frames import _frame_blocks

    system = swap_window_system()
    theta = pert_theta_op(system.space)
    if dense == "family":
        system = system.family()
    else:  # nonzero off the coset blocks
        d = system.space.dim
        theta = SpaceOperator.from_dense(
            system.space, theta.to_dense() + 0.1 * rng.standard_normal((d, d)))
    blocks = _frame_blocks(system, theta)
    assert blocks.route == "dense"
    omega = omega_characterization(system, theta)
    oracle = oracle_omega_report(system, blocks, DEFAULT_TOL)
    assert (omega.basis_condition, omega.max_gram_deviation) == (True, 0.0)
    assert oracle.basis_condition
    top = np.abs(blocks.s).max()
    assert oracle.max_gram_deviation <= 1e-12 * top
    assert (omega.lower_exists, omega.upper_exists) == (oracle.lower_exists, oracle.upper_exists)
    for have, want in ((omega.alpha, oracle.alpha), (omega.beta, oracle.beta)):
        assert (have is None) == (want is None)
        if want is not None:
            assert have == pytest.approx(want, rel=1e-9, abs=1e-12 * top)


def _split_dense_operator(system, kind, entry, rng):
    """A dense operator mapping every coset block of ``system`` into itself:
    kron(I, entry); a pointwise map whose entry matrix varies with the point
    and is singular on some points only; right multiplication by R(z, y),
    supported on z - y in the annihilator of the modulations; or zero."""
    from gaborop.frames import _frame_blocks

    space = system.space
    n, n2, order = space.n, space.n ** 2, space.group.order
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t = np.zeros((order, n2, order, n2), dtype=complex)
    points = np.arange(order)
    if kind == "kron":
        t[points, :, points, :] = entry
    elif kind == "pointwise":
        maps = cplx(order, n2, n2)
        # a kernel on some points only, where the map is also larger: the
        # extreme blocks then have kernels other blocks lack
        singular = rng.random(order) < 0.4
        maps[singular] *= 10.0
        maps[singular, :, 0] = 0.0
        t[points, :, points, :] = maps
    elif kind == "right":
        coset = np.empty(order, dtype=int)
        for label, block in enumerate(_frame_blocks(system).index):
            coset[block[::n2] // n2] = label
        r = cplx(order, order, n, n) * (coset[:, None] == coset[None, :])[:, :, None, None]
        # (f R)[p, d] = sum_b f[p, b] R[b, d]
        t = np.einsum("pa,zybd->zpdyab", np.eye(n), r).reshape(t.shape)
    return SpaceOperator.from_dense(space, t.reshape(space.dim, space.dim))


_SPLIT_KINDS = ("kron", "pointwise", "right", "zero")


@settings(max_examples=60)
@given(factors=st.sampled_from([(8,), (12,), (4, 6)]), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(_SPLIT_KINDS))
@example(factors=(12,), seed=50, kind="pointwise")  # alpha in a block with a larger kernel
@example(factors=(4, 6), seed=10, kind="pointwise")
@example(factors=(4, 6), seed=1522, kind="kron")  # the twin splits over H = Z2 x Z2
def test_split_dense_operator_matches_dense_route(factors, seed, kind):
    # a dense operator that vanishes off the coset blocks takes them, with no
    # Zak split (it need not commute with H): the same report as the dense
    # route (the family) and as its entry-map twin, which takes the Zak
    # blocks; one nonzero entry off the blocks sends it back to the dense route
    from gaborop.frames import _frame_blocks

    system, theta = _walnut_case(factors, seed)
    order = system.space.group.order
    assume(len(system.lattice) < order and len(system.dual_lattice) < order)
    op = _split_dense_operator(system, kind, theta.entry_matrix, np.random.default_rng(seed))
    blocked = theta_bounds(system, op)
    cosets = len(system.dual_lattice)
    assert blocked.route == {"name": "walnut", "blocks": cosets,
                             "block_dim": system.space.dim // cosets, "zak": 1,
                             "reason": "dense, zero off the coset blocks"}
    _assert_same_report(blocked, theta_bounds(system.family(), op))
    if kind == "kron":
        twin = theta_bounds(system, theta)
        _assert_zak_route(twin, system)
        assert twin.route["reason"] == "entry map"
        _assert_same_bounds(blocked, twin)
    index = _frame_blocks(system).index
    if len(index) > 1:
        coupled = op.to_dense().copy()
        coupled[index[0, 0], index[1, -1]] = 1.0
        rep = theta_bounds(system, SpaceOperator.from_dense(system.space, coupled))
        assert rep.route == {"name": "dense", "blocks": 1, "block_dim": system.space.dim,
                             "zak": 1, "reason": "dense, nonzero off the coset blocks"}


@settings(max_examples=40)
@given(factors=st.sampled_from([(8,), (12,), (4, 6)]), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(_SPLIT_KINDS), hermitian=st.booleans())
@example(factors=(4, 6), seed=1522, kind="right", hermitian=True)  # both hypotheses hold
@example(factors=(8,), seed=0, kind="kron", hermitian=True)  # not adjointable, bounds fail
def test_split_operator_images_match_family_route(factors, seed, kind, hermitian):
    # the image check and the tight construction under a dense operator that
    # maps each coset into itself (T, or the normal T + T*) take the image as
    # the Gabor system of the mapped translates, on the coset blocks: the
    # verdicts, constants and hypothesis fields of the family route, which
    # maps every member and solves one D x D block; one nonzero entry off the
    # blocks keeps the image a family
    from gaborop import check_image_frame, scalar_parseval_system, tight_theta_frame
    from gaborop.frames import _frame_blocks

    system, theta = _walnut_case(factors, seed)
    order = system.space.group.order
    assume(len(system.lattice) < order and len(system.dual_lattice) < order)
    rng = np.random.default_rng(seed)

    def split(carrier):
        op = _split_dense_operator(carrier, kind, theta.entry_matrix, rng)
        return SpaceOperator.from_dense(carrier.space, op.to_dense() + op.to_dense().conj().T) \
            if hermitian else op

    op = split(system)
    image = image_system(op, system)
    assert isinstance(image, GaborSystem) and len(image.lattice) == 1
    report = check_image_frame(op, system)
    hypotheses, want = report.hypotheses, diagnostics(op)  # the D x D checks
    assert (hypotheses["hyponormal"], hypotheses["mv_adjointable"]) == \
        (want.is_hyponormal, want.is_mv_adjointable)
    assert hypotheses["self_commutator_min_eig"] == pytest.approx(
        want.self_commutator_min_eig, rel=0.0, abs=1e-12 * max(1.0, want.operator_norm) ** 2)
    family = theta_bounds(system.family().transformed(op), op)
    assert report.image_report.route["reason"] == "dense, zero off the coset blocks"
    _assert_same_report(report.image_report, family)
    source = report.source_report
    assert report.bounds_valid == (
        all(valid_bounds(family, source.alpha_opt, source.beta_opt))
        if source.lower_exists else None)

    index = _frame_blocks(system).index
    if len(index) > 1:
        coupled = op.to_dense().copy()
        coupled[index[0, 0], index[1, -1]] = 1.0
        coupled = SpaceOperator.from_dense(system.space, coupled)
        assert isinstance(image_system(coupled, system), VectorFamily)
        assert check_image_frame(coupled, system).image_report.route["reason"] == \
            "not a Gabor system"

    # the tight construction over a Parseval source on the full lattices,
    # whose cosets are points: its split operators are pointwise
    source = scalar_parseval_system(system.space.group)
    space = SignalSpace(system.space.group, system.space.n, source.space.measure)
    carrier = GaborSystem(space, (space.zero_signal(),), source.lattice, source.dual_lattice)
    op = split(carrier)
    construction = tight_theta_frame(2.0, source, space.n, op)
    want = diagnostics(op)
    assert construction.reasons == [reason for reason, holds in (
        ("operator is not hyponormal", want.is_hyponormal),
        ("operator is not adjointable for the matrix pairing", want.is_mv_adjointable),
    ) if not holds]
    if construction.hypothesis_ok:
        diagonal = construction.diagonal_system
        family = theta_bounds(diagonal.family().transformed(op), op)
        _assert_same_report(construction.image_report, family)
        assert (construction.lower_valid, construction.upper_valid) == \
            valid_bounds(family, 2.0, 2.0)


@settings(max_examples=30)
@given(factors=st.sampled_from([(8,), (12,), (4, 6)]), seed=st.integers(0, 2**32 - 1))
@example(factors=(4, 6), seed=1522)
@example(factors=(8,), seed="pertexa")  # both hypotheses hold and every prediction is made
def test_stability_checks_match_dense_route(factors, seed):
    # pert_check and sum_check on the Zak blocks against the same statements
    # on the dense route: the family's reports and the dense frame operators
    from gaborop import lower_bound_constant, operator_norm

    if seed == "pertexa":
        system, perturbed, second = (swap_window_system(4), perturbed_window_system(4),
                                     diag_window_system(4))
        theta = pert_theta_op(system.space)
        lam, mu, eta = 0.0, 0.2, 0.2
    else:
        system, theta = _walnut_case(factors, seed)
        order = system.space.group.order
        assume(len(system.lattice) < order and len(system.dual_lattice) < order)
        rng = np.random.default_rng(seed)
        perturbed = system.with_windows([w + 0.1 * random_signal(system.space, rng)
                                         for w in system.windows])
        second = system.with_windows([0.1 * random_signal(system.space, rng)
                                      for _ in system.windows])
        lam, mu, eta = 0.1, 0.2, 0.2
    norm, m_o = operator_norm(theta), lower_bound_constant(theta)
    source = theta_bounds(system.family(), theta)
    top = max(1.0, abs(source.beta_opt or 0.0))

    check, prediction = verify_perturbation(system, perturbed, theta, lam, mu, eta)
    assert check.bounded_below_ok == (m_o > DEFAULT_TOL * norm)
    if check.hypothesis is not None:
        hyp = check.hypothesis
        assert (hyp.gamma_o, hyp.delta_o) == pytest.approx(
            (source.alpha_opt, source.beta_opt), rel=1e-9, abs=1e-12 * top)
        assert (hyp.theta_norm, hyp.m_o) == pytest.approx((norm, m_o), rel=1e-12)
        t = theta.to_dense()
        difference = system.with_windows([w - v for w, v in zip(system.windows,
                                                                 perturbed.windows)])
        rhs = (lam * frame_operator(system.family(), as_operator=False)
               + mu * t @ t.conj().T + eta * t.conj().T @ t)
        eigs = np.linalg.eigvalsh(rhs - frame_operator(difference.family(), as_operator=False))
        assert check.difference_margin == pytest.approx(eigs[0], rel=0.0, abs=1e-12 * top)
    if prediction.perturbed_report is not None:
        _assert_same_report(prediction.perturbed_report, theta_bounds(perturbed.family(), theta))

    summed, summed_prediction = verify_sum(system, second, theta)
    assert summed.bounded_below_ok == (m_o > DEFAULT_TOL * norm)
    if summed.gamma_1 is not None:
        other = theta_bounds(second.family(), theta)
        assert (summed.gamma_1, summed.delta_1, summed.delta_2) == pytest.approx(
            (source.alpha_opt, source.beta_opt, other.beta_opt), rel=1e-9, abs=1e-12 * top)
    if summed_prediction.perturbed_report is not None:
        both = system.with_windows([w + v for w, v in zip(system.windows, second.windows)])
        _assert_same_report(summed_prediction.perturbed_report,
                            theta_bounds(both.family(), theta))
    if seed == "pertexa":
        assert check.holds and prediction.applicable and summed_prediction.applicable


def test_dense_operator_nonzeros_are_counted_once(monkeypatch):
    # the split test of a dense operator reads the nonzero count taken when the
    # operator is made: verify_perturbation builds three times and counts no
    # D x D matrix
    system, perturbed = swap_window_system(4), perturbed_window_system(4)
    dim = system.space.dim
    full = []
    count = np.count_nonzero

    def counted(a, *args, **kwargs):
        if np.size(a) >= dim * dim:
            full.append(np.shape(a))
        return count(a, *args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", counted)
    op = SpaceOperator.from_dense(system.space, pert_theta_op(system.space).to_dense())
    assert full == [(dim, dim)]
    check, prediction = verify_perturbation(system, perturbed, op, 0.0, 0.2, 0.2)
    assert check.holds and prediction.applicable
    assert prediction.perturbed_report.route["reason"] == "dense, zero off the coset blocks"
    assert full == [(dim, dim)]


@pytest.mark.parametrize("kind", _SPLIT_KINDS)
@pytest.mark.parametrize("factors,seed", [((8,), 0), ((12,), 10), ((4, 6), 5)])
def test_split_operator_diagnostics(monkeypatch, factors, seed, kind):
    # the theta_bounds task diagnoses a split operator on its blocks: the
    # diagnostics of the dense operator, with no solver operand above a block
    system, theta = _walnut_case(factors, seed)
    op = _split_dense_operator(system, kind, theta.entry_matrix, np.random.default_rng(seed))
    want = diagnostics(op)
    shapes = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "pinv"):
        def counted(*args, _solve=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(args[0]))
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    outcome = TASKS["theta_bounds"]({"system": "s", "operator": "t"}, {"s": system},
                                    {"t": op}, DEFAULT_TOL)
    got, route = outcome.results["operator"], outcome.results["controlled"].route
    assert route["name"] == "walnut" and route["blocks"] > 1
    assert shapes and max(max(shape[-2:]) for shape in shapes) <= route["block_dim"]
    scale = want.operator_norm
    assert got.operator_norm == pytest.approx(scale, rel=1e-12, abs=0.0)
    assert got.lower_bound == pytest.approx(want.lower_bound, rel=0.0, abs=1e-12 * scale)
    assert got.self_commutator_min_eig == pytest.approx(want.self_commutator_min_eig,
                                                        rel=0.0, abs=1e-12 * scale ** 2)
    assert (got.is_hyponormal, got.is_mv_adjointable) == \
        (want.is_hyponormal, want.is_mv_adjointable)


def _record_solves(monkeypatch) -> list:
    """(solver name, operand shape) of every numpy.linalg eigen or singular-value
    solve; a 2-norm runs an SVD, so it is recorded as one."""
    solves = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "pinv", "norm"):
        def recorded(a, *args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            if _name != "norm":
                solves.append((_name, np.shape(a)))
            elif kwargs.get("ord", args[0] if args else None) in (2, -2, "nuc"):
                solves.append(("svd", np.shape(a)))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return solves


def _operator_facts(system, op):
    """Per call, (bounded below, ||T||, m_o, predicted bounds), None where the
    call reports no such number: the promotion, the perturbation and the sum
    checks and the theta_bounds task, with the predictions the first three make
    (the perturbation with pinned source bounds)."""
    from gaborop import pert_predicted_bounds, sum_predicted_bounds

    promotion = bounded_below_promotion(system, op)
    pert = check_pert_hypothesis(system, system.with_windows([w * 1.1 for w in system.windows]),
                                 op, 0.0, 0.1, 0.1, (1.0, 2.0))
    summed = check_sum_hypothesis(system, system.with_windows([w * 0.5 for w in system.windows]),
                                  op)
    task = TASKS["theta_bounds"]({"system": "s", "operator": "t"}, {"s": system}, {"t": op},
                                 DEFAULT_TOL).results["operator"]
    hyp, sum_predicted = pert.hypothesis, None
    if summed.bounded_below_ok and summed.gamma_1 is not None:
        sum_predicted = sum_predicted_bounds(summed.gamma_1, summed.delta_1, summed.delta_2,
                                             summed.theta_norm, summed.m_o)
    return {
        "promotion": (promotion.reason != "operator is not bounded below", None, None,
                      (promotion.predicted_lower, promotion.predicted_upper)
                      if promotion.hypothesis_ok else None),
        "pert": (pert.bounded_below_ok, None, None, None) if hyp is None
        else (True, hyp.theta_norm, hyp.m_o, pert_predicted_bounds(hyp)),
        "sum": (summed.bounded_below_ok, summed.theta_norm, summed.m_o, sum_predicted),
        "task": (None, task.operator_norm, task.lower_bound, None),
    }, promotion, summed


def _assert_same_facts(have, want, norm):
    assert have.keys() == want.keys()
    for key, (ok, theta_norm, m_o, predicted) in want.items():
        assert have[key][0] == ok
        if theta_norm is not None:
            assert have[key][1] == pytest.approx(theta_norm, rel=1e-12, abs=0.0)
            assert have[key][2] == pytest.approx(m_o, rel=1e-12, abs=1e-12 * norm)
        assert (have[key][3] is None) == (predicted is None)
        if predicted is not None:
            assert have[key][3] == pytest.approx(predicted, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", _SPLIT_KINDS)
# the last three draw an invertible entry map and a frame, so every prediction is made
@pytest.mark.parametrize("factors,seed", [((8,), 0), ((12,), 10), ((4, 6), 5),
                                          ((8,), 7), ((12,), 5), ((4, 6), 4)])
def test_split_operator_facts_from_its_blocks(monkeypatch, factors, seed, kind):
    # the promotion, both stability checks and the theta_bounds task read the
    # norm and the lower bound of a split operator from one SVD of its blocks:
    # no solve is wider than a block, and the numbers are the dense oracle's
    # (and, for kron(I, M), those of the entry map M)
    from gaborop import lower_bound_constant, operator_norm, pert_predicted_bounds
    from gaborop import PertHypothesis, sum_predicted_bounds
    from gaborop.frames import _frame_blocks

    system, theta = _walnut_case(factors, seed)
    op = _split_dense_operator(system, kind, theta.entry_matrix, np.random.default_rng(seed))
    route = _frame_blocks(system, op).to_json_dict()
    assert route["name"] == "walnut" and route["blocks"] > 1
    solves = _record_solves(monkeypatch)
    for call in (lambda: bounded_below_promotion(system, op),
                 lambda: check_pert_hypothesis(system, system, op, 0.0, 0.1, 0.1, (1.0, 2.0)),
                 lambda: check_sum_hypothesis(system, system, op),
                 lambda: TASKS["theta_bounds"]({"system": "s", "operator": "t"},
                                               {"s": system}, {"t": op}, DEFAULT_TOL)):
        del solves[:]
        call()
        assert max(max(shape[-2:]) for _, shape in solves) <= route["block_dim"]
        assert [name for name, _ in solves].count("svd") == 1
    monkeypatch.undo()

    got, promotion, summed = _operator_facts(system, op)
    norm, sigma = operator_norm(op), lower_bound_constant(op)
    bounded = sigma > DEFAULT_TOL * norm
    sum_predicted = None
    if bounded and summed.gamma_1 is not None:
        sum_predicted = sum_predicted_bounds(summed.gamma_1, summed.delta_1, summed.delta_2,
                                             norm, sigma)
    want = {
        "promotion": (bounded, None, None,
                      (promotion.ordinary.alpha_opt / norm ** 2,
                       promotion.ordinary.beta_opt / sigma ** 2)
                      if promotion.hypothesis_ok else None),
        "pert": (True, norm, sigma, pert_predicted_bounds(
            PertHypothesis(0.0, 0.1, 0.1, 1.0, 2.0, sigma, norm)))
        if bounded else (False, None, None, None),
        "sum": (bounded, norm, sigma, sum_predicted),
        "task": (None, norm, sigma, None),
    }
    _assert_same_facts(got, want, norm)
    if kind == "kron":
        _assert_same_facts(got, _operator_facts(system, theta)[0], norm)


@pytest.mark.parametrize("factors,seed", [((8,), 1), ((12,), 2), ((4, 6), 3), ((4, 6), 4),
                                          ((4, 6), 1522)])
def test_walnut_identity(factors, seed):
    # the Zak identity: the dense frame operator in the basis U, whose row
    # (b, chi, j, entry) is sum_h phi[chi, h] e_index[b, (j, h, entry)]^T,
    # vanishes off the blocks and equals the block stack on them; phi is a
    # unitary table of the characters of H
    from gaborop.frames import _frame_blocks

    for system in (_walnut_case(factors, seed)[0], swap_window_system(4)):
        dense = frame_operator(system, as_operator=False)
        blocks = _frame_blocks(system)
        phi, index, dim, n2 = blocks.phi, blocks.index, system.space.dim, system.space.n ** 2
        size, (count, d, _) = len(phi), blocks.s.shape
        assert sorted(index.ravel().tolist()) == list(range(dim))
        assert np.allclose(phi @ phi.conj().T, np.eye(size), rtol=0.0, atol=1e-14)
        assert size == _zak_order(system) and count == len(system.dual_lattice) * size
        u = np.zeros((len(index), size, d // n2, n2, dim), dtype=complex)
        for b, row in enumerate(index):
            for k, position in enumerate(row):
                j, h, e = k // (size * n2), k // n2 % size, k % n2
                for chi in range(size):
                    u[b, chi, j, e, position] = phi[chi, h]
        u = u.reshape(dim, dim)
        assert np.allclose(u @ u.conj().T, np.eye(dim), rtol=0.0, atol=1e-14)
        # zak[block, block', row, column]
        zak = (u @ dense @ u.conj().T).reshape(count, d, count, d).transpose(0, 2, 1, 3)
        top = np.abs(dense).max()
        assert np.abs(zak[~np.eye(count, dtype=bool)]).max(initial=0.0) <= 1e-13 * top
        assert np.abs(zak[np.arange(count), np.arange(count)] - blocks.s).max() <= 1e-13 * top


@pytest.mark.parametrize("corruption,finding", [
    ("swap", "omega_check: synthesis operator misses the coefficient basis"),
    ("twice", "omega_check: Omega Omega^* deviates from the frame operator by "),
])
def test_corrupted_coset_layout_is_caught(monkeypatch, corruption, finding):
    # the factorised omega checks read the coset points, not S: a point
    # swapped between two cosets breaks the basis condition, and a coset
    # listed twice pairs two equal phase rows, so the off-block bound reaches
    # max|S| = 10; through the omega_check task each raises its finding
    from gaborop import frames

    system = swap_window_system()
    theta = pert_theta_op(system.space)
    layout = frames._layout

    def corrupted(*key):
        entry = layout(*key)
        points = entry.points.copy()
        if corruption == "swap":
            points[0, 1], points[1, 1] = points[1, 1], points[0, 1]
        else:
            points[1] = points[0]
        return entry._replace(points=points)

    monkeypatch.setattr(frames, "_layout", corrupted)
    report = omega_characterization(system, theta)
    if corruption == "swap":
        assert not report.basis_condition
    else:
        assert report.basis_condition
        assert report.max_gram_deviation == pytest.approx(10.0, rel=1e-12)
    (found,) = _omega_check(system, theta)[2]
    assert found.startswith(finding)


def test_route_is_reported():
    from gaborop.frames import _frame_blocks
    from gaborop.presets import build_preset
    from gaborop.scenario import run_scenario

    # the controlled route says why the operator split; the ordinary one has no operator
    # on Z_32 both lattices are <4>, so H = <4> and each of the 4 cosets
    # splits into 8 blocks of n^2 = 4
    results = run_scenario(build_preset("remark-theta0", resolution=4))["results"]
    walnut = {"name": "walnut", "blocks": 32, "block_dim": 4, "zak": 8}
    assert results["controlled"]["route"] == {**walnut, "reason": "entry map"}
    assert results["ordinary"]["route"] == walnut
    # kron(I, M) as a dense matrix vanishes off the coset blocks, so it splits
    # over them, with H taken trivial
    system = swap_window_system()
    dense = pert_theta_op(system.space).to_dense()
    rep = theta_bounds(system, SpaceOperator.from_dense(system.space, dense))
    assert rep.to_json_dict()["route"] == {"name": "walnut", "blocks": 2, "block_dim": 32,
                                           "zak": 1,
                                           "reason": "dense, zero off the coset blocks"}
    assert rep.alpha_opt == pytest.approx(2.5, rel=1e-12)
    # one nonzero entry coupling two cosets keeps the dense route
    blocks = _frame_blocks(system)
    coupled = dense.copy()
    coupled[blocks.index[0, 0], blocks.index[1, 0]] = 1e-3
    rep = theta_bounds(system, SpaceOperator.from_dense(system.space, coupled))
    assert rep.to_json_dict()["route"] == {"name": "dense", "blocks": 1,
                                           "block_dim": system.space.dim, "zak": 1,
                                           "reason": "dense, nonzero off the coset blocks"}
    # a family is never split
    rep = theta_bounds(system.family(), SpaceOperator.from_dense(system.space, dense))
    assert rep.route == {"name": "dense", "blocks": 1, "block_dim": system.space.dim,
                         "zak": 1, "reason": "not a Gabor system"}
    assert rep.alpha_opt == pytest.approx(2.5, rel=1e-12)


def test_walnut_route_scales_to_4096(monkeypatch):
    # D = 4096 (|G| = 1024, n = 2): H = <128> is the annihilator of the
    # modulations, so no solver sees more than one n^2 x n^2 block (batch axes
    # aside), and nothing dense is built, by theta_bounds or by the omega
    # report on the coset factorisation of Omega; one dense D x D complex
    # matrix alone is 268 MB
    import tracemalloc

    system = swap_window_system(128)
    theta = pert_theta_op(system.space)
    assert system.space.dim == 4096
    shapes = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "pinv"):
        def counted(*args, _solve=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(args[0]))
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    tracemalloc.start()
    try:
        rep = theta_bounds(system, theta)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()  # the report and the memoised layout
        omega = omega_characterization(system, theta)
        _, omega_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.route == {"name": "walnut", "blocks": 1024, "block_dim": 4, "zak": 8,
                         "reason": "entry map"}
    assert rep.alpha_opt == pytest.approx(2.5, rel=1e-9)
    assert rep.beta_opt == pytest.approx(10.0, rel=1e-9)
    assert omega.basis_condition
    assert omega.alpha == pytest.approx(2.5, rel=1e-9)
    assert omega.beta == pytest.approx(10.0, rel=1e-9)
    assert shapes and max(max(shape[-2:]) for shape in shapes) <= 4
    assert peak < 64 * 2**20
    assert omega_peak - held <= 1.1 * peak  # the omega checks cost less than the solve


# ---------------------------------------------------------------------------
# The lattice layout, memoised by value

def _layout_of(system, split=True):
    from gaborop.frames import _layout

    return _layout(system.lattice, system.dual_lattice, system.automorphism,
                   system.dual_automorphism, split)


def _pertexa_systems():
    from gaborop.presets import build_preset
    from gaborop.scenario import _build_group, _build_system

    scenario = build_preset("pertexa")
    group, measure = _build_group(scenario["group"])
    return [_build_system(group, measure, spec, f"$.systems[{i}]")
            for i, spec in enumerate(scenario["systems"])]


def test_layout_is_shared_by_value():
    # one read-only entry per (lattices, automorphisms, split): systems built
    # apart from the same lattice specs, with_windows and pert_check's
    # difference system share it, and _frame_blocks takes its set-up from it
    from gaborop.frames import _frame_blocks
    from gaborop.perturbation import _difference_system

    main, perturbed = _pertexa_systems()
    assert main.lattice is not perturbed.lattice
    layout = _layout_of(main)
    for other in (perturbed, main.with_windows(perturbed.windows),
                  _difference_system(main, perturbed)):
        assert _layout_of(other) is layout
    assert _frame_blocks(perturbed).phi is layout.phi
    assert _frame_blocks(perturbed, pert_theta_op(main.space)).phi is layout.phi
    for array in layout:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0
    # a change of the automorphism, of the dual automorphism or of the split
    # alone is another entry
    group = main.space.group
    others = (GaborSystem(main.space, main.windows, main.lattice, main.dual_lattice,
                          Automorphism(group, [3])),
              GaborSystem(main.space, main.windows, main.lattice, main.dual_lattice,
                          None, Automorphism(group, [3], dual=True)))
    entries = [layout, _layout_of(main, split=False)] + [_layout_of(s) for s in others]
    assert len({id(entry) for entry in entries}) == 4
    # one map written with another representative (19 = 3 mod 16) is one entry
    nineteen = GaborSystem(main.space, main.windows, main.lattice, main.dual_lattice,
                           Automorphism(group, [19]))
    assert _layout_of(nineteen) is entries[2]


def test_systems_share_identity_automorphisms():
    # Automorphism is immutable and equal by value, so the identity is one
    # shared object per group and side: systems built apart from the same
    # group, and with_windows copies, hold the same pair
    main, perturbed = _pertexa_systems()
    for system in (perturbed, main.with_windows(perturbed.windows)):
        assert system.automorphism is main.automorphism
        assert system.dual_automorphism is main.dual_automorphism
    assert main.automorphism == Automorphism.identity(main.space.group)
    assert main.automorphism != main.dual_automorphism
    assert (main.automorphism.dual, main.dual_automorphism.dual) == (False, True)


def test_layout_cache_stays_bounded():
    from gaborop import groups
    from gaborop.frames import _layout

    group = FiniteAbelianGroup((64,))
    divisors = (1, 2, 4, 8, 16, 32)
    keys = [(Subgroup(group, [group.element([a])]),
             Subgroup(group, [group.dual_element([b])], dual=True),
             Automorphism.identity(group), Automorphism.identity(group, dual=True), split)
            for a in divisors for b in divisors for split in (False, True)]
    assert len(keys) > _layout.cache_info().maxsize
    for key in keys:
        _layout(*key)
        for cache in (_layout, groups._span_minima):
            assert cache.cache_info().currsize <= cache.cache_info().maxsize


def test_reports_on_known_lattices_close_no_subgroup(monkeypatch):
    # a second report on the same lattices closes no subgroup and takes no
    # annihilator; a cold one takes no more than before the layout was
    # memoised: 22 closures and 6 annihilators for pertexa (three systems),
    # 16 and 4 for its ordinary_bounds twin
    from gaborop import frames, groups
    from gaborop.presets import build_preset
    from gaborop.scenario import run_scenario

    calls = {"_coset_minima": 0, "annihilator": 0}

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for module, name in ((groups, "_coset_minima"), (groups, "annihilator"),
                         (frames, "annihilator")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    pertexa = build_preset("pertexa")
    twin = {**pertexa, "task": "ordinary_bounds",
            "args": {"systems": [s["name"] for s in pertexa["systems"]]}}
    for scenario, cold in ((pertexa, (22, 6)), (twin, (16, 4))):
        frames._layout.cache_clear()
        groups._span_minima.cache_clear()
        run_scenario(scenario)
        assert calls["_coset_minima"] <= cold[0] and calls["annihilator"] <= cold[1]
        calls.update(dict.fromkeys(calls, 0))
        run_scenario(scenario)
        assert calls == {"_coset_minima": 0, "annihilator": 0}
