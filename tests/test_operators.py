"""Adjoints, hyponormality, matrix-pairing adjointability, norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborop import (
    SpaceOperator,
    adjoint,
    commutes,
    compose,
    diagnostics,
    frobenius_norm,
    is_hyponormal,
    is_mv_adjointable,
    lower_bound_constant,
    operator_norm,
    trace_inner,
)
from gaborop.operators import OperatorDiagnostics, is_hyponormal_on_range
from helpers import (
    flip_op,
    is_normal,
    pert_theta_op,
    projector_op,
    random_entry_op,
    random_signal,
    record_solves,
    selector_op,
    torus_space,
)


@pytest.fixture
def space():
    return torus_space(8, 2)


def test_selector_is_self_adjoint(space):
    op = selector_op(space)
    assert np.abs(op.adjoint().entry_matrix - op.entry_matrix).max() == 0.0


def test_identity_adjoint_identity(space):
    op = SpaceOperator.identity(space)
    assert np.abs(adjoint(op).entry_matrix - np.eye(4)).max() == 0.0


def test_pert_theta_adjoint_formula(space, rng):
    theta_star = pert_theta_op(space).adjoint()
    for _ in range(10):
        g = random_signal(space, rng)
        out = theta_star.apply(g)
        expected = np.empty_like(g.values)
        expected[:, 0, 0] = g.values[:, 1, 1]
        expected[:, 0, 1] = g.values[:, 1, 0]
        expected[:, 1, 0] = g.values[:, 0, 1]
        expected[:, 1, 1] = 2.0 * g.values[:, 0, 0]
        assert np.abs(out.values - expected).max() < 1e-12


def test_adjoint_involution(space, rng):
    for _ in range(5):
        op = random_entry_op(space, rng)
        assert np.abs(op.adjoint().adjoint().entry_matrix - op.entry_matrix).max() < 1e-12
        dense = SpaceOperator.from_dense(space, op.to_dense())
        assert np.abs(dense.adjoint().adjoint().dense_matrix - dense.dense_matrix).max() < 1e-12


def test_adjoint_pairing_identity_on_basis(space, rng):
    d = space.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    op = SpaceOperator.from_dense(space, m)
    op_star = op.adjoint()
    basis = list(space.basis_signals())
    for f in basis[:6]:
        for g in basis[:6]:
            lhs = trace_inner(op.apply(f), g)
            rhs = trace_inner(f, op_star.apply(g))
            assert abs(lhs - rhs) < 1e-10


def test_hyponormality_flags(space):
    ok, comm = is_hyponormal(selector_op(space))
    assert ok and abs(comm) < 1e-12
    ok, comm = is_hyponormal(pert_theta_op(space))
    assert not ok
    assert abs(comm - (-3.0)) < 1e-12
    ok, _ = is_hyponormal(flip_op(space))
    assert ok  # unitary permutation of entries


def test_hyponormal_iff_normal_here(space, rng):
    ops = [selector_op(space), projector_op(space), flip_op(space), pert_theta_op(space),
           SpaceOperator.identity(space)]
    ops += [random_entry_op(space, rng, k) for k in
            ("general", "singular", "right_unitary", "invertible")]
    for op in ops:
        hypo, _ = is_hyponormal(op)
        assert hypo == is_normal(op)


def test_hyponormality_matches_sampled_inequality(space, rng):
    for op in (selector_op(space), flip_op(space), pert_theta_op(space)):
        hypo, _ = is_hyponormal(op)
        star = op.adjoint()
        sampled = all(
            frobenius_norm(star.apply(f)) <= frobenius_norm(op.apply(f)) + 1e-9
            for f in (random_signal(space, rng) for _ in range(200))
        )
        if hypo:
            assert sampled
        else:
            assert not sampled


def test_mv_adjointability_verdicts(space):
    assert not is_mv_adjointable(projector_op(space))
    assert is_mv_adjointable(selector_op(space))
    assert is_mv_adjointable(SpaceOperator.identity(space))
    assert not is_mv_adjointable(flip_op(space))
    space3 = torus_space(8, 3)
    zero_mid = SpaceOperator.from_entry_map(
        space3, np.diag([1.0, 0, 1, 1, 0, 1, 1, 0, 1])
    )
    assert is_mv_adjointable(zero_mid)


def test_right_multiplication_always_adjointable(space, rng):
    for _ in range(5):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op = SpaceOperator.right_multiplication(space, m)
        assert is_mv_adjointable(op)
        f = random_signal(space, rng)
        assert np.abs(op.apply(f).values - f.values @ m).max() < 1e-12


def test_dense_right_multiplication_by_varying_kernel(space, rng):
    # (T f)(z) = sum_y f(y) R(z, y) with a kernel varying across points:
    # M[z, p, d, y, a, b] = delta(p, a) R[z, d, y, b] is adjointable, and
    # 1e-6 of noise breaks the index condition well above the tolerance
    g, n = space.group.order, space.n
    kernel = rng.standard_normal((g, n, g, n)) + 1j * rng.standard_normal((g, n, g, n))
    m6 = np.einsum("pa,zdyb->zpdyab", np.eye(n), kernel)
    op = SpaceOperator.from_dense(space, m6.reshape(space.dim, space.dim))
    assert is_mv_adjointable(op)
    f = random_signal(space, rng)
    expected = np.einsum("ypb,zdyb->zpd", f.values, kernel)
    assert np.abs(op.apply(f).values - expected).max() < 1e-10
    noise = 1e-6 * rng.standard_normal((space.dim, space.dim))
    assert not is_mv_adjointable(SpaceOperator.from_dense(space, op.to_dense() + noise))


def test_entry_map_dense_duality(space, rng):
    for op in (selector_op(space), pert_theta_op(space), random_entry_op(space, rng)):
        dense = SpaceOperator.from_dense(space, op.to_dense())
        d1 = diagnostics(op)
        d2 = diagnostics(dense)
        assert abs(d1.operator_norm - d2.operator_norm) < 1e-10
        assert abs(d1.lower_bound - d2.lower_bound) < 1e-10
        assert d1.is_hyponormal == d2.is_hyponormal
        assert d1.is_mv_adjointable == d2.is_mv_adjointable
        assert abs(d1.self_commutator_min_eig - d2.self_commutator_min_eig) < 1e-10
        f = random_signal(space, rng)
        assert np.abs(op.apply(f).values - dense.apply(f).values).max() < 1e-10


def test_norm_and_lower_bound(space):
    theta = pert_theta_op(space)
    assert abs(operator_norm(theta) - 2.0) < 1e-12
    assert abs(lower_bound_constant(theta.adjoint()) - 1.0) < 1e-12
    ident = SpaceOperator.identity(space)
    assert abs(operator_norm(ident) - 1.0) < 1e-12
    assert abs(lower_bound_constant(ident) - 1.0) < 1e-12


def test_composition_forms_and_commutation(space, rng):
    theta = flip_op(space)
    xi = selector_op(space)
    theta_xistar = compose(theta, xi.adjoint())
    xistar_theta = compose(xi.adjoint(), theta)
    f = random_signal(space, rng)
    lhs = theta_xistar.apply(f)
    expected = np.zeros_like(f.values)
    expected[:, 0, 0] = f.values[:, 1, 1]
    expected[:, 1, 0] = f.values[:, 0, 1]
    assert np.abs(lhs.values - expected).max() < 1e-12
    rhs = xistar_theta.apply(f)
    expected2 = np.zeros_like(f.values)
    expected2[:, 0, 1] = f.values[:, 1, 0]
    expected2[:, 1, 1] = f.values[:, 0, 0]
    assert np.abs(rhs.values - expected2).max() < 1e-12
    assert not commutes(theta, xi.adjoint())
    assert commutes(theta, theta)
    ident = SpaceOperator.identity(space)
    assert np.abs(compose(ident, theta).entry_matrix - theta.entry_matrix).max() == 0.0


def test_hyponormal_on_range(space):
    # full-range operator compresses to the plain test
    theta = flip_op(space)
    xi = selector_op(space)
    ok, _ = is_hyponormal_on_range(xi, theta)
    assert ok
    # compression can hide a violation the full test sees
    bad = pert_theta_op(space)
    ok_full, _ = is_hyponormal(bad)
    assert not ok_full
    ok_small, _ = is_hyponormal_on_range(bad, SpaceOperator.zero(space))
    assert ok_small  # zero range: vacuous


def _as_dense(op: SpaceOperator) -> SpaceOperator:
    return SpaceOperator.from_dense(op.space, op.to_dense())


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       op_kind=st.sampled_from(["general", "singular", "invertible", "right_unitary", "zero"]),
       range_kind=st.sampled_from(["general", "singular", "zero"]),
       order=st.sampled_from([3, 4, 6]))
def test_hyponormal_on_range_entry_maps_match_dense(seed, op_kind, range_kind, order):
    # both entry maps: the n^2 x n^2 compression gives the dense verdict and
    # least eigenvalue, also for a rank-deficient or zero range
    rng = np.random.default_rng(seed)
    space = torus_space(order, 2)

    def make(kind):
        return SpaceOperator.zero(space) if kind == "zero" else random_entry_op(space, rng, kind)

    op, range_of = make(op_kind), make(range_kind)
    got = is_hyponormal_on_range(op, range_of)
    want = is_hyponormal_on_range(_as_dense(op), _as_dense(range_of))
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1], abs=1e-12 * max(1.0, operator_norm(op) ** 2))


def test_hyponormal_on_range_entry_maps_stay_n2(space, monkeypatch):
    n2 = space.n * space.n
    solves = record_solves(monkeypatch)
    for op, range_of in ((pert_theta_op(space), flip_op(space)),
                         (selector_op(space), projector_op(space))):
        is_hyponormal_on_range(op, range_of)
    assert solves and max(max(shape) for _, shape in solves) <= n2


def test_diagnostics_dense_operator_two_solves(monkeypatch, rng):
    space = torus_space(16, 2)
    d = space.dim
    assert d == 64
    op = SpaceOperator.from_dense(space, rng.standard_normal((d, d)) / np.sqrt(d))
    hypo, min_eig = is_hyponormal(op)
    want = OperatorDiagnostics(operator_norm(op), lower_bound_constant(op), hypo,
                               is_mv_adjointable(op), min_eig)
    solves = record_solves(monkeypatch)
    got = diagnostics(op)
    assert [shape for _, shape in solves if d in shape] == [(d, d), (d, d)]
    assert got == want
