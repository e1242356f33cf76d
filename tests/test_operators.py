"""Adjoints, hyponormality, matrix-pairing adjointability, norms."""

import numpy as np
import pytest

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
from gaborop.operators import is_hyponormal_on_range, is_normal
from helpers import (
    flip_op,
    pert_theta_op,
    projector_op,
    random_entry_op,
    random_signal,
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
