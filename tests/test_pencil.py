"""The closed-form pencil solver against the bisection oracle, certificates
and kernel inclusion."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborop.pencil import _hermitian, _hermitian_eigvalsh, solve_pencils
from helpers import bisect_max_alpha, bisect_min_beta, corrupt_constant, null_space


def _random_psd(rng, dim, rank=None):
    rank = dim if rank is None else rank
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return a @ a.conj().T


def test_identity_pencils():
    s = np.eye(4, dtype=complex)
    assert abs(bisect_max_alpha(s, s) - 1.0) < 1e-10
    assert abs(bisect_min_beta(s, s) - 1.0) < 1e-10
    sol = solve_pencils(s, s, s)
    assert abs(sol.alpha - 1.0) < 1e-12
    assert abs(sol.beta - 1.0) < 1e-12


def test_reference_pencil_values():
    # 10 * identity against the grams of the norm-2 entry permutation with a
    # doubled corner: extremal constants 10/4 and 10/1
    L = np.array([[0, 0, 0, 2], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex)
    s = 10.0 * np.eye(4)
    lower_gram = L @ L.conj().T
    upper_gram = L.conj().T @ L
    assert abs(bisect_max_alpha(s, lower_gram) - 2.5) < 1e-9
    assert abs(bisect_min_beta(s, upper_gram) - 10.0) < 1e-9
    sol = solve_pencils(s, lower_gram, upper_gram)
    assert abs(sol.alpha - 2.5) < 1e-10
    assert abs(sol.beta - 10.0) < 1e-10


def test_coupled_kernel_alpha_matches_bisection():
    # the kernel of p couples to s: the optimum uses the kernel direction,
    # and the reciprocal form, 1 / top(S^-1/2 p S^-1/2), must match the
    # bisection exactly
    s = np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex)
    p = np.diag([1.0, 0.0]).astype(complex)
    alpha_bis = bisect_max_alpha(s, p)
    alpha_orc = solve_pencils(s, p, p).alpha
    assert abs(alpha_bis - 0.19) < 1e-9
    assert abs(alpha_orc - 0.19) < 1e-12
    naive = np.linalg.eigvalsh(s)[0]  # any kernel-blind value differs
    assert abs(alpha_bis - s[0, 0]) > 0.5  # the naive restricted value is 1.0
    assert naive != pytest.approx(alpha_bis, abs=1e-3)


def test_bisection_matches_oracle_randomised(rng):
    # bisection is the oracle for the solver's constants; every constant the
    # solver reports also passes its own residual certificate.  The oracle is
    # scale-free: S = 2e-11 I against P = I has both constants 2e-11
    tiny, eye = 2e-11 * np.eye(4, dtype=complex), np.eye(4, dtype=complex)
    sol = solve_pencils(tiny, eye, eye)
    assert sol.alpha == pytest.approx(2e-11, rel=1e-12, abs=0.0)
    assert bisect_max_alpha(tiny, eye) == pytest.approx(sol.alpha, rel=1e-9, abs=0.0)
    assert bisect_min_beta(tiny, eye) == pytest.approx(sol.beta, rel=1e-9, abs=0.0)
    dim = 6
    for trial in range(50):
        s = _random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
        p = _random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
        # lower side exists iff ker(s) <= ker(p); enforce by projecting p's
        # kernel directions out of s when needed
        if not solve_pencils(s, p, p).lower_exists:
            nb = null_space(p)
            proj = np.eye(dim) - nb @ nb.conj().T
            s_low = proj @ s @ proj
        else:
            s_low = s
        sol = solve_pencils(s_low, p, p)
        if sol.lower_exists:
            a1 = bisect_max_alpha(s_low, p)
            assert sol.alpha is not None
            assert a1 == pytest.approx(sol.alpha, abs=1e-7, rel=1e-6)
            assert sol.certificates["alpha"]["holds"]
        # upper side exists iff ker(p) <= ker(s); enforce likewise
        nb = null_space(p)
        proj = np.eye(dim) - nb @ nb.conj().T
        s_up = proj @ s @ proj
        sol = solve_pencils(s_up, p, p)
        if sol.upper_exists:
            b1 = bisect_min_beta(s_up, p)
            assert sol.beta is not None
            assert b1 == pytest.approx(sol.beta, abs=1e-7, rel=1e-6)
            assert sol.certificates["beta"]["holds"]


def test_bisection_bounds_are_feasible_and_extremal(rng):
    dim = 5
    for _ in range(20):
        s = _random_psd(rng, dim)
        p = _random_psd(rng, dim)
        alpha = bisect_max_alpha(s, p)
        beta = bisect_min_beta(s, p)
        assert np.linalg.eigvalsh(s - alpha * p)[0] >= -1e-8
        assert np.linalg.eigvalsh(beta * p - s)[0] >= -1e-8
        # nudging past the optimum breaks feasibility
        assert np.linalg.eigvalsh(s - (alpha + 1e-4) * p)[0] < 0
        assert np.linalg.eigvalsh((beta - 1e-4) * p - s)[0] < 0


def test_beta_without_finite_constant_raises(rng):
    p = np.diag([1.0, 0.0]).astype(complex)
    s = np.diag([1.0, 1.0]).astype(complex)  # mass on ker(p)
    with pytest.raises(ValueError):
        bisect_min_beta(s, p)


def test_kernel_containment_constructions(rng):
    # ker a <= ker b decides the lower side of a against b and the upper side
    # of b against a
    dim = 6
    for _ in range(30):
        a = _random_psd(rng, dim, rank=int(rng.integers(1, dim)))
        nb = null_space(a)
        assert nb.shape[1] >= 1
        contained = a @ a + 0.5 * a          # same kernel
        assert solve_pencils(a, contained, contained).lower_exists
        assert solve_pencils(contained, a, a).upper_exists
        v = nb[:, 0:1]
        violating = contained + v @ v.conj().T
        assert not solve_pencils(a, violating, violating).lower_exists
        assert not solve_pencils(violating, a, a).upper_exists


def test_null_space_threshold():
    a = np.diag([1.0, 1e-12, 0.0]).astype(complex)
    nb = null_space(a)
    assert nb.shape[1] == 2  # entries below 1e-9 * top count as kernel


def test_vanishing_matrices_need_no_special_case():
    # a zero control gram leaves alpha undefined (every alpha works); a zero
    # frame operator has beta = 0, certified by feasibility alone
    s = np.diag([2.0, 1.0]).astype(complex)
    zero = np.zeros((2, 2), dtype=complex)
    sol = solve_pencils(s, zero, s)
    assert sol.lower_exists and sol.alpha is None
    assert "alpha" not in sol.certificates
    sol = solve_pencils(zero, s, s)
    assert not sol.lower_exists and sol.alpha is None
    assert sol.upper_exists and sol.beta == 0.0
    assert sol.certificates["beta"] == {
        "min_eig_at": 0.0, "min_eig_past": None, "slack": 0.0, "holds": True,
    }
    sol = solve_pencils(zero, zero, zero)
    assert sol.upper_exists and sol.beta == 0.0 and sol.alpha is None


def test_declared_side_passes_its_certificate():
    # S's mass on ker P (6e-6) is within tol of S's top (9e4), so beta
    # exists; the pencil beta P - S is -6e-6 there, below the slack of 9e-8,
    # and passes only because the certificate lifts ker P by tol * top(S)
    s = np.array([9e4, 1.0, 2.0, 3.0, 6e-6])[:, None, None].astype(complex)
    upper = np.array([1.0, 1.0, 1.0, 1.0, 0.0])[:, None, None].astype(complex)
    sol = solve_pencils(s, np.ones((1, 1, 1), dtype=complex), upper)
    assert sol.upper_exists and sol.beta == pytest.approx(9e4, rel=1e-12)
    cert = sol.certificates["beta"]
    assert cert["slack"] < 6e-6 and cert["holds"], cert


@pytest.mark.parametrize("mass,exists", [(0.4e-9, True), (0.6e-9, False)])
def test_kernel_mass_is_bounded_by_its_trace(mass, exists):
    # on the second block the gram vanishes in 2 dimensions, where S is
    # mass * [[1, 1], [1, 1]]: each Rayleigh quotient on the gram's kernel
    # basis is mass, but S's top eigenvalue there is 2 * mass, which the
    # trace bounds; beta exists iff 2 * mass <= tol * top(S), and then its
    # certificate holds
    s = np.stack([np.eye(2), mass * np.ones((2, 2))]).astype(complex)
    gram = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
    sol = solve_pencils(s, gram, gram)
    assert sol.upper_exists == exists
    assert sol.lower_exists and sol.alpha == pytest.approx(1.0, rel=1e-12)
    if exists:
        assert sol.beta == pytest.approx(1.0, rel=1e-12)
    assert all(cert["holds"] for cert in sol.certificates.values()), sol.certificates


def _scaled(which, factor):
    """What scaling c by ``factor`` does to the constant ``which``."""
    return 1.0 / factor if which == "alpha" else factor


@pytest.mark.parametrize("which,factor", [
    ("alpha", 1.01), ("alpha", 0.99), ("beta", 0.99), ("beta", 1.01),
])
def test_certificate_rejects_a_corrupted_constant(monkeypatch, which, factor):
    # too small a c (too large an alpha, too small a beta) breaks
    # feasibility; too large a c leaves the step below it feasible
    L = np.array([[0, 0, 0, 2], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex)
    s = 10.0 * np.eye(4)
    exact = solve_pencils(s, L @ L.conj().T, L.conj().T @ L)
    assert exact.certificates[which]["holds"]
    corrupt_constant(monkeypatch, which, factor)
    bad = solve_pencils(s, L @ L.conj().T, L.conj().T @ L)
    assert getattr(bad, which) == pytest.approx(_scaled(which, factor) * getattr(exact, which))
    assert not bad.certificates[which]["holds"]


def test_reciprocal_form_ignores_rounding_on_ker_p(rng):
    # s = proj s proj vanishes on ker p only up to rounding; the reciprocal
    # form whitens by s on its range only, since scaling p's rounding on that
    # noise by its inverse square root would put alpha off, past the slack of
    # its certificate
    dim = 6
    for _ in range(1000):
        s = _random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
        p = _random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
        nb = null_space(p)
        proj = np.eye(dim) - nb @ nb.conj().T
        sol = solve_pencils(proj @ s @ proj, p, p)
        assert all(cert["holds"] for cert in sol.certificates.values())


def _block_diagonal(stack, count):
    """The block-diagonal matrix of ``count`` blocks of ``stack`` (one block repeats)."""
    d = stack.shape[-1]
    dense = np.zeros((count * d, count * d), dtype=complex)
    for b in range(count):
        dense[b * d:(b + 1) * d, b * d:(b + 1) * d] = stack[b % len(stack)]
    return dense


@settings(max_examples=80)
@given(blocks=st.integers(1, 6), dim=st.integers(1, 6), one_gram=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_pencils_match_the_oracle_and_certify(blocks, dim, one_gram, seed):
    # S stacked on B blocks against grams on the same blocks, with a mixed
    # kernel dimension per block, or one gram block that every block repeats.
    # With P the upper gram, S_b = proj A_b proj and the lower gram
    # proj C proj, proj the projector on the range of P's block, both
    # constants exist
    rng = np.random.default_rng(seed)
    ranks = rng.integers(0, dim + 1, size=1 if one_gram else blocks)
    ranks[0] = max(ranks[0], 1)
    upper = np.stack([_random_psd(rng, dim, rank=int(r)) for r in ranks])
    proj = np.stack([np.eye(dim) - nb @ nb.conj().T for nb in map(null_space, upper)])
    lower = proj @ np.stack([_random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
                             for _ in ranks]) @ proj
    s = np.stack([proj[b % len(proj)] @ _random_psd(rng, dim) @ proj[b % len(proj)]
                  for b in range(blocks)])
    sol = solve_pencils(s, lower, upper)
    assert sol.lower_exists and sol.upper_exists
    dense_s = _block_diagonal(s, blocks)
    assert sol.alpha == pytest.approx(
        bisect_max_alpha(dense_s, _block_diagonal(lower, blocks)), rel=1e-6)
    assert sol.beta == pytest.approx(
        bisect_min_beta(dense_s, _block_diagonal(upper, blocks)), rel=1e-6)
    assert all(cert["holds"] for cert in sol.certificates.values())
    assert sol.certificates.keys() == {"alpha", "beta"}
    # too small a c breaks feasibility; too large a c leaves the step below it
    # feasible on the extreme block
    for which in ("alpha", "beta"):
        for factor in (0.99, 1.01):
            with pytest.MonkeyPatch.context() as patch:
                corrupt_constant(patch, which, factor)
                bad = solve_pencils(s, lower, upper)
            assert getattr(bad, which) == pytest.approx(
                _scaled(which, factor) * getattr(sol, which))
            assert not bad.certificates[which]["holds"], (which, factor)


@settings(max_examples=100)
@given(blocks=st.integers(1, 5), dim=st.integers(1, 5), contained=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_both_sides_are_one_pencil_form(blocks, dim, contained, seed):
    # S >= alpha P is P <= (1/alpha) S: the lower side of S against P is the
    # upper side of P against S, the same least c with c S - P >= 0, so the
    # verdicts agree, the constants are reciprocal and the certificates equal.
    # With ``contained``, P is projected on the range of S, so both exist
    rng = np.random.default_rng(seed)
    s, p, x, y = (np.stack([_random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
                            for _ in range(blocks)]) for _ in range(4))
    if contained:
        proj = np.stack([np.eye(dim) - nb @ nb.conj().T for nb in map(null_space, s)])
        p = proj @ p @ proj
    a = solve_pencils(s, p, x)
    b = solve_pencils(p, y, s)
    assert a.lower_exists == b.upper_exists
    assert a.lower_exists or not contained
    if a.lower_exists:
        assert a.alpha * b.beta == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert a.certificates["alpha"] == b.certificates["beta"]


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2]),
       kind=st.sampled_from(["general", "scaled_identity", "rank_one", "zero"]),
       exponent=st.integers(-250, 250), skew=st.sampled_from([0.0, 1e-3]))
def test_closed_form_spectra_match_eigvalsh(seed, d, kind, exponent, skew):
    # 1 x 1 and 2 x 2 blocks take the closed form: ascending, within 8 ulps of
    # the block's top |eigenvalue| of LAPACK's spectrum of the Hermitian part,
    # with no numpy warning, on PSD stacks that are exactly c I (as pertexa's
    # K = 10 I), rank one or zero, plus a skew-Hermitian part that only the
    # Hermitised off-diagonal entry drops; scales from 1e-250 to 1e250 square
    # past the float range, so a sum of squares in place of hypot fails
    rng = np.random.default_rng(seed)
    count = 16
    g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    if kind == "rank_one":
        g[..., 1:] = 0.0
    psd = g @ np.swapaxes(g.conj(), -1, -2)
    if kind == "scaled_identity":
        c = rng.uniform(0.0, 10.0, count)
        c[0] = 10.0
        psd = c[:, None, None] * np.eye(d)
    if kind == "zero":
        psd = np.zeros((count, d, d), dtype=complex)
    x = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    h = 10.0 ** exponent * (psd + skew * (x - np.swapaxes(x.conj(), -1, -2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _hermitian_eigvalsh(h)
    want = np.linalg.eigvalsh(_hermitian(h))
    assert got.shape == want.shape == (count, d)
    assert np.all(np.diff(got, axis=-1) >= 0.0)
    top = np.abs(want).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * top)
