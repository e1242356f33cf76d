"""Shared builders and independent oracles for the test suite.

Oracles are deliberately written as explicit loops over group elements and
matrix entries (cmath phases, scalar accumulation) so they share no code
path with the package's vectorised implementations.  The pencil oracle is
monotone bisection on the least eigenvalue of the pencil.
"""

from __future__ import annotations

import cmath

import numpy as np
from hypothesis import strategies as st

from gaborop import (
    FiniteAbelianGroup,
    GaborSystem,
    MatrixSignal,
    MeasurePair,
    SignalSpace,
    SpaceOperator,
    Subgroup,
    inverse_fourier,
)
from gaborop.pencil import KERNEL_RTOL

# ---------------------------------------------------------------------------
# oracles


def oracle_character(factors, gcoords, xcoords) -> complex:
    phase = 0.0
    for g, x, n in zip(gcoords, xcoords, factors):
        phase += g * x / n
    return cmath.exp(2j * cmath.pi * phase)


def oracle_fourier(signal: MatrixSignal) -> np.ndarray:
    """Direct double-sum transform, entrywise; returns raw dual-side values."""
    group = signal.space.group
    n = signal.space.n
    w = signal.space.measure.w_group
    out = np.zeros((group.order, n, n), dtype=np.complex128)
    duals = list(group.dual_elements())
    elems = list(group.elements())
    for gi, gamma in enumerate(duals):
        for i in range(n):
            for j in range(n):
                acc = 0.0 + 0.0j
                for xi, x in enumerate(elems):
                    ch = oracle_character(group.factors, gamma.coords, x.coords)
                    acc += signal.values[xi, i, j] * ch.conjugate()
                out[gi, i, j] = w * acc
    return out


def oracle_family(system: GaborSystem):
    """(array, labels) of every modulated translate, by coordinate arithmetic.

    Member (l, k, m) is x -> chi_{B m}(x) g_l(x - A k) with A and B the
    automorphism matrices, in (window, translation, modulation) order.
    """
    group = system.space.group
    factors = group.factors
    n = system.space.n

    def index(coords):
        idx = 0
        for c, size in zip(coords, factors):
            idx = idx * size + c % size
        return idx

    def image(matrix, coords):
        return [sum(int(matrix[i][j]) * coords[j] for j in range(len(coords))) % factors[i]
                for i in range(len(coords))]

    members, labels = [], []
    for l, window in enumerate(system.windows):
        for k in system.lattice:
            shift = image(system.automorphism.matrix, k.coords)
            for m in system.dual_lattice:
                eta = image(system.dual_automorphism.matrix, m.coords)
                values = np.zeros((group.order, n, n), dtype=np.complex128)
                for x in group.elements():
                    source = index([c - s for c, s in zip(x.coords, shift)])
                    phase = oracle_character(factors, eta, x.coords)
                    for i in range(n):
                        for j in range(n):
                            values[index(x.coords), i, j] = phase * window.values[source, i, j]
                members.append(values)
                labels.append((l, k.coords, m.coords))
    return np.array(members).reshape(-1, group.order, n, n), labels


def oracle_mv_inner(f: MatrixSignal, g: MatrixSignal) -> np.ndarray:
    n = f.space.n
    w = f.space.weight(f.dual)
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for xi in range(f.space.group.order):
                for r in range(n):
                    acc += f.values[xi, i, r] * g.values[xi, j, r].conjugate()
            out[i, j] = w * acc
    return out


def oracle_norm_sq(f: MatrixSignal) -> float:
    w = f.space.weight(f.dual)
    acc = 0.0
    for xi in range(f.space.group.order):
        for i in range(f.space.n):
            for j in range(f.space.n):
                acc += abs(f.values[xi, i, j]) ** 2
    return w * acc


def oracle_frame_sum(members, f: MatrixSignal) -> float:
    """Sum of squared Frobenius norms of the matrix pairings, by loops."""
    total = 0.0
    for psi in members:
        m = oracle_mv_inner(f, psi)
        for i in range(f.space.n):
            for j in range(f.space.n):
                total += abs(m[i, j]) ** 2
    return total


def oracle_frame_operator(members, space: SignalSpace) -> np.ndarray:
    """Frame operator assembled column by column from the definition."""
    dim = space.dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    for col, basis in enumerate(space.basis_signals()):
        acc = np.zeros((space.group.order, space.n, space.n), dtype=np.complex128)
        for psi in members:
            m = oracle_mv_inner(basis, psi)
            for xi in range(space.group.order):
                acc[xi] += m @ psi.values[xi]
        out[:, col] = MatrixSignal(space, acc).flatten()
    return out


PSD_SLACK_RTOL = 1e-12  # bisection's PSD slack, relative to the larger of s and c p


def _top(vals: np.ndarray) -> float:
    return max(float(vals[-1]), 0.0) if vals.size else 0.0


def _psd(h: np.ndarray, slack: float) -> bool:
    """Whether the least eigenvalue of the Hermitian part of h is >= -slack."""
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0]) >= -slack


def bisect_max_alpha(s: np.ndarray, p: np.ndarray, width: float = 1e-11,
                     max_iter: int = 200) -> float:
    """Largest alpha >= 0 with s - alpha p PSD (monotone bisection to relative
    ``width``).

    alpha -> min-eig(s - alpha p) is concave and nonincreasing for PSD p, so
    the feasible set is an interval [0, alpha_opt].
    """
    s_top, top_p = _top(np.linalg.eigvalsh(s)), _top(np.linalg.eigvalsh(p))
    # slack relative to the larger of s and alpha p: the same test at any scale
    feasible = lambda a: _psd(s - a * p, PSD_SLACK_RTOL * max(s_top, a * top_p))
    if not feasible(0.0):
        return 0.0  # s itself only PSD up to noise; nothing more to gain
    if top_p <= 0.0:
        raise ValueError("pencil degenerate: controlling matrix vanishes")
    # s >= alpha p forces alpha * top(p) <= top(s), so twice that is infeasible
    lo, hi = 0.0, 2.0 * s_top / top_p
    for _ in range(max_iter):
        if hi - lo <= width * hi:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def bisect_min_beta(s: np.ndarray, p: np.ndarray, width: float = 1e-11,
                    max_iter: int = 200) -> float:
    """Smallest beta >= 0 with beta p - s PSD (monotone bisection to relative
    ``width``)."""
    s_top, p_vals = _top(np.linalg.eigvalsh(s)), np.linalg.eigvalsh(p)
    top_p = _top(p_vals)
    feasible = lambda b: _psd(b * p - s, PSD_SLACK_RTOL * max(s_top, b * top_p))
    if feasible(0.0):
        return 0.0
    if top_p <= 0.0:
        raise ValueError("no finite upper constant: controlling matrix vanishes")
    # once ker p <= ker s, beta <= top(s) / (least positive eigenvalue of p)
    hi = 2.0 * s_top / float(p_vals[p_vals > KERNEL_RTOL * top_p][0])
    if not feasible(hi):
        raise ValueError("no finite upper constant: kernel of p meets support of s")
    lo = 0.0
    for _ in range(max_iter):
        if hi - lo <= width * hi:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# builders


def torus_space(order: int = 16, n: int = 1, convention: str = "torus_like") -> SignalSpace:
    group = FiniteAbelianGroup((order,))
    measure = (
        MeasurePair.torus_like(group) if convention == "torus_like"
        else MeasurePair.counting(group)
    )
    return SignalSpace(group, n, measure)


def indicator_window(space: SignalSpace, scale: float = 1.0, width: int = 8) -> MatrixSignal:
    """Scalar window whose transform is ``scale`` on {0..width-1}, else 0."""
    group = space.group
    hat = np.zeros((group.order, 1, 1), dtype=np.complex128)
    hat[:width, 0, 0] = scale
    scalar = SignalSpace(group, 1, space.measure)
    return inverse_fourier(MatrixSignal(scalar, hat, dual=True))


def torus_lattices(group: FiniteAbelianGroup, resolution: int):
    lattice = Subgroup(group, [group.element([resolution])])
    dual_lattice = Subgroup(group, [group.dual_element([8])])
    return lattice, dual_lattice


def phi_system(resolution: int = 2, which: int = 1, convention: str = "torus_like") -> GaborSystem:
    """Scalar reference system: tight with constant 8 (which=1) or 2 (which=2)."""
    space = torus_space(8 * resolution, 1, convention)
    window = indicator_window(space, 1.0 if which == 1 else 0.5)
    lat, dlat = torus_lattices(space.group, resolution)
    return GaborSystem(space, (window,), lat, dlat)


def matrix_window(space: SignalSpace, grid) -> MatrixSignal:
    """Grid entries: scalar MatrixSignal, ndarray of length |G|, or 0."""
    return space.from_scalars(grid)


def swap_window_system(resolution: int = 2, convention: str = "torus_like") -> GaborSystem:
    """The 10-tight two-window matrix system (off-diagonal atoms)."""
    space = torus_space(8 * resolution, 2, convention)
    p1 = indicator_window(space, 1.0)
    p2 = indicator_window(space, 0.5)
    w1 = matrix_window(space, [[0, p1], [p2, 0]])
    w2 = matrix_window(space, [[0, p2], [p1, 0]])
    lat, dlat = torus_lattices(space.group, resolution)
    return GaborSystem(space, (w1, w2), lat, dlat)


def column_window_system(resolution: int = 2) -> GaborSystem:
    """The rank-deficient system carrying both atoms in the second column."""
    space = torus_space(8 * resolution, 2)
    p1 = indicator_window(space, 1.0)
    p2 = indicator_window(space, 0.5)
    w1 = matrix_window(space, [[0, p1], [0, p1]])
    w2 = matrix_window(space, [[0, p2], [0, p2]])
    lat, dlat = torus_lattices(space.group, resolution)
    return GaborSystem(space, (w1, w2), lat, dlat)


def perturbed_window_system(resolution: int = 2) -> GaborSystem:
    space = torus_space(8 * resolution, 2)
    p1 = indicator_window(space, 1.0)
    p2 = indicator_window(space, 0.5)
    w1 = matrix_window(space, [[0.2 * p1, p1], [p2, 0.2 * p2]])
    w2 = matrix_window(space, [[0.2 * p2, p2], [p1, 0.2 * p1]])
    lat, dlat = torus_lattices(space.group, resolution)
    return GaborSystem(space, (w1, w2), lat, dlat)


def diag_window_system(resolution: int = 2) -> GaborSystem:
    space = torus_space(8 * resolution, 2)
    p1 = indicator_window(space, 1.0)
    p2 = indicator_window(space, 0.5)
    w1 = matrix_window(space, [[0.2 * p1, 0], [0, 0.2 * p2]])
    w2 = matrix_window(space, [[0.2 * p2, 0], [0, 0.2 * p1]])
    lat, dlat = torus_lattices(space.group, resolution)
    return GaborSystem(space, (w1, w2), lat, dlat)


# entry maps, row-major over row-major vec of the matrix value
COLUMN2_KEEPER = np.diag([0.0, 1.0, 0.0, 1.0])
F11_PROJECTOR = np.diag([1.0, 0.0, 0.0, 0.0])
FLIP = np.array(
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float
)
PERT_THETA = np.array(
    [[0, 0, 0, 2], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float
)
ZERO_MID_COLUMN_3 = np.diag([1.0, 0, 1, 1, 0, 1, 1, 0, 1])


def selector_op(space: SignalSpace) -> SpaceOperator:
    return SpaceOperator.from_entry_map(space, COLUMN2_KEEPER)


def projector_op(space: SignalSpace) -> SpaceOperator:
    return SpaceOperator.from_entry_map(space, F11_PROJECTOR)


def flip_op(space: SignalSpace) -> SpaceOperator:
    return SpaceOperator.from_entry_map(space, FLIP)


def pert_theta_op(space: SignalSpace) -> SpaceOperator:
    return SpaceOperator.from_entry_map(space, PERT_THETA)


# ---------------------------------------------------------------------------
# randomisation

# log-uniform scale factors in [1e-6, 1e6]
LOG_SCALES = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


def random_signal(space: SignalSpace, rng: np.random.Generator, dual: bool = False) -> MatrixSignal:
    shape = (space.group.order, space.n, space.n)
    return MatrixSignal(space, rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                        dual=dual)


def random_entry_op(space: SignalSpace, rng: np.random.Generator,
                    kind: str = "general") -> SpaceOperator:
    n2 = space.n * space.n
    L = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
    if kind == "singular":
        cols = rng.choice(n2, size=max(1, n2 // 2), replace=False)
        L[:, cols] = 0.0
    elif kind == "right_unitary":
        q, _ = np.linalg.qr(rng.standard_normal((space.n, space.n))
                            + 1j * rng.standard_normal((space.n, space.n)))
        return SpaceOperator.right_multiplication(space, q)
    elif kind == "invertible":
        L = L + 2.0 * np.sqrt(n2) * np.eye(n2)
    return SpaceOperator.from_entry_map(space, L)


def random_subgroup(group: FiniteAbelianGroup, rng: np.random.Generator,
                    dual: bool = False) -> Subgroup:
    make = group.dual_element if dual else group.element
    count = int(rng.integers(0, 2))
    gens = [
        make([int(rng.integers(0, n)) for n in group.factors]) for _ in range(count)
    ]
    return Subgroup(group, gens, dual=dual)


def random_system(rng: np.random.Generator, orders=(6, 8), max_n: int = 2) -> GaborSystem:
    order = int(rng.choice(orders))
    n = int(rng.integers(1, max_n + 1))
    space = torus_space(order, n)
    num_windows = int(rng.integers(1, 3))
    windows = tuple(random_signal(space, rng) for _ in range(num_windows))
    lattice = random_subgroup(space.group, rng)
    dual_lattice = random_subgroup(space.group, rng, dual=True)
    return GaborSystem(space, windows, lattice, dual_lattice)


def random_operator_for(space: SignalSpace, rng: np.random.Generator) -> SpaceOperator:
    kind = rng.choice(["general", "singular", "right_unitary", "invertible", "dense"])
    if kind == "dense":
        d = space.dim
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return SpaceOperator.from_dense(space, m / np.sqrt(d))
    return random_entry_op(space, rng, str(kind))
