"""Gabor systems on matrix-signal spaces and their frame bounds.

A Gabor system is generated from window signals by translations over a
lattice (composed with an automorphism) and modulations over a dual lattice
(composed with a dual automorphism), enumerated in deterministic
(window, translation, modulation) lexicographic order.  Families that are
not lattice-generated (for example images under a dense operator) share all
the analysis, synthesis and bound machinery through :class:`VectorFamily`.

Ordinary bounds are the extreme eigenvalues of the frame operator.  For a
Gabor system the frame operator is block-diagonal over the cosets of the
annihilator of the modulation group (Walnut's representation), and an entry
map acts pointwise, so bounds under an entry map (or none), or under a dense
operator that vanishes off those blocks, are computed on them; any other
family or operator is one dense block, built as the family's members over
the trivial lattices (one coset).  The frame operator, and the grams of
an entry map, also commute with translation by H, the lattice translations
that lie in that annihilator, so a DFT over H splits each coset block
further into |H| blocks (the Zak or Zibulski-Zeevi representation), built
from one lattice translate per coset of H.  Every block is I_n (x) K, and
ordinary bounds take the eigenvalues of K alone: in closed form when K is
1 x 1 or 2 x 2 (within a few ulps of the top eigenvalue, the order of
LAPACK's own error), otherwise by ``eigvalsh``.  The operator-controlled
two-sided bounds

    alpha * ||adjoint(T) f||^2  <=  sum of squared coefficient norms
                                <=  beta * ||T f||^2

are extremal feasible constants of Hermitian pencils: a closed form reports
them and a residual certificate checks each (see :mod:`gaborop.pencil`;
bisection, the test oracle, lives in ``tests/helpers.py``).  Existence is
decided by kernel inclusion: a finite upper constant exists iff
ker T <= ker S, a positive lower constant iff ker S <= ker(adjoint T).

This module alone decides the route, shares a build and reads the layout
of the blocks, so it also holds the two results computed on that layout:

* operator images: the image of a Gabor system under an operator that maps
  each coset of the Walnut blocks into itself is a Gabor system.  One build
  of the image's blocks serves both the operator's diagnostics and the
  controlled report (``_controlled``, which the promotion and the image and
  tight constructions of :mod:`gaborop.constructions` call);
* the coefficient-side characterisation: the synthesis operator Omega maps
  the standard coefficient basis onto the family, Omega Omega^* equals the
  frame operator, and the pencil constants of Omega Omega^* reproduce the
  two-sided bound verdicts.  No route builds Omega: on the dense route both
  conditions hold by construction, and on the coset blocks they are exact
  integer checks on the coset points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .groups import (Automorphism, GroupMismatchError, Subgroup, _characters, _coordinates,
                     _cosets, _pairing, _positions, _subgroup_characters, annihilator,
                     intersection)
from .operators import (DEFAULT_TOL, KERNEL_RTOL, OperatorDiagnostics, SpaceOperator,
                        _diagnostics)
from .pencil import CLOSED_FORM_DIM, _hermitian_eigvalsh, solve_pencils
from .signals import MatrixSignal, SignalSpace

__all__ = [
    "GaborSystem",
    "VectorFamily",
    "CoefficientSequence",
    "BoundsReport",
    "PromotionResult",
    "OmegaReport",
    "image_system",
    "analysis",
    "synthesis",
    "omega_characterization",
    "analysis_matrix",
    "frame_operator",
    "ordinary_bounds",
    "theta_bounds",
    "valid_bounds",
    "bounded_below_promotion",
]


class VectorFamily:
    """A finite family of matrix signals sharing one space, stored as one array.

    ``array`` has shape (members, |G|, n, n).  ``labels`` names each member
    (for Gabor systems the (l, k, m) triple); members are kept in a fixed
    order so coefficient layouts are reproducible.
    """

    def __init__(self, space: SignalSpace, array, labels: Optional[Sequence] = None):
        arr = np.asarray(array, dtype=np.complex128)
        if arr.ndim != 4 or arr.shape[1:] != (space.group.order, space.n, space.n):
            raise GroupMismatchError("family array does not live in the given space")
        self.space = space
        self.array = arr.view()  # read-only view; the caller's array stays writable
        self.array.flags.writeable = False
        self.labels = tuple(labels) if labels is not None else tuple(range(len(arr)))
        if len(self.labels) != len(arr):
            raise ValueError("labels and members differ in length")

    @property
    def members(self) -> tuple[MatrixSignal, ...]:
        return tuple(MatrixSignal(self.space, values) for values in self.array)

    def __len__(self):
        return len(self.array)

    def transformed(self, op: SpaceOperator) -> "VectorFamily":
        """The family of images under ``op`` (labels preserved)."""
        return VectorFamily(self.space, op.apply_array(self.array), self.labels)

    def __repr__(self):
        return f"<family of {len(self)} signals on {self.space.group!r}, n={self.space.n}>"


@dataclass(frozen=True)
class GaborSystem:
    """Windows plus lattices and automorphisms generating a Gabor family."""

    space: SignalSpace
    windows: tuple[MatrixSignal, ...]
    lattice: Subgroup
    dual_lattice: Subgroup
    automorphism: Automorphism | None = None
    dual_automorphism: Automorphism | None = None

    def __post_init__(self):
        for w in self.windows:
            if w.space != self.space or w.dual:
                raise GroupMismatchError("window does not live in the system's space")
        if self.lattice.group != self.space.group or self.lattice.dual:
            raise GroupMismatchError("lattice must be a primal subgroup of the group")
        if self.dual_lattice.group != self.space.group or not self.dual_lattice.dual:
            raise GroupMismatchError("dual lattice must be a dual-side subgroup")
        auto = self.automorphism or Automorphism.identity(self.space.group)
        dauto = self.dual_automorphism or Automorphism.identity(self.space.group, dual=True)
        if auto.dual or not dauto.dual:
            raise GroupMismatchError("automorphism sides are swapped")
        object.__setattr__(self, "automorphism", auto)
        object.__setattr__(self, "dual_automorphism", dauto)

    def family(self) -> VectorFamily:
        """All modulated translates, in (window, translation, modulation) order."""
        group = self.space.group
        etas = self.dual_automorphism.apply(self.dual_lattice.coords)
        phases = _characters(group, etas[:, None, :], _coordinates(group))  # (|Gamma|, |G|)
        shifted = _translates(self)
        array = shifted[:, :, None] * phases[:, :, None, None]
        ks, ms = self.lattice.coords.tolist(), self.dual_lattice.coords.tolist()
        labels = [(l, tuple(k), tuple(m)) for l in range(len(self.windows)) for k in ks for m in ms]
        return VectorFamily(self.space, array.reshape((-1,) + shifted.shape[2:]), labels)

    def with_windows(self, windows: Sequence[MatrixSignal]) -> "GaborSystem":
        return GaborSystem(
            self.space, tuple(windows), self.lattice, self.dual_lattice,
            self.automorphism, self.dual_automorphism,
        )


def _windows(system: GaborSystem) -> np.ndarray:
    """The windows as one (L, |G|, n, n) array."""
    group, n = system.space.group, system.space.n
    # the reshape gives zero windows their (0, |G|, n, n) shape
    return np.array([w.values for w in system.windows], dtype=np.complex128).reshape(
        len(system.windows), group.order, n, n)


def _translates(system: GaborSystem) -> np.ndarray:
    """g_l(x - A a) for every window l, lattice point a and point x, as one
    (L, |lattice|, |G|, n, n) array."""
    group = system.space.group
    shifts = system.automorphism.apply(system.lattice.coords)
    return _windows(system)[:, _positions(group, _coordinates(group) - shifts[:, None, :])]


def _as_family(obj) -> VectorFamily:
    return obj.family() if isinstance(obj, GaborSystem) else obj


def image_system(op: SpaceOperator, system) -> GaborSystem | VectorFamily:
    """The images of every system member under ``op``.

    An entry map commutes with every translation and modulation, and a dense
    operator that maps each coset of Gamma^perp into itself commutes with
    every modulation in Gamma, which is constant on a coset.  So the image of
    a Gabor system is the Gabor system of the mapped windows on the same
    lattices, or of the mapped translates T(g_l(. - A a)), in (l, a) order,
    over the trivial lattice and the same modulations.  Any other operator,
    or a family, gives the family of mapped members.
    """
    if op.space != system.space:
        raise GroupMismatchError("operator does not act on the system's space")
    if isinstance(system, GaborSystem) and op.kind == "entry_map":
        return system.with_windows([op(w) for w in system.windows])
    if isinstance(system, GaborSystem) and _coset_operator(system, op) is not None:
        translates = _translates(system)
        mapped = op.apply_array(translates).reshape(-1, *translates.shape[2:])
        return GaborSystem(system.space, VectorFamily(system.space, mapped).members,
                           Subgroup.trivial(system.space.group), system.dual_lattice,
                           dual_automorphism=system.dual_automorphism)
    return _as_family(system).transformed(op)


@dataclass(frozen=True)
class CoefficientSequence:
    """Family-indexed n x n coefficient matrices with the Frobenius-sum norm."""

    labels: tuple
    array: np.ndarray  # shape (len(family), n, n)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.array) ** 2))

    def __getitem__(self, label):
        return self.array[self.labels.index(label)]


def analysis(system, f: MatrixSignal) -> CoefficientSequence:
    """Coefficient map: one matrix pairing against every family member."""
    family = _as_family(system)
    if f.space != family.space or f.dual:
        raise GroupMismatchError("signal does not match the system's space")
    w = family.space.weight()
    coeffs = w * np.einsum("xir,mxjr->mij", f.values, np.conj(family.array))
    return CoefficientSequence(family.labels, coeffs)


def synthesis(system, coeffs: CoefficientSequence) -> MatrixSignal:
    """Adjoint of analysis: sum of coefficient matrices times members."""
    family = _as_family(system)
    if coeffs.labels != family.labels:
        raise ValueError("coefficient index set does not match the family")
    values = np.einsum("mij,mxjk->xik", coeffs.array, family.array)
    return MatrixSignal(family.space, values)


@dataclass
class OmegaReport:
    """Coefficient-side characterisation of the two-sided frame inequality; the
    verdicts and constants are those of ``controlled``, which JSON leaves out."""

    basis_condition: bool
    max_gram_deviation: float
    lower_exists: bool
    upper_exists: bool
    alpha: Optional[float]
    beta: Optional[float]
    controlled: Optional[BoundsReport] = field(default=None, metadata={"json": False})


def omega_characterization(system, theta: SpaceOperator,
                           tol: float = DEFAULT_TOL) -> OmegaReport:
    """Synthesis-operator route to the two-sided bound verdicts.

    Checks that Omega maps the standard coefficient basis onto the family and
    compares Omega Omega^* with the frame operator S; the verdicts and
    constants are those of the controlled report on the blocks of S (one
    build and one pencil solve serve both).  On the dense route S is A^* A for
    the analysis matrix A, and Omega = A^*, so both conditions hold by
    construction (``tests/helpers.py::oracle_omega_report`` keeps the dense
    Omega).  On the coset blocks, the rows of coset b of Omega are
    H_b (x) phi_b (the translate stack, and the phase row
    phi_b(gamma) = chi_gamma(x_b)); with P = phi phi^*, Omega Omega^* is
    w P_bb' H_b H_b'^* on blocks (b, b'), and S_b = w |Gamma| H_b H_b^*.  Both
    conditions are exact integer facts about the coset points: the basis
    condition holds iff each generator of Gamma pairs constantly along every
    coset, and P_bb' / |Gamma| is 1 when cosets b and b' share their pairings
    (their label) and 0 otherwise (orthogonality of characters, Walnut 1992).
    So the blocks of Omega Omega^* are S's own; off them an entry is at most
    sqrt(max diag S_b max diag S_b') (Cauchy-Schwarz) between cosets with one
    label, and exactly 0 between distinct labels.
    """
    blocks = _frame_blocks(system, theta)
    controlled = _theta_report(blocks, tol)
    basis_condition, max_dev = True, 0.0
    if blocks.route == "walnut":
        group = system.space.group
        gens = system.dual_automorphism.apply(
            np.reshape([m.coords for m in system.dual_lattice.generators], (-1, group.rank)))
        # labels[b, k, i]: the pairing of generator i with point k of coset b
        points = _coordinates(group)[blocks.points]
        labels = _pairing(group, gens, points[:, :, None, :])
        basis_condition = bool(np.all(labels == labels[:, :1]))
        # the diagonal of a coset block is the mean of its Zak blocks' diagonals,
        # and that of I_n (x) K repeats the diagonal of K
        k = blocks.k.reshape(len(labels), len(blocks.phi), *blocks.k.shape[1:])
        diag = np.diagonal(k, axis1=2, axis2=3).real.mean(axis=1).max(axis=1, initial=0.0)
        # sorted by label, then by diagonal, largest first: the two largest
        # diagonals of cosets that share a label are neighbours
        order = np.lexsort((-diag, *labels[:, 0].T))
        heads, diag = labels[order, 0], diag[order]
        shared = (heads[1:] == heads[:-1]).all(axis=-1)
        max_dev = float((np.sqrt(diag[1:]) * np.sqrt(diag[:-1])).max(where=shared, initial=0.0))
    return OmegaReport(basis_condition, max_dev, controlled.lower_exists,
                       controlled.upper_exists, controlled.alpha_opt, controlled.beta_opt,
                       controlled)


def analysis_matrix(system) -> np.ndarray:
    """Flattened analysis operator, shape (len(family) * n^2, |G| * n^2).

    Rows are ordered (member, coefficient entry row-major); columns follow
    the flattened signal layout.  The frame operator equals A^H A.
    """
    family = _as_family(system)
    n = family.space.n
    w = family.space.weight()
    conj_stack = np.sqrt(w) * np.conj(family.array)  # (m, x, j, r)
    # a[m, i, j, x, p, r] = delta(i, p) conj_stack[m, x, j, r]
    a = np.zeros((len(family), n, n, family.space.group.order, n, n), dtype=np.complex128)
    for i in range(n):
        a[:, i, :, :, i, :] = conj_stack.transpose(0, 2, 1, 3)
    return a.reshape(len(family) * n * n, family.space.dim)


def frame_operator(system) -> SpaceOperator:
    """The PSD frame operator on the flattened space (synthesis o analysis)."""
    family = _as_family(system)
    a = analysis_matrix(family)
    return SpaceOperator.from_dense(family.space, a.conj().T @ a)


class _Blocks(NamedTuple):
    """The frame operator as the diagonal blocks of a block-diagonal matrix,
    and the operator it is paired with on the same blocks.

    The blocks are taken in the Zak basis of the coset blocks: with the
    points of coset b ordered t_bj + h over (j, h) in ``points[b]``, block
    (b, chi), at position b |H| + chi of ``s``, is U S U^* for the rows
    (j, entry) of U that are sum_h phi[chi, h] e_(points[b, (j, h)], entry)^T,
    entry (x, e) of the flattened space being x n^2 + e.  A trivial H
    (phi = [[1]]) gives the coset blocks themselves; the dense route is one
    coset, G, with H = {0}, in position order.

    Every block is I_n (x) K: the frame operator acts on each row of a matrix
    signal alone, so with the entry (p, r) of point j as row (j, p, r),
    S[(j, p, r), (j', t, s)] = delta(p, t) K[(j, r), (j', s)].  Only K is
    kept; ``s`` forms S for a pencil, and ordinary bounds read the spectrum
    of K, in closed form up to 2 x 2 (see
    :func:`gaborop.pencil._hermitian_eigvalsh`) and by ``eigvalsh`` beyond."""

    route: str          # "walnut" (coset blocks) or "dense" (one block, of a family)
    points: np.ndarray  # (B, J |H|) positions of each coset's points, ordered (j, h)
    phi: np.ndarray     # (|H|, |H|) the unitary DFT over H, phi[chi, h] = chi(h) / sqrt|H|
    k: np.ndarray       # (B |H|, J n, J n) the factor K of each block
    n: int              # the matrix size of the signals
    op: Optional[np.ndarray]  # (1, e, e) or (B, d, d): see _frame_blocks
    reason: str         # why the operator takes this route

    @property
    def s(self) -> np.ndarray:
        """The blocks I_n (x) K of S, (B |H|, d, d) with d = J n^2, formed on
        each access."""
        return _on_diagonal(self.k, self.k.shape[-1] // self.n, self.n)

    def to_json_dict(self) -> dict:
        return {"name": self.route, "blocks": len(self.k),
                "block_dim": self.k.shape[-1] * self.n, "zak": len(self.phi)}


class _Layout(NamedTuple):
    """The set-up of the Zak blocks that depends on the lattices alone."""

    points: np.ndarray  # (B, c) canonical positions of each coset's points, ordered (j, h)
    phi: np.ndarray     # (|H|, |H|) the unitary DFT over H, phi[chi, h] = chi(h) / sqrt|H|
    # (|A(lattice)| / |H|, B, J, |H|) the position of t_bj + h - a, J = c / |H|, for one
    # translate a per coset of H in A(lattice), the first in lattice order
    gather: np.ndarray


@functools.lru_cache(maxsize=16)
def _layout(lattice: Subgroup, dual_lattice: Subgroup, automorphism: Automorphism,
            dual_automorphism: Automorphism, split: bool) -> _Layout:
    """The cosets of Gamma^perp, for Gamma the modulation group, listed as the
    cosets of H they hold, the DFT over H and the translate gather, read-only.
    ``split`` takes H the lattice translations that lie in Gamma^perp (for no
    operator or an entry map), otherwise H = {0}.  The gather keeps one
    translate per coset of H, since a translate by h in H only multiplies a
    Zak row by chi(h) (see :func:`_frame_blocks`); with H = {0} it keeps every
    translate.

    Memoised by value for the last 16 keys, so systems on the same lattices
    (``with_windows``, a scenario's systems, repeated reports) share one
    entry.  An entry retains 8 |G| bytes of ``points``, 16 |H|^2 of ``phi``
    and 8 |G| |lattice| / |H| of ``gather``, and its key the two lattices
    (about 8 |G| bytes each): about 18 kB for exb1 at |G| = 512, and 8 MB for
    a full lattice with a trivial H at |G| = 1024."""
    group = lattice.group
    modulations = Subgroup(group, [dual_automorphism(m) for m in dual_lattice.generators],
                           dual=True)
    cosets = annihilator(modulations)
    zak = Subgroup.trivial(group)
    if split:
        translations = Subgroup(group, [automorphism(k) for k in lattice.generators])
        zak = intersection(translations, cosets)
    points = _cosets(cosets, zak)
    phi = _subgroup_characters(zak) / np.sqrt(len(zak))
    shifts = automorphism.apply(lattice.coords)
    # the first translate of each coset of H, labelled by its least member
    _, first = np.unique(zak.least[_positions(group, shifts)], return_index=True)
    shifts = shifts[np.sort(first)]
    gather = _positions(group, _coordinates(group)[points] - shifts[:, None, None, :])
    gather = gather.reshape(len(shifts), len(points), -1, len(zak))
    for array in (points, phi, gather):
        array.flags.writeable = False
    return _Layout(points, phi, gather)


def _lattices(system: GaborSystem) -> tuple:
    """The lattices and automorphisms of ``system``, in :func:`_layout`'s order."""
    return (system.lattice, system.dual_lattice, system.automorphism, system.dual_automorphism)


def _frame_blocks(system, theta: Optional[SpaceOperator] = None) -> _Blocks:
    """The frame operator of ``system`` as blocks on which ``theta`` also splits.

    For a Gabor system with lattice translations A and modulation group Gamma,
    summing the modulations gives S(y, x) = w |Gamma| sum_{l, a} g_l(y - a)^T
    conj(g_l(x - a)) (times I_n on the row index) when x - y lies in the
    annihilator of Gamma, and 0 otherwise (Walnut 1992).  So S is
    block-diagonal over the |Gamma| cosets, and each block is built straight
    from the windows.  The coset blocks are taken when the operator maps each
    coset into itself: no operator, an entry map, or a dense matrix whose
    nonzero count equals that of its coset blocks (an exact test).  A family,
    or the family of a system under a dense matrix with a nonzero entry off
    the blocks, is built the same way as one dense block: its members are the
    windows over the trivial lattice and dual lattice, so Gamma^perp = G is
    the one coset and H = {0}.

    S(y + h, x + h) = S(y, x) for h in H = A ∩ annihilator(Gamma), and H maps
    each coset onto itself, so the DFT over H diagonalises each coset block
    into |H| blocks (Zibulski & Zeevi 1997): the translates are transformed
    along H before the product, and only the chi-diagonal products are taken.
    The transformed row of a translate a = r + h0, h0 in H, is chi(h0) times
    that of r, and |chi(h0)|^2 = 1, so one translate per coset of H is
    gathered and its product weighted by |H|.  An entry map commutes with H
    too; a dense operator is taken with H = {0}, where every translate is
    its own coset.  The cosets, the DFT over H and the gather come from
    :func:`_layout`.

    Each block is I_n (x) K (see :class:`_Blocks`), so only K is built:
    K = w |Gamma| |H| sum over the kept translates, per block.

    ``op`` is the operator on the blocks: the entry matrix (1, n^2, n^2),
    which repeats along the diagonal of every block, or the stack of the
    operator's diagonal blocks, (B, d, d) on the coset blocks and (1, D, D)
    on the dense route.
    """
    space = system.space
    if theta is not None and theta.space != space:
        raise GroupMismatchError("operator does not act on the system's space")
    op = None if theta is None else theta._rep()[None]
    reason = "no operator" if theta is None else "entry map"
    if not isinstance(system, GaborSystem):
        reason = "not a Gabor system"
    elif theta is not None and theta.kind == "dense":
        op, reason = _coset_operator(system, theta), "dense, zero off the coset blocks"
        if op is None:
            op, reason = theta._rep()[None], "dense, nonzero off the coset blocks"
            system = system.family()
    if isinstance(system, GaborSystem):
        route, windows, lattices = "walnut", _windows(system), _lattices(system)
        split = theta is None or theta.kind == "entry_map"
    else:  # the members as windows over the trivial lattices: one coset, H = {0}
        group = space.group
        route, windows, split = "dense", system.array, False
        lattices = (Subgroup.trivial(group), Subgroup.trivial(group, dual=True),
                    Automorphism.identity(group), Automorphism.identity(group, dual=True))
    n = space.n
    points, phi, gather = _layout(*lattices, split)
    _, blocks, j, size = gather.shape
    # g[l, a, b, j, q, r, chi] = sum_h phi[chi, h] g_l(t_bj + h - a)[q, r] for the
    # kept a, as one product over all its rows (a batch of (n, |H|) products
    # costs a BLAS call each); then rows[(b, chi), (l, a, q), (j, r)], and
    # K = w |Gamma| |H| rows^T conj(rows) per block
    g = np.moveaxis(windows[:, gather], 4, -1)
    g = (g.reshape(-1, size) @ phi.T).reshape(g.shape)
    rows = g.transpose(2, 6, 0, 1, 4, 3, 5).reshape(blocks * size, -1, j * n)
    k = space.weight() * len(lattices[1]) * size * (np.swapaxes(rows, 1, 2) @ rows.conj())
    return _Blocks(route, points, phi, k, n, op, reason)


def _coset_index(points: np.ndarray, n: int) -> np.ndarray:
    """(B, c) flat indices of each coset block's points and entries, ordered (point, entry)."""
    return (points[:, :, None] * (n * n) + np.arange(n * n)).reshape(len(points), -1)


def _coset_operator(system: GaborSystem, theta: SpaceOperator) -> Optional[np.ndarray]:
    """The (B, d, d) stack of the dense ``theta``'s diagonal blocks on the
    cosets that split the frame operator of ``system`` (H = {0}), or None when
    ``theta`` has a nonzero entry off them (an exact test)."""
    points = _layout(*_lattices(system), False).points
    index = _coset_index(points, system.space.n)
    on_blocks = theta.dense_matrix[index[:, :, None], index[:, None, :]]
    return on_blocks if np.count_nonzero(on_blocks) == theta.nonzeros else None


def _on_diagonal(x: np.ndarray, a: int, m: int) -> np.ndarray:
    """The (c, a m b, a m b) stack whose entry ((i, p, r), (i', p', r')) is
    delta(p, p') x[(i, r), (i', r')], for the (c, a b, a b) stack ``x`` and
    i < a, p < m, r < b: each block of ``x`` repeated m times along a
    diagonal, interleaved after its first index (kron(I_m, x) for a = 1).
    A pure copy."""
    c, d, _ = x.shape
    b = d // a
    out = np.zeros((c, a, m, b, a, m, b), dtype=x.dtype)
    p = np.arange(m)
    out[:, :, p, :, :, p, :] = x.reshape(c, a, b, a, b)
    return out.reshape(c, a * m * b, a * m * b)


def _operator_grams(blocks: _Blocks) -> tuple[np.ndarray, np.ndarray]:
    """(T T*, T* T) as a (1, d, d) or (B, d, d) stack aligned with ``blocks.points``:
    the products of the operator's blocks, each repeated along the diagonal
    of a block of S (an entry map M gives kron(I_j, M M*) and kron(I_j, M* M);
    with j = 1 the products are the grams)."""
    t = blocks.op
    t_h = np.swapaxes(t.conj(), -1, -2)
    grams = t @ t_h, t_h @ t
    j = blocks.k.shape[-1] * blocks.n // t.shape[-1]
    if j == 1:
        return grams
    return tuple(_on_diagonal(gram, 1, j) for gram in grams)


@dataclass
class BoundsReport:
    """Existence flags and extremal constants of a frame inequality."""

    lower_exists: bool
    upper_exists: bool
    alpha_opt: Optional[float]
    beta_opt: Optional[float]
    tight: bool
    tolerance: float
    spectra: dict = field(default_factory=dict)
    cross_check: dict = field(default_factory=dict)
    spectrum_file: Optional[str] = None
    route: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "lower_exists": self.lower_exists,
            "upper_exists": self.upper_exists,
            "alpha_opt": self.alpha_opt,
            "beta_opt": self.beta_opt,
            "tight": self.tight,
            "tolerances": {"existence": self.tolerance, "kernel_rtol": KERNEL_RTOL},
            "cross_check": self.cross_check,
            "spectrum_file": self.spectrum_file,
            "route": self.route,
        }


def _tightness(alpha: Optional[float], beta: Optional[float], tol: float) -> bool:
    """Whether the constants agree to ``tol`` relative, at any scale of the windows."""
    if alpha is None or beta is None:
        return False
    return abs(beta - alpha) <= tol * abs(beta)


def ordinary_bounds(system, tol: float = DEFAULT_TOL) -> BoundsReport:
    """Extreme eigenvalues of the frame operator; frame iff the least one is positive.

    One build (see :func:`_frame_blocks`).  Each block of S is I_n (x) K, so
    its spectrum is that of K, each eigenvalue n times.  K blocks of 1 x 1
    and 2 x 2 take the closed form of :func:`gaborop.pencil._hermitian_eigvalsh`,
    with no LAPACK call, within a few ulps of the top eigenvalue of the
    block, the order of LAPACK's own error; larger K blocks take one
    ``eigvalsh``.  The report's ``route`` names the ``eigensolver``:
    ``closed_form`` or ``eigvalsh``."""
    blocks = _frame_blocks(system)
    solver = "closed_form" if blocks.k.shape[-1] <= CLOSED_FORM_DIM else "eigvalsh"
    eigs = np.repeat(_hermitian_eigvalsh(blocks.k), blocks.n, axis=-1)
    return _ordinary_report(eigs, {**blocks.to_json_dict(), "eigensolver": solver}, tol)


def _ordinary_report(eigs, route: dict, tol: float) -> BoundsReport:
    """The ordinary report from the eigenvalues of the frame operator (any
    order or block layout) and the route that produced them."""
    eigs = np.sort(eigs, axis=None)
    alpha = float(eigs[0])
    beta = float(eigs[-1])
    lower = alpha > tol * beta
    return BoundsReport(
        lower_exists=lower,
        upper_exists=True,
        alpha_opt=alpha,
        beta_opt=beta,
        tight=lower and _tightness(alpha, beta, tol),
        tolerance=tol,
        spectra={"frame_operator": eigs.tolist()},
        route=route,
    )


def theta_bounds(system, theta: SpaceOperator, tol: float = DEFAULT_TOL) -> BoundsReport:
    """Extremal constants of the operator-controlled two-sided inequality.

    The closed-form constants of :func:`gaborop.pencil.solve_pencils` are
    reported and repeated in ``cross_check`` (``alpha_pinv``/``beta_pinv``)
    beside their residual certificates (``alpha_certificate``/...).  Both
    sides solve for the least c with c by - other >= 0, beta = c on
    (T* T, S) and alpha = 1 / c on (S, T T*); so each certificate reads its
    pencil in that form, beta T* T - S and (1/alpha) S - T T*, the lower
    pencil divided by alpha.  ``route`` says whether the coset blocks or the
    dense matrix were solved, and its ``reason`` why the operator took that
    route.
    """
    return _theta_report(_frame_blocks(system, theta), tol)


def _controlled(system, theta: SpaceOperator,
                tol: float) -> tuple[OperatorDiagnostics, BoundsReport]:
    """The diagnostics of ``theta`` and the controlled report of ``system``
    under it, from one build of the blocks: one SVD of the operator's blocks
    and one pencil solve."""
    blocks = _frame_blocks(system, theta)
    return _diagnostics(theta, blocks.op, tol), _theta_report(blocks, tol)


def _theta_report(blocks: _Blocks, tol: float) -> BoundsReport:
    """The controlled report on ``blocks``, built with the operator."""
    # T T* controls the lower side, T* T the upper side
    sol = solve_pencils(blocks.s, *_operator_grams(blocks), tol)
    cross: dict = {}
    for name, value in (("alpha", sol.alpha), ("beta", sol.beta)):
        if value is not None:
            cross[f"{name}_pinv"] = value
            cross[f"{name}_certificate"] = sol.certificates[name]
    return BoundsReport(
        lower_exists=sol.lower_exists,
        upper_exists=sol.upper_exists,
        alpha_opt=sol.alpha,
        beta_opt=sol.beta,
        tight=sol.lower_exists and sol.upper_exists and _tightness(sol.alpha, sol.beta, tol),
        tolerance=tol,
        spectra={"frame_operator": sol.spectrum},
        cross_check=cross,
        route={**blocks.to_json_dict(), "reason": blocks.reason},
    )


def valid_bounds(report: BoundsReport, lower: float, upper: float,
                 tol: float = DEFAULT_TOL) -> tuple[bool, bool]:
    """(lower_valid, upper_valid): whether ``lower`` and ``upper`` are a lower and
    an upper bound for the system ``report`` describes, to ``tol * |upper|``."""
    slack = tol * abs(upper)
    lower_valid = report.lower_exists and (
        report.alpha_opt is None or lower <= report.alpha_opt + slack
    )
    upper_valid = report.upper_exists and upper >= (report.beta_opt or 0.0) - slack
    return lower_valid, upper_valid


@dataclass(frozen=True)
class PromotionResult:
    """Bounds predicted for a frame under a bounded-below operator, beside the
    ordinary and controlled reports and the operator diagnostics they rest on.
    The reports are always set; the predictions only when the hypothesis holds."""

    hypothesis_ok: bool
    reason: str
    ordinary: BoundsReport
    controlled: BoundsReport
    operator: OperatorDiagnostics
    predicted_lower: Optional[float] = None
    predicted_upper: Optional[float] = None
    lower_valid: Optional[bool] = None
    upper_valid: Optional[bool] = None


def bounded_below_promotion(system, theta: SpaceOperator,
                            tol: float = DEFAULT_TOL) -> PromotionResult:
    """Predicted operator-controlled bounds for an ordinary frame.

    For a frame with bounds (gamma, delta) and an operator bounded below by
    sigma, (gamma / ||adjoint(T)||^2, delta / sigma^2) are valid controlled
    bounds; when sigma > tol ||T|| and the system is a frame, both predictions
    are checked against the computed extremal ones.  The reports are made
    either way, from one build, one SVD of the operator's blocks and one solve.
    """
    operator, controlled = _controlled(system, theta, tol)
    # S is decomposed once: the ordinary report reads the controlled report's
    # spectrum, on its route less the operator's reason, from the pencil's eigh of S
    route = {key: value for key, value in controlled.route.items() if key != "reason"}
    ordinary = _ordinary_report(controlled.spectra["frame_operator"],
                                {**route, "eigensolver": "pencil_eigh"}, tol)
    # ||adjoint(T)|| = ||T||, and sigma is the lower bound of T
    norm, sigma = operator.operator_norm, operator.lower_bound
    reports = dict(ordinary=ordinary, controlled=controlled, operator=operator)
    if sigma <= tol * norm:
        return PromotionResult(False, "operator is not bounded below", **reports)
    if not ordinary.lower_exists:
        return PromotionResult(False, "system is not an ordinary frame", **reports)
    predicted_lower = ordinary.alpha_opt / (norm * norm)
    predicted_upper = ordinary.beta_opt / (sigma * sigma)
    lower_valid, upper_valid = valid_bounds(controlled, predicted_lower, predicted_upper, tol)
    return PromotionResult(True, "ok", **reports, predicted_lower=predicted_lower,
                           predicted_upper=predicted_upper, lower_valid=lower_valid,
                           upper_valid=upper_valid)
