"""Bounded linear operators on a matrix-signal space.

Two representations are supported:

* ``entry_map``: an n^2 x n^2 matrix L applied to the row-major vectorised
  matrix value at every group point (the same L at each point);
* ``dense``: a full (|G| n^2) x (|G| n^2) matrix on the flattened space.

Flattened coordinates carry a sqrt(w) scale so that the Euclidean inner
product equals the trace inner product; adjoints with respect to the trace
pairing are therefore plain conjugate transposes in either representation.

Finite-dimensionality note: a hyponormal operator on a finite-dimensional
space is automatically normal (the self-commutator is PSD with zero trace,
hence zero).  The hyponormality checker still performs the PSD test on
adjoint(T) @ T - T @ adjoint(T); genuinely hyponormal-but-not-normal
operators require an infinite-dimensional space and cannot occur here.

Tolerance rule (every check in the package, with ``DEFAULT_TOL`` below as
the default ``tol``): a residual is negligible when it is at most ``tol``
times the norm of the quantities it is built from, so no verdict moves when
windows or operators are rescaled.  A commutator ab - ba is measured against
||a|| ||b||, a self-commutator against ||T||^2, an entrywise comparison
against the largest entry compared, and a PSD margin against the top
eigenvalue of the matrix it is taken on.  Operator norms of entry maps are
taken on the n^2 x n^2 matrix, never on the dense expansion, and the norm
and the lower bound of an operator come from one SVD of its matrix or of the
stack of its diagonal blocks (:func:`_norm_and_lower_bound`).  A kernel is
split off at ``KERNEL_RTOL`` below: the eigenvalues (or singular values) at
most that times the top one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupMismatchError
from .signals import MatrixSignal, SignalSpace

__all__ = [
    "SpaceOperator",
    "OperatorDiagnostics",
    "adjoint",
    "compose",
    "commutes",
    "operator_norm",
    "lower_bound_constant",
    "is_hyponormal",
    "is_mv_adjointable",
    "is_hyponormal_on_range",
    "diagnostics",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-9  # the ``tol`` of the tolerance rule in the module docstring
KERNEL_RTOL = 1e-9  # eigenvalues and singular values at most this times the top are kernel


class SpaceOperator:
    """Linear operator on the matrix-signal space over a fixed group."""

    __slots__ = ("space", "kind", "entry_matrix", "dense_matrix", "nonzeros")

    def __init__(self, space: SignalSpace, *, entry_matrix=None, dense_matrix=None):
        if (entry_matrix is None) == (dense_matrix is None):
            raise ValueError("provide exactly one of entry_matrix, dense_matrix")
        self.space = space
        n2 = space.n * space.n
        if entry_matrix is not None:
            arr = np.asarray(entry_matrix, dtype=np.complex128)
            if arr.shape != (n2, n2):
                raise ValueError(f"entry map must be {n2}x{n2}, got {arr.shape}")
            self.kind = "entry_map"
            self.entry_matrix = arr.copy()
            self.entry_matrix.flags.writeable = False
            self.dense_matrix = None
        else:
            arr = np.asarray(dense_matrix, dtype=np.complex128)
            if arr.shape != (space.dim, space.dim):
                raise ValueError(f"dense matrix must be {space.dim}x{space.dim}, got {arr.shape}")
            self.kind = "dense"
            self.entry_matrix = None
            self.dense_matrix = arr.copy()
            self.dense_matrix.flags.writeable = False
        # the matrix is read-only, so its nonzero count is taken once
        self.nonzeros = int(np.count_nonzero(self._rep()))

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_entry_map(cls, space: SignalSpace, matrix) -> "SpaceOperator":
        return cls(space, entry_matrix=matrix)

    @classmethod
    def from_dense(cls, space: SignalSpace, matrix) -> "SpaceOperator":
        return cls(space, dense_matrix=matrix)

    @classmethod
    def identity(cls, space: SignalSpace) -> "SpaceOperator":
        return cls(space, entry_matrix=np.eye(space.n * space.n))

    @classmethod
    def zero(cls, space: SignalSpace) -> "SpaceOperator":
        return cls(space, entry_matrix=np.zeros((space.n * space.n,) * 2))

    @classmethod
    def right_multiplication(cls, space: SignalSpace, matrix) -> "SpaceOperator":
        """Pointwise f(x) -> f(x) @ M; always adjointable for the matrix pairing."""
        m = np.asarray(matrix, dtype=np.complex128)
        return cls(space, entry_matrix=np.kron(np.eye(space.n), m.T))

    # ---- core actions --------------------------------------------------

    def apply(self, f: MatrixSignal) -> MatrixSignal:
        if f.space != self.space or f.dual:
            raise GroupMismatchError("signal does not live in this operator's space")
        return MatrixSignal(self.space, self.apply_array(f.values))

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Images of a stack of signal values, shape (..., |G|, n, n), in one product."""
        shape = values.shape
        if self.kind == "entry_map":
            flat = values.reshape(shape[:-2] + (self.space.n * self.space.n,))
            return (flat @ self.entry_matrix.T).reshape(shape)
        # the sqrt(w) scale of flattened coordinates cancels
        flat = values.reshape(shape[:-3] + (self.space.dim,))
        return (flat @ self.dense_matrix.T).reshape(shape)

    def __call__(self, f: MatrixSignal) -> MatrixSignal:
        return self.apply(f)

    def to_dense(self) -> np.ndarray:
        """Matrix of the operator in flattened coordinates."""
        if self.kind == "dense":
            return self.dense_matrix
        return np.kron(np.eye(self.space.group.order), self.entry_matrix)

    def adjoint(self) -> "SpaceOperator":
        """Adjoint with respect to the trace inner product."""
        if self.kind == "entry_map":
            return SpaceOperator(self.space, entry_matrix=self.entry_matrix.conj().T)
        return SpaceOperator(self.space, dense_matrix=self.dense_matrix.conj().T)

    def _rep(self) -> np.ndarray:
        """Smallest matrix carrying the spectral data (entry map or dense)."""
        return self.entry_matrix if self.kind == "entry_map" else self.dense_matrix

    def __repr__(self):
        return f"<{self.kind} operator on {self.space.n}x{self.space.n} signals over {self.space.group!r}>"


def adjoint(op: SpaceOperator) -> SpaceOperator:
    return op.adjoint()


def _pair(a: SpaceOperator, b: SpaceOperator) -> tuple[str, np.ndarray, np.ndarray]:
    """(constructor keyword, a, b): the entry matrices when both are entry maps
    (each is kron(I_|G|, M), so products, commutators and ranges split), else dense."""
    if a.space != b.space:
        raise GroupMismatchError("operators act on different spaces")
    if a.kind == b.kind == "entry_map":
        return "entry_matrix", a.entry_matrix, b.entry_matrix
    return "dense_matrix", a.to_dense(), b.to_dense()


def compose(outer: SpaceOperator, inner: SpaceOperator) -> SpaceOperator:
    """The operator f -> outer(inner(f))."""
    kind, om, im = _pair(outer, inner)
    return SpaceOperator(outer.space, **{kind: om @ im})


def commutes(a: SpaceOperator, b: SpaceOperator, tol: float = DEFAULT_TOL) -> bool:
    """Whether ||ab - ba|| <= tol ||a|| ||b|| in operator norm."""
    _, am, bm = _pair(a, b)
    residual = float(np.linalg.norm(am @ bm - bm @ am, ord=2))
    return residual <= tol * operator_norm(a) * operator_norm(b)


def operator_norm(op: SpaceOperator) -> float:
    """Largest singular value (the entry map and its dense expansion agree)."""
    return _norm_and_lower_bound(op._rep())[0]


def lower_bound_constant(op: SpaceOperator) -> float:
    """Smallest singular value: the best m with ||T f|| >= m ||f||."""
    return _norm_and_lower_bound(op._rep())[1]


def _norm_and_lower_bound(blocks: np.ndarray) -> tuple[float, float]:
    """(||T||, the best m with ||T f|| >= m ||f||) from one SVD of the matrix of T
    or of the stack of its diagonal blocks (any block may repeat): the largest
    singular value over the blocks and the smallest.  Both equal those of the
    adjoint, so it is never formed."""
    sv = np.linalg.svd(blocks, compute_uv=False)
    return float(sv[..., 0].max()), float(sv[..., -1].min())


def _self_commutator(m: np.ndarray) -> np.ndarray:
    """M* M - M M* of a matrix or of each matrix in a stack."""
    m_h = np.swapaxes(m.conj(), -1, -2)
    return m_h @ m - m @ m_h


def is_hyponormal(op: SpaceOperator, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """PSD test on adjoint(T) T - T adjoint(T); returns (flag, min eigenvalue).

    Equivalent to ||adjoint(T) f|| <= ||T f|| for every signal.
    """
    return _hyponormal(op._rep(), operator_norm(op), tol)


def _hyponormal(blocks: np.ndarray, norm: float, tol: float) -> tuple[bool, float]:
    """:func:`is_hyponormal` of the operator with the diagonal ``blocks`` (one
    matrix or a stack) and the operator norm already known."""
    min_eig = float(np.linalg.eigvalsh(_self_commutator(blocks))[..., 0].min())
    return min_eig >= -tol * norm ** 2, min_eig


def is_hyponormal_on_range(op: SpaceOperator, range_of: SpaceOperator,
                           tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Hyponormality of ``op`` compressed to the range of ``range_of``.

    Implemented as the PSD test on Q^* (T^*T - TT^*) Q where the columns of
    Q span Ran(range_of).  The restriction-to-an-invariant-subspace reading
    is not used; this compression is the documented interpretation.  Two
    entry maps are tested on their n^2 x n^2 matrices (both split off I_|G|).
    """
    _, k, m = _pair(op, range_of)
    u, s, _ = np.linalg.svd(m)
    cutoff = (s[0] * KERNEL_RTOL) if s.size and s[0] > 0 else np.inf
    q = u[:, s > cutoff]
    if q.shape[1] == 0:
        return True, 0.0  # zero range: nothing to violate
    comm = k.conj().T @ k - k @ k.conj().T
    restricted = q.conj().T @ comm @ q
    min_eig = float(np.linalg.eigvalsh(restricted)[0])
    return min_eig >= -tol * operator_norm(op) ** 2, min_eig


def is_mv_adjointable(op: SpaceOperator, tol: float = DEFAULT_TOL) -> bool:
    """Whether the trace adjoint also serves as a matrix-pairing adjoint.

    Checking mv_inner(T e_i, e_j) == mv_inner(e_i, adjoint(T) e_j) over the
    matrix units at single points (which settles it for all signals by
    sesquilinearity) says that T acts by right multiplication: six-indexed
    as M[z, p, d, y, a, b] (output point and entry, input point and entry),
    M = delta(p, a) R[z, d, y, b].  So the entries with p != a and the
    pairwise spread over p of the entries with p == a must all be at most
    ``tol * max|M|``.  An entry map is the one-point case.
    """
    return _mv_adjointable(op._rep(), op.space.n, tol)


def _mv_adjointable(blocks: np.ndarray, n: int, tol: float) -> bool:
    """:func:`is_mv_adjointable` of the operator with the diagonal ``blocks`` (one
    matrix or a stack), each indexed (point, entry) on both sides.  An operator
    that vanishes off its blocks meets the test there, so it is exact."""
    points = blocks.shape[-1] // (n * n)
    m7 = blocks.reshape(-1, points, n, n, points, n, n)  # [block, z, p, d, y, a, b]
    off_diagonal = np.abs(m7 * (1.0 - np.eye(n))[:, None, None, :, None]).max()
    diagonal = np.diagonal(m7, axis1=2, axis2=5)  # [block, z, d, y, b, p]
    spread = np.abs(diagonal[..., :, None] - diagonal[..., None, :]).max()
    return bool(max(off_diagonal, spread) <= tol * float(np.abs(blocks).max()))


@dataclass(frozen=True)
class OperatorDiagnostics:
    """Spectral and structural facts about one operator."""

    operator_norm: float
    lower_bound: float
    is_hyponormal: bool
    is_mv_adjointable: bool
    self_commutator_min_eig: float


def diagnostics(op: SpaceOperator, tol: float = DEFAULT_TOL) -> OperatorDiagnostics:
    return _diagnostics(op, op._rep(), tol)


def _diagnostics(op: SpaceOperator, blocks: np.ndarray, tol: float) -> OperatorDiagnostics:
    """:func:`diagnostics` from the diagonal blocks of ``op``, one matrix or a
    stack (any block may repeat): singular values and self-commutator spectra are
    those of the blocks, so the norm is their max over the blocks, the lower
    bound and the least self-commutator eigenvalue their min."""
    norm, lower = _norm_and_lower_bound(blocks)
    hypo, min_eig = _hyponormal(blocks, norm, tol)
    return OperatorDiagnostics(
        operator_norm=norm,
        lower_bound=lower,
        is_hyponormal=hypo,
        is_mv_adjointable=_mv_adjointable(blocks, op.space.n, tol),
        self_commutator_min_eig=min_eig,
    )
