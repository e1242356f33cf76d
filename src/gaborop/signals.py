"""Matrix-valued signals on a finite abelian group.

A signal assigns an n x n complex matrix to every group element.  The space
carries the matrix-valued pairing ``mv_inner(f, g) = w * sum_x f(x) g(x)^*``
(an n x n matrix), whose trace is the genuine Hilbert-space inner product and
generates the Frobenius norm.

Signals are stored densely as (|G|, n, n) arrays in canonical element order
and are immutable; translation and modulation are isometries of the space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (
    DualElement,
    FiniteAbelianGroup,
    GroupElement,
    GroupMismatchError,
    MeasurePair,
    _characters,
    _coordinates,
    _positions,
)

__all__ = [
    "SignalSpace",
    "MatrixSignal",
    "mv_inner",
    "trace_inner",
    "frobenius_norm",
    "translate",
    "modulate",
]


@dataclass(frozen=True)
class SignalSpace:
    """The space of n x n matrix signals on a group with a fixed measure."""

    group: FiniteAbelianGroup
    n: int
    measure: MeasurePair

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix dimension must be >= 1")
        if self.measure.order != self.group.order:
            raise GroupMismatchError("measure normalised for a different group order")

    @classmethod
    def create(cls, group: FiniteAbelianGroup, n: int = 1, measure: MeasurePair | None = None):
        return cls(group, n, measure or MeasurePair.torus_like(group))

    @property
    def dim(self) -> int:
        """Complex dimension |G| * n^2 of the space."""
        return self.group.order * self.n * self.n

    def weight(self, dual: bool = False) -> float:
        return self.measure.w_dual if dual else self.measure.w_group

    def zero_signal(self, dual: bool = False) -> "MatrixSignal":
        return MatrixSignal(
            self, np.zeros((self.group.order, self.n, self.n), dtype=np.complex128), dual=dual
        )

    def basis_signals(self):
        """Orthonormal basis: matrix units at single points, scaled 1/sqrt(w)."""
        w = self.weight()
        scale = 1.0 / np.sqrt(w)
        for xi in range(self.group.order):
            for i in range(self.n):
                for j in range(self.n):
                    values = np.zeros((self.group.order, self.n, self.n), dtype=np.complex128)
                    values[xi, i, j] = scale
                    yield MatrixSignal(self, values)

    def from_scalars(self, entries) -> "MatrixSignal":
        """Assemble a matrix signal from an n x n grid of scalar signals.

        Entries may be scalar (n=1) MatrixSignal instances, arrays of length
        |G|, or 0 for an identically-zero component.
        """
        values = np.zeros((self.group.order, self.n, self.n), dtype=np.complex128)
        for i in range(self.n):
            for j in range(self.n):
                e = entries[i][j]
                if isinstance(e, MatrixSignal):
                    if e.space.n != 1 or e.space.group != self.group:
                        raise GroupMismatchError("component signal does not fit this space")
                    values[:, i, j] = e.values[:, 0, 0]
                elif isinstance(e, np.ndarray):
                    values[:, i, j] = e
                elif e is not None and e != 0:
                    raise TypeError(f"unsupported entry {e!r}")
        return MatrixSignal(self, values)


class MatrixSignal:
    """A function from the group (or its dual) to n x n complex matrices."""

    __slots__ = ("space", "values", "dual")

    def __init__(self, space: SignalSpace, values, dual: bool = False):
        arr = np.asarray(values, dtype=np.complex128)
        expected = (space.group.order, space.n, space.n)
        if arr.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        self.space = space
        self.values = arr
        self.dual = bool(dual)

    def _check_mate(self, other: "MatrixSignal"):
        if self.space != other.space or self.dual != other.dual:
            raise GroupMismatchError("signals live in different spaces")

    def __add__(self, other):
        self._check_mate(other)
        return MatrixSignal(self.space, self.values + other.values, dual=self.dual)

    def __sub__(self, other):
        self._check_mate(other)
        return MatrixSignal(self.space, self.values - other.values, dual=self.dual)

    def __mul__(self, scalar):
        return MatrixSignal(self.space, self.values * complex(scalar), dual=self.dual)

    __rmul__ = __mul__

    def flatten(self) -> np.ndarray:
        """Coordinates (element order x row-major entries), scaled by sqrt(w).

        With this scaling the flat Euclidean inner product equals
        ``trace_inner``, so operator adjoints are plain conjugate transposes.
        """
        w = self.space.weight(self.dual)
        return np.sqrt(w) * self.values.reshape(-1)

    @classmethod
    def from_flat(cls, space: SignalSpace, flat, dual: bool = False) -> "MatrixSignal":
        w = space.weight(dual)
        arr = np.asarray(flat, dtype=np.complex128).reshape(space.group.order, space.n, space.n)
        return cls(space, arr / np.sqrt(w), dual=dual)

    def __repr__(self):
        side = "dual" if self.dual else "primal"
        return f"<{self.space.n}x{self.space.n} signal on {self.space.group!r} ({side})>"


def mv_inner(f: MatrixSignal, g: MatrixSignal) -> np.ndarray:
    """Matrix-valued pairing ``w * sum_x f(x) g(x)^*`` (an n x n matrix).

    Linear in ``f``, conjugate-linear in ``g``; ``mv_inner(g, f)`` is the
    conjugate transpose of ``mv_inner(f, g)`` and ``mv_inner(f, f)`` is
    positive semidefinite Hermitian.
    """
    f._check_mate(g)
    w = f.space.weight(f.dual)
    return w * np.einsum("xir,xjr->ij", f.values, np.conj(g.values))


def trace_inner(f: MatrixSignal, g: MatrixSignal) -> complex:
    """Trace of the matrix-valued pairing: the Hilbert inner product."""
    f._check_mate(g)
    w = f.space.weight(f.dual)
    return w * complex(np.vdot(g.values, f.values))  # vdot conjugates its first arg


def frobenius_norm(f: MatrixSignal) -> float:
    """Norm with ``frobenius_norm(f)**2 == trace_inner(f, f)``."""
    w = f.space.weight(f.dual)
    return float(np.sqrt(w) * np.linalg.norm(f.values))


def translate(f: MatrixSignal, a) -> MatrixSignal:
    """Shift x -> f(x - a); an isometry."""
    expected = DualElement if f.dual else GroupElement
    if not isinstance(a, expected) or a.group != f.space.group:
        raise GroupMismatchError("translation amount lives on the wrong side")
    source = _positions(a.group, _coordinates(a.group) - a.coords)  # x - a
    return MatrixSignal(f.space, f.values[source], dual=f.dual)


def modulate(f: MatrixSignal, eta) -> MatrixSignal:
    """Pointwise multiply by the character labelled ``eta``; an isometry.

    For a primal signal ``eta`` is a dual element (x -> eta(x) f(x)); for a
    dual-side signal the roles swap.
    """
    expected = GroupElement if f.dual else DualElement
    if not isinstance(eta, expected) or eta.group != f.space.group:
        raise GroupMismatchError("modulation label lives on the wrong side")
    group = f.space.group
    phases = _characters(group, eta.coords, _coordinates(group))
    return MatrixSignal(f.space, phases[:, None, None] * f.values, dual=f.dual)
