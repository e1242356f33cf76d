"""Finite abelian group arithmetic: elements, characters, subgroups, duality.

Groups are finite products of cyclic groups Z_{N1} x ... x Z_{Nd}, written
additively.  The dual group is identified with the group itself through the
pairing (gamma, x) -> exp(2*pi*i * sum_i gamma_i x_i / N_i); primal and dual
elements are kept as distinct types so that they cannot be mixed by accident.

Every value is immutable after construction and every operation is pure, so
concurrent reads are safe.  The caches (element coordinates per group, coset
minima per generator list, identity automorphisms per group and side) are
bounded ``functools.lru_cache`` tables of read-only values: a hit hands
every caller the same object, which none can write, so all can share it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "GroupMismatchError",
    "FiniteAbelianGroup",
    "GroupElement",
    "DualElement",
    "Subgroup",
    "Automorphism",
    "MeasurePair",
    "character_value",
    "annihilator",
    "intersection",
    "transversal",
    "apply_automorphism",
    "fourier",
    "inverse_fourier",
]


class GroupMismatchError(ValueError):
    """Raised when elements of different groups (or sides) are combined."""


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups with factor orders ``factors``.

    The dual group has the same factor list (finite abelian self-duality);
    dual elements are represented by :class:`DualElement` over the same
    group object.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(n) for n in self.factors)
        if not factors or any(n < 1 for n in factors):
            raise ValueError(f"factors must be positive integers, got {self.factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def dual_element(self, coords: Sequence[int]) -> "DualElement":
        return DualElement(self, tuple(coords))

    def zero(self) -> "GroupElement":
        return self.element((0,) * self.rank)

    def dual_zero(self) -> "DualElement":
        return self.dual_element((0,) * self.rank)

    def elements(self) -> Iterator["GroupElement"]:
        """All elements in canonical (lexicographic coordinate) order."""
        return map(self.element, _coordinates(self).tolist())

    def dual_elements(self) -> Iterator["DualElement"]:
        return map(self.dual_element, _coordinates(self).tolist())

    def index_of(self, elem: "_Element") -> int:
        """Position of ``elem`` in canonical order (mixed-radix value)."""
        return int(_positions(self, elem.coords))

    def __repr__(self):
        return "Z" + "xZ".join(str(n) for n in self.factors)


class _Element:
    """Shared coordinate arithmetic for primal and dual elements."""

    __slots__ = ("group", "coords")

    def __init__(self, group: FiniteAbelianGroup, coords: tuple[int, ...]):
        if len(coords) != group.rank:
            raise GroupMismatchError(
                f"expected {group.rank} coordinates, got {len(coords)}"
            )
        self.group = group
        self.coords = tuple(c % n for c, n in zip(coords, group.factors))

    def _check(self, other: "_Element"):
        if type(self) is not type(other) or self.group != other.group:
            raise GroupMismatchError(f"cannot combine {self!r} and {other!r}")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.group, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return type(self)(self.group, tuple(-a for a in self.coords))

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.group == other.group
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((type(self).__name__, self.group.factors, self.coords))

    def __lt__(self, other):
        self._check(other)
        return self.coords < other.coords

    @property
    def index(self) -> int:
        return self.group.index_of(self)

    def __repr__(self):
        tag = "dual " if isinstance(self, DualElement) else ""
        return f"<{tag}{self.coords} in {self.group!r}>"


class GroupElement(_Element):
    """Element of G, coordinates stored in canonical range [0, N_i)."""


class DualElement(_Element):
    """Character label in the dual group, same coordinate conventions."""


def character_value(gamma: DualElement, x: GroupElement) -> complex:
    """Value of the character labelled ``gamma`` at ``x`` (unit modulus).

    Equals exp(2*pi*i * sum_i gamma_i x_i / N_i).
    """
    if not isinstance(gamma, DualElement) or not isinstance(x, GroupElement):
        raise GroupMismatchError("character_value expects (DualElement, GroupElement)")
    if gamma.group != x.group:
        raise GroupMismatchError("character and point belong to different groups")
    return complex(_characters(gamma.group, gamma.coords, x.coords))


@functools.lru_cache(maxsize=16)
def _coordinates(group: FiniteAbelianGroup) -> np.ndarray:
    """Coordinates of every element in canonical order, shape (|G|, rank),
    read-only and kept for the last few groups."""
    coords = np.indices(group.factors).reshape(group.rank, -1).T
    coords.flags.writeable = False
    return coords


def _characters(group: FiniteAbelianGroup, gamma, x) -> np.ndarray:
    """Character values over integer coordinate arrays (coordinate axis last).

    ``gamma`` and ``x`` broadcast against each other.  The phase is the exact
    integer :func:`_pairing`, so a trivial pairing gives exactly 1 and no
    other pairing does.
    """
    return np.exp(2j * np.pi * _pairing(group, gamma, x) / math.lcm(*group.factors))


def _pairing(group: FiniteAbelianGroup, gamma, x) -> np.ndarray:
    """The exact phase integer k = sum_i gamma_i x_i (L / N_i) mod L of the
    character values, L the lcm of the factors; k == 0 iff the pairing is trivial."""
    factors = np.asarray(group.factors, dtype=np.int64)
    lcm = math.lcm(*group.factors)
    prod = np.asarray(gamma, dtype=np.int64) * np.asarray(x, dtype=np.int64) % factors
    return (prod * (lcm // factors)).sum(axis=-1) % lcm


class Subgroup:
    """Subgroup stored as ``coords``, the (order, rank) array of its members in
    canonical order.  Members are all :class:`GroupElement` or all
    :class:`DualElement`; the ``dual`` flag records which side it lives on.
    ``least`` labels the cosets: the least canonical position in the coset of
    each point.  A caller that has them from the generators (see
    :func:`_coset_minima`) passes them in.
    """

    def __init__(
        self,
        group: FiniteAbelianGroup,
        generators: Sequence[_Element],
        dual: bool | None = None,
        least: np.ndarray | None = None,
    ):
        kinds = {type(g) for g in generators}
        if len(kinds) > 1:
            raise GroupMismatchError("generators mix primal and dual elements")
        for g in generators:
            if g.group != group:
                raise GroupMismatchError("generator belongs to a different group")
        inferred = bool(generators) and kinds.pop() is DualElement
        if generators and dual is not None and dual != inferred:
            raise GroupMismatchError("dual flag contradicts the generators' side")
        self.group = group
        self.dual = inferred if generators else bool(dual)
        self.generators = tuple(generators)
        if least is None:
            least = _span_minima(group, tuple(g.coords for g in generators))
        self.least = least
        self.least.flags.writeable = False
        # the span is the coset of 0: the points whose least coset member is 0
        self.coords = _coordinates(group)[least == 0]
        self.coords.flags.writeable = False
        if group.order % len(self.coords) != 0:
            raise AssertionError("subgroup order does not divide group order")

    @property
    def members(self) -> tuple[_Element, ...]:
        side = DualElement if self.dual else GroupElement
        return tuple(side(self.group, tuple(c)) for c in self.coords.tolist())

    @classmethod
    def full(cls, group: FiniteAbelianGroup, dual: bool = False) -> "Subgroup":
        make = group.dual_element if dual else group.element
        units = np.eye(group.rank, dtype=np.int64).tolist()
        return cls(group, [make(u) for u, n in zip(units, group.factors) if n > 1], dual=dual)

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup, dual: bool = False) -> "Subgroup":
        return cls(group, (), dual=dual)

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, elem):
        side = DualElement if self.dual else GroupElement
        return (isinstance(elem, side) and elem.group == self.group
                and bool((self.coords == elem.coords).all(axis=1).any()))

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self.dual == other.dual
            # one group fixes the rank, so equal bytes are equal members, as in the hash
            and self.coords.tobytes() == other.coords.tobytes()
        )

    def __hash__(self):
        return hash((self.group.factors, self.dual, self.coords.tobytes()))

    def __repr__(self):
        side = "dual " if self.dual else ""
        return f"<{side}subgroup of {self.group!r}, order {len(self)}>"


def _positions(group: FiniteAbelianGroup, coords) -> np.ndarray:
    """Canonical positions of integer coordinates (coordinate axis last), taken mod the factors."""
    coords = np.asarray(coords)
    axes = tuple(coords[..., i] for i in range(group.rank))
    return np.ravel_multi_index(axes, group.factors, mode="wrap")


def _coset_minima(group: FiniteAbelianGroup, shifts, least=None) -> np.ndarray:
    """For every point x, the least canonical position in x + <shifts>, starting
    from ``least`` (the minima over a smaller subgroup) when given.  Each shift s
    is folded in by doubling: after j rounds the minimum runs over x + {0, s, ...,
    (2^j - 1) s}, and a round that changes nothing has reached x + <s>, so a
    shift of order r costs about log2(r) rounds of |G|-sized work."""
    least = np.arange(group.order) if least is None else least
    for shift in shifts:
        step = _positions(group, _coordinates(group) + shift)  # x -> x + shift
        while True:
            nxt = np.minimum(least, least[step])
            if (nxt == least).all():
                break
            least, step = nxt, step[step]  # x -> x + 2 * shift
    return least


@functools.lru_cache(maxsize=64)
def _span_minima(group: FiniteAbelianGroup, shifts: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """:func:`_coset_minima` of the span of ``shifts``, read-only and kept for
    the last few generator lists (8 |G| bytes each)."""
    least = _coset_minima(group, shifts)
    least.flags.writeable = False
    return least


def _cosets(subgroup: Subgroup, inner: Subgroup | None = None) -> np.ndarray:
    """Canonical positions of the points of every coset, shape (B, |subgroup|):
    a stable sort of the exact labels "least position in the coset" lists the
    cosets by their least member, each row in canonical order.

    Given ``inner``, a subgroup of ``subgroup``, each row instead lists the
    cosets of ``inner`` it holds, by least member, each as that member plus
    the members of ``inner`` in canonical order: row b is t_bj + h over
    (j, h).  A trivial ``inner`` gives the canonical rows."""
    least = subgroup.least
    if inner is None:
        return np.argsort(least, kind="stable").reshape(-1, len(subgroup))
    reps = _cosets(inner)[:, 0]  # ascending, so each row's stays ascending
    reps = reps[np.argsort(least[reps], kind="stable")]
    coords = _coordinates(subgroup.group)[reps][:, None, :] + inner.coords
    return _positions(subgroup.group, coords).reshape(-1, len(subgroup))


def annihilator(lattice: Subgroup) -> Subgroup:
    """Characters (resp. points) pairing trivially with every member.

    For a primal subgroup the result is the dual-side annihilator and vice
    versa; |lattice| * |annihilator| = |G| always.  The result is generated
    by at most log2|G| elements.
    """
    group = lattice.group
    coords = _coordinates(group)
    trivial = np.ones(group.order, dtype=bool)
    for g in lattice.generators:  # trivial on the subgroup iff trivial on its generators
        trivial &= _pairing(group, coords, g.coords) == 0
    result = _subgroup_of(group, trivial, not lattice.dual)
    assert len(lattice) * len(result) == group.order
    return result


def intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    """The members common to two subgroups on the same side of one group,
    generated by at most log2|G| of them."""
    if a.group != b.group or a.dual != b.dual:
        raise GroupMismatchError("subgroups of different groups or sides")
    in_a, in_b = np.zeros((2, a.group.order), dtype=bool)
    in_a[_positions(a.group, a.coords)] = True
    in_b[_positions(b.group, b.coords)] = True
    return _subgroup_of(a.group, in_a & in_b, a.dual)


def _subgroup_of(group: FiniteAbelianGroup, members: np.ndarray, dual: bool) -> Subgroup:
    """The subgroup whose canonical positions ``members`` marks (a |G|-sized
    mask closed under the group law), on the given side.  Each generator is
    taken outside the span so far, so it at least doubles it."""
    coords = _coordinates(group)
    gens, least = [], np.arange(group.order)
    while (outside := members & (least != 0)).any():
        gens.append(tuple(coords[outside.argmax()].tolist()))
        least = _coset_minima(group, gens[-1:], least)
    side = DualElement if dual else GroupElement
    return Subgroup(group, [side(group, c) for c in gens], dual=dual, least=least)


def _subgroup_characters(subgroup: Subgroup) -> np.ndarray:
    """The characters of ``subgroup`` as a (|subgroup|, |subgroup|) table:
    row i is the character labelled by the least member of the i-th coset of
    the annihilator (distinct cosets restrict to distinct characters), column
    j its value at the j-th member in canonical order."""
    group = subgroup.group
    labels = _coordinates(group)[_cosets(annihilator(subgroup))[:, 0]]
    return _characters(group, labels[:, None, :], subgroup.coords[None, :, :])


def transversal(subgroup: Subgroup) -> tuple[_Element, ...]:
    """Coset representatives, lexicographically smallest per coset.

    The returned list V satisfies: the translates {w + V : w in subgroup}
    partition the ambient (primal or dual) group.
    """
    group = subgroup.group
    side = DualElement if subgroup.dual else GroupElement
    reps = _coordinates(group)[_cosets(subgroup)[:, 0]]
    return tuple(side(group, tuple(c)) for c in reps.tolist())


class Automorphism:
    """Group automorphism given by an integer matrix acting on coordinates.

    For a single cyclic factor this is multiplication by a unit u with
    gcd(u, N) = 1.  A matrix that is not well defined on the factors or not
    one to one on the group's coordinates is rejected.
    """

    def __init__(self, group: FiniteAbelianGroup, matrix, dual: bool = False):
        arr = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
        if arr.shape != (group.rank, group.rank):
            # allow a flat list of per-factor multipliers
            flat = np.asarray(matrix, dtype=np.int64).ravel()
            if flat.shape == (group.rank,):
                arr = np.diag(flat)
            else:
                raise ValueError(
                    f"automorphism matrix must be {group.rank}x{group.rank} "
                    f"or a list of {group.rank} multipliers"
                )
        self.group = group
        self.dual = bool(dual)
        self.matrix = arr = arr.copy()  # the caller's array stays theirs, this one frozen
        arr.flags.writeable = False
        factors = np.asarray(group.factors, dtype=np.int64)
        # entry (i, j) maps Z_{N_j} into Z_{N_i}, so only its residue mod N_i acts
        self._residues = arr % factors[:, None]
        if np.array_equal(arr, np.eye(group.rank, dtype=np.int64)):
            return  # the identity is well defined and bijective on any factors
        # well defined on each Z_{N_j}: A_ij * N_j must vanish mod N_i
        if np.any(self._residues * factors % factors[:, None]):
            raise ValueError("matrix does not define a homomorphism on these factors")
        images = _positions(group, self.apply(_coordinates(group)))
        if not np.bincount(images, minlength=group.order).all():  # every point is hit once
            raise ValueError("matrix does not act bijectively on the group")

    def apply(self, coords) -> np.ndarray:
        """Images of integer coordinates of shape (..., rank), reduced mod the factors."""
        factors = np.asarray(self.group.factors, dtype=np.int64)
        return np.asarray(coords, dtype=np.int64) @ self._residues.T % factors

    def __call__(self, elem: _Element) -> _Element:
        expected = DualElement if self.dual else GroupElement
        if not isinstance(elem, expected) or elem.group != self.group:
            raise GroupMismatchError("element does not match this automorphism's domain")
        return type(elem)(self.group, tuple(self.apply(elem.coords).tolist()))

    @classmethod
    @functools.lru_cache(maxsize=16)
    def identity(cls, group: FiniteAbelianGroup, dual: bool = False) -> "Automorphism":
        """The identity of ``group`` or its dual, one shared object per group and side."""
        return cls(group, np.eye(group.rank, dtype=np.int64), dual=dual)

    def _key(self):
        # one map written with other representatives of its residues is the same map
        return self.group, self.dual, self._residues.tobytes()

    def __eq__(self, other):
        return isinstance(other, Automorphism) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        side = "dual" if self.dual else "primal"
        return f"<{side} automorphism {self.matrix.tolist()} of {self.group!r}>"


def apply_automorphism(auto: Automorphism, elem: _Element) -> _Element:
    """Image of ``elem`` under ``auto`` (a homomorphic bijection)."""
    return auto(elem)


@dataclass(frozen=True)
class MeasurePair:
    """Point masses (w_group on G, w_dual on the dual) with w_G*w_dual*|G| = 1."""

    w_group: float
    w_dual: float
    order: int

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not (self.w_group > 0 and self.w_dual > 0):
            raise ValueError("point masses must be positive")
        if not abs(self.w_group * self.w_dual * self.order - 1.0) <= 1e-12:
            raise ValueError(
                "inconsistent normalisation: w_group * w_dual * |G| must equal 1"
            )

    @classmethod
    def torus_like(cls, group: FiniteAbelianGroup) -> "MeasurePair":
        """Total mass 1 on G, counting measure on the dual (the default)."""
        return cls(1.0 / group.order, 1.0, group.order)

    @classmethod
    def counting(cls, group: FiniteAbelianGroup) -> "MeasurePair":
        """Counting measure on G, total mass 1 on the dual."""
        return cls(1.0, 1.0 / group.order, group.order)


def _transform(group: FiniteAbelianGroup, values: np.ndarray, fft, norm: str = "backward",
               axis: int = 0) -> np.ndarray:
    """The one-dimensional ``fft`` of ``values`` along each factor axis of G,
    the group axis ``axis`` split into them: the last factor first, as
    ``numpy.fft.fftn`` takes them, without its n-dimensional set-up."""
    shape = values.shape
    grid = values.reshape(shape[:axis] + group.factors + shape[axis + 1:])
    for factor_axis in reversed(range(axis, axis + group.rank)):
        grid = fft(grid, axis=factor_axis, norm=norm)
    return grid.reshape(shape)


def fourier(signal):
    """Fourier transform of a matrix signal, entrywise.

    ``fhat(gamma) = w_G * sum_x f(x) * conj(character_value(gamma, x))``.
    Returns a signal on the dual side.  One FFT over the factor axes.
    """
    from .signals import MatrixSignal  # cycle kept local to the transform pair

    if signal.dual:
        raise GroupMismatchError("fourier expects a signal on the primal side")
    values = signal.space.measure.w_group * _transform(signal.space.group, signal.values,
                                                       np.fft.fft)
    return MatrixSignal(signal.space, values, dual=True)


def inverse_fourier(signal):
    """Inverse transform: ``f(x) = w_dual * sum_gamma fhat(gamma) * character_value(gamma, x)``."""
    from .signals import MatrixSignal

    if not signal.dual:
        raise GroupMismatchError("inverse_fourier expects a signal on the dual side")
    return MatrixSignal(signal.space, _inverse_fourier_values(signal.space, signal.values),
                        dual=False)


def _inverse_fourier_values(space, hat: np.ndarray, axis: int = 0) -> np.ndarray:
    """The values of :func:`inverse_fourier` for the dual-side values ``hat`` of
    ``space``, whose group axis is ``axis``: a stack of signals takes one FFT."""
    # norm="forward" leaves the inverse sum unscaled
    return space.measure.w_dual * _transform(space.group, hat, np.fft.ifft, "forward", axis)
