"""Extremal constants of Hermitian PSD pencils: closed form and certificate.

For PSD S and P the lower-side constant is the largest alpha with
S - alpha P >= 0, the upper-side one the smallest beta with beta P - S >= 0.
S may be given as the stack of diagonal blocks of a block-diagonal matrix,
with grams on the same blocks or one gram block that every block repeats;
every threshold is taken relative to the top eigenvalue over all blocks, so
each block is judged as it is inside the whole matrix.  Both sides follow one
rule on a pair (by, other): (S, P) for alpha and (P, S) for beta, each
solved on the range of ``by``.  :func:`solve_pencils` solves both sides in
three batched stages:

1. S and the two grams are written into one buffer, Hermitised there, and
   take one ``eigh``.  The existence verdicts (ker by <= ker other, by the
   trace of other on ker by), the spectrum and the whitening below all read it.
2. The closed form of the generalized eigenproblem on the range of ``by``
   (Golub & Van Loan, *Matrix Computations*, 8.7): with W the inverse square
   root of a block of ``by`` on its range and 0 on its kernel, beta is the
   top eigenvalue of W S W over the blocks, and alpha the reciprocal of the
   top eigenvalue of W P W.  Once ker by <= ker other, other vanishes on
   ker by up to the existence tolerance, so nothing couples there.  The
   whitened blocks of both sides, all of the full block size, take one
   ``eigvalsh``, and each constant records the block where it is attained.
3. Each constant is certified by the least eigenvalue of the pencil at it
   (``min_eig_at``, over all blocks, >= -slack) and one relative step past it
   on the extreme block (``min_eig_past``, < 0); both sides' pencils fill one
   buffer and take one ``eigvalsh``.  A block-diagonal pencil fails to be PSD
   iff one of its blocks does, and one step past a correct constant the
   extreme block is the one that must fail.  On ker by the pencil is the
   negated other term, which the existence test bounds by tol times its top
   (by its trace there), so every pencil is lifted there by that much.

Bisection on the least eigenvalue of the pencil is the test oracle; it
lives in ``tests/helpers.py``, not in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .operators import DEFAULT_TOL, KERNEL_RTOL

__all__ = [
    "PencilSolution",
    "solve_pencils",
]

CERT_SLACK_RTOL = 1e-12  # relative to the larger top eigenvalue of the pencil's two terms
CERT_STEP = 1e-6


def _hermitian(h: np.ndarray) -> np.ndarray:
    return (h + np.swapaxes(h.conj(), -1, -2)) / 2.0


def _top(vals: np.ndarray) -> float:
    return max(float(vals.max()), 0.0) if vals.size else 0.0


class _Part(NamedTuple):
    """One Hermitian block stack of the pencils and its eigendecomposition."""

    h: np.ndarray       # (B, d, d) or (1, d, d)
    vals: np.ndarray    # ascending per block
    vecs: np.ndarray
    top: float          # the top eigenvalue over all blocks, or 0
    kernel: np.ndarray  # mask of the eigenvalues at kernel level, relative to top


def _decomposed(*parts: np.ndarray) -> list[_Part]:
    """The block stacks, written into one buffer, Hermitised there and
    decomposed by one ``eigh``."""
    stack = np.concatenate(parts)
    stack += np.swapaxes(stack.conj(), -1, -2)
    stack *= 0.5
    vals, vecs = np.linalg.eigh(stack)
    decomposed, start = [], 0
    for part in parts:
        rows = slice(start, start + len(part))
        start = rows.stop
        top = _top(vals[rows])
        decomposed.append(_Part(stack[rows], vals[rows], vecs[rows], top,
                                vals[rows] <= KERNEL_RTOL * top))
    return decomposed


def _contained(by: _Part, other: _Part, tol: float) -> bool:
    """Whether ker by <= ker other: on every block, the sum of the Rayleigh
    quotients of ``other`` on the kernel eigenvectors of ``by`` (the trace of
    ``other`` on ker by, which bounds its top eigenvalue there) is
    <= tol * other.top (either may be one block that every block repeats)."""
    if other.top <= 0.0 or not by.kernel.any():
        return True  # other vanishes, or nothing to contain
    quotients = np.real(np.sum(np.conj(by.vecs) * (other.h @ by.vecs), axis=-2))
    return bool(np.sum(quotients, axis=-1, where=by.kernel).max() <= tol * other.top)


def _congruence(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Q^* s_b Q at every block position of the stacks q and s (either may be
    one block that every block repeats)."""
    if len(q) > 1:
        return np.swapaxes(q.conj(), -1, -2) @ s @ q
    # (s_b Q)^* Q as two 2-D products, not a stack of small ones
    x = (s.reshape(-1, s.shape[-1]) @ q[0]).reshape(s.shape)
    return (np.swapaxes(x, -1, -2).conj().reshape(-1, s.shape[-1]) @ q[0]).reshape(s.shape)


def _whitened(by: _Part, other: _Part) -> np.ndarray:
    """W other_b W on every block, with W the inverse square root of the
    block of ``by`` on its range and 0 on its kernel: the congruence by the
    eigenvectors of ``by`` scaled by W.  It vanishes on a block where ``by``
    does, and so does ``other`` there once ker by <= ker other."""
    q = by.vecs / np.sqrt(np.where(by.kernel, np.inf, by.vals))[..., None, :]
    return _congruence(q, other.h)


def _closed_form(spectra: np.ndarray, start: int, count: int, lower: bool) -> np.ndarray:
    """One side's constant on each of its ``count`` blocks, whose ascending
    whitened eigenvalues are the rows of ``spectra`` from ``start``: the
    reciprocal of the top one for alpha (``lower``; +inf on a block where
    the top is not positive, which does not constrain alpha), the top one
    for beta."""
    tops = spectra[start:start + count, -1]
    if not lower:
        return tops
    return np.divide(1.0, tops, out=np.full(count, np.inf), where=tops > 0.0)


def _closed_forms(sides: dict) -> dict:
    """{name: per-block constants} for the sides {name: (by, other)}, with
    the whitened blocks of all sides solved in one ``eigvalsh``."""
    whitened = [_whitened(by, other) for by, other in sides.values()]
    spectra = np.linalg.eigvalsh(whitened[0] if len(whitened) == 1 else np.concatenate(whitened))
    count = len(whitened[0])
    return {name: _closed_form(spectra, i * count, count, name == "alpha")
            for i, name in enumerate(sides)}


def _pencil(by: np.ndarray, other: np.ndarray, c: float, lower: bool, out: np.ndarray) -> None:
    """Write by - c other (``lower``: S - c P) or c by - other (c P - S) into ``out``."""
    np.multiply(other if lower else by, c, out=out)
    if lower:
        np.subtract(by, out, out=out)
    else:
        np.subtract(out, other, out=out)


def _kernel_projector(by: _Part) -> np.ndarray:
    """The orthogonal projector on ker by, per block of ``by``."""
    q = by.vecs * by.kernel[..., None, :]
    return q @ np.swapaxes(q.conj(), -1, -2)


def _certificates(s: _Part, constants: dict, tol: float) -> dict:
    """{name: certificate} for the sides {name: (by, other, constant, extreme
    block)}: the least eigenvalue of the pencil S - c P (alpha) or c P - S
    (beta) at c = const over all blocks must be >= -slack and, unless const
    is 0, < 0 one relative step past it, at c = const * (1 + CERT_STEP) for
    alpha and const * (1 - CERT_STEP) for beta, on the extreme block.  Every
    pencil fills one buffer for one ``eigvalsh``.

    On ker by the pencil is the negated other term up to rounding, at most
    tol times its top there once ker by <= ker other (the existence test
    bounds its trace).  So every pencil, at and past, is lifted there by tol
    times the top of its other term: the rounding neither fails a correct
    constant nor, below zero, passes one that is not extremal.  Adding a PSD
    term keeps a negative eigenvalue a proof that the pencil is not PSD."""
    count = len(s.h)
    pencils = np.empty((sum(count + (const > 0) for *_, const, _ in constants.values()),)
                       + s.h.shape[1:], dtype=s.h.dtype)
    start, spans, slacks = 0, {}, {}
    for name, (by, other, const, block) in constants.items():
        lower = name == "alpha"
        spans[name] = start
        terms = (by.top, const * other.top) if lower else (const * by.top, other.top)
        slacks[name] = CERT_SLACK_RTOL * max(terms)
        kernel = _kernel_projector(by) if by.kernel.any() else None
        # tol times the top of the pencil's other term at c: c P for alpha, S for beta
        lift = lambda c: tol * (c if lower else 1.0) * other.top
        _pencil(by.h, other.h, const, lower, pencils[start:start + count])
        if kernel is not None:
            pencils[start:start + count] += lift(const) * kernel
        start += count
        if const > 0:
            b, o = block % len(by.h), block % len(other.h)
            past = const * (1.0 + (CERT_STEP if lower else -CERT_STEP))
            _pencil(by.h[b], other.h[o], past, lower, pencils[start])
            if kernel is not None:
                pencils[start] += lift(past) * kernel[b]
            start += 1
    least = np.linalg.eigvalsh(pencils)[:, 0]
    certificates = {}
    for name, (*_, const, _) in constants.items():
        start, slack = spans[name], slacks[name]
        at = float(least[start:start + count].min())
        past = float(least[start + count]) if const > 0 else None
        certificates[name] = {"min_eig_at": at, "min_eig_past": past, "slack": slack,
                              "holds": bool(at >= -slack and (past is None or past < 0.0))}
    return certificates


@dataclass(frozen=True)
class PencilSolution:
    """Verdicts, constants (None when absent), the ascending spectrum of S
    and a certificate per constant keyed ``alpha``/``beta``."""

    lower_exists: bool
    upper_exists: bool
    alpha: Optional[float]
    beta: Optional[float]
    spectrum: list
    certificates: dict


def _stack(h) -> np.ndarray:
    h = np.asarray(h)
    return h.reshape((-1,) + h.shape[-2:])


def solve_pencils(s: np.ndarray, lower_gram: np.ndarray, upper_gram: np.ndarray,
                  tol: float = DEFAULT_TOL) -> PencilSolution:
    """Both sides of S >= alpha * lower_gram and S <= beta * upper_gram.

    ``s`` is one (d, d) matrix or a (B, d, d) stack of the diagonal blocks of
    a block-diagonal S; each gram is a (B, d, d) stack on the same blocks or
    one (d, d) block (or a (1, d, d) stack) that every block repeats.  A
    positive alpha exists iff ker S <= ker lower_gram and a finite beta iff
    ker upper_gram <= ker S, judged by the trace of the one on the kernel of
    the other, relative to its top eigenvalue (``tol``).  alpha is None also
    when lower_gram vanishes.  The spectrum holds all B * d eigenvalues of S.
    """
    s, lo, up = _decomposed(_stack(s), _stack(lower_gram), _stack(upper_gram))
    sides = {"alpha": (s, lo), "beta": (up, s)}  # (by, other): solved on the range of by
    exists = {name: _contained(by, other, tol) for name, (by, other) in sides.items()}
    solved = {name: side for name, side in sides.items() if exists[name]}
    constants = {}
    for name, per_block in (_closed_forms(solved) if solved else {}).items():
        block = int(np.argmin(per_block) if name == "alpha" else np.argmax(per_block))
        if np.isinf(per_block[block]):
            continue  # the gram vanishes: every alpha works
        constants[name] = (*solved[name], max(0.0, float(per_block[block])), block)
    certificates = _certificates(s, constants, tol) if constants else {}
    alpha, beta = (constants[name][2] if name in constants else None
                   for name in ("alpha", "beta"))
    return PencilSolution(exists["alpha"], exists["beta"], alpha, beta,
                          np.sort(s.vals, axis=None).tolist(), certificates)
