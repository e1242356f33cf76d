"""Extremal constants of Hermitian PSD pencils: closed form and certificate.

For PSD S and P the lower-side constant is the largest alpha with
S - alpha P >= 0, the upper-side one the smallest beta with beta P - S >= 0.
S may be given as the stack of diagonal blocks of a block-diagonal matrix,
with grams on the same blocks or one gram block that every block repeats;
every threshold is taken relative to the top eigenvalue over all blocks, so
each block is judged as it is inside the whole matrix.  Since
S - alpha P >= 0 iff (1/alpha) S - P >= 0, both sides are one problem on a
pair (by, other): the least c with c by - other >= 0.  The pair is (S, P)
for alpha, which is 1 / c, and (P, S) for beta, which is c.
:func:`solve_pencils` solves both sides in three batched stages:

1. S and the two grams are written into one buffer, Hermitised there, and
   take one ``eigh``.  The existence verdicts (ker by <= ker other, by the
   trace of other on ker by), the spectrum and the whitening below all read it.
2. The closed form of the generalized eigenproblem on the range of ``by``
   (Golub & Van Loan, *Matrix Computations*, 8.7): with W the inverse square
   root of a block of ``by`` on its range and 0 on its kernel, c is the top
   eigenvalue of W other W over the blocks, clamped at 0.  Once
   ker by <= ker other, other vanishes on ker by up to the existence
   tolerance, so nothing couples there.  The whitened blocks of both sides,
   all of the full block size, take one ``eigvalsh``, and each c records the
   block where it is attained.  A c of 0 for alpha means the gram vanishes:
   every alpha works, and alpha is None.
3. Each c is certified by the least eigenvalue of c by - other
   (``min_eig_at``, over all blocks, >= -slack) and one relative step below
   c on the extreme block (``min_eig_past``, < 0); both sides' pencils fill
   one buffer and take one ``eigvalsh``.  So the alpha certificate reads
   (1/alpha) S - P, the lower pencil divided by alpha.  A block-diagonal
   pencil fails to be PSD iff one of its blocks does, and one step below a
   correct c the extreme block is the one that must fail.  On ker by the
   pencil is -other, which the existence test bounds by tol times its top
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
CLOSED_FORM_DIM = 2  # blocks up to this size take _hermitian_eigvalsh's closed form


def _hermitian(h: np.ndarray) -> np.ndarray:
    return (h + np.swapaxes(h.conj(), -1, -2)) / 2.0


def _hermitian_eigvalsh(h: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of each block of the Hermitian part of the
    (B, d, d) stack ``h``, as a (B, d) array.

    A 1 x 1 block is its real part.  A 2 x 2 block takes the closed form of
    the 2-by-2 symmetric Schur decomposition (Golub & Van Loan, *Matrix
    Computations*, 8.5): with a, c the real diagonal entries and b the
    Hermitised off-diagonal entry, the eigenvalues are m -/+ hypot((a - c) / 2,
    |b|) about m = (a + c) / 2.  Every sum is taken of halves, so finite
    input cannot overflow, and each eigenvalue is within a few ulps of the
    top |eigenvalue| of the block, the order of LAPACK's backward error.
    Larger blocks take one ``eigvalsh``."""
    d = h.shape[-1]
    if d == 1:
        return h.real[..., 0]
    if d > CLOSED_FORM_DIM:
        return np.linalg.eigvalsh(_hermitian(h))
    a, c = h[:, 0, 0].real, h[:, 1, 1].real
    b = 0.5 * h[:, 0, 1] + 0.5 * h[:, 1, 0].conj()
    m = 0.5 * a + 0.5 * c
    r = np.hypot(0.5 * a - 0.5 * c, np.abs(b))
    return np.stack([m - r, m + r], axis=-1)


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


def _least_constants(sides: dict) -> dict:
    """{name: (c, extreme block)} for the sides {name: (by, other)}: c is the
    least constant with c by - other >= 0, the top eigenvalue of W other W
    over all blocks, clamped at 0.  The whitened blocks of all sides are
    solved in one ``eigvalsh``."""
    whitened = [_whitened(by, other) for by, other in sides.values()]
    spectra = np.linalg.eigvalsh(whitened[0] if len(whitened) == 1 else np.concatenate(whitened))
    tops = spectra[:, -1].reshape(len(sides), -1)
    return {name: (max(0.0, float(top.max())), int(top.argmax()))
            for name, top in zip(sides, tops)}


def _certificates(s: _Part, constants: dict, tol: float) -> dict:
    """{name: certificate} for the sides {name: (by, other, c, extreme
    block)}: the least eigenvalue of the pencil c by - other over all blocks
    must be >= -slack and, unless c is 0, < 0 one relative step below it, at
    c * (1 - CERT_STEP), on the extreme block.  Every pencil fills one buffer
    for one ``eigvalsh``.

    On ker by the pencil is -other up to rounding, at most tol times the top
    of other there once ker by <= ker other (the existence test bounds its
    trace).  So every pencil, at c and below it, is lifted there by tol times
    the top of other: the rounding neither fails a correct constant nor,
    below zero, passes one that is not extremal.  Adding a PSD term keeps a
    negative eigenvalue a proof that the pencil is not PSD."""
    count = len(s.h)
    pencils = np.empty((sum(count + (c > 0) for *_, c, _ in constants.values()),)
                       + s.h.shape[1:], dtype=s.h.dtype)
    start, spans = 0, {}
    for name, (by, other, c, block) in constants.items():
        spans[name] = start
        at = pencils[start:start + count]
        np.multiply(by.h, c, out=at)
        at -= other.h
        lift = None
        if by.kernel.any():
            q = by.vecs * by.kernel[..., None, :]  # the projector on ker by is Q Q^*
            lift = tol * other.top * (q @ np.swapaxes(q.conj(), -1, -2))
            at += lift
        start += count
        if c > 0:  # one relative step below c, on the extreme block
            b, o = block % len(by.h), block % len(other.h)
            past = pencils[start]
            np.multiply(by.h[b], c * (1.0 - CERT_STEP), out=past)
            past -= other.h[o]
            if lift is not None:
                past += lift[b]
            start += 1
    least = np.linalg.eigvalsh(pencils)[:, 0]
    certificates = {}
    for name, (by, other, c, _) in constants.items():
        start = spans[name]
        slack = CERT_SLACK_RTOL * max(c * by.top, other.top)
        at = float(least[start:start + count].min())
        past = float(least[start + count]) if c > 0 else None
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
    sides = {"alpha": (s, lo), "beta": (up, s)}  # (by, other): the least c with c by - other >= 0
    exists = {name: _contained(by, other, tol) for name, (by, other) in sides.items()}
    solved = {name: side for name, side in sides.items() if exists[name]}
    least = _least_constants(solved) if solved else {}
    if "alpha" in least and least["alpha"][0] == 0.0:
        del least["alpha"]  # the gram vanishes: every alpha works
    constants = {name: (*sides[name], *c_block) for name, c_block in least.items()}
    certificates = _certificates(s, constants, tol) if constants else {}
    alpha = 1.0 / least["alpha"][0] if "alpha" in least else None
    beta = least["beta"][0] if "beta" in least else None
    return PencilSolution(exists["alpha"], exists["beta"], alpha, beta,
                          np.sort(s.vals, axis=None).tolist(), certificates)
