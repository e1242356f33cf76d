"""Extremal constants of Hermitian PSD pencils: closed form and certificate.

For PSD S and P the lower-side constant is the largest alpha with
S - alpha P >= 0, the upper-side one the smallest beta with beta P - S >= 0.
S may be given as the stack of diagonal blocks of a block-diagonal matrix,
with grams on the same blocks or one gram block that every block repeats;
every threshold is taken relative to the top eigenvalue over all blocks, so
each block is judged as it is inside the whole matrix.  :func:`solve_pencils`
solves both sides in three batched stages:

1. S and the two grams are written into one buffer, Hermitised there, and
   take one ``eigh``.  The existence verdicts (kernel inclusion by Rayleigh
   quotients), the spectra and the whitening below all read it.
2. The closed form of the generalized eigenproblem on the range of each gram
   (Golub & Van Loan, *Matrix Computations*, 8.7): with W the inverse square
   root of a gram block on its range, beta is the top eigenvalue of W S W
   over the blocks, and alpha the least one of W (S / ker P) W, the Schur
   complement of S on the gram's kernel (one ``eigh`` per kernel dimension
   inverts S there).  The whitened blocks of both sides take one
   ``eigvalsh`` per distinct dimension, and each constant records the block
   where it is attained.
3. Each constant is certified by the least eigenvalue of the pencil at it
   (``min_eig_at``, over all blocks, >= -slack) and one relative step past it
   on the extreme block (``min_eig_past``, < 0); both sides' pencils fill one
   buffer and take one ``eigvalsh``.  A block-diagonal pencil fails to be PSD
   iff one of its blocks does, and one step past a correct constant the
   extreme block is the one that must fail.  On the kernel that S and the
   gram share there, where the pencil is zero up to rounding at every
   constant, the step past is lifted by the slack.

Bisection on the least eigenvalue of the pencil is the test oracle; it
lives in ``tests/helpers.py``, not in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .operators import DEFAULT_TOL

__all__ = [
    "PencilSolution",
    "solve_pencils",
]

KERNEL_RTOL = 1e-9  # relative eigenvalue threshold for kernel detection
CERT_SLACK_RTOL = 1e-12  # relative to the larger top eigenvalue of S and c * P
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


def _contained(vecs: np.ndarray, kernel: np.ndarray, b: np.ndarray, b_top: float,
               tol: float) -> bool:
    """Whether the Rayleigh quotients of b on the eigenvector columns ``vecs``
    marked ``kernel`` are <= tol * b_top (either side may be a block stack)."""
    if b_top <= 0.0 or not kernel.any():
        return True  # b vanishes, or nothing to contain
    quotients = np.real(np.sum(np.conj(vecs) * (b @ vecs), axis=-2))
    return bool(np.max(quotients, where=kernel, initial=-np.inf) <= tol * b_top)


def _congruence(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Q^* s_b Q for every block s_b of the Hermitian stack s, with Q the one
    block of q or the block of q at the same position."""
    if len(q) > 1:
        return np.swapaxes(q.conj(), -1, -2) @ s @ q
    # (s_b Q)^* Q as two 2-D products, not a stack of small ones
    x = (s.reshape(-1, s.shape[-1]) @ q[0]).reshape(s.shape)
    return (np.swapaxes(x, -1, -2).conj().reshape(-1, s.shape[-1]) @ q[0]).reshape(s.shape)


def _whitened(s: _Part, gram: _Part, lower: bool):
    """Yield (blocks of s, whitened matrices) for one side against ``gram``:
    W (s / ker p) W (``lower``) or W s W on the blocks where the gram p has
    kernel dimension k, for each k below the block size, W the inverse
    square root of p on its range.  A block where the gram vanishes
    constrains neither side (s vanishes there too once ker p <= ker s).

    ``eigh`` sorts ascending, so each block's k kernel columns lead.  One
    congruence Q^* s Q, with Q the eigenvectors of p and its range columns
    scaled by W, holds W s W on the range, s on the kernel and their
    coupling; the Schur complements of one k take one ``eigh``.
    """
    dims = gram.kernel.sum(axis=-1)
    q = gram.vecs / np.sqrt(np.where(gram.kernel, 1.0, gram.vals))[..., None, :]
    congruent = _congruence(q, s.h)
    # where s is at rounding level on ker p it has no coupling (the level is
    # that of the whole matrix, of dimension B * d)
    cutoff = s.h.shape[0] * s.h.shape[-1] * np.finfo(float).eps * s.top
    for k in sorted(set(dims[dims < gram.vals.shape[-1]].tolist())):
        rows = dims == k
        rows = slice(None) if rows.all() else rows  # a view, not a copy, when k is common
        block = congruent[rows]
        whitened = block[..., k:, k:]
        if lower and k:
            k_vals, k_vecs = np.linalg.eigh(block[..., :k, :k])
            coupling = block[..., k:, :k] @ k_vecs
            inverse = np.divide(1.0, k_vals, out=np.zeros_like(k_vals), where=k_vals > cutoff)
            whitened = whitened - (coupling * inverse[..., None, :]) @ np.swapaxes(
                coupling.conj(), -1, -2)
        yield rows, whitened


def _closed_form(spectra: dict, pieces: list, count: int, lower: bool) -> np.ndarray:
    """The extreme eigenvalue of one side's whitened matrix on each of the
    ``count`` blocks: the least one (``lower``) or the top one, and +inf or
    -inf on a block the gram does not constrain.  ``pieces`` lists
    (side, blocks, dimension, rows) of the solved ``spectra``, one ascending
    eigenvalue stack per dimension."""
    extremes = np.full(count, np.inf if lower else -np.inf)
    for side, blocks, dim, rows in pieces:
        if side == lower:
            extremes[blocks] = spectra[dim][rows, 0 if lower else -1]
    return extremes


def _closed_forms(s: _Part, grams: dict) -> dict:
    """{side: per-block extremes} for the sides {lower: gram}, with the
    whitened matrices of both sides solved in one ``eigvalsh`` per distinct
    dimension."""
    pieces, stacks = [], {}
    for lower, gram in grams.items():
        for blocks, whitened in _whitened(s, gram, lower):
            dim = whitened.shape[-1]
            stack = stacks.setdefault(dim, [])
            start = sum(map(len, stack))
            pieces.append((lower, blocks, dim, slice(start, start + len(whitened))))
            stack.append(whitened)
    spectra = {dim: np.linalg.eigvalsh(stack[0] if len(stack) == 1 else np.concatenate(stack))
               for dim, stack in stacks.items()}
    return {lower: _closed_form(spectra, pieces, len(s.h), lower) for lower in grams}


def _pencil(s: np.ndarray, p: np.ndarray, c: float, lower: bool, out: np.ndarray) -> None:
    """Write s - c p (``lower``) or c p - s into ``out``."""
    np.multiply(p, c, out=out)
    if lower:
        np.subtract(s, out, out=out)
    else:
        np.subtract(out, s, out=out)


def _certificates(s: _Part, constants: dict) -> dict:
    """{name: certificate} for the sides {name: (gram, constant, extreme
    block)}: the least eigenvalue of sign * (s - c p) at c = const over all
    blocks must be >= -slack and, unless const is 0, < 0 at
    c = const * (1 + sign * CERT_STEP) on the extreme block (sign = +1 for
    alpha, -1 for beta).  Every pencil fills one buffer for one ``eigvalsh``.

    On the kernel that s and p share (ker s for alpha, ker p for beta) the
    pencil is zero up to rounding at every c, so there the step past is
    lifted by the slack: a rounding error below zero would pass a constant
    that is not extremal.  Adding a PSD term keeps a negative eigenvalue a
    proof that the pencil is not PSD."""
    count = len(s.h)
    pencils = np.empty((sum(count + (const > 0) for _, const, _ in constants.values()),)
                       + s.h.shape[1:], dtype=s.h.dtype)
    start, spans, slacks = 0, {}, {}
    for name, (gram, const, block) in constants.items():
        lower = name == "alpha"
        spans[name] = start
        slacks[name] = CERT_SLACK_RTOL * max(s.top, const * gram.top)
        _pencil(s.h, gram.h, const, lower, pencils[start:start + count])
        start += count
        if const > 0:
            g = block if len(gram.h) > 1 else 0
            past = const * (1.0 + (CERT_STEP if lower else -CERT_STEP))
            _pencil(s.h[block], gram.h[g], past, lower, pencils[start])
            shared, b = (s, block) if lower else (gram, g)
            q = shared.vecs[b][:, shared.kernel[b]]
            if q.size:
                pencils[start] += slacks[name] * (q @ q.conj().T)
            start += 1
    least = np.linalg.eigvalsh(pencils)[:, 0]
    certificates = {}
    for name, (_, const, _) in constants.items():
        start, slack = spans[name], slacks[name]
        at = float(least[start:start + count].min())
        past = float(least[start + count]) if const > 0 else None
        certificates[name] = {"min_eig_at": at, "min_eig_past": past, "slack": slack,
                              "holds": bool(at >= -slack and (past is None or past < 0.0))}
    return certificates


@dataclass(frozen=True)
class PencilSolution:
    """Verdicts, constants (None when absent), ascending spectra of S and both
    grams, and a certificate per constant keyed ``alpha``/``beta``."""

    lower_exists: bool
    upper_exists: bool
    alpha: Optional[float]
    beta: Optional[float]
    spectra: dict
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
    ker upper_gram <= ker S, judged by Rayleigh quotients relative to the top
    eigenvalue (``tol``).  alpha is None also when lower_gram vanishes.  The
    spectra hold all B * d eigenvalues.
    """
    s, lo, up = _decomposed(_stack(s), _stack(lower_gram), _stack(upper_gram))
    lower_exists = _contained(s.vecs, s.kernel, lo.h, lo.top, tol)
    upper_exists = _contained(up.vecs, up.kernel, s.h, s.top, tol)
    grams = {lower: gram for lower, gram, exists in ((True, lo, lower_exists),
                                                     (False, up, upper_exists)) if exists}
    constants = {}
    for lower, extremes in _closed_forms(s, grams).items():
        block = int(np.argmin(extremes) if lower else np.argmax(extremes))
        if np.isfinite(extremes[block]):
            const = max(0.0, float(extremes[block]))
        elif lower:
            continue  # the gram vanishes: every alpha works
        else:
            const = 0.0  # ker p <= ker s with p = 0 forces s = 0
        constants["alpha" if lower else "beta"] = (grams[lower], const, block)
    certificates = _certificates(s, constants) if constants else {}
    alpha, beta = (constants[name][1] if name in constants else None
                   for name in ("alpha", "beta"))
    # a gram given as one block repeats its eigenvalues on every block
    spectra = {name: np.repeat(np.sort(part.vals, axis=None), len(s.h) // len(part.h)).tolist()
               for name, part in (("frame_operator", s), ("lower_gram", lo), ("upper_gram", up))}
    return PencilSolution(lower_exists, upper_exists, alpha, beta, spectra, certificates)
