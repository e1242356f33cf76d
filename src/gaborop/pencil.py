"""Extremal constants of Hermitian PSD pencils: closed form and certificate.

For PSD S and P the lower-side constant is the largest alpha with
S - alpha P >= 0, the upper-side one the smallest beta with beta P - S >= 0.
:func:`solve_pencils` reports both from one eigendecomposition each of S and
the two grams, via the closed form of the generalized eigenproblem on the
range of P (Golub & Van Loan, *Matrix Computations*, 8.7), and certifies each
constant by the least eigenvalue of the pencil at it and one step past it.
S may be given as the stack of diagonal blocks of a block-diagonal matrix,
with grams on the same blocks or one gram block that every block repeats;
every step then runs batched over the stack, and every threshold is taken
relative to the top eigenvalue over all blocks, so each block is judged as
it is inside the whole matrix.
Bisection on the least eigenvalue of the pencil is the test oracle; it
lives in ``tests/helpers.py``, not in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def _eigh(h: np.ndarray):
    return np.linalg.eigh(_hermitian(h))


def _min_eig(h: np.ndarray) -> float:
    """Least eigenvalue of a Hermitian matrix or over a stack of them."""
    return float(np.linalg.eigvalsh(_hermitian(h))[..., 0].min())


def _top(vals: np.ndarray) -> float:
    return max(float(vals.max()), 0.0) if vals.size else 0.0


def _kernel(vals: np.ndarray, rtol: float = KERNEL_RTOL) -> np.ndarray:
    """Mask of the eigenvalues at kernel level, relative to the top one over all blocks."""
    return vals <= rtol * _top(vals)


def _contained(vecs: np.ndarray, kernel: np.ndarray, b: np.ndarray, b_top: float,
               tol: float) -> bool:
    """Whether the Rayleigh quotients of b on the eigenvector columns ``vecs``
    marked ``kernel`` are <= tol * b_top (either side may be a block stack)."""
    if b_top <= 0.0 or not kernel.any():
        return True  # b vanishes, or nothing to contain
    quotients = np.real(np.sum(np.conj(vecs) * (b @ vecs), axis=-2))
    return bool(np.max(quotients, where=kernel, initial=-np.inf) <= tol * b_top)


def _closed_form(s: np.ndarray, s_top: float, p_eig, lower: bool) -> Optional[float]:
    """alpha (``lower``) or beta of the block stack s against the stack p whose
    eigendecomposition is ``p_eig``: with W the inverse square root of a block
    of p on its range, the top eigenvalue of W s W over all blocks is beta
    (exact once ker p <= ker s), the least one of W (s / ker p) W is alpha.

    ``eigh`` sorts ascending, so each block's kernel columns lead; blocks of
    equal kernel dimension run batched together.  A block where p vanishes
    constrains neither side (s vanishes there too once ker p <= ker s).
    """
    vals, vecs = p_eig
    dims = np.count_nonzero(_kernel(vals), axis=-1)
    # where s is at rounding level on ker p it has no coupling (the level is
    # that of the whole matrix, of dimension B * d)
    cutoff = len(s) * s.shape[-1] * np.finfo(float).eps * s_top
    extremes = []
    for k in sorted(set(dims[dims < vals.shape[-1]].tolist())):
        rows = dims == k
        q = vecs[rows]
        q_r, q_k, vals_r = q[..., k:], q[..., :k], vals[rows][..., k:]
        block = s[rows] if len(vals) > 1 else s
        q_r_h = np.swapaxes(q_r.conj(), -1, -2)
        s_rr = q_r_h @ block @ q_r
        if lower and k:
            # Schur complement of s on ker p
            k_vals, k_vecs = _eigh(np.swapaxes(q_k.conj(), -1, -2) @ block @ q_k)
            coupling = q_r_h @ block @ q_k @ k_vecs
            inverse = np.divide(1.0, k_vals, out=np.zeros_like(k_vals), where=k_vals > cutoff)
            s_rr = s_rr - (coupling * inverse[..., None, :]) @ np.swapaxes(coupling.conj(), -1, -2)
        w = 1.0 / np.sqrt(vals_r)
        eigs = np.linalg.eigvalsh(w[..., :, None] * _hermitian(s_rr) * w[..., None, :])
        extremes.append(eigs[..., 0].min() if lower else eigs[..., -1].max())
    if not extremes:
        # p = 0: every alpha works; beta is 0 since ker p <= ker s forces s = 0
        return None if lower else 0.0
    return max(0.0, float(min(extremes) if lower else max(extremes)))


def _certificate(s: np.ndarray, s_top: float, p: np.ndarray, p_top: float,
                 const: float, sign: float) -> dict:
    """The least eigenvalue of sign * (s - c p) at c = const must be >= -slack
    and, unless const is 0, < 0 at c = const * (1 + sign * CERT_STEP)."""
    slack = CERT_SLACK_RTOL * max(s_top, const * p_top)
    at = _min_eig(sign * (s - const * p))
    past = _min_eig(sign * (s - const * (1.0 + sign * CERT_STEP) * p)) if const > 0 else None
    return {"min_eig_at": at, "min_eig_past": past, "slack": slack,
            "holds": bool(at >= -slack and (past is None or past < 0.0))}


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
    s, lower_gram, upper_gram = _stack(s), _stack(lower_gram), _stack(upper_gram)
    s_vals, s_vecs = _eigh(s)
    lo_vals, lo_vecs = _eigh(lower_gram)
    up_vals, up_vecs = _eigh(upper_gram)
    s_top, lo_top, up_top = _top(s_vals), _top(lo_vals), _top(up_vals)
    lower_exists = _contained(s_vecs, _kernel(s_vals), lower_gram, lo_top, tol)
    upper_exists = _contained(up_vecs, _kernel(up_vals), s, s_top, tol)
    alpha = _closed_form(s, s_top, (lo_vals, lo_vecs), True) if lower_exists else None
    beta = _closed_form(s, s_top, (up_vals, up_vecs), False) if upper_exists else None
    certificates = {}
    if alpha is not None:
        certificates["alpha"] = _certificate(s, s_top, lower_gram, lo_top, alpha, 1.0)
    if beta is not None:
        certificates["beta"] = _certificate(s, s_top, upper_gram, up_top, beta, -1.0)
    spectra = {name: np.sort(np.broadcast_to(vals, s_vals.shape), axis=None).tolist()
               for name, vals in (("frame_operator", s_vals), ("lower_gram", lo_vals),
                                  ("upper_gram", up_vals))}
    return PencilSolution(lower_exists, upper_exists, alpha, beta, spectra, certificates)
