"""Stability of operator-controlled Gabor frames under window perturbation.

Two stability statements are covered:

* window perturbation: if the difference system is dominated by a
  combination of the source frame sum and the two operator grams
  (an operator inequality, checked as a single PSD condition), the perturbed
  system is again an operator-controlled frame with explicit bounds;
* window sums: if two systems are controlled frames and the source's lower
  bound beats the second system's upper bound by the operator's condition
  ratio, the window-sum system is a controlled frame with explicit bounds.

Predicted bounds are always re-validated against the computed extremal
constants of the perturbed (or summed) system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .frames import (
    BoundsReport,
    GaborSystem,
    _frame_blocks,
    _operator_grams,
    _theta_report,
    theta_bounds,
    valid_bounds,
)
from .groups import GroupMismatchError
from .operators import DEFAULT_TOL, SpaceOperator, _norm_and_lower_bound

__all__ = [
    "PertHypothesis",
    "PertCheck",
    "PertPrediction",
    "check_pert_hypothesis",
    "pert_predicted_bounds",
    "verify_perturbation",
    "SumCheck",
    "check_sum_hypothesis",
    "sum_predicted_bounds",
    "verify_sum",
]


@dataclass(frozen=True)
class PertHypothesis:
    """Constants entering the window-perturbation stability statement."""

    lam: float
    mu: float
    eta: float
    gamma_o: float
    delta_o: float
    m_o: float
    theta_norm: float

    def __post_init__(self):
        if min(self.lam, self.mu, self.eta) < 0:
            raise ValueError("lambda, mu, eta must be nonnegative")

    def ratio_ok(self) -> bool:
        """((1 - 2 lam) gamma - 2 mu) / (2 eta) must exceed ||T||^2 / m^2.

        With eta == 0 the quotient degenerates; the limit condition
        (1 - 2 lam) gamma - 2 mu > 0 is used instead (a documented extension
        of the stated hypothesis).
        """
        return self.ratio_margin() > 0.0

    def ratio_margin(self) -> float:
        lhs = (1.0 - 2.0 * self.lam) * self.gamma_o - 2.0 * self.mu
        if self.eta == 0.0:
            return lhs
        return lhs / (2.0 * self.eta) - (self.theta_norm / self.m_o) ** 2


@dataclass
class PertCheck:
    """Outcome of the three perturbation hypotheses for a concrete pair."""

    hypothesis: Optional[PertHypothesis]
    bounded_below_ok: bool
    ratio_ok: bool
    difference_ok: bool
    difference_margin: Optional[float]
    holds: bool
    bounds_source: str

    def to_json_dict(self) -> dict:
        return {
            "bounded_below_ok": self.bounded_below_ok,
            "ratio_ok": self.ratio_ok,
            "difference_ok": self.difference_ok,
            "difference_margin": self.difference_margin,
            "holds": self.holds,
            "bounds_source": self.bounds_source,
            "constants": None
            if self.hypothesis is None
            else {
                "lambda": self.hypothesis.lam,
                "mu": self.hypothesis.mu,
                "eta": self.hypothesis.eta,
                "gamma_o": self.hypothesis.gamma_o,
                "delta_o": self.hypothesis.delta_o,
                "m_o": self.hypothesis.m_o,
                "theta_norm": self.hypothesis.theta_norm,
            },
        }


def _same_lattices(system: GaborSystem, other: GaborSystem) -> bool:
    """Whether two systems share lattices and automorphisms, so their members pair up."""
    return (system.lattice, system.dual_lattice, system.automorphism, system.dual_automorphism) \
        == (other.lattice, other.dual_lattice, other.automorphism, other.dual_automorphism)


def _window_pairs(system: GaborSystem, other: GaborSystem):
    """The two systems' windows side by side.  Their members pair up only on
    one space, with as many windows, on the same lattices and automorphisms."""
    if system.space != other.space:
        raise GroupMismatchError("systems live on different spaces")
    if len(system.windows) != len(other.windows):
        raise ValueError("systems must have the same number of windows")
    if not _same_lattices(system, other):
        raise ValueError("systems must share their lattices and automorphisms")
    return zip(system.windows, other.windows)


def _difference_system(system: GaborSystem, perturbed: GaborSystem) -> GaborSystem:
    return system.with_windows([w - wt for w, wt in _window_pairs(system, perturbed)])


def check_pert_hypothesis(system: GaborSystem, perturbed: GaborSystem,
                          theta: SpaceOperator, lam: float, mu: float, eta: float,
                          bounds: tuple[float, float] | None = None,
                          tol: float = DEFAULT_TOL) -> PertCheck:
    """Check the three stability hypotheses for a perturbed window family.

    The domination hypothesis is verified as one PSD condition
    D <= lam S + mu T T^* + eta T^* T on the flattened space, D the frame
    operator of the difference system, on the blocks where S splits.
    ``bounds`` pins (gamma_o, delta_o) externally; otherwise the computed
    extremal constants of the source are used (the report records which).
    """
    # one build serves the operator, the bounds and the domination test; the
    # lower bound m_o of adjoint(T) is that of T
    source_blocks = _frame_blocks(system, theta)
    theta_norm, m_o = _norm_and_lower_bound(source_blocks.op)
    if m_o <= tol * theta_norm:
        return PertCheck(None, False, False, False, None, False, "n/a")
    if bounds is not None:
        gamma_o, delta_o = bounds
        source = "paper_pinned"
    else:
        rep = _theta_report(source_blocks, tol)
        if not (rep.lower_exists and rep.upper_exists and rep.alpha_opt):
            return PertCheck(None, True, False, False, None, False, "computed")
        gamma_o, delta_o = rep.alpha_opt, rep.beta_opt
        source = "computed"
    hyp = PertHypothesis(lam, mu, eta, gamma_o, delta_o, m_o, theta_norm)

    # the difference system has the source's lattices, hence its blocks
    d = _frame_blocks(_difference_system(system, perturbed), theta).s
    lower_gram, upper_gram = _operator_grams(source_blocks)
    rhs = lam * source_blocks.s + mu * lower_gram + eta * upper_gram
    # one eigvalsh over both stacks: rhs - d for the margin, rhs for its scale
    eigs = np.linalg.eigvalsh(np.concatenate((rhs - d, rhs)))
    margin = float(eigs[:len(d), 0].min())
    difference_ok = margin >= -tol * float(eigs[len(d):, -1].max())
    ratio_ok = hyp.ratio_ok()
    return PertCheck(hyp, True, ratio_ok, difference_ok, margin,
                     ratio_ok and difference_ok, source)


def pert_predicted_bounds(hyp: PertHypothesis) -> tuple[float, float]:
    """Frame bounds promised for the perturbed system by the stability statement."""
    lower = (0.5 - hyp.lam) * hyp.gamma_o - hyp.mu - hyp.eta * (hyp.theta_norm / hyp.m_o) ** 2
    upper = 2.0 * ((1.0 + hyp.lam + hyp.mu / hyp.gamma_o) * hyp.delta_o + hyp.eta)
    return lower, upper


@dataclass
class PertPrediction:
    """Predicted bounds, their positivity and validity against computed ones."""

    applicable: bool
    predicted_lower: Optional[float]
    predicted_upper: Optional[float]
    perturbed_report: Optional[BoundsReport]
    lower_valid: Optional[bool]
    upper_valid: Optional[bool]


def verify_perturbation(system: GaborSystem, perturbed: GaborSystem,
                        theta: SpaceOperator, lam: float, mu: float, eta: float,
                        bounds: tuple[float, float] | None = None,
                        tol: float = DEFAULT_TOL) -> tuple[PertCheck, PertPrediction]:
    """Hypothesis check plus predicted-bound validation for a perturbation."""
    check = check_pert_hypothesis(system, perturbed, theta, lam, mu, eta, bounds, tol)
    if not check.holds:
        return check, PertPrediction(False, None, None, None, None, None)
    lower, upper = pert_predicted_bounds(check.hypothesis)
    if lower <= 0:
        return check, PertPrediction(False, lower, upper, None, None, None)
    report = theta_bounds(perturbed, theta, tol)
    lower_valid, upper_valid = valid_bounds(report, lower, upper, tol)
    return check, PertPrediction(True, lower, upper, report, lower_valid, upper_valid)


@dataclass
class SumCheck:
    """Hypothesis outcome for the window-sum stability statement."""

    bounded_below_ok: bool
    condition_ok: bool
    condition_lhs: Optional[float]   # sqrt(gamma_1 / delta_2)
    condition_rhs: Optional[float]   # ||T|| / m_o
    gamma_1: Optional[float]
    delta_1: Optional[float]
    gamma_2: Optional[float]
    delta_2: Optional[float]
    m_o: Optional[float]
    theta_norm: Optional[float]
    bounds_source: str


def check_sum_hypothesis(system: GaborSystem, second: GaborSystem,
                         theta: SpaceOperator,
                         bounds_first: tuple[float, float] | None = None,
                         bounds_second: tuple[float, float] | None = None,
                         tol: float = DEFAULT_TOL) -> SumCheck:
    """Hypotheses for the window-sum statement on two controlled frames."""
    source = "paper_pinned" if (bounds_first and bounds_second) else "computed"
    # one build serves the operator and the first bounds; the lower bound m_o
    # of adjoint(T) is that of T
    blocks = _frame_blocks(system, theta)
    theta_norm, m_o = _norm_and_lower_bound(blocks.op)
    bounded_below = m_o > tol * theta_norm
    if bounds_first is None:
        rep1 = _theta_report(blocks, tol)
        if not (rep1.lower_exists and rep1.upper_exists and rep1.alpha_opt):
            return SumCheck(bounded_below, False, None, None, None, None, None, None,
                            m_o, theta_norm, source)
        bounds_first = (rep1.alpha_opt, rep1.beta_opt)
    del blocks  # not held while the second system's blocks are built
    if bounds_second is None:
        rep2 = theta_bounds(second, theta, tol)
        if not (rep2.upper_exists and rep2.beta_opt is not None):
            return SumCheck(bounded_below, False, None, None, None, None, None, None,
                            m_o, theta_norm, source)
        gamma_2 = rep2.alpha_opt if rep2.lower_exists else None
        bounds_second = (gamma_2, rep2.beta_opt)
    gamma_1, delta_1 = bounds_first
    gamma_2, delta_2 = bounds_second
    if delta_2 is None or delta_2 <= 0:
        raise ValueError("second system needs a positive upper bound (zero windows rejected)")
    if not bounded_below:
        return SumCheck(False, False, None, None, gamma_1, delta_1, gamma_2, delta_2,
                        m_o, theta_norm, source)
    lhs = float(np.sqrt(gamma_1 / delta_2))
    rhs = theta_norm / m_o
    return SumCheck(True, lhs > rhs, lhs, rhs, gamma_1, delta_1, gamma_2, delta_2,
                    m_o, theta_norm, source)


def sum_predicted_bounds(gamma_1: float, delta_1: float, delta_2: float,
                         theta_norm: float, m_o: float) -> tuple[float, float]:
    """Bounds promised for the window-sum system."""
    lower = (np.sqrt(gamma_1) - np.sqrt(delta_2) * theta_norm / m_o) ** 2
    upper = 2.0 * (delta_1 + delta_2)
    return float(lower), float(upper)


def verify_sum(system: GaborSystem, second: GaborSystem, theta: SpaceOperator,
               bounds_first: tuple[float, float] | None = None,
               bounds_second: tuple[float, float] | None = None,
               tol: float = DEFAULT_TOL) -> tuple[SumCheck, PertPrediction]:
    """Hypothesis check plus predicted-bound validation for a window sum."""
    pairs = list(_window_pairs(system, second))
    check = check_sum_hypothesis(system, second, theta, bounds_first, bounds_second, tol)
    if not (check.bounded_below_ok and check.condition_ok):
        return check, PertPrediction(False, None, None, None, None, None)
    lower, upper = sum_predicted_bounds(
        check.gamma_1, check.delta_1, check.delta_2, check.theta_norm, check.m_o
    )
    summed = system.with_windows([w + v for w, v in pairs])
    report = theta_bounds(summed, theta, tol)
    lower_valid, upper_valid = valid_bounds(report, lower, upper, tol)
    return check, PertPrediction(lower > 0, lower, upper, report, lower_valid, upper_valid)
