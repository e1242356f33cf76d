"""Constructive routes to operator-controlled tight frames.

* a scalar Parseval Gabor system on any nontrivial group (normalisation
  derived from the measure convention, never hardcoded);
* diagonal matrix windows sqrt(t) * phi * I turning a scalar Parseval system
  into a t-tight matrix-valued system, then the image under a hyponormal,
  matrix-adjointable operator as a t-tight operator-controlled frame;
* companion checkers for the frame-preservation statements that operator
  images are expected to satisfy.

Operator images themselves and the synthesis-operator characterisation live
in :mod:`gaborop.frames`, which decides the route of every build; this
module asks it for reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .frames import (
    BoundsReport,
    GaborSystem,
    _controlled,
    image_system,
    ordinary_bounds,
    theta_bounds,
    valid_bounds,
)
from .groups import MeasurePair, Subgroup
from .operators import (
    DEFAULT_TOL,
    SpaceOperator,
    commutes,
    compose,
    is_hyponormal_on_range,
    is_mv_adjointable,
)
from .signals import MatrixSignal, SignalSpace

__all__ = [
    "normalize_to_parseval",
    "scalar_parseval_system",
    "tight_theta_frame",
    "TightConstruction",
    "check_image_frame",
    "check_composed_image",
    "ImageFrameReport",
]


def normalize_to_parseval(system: GaborSystem, tol: float = DEFAULT_TOL) -> GaborSystem:
    """Rescale a tight system's windows so its frame operator is the identity.

    The scale is derived from the computed tight constant, so it tracks the
    measure convention instead of hardcoding one; non-tight input raises.
    """
    report = ordinary_bounds(system, tol)
    if not report.tight or not report.lower_exists:
        raise ValueError(
            "system is not tight, cannot normalise "
            f"(bounds {report.alpha_opt}, {report.beta_opt})"
        )
    scale = 1.0 / np.sqrt(report.alpha_opt)
    return system.with_windows([w * scale for w in system.windows])


def scalar_parseval_system(group, measure=None, lattice: Subgroup | None = None,
                           dual_lattice: Subgroup | None = None,
                           window: MatrixSignal | None = None,
                           tol: float = DEFAULT_TOL) -> GaborSystem:
    """A scalar (n=1) Gabor system whose frame operator is the identity.

    Defaults to the full lattice, full dual lattice and a point mass at the
    origin; the window is rescaled by the computed tight constant so the
    normalisation follows whatever measure convention is in force.  Raises
    if the requested data does not generate a tight system.
    """
    if group.order < 2:
        raise ValueError("group must be nontrivial")
    space = SignalSpace(group, 1, measure or MeasurePair.torus_like(group))
    lattice = lattice or Subgroup.full(group)
    dual_lattice = dual_lattice or Subgroup.full(group, dual=True)
    if window is None:
        values = np.zeros((group.order, 1, 1), dtype=np.complex128)
        values[group.zero().index, 0, 0] = 1.0
        window = MatrixSignal(space, values)
    return normalize_to_parseval(
        GaborSystem(space, (window,), lattice, dual_lattice), tol
    )


@dataclass
class TightConstruction:
    """Diagonal-window tight system and its operator image, with reports."""

    tightness: float
    hypothesis_ok: bool
    reasons: list[str]
    diagonal_system: Optional[GaborSystem] = field(default=None, metadata={"json": False})
    diagonal_report: Optional[BoundsReport] = None
    image_report: Optional[BoundsReport] = None
    lower_valid: Optional[bool] = None
    upper_valid: Optional[bool] = None


def tight_theta_frame(tightness: float, scalar_system: GaborSystem, n: int,
                      theta: SpaceOperator, tol: float = DEFAULT_TOL) -> TightConstruction:
    """Build a tightness-t operator-controlled tight frame from a tight scalar source.

    The source is normalised to a Parseval system phi; the windows
    sqrt(t) * phi_l * I_n give a t-tight matrix-valued system; applying a
    hyponormal, matrix-adjointable operator to every member gives a family
    for which t is both a valid lower and a valid upper controlled bound.
    Hypothesis failures are reported in the result, not raised; a non-tight
    source raises ``ValueError``.
    """
    reasons: list[str] = []
    if not tightness > 0:  # NaN fails too
        reasons.append("tightness must be positive")
    if scalar_system.space.n != 1:
        reasons.append("source system must be scalar (n=1)")
    else:
        scalar_system = normalize_to_parseval(scalar_system, tol)
    space = SignalSpace(scalar_system.space.group, n, scalar_system.space.measure)
    if theta.space != space:
        reasons.append("operator space does not match the requested dimension")
        return TightConstruction(tightness, False, reasons)
    # a tightness that is not positive is a reason above; its windows vanish
    root = np.sqrt(tightness) if tightness > 0 else 0.0
    diagonal = replace(scalar_system, space=space, windows=tuple(
        MatrixSignal(space, root * w.values[:, :1, :1] * np.eye(n))
        for w in scalar_system.windows))
    # one build of the image's blocks serves the hypotheses and its report
    hypotheses, image_report = _controlled(image_system(theta, diagonal), theta, tol)
    if not hypotheses.is_hyponormal:
        reasons.append("operator is not hyponormal")
    if not hypotheses.is_mv_adjointable:
        reasons.append("operator is not adjointable for the matrix pairing")
    if reasons:
        return TightConstruction(tightness, False, reasons)

    diag_report = ordinary_bounds(diagonal, tol)
    lower_valid, upper_valid = valid_bounds(image_report, tightness, tightness, tol)
    return TightConstruction(
        tightness, True, [], diagonal, diag_report, image_report,
        lower_valid, upper_valid,
    )


@dataclass
class ImageFrameReport:
    """Hypotheses and bound validity for an operator image of a frame."""

    hypotheses: dict
    source_report: BoundsReport
    image_report: BoundsReport
    controlling: str
    bounds_valid: Optional[bool]


def check_image_frame(theta: SpaceOperator, system, tol: float = DEFAULT_TOL) -> ImageFrameReport:
    """Image of an ordinary frame under a hyponormal adjointable operator.

    When the hypotheses hold, the source's ordinary bounds are valid
    controlled bounds for the image family; validity is checked against the
    computed extremal constants either way.
    """
    # one build of the image's blocks serves the hypotheses and its report
    diagnosed, image_report = _controlled(image_system(theta, system), theta, tol)
    hypotheses = {
        "hyponormal": diagnosed.is_hyponormal,
        "self_commutator_min_eig": diagnosed.self_commutator_min_eig,
        "mv_adjointable": diagnosed.is_mv_adjointable,
    }
    source_report = ordinary_bounds(system, tol)
    bounds_valid = None
    if source_report.lower_exists:
        bounds_valid = all(valid_bounds(image_report, source_report.alpha_opt,
                                        source_report.beta_opt, tol))
    return ImageFrameReport(hypotheses, source_report, image_report, "theta", bounds_valid)


def check_composed_image(xi: SpaceOperator, theta: SpaceOperator, system,
                         tol: float = DEFAULT_TOL) -> ImageFrameReport:
    """Image of an operator-controlled frame under a second operator.

    Hypotheses: ``xi`` adjointable for the matrix pairing, hyponormal on the
    range of ``theta``, and theta xi^* == xi^* theta.  When they hold, the
    source's controlled bounds remain valid for the image family with the
    composed operator; validity is checked against computed constants.
    """
    hypo_on_range, min_eig = is_hyponormal_on_range(xi, theta, tol)
    hypotheses = {
        "mv_adjointable": is_mv_adjointable(xi, tol),
        "hyponormal_on_range": hypo_on_range,
        "restricted_self_commutator_min_eig": min_eig,
        "commutation": commutes(theta, xi.adjoint(), tol),
    }
    source_report = theta_bounds(system, theta, tol)
    image_report = theta_bounds(image_system(xi, system), compose(xi, theta), tol)
    bounds_valid = None
    if source_report.lower_exists and source_report.upper_exists and source_report.alpha_opt is not None:
        bounds_valid = all(valid_bounds(image_report, source_report.alpha_opt,
                                        source_report.beta_opt, tol))
    return ImageFrameReport(hypotheses, source_report, image_report, "xi_theta", bounds_valid)
