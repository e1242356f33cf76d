"""Constructive routes to operator-controlled tight frames.

* a scalar Parseval Gabor system on any nontrivial group (normalisation
  derived from the measure convention, never hardcoded);
* diagonal matrix windows sqrt(t) * phi * I turning a scalar Parseval system
  into a t-tight matrix-valued system, then the image under a hyponormal,
  matrix-adjointable operator as a t-tight operator-controlled frame;
* operator images, with companion checkers for the frame-preservation
  statements they are expected to satisfy: an entry map acts pointwise, so
  it commutes with translations and modulations and the image of a Gabor
  system is the Gabor system of the mapped windows;
* the coefficient-side characterisation: the synthesis operator Omega maps
  the standard coefficient basis onto the family, Omega Omega^* equals the
  frame operator, and the pencil constants of Omega Omega^* reproduce the
  two-sided bound verdicts.  No route builds Omega: on the dense route both
  conditions hold by construction, and on the coset blocks they are exact
  integer checks on the coset points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .frames import (
    BoundsReport,
    GaborSystem,
    VectorFamily,
    _as_family,
    _coset_operator,
    _frame_blocks,
    _theta_report,
    ordinary_bounds,
    theta_bounds,
    valid_bounds,
)
from .groups import Subgroup, _coordinates, _pairing
from .operators import (
    DEFAULT_TOL,
    OperatorDiagnostics,
    SpaceOperator,
    _diagnostics,
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
    "image_system",
    "check_image_frame",
    "check_composed_image",
    "ImageFrameReport",
    "omega_characterization",
    "OmegaReport",
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
    from .groups import MeasurePair

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


def _hypotheses(theta: SpaceOperator, system, tol: float) -> OperatorDiagnostics:
    """The diagnostics behind the hyponormality and adjointability hypotheses:
    taken on the coset blocks of the Gabor ``system`` when ``theta`` is dense
    and maps each coset into itself, so no D x D solve runs, else on the
    matrix of ``theta``."""
    blocks = None
    if theta.kind == "dense" and isinstance(system, GaborSystem):
        blocks = _coset_operator(system, theta)
    return _diagnostics(theta, theta._rep() if blocks is None else blocks, tol)


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
    if tightness <= 0:
        reasons.append("tightness must be positive")
    if scalar_system.space.n != 1:
        reasons.append("source system must be scalar (n=1)")
    else:
        scalar_system = normalize_to_parseval(scalar_system, tol)
    space = SignalSpace(scalar_system.space.group, n, scalar_system.space.measure)
    if theta.space != space:
        reasons.append("operator space does not match the requested dimension")
        return TightConstruction(tightness, False, reasons)
    lattices = GaborSystem(space, (), scalar_system.lattice, scalar_system.dual_lattice,
                           scalar_system.automorphism, scalar_system.dual_automorphism)
    hypotheses = _hypotheses(theta, lattices, tol)
    if not hypotheses.is_hyponormal:
        reasons.append("operator is not hyponormal")
    if not hypotheses.is_mv_adjointable:
        reasons.append("operator is not adjointable for the matrix pairing")
    if reasons:
        return TightConstruction(tightness, False, reasons)

    root = np.sqrt(tightness)
    eye = np.eye(n)
    windows = []
    for w in scalar_system.windows:
        values = root * w.values[:, 0, 0][:, None, None] * eye[None, :, :]
        windows.append(MatrixSignal(space, values))
    diagonal = GaborSystem(
        space, tuple(windows), scalar_system.lattice, scalar_system.dual_lattice,
        scalar_system.automorphism, scalar_system.dual_automorphism,
    )
    diag_report = ordinary_bounds(diagonal, tol)
    image_report = theta_bounds(image_system(theta, diagonal), theta, tol)
    lower_valid, upper_valid = valid_bounds(image_report, tightness, tightness, tol)
    return TightConstruction(
        tightness, True, [], diagonal, diag_report, image_report,
        lower_valid, upper_valid,
    )


def image_system(op: SpaceOperator, system) -> GaborSystem | VectorFamily:
    """The images of every system member under ``op``.

    An entry map commutes with every translation and modulation, so the image
    of a Gabor system is the Gabor system of the mapped windows on the same
    lattices and automorphisms; a dense operator or a family gives the
    family of mapped members.
    """
    if isinstance(system, GaborSystem) and op.kind == "entry_map":
        return system.with_windows([op(w) for w in system.windows])
    return _as_family(system).transformed(op)


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
    diagnosed = _hypotheses(theta, system, tol)
    hypotheses = {
        "hyponormal": diagnosed.is_hyponormal,
        "self_commutator_min_eig": diagnosed.self_commutator_min_eig,
        "mv_adjointable": diagnosed.is_mv_adjointable,
    }
    source_report = ordinary_bounds(system, tol)
    image_report = theta_bounds(image_system(theta, system), theta, tol)
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
    from .operators import commutes

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


@dataclass
class OmegaReport:
    """Coefficient-side characterisation of the two-sided frame inequality."""

    basis_condition: bool
    max_gram_deviation: float
    lower_exists: bool
    upper_exists: bool
    alpha: Optional[float]
    beta: Optional[float]


def omega_characterization(system, theta: SpaceOperator,
                           tol: float = DEFAULT_TOL) -> OmegaReport:
    """Synthesis-operator route to the two-sided bound verdicts.

    Checks that Omega maps the standard coefficient basis onto the family and
    compares Omega Omega^* with the frame operator S; the verdicts and
    constants are those of the controlled report on the blocks of S.  On the
    dense route S is A^* A for the analysis matrix A, and Omega = A^*, so both
    conditions hold by construction.  On the coset blocks, the rows of coset b
    of Omega are H_b (x) phi_b (the translate stack, and the phase row
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
    return _omega_report(system, blocks, _theta_report(blocks, tol))


def _omega_report(system, blocks, controlled: BoundsReport) -> OmegaReport:
    """The Omega report against the frame-operator blocks of ``system``, with
    the verdicts and constants of the ``controlled`` report on them."""
    # on the dense route Omega = A^*, so both conditions hold by construction
    # (tests/helpers.py::oracle_omega_report keeps the dense Omega)
    basis_condition, max_dev = True, 0.0
    if blocks.route == "walnut":
        group, n2 = system.space.group, system.space.n ** 2
        gens = system.dual_automorphism.apply(
            np.reshape([m.coords for m in system.dual_lattice.generators], (-1, group.rank)))
        # labels[b, k, i]: the pairing of generator i with point k of coset b
        points = _coordinates(group)[blocks.index[:, ::n2] // n2]
        labels = _pairing(group, gens, points[:, :, None, :])
        basis_condition = bool(np.all(labels == labels[:, :1]))
        # the diagonal of a coset block is the mean of its Zak blocks' diagonals
        s = blocks.s.reshape(len(labels), len(blocks.phi), *blocks.s.shape[1:])
        diag = np.diagonal(s, axis1=2, axis2=3).real.mean(axis=1).max(axis=1, initial=0.0)
        # sorted by label, then by diagonal, largest first: the two largest
        # diagonals of cosets that share a label are neighbours
        order = np.lexsort((-diag, *labels[:, 0].T))
        heads, diag = labels[order, 0], diag[order]
        shared = (heads[1:] == heads[:-1]).all(axis=-1)
        max_dev = float(np.sqrt(diag[1:] * diag[:-1]).max(where=shared, initial=0.0))
    return OmegaReport(basis_condition, max_dev, controlled.lower_exists,
                       controlled.upper_exists, controlled.alpha_opt, controlled.beta_opt)
