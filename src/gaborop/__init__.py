"""Matrix-valued Gabor systems on finite abelian groups, with frame bounds
controlled by operators on both sides of the frame inequality."""

__version__ = "0.1.0"

from .groups import (
    Automorphism,
    DualElement,
    FiniteAbelianGroup,
    GroupElement,
    GroupMismatchError,
    MeasurePair,
    Subgroup,
    annihilator,
    apply_automorphism,
    character_value,
    fourier,
    intersection,
    inverse_fourier,
    transversal,
)
from .signals import (
    MatrixSignal,
    SignalSpace,
    frobenius_norm,
    modulate,
    mv_inner,
    trace_inner,
    translate,
)
from .operators import (
    OperatorDiagnostics,
    SpaceOperator,
    adjoint,
    commutes,
    compose,
    diagnostics,
    is_hyponormal,
    is_mv_adjointable,
    lower_bound_constant,
    operator_norm,
)
from .frames import (
    BoundsReport,
    CoefficientSequence,
    GaborSystem,
    OmegaReport,
    VectorFamily,
    analysis,
    analysis_matrix,
    bounded_below_promotion,
    frame_operator,
    image_system,
    omega_characterization,
    ordinary_bounds,
    synthesis,
    theta_bounds,
)
from .constructions import (
    ImageFrameReport,
    TightConstruction,
    check_composed_image,
    check_image_frame,
    normalize_to_parseval,
    scalar_parseval_system,
    tight_theta_frame,
)
from .perturbation import (
    PertCheck,
    PertHypothesis,
    PertPrediction,
    SumCheck,
    check_pert_hypothesis,
    check_sum_hypothesis,
    pert_predicted_bounds,
    sum_predicted_bounds,
    verify_perturbation,
    verify_sum,
)
from .presets import build_preset, list_presets

__all__ = [
    "__version__",
    # groups
    "FiniteAbelianGroup", "GroupElement", "DualElement", "Subgroup",
    "Automorphism", "MeasurePair", "GroupMismatchError",
    "character_value", "annihilator", "intersection", "transversal", "apply_automorphism",
    "fourier", "inverse_fourier",
    # signals
    "SignalSpace", "MatrixSignal", "mv_inner", "trace_inner", "frobenius_norm",
    "translate", "modulate",
    # operators
    "SpaceOperator", "OperatorDiagnostics", "adjoint", "compose", "commutes",
    "operator_norm", "lower_bound_constant", "is_hyponormal", "is_mv_adjointable",
    "diagnostics",
    # frames
    "GaborSystem", "VectorFamily", "CoefficientSequence", "BoundsReport",
    "image_system", "analysis", "synthesis", "omega_characterization", "OmegaReport",
    "analysis_matrix", "frame_operator",
    "ordinary_bounds", "theta_bounds", "bounded_below_promotion",
    # constructions
    "normalize_to_parseval", "scalar_parseval_system", "tight_theta_frame",
    "TightConstruction", "check_image_frame", "check_composed_image", "ImageFrameReport",
    # perturbation
    "PertHypothesis", "PertCheck", "PertPrediction", "SumCheck",
    "check_pert_hypothesis", "pert_predicted_bounds", "verify_perturbation",
    "check_sum_hypothesis", "sum_predicted_bounds", "verify_sum",
    # presets
    "build_preset", "list_presets",
]
