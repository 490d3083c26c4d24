"""Almost contact metric structures of corner type on 3-dimensional charts.

Construction, axiom verification, classification in the trans-Sasakian
taxonomy, fundamental-frame analysis, twin structures, and the contact-form
deformation — all evaluated through exact second-order jets of closed-form
component expressions.
"""

from .acms import (
    AcmStructure,
    ClassificationReport,
    check_axioms,
    classify,
    n1_tensor,
    nijenhuis,
    olszak_alpha_beta,
    trans_sasakian_residual,
)
from .conventions import CONVENTION_BANNER
from .corner import (
    CornerFields,
    CornerFrame,
    DegenerateCornerError,
    closed_omega_check,
    connection_table_residuals,
    corner_residual,
    corner_residual_forms,
    form_identities_residuals,
)
from .construct import (
    DeformationParams,
    NonPositiveFError,
    TwinKind,
    corollary_gate,
    deform,
    deformed_type,
    ntilde_identity_residual,
    thcos_check,
    thken_check,
    twin,
)
from .expr import EvalDomainError, Jet2, ParseError, PointError, ScalarExpr, parse
from .family import (
    FamilyParams,
    build_family,
    preset,
    preset_structure,
    random_family,
)
from .fields import ChartDomain, MetricField, NonPositiveMetricError, OneFormField
from .fields import SingularMetricError, TensorField11, VectorField
from .report import ResidualReport

__version__ = "0.1.0"

__all__ = [
    "AcmStructure",
    "ChartDomain",
    "ClassificationReport",
    "CornerFields",
    "CornerFrame",
    "CONVENTION_BANNER",
    "DeformationParams",
    "DegenerateCornerError",
    "EvalDomainError",
    "FamilyParams",
    "Jet2",
    "MetricField",
    "NonPositiveFError",
    "NonPositiveMetricError",
    "OneFormField",
    "ParseError",
    "PointError",
    "ResidualReport",
    "ScalarExpr",
    "SingularMetricError",
    "TensorField11",
    "TwinKind",
    "VectorField",
    "build_family",
    "check_axioms",
    "classify",
    "closed_omega_check",
    "connection_table_residuals",
    "corner_residual",
    "corner_residual_forms",
    "corollary_gate",
    "deform",
    "deformed_type",
    "form_identities_residuals",
    "n1_tensor",
    "nijenhuis",
    "ntilde_identity_residual",
    "olszak_alpha_beta",
    "parse",
    "preset",
    "preset_structure",
    "random_family",
    "thcos_check",
    "thken_check",
    "trans_sasakian_residual",
    "twin",
]
