"""Exact finite-dimensional representation toolkit for a rank-one tridiagonal
algebra with bidiagonal generators.

Everything is computed over Fraction, so every verification either holds on
the nose or reports the exact offending entry.
"""

from .algebra import (
    Params,
    build_V,
    build_X,
    build_Z,
    build_transposes,
    central_params,
    check_casimir_central,
    check_defining_relations,
    check_subalgebras,
    validate_params,
)
from .eigenbases import (
    BasisFamily,
    Context,
    LABELS,
    build_basis,
    check_orthogonality,
    eigenvalue,
    oracle_basis,
)
from .errors import (
    DegenerateParameters,
    NondegenerateSpectrumViolated,
    PreconditionViolated,
)
from .hyper import pochhammer, terminating_hyp, whipple_check
from .matrices import RationalMatrix, anticommutator, commutator, dot
from .matrixreps import verify_coefficients, verify_leonard_trio
from .racahpoly import (
    RacahParams,
    closed_form_S,
    closed_form_Stilde,
    racah,
    verify_racah,
)
from .rationalfns import (
    calU,
    calU_tilde,
    closed_form_U,
    closed_form_Utilde,
    dual_hahn,
    hahn_limit_check,
    verify_rational,
)
from .diffmodel import (
    DiffOp,
    LaurentPoly,
    residue_pair,
    verify_model,
)
from .report import Check, VerificationReport

__all__ = [
    "BasisFamily",
    "Check",
    "Context",
    "DegenerateParameters",
    "DiffOp",
    "LABELS",
    "LaurentPoly",
    "NondegenerateSpectrumViolated",
    "Params",
    "PreconditionViolated",
    "RacahParams",
    "RationalMatrix",
    "VerificationReport",
    "anticommutator",
    "build_V",
    "build_X",
    "build_Z",
    "build_basis",
    "build_transposes",
    "calU",
    "calU_tilde",
    "central_params",
    "check_casimir_central",
    "check_defining_relations",
    "check_orthogonality",
    "check_subalgebras",
    "closed_form_S",
    "closed_form_Stilde",
    "closed_form_U",
    "closed_form_Utilde",
    "commutator",
    "dot",
    "dual_hahn",
    "eigenvalue",
    "hahn_limit_check",
    "oracle_basis",
    "pochhammer",
    "racah",
    "residue_pair",
    "terminating_hyp",
    "validate_params",
    "verify_coefficients",
    "verify_leonard_trio",
    "verify_model",
    "verify_racah",
    "verify_rational",
    "whipple_check",
]

__version__ = "0.1.0"
