"""Exact finite-dimensional representation toolkit for a rank-one tridiagonal
algebra with bidiagonal generators.

Everything is computed over Fraction, so every verification either holds on
the nose or reports the exact offending entry.
"""

from types import ModuleType as _ModuleType

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

# The public API is what the imports above bind, less the submodules they
# bind on the package as a side effect.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

__version__ = "0.1.0"
