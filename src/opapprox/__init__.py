"""Solvers and certificates for weighted least squares, abstract spline
interpolation, and smoothing over finite-dimensional complex Hilbert spaces.

Each existence theorem in the underlying theory becomes an executable
equivalence check, and each closed-form minimum an oracle-verifiable
computation.
"""

from .errors import (
    DimensionError,
    EquivalenceViolation,
    InconsistentDims,
    NoMinimum,
    NotInRange,
    NotPsd,
    OpApproxError,
    ParseError,
    UnsupportedIndex,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    ensure_psd_weight,
    full_subspace,
    matrix_rank,
    null_basis,
    pinv,
    psd_sqrt,
    range_basis,
    range_included,
    trivial_subspace,
)
from .schatten import PolarPair, frechet_gp, polar, schatten_norm, weighted_schatten_norm
from .shorted import CompatCertificate, is_compatible, shorted, w_orthogonal_complement
from .wls import WlsReport, owls_min, w_inverse, wls_existence_report, wlss_solve
from .spline import (
    SplineEquivalenceReport,
    SplineSolution,
    global_spline_solution,
    is_abstract_spline,
    operator_spline_min,
    spline_equivalence_report,
    spline_solve,
)
from .smoothing import (
    BlockWeight,
    HatEquivalenceReport,
    SmoothingEquivalenceReport,
    SmoothingSolution,
    hat_equivalence_check,
    hat_lift,
    operator_smoothing_min,
    optimal_inverse,
    smoothing_equivalence_report,
    smoothing_solve,
)
from . import oracles

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "BlockWeight",
    "CompatCertificate",
    "DimensionError",
    "EquivalenceViolation",
    "HatEquivalenceReport",
    "InconsistentDims",
    "NoMinimum",
    "NotInRange",
    "NotPsd",
    "OpApproxError",
    "ParseError",
    "PolarPair",
    "SmoothingEquivalenceReport",
    "SmoothingSolution",
    "SplineEquivalenceReport",
    "SplineSolution",
    "Subspace",
    "Tolerances",
    "UnsupportedIndex",
    "WlsReport",
    "ensure_psd_weight",
    "frechet_gp",
    "full_subspace",
    "global_spline_solution",
    "hat_equivalence_check",
    "hat_lift",
    "is_abstract_spline",
    "is_compatible",
    "matrix_rank",
    "null_basis",
    "operator_smoothing_min",
    "operator_spline_min",
    "optimal_inverse",
    "oracles",
    "owls_min",
    "pinv",
    "polar",
    "psd_sqrt",
    "range_basis",
    "range_included",
    "schatten_norm",
    "shorted",
    "smoothing_equivalence_report",
    "smoothing_solve",
    "spline_equivalence_report",
    "spline_solve",
    "trivial_subspace",
    "w_inverse",
    "w_orthogonal_complement",
    "weighted_schatten_norm",
    "wls_existence_report",
    "wlss_solve",
]
