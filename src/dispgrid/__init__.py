"""Dispersion-certified point sets on dyadic grids.

Construction of point sets in [0,1]^d whose dispersion (largest empty
axis-parallel box volume) is provably at most 2^-k, together with the exact
empty-box oracle, the box-class certificate machinery, probability and
counting audits, and closed-form sample-size bounds.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundsRow,
    bounds_table,
    dispersion_lower_bound,
    dispersion_upper_bound,
    n_required,
    points_for_dispersion,
    points_for_dispersion_coarse,
    points_for_dispersion_lineardim,
)
from .construct import (
    RNG_SCHEME,
    CertificateResult,
    CertificationError,
    GeneratedSet,
    MinNSearch,
    MonteCarloSummary,
    SearchLimitExceeded,
    certify_dispersion,
    empirical_min_n,
    full_grid,
    generate_certified,
    monte_carlo_success,
    sample_grid_points,
    wilson_interval,
)
from .empty_box import (
    Box,
    DispersionResult,
    ThresholdWitness,
    has_empty_box_above,
    largest_empty_box,
)
from .grid import (
    GRID_REPR,
    REAL_REPR,
    GridParams,
    PointSet,
    k_from_epsilon,
)
from .guards import GuardExceeded
from .partition import (
    BoxClass,
    CoreBox,
    CountAudit,
    anchor_formula_count,
    classify_box,
    count_audit,
    enumerate_feasible_classes,
    ln_class_count_bound,
    short_side_threshold,
)
from .pointset_io import PointSetParseError, read_point_set, write_point_set
from .probability import (
    FactorInequalityCheck,
    HitProbabilityAudit,
    audit_hit_probabilities,
    check_hit_factor_inequality,
    class_miss_probability_bound,
    exact_failure_probability,
    hit_factor_lhs,
    hit_probability,
    ln_union_failure_bound,
    ln_union_failure_bound_crude,
    min_hit_probability_bound,
)

__all__ = [
    "__version__",
    "GRID_REPR",
    "REAL_REPR",
    "RNG_SCHEME",
    "BoundsRow",
    "Box",
    "BoxClass",
    "CertificateResult",
    "CertificationError",
    "CoreBox",
    "CountAudit",
    "DispersionResult",
    "FactorInequalityCheck",
    "GeneratedSet",
    "GridParams",
    "GuardExceeded",
    "HitProbabilityAudit",
    "MinNSearch",
    "MonteCarloSummary",
    "PointSet",
    "PointSetParseError",
    "SearchLimitExceeded",
    "ThresholdWitness",
    "anchor_formula_count",
    "audit_hit_probabilities",
    "bounds_table",
    "certify_dispersion",
    "check_hit_factor_inequality",
    "class_miss_probability_bound",
    "classify_box",
    "count_audit",
    "dispersion_lower_bound",
    "dispersion_upper_bound",
    "empirical_min_n",
    "enumerate_feasible_classes",
    "exact_failure_probability",
    "full_grid",
    "generate_certified",
    "has_empty_box_above",
    "hit_factor_lhs",
    "hit_probability",
    "k_from_epsilon",
    "largest_empty_box",
    "ln_class_count_bound",
    "ln_union_failure_bound",
    "ln_union_failure_bound_crude",
    "min_hit_probability_bound",
    "monte_carlo_success",
    "n_required",
    "points_for_dispersion",
    "points_for_dispersion_coarse",
    "points_for_dispersion_lineardim",
    "read_point_set",
    "sample_grid_points",
    "short_side_threshold",
    "wilson_interval",
    "write_point_set",
]
