"""Intuitionistic fuzzy matrix powers under max-mean/min-mean operators:
composition, convergence to the limit matrix, critical-path analysis,
and a brute-force differential oracle."""

from .errors import (
    BadPathError,
    BudgetExceededError,
    DimensionMismatchError,
    DomainError,
    IfmError,
    MismatchFoundError,
    NotDominatedError,
    OutOfRangeError,
    ParseError,
    SumViolationError,
    ValidationError,
    ZeroPError,
)
from .graph import (
    CriticalStructure,
    PathSpec,
    critical_structure,
    export_dot,
    path_weight_gen,
    path_weight_star,
    predict_column_limits,
    predict_universal,
)
from .ifn import (
    ComponentPair,
    Ifn,
    dominance_leq,
    gen_mean_pair,
    gen_mean_scalar,
    ifn_diff,
    scalar_mult,
    star_scalar,
)
from .matrix import (
    ConvergenceReport,
    ConvexCombo,
    GeneralizedMean,
    Ifm,
    arith_mean,
    compose,
    convex_mean,
    delta,
    harmonic,
    is_universal,
    power,
    power_sequence,
    root_power,
    row_uniformity,
    step_bound,
)
from .oracle import (
    DifferentialReport,
    OracleBudget,
    brute_force_power,
    differential_check,
    random_ifm,
)

__version__ = "0.1.0"
