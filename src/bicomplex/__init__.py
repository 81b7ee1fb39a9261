"""Bicomplex numbers: arithmetic, exponentials, series and products.

The commutative four-dimensional extension of the complex numbers with
two independent imaginary units i1 and i2 and the hyperbolic unit
j = i1*i2. Unlike the quaternions it keeps commutativity at the price
of zero divisors, which every numeric routine here treats as the
primary hazard.
"""

from .core import (
    E1,
    E2,
    I1,
    I2,
    J,
    ONE,
    SINGULARITY_TOLERANCE,
    ZERO,
    Bicomplex,
    Duplex,
    IdempotentPair,
    NonFiniteError,
    NormInfo,
    SingularityVerdict,
    SingularOperand,
)
from .products import (
    AbsoluteReport,
    BoundCheck,
    LogSumReport,
    ProductAnalysis,
    ProductReport,
    SingularTerm,
    absolute_convergence_check,
    analyze_product,
    evaluate_product,
    log_bound_check,
    log_sum_equivalence,
    partial_products,
)
from .series import (
    SeriesReport,
    analyze_series,
    eval_power_series,
    partial_sums,
)
from .seqspec import (
    ParseError,
    eval_term,
    parse,
    render,
    term_generator,
)
from .transcendental import (
    BranchIndex,
    TrigForm,
    exp,
    exp_lattice_coords,
    log1p,
    log_branch,
    log_principal,
    log_principal_direct,
    sqrt,
    trig_form,
)

__version__ = "0.1.0"

__all__ = [
    "Bicomplex",
    "Duplex",
    "IdempotentPair",
    "NormInfo",
    "SingularityVerdict",
    "SingularOperand",
    "NonFiniteError",
    "SingularTerm",
    "ParseError",
    "ZERO",
    "ONE",
    "I1",
    "I2",
    "J",
    "E1",
    "E2",
    "SINGULARITY_TOLERANCE",
    "exp",
    "sqrt",
    "log_principal",
    "log_principal_direct",
    "log_branch",
    "log1p",
    "trig_form",
    "TrigForm",
    "BranchIndex",
    "exp_lattice_coords",
    "SeriesReport",
    "partial_sums",
    "analyze_series",
    "eval_power_series",
    "ProductReport",
    "LogSumReport",
    "AbsoluteReport",
    "ProductAnalysis",
    "BoundCheck",
    "partial_products",
    "evaluate_product",
    "log_sum_equivalence",
    "absolute_convergence_check",
    "analyze_product",
    "log_bound_check",
    "parse",
    "render",
    "eval_term",
    "term_generator",
    "__version__",
]
