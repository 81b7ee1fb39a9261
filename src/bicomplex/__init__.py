"""Bicomplex numbers: arithmetic, exponentials, series and products.

The commutative four-dimensional extension of the complex numbers with
two independent imaginary units i1 and i2 and the hyperbolic unit
j = i1*i2. Unlike the quaternions it keeps commutativity at the price
of zero divisors, which every numeric routine here treats as the
primary hazard.

The public names are resolved lazily (PEP 562): ``import bicomplex``
loads none of the modules below, and a name imports its home module
the first time it is read.
"""

# home module -> the public names the package takes from it
_EXPORTS = {
    "core": "Bicomplex Duplex IdempotentPair NormInfo SingularityVerdict SingularOperand"
            " SingularTerm NonFiniteError ZERO ONE I1 I2 J E1 E2 SINGULARITY_TOLERANCE",
    "transcendental": "exp sqrt log_principal log_principal_direct log_branch log1p"
                      " trig_form TrigForm BranchIndex exp_lattice_coords BoundCheck"
                      " log_bound_check",
    "series": "SeriesReport partial_sums analyze_series eval_power_series",
    "products": "ProductReport LogSumReport AbsoluteReport ProductAnalysis partial_products"
                " evaluate_product log_sum_equivalence absolute_convergence_check analyze_product",
    "seqspec": "ParseError parse render eval_term term_generator",
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule also binds it as an attribute here
        return __import__(name, globals(), level=1)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(_HOME[name], globals(), level=1), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
