"""meanlab: generalized quasi-arithmetic means, Gauss composition, and
numeric verification of the functional equations they satisfy.

The quick tour:

    >>> from meanlab import builtin_system, composition_closed_form_check
    >>> report = composition_closed_form_check(builtin_system("x,2*x"), samples=20)
    >>> report.passed
    True

The numeric kernels are plain Python; see meanlab.kernels.
"""

from .bisymmetry import (
    CharacterizationVerdict,
    EquationReport,
    associativity_check,
    bisymmetry_check,
    characterize,
    gbs_for_mean_check,
    generalized_bisymmetry_check,
    random_matrix,
    validate_matrix,
)
from .cyclic import (
    MeanTypeMapping,
    PermutedMean,
    cyclic_mapping,
    rotated,
)
from .dsl import (
    Binary,
    Constant,
    Expr,
    Unary,
    Variable,
    compile_expr,
    parse,
    to_text,
)
from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    EvalError,
    MeanlabError,
    MonotonicityError,
    ParseError,
    RangeError,
    UsageError,
)
from .gauss import (
    CompositionCheckReport,
    GaussComposition,
    IterationTrace,
    composition_closed_form_check,
    cyclic_symmetry_check,
    gauss_iterate,
    invariance_residual,
    midpoint,
)
from .generator import (
    Generator,
    GeneratorSystem,
    MonotonicityReport,
    affine_fit,
    builtin_generator,
    builtin_generators,
    builtin_system,
    builtin_systems,
    check_monotone,
    sum_generators,
)
from .interval import Interval
from .kernels import active_backend, warm_up
from .means import (
    FunctionMean,
    GeneralizedQuasiArithmeticMean,
    Mean,
    QuasiArithmeticMean,
    arithmetic_mean,
    geometric_mean,
    gqam_equality_check,
    gqam_eval,
    lehmer_mean,
    mean_property_check,
    minmax_blend,
    qam_equality_check,
    qam_eval,
    reflexivity_check,
)

__version__ = "0.1.0"

__all__ = [
    "Binary",
    "CharacterizationVerdict",
    "CompositionCheckReport",
    "Constant",
    "ConvergenceError",
    "DegenerateError",
    "DomainError",
    "EquationReport",
    "EvalError",
    "Expr",
    "FunctionMean",
    "GaussComposition",
    "GeneralizedQuasiArithmeticMean",
    "Generator",
    "GeneratorSystem",
    "Interval",
    "IterationTrace",
    "Mean",
    "MeanTypeMapping",
    "MeanlabError",
    "MonotonicityError",
    "MonotonicityReport",
    "ParseError",
    "PermutedMean",
    "QuasiArithmeticMean",
    "RangeError",
    "Unary",
    "UsageError",
    "Variable",
    "active_backend",
    "affine_fit",
    "arithmetic_mean",
    "associativity_check",
    "bisymmetry_check",
    "builtin_generator",
    "builtin_generators",
    "builtin_system",
    "builtin_systems",
    "characterize",
    "check_monotone",
    "compile_expr",
    "composition_closed_form_check",
    "cyclic_mapping",
    "cyclic_symmetry_check",
    "gauss_iterate",
    "gbs_for_mean_check",
    "generalized_bisymmetry_check",
    "geometric_mean",
    "gqam_equality_check",
    "gqam_eval",
    "invariance_residual",
    "lehmer_mean",
    "mean_property_check",
    "midpoint",
    "minmax_blend",
    "parse",
    "qam_equality_check",
    "qam_eval",
    "random_matrix",
    "reflexivity_check",
    "rotated",
    "sum_generators",
    "to_text",
    "validate_matrix",
    "warm_up",
]
