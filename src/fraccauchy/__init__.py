"""Solvers for distributed-order fractional Cauchy problems.

The problems are driven by a leading fractional order plus a finite atomic
measure of lower orders, with matrix or Fourier-multiplier operators.  The
package provides several independent solution routes for them: the
representation formula and the Duhamel variants on Mittag-Leffler and
Talbot-contour solution kernels, and two time-stepping oracles.  Beside them
sit the fractional derivatives the routes need, the kernels and the
Mittag-Leffler function themselves, and the problem-file CLI.
"""

from .errors import (
    BlowupError,
    CapabilityError,
    DomainError,
    FlavorError,
    FracCauchyError,
    GridMismatchError,
    InversionError,
    OrderDomainError,
    PreconditionError,
    SchemaError,
    StepSolveError,
)
from .fracops import caputo_derivative_at, rl_derivative_at
from .grids import ScalarPath, TimeGrid
from .kernels import (
    Atom,
    OrderMeasure,
    c_beta,
    c_beta_path,
    char_eval,
    solution_symbol_path,
)
from .ml import mittag_leffler, ml_array
from .operators import FourierMultiplier, MatrixOperator, SpectralOperator
from .problems import (
    CAPUTO,
    RIEMANN_LIOUVILLE,
    CauchyProblem,
    ErrorReport,
    Forcing,
    SolutionPath,
    compare,
)
from .profiles import (
    Constant,
    Cosine,
    Exponential,
    FunctionSpec,
    Polynomial,
    Power,
    Sampled,
    Sine,
)
from .solver import (
    duhamel_caputo,
    duhamel_caputo_zero,
    duhamel_integer,
    duhamel_rl,
    operator_residual,
    oracle_caputo,
    oracle_rl,
    solve_homogeneous,
    solve_repr,
)
from .symbols import (
    ExponentialSymbol,
    PolynomialSymbol,
    PowerSymbol,
    RationalSymbol,
    SymbolFunction,
    identity_symbol,
)

__version__ = "0.1.0"

__all__ = [
    "TimeGrid",
    "ScalarPath",
    "Constant",
    "Power",
    "Polynomial",
    "Exponential",
    "Sine",
    "Cosine",
    "Sampled",
    "FunctionSpec",
    "rl_derivative_at",
    "caputo_derivative_at",
    "SymbolFunction",
    "PolynomialSymbol",
    "PowerSymbol",
    "ExponentialSymbol",
    "RationalSymbol",
    "identity_symbol",
    "SpectralOperator",
    "MatrixOperator",
    "FourierMultiplier",
    "mittag_leffler",
    "ml_array",
    "Atom",
    "OrderMeasure",
    "char_eval",
    "c_beta",
    "c_beta_path",
    "solution_symbol_path",
    "CAPUTO",
    "RIEMANN_LIOUVILLE",
    "CauchyProblem",
    "Forcing",
    "SolutionPath",
    "ErrorReport",
    "compare",
    "solve_homogeneous",
    "solve_repr",
    "duhamel_integer",
    "duhamel_caputo",
    "duhamel_caputo_zero",
    "duhamel_rl",
    "oracle_caputo",
    "oracle_rl",
    "operator_residual",
    "FracCauchyError",
    "OrderDomainError",
    "GridMismatchError",
    "CapabilityError",
    "BlowupError",
    "DomainError",
    "InversionError",
    "FlavorError",
    "PreconditionError",
    "StepSolveError",
    "SchemaError",
]
