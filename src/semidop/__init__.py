"""semidop: semiclassical discrete orthogonal polynomials, verified.

High-precision recurrence data for discrete weights of hypergeometric Pearson
type via triangular factorization of Hankel moment matrices, the associated
structure matrices, and residual suites for the contiguous-relation, lattice,
flow, and KP identities they satisfy.
"""

from .errors import (
    DivergentSeries,
    IndexOutOfTable,
    InvalidShift,
    PreconditionError,
    SemidopError,
    SingularTruncation,
    TermBudgetExceeded,
    TruncationTooLarge,
    UndefinedWeight,
)
from .flows import (
    derivative_fd_crosscheck,
    fd_flow_derivative,
    tau_derivative,
)
from .moments import (
    CholeskyFactorization,
    FlowJet,
    MomentTable,
    PrecisionContext,
    cholesky,
    flow_jet,
    hankel_determinant,
    moment,
    moments_to_csv,
)
from .pipeline import WeightPipeline, clear_cache, get_pipeline
from .report import REGISTRY, Report, SuiteConfig, emit_report, run_suite
from .result import CheckResult
from .structure import (
    JacobiMatrix,
    jacobi_matrix,
    pascal_matrix,
    pascal_subdiagonal,
)
from .weights import (
    ConvergenceClass,
    HypergeometricWeight,
    PearsonPolynomials,
    Shift,
    classify_convergence,
    parse_weight_spec,
    pearson_polynomials,
    pochhammer,
    shift_parameter,
    weight_value,
)

__version__ = "0.1.0"
