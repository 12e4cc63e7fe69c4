"""Certified norm estimates and quadratic-convergence iteration on scales
of Banach spaces: summable-sequence calculus, truncated power series with
tail bounds, weighted local operators with a Borel functional calculus,
and Newton / Nash-Moser / Lie iteration engines with per-step certificates."""

from .sequences import (
    PositiveSequence,
    bruno_check,
    bruno_transform,
    tame_check,
    model_iteration,
    lemma_rho,
)
from .series import TruncatedSeries
from .local_ops import (
    LocalOperator,
    WeightFunction,
    certify_vector_field,
    multiplication_operator,
    borel_apply,
    product_of_exponentials,
)
from .iterate import (
    RadiusSchedule,
    newton,
    nash_moser,
)
from .lie import (
    ActionProblem,
    LieState,
    LocalityExponents,
    lie_step,
    rho_schedule,
    certify,
    run_lie,
    involutive_quasi_inverse,
)
from .trace import IterationTrace, StepRecord

__version__ = "0.1.0"
