"""Certified growth rates of multiplicative rewards on finite controlled chains.

The package computes the optimal exponential growth rate of expected
reward products over a finite controlled Markov chain three independent
ways -- a certified nonlinear power iteration, an occupation-measure
maximization, and Monte Carlo simulation -- and cross-checks them against
each other.
"""

__version__ = "0.1.0"

from .eigensolver import (
    EigenSolution,
    SweepPoint,
    apply_T,
    apply_Tn,
    cw_bounds,
    enumerate_policy_gains,
    epsilon_sweep,
    fixed_policy_gain,
    solve_eigen,
)
from .errors import (
    CertainExit,
    DanglingVertex,
    DimensionMismatch,
    GrowthcertError,
    NoConvergence,
    NonpositiveF,
    NonpositiveWealthFactor,
    NotConverged,
    NotDistribution,
    NotStochastic,
    ParseError,
    ReducibleGain,
    RowSumViolation,
    SchemaError,
    SingularChain,
    TooManyPolicies,
    ZeroDenominator,
    ZeroGainRow,
)
from .model import (
    FeasibilityReport,
    MdpModel,
    Policy,
    epsilon_model,
    gen_exit_model,
    gen_graph_model,
    gen_portfolio_model,
    load_model,
    save_model,
    validate,
)
from .montecarlo import GrowthEstimate, estimate_growth, sample_log_products, simulate
from .variational import (
    Certificate,
    OccupationMeasure,
    certificate_from_eigen,
    dual_bound,
    maximize,
    objective_psi0,
    random_feasible,
    relative_entropy,
    stationarity_residual,
    twisted_occupation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
