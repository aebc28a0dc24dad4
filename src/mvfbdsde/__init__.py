"""Particle-based solver and verification lab for coupled two-driver
mean-field forward-backward systems."""

from .measure import (
    EmpiricalLaw,
    MeanW2Bounds,
    check_mean_w2_bounds,
    wasserstein2,
)
from .model import (
    CoefficientSet,
    Dimensions,
    EnsembleState,
    Forcing,
    HomotopyProblem,
    LinearTables,
    Quad,
    ResidualTriple,
    builtin_counterexample,
    builtin_example_meanfield,
    eval_system,
    linear_coefficient_set,
    residual,
)
from .paths import (
    BrownianPair,
    ProcessSpec,
    TimeGrid,
    backward_ito_integral,
    discrete_ito_product_check,
    forward_ito_integral,
    sample_driver_pair,
)
from .solver import (
    RegressionConfig,
    SolveReport,
    SolverError,
    continuation_solve,
    d_metric,
    detect_nonuniqueness,
    linear_base_solve,
    moment_ode_oracle,
    picard_solve,
    solve_decoupled_step,
)
from .assumptions import (
    AssumptionReport,
    PairSampler,
    check_control_assumptions,
    check_integrability,
    check_monotonicity,
    estimate_lipschitz,
)
from .control import (
    ControlProblem,
    FeedbackControl,
    build_adjoint_coefficients,
    estimate_cost,
    first_order_candidate,
    gradient_consistency,
    hamiltonian,
    l_derivative,
    lq_control_scenario,
    lq_deterministic_oracle,
    solve_adjoint,
    verify_smp,
)
from .config import ScenarioConfig

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
