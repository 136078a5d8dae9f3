"""sddelab: a simulation laboratory for mixed stochastic delay differential
equations driven jointly by a Wiener process and a Holder-continuous process
(fractional Brownian motion with Hurst index above one half).

The package provides exact noise samplers, the fractional-calculus norms and
integrals used in the pathwise analysis of such equations, Euler-type
time-stepping schemes, and a Monte Carlo harness that turns the qualitative
convergence statements about these equations into falsifiable statistical
checks.
"""

from .grid import GridPath, SeedSpec
from .drivers import FbmParams, fbm_covariance, sample_fbm, sample_wiener
from .fraccalc import (
    DelayNormBundle,
    NormBundle,
    backward_rl_derivative,
    delay_norms,
    forward_rl_derivative,
    fractional_norms,
    gls_integral,
    holder_seminorm,
    riemann_stieltjes_integral,
    young_love_bound,
)
from .core import (
    CoeffBlock,
    CoefficientSpec,
    HolderParams,
    InitialCondition,
    Segment,
    check_assumptions,
    constant_initial,
    eval_coefficient,
    geometric_spec,
    pointwise_delay_spec,
    segment_at,
)
from .solver import (
    GuardedDriver,
    MollifiedDrift,
    SolverConfig,
    euler_ito_sdde,
    euler_mixed_sdde,
    geometric_closed_form,
    mollify_driver,
)
from .experiments import (
    ConvergenceReport,
    ExperimentConfig,
    MomentReport,
    QuasiReport,
    estimate_exceedance,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "FbmParams",
    "GridPath",
    "SeedSpec",
    "fbm_covariance",
    "holder_seminorm",
    "sample_fbm",
    "sample_wiener",
    "NormBundle",
    "DelayNormBundle",
    "forward_rl_derivative",
    "backward_rl_derivative",
    "gls_integral",
    "riemann_stieltjes_integral",
    "young_love_bound",
    "fractional_norms",
    "delay_norms",
    "CoeffBlock",
    "CoefficientSpec",
    "HolderParams",
    "InitialCondition",
    "Segment",
    "check_assumptions",
    "constant_initial",
    "eval_coefficient",
    "geometric_spec",
    "pointwise_delay_spec",
    "segment_at",
    "GuardedDriver",
    "MollifiedDrift",
    "SolverConfig",
    "euler_ito_sdde",
    "euler_mixed_sdde",
    "geometric_closed_form",
    "mollify_driver",
    "ConvergenceReport",
    "ExperimentConfig",
    "MomentReport",
    "QuasiReport",
    "estimate_exceedance",
    "run_experiment",
    "__version__",
]
