"""planmenu: profit-maximizing menus of period-priced data plans.

Consumers differ in demand volatility; plans differ in service period
(how long unused allowance survives).  The package finds the menu of
(period, price) items maximizing provider profit while every consumer
truthfully self-selects, for finitely many types and for continuous
type distributions, and ships independent verification oracles.
"""

from .discrete import (
    DiscreteSolution,
    FeasibilityReport,
    feasibility_check,
    maximize_concave,
    optimal_prices,
    repair_monotone,
    solve_discrete,
    type_objective,
)
from .distributions import ContinuousMarket, DiscreteMarket, Theorem3Report
from .grouped import (
    GroupedSolution,
    boundary_objective,
    group_counts,
    h_function,
    maximize_unimodal,
    optimal_prices_grouped,
    solve_alternating,
    solve_with_restarts,
    step1_periods,
    step2_boundaries,
)
from .market import (
    CostModel,
    DemandProfile,
    cost,
    valuation,
    valuation_dsigma,
    valuation_dsigma_dt,
    valuation_dt,
)
from .normals import expected_excess, std_normal_cdf, std_normal_pdf
from .oracles import (
    ComparisonReport,
    FeasibilityCertificate,
    SocialReport,
    brute_force_ic_ir,
    build_comparison,
    fixed_period_baseline,
    grid_oracle_discrete,
    grid_oracle_grouped,
    monte_carlo_valuation,
    social_metrics,
)
from .scenarios import Scenario, load_scenario

__version__ = "0.1.0"
