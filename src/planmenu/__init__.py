"""planmenu: profit-maximizing menus of period-priced data plans.

Consumers differ in demand volatility; plans differ in service period
(how long unused allowance survives).  The package finds the menu of
(period, price) items maximizing provider profit while every consumer
truthfully self-selects, for finitely many types and for continuous
type distributions, and ships independent verification oracles.
"""

from .discrete import DiscreteSolution, FeasibilityReport, feasibility_check, optimal_prices, solve_discrete
from .distributions import ContinuousMarket, DiscreteMarket, Theorem3Report
from .grouped import GroupedSolution, solve_with_restarts
from .market import (
    CostModel,
    DemandProfile,
    cost,
    valuation,
    valuation_dsigma,
    valuation_dsigma_dt,
    valuation_dt,
)
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
