"""planmenu: profit-maximizing menus of period-priced data plans.

Consumers differ in demand volatility; plans differ in service period
(how long unused allowance survives).  The package finds the menu of
(period, price) items maximizing provider profit while every consumer
truthfully self-selects, for finitely many types and for continuous
type distributions, and ships independent verification oracles.
"""

__version__ = "0.1.0"
