"""promo-gym: tabular Q-learning toolkit and retail promo-forecasting simulator.

Import each name from its own module; the package re-exports nothing."""

__version__ = "0.1.0"
