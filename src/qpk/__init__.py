"""Equilibria, admission pricing, and sensitivity-law estimation for a
two-server queueing system with heterogeneous, non-balking customers.

Customers arrive at a total rate lam, each carrying a delay-cost
coefficient drawn from a known or unknown distribution, and pick the
server minimizing price + coefficient * mean delay. The package computes
the resulting equilibrium splits, the revenue-optimal admission prices in
monopoly and duopoly settings, and nonparametric / parametric estimates
of the coefficient distribution from price sweeps.
"""

from .duopoly import (BestResponse, NashOutcome, NashVerdict, best_response,
                      check_symmetric_nash, nash_iterate, symmetric_alpha)
from .errors import (ConfigError, DegenerateError, DomainError,
                     InsufficientDataError, NoRootError, PreconditionError,
                     QpkError, StabilityError, ValidationError)
from .estimation import (DensityEstimate, DiscreteClasses, ExponentialFit,
                         Measurement, ParametricFit, des_oracle,
                         discover_classes, discrete_class_oracle,
                         estimate_density, estimate_exponential,
                         estimate_parametric, exact_oracle, infer_threshold,
                         noisy_oracle)
from .models import (DelayFamily, DelayModel, Exponential, Gamma, Power,
                     SensitivityDistribution, SystemConfig, Uniform, cdf,
                     config_from_json, config_to_json, delay_deriv,
                     delay_eval, density, quantile, validate_config)
from .monopoly import MonopolyResult, optimize_monopoly, revenue_curve
from .wardrop import (EquilibriumSplit, PriceVector, Regime, balanced_load,
                      choke_price_1, kernel_choice, price_gap_1,
                      price_gap_1_deriv, price_gap_2, price_gap_2_deriv,
                      price_of_rate_1, price_of_rate_2, rate_cap_1,
                      rate_cap_2, revenue_rates, solve_equilibrium,
                      threshold_of_rate)

__version__ = "0.1.0"

__all__ = [
    "BestResponse", "ConfigError", "DegenerateError", "DelayFamily",
    "DelayModel", "DensityEstimate", "DiscreteClasses", "DomainError",
    "EquilibriumSplit", "Exponential", "ExponentialFit", "Gamma",
    "InsufficientDataError", "Measurement", "MonopolyResult", "NashOutcome",
    "NashVerdict", "NoRootError", "ParametricFit", "Power",
    "PreconditionError", "PriceVector", "QpkError", "Regime",
    "SensitivityDistribution", "StabilityError", "SystemConfig",
    "Uniform", "ValidationError", "balanced_load",
    "best_response", "cdf", "check_symmetric_nash", "choke_price_1",
    "config_from_json", "config_to_json", "delay_deriv", "delay_eval",
    "density", "des_oracle", "discover_classes", "discrete_class_oracle",
    "estimate_density", "estimate_exponential", "estimate_parametric",
    "exact_oracle", "infer_threshold", "kernel_choice", "nash_iterate",
    "noisy_oracle", "optimize_monopoly", "price_gap_1", "price_gap_1_deriv",
    "price_gap_2", "price_gap_2_deriv", "price_of_rate_1", "price_of_rate_2",
    "quantile", "rate_cap_1", "rate_cap_2", "revenue_curve", "revenue_rates",
    "solve_equilibrium", "symmetric_alpha", "threshold_of_rate",
    "validate_config",
]
