"""Learning components: regressors, policies, forecasting and strategy."""
from .forecast import TrafficForecaster
from .gpr import GprRegressor
from .mlp import Mlp

__all__ = ["TrafficForecaster", "GprRegressor", "Mlp"]
