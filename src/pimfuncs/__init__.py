"""Transcendental-function kernels for multiply-poor hardware.

Backends: CORDIC (shift/add iterations in Q3.28), fuzzy lookup tables
(multiplier-, ldexp-, and bit-extraction-addressed), and a combined
CORDIC+LUT scheme.  An explicit operation-cost model makes the abstract
op mix of every evaluation observable.
"""

from .api import (EvaluatorConfig, Evaluator, FunctionId, MethodId,
                  NumberFormat, build_evaluator, config_for, supported)
from .costmodel import (DEFAULT_WEIGHTS, OpCounts, SetupReport, counting,
                        load_weights, weighted_cost)
from .errors import (DomainError, FixedOverflowError, PathError,
                     PimFuncsError, RangeError, TableFormatError,
                     UnsupportedCombinationError, WeightError)

__version__ = "0.1.0"

__all__ = [
    "EvaluatorConfig", "Evaluator", "FunctionId", "MethodId", "NumberFormat",
    "build_evaluator", "config_for", "supported",
    "DEFAULT_WEIGHTS", "OpCounts", "SetupReport", "counting", "load_weights",
    "weighted_cost",
    "DomainError", "FixedOverflowError", "PathError", "PimFuncsError",
    "RangeError", "TableFormatError", "UnsupportedCombinationError",
    "WeightError",
    "__version__",
]
