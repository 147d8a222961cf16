"""Transcendental-function kernels for multiply-poor hardware.

Backends: CORDIC (shift/add iterations in Q3.28), fuzzy lookup tables
(multiplier-, ldexp-, and bit-extraction-addressed), and a combined
CORDIC+LUT scheme.  An explicit operation-cost model makes the abstract
op mix of every evaluation observable.
"""

from .api import (EvaluatorConfig, Evaluator, FunctionId, MethodId,
                  NumberFormat, build_evaluator, supported)
from .costmodel import (DEFAULT_WEIGHTS, OpCounts, SetupReport, counting,
                        load_weights, weighted_cost, with_counting)
from .errors import (DomainError, FixedOverflowError, PimFuncsError,
                     RangeError, TableFormatError,
                     UnsupportedCombinationError)
from .fixedpoint import FixedQ3_28, ldexp32, split_float, to_fixed, to_float

__version__ = "0.1.0"

__all__ = [
    "EvaluatorConfig", "Evaluator", "FunctionId", "MethodId", "NumberFormat",
    "build_evaluator", "supported",
    "DEFAULT_WEIGHTS", "OpCounts", "SetupReport", "counting", "load_weights",
    "weighted_cost", "with_counting",
    "DomainError", "FixedOverflowError", "PimFuncsError", "RangeError",
    "TableFormatError", "UnsupportedCombinationError",
    "FixedQ3_28", "ldexp32", "split_float", "to_fixed", "to_float",
    "__version__",
]
