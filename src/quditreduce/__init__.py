"""Reduce multipartite pure states to few product-basis terms with
recorded local plane rotations, plus an independent Schmidt-coefficient
oracle for the bipartite case."""

from .errors import (
    CapacityError,
    InternalConsistencyError,
    InvalidIndexError,
    InvalidRotationError,
    NonConvergenceError,
    OracleFailureError,
)
from .reduction import (
    DecompositionTrace,
    invert_trace,
    reduce,
    term_bound,
)
from .spectral import schmidt_coefficients
from .state import PureState, product_state, random_state

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DecompositionTrace",
    "InternalConsistencyError",
    "InvalidIndexError",
    "InvalidRotationError",
    "NonConvergenceError",
    "OracleFailureError",
    "PureState",
    "invert_trace",
    "product_state",
    "random_state",
    "reduce",
    "schmidt_coefficients",
    "term_bound",
]
