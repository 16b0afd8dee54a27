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
    stage_targets,
    support_count,
    term_bound,
    zeroing_rotation,
)
from .spectral import (
    hermitian_eigenvalues,
    reduced_density,
    schmidt_coefficients,
)
from .state import (
    PureState,
    apply_plane_rotation,
    index_decode,
    index_encode,
    product_state,
    random_state,
)

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
    "apply_plane_rotation",
    "hermitian_eigenvalues",
    "index_decode",
    "index_encode",
    "invert_trace",
    "product_state",
    "random_state",
    "reduce",
    "reduced_density",
    "schmidt_coefficients",
    "stage_targets",
    "support_count",
    "term_bound",
    "zeroing_rotation",
]
