"""Dense statevector storage and local plane rotations for l sites of n levels.

Flat indexing is little-endian: site 0 is the least significant digit,
so a basis label with digits (d_0, ..., d_{l-1}) sits at flat index
sum_i d_i * n**i. All file formats and tests rely on this convention.
The check_* functions alone decide a valid shape (under one fixed
amplitude cap), norm, rotation and plane; each rejects NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce as _fold

import numpy as np

from .errors import CapacityError, InvalidIndexError, InvalidRotationError

#: Cap on the number of amplitudes any state may hold.
DEFAULT_SIZE_CAP = 2**26

#: Allowed deviation of the squared norm from 1 at construction time.
NORM_ATOL = 1e-10

#: Allowed max-entry deviation of rot @ rot^dagger from the identity.
UNITARITY_ATOL = 1e-10


def check_shape(n: int, l: int) -> int:
    """Require n >= 2, l >= 1 and n**l <= DEFAULT_SIZE_CAP; return n**l.
    Forms n**l only for l < 27: for n >= 2 a larger l is over the cap."""
    if n < 2 or l < 1:
        raise ValueError(f"need n >= 2 and l >= 1, got n={n}, l={l}")
    if l >= DEFAULT_SIZE_CAP.bit_length() or n**l > DEFAULT_SIZE_CAP:
        raise CapacityError(
            f"n**l = {n}**{l} exceeds the amplitude cap {DEFAULT_SIZE_CAP}")
    return n**l


def check_normalized(amps, what: str) -> None:
    """Require the squared norm of ``amps`` within NORM_ATOL of one."""
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm_sq - 1.0) <= NORM_ATOL:
        raise ValueError(f"{what} not normalized: squared norm {norm_sq!r} "
                         f"deviates from 1 by more than {NORM_ATOL}")


def check_unitary(entries) -> None:
    """Require each 2x2 matrix R of the complex (k, 2, 2) array ``entries``
    to have R R^dagger within UNITARITY_ATOL of the identity, entry by entry.
    A non-finite entry, or one whose square overflows, makes a NaN or
    infinite defect, which fails without a floating-point warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = entries @ np.swapaxes(entries, -1, -2).conj()
        defects = np.max(np.abs(gram - np.eye(2)), axis=(-2, -1))
    bad = np.flatnonzero(~(defects <= UNITARITY_ATOL))
    if bad.size:
        i = int(bad[0])
        raise InvalidRotationError(
            f"{bad.size} of {len(defects)} rotations not unitary; rotations[{i}] "
            f"has ||R R^dagger - I||_max = {defects[i]:.3e} > {UNITARITY_ATOL}")


def check_plane(n: int, l: int, site, level_a, level_b,
                what: str = "planes") -> None:
    """Require 0 <= site < l and 0 <= level_a < level_b < n elementwise
    over equal-length integer arrays; the error names the first failing
    plane as what[i]."""
    ok = np.asarray((0 <= site) & (site < l) & (0 <= level_a)
                    & (level_a < level_b) & (level_b < n), dtype=bool)
    if ok.all():
        return
    i = int(np.argmin(ok))
    raise ValueError(f"out-of-range plane in {what}[{i}]: site {site[i]}, "
                     f"levels ({level_a[i]}, {level_b[i]}) for n={n}, l={l}")


def index_encode(digits, n: int) -> int:
    """Map a digit tuple to its little-endian flat index.

    Raises InvalidIndexError if any digit falls outside [0, n).
    """
    flat = 0
    weight = 1
    for pos, d in enumerate(digits):
        d = int(d)
        if not 0 <= d < n:
            raise InvalidIndexError(
                f"digit {d} at site {pos} outside [0, {n})"
            )
        flat += d * weight
        weight *= n
    return flat


@dataclass
class PureState:
    """Normalized pure state of ``l`` subsystems with ``n`` levels each.

    ``amplitudes`` is a length ``n**l`` complex vector in little-endian
    flat order. Construction validates the shape and that the squared
    norm is within 1e-10 of one; operations in this package return new
    states and never mutate their inputs.
    """

    n: int
    l: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = check_shape(self.n, self.l)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (dim,):
            raise ValueError(
                f"expected {dim} amplitudes for n={self.n}, l={self.l}, "
                f"got shape {self.amplitudes.shape}"
            )
        check_normalized(self.amplitudes, "state")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def site_view(amps: np.ndarray, n: int, l: int, site: int) -> np.ndarray:
    """The (n**(l-1-site), n, n**site) view of a flat vector, whose middle
    axis is the digit at ``site``: the one map from a site to an axis."""
    return amps.reshape(n**(l - 1 - site), n, n**site)


def rotate_pair_inplace(amps: np.ndarray, n: int, l: int, site: int,
                        level_a: int, level_b: int,
                        m00, m01, m10, m11) -> None:
    """Mix rows level_a and level_b of ``site_view`` by the 2x2 matrix
    [[m00, m01], [m10, m11]], in place.

    Kernel of in-place elimination stages; contracted stages and trace
    inversion fold rotations into one unitary per site instead of
    replaying them through here. No argument validation here. ``amps``
    must be a contiguous length n**l complex vector.
    """
    v = site_view(amps, n, l, site)
    # Both rows copied: a strided row in the products costs more.
    va, vb = v[:, level_a].copy(), v[:, level_b].copy()
    v[:, level_a] = m00 * va + m01 * vb
    v[:, level_b] = m10 * va + m11 * vb


def random_state(n: int, l: int, seed: int) -> PureState:
    """Seeded Haar-like random state: iid standard-normal real and
    imaginary parts, then normalized.

    Uses numpy's default_rng (PCG64), so a given seed reproduces the
    same amplitudes on every run. Raises CapacityError when n**l
    exceeds DEFAULT_SIZE_CAP.
    """
    dim = check_shape(n, l)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    return PureState(n, l, amps)


def product_state(factors) -> PureState:
    """Tensor product of one normalized length-n vector per site.

    The amplitude at digits (d_0, ..., d_{l-1}) is the product of
    factors[i][d_i]; each factor must have squared norm within 1e-10
    of one. Raises CapacityError, before building anything, when n**l
    exceeds DEFAULT_SIZE_CAP.
    """
    factors = [np.asarray(f, dtype=np.complex128) for f in factors]
    if not factors:
        raise ValueError("need at least one site factor")
    n = factors[0].shape[0] if factors[0].ndim == 1 else 0
    if n < 2:
        raise ValueError("each factor must be a vector of length >= 2")
    for i, f in enumerate(factors):
        if f.shape != (n,):
            raise ValueError(
                f"factor {i} has shape {f.shape}, expected ({n},)"
            )
        check_normalized(f, f"factor {i}")
    check_shape(n, len(factors))
    # kron puts its first argument's index in the most significant slot,
    # so fold over factors in reverse to keep site 0 least significant.
    amps = _fold(np.kron, reversed(factors))
    return PureState(n, len(factors), amps)
