"""Schmidt coefficients of bipartite states via an independent eigensolver.

This module certifies the reduction path without sharing code with it:
Schmidt coefficients are obtained as square roots of the eigenvalues of
the reduced density matrix, and the eigenvalues come from a hand-rolled
cyclic Jacobi diagonalization rather than the elimination kernel or a
library call. Jacobi sweeps converge reliably at the matrix sizes this
package targets (n up to a few dozen).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleFailureError
from .state import PureState

#: Off-diagonal Frobenius norm at which sweeps stop.
SWEEP_TOL = 1e-14
MAX_SWEEPS = 100
#: Residual above which the solver is considered to have failed.
FAILURE_RESIDUAL = 1e-12


@dataclass
class SpectralResult:
    """Schmidt coefficients sorted descending, plus the eigensolver's
    final off-diagonal residual."""

    schmidt_coefficients: np.ndarray
    off_diagonal_residual: float


def reduced_density(state: PureState) -> np.ndarray:
    """Single-site density matrix M @ M^dagger of a bipartite state,
    where M[a, b] is the amplitude at digits (a, b).

    Hermitian, positive semidefinite, unit trace for normalized input.
    """
    if state.l != 2:
        raise ValueError(f"reduced_density needs l = 2, got l = {state.l}")
    n = state.n
    # Little-endian flat order puts digit b of site 1 in the slow axis.
    m = state.amplitudes.reshape(n, n).T
    return m @ m.conj().T


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _rotate_out(a: np.ndarray, p: int, q: int) -> None:
    """Unitary similarity zeroing a[p, q] (and a[q, p]), in place."""
    g = a[p, q]
    if abs(g) < 1e-300:
        return
    alpha = a[p, p].real
    beta = a[q, q].real
    mag = abs(g)
    phase = g / mag
    tau = (beta - alpha) / (2.0 * mag)
    if tau >= 0.0:
        t = -1.0 / (tau + math.hypot(1.0, tau))
    else:
        t = 1.0 / (-tau + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p + s * phase.conjugate() * col_q
    a[:, q] = -s * phase * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p + s * phase * row_q
    a[q, :] = -s * phase.conjugate() * row_p + c * row_q

    # Set the rotated pair exactly from the closed forms.
    a[p, p] = alpha * c * c + 2.0 * mag * c * s + beta * s * s
    a[q, q] = alpha * s * s - 2.0 * mag * c * s + beta * c * c
    a[p, q] = 0.0
    a[q, p] = 0.0


def hermitian_eigenvalues(matrix):
    """Eigenvalues of a Hermitian matrix by cyclic-by-rows Jacobi sweeps.

    Sweeps rotate away every off-diagonal pair in turn until the
    off-diagonal Frobenius norm drops below SWEEP_TOL or MAX_SWEEPS
    is reached. Returns (eigenvalues in diagonal order, final residual);
    never raises on slow convergence, callers judge the residual.
    """
    a = np.array(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    residual = _offdiag_norm(a)
    sweeps = 0
    while residual >= SWEEP_TOL and sweeps < MAX_SWEEPS:
        for p in range(m - 1):
            for q in range(p + 1, m):
                _rotate_out(a, p, q)
        sweeps += 1
        residual = _offdiag_norm(a)
    return np.diag(a).real.copy(), residual


def schmidt_coefficients(state: PureState) -> SpectralResult:
    """Schmidt coefficients of a bipartite state, sorted descending.

    Eigenvalues of the reduced density matrix are clamped at zero
    (rounding can push tiny ones negative) before the square root.
    Raises OracleFailureError when the eigensolver's residual is still
    >= 1e-12 after its sweep cap.
    """
    rho = reduced_density(state)
    evals, residual = hermitian_eigenvalues(rho)
    if residual >= FAILURE_RESIDUAL:
        raise OracleFailureError(
            f"Jacobi sweeps stalled at off-diagonal residual {residual:.3e}",
            residual=residual,
        )
    coeffs = np.sqrt(np.clip(evals, 0.0, None))
    coeffs[::-1].sort()
    return SpectralResult(schmidt_coefficients=coeffs,
                          off_diagonal_residual=residual)
