import numpy as np
import pytest

from quditreduce import (
    OracleFailureError,
    PureState,
    product_state,
    random_state,
    reduce,
    schmidt_coefficients,
)
from quditreduce import spectral
from quditreduce.spectral import hermitian_eigenvalues, reduced_density

RT2 = np.sqrt(2.0)


def bell():
    return PureState(2, 2, np.array([1, 0, 0, 1]) / RT2)


def random_hermitian(m, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (z + z.conj().T) / 2


def random_unitary(m, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_site_unitary(state, site, u):
    # Little-endian layout: reshape puts site 1 on the slow axis.
    grid = state.amplitudes.reshape(state.n, state.n)
    if site == 0:
        grid = grid @ u.T
    else:
        grid = u @ grid
    return PureState(state.n, 2, grid.reshape(-1))


class TestReducedDensity:
    def test_ground_state(self):
        s = PureState(2, 2, np.array([1, 0, 0, 0], dtype=complex))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1
        np.testing.assert_array_equal(reduced_density(s), expected)

    def test_bell_is_maximally_mixed(self):
        np.testing.assert_allclose(reduced_density(bell()), np.eye(2) / 2,
                                   atol=1e-15)

    def test_random_trace_and_hermiticity(self):
        s = random_state(3, 2, seed=8)
        rho = reduced_density(s)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError, match="l = 2"):
            reduced_density(random_state(2, 3, seed=0))

    def test_matrix_orientation(self):
        # Amplitude at digits (a, b) must land in row a, column b.
        amps = np.zeros(9, dtype=complex)
        amps[1 + 3 * 2] = 1.0  # digits (1, 2)
        s = PureState(3, 2, amps)
        rho = reduced_density(s)
        assert rho[1, 1] == 1.0


class TestHermitianEigenvalues:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
    def test_matches_direct_solver(self, m):
        h = random_hermitian(m, seed=m)
        mine, residual = hermitian_eigenvalues(h)
        assert residual < 1e-14
        ref = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(np.sort(mine), ref, atol=1e-12)

    def test_diagonal_input_untouched(self):
        evals, residual = hermitian_eigenvalues(np.diag([3.0, -1.0, 0.5]))
        assert residual == 0.0
        np.testing.assert_array_equal(evals, [3.0, -1.0, 0.5])

    def test_trace_identities(self):
        for seed in range(5):
            s = random_state(4, 2, seed=seed)
            rho = reduced_density(s)
            evals, _ = hermitian_eigenvalues(rho)
            assert abs(np.sum(evals) - np.trace(rho).real) < 1e-12
            assert abs(np.sum(evals**2) - np.trace(rho @ rho).real) < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.zeros((2, 3)))


class TestSchmidtCoefficients:
    def test_product_state_is_rank_one(self):
        s = product_state([[1, 0, 0], [0, 1, 0]])
        result = schmidt_coefficients(s)
        np.testing.assert_allclose(result.schmidt_coefficients, [1, 0, 0],
                                   atol=1e-10)

    def test_uniform_product_state(self):
        f = np.array([1, 1]) / RT2
        result = schmidt_coefficients(product_state([f, f]))
        np.testing.assert_allclose(result.schmidt_coefficients, [1, 0],
                                   atol=1e-10)

    def test_bell(self):
        result = schmidt_coefficients(bell())
        np.testing.assert_allclose(result.schmidt_coefficients,
                                   [1 / RT2, 1 / RT2], atol=1e-12)

    def test_sorted_descending_and_normalized(self):
        for seed in range(5):
            s = random_state(5, 2, seed=seed)
            coeffs = schmidt_coefficients(s).schmidt_coefficients
            assert np.all(coeffs[:-1] >= coeffs[1:])
            assert np.all(coeffs >= 0)
            assert abs(np.sum(coeffs**2) - 1.0) < 1e-10

    def test_cross_check_against_reduction(self):
        s = random_state(4, 2, seed=23)
        trace, _ = reduce(s)
        n = s.n
        diag = np.abs(trace.final_state.amplitudes[[i * (n + 1) for i in range(n)]])
        diag = np.sort(diag)[::-1]
        oracle = schmidt_coefficients(s).schmidt_coefficients
        assert np.max(np.abs(diag - oracle)) < 1e-8

    @pytest.mark.parametrize("site", [0, 1])
    def test_invariant_under_site_unitary(self, site):
        s = random_state(4, 2, seed=31)
        u = random_unitary(4, seed=77)
        before = schmidt_coefficients(s).schmidt_coefficients
        after = schmidt_coefficients(apply_site_unitary(s, site, u))
        assert np.max(np.abs(before - after.schmidt_coefficients)) < 1e-10

    def test_oracle_failure_is_reported(self, monkeypatch):
        monkeypatch.setattr(spectral, "hermitian_eigenvalues",
                            lambda rho: (np.diag(rho).real, 1e-6))
        with pytest.raises(OracleFailureError) as info:
            spectral.schmidt_coefficients(bell())
        assert info.value.residual == 1e-6
