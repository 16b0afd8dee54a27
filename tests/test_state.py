import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditreduce import (
    CapacityError,
    InvalidIndexError,
    InvalidRotationError,
    PureState,
    apply_plane_rotation,
    index_decode,
    index_encode,
    product_state,
    random_state,
)
from quditreduce import state as state_module
from quditreduce.state import (DEFAULT_SIZE_CAP, check_plane, check_shape,
                               check_unitary)

RT2 = np.sqrt(2.0)


def random_unitary_2x2(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestIndexing:
    @pytest.mark.parametrize("digits, n, flat", [
        ([1, 0], 2, 1),
        ([0, 1], 2, 2),
        ([2, 1], 3, 5),
        ([0, 0, 0], 2, 0),
        ([1, 1, 1], 2, 7),
    ])
    def test_encode(self, digits, n, flat):
        assert index_encode(digits, n) == flat

    @pytest.mark.parametrize("flat, n, l, digits", [
        (1, 2, 3, (1, 0, 0)),
        (4, 2, 3, (0, 0, 1)),
        (5, 3, 2, (2, 1)),
    ])
    def test_decode(self, flat, n, l, digits):
        assert index_decode(flat, n, l) == digits

    @pytest.mark.parametrize("n, l", [(2, 10), (3, 5), (5, 3), (7, 2)])
    def test_round_trip_exhaustive(self, n, l):
        for flat in range(n**l):
            assert index_encode(index_decode(flat, n, l), n) == flat

    @given(st.integers(2, 6), st.integers(1, 6), st.data())
    def test_round_trip_property(self, n, l, data):
        flat = data.draw(st.integers(0, n**l - 1))
        digits = index_decode(flat, n, l)
        assert len(digits) == l
        assert all(0 <= d < n for d in digits)
        assert index_encode(digits, n) == flat

    def test_digit_out_of_range(self):
        with pytest.raises(InvalidIndexError):
            index_encode([0, 3], 3)
        with pytest.raises(InvalidIndexError):
            index_encode([-1, 0], 2)

    def test_flat_out_of_range(self):
        with pytest.raises(InvalidIndexError):
            index_decode(8, 2, 3)
        with pytest.raises(InvalidIndexError):
            index_decode(-1, 2, 3)

    def test_decode_huge_l_is_over_the_cap(self):
        with pytest.raises(CapacityError):
            index_decode(0, 3, 10**6)


class TestPureState:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 8 amplitudes"):
            PureState(2, 3, np.zeros(4, dtype=complex))

    def test_rejects_unnormalized(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.001
        with pytest.raises(ValueError, match="not normalized"):
            PureState(2, 2, amps)

    def test_accepts_tiny_norm_drift(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = np.sqrt(1 + 5e-11)
        PureState(2, 2, amps)

    def test_rejects_bad_shape_params(self):
        with pytest.raises(ValueError):
            PureState(1, 2, np.array([1.0]))
        with pytest.raises(ValueError):
            PureState(2, 0, np.array([1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(2, 1, np.array([np.nan, 0]))

    def test_huge_l_is_over_the_cap(self):
        # 3**(10**6) is never formed, not even for the shape error.
        with pytest.raises(CapacityError, match=f"cap {DEFAULT_SIZE_CAP}"):
            PureState(3, 10**6, np.zeros(1))

    def test_copy_is_independent(self):
        s = random_state(2, 2, seed=0)
        c = s.copy()
        c.amplitudes[0] = 0
        assert s.amplitudes[0] != 0


class TestApplyPlaneRotation:
    def test_identity_leaves_state_unchanged(self):
        s = random_state(3, 2, seed=1)
        out = apply_plane_rotation(s, 0, 0, 1, np.eye(2))
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_pair_convention(self):
        # |00> under [[0,1],[-1,0]] at site 0: the (level 0, level 1)
        # component pair maps to (0, -1), so |10> picks up coefficient -1.
        s = PureState(2, 2, np.array([1, 0, 0, 0], dtype=complex))
        out = apply_plane_rotation(s, 0, 0, 1, np.array([[0, 1], [-1, 0]]))
        assert out.amplitudes[index_encode([0, 0], 2)] == 0
        assert out.amplitudes[index_encode([1, 0], 2)] == -1

    @pytest.mark.parametrize("seed", range(8))
    def test_norm_preserved_under_random_unitary(self, seed):
        rng = np.random.default_rng(seed)
        n, l = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        s = random_state(n, l, seed=seed)
        site = int(rng.integers(0, l))
        a = int(rng.integers(0, n - 1))
        b = int(rng.integers(a + 1, n))
        out = apply_plane_rotation(s, site, a, b, random_unitary_2x2(rng))
        assert abs(out.norm - 1.0) < 1e-12

    def test_rotation_then_adjoint_restores(self):
        rng = np.random.default_rng(7)
        s = random_state(3, 3, seed=7)
        rot = random_unitary_2x2(rng)
        out = apply_plane_rotation(s, 1, 0, 2, rot)
        back = apply_plane_rotation(out, 1, 0, 2, rot.conj().T)
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-13

    def test_other_levels_bit_identical(self):
        rng = np.random.default_rng(3)
        s = random_state(3, 3, seed=3)
        site = 1
        out = apply_plane_rotation(s, site, 0, 2, random_unitary_2x2(rng))
        for flat in range(s.dim):
            if index_decode(flat, 3, 3)[site] == 1:
                assert out.amplitudes[flat] == s.amplitudes[flat]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 4), st.data())
    def test_matches_digit_swap_reference(self, n, l, data):
        # The reference pairs flat indices through index_decode and
        # index_encode only, so it shares no reshape with the kernel: each
        # index with digit a at ``site`` meets the one with digit b there.
        site = data.draw(st.integers(0, l - 1))
        a = data.draw(st.integers(0, n - 2))
        b = data.draw(st.integers(a + 1, n - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rot = random_unitary_2x2(np.random.default_rng(seed))
        s = random_state(n, l, seed=seed)
        expected = s.amplitudes.copy()
        for flat in range(s.dim):
            digits = index_decode(flat, n, l)
            if digits[site] == a:
                partner = index_encode(
                    digits[:site] + (b,) + digits[site + 1:], n)
                x, y = s.amplitudes[flat], s.amplitudes[partner]
                expected[flat] = rot[0, 0] * x + rot[0, 1] * y
                expected[partner] = rot[1, 0] * x + rot[1, 1] * y
        out = apply_plane_rotation(s, site, a, b, rot)
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-14

    def test_rejects_nonunitary(self):
        s = random_state(2, 2, seed=0)
        with pytest.raises(InvalidRotationError):
            apply_plane_rotation(s, 0, 0, 1, np.array([[1, 1e-4], [0, 1]]))

    def test_rejects_nan_rotation(self):
        s = random_state(2, 2, seed=0)
        with pytest.raises(InvalidRotationError):
            apply_plane_rotation(s, 0, 0, 1, np.diag([np.nan, 1.0]))

    def test_accepts_almost_unitary(self):
        s = random_state(2, 2, seed=0)
        rot = np.eye(2, dtype=complex)
        rot[0, 1] = 1e-11
        apply_plane_rotation(s, 0, 0, 1, rot)

    def test_rejects_bad_site_and_levels(self):
        s = random_state(3, 2, seed=0)
        with pytest.raises(ValueError):
            apply_plane_rotation(s, 2, 0, 1, np.eye(2))
        with pytest.raises(ValueError):
            apply_plane_rotation(s, 0, 1, 1, np.eye(2))
        with pytest.raises(ValueError):
            apply_plane_rotation(s, 0, 0, 3, np.eye(2))


class TestRandomState:
    def test_deterministic(self):
        a = random_state(2, 2, seed=7)
        b = random_state(2, 2, seed=7)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_seeds_differ(self):
        a = random_state(2, 2, seed=7)
        b = random_state(2, 2, seed=8)
        assert not np.array_equal(a.amplitudes, b.amplitudes)

    def test_normalized(self):
        for seed in range(5):
            assert abs(random_state(4, 3, seed).norm - 1.0) < 1e-12

    def test_fully_supported(self):
        s = random_state(3, 3, seed=1)
        assert np.all(np.abs(s.amplitudes) > 0)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            random_state(2, 40, seed=0)
        with pytest.raises(CapacityError):
            random_state(2, 27, seed=0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            random_state(1, 2, seed=0)
        with pytest.raises(ValueError):
            random_state(2, 0, seed=0)


class TestCheckShape:
    def test_returns_size_up_to_the_cap(self):
        assert check_shape(2, 26) == DEFAULT_SIZE_CAP
        assert check_shape(3, 2) == 9

    @pytest.mark.parametrize("n, l", [
        (2, 27), (3, 17), (10**9, 1),
        # 2**(10**18) cannot be formed at all; it must not be tried.
        (2, 10**18),
    ])
    def test_over_the_cap(self, n, l):
        with pytest.raises(CapacityError, match=f"cap {DEFAULT_SIZE_CAP}"):
            check_shape(n, l)

    @pytest.mark.parametrize("n, l", [(1, 2), (0, 10**18), (2, 0), (3, -1)])
    def test_bad_shape(self, n, l):
        with pytest.raises(ValueError, match="need n >= 2 and l >= 1"):
            check_shape(n, l)


class TestProductState:
    def test_all_ground(self):
        s = product_state([[1, 0, 0]] * 3)
        expected = np.zeros(27, dtype=complex)
        expected[0] = 1
        assert np.array_equal(s.amplitudes, expected)

    def test_uniform_qubit_pair(self):
        f = np.array([1, 1]) / RT2
        s = product_state([f, f])
        np.testing.assert_allclose(s.amplitudes, [0.5] * 4, atol=1e-15)

    def test_single_term_placement(self):
        s = product_state([[1, 0, 0], [0, 1, 0]])
        assert s.amplitudes[index_encode([0, 1], 3)] == 1
        assert np.count_nonzero(s.amplitudes) == 1

    def test_amplitude_is_factor_product(self):
        rng = np.random.default_rng(11)
        factors = []
        for _ in range(3):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            factors.append(f / np.linalg.norm(f))
        s = product_state(factors)
        for flat in range(27):
            digits = index_decode(flat, 3, 3)
            want = np.prod([factors[i][d] for i, d in enumerate(digits)])
            assert s.amplitudes[flat] == pytest.approx(want, abs=1e-15)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="shape"):
            product_state([[1, 0], [1, 0, 0]])

    def test_rejects_unnormalized_factor(self):
        with pytest.raises(ValueError, match="not normalized"):
            product_state([[1, 0], [1, 1]])

    def test_rejects_nan_factor(self):
        with pytest.raises(ValueError, match="factor 1 not normalized"):
            product_state([[1, 0], [np.nan, 0]])

    def test_checks_cap_before_building(self, monkeypatch):
        # 27 qubit factors would make a 2 GiB vector; the cap must reject
        # them before the Kronecker fold runs.
        def no_fold(*args):
            raise AssertionError("product_state built the vector")

        monkeypatch.setattr(state_module, "_fold", no_fold)
        with pytest.raises(CapacityError):
            product_state([[1, 0]] * 27)


class TestCheckUnitary:
    def test_names_count_and_first_bad_index(self):
        entries = np.array([np.eye(2), np.diag([2.0, 1.0]), np.eye(2),
                            np.diag([np.nan, 1.0])], dtype=complex)
        with pytest.raises(InvalidRotationError,
                           match=r"2 of 4 rotations not unitary; rotations\[1\]"):
            check_unitary(entries)


@pytest.mark.parametrize("site, level_a, level_b", [
    (-1, 0, 1), (2, 0, 1), (0, 1, 1), (0, 2, 1), (0, -1, 1), (0, 0, 3),
])
def test_check_plane_rejects(site, level_a, level_b):
    with pytest.raises(ValueError, match="out-of-range plane"):
        check_plane(3, 2, site, level_a, level_b)


def test_check_plane_scalars_and_arrays():
    check_plane(3, 2, 1, 0, 2)
    with pytest.raises(ValueError, match=r"^out-of-range plane: site 2, "
                                         r"levels \(0, 1\) for n=3, l=2$"):
        check_plane(3, 2, 2, 0, 1)
    site, level_a, level_b = np.array([[0, 1, 2, 0], [0, 1, 0, 3], [1, 2, 1, 1]])
    check_plane(3, 2, site[:2], level_a[:2], level_b[:2])
    check_plane(3, 2, site[:0], level_a[:0], level_b[:0])
    # Planes 2 and 3 both fail; the first is named, by index.
    with pytest.raises(ValueError, match=r"^out-of-range plane in planes\[2\]: "
                                         r"site 2, levels \(0, 1\) for n=3, l=2$"):
        check_plane(3, 2, site, level_a, level_b)
    site[2] = 1
    with pytest.raises(ValueError, match=r"in rotations\[3\]: site 0, levels \(3, 1\)"):
        check_plane(3, 2, site, level_a, level_b, what="rotations")
    # Object arrays hold integers of any size exactly.
    huge = np.array([0, 10**30], dtype=object)
    with pytest.raises(ValueError, match=rf"planes\[1\]: site {10**30},"):
        check_plane(3, 2, huge, np.zeros(2, int), np.ones(2, int))


@settings(max_examples=40)
@given(st.integers(0, 2**16 - 1))
def test_rotation_composition_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    s = random_state(3, 2, seed=seed)
    for _ in range(3):
        s = apply_plane_rotation(s, int(rng.integers(0, 2)), 0,
                                 int(rng.integers(1, 3)),
                                 random_unitary_2x2(rng))
    assert abs(s.norm - 1.0) < 1e-12
