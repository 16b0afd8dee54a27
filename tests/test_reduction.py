import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditreduce import reduction
from quditreduce import (
    InternalConsistencyError,
    NonConvergenceError,
    PureState,
    apply_plane_rotation,
    index_decode,
    index_encode,
    invert_trace,
    product_state,
    random_state,
    reduce,
    schmidt_coefficients,
    stage_targets,
    support_count,
    term_bound,
    zeroing_rotation,
)
from quditreduce.reduction import (
    DecompositionTrace,
    apply_site_unitaries,
    eliminate_stage,
    fold_rotations,
    invert_rotations,
)
from quditreduce.state import rotate_pair_inplace

from conftest import RECORD, make_records

RT2 = np.sqrt(2.0)

finite_amp = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)


def bell():
    return PureState(2, 2, np.array([1, 0, 0, 1]) / RT2)


def ghz(l):
    amps = np.zeros(2**l, dtype=complex)
    amps[0] = amps[-1] = 1 / RT2
    return PureState(2, l, amps)


def w_state(l):
    amps = np.zeros(2**l, dtype=complex)
    for i in range(l):
        amps[2**i] = 1 / np.sqrt(l)
    return PureState(2, l, amps)


def target_plane(flat, n, l, k):
    """(site, digit) of a stage-k target, read off its decoded digits."""
    digits = index_decode(flat, n, l)
    site = next(i for i, d in enumerate(digits) if d != k)
    return site, digits[site]


def box_of(amplitudes, n, l, k):
    """A contiguous copy of the box of digits >= k of a whole vector."""
    return amplitudes.reshape((n,) * l)[(slice(k, None),) * l].flatten()


def replay(work, n, l, records):
    """Apply ``records`` in order to the whole vector ``work``, in place,
    through rotate_pair_inplace."""
    for step in records:
        _, site, level_a, level_b = step["plane"].tolist()
        rotate_pair_inplace(work, n, l, site, level_a, level_b,
                            *step["entries"].ravel().tolist())


def eliminate(work, n, l, k, *args, **kwargs):
    """Stage k on the box of the whole vector ``work``, its rotations then
    replayed onto ``work`` in place: (its rotations as records, report)."""
    planes, entries = [], []
    report = eliminate_stage(box_of(work, n, l, k), n, l, k, planes, entries,
                             *args, **kwargs)
    records = make_records(np.reshape(planes, (-1, 4)), entries)
    replay(work, n, l, records)
    return records, report


def run_stage(state, k, *args, **kwargs):
    """Stage k on a copy of ``state``: (stage output, rotations, report)."""
    work = state.amplitudes.copy()
    rotations, report = eliminate(work, state.n, state.l, k, *args, **kwargs)
    return PureState(state.n, state.l, work), rotations, report


def zeroing_matrix(anchor_amp, target_amp):
    """zeroing_rotation's four entries as its 2x2 matrix."""
    return np.reshape(zeroing_rotation(anchor_amp, target_amp), (2, 2))


def random_product_factors(n, l, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestZeroingRotation:
    def test_anchor_only_gives_identity(self):
        assert np.array_equal(zeroing_matrix(1, 0), np.eye(2))

    def test_target_only(self):
        rot = zeroing_matrix(0, 1)
        assert np.array_equal(rot, np.array([[0, 1], [-1, 0]], dtype=complex))

    def test_real_pair(self):
        rot = zeroing_matrix(0.6, 0.8)
        np.testing.assert_allclose(rot, [[0.6, 0.8], [-0.8, 0.6]], atol=1e-15)
        np.testing.assert_allclose(rot @ [0.6, 0.8], [1, 0], atol=1e-15)

    def test_both_zero_gives_identity(self):
        assert np.array_equal(zeroing_matrix(0, 0), np.eye(2))

    @pytest.mark.parametrize("pair", [(1, 0), (0, 0), (0.6, 0.8j)])
    def test_entries_are_four_python_complex(self, pair):
        entries = zeroing_rotation(*pair)
        assert len(entries) == 4
        assert all(type(m) is complex for m in entries)

    @settings(max_examples=200)
    @given(finite_amp, finite_amp)
    def test_zeroes_target_and_is_unitary(self, x, y):
        rot = zeroing_matrix(x, y)
        assert np.max(np.abs(rot @ rot.conj().T - np.eye(2))) < 1e-12
        r = np.hypot(abs(x), abs(y))
        out = rot @ np.array([x, y])
        assert abs(out[0] - r) <= 1e-12 * max(r, 1.0)
        assert abs(out[1]) <= 1e-12 * max(r, 1.0)
        # Anchor lands real and nonnegative.
        assert out[0].imag == pytest.approx(0.0, abs=1e-12 * max(r, 1.0))


class TestStageTargets:
    def test_qubit_three_sites(self):
        assert stage_targets(2, 3, 0).tolist() == [1, 2, 4]

    def test_three_level_pair_stage0(self):
        targets = stage_targets(3, 2, 0)
        assert len(targets) == 4
        assert [index_decode(f, 3, 2) for f in targets] == \
            [(1, 0), (2, 0), (0, 1), (0, 2)]

    def test_three_level_pair_stage1(self):
        assert [index_decode(f, 3, 2) for f in stage_targets(3, 2, 1)] == \
            [(2, 1), (1, 2)]

    @pytest.mark.parametrize("n, l", [(2, 4), (3, 3), (4, 2), (5, 3)])
    def test_counts_per_stage_and_total(self, n, l):
        total = 0
        for k in range(n - 1):
            targets = stage_targets(n, l, k)
            assert len(targets) == (n - 1 - k) * l
            total += len(targets)
        assert total == n * (n - 1) * l // 2

    def test_order_is_ascending_flat(self):
        for k in range(3):
            flats = stage_targets(4, 3, k).tolist()
            assert flats == sorted(flats)

    def test_stage_out_of_range(self):
        with pytest.raises(ValueError):
            stage_targets(3, 2, 2)
        with pytest.raises(ValueError):
            stage_targets(3, 2, -1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 5))
    def test_matches_digit_definition(self, n, l):
        # The reference comes from index_decode alone: a stage-k target
        # has exactly one digit other than k, and that digit exceeds k.
        decoded = [index_decode(f, n, l) for f in range(n**l)]
        for k in range(n - 1):
            reference = [f for f, digits in enumerate(decoded)
                         if [d > k for d in digits if d != k] == [True]]
            flats = stage_targets(n, l, k)
            assert flats.tolist() == reference
            for j, flat in enumerate(reference):
                site, digit = target_plane(flat, n, l, k)
                assert (site, digit) == (j // (n - 1 - k),
                                         k + 1 + j % (n - 1 - k))
                # A stage on the basis state at target j takes one step,
                # in that target's plane, onto the anchor.
                work = np.zeros(n**l, dtype=complex)
                work[flat] = 1.0
                rotations, _ = eliminate(work, n, l, k, max_iters=1)
                assert rotations["plane"][:, 1:].tolist() == \
                    [[site, k, digit]]
                assert abs(work[index_encode((k,) * l, n)]) == \
                    pytest.approx(1.0)


class TestTermBound:
    @pytest.mark.parametrize("n, l, expected", [
        (2, 3, 5),
        (2, 10, 1014),
        (3, 3, 18),
        (4, 3, 46),
    ])
    def test_values(self, n, l, expected):
        assert term_bound(n, l) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_bipartite_bound_is_n(self, n):
        assert term_bound(n, 2) == n

    @pytest.mark.parametrize("l", range(1, 12))
    def test_qubit_bound(self, l):
        assert term_bound(2, l) == 2**l - l


class TestSupportCount:
    def test_single_term(self):
        s = PureState(2, 2, np.array([1, 0, 0, 0], dtype=complex))
        assert support_count(s, 1e-10) == 1

    def test_bell_and_ghz(self):
        assert support_count(bell(), 1e-10) == 2
        assert support_count(ghz(3), 1e-10) == 2

    def test_threshold_is_strict(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        amps[1] = 1e-8
        amps[0] = np.sqrt(1 - 1e-16)
        s = PureState(2, 2, amps)
        assert support_count(s, 1e-8) == 1
        assert support_count(s, 0.9e-8) == 2


class TestEliminateStage:
    def test_bell_already_converged(self):
        out, rotations, report = run_stage(bell(), 0)
        assert len(rotations) == 0
        assert report.iterations == 0
        assert report.converged
        assert np.array_equal(out.amplitudes, bell().amplitudes)

    def test_single_target_basis_state(self):
        s = PureState(2, 2, np.array([0, 1, 0, 0], dtype=complex))  # digits (1,0)
        out, rotations, report = run_stage(s, 0)
        assert report.iterations == 1
        _, site, level_a, level_b = rotations["plane"][0].tolist()
        assert site == 0
        assert (level_a, level_b) == (0, 1)
        assert out.amplitudes[index_encode([0, 0], 2)] == \
            pytest.approx(1.0, abs=1e-15)
        assert support_count(out, 1e-12) == 1

    def test_w_state_greedy_converges_monotonically(self):
        out, rotations, report = run_stage(w_state(3), 0, "greedy", 1e-12)
        assert report.converged
        assert report.residual < 1e-12
        anchors = report.anchor_history
        assert all(b > a for a, b in zip(anchors, anchors[1:]))
        assert anchors[-1] <= 1 + 1e-12

    @pytest.mark.parametrize("strategy", ["greedy", "round-robin"])
    def test_histories_are_consistent(self, strategy):
        s = random_state(3, 2, seed=9)
        out, rotations, report = run_stage(s, 0, strategy)
        assert len(rotations) == report.iterations
        assert len(report.pivot_history) == report.iterations
        assert len(report.anchor_history) == report.iterations + 1

    def test_mass_transfer_per_step(self):
        # Replay a greedy stage with public primitives and check each
        # elimination moves exactly the target's squared magnitude onto
        # the anchor.
        s = random_state(2, 3, seed=4)
        anchor = index_encode([0, 0, 0], 2)
        flats = stage_targets(2, 3, 0)
        for _ in range(400):
            mags = np.abs(s.amplitudes[flats])
            j = int(np.argmax(mags))
            if mags[j] < 1e-12:
                break
            before_anchor = abs(s.amplitudes[anchor])
            before_target = abs(s.amplitudes[flats[j]])
            rot = zeroing_matrix(s.amplitudes[anchor], s.amplitudes[flats[j]])
            site, digit = target_plane(flats[j], 2, 3, 0)
            s = apply_plane_rotation(s, site, 0, digit, rot)
            after_anchor = abs(s.amplitudes[anchor])
            assert after_anchor**2 == pytest.approx(
                before_anchor**2 + before_target**2, abs=1e-12)
            assert abs(s.amplitudes[flats[j]]) < 1e-14
        else:
            pytest.fail("stage did not converge in 400 steps")

    @pytest.mark.parametrize("n, l", [(2, 4), (3, 3), (4, 2)])
    def test_round_robin_matches_pass_and_skip_sweep(self, n, l):
        # Replay round-robin with public primitives as full passes over
        # the targets in flat order, skipping those already below
        # epsilon, until a pass starts with every target below it.
        eps = 1e-12
        state = random_state(n, l, seed=8)
        for k in range(n - 1):
            out, rotations, report = run_stage(state, k, "round-robin", eps)
            anchor = index_encode([k] * l, n)
            flats = stage_targets(n, l, k)
            ref, expected = state, []
            while np.max(np.abs(ref.amplitudes[flats])) >= eps:
                assert len(expected) < 10000, "reference sweep did not converge"
                for flat in flats:
                    if abs(ref.amplitudes[flat]) < eps:
                        continue
                    rot = zeroing_matrix(ref.amplitudes[anchor],
                                         ref.amplitudes[flat])
                    site, digit = target_plane(flat, n, l, k)
                    ref = apply_plane_rotation(ref, site, k, digit, rot)
                    expected.append((site, digit, rot))
            assert report.converged
            assert len(rotations) == len(expected)
            for got, (site, digit, rot) in zip(rotations, expected):
                assert tuple(got["plane"][1:].tolist()) == (site, k, digit)
                assert np.array_equal(got["entries"], rot)
            assert np.array_equal(out.amplitudes, ref.amplitudes)
            state = out

    def test_anchor_is_real_nonnegative_after_elimination(self):
        s = random_state(3, 2, seed=2)
        out, rotations, _ = run_stage(s, 0)
        assert len(rotations) > 0
        anchor_amp = out.amplitudes[index_encode([0, 0], 3)]
        assert anchor_amp.real >= 0
        assert abs(anchor_amp.imag) < 1e-15

    def test_nonconvergence_carries_partials(self):
        s = random_state(2, 3, seed=0)
        out, rotations, report = run_stage(s, 0, "greedy", 1e-12, max_iters=2)
        assert report.residual >= 1e-12
        assert len(rotations) == 2
        assert report.iterations == 2
        assert not report.converged
        # The partial state is consistent with the recorded rotations.
        back = invert_trace(DecompositionTrace(out.norm, rotations, out))
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-12

    def test_mixes_caller_vector_and_appends_rotations(self):
        # At the cap the stage returns instead of raising; it has mixed
        # the caller's vector in place and appended its two rotations,
        # four values each, after the one already in the lists.
        s = random_state(2, 3, seed=0)
        first_plane, first_entries = [0, 0, 0, 1], [1 + 0j, 0j, 0j, 1 + 0j]
        work, planes, entries = s.amplitudes.copy(), first_plane[:], \
            first_entries[:]
        report = eliminate_stage(work, 2, 3, 0, planes, entries, "greedy",
                                 1e-12, max_iters=2)
        assert not report.converged
        assert len(planes) == len(entries) == 3 * 4
        assert planes[:4] == first_plane and entries[:4] == first_entries
        back = invert_rotations(work, 2, 3, make_records(
            np.reshape(planes[4:], (-1, 4)), entries[4:]))
        assert np.max(np.abs(back - s.amplitudes)) < 1e-12

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            run_stage(bell(), 0, "fastest")

    def test_rejects_nonpositive_epsilon(self):
        # NaN and infinity are rejected too: NaN would never compare
        # below the residual, and infinity would stop before any step.
        for eps in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon"):
                run_stage(bell(), 0, epsilon=eps)

    @pytest.mark.parametrize("strategy", ["greedy", "round-robin"])
    def test_stage_k_box_matches_whole_state(self, strategy):
        # Stage k on its box of digits >= k reads, step by step, what a
        # replay of its records on the whole state reads, bit for bit, and
        # mixes the box region alike.
        for n in range(3, 6):
            for l in range(1, 5):
                state = random_state(n, l, seed=n * 10 + l)
                for k in range(1, n - 1):
                    box = box_of(state.amplitudes, n, l, k)
                    planes, entries = [], []
                    report = eliminate_stage(box, n, l, k, planes, entries,
                                             strategy)
                    rotations = make_records(np.reshape(planes, (-1, 4)),
                                             entries)
                    assert len(rotations)
                    [(anchors, pivots, peaks)], replayed, whole = \
                        replayed_stages(state, rotations, [report])
                    assert rotations["entries"].tobytes() == replayed.tobytes()
                    assert report.anchor_history == anchors
                    assert report.pivot_history == pivots
                    assert report.residual == peaks[-1]
                    assert np.array_equal(box_of(whole, n, l, k), box)

    @pytest.mark.parametrize("size", [4, 10, 16, 25])
    def test_rejects_work_of_another_size(self, size):
        # Stage 1 of a (4,2) state takes its box of 9 amplitudes; the whole
        # vector (16), the stage-2 box (4) and any other size are refused.
        work = random_state(size, 1, seed=2).amplitudes
        planes, entries = [], []
        with pytest.raises(ValueError, match=f"box of 9 amplitudes, got {size}"):
            eliminate_stage(work, 4, 2, 1, planes, entries)
        assert planes == [] and entries == []


class TestReduce:
    @pytest.mark.parametrize("l", [2, 3, 5])
    def test_uniform_qubit_product_round_robin(self, l):
        f = np.array([1, 1]) / RT2
        s = product_state([f] * l)
        trace, report = reduce(s, strategy="round-robin")
        assert report.converged
        assert report.stages[0].iterations == l
        assert len(trace.rotations) == l
        assert support_count(trace.final_state, 1e-10) == 1

    def test_bell_needs_no_rotations(self):
        trace, report = reduce(bell())
        assert trace.rotations.dtype == RECORD and len(trace.rotations) == 0
        assert report.support_after == 2
        assert report.bound == 2

    @pytest.mark.parametrize("strategy", ["greedy", "round-robin"])
    @pytest.mark.parametrize("n, l", [(2, 5), (4, 3), (6, 2)])
    def test_trace_is_one_record_array(self, strategy, n, l):
        # One record per step of every stage, in stage order, each with
        # stage == level_a.
        trace, report = reduce(random_state(n, l, seed=3), strategy=strategy)
        records = trace.rotations
        assert type(records) is np.ndarray
        assert records.dtype == RECORD == reduction.TRACE_RECORD
        assert len(records) == sum(s.iterations for s in report.stages) > 0
        stages, _, level_a, _ = records["plane"].T
        assert np.array_equal(stages, level_a)
        assert stages.tolist() == sorted(stages.tolist())

    def test_bipartite_three_levels_diagonal(self):
        s = random_state(3, 2, seed=12)
        trace, report = reduce(s)
        final = trace.final_state.amplitudes
        assert report.support_after <= 3
        diagonal_flats = {index_encode([i, i], 3) for i in range(3)}
        for flat in range(9):
            if flat not in diagonal_flats:
                assert abs(final[flat]) < 1e-11
        mine = np.sort(np.abs(final[sorted(diagonal_flats)]))[::-1]
        oracle = schmidt_coefficients(s).schmidt_coefficients
        np.testing.assert_allclose(mine, oracle, atol=1e-8)

    @pytest.mark.parametrize("n, l", [(2, 6), (3, 4), (6, 2)])
    def test_greedy_converges_within_bound(self, n, l):
        for seed in range(10):
            s = random_state(n, l, seed)
            trace, report = reduce(s)
            assert report.converged
            assert report.support_after <= term_bound(n, l)
            assert report.norm_drift < 1e-10

    def test_stage_preservation_recorded(self):
        s = random_state(4, 3, seed=5)
        trace, report = reduce(s)
        assert len(report.stage_preservation) == 3
        assert all(v <= 1e-11 for v in report.stage_preservation)

    def test_single_site_collapses(self):
        for n in range(2, 6):
            s = random_state(n, 1, seed=3)
            trace, report = reduce(s)
            assert report.support_after == 1
            assert report.bound == 1
            assert report.support_after <= term_bound(n, 1)

    def test_report_metadata(self):
        s = random_state(3, 2, seed=1)
        trace, report = reduce(s, strategy="greedy", epsilon=1e-12)
        assert report.strategy == "greedy"
        assert report.epsilon == 1e-12
        assert report.support_threshold == pytest.approx(1e-11)
        assert report.support_before == support_count(s, 1e-11)
        assert report.bound == 3
        assert len(report.stages) == 2

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
    def test_rejects_bad_support_threshold(self, threshold):
        with pytest.raises(ValueError, match="support_threshold"):
            reduce(random_state(3, 3, 1), support_threshold=threshold)

    @pytest.mark.parametrize("cap", [0, -1, 2.5, True, None])
    def test_rejects_bad_max_iters_per_stage(self, cap):
        # Checked before any rotation: the work vector stays as it was.
        state = random_state(3, 3, 1)
        with pytest.raises(ValueError, match="max_iters"):
            reduce(state, max_iters_per_stage=cap)
        work, planes, entries = state.amplitudes.copy(), [], []
        with pytest.raises(ValueError, match="max_iters"):
            eliminate_stage(work, 3, 3, 0, planes, entries, max_iters=cap)
        assert planes == [] and entries == []
        assert np.array_equal(work, state.amplitudes)

    def test_rejects_epsilon_whose_threshold_overflows(self):
        # 10 * 1e308 is inf: every amplitude would fall below it, and the
        # run would certify support 0.
        with pytest.raises(ValueError, match="support_threshold .* got inf"):
            reduce(random_state(3, 3, 1), epsilon=1e308)

    def test_nonconvergence_carries_cumulative_partials(self):
        s = random_state(3, 2, seed=0)
        with pytest.raises(NonConvergenceError) as info:
            reduce(s, max_iters_per_stage=1)
        err = info.value
        assert err.report is not None and not err.report.converged
        assert err.trace is not None
        back = invert_trace(err.trace)
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-12

        # A later stage fails: no weight on the stage-0 targets (flats 1,
        # 2, 3, 6), so stage 0 converges at once and stage 1 stops with
        # one of its two targets still live.
        amps = np.zeros(9, dtype=complex)
        amps[[0, 4, 5, 7, 8]] = [0.5, 0.5, 0.5, 0.3, np.sqrt(0.16)]
        s = PureState(3, 2, amps)
        with pytest.raises(NonConvergenceError) as info:
            reduce(s, max_iters_per_stage=1)
        err = info.value
        assert [st.converged for st in err.report.stages] == [True, False]
        assert err.report.stages[0].iterations == 0
        assert not err.report.converged
        assert len(err.trace.rotations) == 1
        assert err.trace.rotations["plane"][0, 0] == 1
        back = invert_trace(err.trace)
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-12


def reduce_outcome(state, **kwargs):
    """(trace, report, error text) of reduce, NonConvergenceError included."""
    try:
        return (*reduce(state, **kwargs), None)
    except NonConvergenceError as err:
        return err.trace, err.report, str(err)


class TestBoxedStages:
    @pytest.mark.parametrize("n, l", [(n, l) for n in range(2, 6)
                                      for l in range(1, 5)])
    @pytest.mark.parametrize("strategy", ["greedy", "round-robin"])
    @pytest.mark.parametrize("cap", [3, 10000])
    @pytest.mark.parametrize("clear_stage0", [False, True])
    def test_box_path_records_the_same_reduction(self, n, l, strategy, cap,
                                                 clear_stage0):
        # Every stage k >= 1 runs on its box; a replay of the records on
        # the whole vector must read what each stage read, bit for bit.
        # With no weight on the stage-0 targets, stage 0 takes no step and
        # a cap of 3 stops a later stage.
        amps = random_state(n, l, seed=n * 10 + l).amplitudes
        if clear_stage0:
            amps[stage_targets(n, l, 0)] = 0
        state = PureState(n, l, amps / np.linalg.norm(amps))
        trace, report, error = reduce_outcome(state, strategy=strategy,
                                              max_iters_per_stage=cap)
        stages, entries, whole = replayed_stages(state, trace.rotations,
                                                 report.stages)
        assert (error is None) == all(s.converged for s in report.stages)
        assert trace.rotations["entries"].tobytes() == entries.tobytes()
        assert np.array_equal(trace.rotations["plane"][:, 0],
                              np.repeat([s.stage for s in report.stages],
                                        [s.iterations for s in report.stages]))
        for stage, (anchors, pivots, peaks) in zip(report.stages, stages):
            assert stage.anchor_history == anchors
            assert stage.pivot_history == pivots
            assert stage.residual == peaks[-1]
            assert stage.converged == (peaks[-1] < reduction.DEFAULT_EPSILON)
            if strategy == "greedy":
                assert pivots == peaks[:-1]
        assert np.max(np.abs(trace.final_state.amplitudes - whole)) <= 1e-14
        assert report.support_after == \
            support_count(PureState(n, l, whole), report.support_threshold)
        earlier, preservation = np.zeros(0, dtype=int), []
        for stage in report.stages[:len(report.stage_preservation)]:
            preservation.append(np.max(np.abs(whole[earlier]), initial=0.0))
            earlier = np.concatenate((earlier, stage_targets(n, l, stage.stage)))
        np.testing.assert_allclose(report.stage_preservation, preservation,
                                   rtol=0, atol=1e-14)
        back = invert_trace(trace).amplitudes
        assert np.max(np.abs(back - state.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("n, l", [(2, 10), (4, 3), (3, 4), (8, 2),
                                      (16, 2), (2, 16), (4, 8), (5, 6),
                                      (3, 1)])
    def test_every_stage_runs_on_its_box(self, monkeypatch, n, l):
        eliminate, seen = reduction.eliminate_stage, []

        def recording(work, *args):
            seen.append(work.size)
            return eliminate(work, *args)

        monkeypatch.setattr(reduction, "eliminate_stage", recording)
        state = product_state(random_product_factors(n, l, seed=n + l))
        trace, report = reduce(state)
        assert report.converged
        assert seen == [(n - k)**l for k in range(n - 1)]

    def test_revived_earlier_target_is_inconsistent(self, monkeypatch):
        fold = reduction.fold_rotations

        def reviving(rotations, n):
            # Swap levels 0 and 1 of site 0: the anchor's weight lands on
            # the stage-0 target with digit 1 at site 0.
            unitaries = fold(rotations, n)
            rows = unitaries.setdefault(0, np.eye(n, dtype=complex))
            rows[[0, 1]] = rows[[1, 0]]
            return unitaries

        monkeypatch.setattr(reduction, "fold_rotations", reviving)
        with pytest.raises(InternalConsistencyError,
                           match=r"stage 1 left an earlier-stage target"):
            reduce(random_state(3, 2, seed=1))


def replayed_stages(state, records, reports):
    """What each stage of a reduction read, recomputed by replaying its
    own records in place on the whole vector from the input: per stage
    the anchor magnitude before every step and after the last, the
    magnitude of each step's target, read from np.abs over all targets as
    eliminate_stage reads it, and the largest target magnitude
    before every step and after the last; plus every step's
    zeroing_rotation entries of the replayed anchor and target, and the
    replayed vector."""
    n, l = state.n, state.l
    work = state.amplitudes.copy()
    stages, entries, done = [], [], 0
    for report in reports:
        k = report.stage
        anchor = index_encode((k,) * l, n)
        flats = stage_targets(n, l, k)
        anchors, pivots, peaks = [abs(work[anchor])], [], []
        for step in records[done:done + report.iterations]:
            _, site, level_a, level_b = step["plane"].tolist()
            mags = np.abs(work[flats])
            peaks.append(float(np.max(mags)))
            j = site * (n - 1 - k) + level_b - level_a - 1
            entries.append(zeroing_rotation(work[anchor], work[flats[j]]))
            pivots.append(float(mags[j]))
            replay(work, n, l, step[None])
            anchors.append(abs(work[anchor]))
        done += report.iterations
        peaks.append(float(np.max(np.abs(work[flats]))))
        stages.append((anchors, pivots, peaks))
    return stages, np.reshape(entries, (-1, 2, 2)), work


class TestContractedStages:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 5), l=st.integers(2, 5),
           seed=st.integers(0, 2**32 - 1),
           strategy=st.sampled_from(["greedy", "round-robin"]),
           cap=st.sampled_from([3, 37, reduction.DEFAULT_MAX_ITERS]))
    # Round-robin takes 2,713, 2,291, 3,328 and 267 steps here. Rounding
    # grows along such slow stages: stage-2 entries of the two drivers lie
    # 2.2e-11 apart, and the in-place ones 1.9e-11 from a run in
    # extended precision.
    @example(n=5, l=5, seed=5, strategy="round-robin",
             cap=reduction.DEFAULT_MAX_ITERS)
    def test_contracted_run_records_the_same_reduction(self, n, l, seed,
                                                       strategy, cap):
        state = random_state(n, l, seed)
        before = state.amplitudes.copy()
        contract, calls = reduction._contracted_stage, []

        def counting(*args):
            calls.append(args[1:])
            return contract(*args)

        outcomes = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction, "_contracted_stage", counting)
            for contract_min_row in (-2**62, 2**62):
                patch.setattr(reduction, "CONTRACT_MIN_ROW", contract_min_row)
                outcomes.append(reduce_outcome(state, strategy=strategy,
                                               max_iters_per_stage=cap))
        (contracted, report, error), (in_place, in_place_report, _) = outcomes
        assert len(calls) == len(report.stages)
        assert np.array_equal(state.amplitudes, before)
        assert np.array_equal(contracted.rotations["plane"],
                              in_place.rotations["plane"])
        assert [(s.stage, s.iterations, s.converged) for s in report.stages] \
            == [(s.stage, s.iterations, s.converged)
                for s in in_place_report.stages]
        assert np.max(np.abs(contracted.final_state.amplitudes
                             - in_place.final_state.amplitudes)) <= 1e-12
        # Each step's reads, against the state its own rotations make in
        # place: the step is compared, not the rounding a slow stage
        # accumulates along the way.
        stages, entries, _ = replayed_stages(state, contracted.rotations,
                                             report.stages)
        assert np.max(np.abs(contracted.rotations["entries"] - entries),
                      initial=0.0) <= 1e-12
        for stage, (anchors, pivots, peaks) in zip(report.stages, stages):
            np.testing.assert_allclose(stage.anchor_history, anchors,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(stage.pivot_history, pivots,
                                       rtol=0, atol=1e-12)
            assert abs(stage.residual - peaks[-1]) <= 1e-12
        if error is not None:
            back = invert_trace(contracted).amplitudes
            assert np.max(np.abs(back - state.amplitudes)) <= 1e-10

    @pytest.mark.parametrize("n, l", [(2, 10), (4, 3), (3, 4), (8, 2),
                                      (16, 2), (5, 6), (64, 3), (4, 1)])
    def test_short_rows_and_long_cross_rows_run_in_place(self, monkeypatch,
                                                         n, l):
        # Rows of (64,3) hold 4,096 amplitudes, but K of its two-site half
        # holds 127 * 4,096 entries.
        def refuse(*args):
            raise AssertionError("stage ran contracted")

        monkeypatch.setattr(reduction, "_contracted_stage", refuse)
        state = product_state(random_product_factors(n, l, seed=n + l))
        trace, report = reduce(state)
        assert report.converged and report.support_after == 1

    @pytest.mark.parametrize("n, l", [(2, 16), (4, 8)])
    def test_long_rows_run_stage_zero_contracted(self, monkeypatch, n, l):
        # Stage 1 of (4,8) runs on its (3,8) box, whose rows of 2,187 exceed
        # K by less than CONTRACT_MIN_ROW.
        contract, seen = reduction._contracted_stage, []

        def recording(work, *args):
            seen.append((work.size, *args))
            return contract(work, *args)

        monkeypatch.setattr(reduction, "_contracted_stage", recording)
        state = product_state(random_product_factors(n, l, seed=n + l))
        trace, report = reduce(state)
        assert report.converged and report.support_after == 1
        assert seen == [(n**l, n, l)]


class TestInvertTrace:
    def test_empty_trace_returns_final_state(self):
        trace = DecompositionTrace(1.0, make_records([]), bell())
        out = invert_trace(trace)
        assert np.array_equal(out.amplitudes, bell().amplitudes)

    def test_single_exact_rotation(self):
        s = PureState(2, 2, np.array([0, 1, 0, 0], dtype=complex))
        trace, _ = reduce(s)
        back = invert_trace(trace)
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-13

    @pytest.mark.parametrize("strategy", ["greedy", "round-robin"])
    @pytest.mark.parametrize("n, l", [(2, 4), (3, 3), (5, 2)])
    def test_round_trip_random(self, strategy, n, l):
        for seed in range(5):
            s = random_state(n, l, seed)
            trace, _ = reduce(s, strategy=strategy)
            back = invert_trace(trace)
            assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-9

    def test_round_trip_product_factors(self):
        factors = random_product_factors(3, 4, seed=21)
        s = product_state(factors)
        trace, report = reduce(s)
        assert report.converged
        back = invert_trace(trace)
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-9


@st.composite
def shaped_moves(draw):
    """(n, l, seed, moves): a shape and a list of (site, level_a, level_b)
    with any site order and any level pair a < b."""
    n = draw(st.integers(2, 5))
    l = draw(st.integers(1, 4))
    move = st.tuples(st.integers(0, l - 1), st.integers(0, n - 2)).flatmap(
        lambda sa: st.tuples(st.just(sa[0]), st.just(sa[1]),
                             st.integers(sa[1] + 1, n - 1)))
    return n, l, draw(st.integers(0, 2**32 - 1)), draw(st.lists(move, max_size=12))


def replay_inverse(state, records):
    """Reference inversion: each conjugate transpose through
    apply_plane_rotation, last rotation first."""
    for (_, site, level_a, level_b), entries in zip(
            records["plane"].tolist()[::-1], records["entries"][::-1]):
        state = apply_plane_rotation(state, site, level_a, level_b,
                                     entries.conj().T)
    return state.amplitudes


class TestInvertRotations:
    @settings(max_examples=150, deadline=None)
    @given(case=shaped_moves())
    @example(case=(3, 2, 0, []))
    def test_matches_sequential_replay(self, case):
        n, l, seed, moves = case
        rng = np.random.default_rng(seed)
        planes, unitaries = [], []
        for site, a, b in moves:
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            unitary, _ = np.linalg.qr(z)
            planes.append((a, site, a, b))
            unitaries.append(unitary)
        rotations = make_records(planes, unitaries)
        state = random_state(n, l, seed)
        before = state.amplitudes.copy()
        out = invert_rotations(state.amplitudes, n, l, rotations)
        assert np.array_equal(state.amplitudes, before)
        assert out is not state.amplitudes
        assert np.max(np.abs(out - replay_inverse(state, rotations))) <= 1e-12
        # The forward fold, as reduce applies it to later stages.
        forward = state
        for (_, site, a, b), unitary in zip(planes, unitaries):
            forward = apply_plane_rotation(forward, site, a, b, unitary)
        folded = apply_site_unitaries(state.amplitudes.copy(), n, l,
                                      fold_rotations(rotations, n))
        assert np.max(np.abs(folded - forward.amplitudes)) <= 1e-12


def sequential_fold(records, n):
    """Reference fold: each rotation mixes two rows of its site's
    unitary, one record at a time, in order."""
    unitaries = {}
    for (_, site, a, b), entries in zip(records["plane"].tolist(),
                                        records["entries"]):
        unitary = unitaries.setdefault(site, np.eye(n, dtype=complex))
        unitary[[a, b]] = entries @ unitary[[a, b]]
    return unitaries


def random_records(n, l, count, seed, sites=None):
    """``count`` records of random 2x2 unitaries, each on a random plane
    (a, site, a, b) of one of ``sites`` (default: every site)."""
    rng = np.random.default_rng(seed)
    site = rng.choice(range(l) if sites is None else sites, count)
    a = rng.integers(0, n - 1, count)
    b = rng.integers(a + 1, n)
    z = rng.standard_normal((count, 2, 2)) \
        + 1j * rng.standard_normal((count, 2, 2))
    unitaries, _ = np.linalg.qr(z)
    return make_records(np.stack([a, site, a, b], axis=1), unitaries)


def assert_matches_sequential_fold(records, n):
    folded, reference = fold_rotations(records, n), sequential_fold(records, n)
    assert folded.keys() == reference.keys()
    for site, unitary in reference.items():
        assert folded[site].shape == (n, n)
        assert np.max(np.abs(folded[site] - unitary)) <= 1e-12


class TestFoldRotations:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 6), l=st.integers(1, 4),
           count=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
    def test_long_traces_match_sequential_fold(self, n, l, count, seed):
        assert_matches_sequential_fold(random_records(n, l, count, seed), n)

    # Blocks of about sqrt(T) records: k**2 records fill k blocks exactly,
    # k**2 + 1 for even k make an odd count of k + 1 blocks, the last one
    # padded, so the tree carries a block up unpaired.
    @pytest.mark.parametrize("count", [0, 1, 2, 16, 17, 36, 37, 1024, 1025])
    def test_block_edges(self, count):
        assert_matches_sequential_fold(random_records(3, 2, count, count), 3)

    def test_untouched_sites_are_left_out(self):
        records = random_records(4, 4, 500, seed=3, sites=[1, 3])
        assert fold_rotations(records, 4).keys() == {1, 3}
        assert_matches_sequential_fold(records, 4)

    def test_peak_memory_within_records_and_state(self):
        # The blocks' unitaries may hold as many amplitudes as the records
        # and the state; with the fold's temporaries, the peak stays within
        # three times their bytes.
        n, l = 64, 2
        records = random_records(n, l, 20000, seed=4)
        tracemalloc.start()
        try:
            fold_rotations(records, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (records.nbytes + 16 * n**l)


class TestTelescopedMassTransfer:
    @pytest.mark.parametrize("n, l", [(2, 4), (3, 3), (4, 2)])
    def test_anchor_growth_telescopes(self, n, l):
        s = random_state(n, l, seed=17)
        _, report = reduce(s)
        for stage in report.stages:
            anchors = np.asarray(stage.anchor_history)
            pivots = np.asarray(stage.pivot_history)
            lhs = anchors[1:] ** 2
            rhs = anchors[0] ** 2 + np.cumsum(pivots**2)
            assert np.max(np.abs(lhs - rhs), initial=0.0) < 1e-12
            assert np.all(np.diff(anchors) >= -1e-13)
            assert np.all(anchors <= 1 + 1e-12)
