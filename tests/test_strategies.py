"""The contract every strategy keeps, in place and contracted, and what
each records on easy and on random states."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quditreduce import (
    NonConvergenceError,
    PureState,
    invert_trace,
    product_state,
    random_state,
    reduce,
    stage_targets,
    support_count,
    term_bound,
)
from quditreduce import reduction
from quditreduce.reduction import STRATEGIES, check_stages
from quditreduce.state import check_unitary


def reduce_with(state, contract_min_row=None, **kwargs):
    """(trace, report, raised) of library reduce, CONTRACT_MIN_ROW patched
    when given; a NonConvergenceError's partials are returned as well."""
    with pytest.MonkeyPatch.context() as patch:
        if contract_min_row is not None:
            patch.setattr(reduction, "CONTRACT_MIN_ROW", contract_min_row)
        try:
            return (*reduce(state, **kwargs), False)
        except NonConvergenceError as err:
            return err.trace, err.report, True


def ghz(n, l):
    """(|0...0> + |1...1> + ... + |n-1...n-1>) / sqrt(n) as amplitudes."""
    amps = np.zeros(n**l, dtype=complex)
    amps[np.arange(n) * sum(n**s for s in range(l))] = 1 / np.sqrt(n)
    return amps


def random_product(n, l, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n))
    return product_state(z / np.linalg.norm(z, axis=1, keepdims=True))


def easy_state(n, l, delta, seed):
    """GHZ plus delta times a random state, normalized; a product state
    when delta is None."""
    if delta is None:
        return random_product(n, l, seed)
    amps = ghz(n, l) + delta * random_state(n, l, seed).amplitudes
    return PureState(n, l, amps / np.linalg.norm(amps))


def rotation_count(state, strategy):
    trace, report = reduce(state, strategy=strategy)
    assert report.converged
    return len(trace.rotations)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("contracted", [False, True],
                         ids=["in-place", "contracted"])
class TestContract:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 5), l=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1),
           cap=st.sampled_from([3, 37, reduction.DEFAULT_MAX_ITERS]))
    @example(n=5, l=5, seed=5, cap=reduction.DEFAULT_MAX_ITERS)
    @example(n=4, l=3, seed=1, cap=37)
    def test_reduction_contract(self, strategy, contracted, n, l, seed, cap):
        # The contracted driver needs two halves of sites; the rule that
        # picks it never does at l = 1.
        assume(l >= 2 or not contracted)
        state = random_state(n, l, seed)
        before = state.amplitudes.copy()
        trace, report, raised = reduce_with(
            state, contract_min_row=-2**62 if contracted else 2**62,
            strategy=strategy, max_iters_per_stage=cap)
        assert np.array_equal(state.amplitudes, before)
        assert raised == (not report.converged)
        records = trace.rotations
        check_stages(records)
        check_unitary(records["entries"])
        assert len(records) == sum(s.iterations for s in report.stages)
        done = 0
        for stage in report.stages:
            assert stage.iterations <= cap
            assert len(stage.pivot_history) == stage.iterations
            assert len(stage.anchor_history) == stage.iterations + 1
            assert np.all(records["plane"][done:done + stage.iterations, 0]
                          == stage.stage)
            done += stage.iterations
            if strategy != "newton" or contracted:
                assert stage.newton_steps == 0
        final = trace.final_state.amplitudes
        limit = reduction.PRESERVATION_FACTOR * report.epsilon
        for stage in report.stages:
            if stage.converged:
                flats = stage_targets(n, l, stage.stage)
                assert np.max(np.abs(final[flats])) < limit
        if report.converged:
            assert report.support_after <= term_bound(n, l)
            assert support_count(trace.final_state,
                                 report.support_threshold) <= term_bound(n, l)
        # A NonConvergenceError's partial trace inverts to the input too.
        back = invert_trace(trace).amplitudes
        assert np.max(np.abs(back - before)) <= 1e-10


#: GHZ plus delta times a random state (five seeds each), and random
#: product states (delta None).
EASY_FAMILIES = [(n, l, delta) for n, l in [(2, 3), (3, 3), (4, 3), (2, 6)]
                 for delta in (1e-1, 1e-2, 1e-4, None)]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("n, l, delta", EASY_FAMILIES)
def test_easy_states_take_at_most_twice_greedys_rotations(strategy, n, l,
                                                           delta):
    # A fixed overshoot of each zeroing rotation turns these fast tails
    # slow: it leaves a share of every target behind. The slack of
    # l*n(n-1)/2 is one rotation per plane of every site.
    for seed in range(1, 6):
        state = easy_state(n, l, delta, seed)
        greedy = rotation_count(state, "greedy")
        assert rotation_count(state, strategy) <= 2 * greedy + l * n * (n - 1) // 2


@pytest.mark.parametrize("n, l", [(16, 2), (8, 2), (4, 3), (5, 6), (2, 10),
                                  (3, 4)])
def test_newton_halves_greedys_rotations_on_random_states(n, l):
    state = random_state(n, l, 1)
    assert 2 * rotation_count(state, "newton") <= rotation_count(state, "greedy")


def test_each_accepted_newton_step_lowers_the_target_weight(monkeypatch):
    step, weights = reduction._newton_step, []

    def recording(work, n, l, flats, pairs, targets):
        before = float(np.sum(np.abs(work[flats]) ** 2))
        moves = step(work, n, l, flats, pairs, targets)
        if moves is not None:
            weights.append((before, float(np.sum(np.abs(work[flats]) ** 2))))
        return moves

    monkeypatch.setattr(reduction, "_newton_step", recording)
    trace, report = reduce(random_state(5, 6, 1), strategy="newton")
    assert report.converged
    assert len(weights) == sum(s.newton_steps for s in report.stages) > 0
    assert all(after < before for before, after in weights)


@pytest.mark.parametrize("n, l, newton_start, cap", [
    (4, 3, 0.0, reduction.DEFAULT_MAX_ITERS),
    (3, 4, 0.0, reduction.DEFAULT_MAX_ITERS),
    (4, 3, None, 8),
    (3, 4, None, 7),
    (2, 16, None, reduction.DEFAULT_MAX_ITERS),
])
def test_newton_without_newton_steps_is_greedy(monkeypatch, n, l,
                                               newton_start, cap):
    # No target is ever below a start of 0; a cap below the stage's
    # l*(n-1) targets leaves no room for a Newton step's rotations; and
    # the one stage of (2,16) runs contracted, where Newton never steps.
    if newton_start is not None:
        monkeypatch.setattr(reduction, "NEWTON_START", newton_start)
    state = random_state(n, l, 1)
    newton, newton_report, newton_raised = reduce_with(
        state, strategy="newton", max_iters_per_stage=cap)
    greedy, greedy_report, greedy_raised = reduce_with(
        state, strategy="greedy", max_iters_per_stage=cap)
    assert newton_raised == greedy_raised == (cap < l * (n - 1))
    assert newton.rotations.tobytes() == greedy.rotations.tobytes()
    assert np.array_equal(newton.final_state.amplitudes,
                          greedy.final_state.amplitudes)
    assert newton_report.stages == greedy_report.stages
    assert all(s.newton_steps == 0 for s in newton_report.stages)
