"""Acceptance suite.

Each criterion is one test that prints a single pass/fail line; run
with ``pytest -s tests/test_acceptance.py`` to see the lines live
(without -s they show up in captured output). The seeded runs are
shared between criteria through module-scoped fixtures, so the whole
module stays well under a minute.
"""

import time

import numpy as np
import pytest

from quditreduce import (
    invert_trace,
    product_state,
    random_state,
    reduce,
    schmidt_coefficients,
    term_bound,
)
from quditreduce.reduction import stage_targets, support_count

EPSILON = 1e-12
MAX_ITERS = 10000
SUPPORT_TOL = 1e-11

BOUND_SHAPES = [(2, 2), (2, 3), (2, 4), (2, 10), (3, 2), (3, 3), (4, 2),
                (4, 3), (5, 2)]
BOUND_SEEDS = 100
BIPARTITE_LEVELS = [2, 3, 4, 5]
BIPARTITE_SEEDS = 50
PRODUCT_SITES = range(2, 9)
PRODUCT_SEEDS = 50


def _report(num, name, ok, detail):
    print(f"[acceptance] criterion {num} ({name}): "
          f"{'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def telescope_error(report):
    """Worst per-step deviation from anchor^2 growth by summed pivot^2."""
    worst = 0.0
    for stage in report.stages:
        if not stage.pivot_history:
            continue
        anchors = np.asarray(stage.anchor_history)
        pivots = np.asarray(stage.pivot_history)
        lhs = anchors[1:] ** 2
        rhs = anchors[0] ** 2 + np.cumsum(pivots**2)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def earlier_stage_target_max(state):
    """Largest magnitude over targets of all stages before the final one."""
    n, l = state.n, state.l
    worst = 0.0
    for k in range(n - 2):
        flats = stage_targets(n, l, k)
        worst = max(worst, float(np.max(np.abs(state.amplitudes[flats]))))
    return worst


def _run_greedy(state):
    trace, report = reduce(state, "greedy", EPSILON, MAX_ITERS)
    back = invert_trace(trace)
    return trace, report, {
        "converged": report.converged,
        "max_residual": max(s.residual for s in report.stages),
        "telescope": telescope_error(report),
        "roundtrip": float(np.max(np.abs(back.amplitudes - state.amplitudes))),
        "norm_drift": float(abs(trace.final_state.norm - 1.0)),
    }


@pytest.fixture(scope="module")
def bound_runs():
    started = time.perf_counter()
    rows = []
    for n, l in BOUND_SHAPES:
        for seed in range(BOUND_SEEDS):
            state = random_state(n, l, seed)
            trace, report, row = _run_greedy(state)
            row.update(
                shape=(n, l), seed=seed,
                support=support_count(trace.final_state, SUPPORT_TOL),
                bound=term_bound(n, l),
                preservation=(earlier_stage_target_max(trace.final_state)
                              if n >= 3 else 0.0),
            )
            rows.append(row)
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def bipartite_runs():
    rows = []
    for n in BIPARTITE_LEVELS:
        for seed in range(BIPARTITE_SEEDS):
            state = random_state(n, 2, seed)
            trace, report, row = _run_greedy(state)
            final = np.abs(trace.final_state.amplitudes)
            diag_flats = [i * (n + 1) for i in range(n)]
            diag = np.sort(final[diag_flats])[::-1]
            oracle = schmidt_coefficients(state).schmidt_coefficients
            row.update(
                n=n, seed=seed,
                coeff_diff=float(np.max(np.abs(diag - oracle))),
                max_offdiag=float(np.max(np.delete(final, diag_flats))),
            )
            rows.append(row)
    return rows


@pytest.fixture(scope="module")
def product_runs():
    rows = []
    for l in PRODUCT_SITES:
        for seed in range(PRODUCT_SEEDS):
            rng = np.random.default_rng((l, seed))
            z = rng.standard_normal((l, 2)) + 1j * rng.standard_normal((l, 2))
            factors = z / np.linalg.norm(z, axis=1, keepdims=True)
            state = product_state(factors)
            trace, report = reduce(state, "round-robin", EPSILON, MAX_ITERS)
            back = invert_trace(trace)
            rows.append({
                "l": l, "seed": seed,
                "converged": report.converged,
                "iterations": report.stages[0].iterations,
                "support": support_count(trace.final_state, 1e-10),
                "roundtrip": float(np.max(np.abs(back.amplitudes
                                                 - state.amplitudes))),
                "norm_drift": float(abs(trace.final_state.norm - 1.0)),
            })
    return rows


def test_criterion_1_bound_reproduction(bound_runs):
    rows, elapsed = bound_runs
    bad = [r for r in rows
           if not (r["converged"] and r["support"] <= r["bound"])]
    margin = max(r["support"] - r["bound"] for r in rows)
    detail = (f"{len(rows)} greedy runs over {len(BOUND_SHAPES)} shapes in "
              f"{elapsed:.1f}s; worst support-bound margin {margin}; "
              f"{len(bad)} violations")
    _report(1, "bound reproduction", not bad and elapsed < 60.0, detail)


def test_criterion_2_schmidt_cross_check(bipartite_runs):
    rows = bipartite_runs
    worst_diff = max(r["coeff_diff"] for r in rows)
    worst_off = max(r["max_offdiag"] for r in rows)
    ok = (all(r["converged"] for r in rows)
          and worst_diff < 1e-8 and worst_off < 1e-10)
    detail = (f"{len(rows)} bipartite runs; worst coefficient diff "
              f"{worst_diff:.2e} (< 1e-8); worst off-diagonal "
              f"{worst_off:.2e} (< 1e-10)")
    _report(2, "Schmidt cross-check", ok, detail)


def test_criterion_3_mass_transfer(bound_runs, bipartite_runs):
    rows = bound_runs[0] + bipartite_runs
    worst_tel = max(r["telescope"] for r in rows)
    worst_res = max(r["max_residual"] for r in rows)
    ok = (all(r["converged"] for r in rows)
          and worst_tel <= 1e-12 and worst_res < EPSILON)
    detail = (f"{len(rows)} instrumented greedy runs; worst telescoped "
              f"error {worst_tel:.2e} (<= 1e-12); worst final pivot "
              f"{worst_res:.2e} (< 1e-12)")
    _report(3, "mass-transfer equation", ok, detail)


def test_criterion_4_product_state_collapse(product_runs):
    rows = product_runs
    ok = all(r["converged"] and r["support"] == 1
             and r["iterations"] == r["l"] for r in rows)
    detail = (f"{len(rows)} random qubit product states (l = 2..8); every "
              f"run collapsed to support 1 after one pass of l eliminations")
    _report(4, "product-state collapse", ok, detail)


def test_criterion_5_round_trip(bound_runs, bipartite_runs, product_runs):
    rows = bound_runs[0] + bipartite_runs + product_runs
    worst_rt = max(r["roundtrip"] for r in rows)
    worst_norm = max(r["norm_drift"] for r in rows)
    ok = worst_rt < 1e-9 and worst_norm < 1e-10
    detail = (f"{len(rows)} runs; worst inversion deviation {worst_rt:.2e} "
              f"(< 1e-9); worst norm drift {worst_norm:.2e} (< 1e-10)")
    _report(5, "round-trip", ok, detail)


def test_criterion_6_stage_preservation(bound_runs):
    rows = [r for r in bound_runs[0] if r["shape"][0] >= 3]
    worst = max(r["preservation"] for r in rows)
    ok = worst < SUPPORT_TOL
    detail = (f"{len(rows)} runs with n >= 3; worst earlier-stage target "
              f"after the final stage {worst:.2e} (< 1e-11)")
    _report(6, "stage preservation", ok, detail)


def test_exploratory_multilevel_product_states_collapse():
    # Not an acceptance gate: whether n > 2 product states always reduce
    # to a single term is left open, so this documents the observed
    # behavior at desk scale without feeding the criteria above.
    for n, l in [(3, 3), (4, 3), (3, 4)]:
        for seed in range(10):
            rng = np.random.default_rng((n, l, seed))
            z = rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n))
            factors = z / np.linalg.norm(z, axis=1, keepdims=True)
            trace, report = reduce(product_state(factors))
            assert report.converged
            assert support_count(trace.final_state, 1e-10) == 1
