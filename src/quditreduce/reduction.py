"""Staged elimination of product-basis terms by recorded plane rotations.

A stage k (k = 0 .. n-2) works against the anchor term |kk...k> and
eliminates every term that has one digit d > k at a single site and
digit k everywhere else. Each elimination applies a zeroing rotation in
span{|k>, |d>} at the target's site, which moves the target's squared
magnitude onto the anchor; iterating drives the maximum target
magnitude below epsilon. Because stage-k rotations act as the identity
on levels below k, later stages cannot revive terms zeroed earlier, and
after all stages at most n**l - n(n-1)l/2 terms survive.

The anchor and targets of stage k, and every amplitude its rotations
mix with them, lie in the box of terms whose digits are all >= k: an
(n-k)-level state on which stage k is stage 0. When kernel rows are
long, stages k >= 1 run on that box alone, and their rotations reach the
rest of the vector through one per-site fold at the end. Inversion
applies the conjugate transpose of the same fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, NonConvergenceError
from .state import (PureState, check_shape, index_encode, rotate_pair_inplace,
                    site_view)

STRATEGIES = ("greedy", "round-robin")

DEFAULT_EPSILON = 1e-12
DEFAULT_MAX_ITERS = 100000

#: In the final state, the targets of the stages before a completed stage
#: must lie below this multiple of epsilon, else the run aborts as
#: internally inconsistent.
PRESERVATION_FACTOR = 10.0

#: Kernel rows (n**(l-1) amplitudes) at least this long run stages k >= 1
#: on the box of digits >= k. Boxing spares each stage-k rotation the
#: kernel's pass over 2*(n**(l-1) - (n-k)**(l-1)) row amplitudes outside
#: the box, and charges it one step of the Python fold instead. Break-even
#: is about fold time / kernel time per amplitude: on a 2-vCPU Xeon the
#: fold takes 6-9 us per rotation and the kernel 7-13 ns per amplitude at
#: (4,8) and (5,6), so boxing pays once a rotation spares several hundred
#: amplitudes. 1024 boxes (4,8) and (5,6) (rows of 16,384 and 3,125) and
#: keeps short rows in place: at l = 2 the box spares a rotation only 2k
#: amplitudes, and boxed reductions of four (8,2) and two (16,2) states
#: took a median 1.78 s against 1.37 s in place on the same host.
BOX_MIN_ROW = 1024

#: One recorded step, in memory and in qudit-trace/2 files: the plane
#: (stage, site, level_a, level_b), a stage-k step mixing levels (k, target
#: digit), then its row-major 2x2 unitary, all little-endian (80 bytes).
TRACE_RECORD = np.dtype([("plane", "<i4", (4,)), ("entries", "<c16", (2, 2))])


@dataclass
class StageReport:
    """Iteration record of one stage.

    anchor_history[0] is the anchor magnitude before the first step and
    anchor_history[N] the magnitude after step N; pivot_history[N-1] is
    the magnitude of the target eliminated at step N: the largest one
    under greedy, the next one at or above epsilon in cyclic flat order
    under round-robin. residual is the maximum target magnitude when the
    loop stopped.
    """

    stage: int
    iterations: int
    residual: float
    anchor_history: list[float]
    pivot_history: list[float]
    converged: bool


@dataclass
class ReductionReport:
    n: int
    l: int
    strategy: str
    epsilon: float
    max_iters_per_stage: int
    support_threshold: float
    stages: list[StageReport] = field(default_factory=list)
    #: Per completed stage: max magnitude, in the final state, over the
    #: targets of all earlier stages.
    stage_preservation: list[float] = field(default_factory=list)
    support_before: int = 0
    support_after: int = 0
    bound: int = 0
    norm_drift: float = 0.0
    converged: bool = False


@dataclass
class DecompositionTrace:
    """Recorded rotations, one TRACE_RECORD array in the order applied,
    plus the state they produced. Applying the conjugate transposes to
    final_state in reverse order reproduces the original input."""

    original_norm: float
    rotations: np.ndarray
    final_state: PureState


def zeroing_rotation(anchor_amp, target_amp) -> tuple[complex, ...]:
    """Entries (m00, m01, m10, m11), row-major, of the 2x2 unitary R with
    R @ (anchor, target)^T = (r, 0)^T, r >= 0 real.

    r is the Euclidean length of the input pair, so the rotation moves
    the target's squared magnitude onto the anchor. Total function:
    when both inputs are (essentially) zero it returns the identity.
    """
    x = complex(anchor_amp)
    y = complex(target_amp)
    r = math.hypot(abs(x), abs(y))
    if r < 1e-300:
        return 1 + 0j, 0j, 0j, 1 + 0j
    return x.conjugate() / r, y.conjugate() / r, -y / r, x / r


def check_stages(records) -> None:
    """Require stage == level_a in every record: a stage-k rotation mixes
    level k with a higher one. Stages need not ascend."""
    plane = records["plane"]
    bad = np.flatnonzero(plane[:, 0] != plane[:, 2])
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{bad.size} of {len(records)} rotations break the stage grammar; "
            f"rotations[{i}] has stage {plane[i, 0]} but level_a {plane[i, 2]}")


def term_bound(n: int, l: int) -> int:
    """Maximum surviving term count after a converged reduction:
    n**l - n(n-1)l/2 for l >= 2. A single site keeps 1 term: its stage-0
    targets are all levels but |0>, so later stages find nothing left."""
    return 1 if l == 1 else n**l - n * (n - 1) * l // 2


def support_count(state: PureState, threshold: float) -> int:
    """Number of amplitudes with magnitude strictly above ``threshold``."""
    return int(np.count_nonzero(np.abs(state.amplitudes) > threshold))


def stage_targets(n: int, l: int, k: int) -> np.ndarray:
    """Ascending flat indices of the (n-1-k)*l targets of stage k.

    Target j has digit k+1 + j % (n-1-k) at site j // (n-1-k) and digit
    k at every other site, so it sits (digit - k) * n**site above the
    anchor |kk...k>. The greedy tie-break relies on the ascending order.
    """
    check_shape(n, l)
    if not 0 <= k <= n - 2:
        raise ValueError(f"stage {k} outside [0, {n - 2}] for n={n}")
    anchor = index_encode((k,) * l, n)
    return anchor + np.outer(n ** np.arange(l), np.arange(1, n - k)).ravel()


def eliminate_stage(work: np.ndarray, n: int, l: int, k: int,
                    planes: list[int], entries: list[complex],
                    strategy: str = "greedy",
                    epsilon: float = DEFAULT_EPSILON,
                    max_iters: int = DEFAULT_MAX_ITERS) -> StageReport:
    """Drive every stage-k target of an n-level, l-site state below epsilon.

    ``work`` is the flat state, n**l amplitudes, or its box of digits
    >= k, (n-k)**l amplitudes, told apart by size; any other size is a
    ValueError. On the box, stage k is stage 0 of an (n-k)-level state
    whose digit d stands for level d + k. Each step zeroes one target at
    or above epsilon against the anchor: greedy picks the largest
    (smallest flat index on ties), round-robin the next one after its
    previous pick, cycling in flat order. A step never shrinks the
    anchor, so the eliminated magnitudes are square-summable and the loop
    terminates for any epsilon > 0 in exact arithmetic; max_iters, an
    int >= 1, is the practical stop.

    Mixes ``work`` in place, extends the flat lists ``planes`` and
    ``entries`` by each rotation's (stage, site, level_a, level_b) and
    its four zeroing_rotation entries, and returns the StageReport, whose
    ``converged`` is False when max_iters was exhausted first. The
    planes' stage and levels, and the report's stage, are those of the
    whole state on either vector.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    # type(), not isinstance(): a bool is not an iteration cap.
    if type(max_iters) is not int or max_iters < 1:
        raise ValueError(f"max_iters must be an int >= 1, got {max_iters!r}")
    flats = stage_targets(n, l, k)
    offset = 0
    if work.size != n**l:
        if work.size != (n - k)**l:
            raise ValueError(
                f"stage {k} of an n={n}, l={l} state works on {n**l} or "
                f"{(n - k)**l} amplitudes, got {work.size}")
        # The box: stage 0 of an (n-k)-level state, levels shifted by k.
        offset, n, k = k, n - k, 0
        flats = stage_targets(n, l, k)
    anchor = index_encode((k,) * l, n)

    anchor_history = [float(abs(work[anchor]))]
    pivot_history: list[float] = []
    cursor = 0
    while True:
        mags = np.abs(work[flats])
        # argmax returns the first maximum; targets are in ascending flat
        # order, which implements the greedy smallest-flat tie-break.
        j = int(mags.argmax())
        residual = float(mags[j])
        converged = residual < epsilon
        if converged or len(pivot_history) >= max_iters:
            break
        if strategy == "round-robin":
            live = np.flatnonzero(mags >= epsilon)
            j = int(live[np.searchsorted(live, cursor) % live.size])
            cursor = j + 1
        site, digit = divmod(j, n - 1 - k)
        digit += k + 1
        flat = int(flats[j])
        rot = zeroing_rotation(work[anchor], work[flat])
        pivot_history.append(float(abs(work[flat])))
        rotate_pair_inplace(work, n, l, site, k, digit, *rot)
        anchor_history.append(float(abs(work[anchor])))
        planes += (k + offset, site, k + offset, digit + offset)
        entries += rot

    return StageReport(
        stage=k + offset, iterations=len(pivot_history), residual=residual,
        anchor_history=anchor_history, pivot_history=pivot_history,
        converged=converged,
    )


def reduce(state: PureState, strategy: str = "greedy",
           epsilon: float = DEFAULT_EPSILON,
           max_iters_per_stage: int = DEFAULT_MAX_ITERS,
           support_threshold: float | None = None):
    """Run all stages k = 0 .. n-2 and report the outcome.

    Stage 0 mixes one copy of the input's amplitudes in place. Later
    stages do too, unless kernel rows hold at least BOX_MIN_ROW
    amplitudes: then stage k runs on the box of digits >= k, cut from
    stage k-1's box, and the rotations of stages >= 1 are folded into one
    unitary per site and applied to the stage-0 vector once. Each stage
    is one eliminate_stage(box, n, l, k) call, whichever vector ``box``
    is, and both ways record the same rotations.

    Returns (DecompositionTrace, ReductionReport). On the final state, the
    targets of all stages before each completed stage are checked; a
    magnitude above 10*epsilon there is an InternalConsistencyError. The
    run stops at the first stage that hits max_iters_per_stage and raises
    NonConvergenceError, whose ``trace`` and ``report`` hold every
    rotation and stage so far. A support_threshold outside [0, inf),
    given or derived as 10*epsilon, is a ValueError, and so is a
    max_iters_per_stage that is not an int >= 1.
    """
    if support_threshold is None:
        support_threshold = PRESERVATION_FACTOR * epsilon
    if not 0 <= support_threshold < math.inf:
        raise ValueError(
            f"support_threshold must be non-negative and finite, got "
            f"{support_threshold!r} (default {PRESERVATION_FACTOR:g}*epsilon, "
            f"epsilon {epsilon!r})")
    n, l = state.n, state.l
    report = ReductionReport(
        n=n, l=l, strategy=strategy, epsilon=epsilon,
        max_iters_per_stage=max_iters_per_stage,
        support_threshold=support_threshold,
        support_before=support_count(state, support_threshold),
        bound=term_bound(n, l),
    )
    work = state.amplitudes.copy()
    planes: list[int] = []  # four values per rotation, as in TRACE_RECORD
    entries: list[complex] = []
    boxed = n ** (l - 1) >= BOX_MIN_ROW

    box = work
    for k in range(n - 1):
        if boxed and k:
            # A contiguous copy of the digits >= 1 of stage k-1's box.
            box = box.reshape((n - k + 1,) * l)[(slice(1, None),) * l].flatten()
        stage = eliminate_stage(box, n, l, k, planes, entries, strategy,
                                epsilon, max_iters_per_stage)
        report.stages.append(stage)
        if not stage.converged:
            break
    rotations = np.empty(len(planes) // 4, TRACE_RECORD)
    rotations["plane"] = np.reshape(planes, (-1, 4))
    rotations["entries"] = np.reshape(entries, (-1, 2, 2))
    if boxed:
        later = rotations[report.stages[0].iterations:]
        work = apply_site_unitaries(work, n, l, fold_rotations(later, n))

    earlier_flats = np.zeros(0, dtype=int)
    for done in report.stages:
        if not done.converged:
            break
        drift = float(np.max(np.abs(work[earlier_flats]), initial=0.0))
        report.stage_preservation.append(drift)
        if drift > PRESERVATION_FACTOR * epsilon:
            raise InternalConsistencyError(
                f"stage {done.stage} left an earlier-stage target at "
                f"magnitude {drift:.3e} > {PRESERVATION_FACTOR * epsilon:.1e}"
            )
        earlier_flats = np.concatenate((earlier_flats,
                                        stage_targets(n, l, done.stage)))

    final = PureState(n, l, work)
    report.converged = stage.converged
    report.support_after = support_count(final, support_threshold)
    report.norm_drift = float(abs(final.norm - 1.0))
    trace = DecompositionTrace(state.norm, rotations, final)
    if not stage.converged:
        raise NonConvergenceError(
            f"stage {stage.stage} ({strategy}) still at residual "
            f"{stage.residual:.3e} after {max_iters_per_stage} eliminations "
            f"(epsilon {epsilon:.1e})",
            residual=stage.residual, trace=trace, report=report,
        )
    return trace, report


def fold_rotations(records, n: int) -> dict[int, list[list[complex]]]:
    """Fold a TRACE_RECORD array into one n x n unitary per touched site.

    Every rotation acts on one site, so the whole sequence is a tensor
    product of per-site unitaries U = R_T ... R_1, the product of that
    site's rotations in order. Each rotation costs O(n), as a 2x2 mix of
    two rows of its site's unitary. Returns {site: rows} with rows as
    lists of Python complex.
    """
    # Python complex throughout: per-rotation numpy calls on n-vectors
    # cost more than the arithmetic.
    unitaries: dict[int, list[list[complex]]] = {}
    for (_, site, level_a, level_b), (m00, m01, m10, m11) in zip(
            records["plane"].tolist(), records["entries"].reshape(-1, 4).tolist()):
        rows = unitaries.get(site)
        if rows is None:
            rows = unitaries[site] = np.eye(n, dtype=np.complex128).tolist()
        a, b = rows[level_a], rows[level_b]
        rows[level_a] = [m00 * x + m01 * y for x, y in zip(a, b)]
        rows[level_b] = [m10 * x + m11 * y for x, y in zip(a, b)]
    return unitaries


def apply_site_unitaries(amplitudes: np.ndarray, n: int, l: int,
                         unitaries) -> np.ndarray:
    """Apply each site's n x n matrix in ``unitaries`` ({site: rows} from
    fold_rotations, or {site: array}) through ``site_view``, touching the
    amplitudes once per site. Alternates between ``amplitudes`` and one
    spare vector, so it overwrites ``amplitudes`` and may return it."""
    work, spare = amplitudes, None
    for site, rows in unitaries.items():
        if spare is None:
            spare = np.empty_like(work)
        np.matmul(np.array(rows), site_view(work, n, l, site),
                  out=site_view(spare, n, l, site))
        work, spare = spare, work
    return work


def invert_rotations(amplitudes: np.ndarray, n: int, l: int,
                     records) -> np.ndarray:
    """Undo the TRACE_RECORD array ``records`` on a raw amplitude vector;
    returns a new vector.

    Each site's folded unitary U = R_T ... R_1 is undone by its conjugate
    transpose U^dagger = R_1^dagger ... R_T^dagger, which is the conjugate
    transposes of the rotations, last one first, as one matrix.
    """
    work = np.array(amplitudes, dtype=np.complex128)
    adjoints = {site: np.array(rows).conj().T
                for site, rows in fold_rotations(records, n).items()}
    return apply_site_unitaries(work, n, l, adjoints)


def invert_trace(trace: DecompositionTrace) -> PureState:
    """Undo a recorded reduction, reproducing its original input state."""
    final = trace.final_state
    work = invert_rotations(final.amplitudes, final.n, final.l,
                            trace.rotations)
    return PureState(final.n, final.l, work)
