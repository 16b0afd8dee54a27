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
(n-k)-level state on which stage k is stage 0. So every stage k >= 1
runs on that box alone, and the rotations of those stages reach the rest
of the vector through one per-site fold at the end. Inversion applies
the conjugate transpose of the same fold.

Every rotation acts on one site, so within a stage the state is its
input under one unitary per site. A stage whose kernel rows are long
runs contracted: it rotates those unitaries and reads the anchor and
targets as contractions of its untouched input, whose amplitudes it
mixes once at the end. The rule is on row length because a rotation in
place touches two rows, one amplitude each at l = 1 and n at l = 2,
while a contracted step reads the whole vector; CONTRACT_MIN_ROW says
how much longer than the contraction's cross rows the kernel rows must be.
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

#: A stage runs contracted (see eliminate_stage) when the kernel rows of
#: its box, m**(l-1) amplitudes for m levels, exceed the K of its
#: larger half by at least this many amplitudes. An in-place step makes
#: about ten numpy passes over two rows; a contracted step rebuilds one K,
#: reads the targets through both and makes one gemv pass over the vector.
#: Stage-0 steps measured in a fresh interpreter on a 2-vCPU Xeon, in us
#: in place against contracted, with the excess of rows over K: (4,7), 768:
#: 35-39 / 32-48; (5,6), 1,500: 30-45 / 32-38; (2,12), 1,600: 25-38 /
#: 25-28; (2,13), 3,072: 38-42 / 29-44; (3,9), 3,888: 50-139 / 35-39;
#: (4,8), 13,056: 142-439 / 49-58. K is no shorter than a row for l <= 5,
#: so those shapes always run in place.
CONTRACT_MIN_ROW = 2048

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

    ``work`` is the state's box of digits >= k, (n-k)**l amplitudes, the
    whole state at k = 0; any other size is a ValueError. On it, stage k
    is stage 0 of an m-level state, m = n-k, whose digit d stands for
    level d + k. Each step zeroes one target at or above epsilon against
    the anchor: greedy picks the largest (smallest flat index on ties),
    round-robin the next one after its previous pick, cycling in flat
    order. A step never shrinks the anchor, so the eliminated magnitudes
    are square-summable and the loop terminates for any epsilon > 0 in
    exact arithmetic; max_iters, an int >= 1, is the practical stop.

    Where kernel rows are long, the stage runs contracted
    (_contracted_stage): its steps rotate one m x m unitary per site and
    read the anchor and targets as contractions of the untouched box,
    which takes the unitaries once at the end. That is when the rows,
    m**(l-1) amplitudes, exceed the K of the larger half by at least
    CONTRACT_MIN_ROW. Otherwise each step runs rotate_pair_inplace on
    ``work`` (_in_place_stage). Both record the same steps, and their
    amplitudes agree to rounding.

    Mixes ``work`` in place, extends the flat lists ``planes`` and
    ``entries`` by each rotation's (stage, site, level_a, level_b) and
    its four zeroing_rotation entries, and returns the StageReport, whose
    ``converged`` is False when max_iters was exhausted first. The
    planes' stage and levels, and the report's stage, are those of the
    whole state.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    # type(), not isinstance(): a bool is not an iteration cap.
    if type(max_iters) is not int or max_iters < 1:
        raise ValueError(f"max_iters must be an int >= 1, got {max_iters!r}")
    stage_targets(n, l, k)  # the shape and stage checks
    m = n - k
    if work.size != m**l:
        raise ValueError(
            f"stage {k} of an n={n}, l={l} state works on its box of "
            f"{m**l} amplitudes, got {work.size}")
    # K of the larger half, b sites, holds (1 + b(m-1)) * m**b entries.
    b = l - l // 2
    driver = _in_place_stage
    if m ** (l - 1) - (1 + b * (m - 1)) * m**b >= CONTRACT_MIN_ROW:
        driver = _contracted_stage
    read, rotate, finish = driver(work, m, l)

    anchor, targets = read()
    anchor_history = [float(abs(anchor))]
    pivot_history: list[float] = []
    cursor = 0
    while True:
        mags = np.abs(targets)
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
        site, digit = divmod(j, m - 1)
        digit += 1
        rot = zeroing_rotation(anchor, targets[j])
        pivot_history.append(float(abs(targets[j])))
        rotate(site, digit, rot)
        anchor, targets = read()
        anchor_history.append(float(abs(anchor)))
        planes += (k, site, k, k + digit)
        entries += rot
    finish()

    return StageReport(
        stage=k, iterations=len(pivot_history), residual=residual,
        anchor_history=anchor_history, pivot_history=pivot_history,
        converged=converged,
    )


def _in_place_stage(work: np.ndarray, n: int, l: int):
    """(read, rotate, finish) of stage 0 of an n-level state run on
    ``work`` itself: read returns the anchor amplitude, work[0], and the
    target amplitudes in ascending flat order, rotate(site, digit, rot)
    mixes levels 0 and digit of ``work`` at one site through
    rotate_pair_inplace, and finish has nothing left to do."""
    flats = stage_targets(n, l, 0)

    def read():
        return work[0], work[flats]

    def rotate(site, digit, rot):
        rotate_pair_inplace(work, n, l, site, 0, digit, *rot)

    return read, rotate, lambda: None


def _contracted_stage(work: np.ndarray, n: int, l: int):
    """(read, rotate, finish) of stage 0 run on per-site unitaries, with
    the contract of _in_place_stage: ``work`` is only read until finish
    applies the unitaries to it. Needs l >= 2, so both halves have sites.

    Within a stage the state is (Q_{l-1} x ... x Q_0) work, one n x n
    unitary Q_s per site, each a product of that site's rotations. Row 0
    of every Q gives the anchor, row d at one site s and row 0 elsewhere
    the target with digit d at s. With the sites split into the halves
    A = 0..h-1 and B = h..l-1, h = l // 2, P = work viewed as
    (n**(l-h), n**h) and K_H the Kronecker products of those rows over
    half H (row 0 the anchor's, then one per target on H, ascending), an
    amplitude is K_B[i] @ P @ K_A[j]: K_A @ x_A gives the anchor and the
    targets on A, and K_B @ x_B those on B, where x_A = K_B[0] @ P and
    x_B = P @ K_A[0]. A step rotates two rows of one Q, rebuilds K of
    that half and refreshes the other half's x by one product with P.
    """
    h = l // 2
    view = work.reshape(n ** (l - h), n ** h)
    unitaries = np.zeros((l, n, n), np.complex128)
    unitaries[...] = np.eye(n)
    touched = set()
    # The row of Q_s that site s puts in each cross row of its half: 0,
    # except digit d in the row of its target (s, d).
    picks = []
    for site in range(l):
        lo, size = (0, h) if site < h else (h, l - h)
        rows = np.zeros(1 + size * (n - 1), dtype=int)
        start = 1 + (site - lo) * (n - 1)
        rows[start:start + n - 1] = np.arange(1, n)
        picks.append(rows)
    # K of the sites lo..hi-1 of a half, a node of a balanced tree: a step
    # rebuilds only the nodes above its site, one broadcast outer product
    # each, so about log2(|H|) products rather than |H| - 1.
    nodes = {}

    def cross_rows(lo, hi, site=None):
        if site is None or lo <= site < hi:
            if hi - lo == 1:
                nodes[lo, hi] = unitaries[lo][picks[lo]]
            else:
                mid = (lo + hi) // 2
                low = cross_rows(lo, mid, site)
                # The higher sites are the more significant digits.
                nodes[lo, hi] = (cross_rows(mid, hi, site)[:, :, None]
                                 * low[:, None, :]).reshape(len(low), -1)
        return nodes[lo, hi]

    kron = [cross_rows(0, h), cross_rows(h, l)]  # K_A, K_B
    x = [kron[1][0] @ view, view @ kron[0][0]]  # x_A, x_B

    def read():
        near = kron[0] @ x[0]
        return near[0], np.concatenate((near[1:], kron[1][1:] @ x[1]))

    def rotate(site, digit, rot):
        m00, m01, m10, m11 = rot
        unitary = unitaries[site]
        row_0 = unitary[0].copy()
        unitary[0] = m00 * row_0 + m01 * unitary[digit]
        unitary[digit] = m10 * row_0 + m11 * unitary[digit]
        touched.add(site)
        if site < h:
            kron[0] = cross_rows(0, h, site)
            x[1] = view @ kron[0][0]
        else:
            kron[1] = cross_rows(h, l, site)
            x[0] = kron[1][0] @ view

    def finish():
        mixed = apply_site_unitaries(
            work, n, l, {site: unitaries[site] for site in sorted(touched)})
        if mixed is not work:
            work[...] = mixed

    return read, rotate, finish


def reduce(state: PureState, strategy: str = "greedy",
           epsilon: float = DEFAULT_EPSILON,
           max_iters_per_stage: int = DEFAULT_MAX_ITERS,
           support_threshold: float | None = None):
    """Run all stages k = 0 .. n-2 and report the outcome.

    Stage 0 mixes one copy of the input's amplitudes in place. Each later
    stage k runs on the box of digits >= k, cut from stage k-1's box, so
    each stage is one eliminate_stage(box, n, l, k) call. The rotations
    of stages >= 1 are then folded into one unitary per site and applied
    to the stage-0 vector once.

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

    box = work
    for k in range(n - 1):
        if k:
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


def _block_products(records, n: int):
    """(touched sites, products): products[b, i] is the product, in
    order, of the rotations block b of ``records`` applies to site
    sites[i], for about sqrt(T) consecutive blocks of the T records,
    folded in lockstep. See fold_rotations."""
    count = len(records)
    plane = records["plane"]
    sites, which = np.unique(plane[:, 1], return_inverse=True)
    block_size = sites.size * n * n
    budget = count * (TRACE_RECORD.itemsize // 16) + n ** sites.size
    blocks = max(1, min(math.isqrt(count - 1) + 1, budget // block_size))
    length = -(-count // blocks)
    # Record i is step i % length of block i // length. A pad step mixes
    # rows 0 and 1 of its block's first site by the identity.
    rows = np.empty((blocks * length, 2), np.intp)
    rows[:count] = (which * n)[:, None] + plane[:, 2:]
    rows[count:] = 0, 1
    rows = rows.reshape(blocks, length, 2)
    rows += (np.arange(blocks) * (sites.size * n))[:, None, None]
    mix = np.empty((blocks * length, 2, 2), np.complex128)
    mix[:count] = records["entries"]
    mix[count:] = np.eye(2)
    mix = mix.reshape(blocks, length, 2, 2)
    products = np.zeros((blocks, sites.size, n, n), np.complex128)
    products[...] = np.eye(n)
    unitary_rows = products.reshape(-1, n)
    for j in range(length):
        # Rows a and b of every block's unitary, mixed as R @ [a; b].
        pair = unitary_rows[rows[:, j]]
        unitary_rows[rows[:, j]] = (mix[:, j, :, :1] * pair[:, :1]
                                    + mix[:, j, :, 1:] * pair[:, 1:])
    return sites, products


def fold_rotations(records, n: int) -> dict[int, np.ndarray]:
    """Fold a TRACE_RECORD array into one n x n unitary per touched site.

    Every rotation acts on one site, so the whole sequence is a tensor
    product of per-site unitaries U = R_T ... R_1, the product of that
    site's rotations in order. The T records are cut into about sqrt(T)
    consecutive blocks, the last one padded with identity records, and
    all blocks are folded in lockstep: step j mixes two rows of every
    block's unitary for the site of its j-th record, as one gather, one
    2x2 mix and one scatter across the blocks. A tree of batched matmuls,
    later blocks on the left, then multiplies the block products, so U
    equals the rotation-by-rotation product to rounding. Beyond one
    block, the blocks' unitaries hold no more amplitudes than the records
    (TRACE_RECORD.itemsize // 16 per record) and a state on the touched
    sites together, so large-n traces get fewer, longer blocks. Returns
    {site: (n, n) complex array}, the sites in ascending order.
    """
    if not len(records):
        return {}
    sites, products = _block_products(records, n)
    while len(products) > 1:
        # Block 2i+1 times block 2i; an odd last block is carried up as
        # if paired with an identity block.
        pairs = len(products) // 2
        merged = np.empty((len(products) - pairs, *products.shape[1:]),
                          np.complex128)
        np.matmul(products[1:2 * pairs:2], products[:2 * pairs:2],
                  out=merged[:pairs])
        merged[pairs:] = products[2 * pairs:]
        products = merged
    return dict(zip(sites.tolist(), products[0]))


def apply_site_unitaries(amplitudes: np.ndarray, n: int, l: int,
                         unitaries) -> np.ndarray:
    """Apply each site's (n, n) array in ``unitaries``, {site: array} as
    fold_rotations returns it, through ``site_view``, touching the
    amplitudes once per site. Alternates between ``amplitudes`` and one
    spare vector, so it overwrites ``amplitudes`` and may return it."""
    work, spare = amplitudes, None
    for site, unitary in unitaries.items():
        if spare is None:
            spare = np.empty_like(work)
        np.matmul(unitary, site_view(work, n, l, site),
                  out=site_view(spare, n, l, site))
        work, spare = spare, work
    return work


def invert_rotations(amplitudes: np.ndarray, n: int, l: int,
                     records) -> np.ndarray:
    """Undo the TRACE_RECORD array ``records`` on a raw amplitude vector;
    returns a new vector.

    Each site's folded unitary U = R_T ... R_1, an (n, n) array from
    fold_rotations, is undone by its conjugate transpose
    U^dagger = R_1^dagger ... R_T^dagger, applied as one matrix per site
    by apply_site_unitaries.
    """
    work = np.array(amplitudes, dtype=np.complex128)
    adjoints = {site: unitary.conj().T
                for site, unitary in fold_rotations(records, n).items()}
    return apply_site_unitaries(work, n, l, adjoints)


def invert_trace(trace: DecompositionTrace) -> PureState:
    """Undo a recorded reduction, reproducing its original input state."""
    final = trace.final_state
    work = invert_rotations(final.amplitudes, final.n, final.l,
                            trace.rotations)
    return PureState(final.n, final.l, work)
