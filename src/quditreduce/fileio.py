"""JSON file formats for states, rotation traces, and run reports.

Amplitudes are stored as [real, imag] pairs. Floats go through Python's
shortest-round-trip decimal repr, so any finite double written by this
tool reloads bit-exactly. State files whose norm is slightly off (at
most 1e-8 from 1, e.g. hand-written fixtures) are renormalized on load
and flagged; anything worse is rejected.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from .errors import CapacityError
from .reduction import DecompositionTrace, LocalRotation, ReductionReport
from .state import DEFAULT_SIZE_CAP, NORM_ATOL, PureState

STATE_FORMAT = "qudit-state/1"
TRACE_FORMAT = "qudit-trace/1"
REPORT_FORMAT = "qudit-report/1"

#: Norm deviation (|sqrt(sum |a|^2) - 1|) beyond which a state file is rejected.
MAX_NORM_DEVIATION = 1e-8


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _pairs(a) -> list:
    """A complex array as nested lists ending in [re, im] pairs."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def _is_pair(p) -> bool:
    """A JSON [re, im] number pair; type() rather than isinstance() so
    that booleans are rejected."""
    return (type(p) is list and len(p) == 2
            and type(p[0]) in (int, float) and type(p[1]) in (int, float))


def _complex(pairs: list) -> np.ndarray:
    """Checked [re, im] pairs as a complex vector."""
    flat = itertools.chain.from_iterable(pairs)
    return np.fromiter(flat, np.float64, 2 * len(pairs)).view(np.complex128)


def _parse_pairs(raw, what: str) -> np.ndarray:
    _require(isinstance(raw, list), f"{what} must be a list of [re, im] pairs")
    for i, pair in enumerate(raw):
        if not _is_pair(pair):
            raise ValueError(f"{what}[{i}] is not a [re, im] number pair")
    return _complex(raw)


def read_state_file(path):
    """Parse and structurally validate a state file.

    Returns (n, l, amplitudes, seed) with raw, unrenormalized
    amplitudes; ``seed`` is the recorded generator seed or None. Use
    load_state for the norm-checked variant.
    """
    with open(path) as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), "state file must hold a JSON object")
    _require(doc.get("format") == STATE_FORMAT,
             f"unrecognized state format {doc.get('format')!r}")
    n, l = doc.get("n"), doc.get("l")
    _require(isinstance(n, int) and n >= 2, "field 'n' must be an integer >= 2")
    _require(isinstance(l, int) and l >= 1, "field 'l' must be an integer >= 1")
    amps = _parse_pairs(doc.get("amplitudes"), "amplitudes")
    _require(len(amps) == n**l,
             f"expected {n**l} amplitudes for n={n}, l={l}, got {len(amps)}")
    seed = doc.get("seed")
    _require(seed is None or isinstance(seed, int), "field 'seed' must be an integer")
    return n, l, amps, seed


def load_state(path, *, size_cap: int = DEFAULT_SIZE_CAP):
    """Load a state file as a normalized PureState.

    Returns (state, renormalized, seed). Rejects files whose norm
    deviates from 1 by more than 1e-8; smaller deviations beyond the
    in-memory tolerance are silently repaired with renormalized=True.
    """
    n, l, amps, seed = read_state_file(path)
    if n**l > size_cap:
        raise CapacityError(
            f"state file holds {n**l} amplitudes, over the cap {size_cap}"
        )
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    _require(abs(norm_sq**0.5 - 1.0) <= MAX_NORM_DEVIATION,
             f"state file norm {norm_sq**0.5!r} deviates from 1 by more "
             f"than {MAX_NORM_DEVIATION}")
    renormalized = abs(norm_sq - 1.0) > NORM_ATOL
    if renormalized:
        amps = amps / norm_sq**0.5
    return PureState(n, l, amps), renormalized, seed


def save_state(path, state: PureState, *, seed: int | None = None) -> None:
    doc = {
        "format": STATE_FORMAT,
        "n": state.n,
        "l": state.l,
        "amplitudes": _pairs(state.amplitudes),
    }
    if seed is not None:
        doc["seed"] = int(seed)
    _dump(path, doc)


def save_trace(path, trace: DecompositionTrace) -> None:
    final = trace.final_state
    doc = {
        "format": TRACE_FORMAT,
        "n": final.n,
        "l": final.l,
        "original_norm": float(trace.original_norm),
        "rotations": [
            {
                "stage": r.stage,
                "site": r.site,
                "level_a": r.level_a,
                "level_b": r.level_b,
                "entries": _pairs(r.entries),
            }
            for r in trace.rotations
        ],
    }
    _dump(path, doc)


def load_trace(path):
    """Returns (n, l, original_norm, rotations)."""
    with open(path) as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), "trace file must hold a JSON object")
    _require(doc.get("format") == TRACE_FORMAT,
             f"unrecognized trace format {doc.get('format')!r}")
    n, l = doc.get("n"), doc.get("l")
    _require(isinstance(n, int) and n >= 2, "field 'n' must be an integer >= 2")
    _require(isinstance(l, int) and l >= 1, "field 'l' must be an integer >= 1")
    raw = doc.get("rotations")
    _require(isinstance(raw, list), "field 'rotations' must be a list")
    fields, pairs = [], []
    for i, r in enumerate(raw):
        _require(isinstance(r, dict), f"rotations[{i}] must be an object")
        try:
            stage, site = int(r["stage"]), int(r["site"])
            a, b = int(r["level_a"]), int(r["level_b"])
            (e00, e01), (e10, e11) = r["entries"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"rotations[{i}] is malformed: {exc}") from exc
        if not (_is_pair(e00) and _is_pair(e01)
                and _is_pair(e10) and _is_pair(e11)):
            raise ValueError(f"rotations[{i}] is malformed: entries must be "
                             f"[re, im] number pairs")
        _require(0 <= site < l and 0 <= a < b < n,
                 f"rotations[{i}] has out-of-range site or levels")
        fields.append((stage, site, a, b))
        pairs += (e00, e01, e10, e11)
    # One conversion for all entries; each rotation gets a 2x2 view.
    rotations = [LocalRotation(*f, entries=e)
                 for f, e in zip(fields, _complex(pairs).reshape(-1, 2, 2))]
    return n, l, float(doc.get("original_norm", 1.0)), rotations


def report_to_dict(report: ReductionReport, *, tool_version: str,
                   input_digest: str | None, seed: int | None,
                   duration_seconds: float,
                   input_renormalized: bool = False) -> dict:
    return {
        "format": REPORT_FORMAT,
        "tool_version": tool_version,
        "input_digest": input_digest,
        "strategy": report.strategy,
        "epsilon": report.epsilon,
        "max_iters_per_stage": report.max_iters_per_stage,
        "threshold": report.support_threshold,
        "seed": seed,
        "duration_seconds": duration_seconds,
        "input_renormalized": input_renormalized,
        "n": report.n,
        "l": report.l,
        "converged": report.converged,
        "support_before": report.support_before,
        "support_after": report.support_after,
        "bound": report.bound,
        "norm_drift": report.norm_drift,
        "stage_preservation": list(report.stage_preservation),
        "stages": [
            {
                "stage": s.stage,
                "iterations": s.iterations,
                "residual": s.residual,
                "converged": s.converged,
                "anchor_history": list(s.anchor_history),
                "pivot_history": list(s.pivot_history),
            }
            for s in report.stages
        ],
    }


def save_report(path, report_dict: dict) -> None:
    _dump(path, report_dict)


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _dump(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
