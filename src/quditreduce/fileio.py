"""JSON file formats for states, rotation traces, and run reports.

Each file is one line of UTF-8 JSON; layout is not part of a format.
Integer fields must be JSON integers (booleans rejected). States are
written as ``qudit-state/2``, whose amplitudes are one base64 string of
the little-endian complex128 values; ``qudit-state/1``, whose amplitudes
are [real, imag] pairs, is the hand-writable format and is still read.
Traces are ``qudit-trace/2`` only: their rotations are base64 strings of
TRACE_RECORD records, which load as the one TRACE_RECORD array that
``reduce`` records. Floats in JSON go through Python's
shortest-round-trip decimal repr, so any finite double reloads
bit-exactly; a number too large for a double, a non-finite amplitude in
either state format, or a missing or non-finite ``original_norm`` is
rejected. The checks in ``state`` judge shapes, the amplitude cap and
rotation planes. State files whose norm is slightly off (at most 1e-8
from 1, e.g. hand-written fixtures) are renormalized on load and
flagged; anything worse is rejected.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json

import numpy as np

from .reduction import TRACE_RECORD, DecompositionTrace, ReductionReport
from .state import NORM_ATOL, PureState, check_plane, check_shape

STATE_FORMAT = "qudit-state/1"
STATE_FORMAT_BASE64 = "qudit-state/2"
TRACE_FORMAT_BASE64 = "qudit-trace/2"
REPORT_FORMAT = "qudit-report/1"

_NUMBER = (int, float)

#: Norm deviation (|sqrt(sum |a|^2) - 1|) beyond which a state file is rejected.
MAX_NORM_DEVIATION = 1e-8


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _int(value, what: str) -> int:
    """A JSON integer: type(), not isinstance(), so booleans are rejected."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer")
    return value


def _parse_pairs(raw, what: str) -> np.ndarray:
    """Checked [re, im] pairs as a complex vector."""
    _require(isinstance(raw, list), f"{what} must be a list of [re, im] pairs")
    for i, p in enumerate(raw):
        # type(), not isinstance(), so booleans are rejected, as in _int.
        if not (type(p) is list and len(p) == 2
                and type(p[0]) in _NUMBER and type(p[1]) in _NUMBER):
            raise ValueError(f"{what}[{i}] is not a [re, im] number pair")
    flat = itertools.chain.from_iterable(raw)
    try:
        return np.fromiter(flat, np.float64, 2 * len(raw)).view(np.complex128)
    except OverflowError:
        raise ValueError("a number is too large for a double") from None


def _b64encode(a, dtype) -> str:
    """Base64 of ``a``'s bytes as a contiguous ``dtype`` array."""
    return base64.b64encode(np.ascontiguousarray(a, dtype)).decode("ascii")


def _b64decode(raw, what: str) -> bytes:
    """The bytes of the base64 string ``raw``, which errors call ``what``;
    the caller judges their length."""
    _require(type(raw) is str, f"{what} must be a base64 string")
    try:
        return base64.b64decode(raw, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{what} is not valid base64: {exc}") from None


def _read_doc(path, formats: tuple, parse):
    """Load a JSON object, check that its format tag is one of
    ``formats`` and check_shape(n, l), and return ``parse(doc)``. Every
    ValueError names ``path``, once, and keeps its class, so an over-cap
    header raises CapacityError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        _require(isinstance(doc, dict),
                 f"{formats[0]} file must hold a JSON object")
        _require(doc.get("format") in formats,
                 f"unrecognized format {doc.get('format')!r}, expected "
                 f"{' or '.join(map(repr, formats))}")
        check_shape(_int(doc.get("n"), "field 'n'"),
                    _int(doc.get("l"), "field 'l'"))
        return parse(doc)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except UnicodeDecodeError as exc:  # its message ignores exc.args
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_state_file(path):
    """Parse and structurally validate a state file.

    Accepts both state formats. Returns (n, l, amplitudes, seed) with
    raw, unrenormalized amplitudes in a fresh array; ``seed`` is the
    recorded generator seed or None. Use load_state for the norm-checked
    variant.
    """
    def parse(doc):
        n, l, seed = doc["n"], doc["l"], doc.get("seed")
        if seed is not None:
            _int(seed, "field 'seed'")
        raw = doc.get("amplitudes")
        if doc["format"] == STATE_FORMAT_BASE64:
            blob = _b64decode(raw, "field 'amplitudes'")
            _require(len(blob) == 16 * n**l,
                     f"expected {n**l} amplitudes for n={n}, l={l}, got "
                     f"{len(blob)} bytes of base64 payload, not {16 * n**l}")
            amps = np.frombuffer(blob, "<c16").astype(np.complex128)
        else:
            amps = _parse_pairs(raw, "amplitudes")
            _require(len(amps) == n**l, f"expected {n**l} amplitudes for "
                     f"n={n}, l={l}, got {len(amps)}")
        # Both formats: json.load takes the non-JSON NaN and Infinity.
        _require(bool(np.isfinite(amps).all()), "amplitudes must be finite")
        return n, l, amps, seed
    return _read_doc(path, (STATE_FORMAT, STATE_FORMAT_BASE64), parse)


def load_state(path):
    """Load a state file as a normalized PureState: (state, renormalized,
    seed). The shape and cap are those of read_state_file. A norm off 1
    by more than 1e-8 is rejected; a smaller deviation beyond the
    in-memory tolerance is repaired, with renormalized=True.
    """
    n, l, amps, seed = read_state_file(path)
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    _require(abs(norm_sq**0.5 - 1.0) <= MAX_NORM_DEVIATION,
             f"{path}: norm {norm_sq**0.5!r} deviates from 1 by more "
             f"than {MAX_NORM_DEVIATION}")
    renormalized = abs(norm_sq - 1.0) > NORM_ATOL
    if renormalized:
        amps /= norm_sq**0.5  # fresh from read_state_file, so no copy
    return PureState(n, l, amps), renormalized, seed


def save_state(path, state: PureState, *, seed: int | None = None) -> None:
    """Write ``state`` as STATE_FORMAT_BASE64."""
    doc = {
        "format": STATE_FORMAT_BASE64,
        "n": state.n,
        "l": state.l,
        "amplitudes": _b64encode(state.amplitudes, "<c16"),
    }
    if seed is not None:
        doc["seed"] = int(seed)
    _dump(path, doc)


def save_trace(path, trace: DecompositionTrace) -> None:
    """Write ``trace`` as TRACE_FORMAT_BASE64: its TRACE_RECORD array as
    one base64 string, or [] when there are no rotations."""
    final, records = trace.final_state, trace.rotations
    chunks = [_b64encode(records, TRACE_RECORD)] if len(records) else []
    _dump(path, {
        "format": TRACE_FORMAT_BASE64,
        "n": final.n,
        "l": final.l,
        "original_norm": float(trace.original_norm),
        "rotations": chunks,
    })


def load_trace(path):
    """Read a TRACE_FORMAT_BASE64 file. Returns (n, l, original_norm,
    records), ``records`` one writable TRACE_RECORD array holding the
    file's rotations in order: its base64 strings of records,
    concatenated."""
    def parse(doc):
        n, l = doc["n"], doc["l"]
        original_norm = doc.get("original_norm")
        # An int compares exactly with a float, so 10**400 fails too.
        _require(type(original_norm) in _NUMBER
                 and abs(original_norm) <= float(np.finfo(float).max),
                 "field 'original_norm' must be a finite number")
        raw = doc.get("rotations")
        _require(isinstance(raw, list), "field 'rotations' must be a list")
        chunks = []
        for i, text in enumerate(raw):
            blob = _b64decode(text, f"rotations[{i}]")
            _require(len(blob) % TRACE_RECORD.itemsize == 0,
                     f"rotations[{i}] decodes to {len(blob)} bytes, not a "
                     f"whole number of {TRACE_RECORD.itemsize}-byte records")
            chunk = np.frombuffer(blob, TRACE_RECORD)
            check_plane(n, l, *chunk["plane"][:, 1:].T,
                        what=f"rotations[{i}], record")
            chunks.append(chunk)
        records = (np.concatenate(chunks) if chunks
                   else np.empty(0, TRACE_RECORD))
        return n, l, float(original_norm), records
    return _read_doc(path, (TRACE_FORMAT_BASE64,), parse)


def report_to_dict(report: ReductionReport, *, tool_version: str,
                   input_digest: str | None, seed: int | None,
                   duration_seconds: float,
                   input_renormalized: bool = False) -> dict:
    """The run's provenance plus every ReductionReport field, with
    support_threshold written as threshold and each StageReport as an
    object of its fields."""
    doc = {"format": REPORT_FORMAT, "tool_version": tool_version,
           "input_digest": input_digest, "seed": seed,
           "duration_seconds": duration_seconds,
           "input_renormalized": input_renormalized, **vars(report)}
    doc["threshold"] = doc.pop("support_threshold")
    doc["stages"] = [dict(vars(s)) for s in report.stages]
    return doc


def save_report(path, report_dict: dict) -> None:
    _dump(path, report_dict)


def file_digest(path) -> str:
    """``sha256:`` and the hex SHA-256 of the file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def _dump(path, doc: dict) -> None:
    """Write ``doc`` as one line of JSON. json.dumps takes the C encoder,
    which json.dump never does; encoding first leaves no file behind
    when a value cannot be encoded."""
    text = json.dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
