"""In-memory span tracer that wraps the package's public entry points.

The tracer patches module attributes (the name where the caller looks it
up), records one span per call -- name, start, end, parent -- and
restores every patched name when its context exits. No code inside the
package is changed, so an untraced run executes exactly the shipped code.

Self time of a span is its duration minus the time its child spans
cover. Calls are nested on one thread, so children never overlap and
their coverage is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

import numpy as np


def _path_size(arg_index):
    """Size function: bytes of the file named by positional ``arg_index``."""
    def size(args, kwargs):
        return os.path.getsize(args[arg_index])
    return size


def _touched_amplitudes(args, kwargs):
    # rotate_pair_inplace(amps, n, l, ...): each call reads and writes the
    # two level slices of one site, 2 * n**(l-1) amplitudes in all.
    amps, n = args[0], args[1]
    return 2 * (amps.size // n)


def patch_table(qr):
    """(module, attribute, span name, size function) for every traced name.

    ``qr`` is the imported package; the table patches each function in the
    module whose global the caller reads, as listed in NOTES.md.
    """
    cli, red, spec = qr.cli, qr.reduction, qr.spectral
    return [
        (cli, "cmd_reduce", "cli.cmd_reduce", None),
        (cli, "cmd_verify", "cli.cmd_verify", None),
        (cli, "cmd_schmidt", "cli.cmd_schmidt", None),
        (cli, "load_state", "fileio.load_state", _path_size(0)),
        (cli, "read_state_file", "fileio.read_state_file", _path_size(0)),
        (cli, "save_state", "fileio.save_state", _path_size(0)),
        (cli, "save_trace", "fileio.save_trace", _path_size(0)),
        (cli, "load_trace", "fileio.load_trace", _path_size(0)),
        (cli, "save_report", "fileio.save_report", _path_size(0)),
        (cli, "file_digest", "fileio.file_digest", _path_size(0)),
        (cli, "report_to_dict", "fileio.report_to_dict", None),
        (cli, "reduce", "reduction.reduce", None),
        (red, "eliminate_stage", "reduction.eliminate_stage", None),
        (red, "zeroing_rotation", "reduction.zeroing_rotation", None),
        (cli, "invert_rotations", "reduction.invert_rotations", None),
        (red, "rotate_pair_inplace", "state.rotate_pair_inplace",
         _touched_amplitudes),
        (cli, "schmidt_coefficients", "spectral.schmidt_coefficients", None),
        (spec, "hermitian_eigenvalues", "spectral.hermitian_eigenvalues", None),
    ]


class Spans:
    """Spans of one traced pass as parallel numpy arrays."""

    def __init__(self, names, records):
        self.names = list(names)
        arr = np.array(records, dtype=np.float64).reshape(-1, 5)
        self.name_id = arr[:, 0].astype(np.int64)
        self.parent = arr[:, 1].astype(np.int64)
        self.start = arr[:, 2]
        self.end = arr[:, 3]
        self.size = arr[:, 4]
        self.duration = self.end - self.start
        covered = np.zeros(len(arr))
        child = self.parent >= 0
        np.add.at(covered, self.parent[child], self.duration[child])
        self.self_time = self.duration - covered

    def mask(self, name):
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(name)

    def parent_is(self, name):
        """Mask of spans whose direct parent span is called ``name``."""
        has = self.parent >= 0
        out = np.zeros(len(self.name_id), dtype=bool)
        out[has] = self.mask(name)[self.parent[has]]
        return out

    def total(self, name):
        return float(self.duration[self.mask(name)].sum())

    def self_total(self, name):
        return float(self.self_time[self.mask(name)].sum())

    def count(self, name):
        return int(self.mask(name).sum())

    def size_total(self, name):
        return float(self.size[self.mask(name)].sum())

    def layer_self(self):
        """Self time summed per layer (the span-name prefix)."""
        out = {}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(
                self.self_time[self.name_id == i].sum())
        return out

    def root_total(self):
        return float(self.duration[self.parent < 0].sum())

    def as_arrays(self, prefix):
        return {
            f"{prefix}name_id": self.name_id,
            f"{prefix}parent": self.parent,
            f"{prefix}start": self.start,
            f"{prefix}end": self.end,
            f"{prefix}size": self.size,
        }


class Tracer:
    """Records spans of wrapped calls in memory; one instance per run."""

    def __init__(self, table):
        self.table = table
        self.names = [name for _, _, name, _ in table]
        self._records = []
        self._stack = []

    def _wrap(self, name_id, fn, size):
        records, stack, clock = self._records, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name_id, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(records))
            records.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if size is not None:
                rec[4] = size(args, kwargs)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every name in the table; restore all of them on exit."""
        originals = []
        try:
            for i, (module, attr, _, size) in enumerate(self.table):
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(i, fn, size))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def take(self) -> Spans:
        """Spans recorded since the last take; clears the buffer."""
        if self._stack:
            raise RuntimeError("take() called while a traced call is open")
        spans = Spans(self.names, self._records)
        self._records.clear()
        return spans
