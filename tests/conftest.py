import json

import numpy as np
import pytest

from quditreduce.fileio import TRACE_FORMAT


def _save_trace_v1(path, trace):
    """Write ``trace`` as a qudit-trace/1 document: one object per
    rotation, its entries as [re, im] pairs. save_trace writes /2 only,
    so this is the fixture for tests that edit a /1 rotation."""
    final = trace.final_state
    rotations = [
        {"stage": r.stage, "site": r.site, "level_a": r.level_a,
         "level_b": r.level_b,
         "entries": np.ascontiguousarray(r.entries, dtype=complex)
                      .view(float).reshape(2, 2, 2).tolist()}
        for r in trace.rotations
    ]
    path.write_text(json.dumps({
        "format": TRACE_FORMAT, "n": final.n, "l": final.l,
        "original_norm": float(trace.original_norm), "rotations": rotations,
    }))


@pytest.fixture
def save_trace_v1():
    return _save_trace_v1
