import base64
import json
from pathlib import Path

import numpy as np

from quditreduce.fileio import STATE_FORMAT, STATE_FORMAT_BASE64

#: The trace record, spelled out so that the tests pin its layout.
RECORD = np.dtype([("plane", "<i4", (4,)), ("entries", "<c16", (2, 2))])


def digits_of(flat, n, l):
    """Per-site digits of a flat index, site 0 first, from numpy alone."""
    return tuple(int(d) for d in np.unravel_index(flat, (n,) * l, order="F"))


def make_records(planes, entries=None):
    """Records of ``planes`` (stage, site, level_a, level_b), each with
    the identity as its entries unless ``entries`` is given: one 2x2 for
    every plane, or one per plane, each a 2x2 or its four row-major
    values."""
    records = np.zeros(len(planes), RECORD)
    records["plane"] = np.reshape(planes, (-1, 4))
    records["entries"] = np.eye(2) if entries is None else \
        np.reshape(entries, (-1, 2, 2))
    return records


def state_doc(n, l, amps, **extra):
    """A qudit-state/1 document of ``amps`` as [re, im] pairs."""
    doc = {
        "format": STATE_FORMAT,
        "n": n,
        "l": l,
        "amplitudes": [[float(z.real), float(z.imag)] for z in amps],
    }
    doc.update(extra)
    return doc


def pairs_doc(path):
    """The qudit-state/2 file at ``path`` rewritten as a qudit-state/1
    document, seed kept. save_state writes /2 only, so this is the
    fixture for tests that edit an amplitude as an [re, im] pair."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    assert doc["format"] == STATE_FORMAT_BASE64
    amps = np.frombuffer(base64.b64decode(doc["amplitudes"]), "<c16")
    return {**doc, **state_doc(doc["n"], doc["l"], amps)}

