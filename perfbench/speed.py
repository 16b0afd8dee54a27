"""Machine-speed probe: rescales command wall times to a fixed machine speed.

The benchmark runs on a few vCPUs of a shared host whose speed changes by
up to 1.8x in phases of seconds to minutes (a neighbour on the same
physical core, NOTES.md "Timing on a shared host"). A whole run can sit in
a slow phase, so medians of raw wall time spread by 20-45% from run to run;
the slowdown is the host's, not the program's.

The probe runs a fixed reference -- plain Python arithmetic, the pure-Python
JSON encoder, the C JSON decoder, per-call numpy overhead on a tiny array and
vector numpy arithmetic on a 128 KiB array, the same kinds of work as the
CLI's -- just before and just after every timed command and, from a SIGALRM
timer, every PERIOD_S seconds while the command runs. Each stretch of the
command between two samples is rescaled by the reference time there:

    scaled_s = sum over stretches of  stretch_s * NOMINAL_REF_S / ref_s

where ref_s is the mean of the two neighbouring samples, each smoothed as
the median of itself and its SMOOTH neighbours on either side. The probe's
own time is not in any stretch. NOMINAL_REF_S is a constant, so a program
change moves the result exactly as it moves busy wall time at a fixed
machine speed. The reference never calls the program under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import time

import numpy as np

#: Sampling period while a command runs (the probe takes ~0.7 ms, ~2% of it).
PERIOD_S = 0.04
#: Samples on each side in the running median that smooths the reference.
SMOOTH = 5
#: Reference time that defines the reported speed: about the probe's median
#: on a 2-vCPU Intel Xeon KVM guest when no neighbour slows it.
NOMINAL_REF_S = 0.70e-3

_rng = np.random.default_rng(0)
_ROWS = [{"site": i % 7, "a": i % 3, "b": i % 5, "theta": float(x), "phi": float(y)}
         for i, (x, y) in enumerate(_rng.standard_normal((12, 2)))]
_DOC = json.dumps([[float(a), float(b)] for a, b in _rng.standard_normal((100, 2))])
_TINY = _rng.standard_normal(16) + 1j * _rng.standard_normal(16)
_VEC = _rng.standard_normal(8192) + 1j * _rng.standard_normal(8192)


def _python():
    x = 0
    for i in range(1500):
        x += i * i


def _encode():
    # json.dump with indent takes the pure-Python encoder, as save_trace does.
    json.dump(_ROWS, io.StringIO(), indent=1)


def _decode():
    json.loads(_DOC)


def _tiny_numpy():
    a = _TINY.copy()
    for _ in range(25):
        a[2:6] *= 0.5 + 0.5j
        float(np.abs(a).max())


def _vector_numpy():
    a = _VEC
    for _ in range(3):
        a = a * 0.99 + _VEC * 0.01j


COMPONENTS = (_python, _encode, _decode, _tiny_numpy, _vector_numpy)


class SpeedProbe:
    """Samples the reference; ``timed`` rescales one call's busy time."""

    def __init__(self):
        self.samples = []  # (start, end, reference seconds) per sample
        self._busy = False

    def sample(self):
        if self._busy:  # a timer signal arrived while sampling
            return
        self._busy = True
        started = time.perf_counter()
        for component in COMPONENTS:
            component()
        ended = time.perf_counter()
        self.samples.append((started, ended, ended - started))
        self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def running(self):
        """Sample every PERIOD_S seconds until the context exits."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """Run ``fn()``; returns (result, wall_s, busy_s, scaled_s).

        busy_s is wall_s less the probe's own time inside the call;
        scaled_s is busy_s rescaled stretch by stretch to the speed where
        the reference takes NOMINAL_REF_S.
        """
        self.sample()
        first = len(self.samples) - 1
        started = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - started
            self.sample()
        run = np.array(self.samples[first:])
        stretch = run[1:, 0] - run[:-1, 1]
        ref = np.array([np.median(run[max(0, i - SMOOTH):i + SMOOTH + 1, 2])
                        for i in range(len(run))])
        scaled = float(np.sum(stretch * NOMINAL_REF_S / ((ref[:-1] + ref[1:]) / 2)))
        return result, wall, float(stretch.sum()), scaled
