"""Host-speed probe: scales measured times to a fixed host speed.

The small shared hosts the benchmark runs on change speed by up to 2x from
one tenth of a second to the next (another tenant on the same physical core,
clock changes), and a process's CPU time slows with its wall time, so
neither clock alone gives run-to-run figures that agree. While a
``SpeedProbe`` is running, a timer interrupts the program every
``INTERVAL_S`` and runs two fixed reference kernels, timed apart:

* ``interpreter_kernel``: string slicing and dict counting, the
  interpreter-bound work of featurize, clue matching and loading;
* ``numpy_kernel``: small matrix products and scatter-adds, the array work
  of contrastive and graph training.

A slow spell slows the two by different amounts (about 1.9x and 1.6x on the
2-vCPU shared host the benchmark was tuned on), and so it slows the
program's phases: prediction, set-up and the fuzzy pass move with the
interpreter kernel, a fit with both.
Each measured interval has its probe time removed and every stretch between
probes scaled by ``reference / probe work``, where the probe work is the
interpreter kernel's time (``INTERPRETER``) or both kernels' (``WHOLE``):
the result is the time the interval would take on a host where that work
takes the reference seconds.

The kernels are the benchmark's own code, so a change to the program moves
the program's scaled times and never the probe's.
"""

from __future__ import annotations

import contextlib
import signal
import time
from array import array

import numpy as np

from measure import scaled_seconds

INTERVAL_S = 0.1
INTERPRETER = "interpreter"
WHOLE = "whole"
# About each kind of probe work's duration on the host the benchmark was
# tuned on; they only fix the scale the reported times are given in.
REFERENCE_S = {INTERPRETER: 0.001, WHOLE: 0.003}
INTERPRETER_REPEATS = 10
NUMPY_REPEATS = 5

_TEXT = " ".join(f"the defendant {i} took cash from counter {i * 7 % 13}" for i in range(12))
_A = np.random.default_rng(0).standard_normal((96, 64))
_W = np.random.default_rng(1).standard_normal((64, 64)) / 8.0
_INDEX = np.random.default_rng(2).integers(0, 32, 96)
# Preallocated, so that a probe leaves the program's heap as it found it.
_X = np.empty((96, 64))
_Y = np.empty((96, 64))
_ACC = np.empty((32, 64))


def interpreter_kernel() -> int:
    """A fixed amount of interpreter-bound work."""
    grams: dict[str, int] = {}
    for i in range(len(_TEXT) - 2):
        gram = _TEXT[i : i + 3]
        grams[gram] = grams.get(gram, 0) + 1
    return len(grams)


def numpy_kernel() -> float:
    """A fixed amount of small-array numpy work."""
    _ACC.fill(0.0)
    _X[...] = _A
    for _ in range(4):
        np.matmul(_X, _W, out=_Y)
        np.tanh(_Y, out=_X)
        np.add.at(_ACC, _INDEX, _X)
    return float(_ACC[0, 0])


class SpeedProbe:
    """Periodic reference probes: when each started and ended, and how long
    each kind of work took, in time order.

    The readings are kept in ``array.array`` rather than as Python objects
    the garbage collector tracks, so that probing leaves the program's
    collection schedule, and with it its peak memory, as it was.
    """

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.work = {INTERPRETER: array("d"), WHOLE: array("d")}

    @property
    def count(self) -> int:
        return len(self.starts)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        for _ in range(INTERPRETER_REPEATS):
            interpreter_kernel()
        split = time.perf_counter()
        for _ in range(NUMPY_REPEATS):
            numpy_kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.work[INTERPRETER].append(split - start)
        self.work[WHOLE].append(end - start)

    @contextlib.contextmanager
    def running(self):
        """Probe every INTERVAL_S for the duration of the block (main thread
        only: the timer delivers SIGALRM to it)."""
        self._on_alarm(signal.SIGALRM, None)  # a probe before the first interval
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float, kind: str) -> float:
        """Seconds of ``[start, end]`` at the reference speed of ``kind``."""
        return scaled_seconds(
            self.starts, self.ends, self.work[kind], start, end, REFERENCE_S[kind]
        )
