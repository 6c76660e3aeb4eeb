"""Timings scaled to a reference machine speed.

The benchmark's host shares its cores with other machines: the same work
runs up to 1.5x slower for minutes at a time, in CPU time as much as in
wall time, and a process on the other core does not see the same speed.
So a fixed reference job is timed on the benchmark's own thread: a few
times just before and just after each timed segment, and once every
TICK_S seconds inside it, from a SIGALRM handler that runs between the
program's bytecodes. A segment's wall time, less the handler's time, is
scaled by ``REFERENCE_S`` / (the mean time of the fastest KEPT share of
those reference jobs): it reads as the seconds the segment takes when
the reference job takes ``REFERENCE_S``. The reference job mixes what
the program spends its time on: ``difflib`` matching, string splitting and joining, and small
numpy products. It is the benchmark's own code, so a change to the
program moves the segment times and leaves the reference job alone.
"""
from __future__ import annotations

import difflib
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0095  # the reference job's median time on an unloaded 2-vCPU x86-64 host
EDGE_JOBS = 5  # reference jobs just before and just after each segment
TICK_S = 0.25  # one reference job per this many seconds inside a segment
# Share of a segment's reference jobs whose mean gives its speed. Dropping the
# slowest fifth cut the spread of a repeated `score` repetition from 4.8% to
# 1.5% (interquartile range / median, 11 repetitions on a busy 2-vCPU host).
KEPT = 0.8

_WORDS = [f"w{i * 7919 % 1000:03d}x{i % 13}" for i in range(240)]
_TEXT = " ".join(_WORDS)
_GRAMS = [" ".join(_WORDS[i:i + 1 + i % 3]) + "q" for i in range(0, 24, 3)]
_MATRIX = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)


def reference_job() -> int:
    """Fixed work of about REFERENCE_S seconds; the result keeps it from being skipped."""
    toks = _TEXT.split()
    matcher = difflib.SequenceMatcher(None, "", "", autojunk=False)
    hits = 0
    for gram in _GRAMS:
        matcher.set_seq2(gram)
        order = len(gram.split())
        for i in range(0, len(toks) - order + 1, 3):
            matcher.set_seq1(" ".join(toks[i:i + order]))
            hits += matcher.ratio() > 0.6
    x = _MATRIX
    for _ in range(100):
        x = np.tanh(x @ _MATRIX) * 0.5
    return hits + int(x.sum() > 0)


def _timed_job() -> float:
    start = time.perf_counter()
    reference_job()
    return time.perf_counter() - start


class SpeedClock:
    """Times segments at reference speed.

    ``start(ticks=False)`` is for a segment that waits on a child process:
    a handler running beside the child would not delay the segment, so it
    is timed only at its edges.
    """

    def __init__(self):
        self.jobs: list[float] = []  # every reference job's time, for the run's record
        self._edge: list[float] = []
        self._ticks: list[float] = []
        self.factor = 1.0  # reference speed / measured speed of the last segment
        signal.signal(signal.SIGALRM, lambda signum, frame: self._ticks.append(_timed_job()))

    def start(self, ticks: bool = True) -> float:
        self._edge = [_timed_job() for _ in range(EDGE_JOBS)]
        self._ticks = []
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return time.perf_counter()

    def ticks_s(self) -> float:
        """Seconds the handler has run so far in the current segment."""
        return sum(self._ticks)

    def stop(self, start: float) -> float:
        """Seconds since ``start`` less the handler's time, at reference speed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        ticks = list(self._ticks)
        jobs = self._edge + ticks + [_timed_job() for _ in range(EDGE_JOBS)]
        self.jobs += jobs
        kept = sorted(jobs)[:max(1, int(len(jobs) * KEPT))]
        self.factor = REFERENCE_S / statistics.fmean(kept)
        return (wall - sum(ticks)) * self.factor
