"""Machine-speed reference for the benchmark's times.

A shared machine changes speed by tens of percent within seconds (other
tenants, host scheduling), which would swamp the difference between two
commits.  So while questions are answered, a timer signal every INTERVAL_S
runs a fixed sample of pure-Python work of the benchmark's own, shaped like
the package's work (small- and 800-bit-row signatures, sorting, ranking,
tuples, edge-list text), and records how long it took.  Each question's
wall-clock time, less the time spent in samples, is multiplied by
REFERENCE_SAMPLE_S over the median sample taken during the question
(widened by MARGIN_S on each side).  A reported time therefore reads as
wall-clock time on a machine where one sample takes REFERENCE_SAMPLE_S.
The sample never calls the package, so a faster package cannot make it
faster.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

REFERENCE_SAMPLE_S = 0.0004
INTERVAL_S = 0.025
MARGIN_S = 0.1

_ROWS = tuple((i * 0x9E3779B97F4A7C15) % (1 << 61) for i in range(100))
_MASKS = _ROWS[:8]
_BIG = tuple(pow(3, 500 + i, 1 << 800) for i in range(40))
_BIG_MASKS = _BIG[:6]
_PAIRS = tuple((i % 37, (i * 7) % 41 + 37) for i in range(60))


def _work() -> int:
    sigs = []
    for r in _ROWS:
        s = 0
        for m in _MASKS:
            s = s * 65 + (r & m).bit_count()
        sigs.append(s)
    rank = {v: i for i, v in enumerate(sorted(sigs))}
    cells = {tuple(rank[v] for v in sigs[k:k + 10]) for k in range(0, len(sigs), 3)}
    acc = 0
    for r in _BIG:
        for m in _BIG_MASKS:
            acc += (r & m).bit_count()
    text = "\n".join(f"e {u} {v}" for u, v in _PAIRS)
    edges = {(int(a), int(b)) for _, a, b in map(str.split, text.splitlines())}
    return len(cells) + acc + len(edges)


class Sampler:
    """Speed samples taken from a SIGALRM timer while it runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self.spent = 0.0  # seconds inside the handler, to take off question times
        self._old = None

    def _sample(self, _signum, _frame) -> None:
        # a collection here would time the package's heap, not the machine
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.lengths.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_SAMPLE_S over the median sample length in [start, end],
        widened by MARGIN_S, or the nearest sample when none fell inside."""
        if not self.starts:
            raise RuntimeError("no speed samples were taken")
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        if lo == hi:
            near = min(max(lo, 0), len(self.starts) - 1)
            return REFERENCE_SAMPLE_S / self.lengths[near]
        return REFERENCE_SAMPLE_S / statistics.median(self.lengths[lo:hi])
