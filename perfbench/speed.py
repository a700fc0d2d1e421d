"""Machine-speed probe: timings as they would read at a fixed machine speed.

The benchmark runs on a small virtual machine whose CPUs share a host.  The
speed of one virtual CPU drifts by up to 1.6x over seconds to minutes, and
the two CPUs drift independently of each other, so a fixed piece of Python
takes a different wall time from one run to the next.  A run of the same code
then reads up to a third slower or faster than the run before it.

`Sampler` measures that drift where the timed work runs.  It pins the worker
process to one CPU and runs a fixed probe (`probe`: exact rational and
integer arithmetic, like the library's) from a background thread every
`INTERVAL_S`.  While the probe runs it holds the interpreter lock, so the
timed code pauses; `scaled()` removes those pauses from a measured interval
and multiplies what is left by the machine's speed during the interval,
``REFERENCE_S / probe time``.  A slow phase of the machine makes the probe
slower by the same share as the timed code, so the scaled time stays put.

The scaled times are in seconds at the reference speed: the probe's median
time on the 2-vCPU x86-64 VM where the benchmark was defined.  Raw wall
times are printed beside them.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

REFERENCE_S = 0.0012  # median probe time at the reference speed
INTERVAL_S = 0.05  # time between probes
BLOCK = 5  # probes per speed estimate
BURST = 25  # probes taken at once after a short interval, such as set-up


def probe() -> float:
    """Seconds taken by a fixed mix of Fraction and int arithmetic (about 1 ms)."""
    start = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 80):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    x = 0
    for i in range(4000):
        x += i * i % 7
    return time.perf_counter() - start


class Sampler:
    """Probes the machine's speed from a background thread while work runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration), in time order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def start(self) -> "Sampler":
        # the probe must run on the CPU that runs the timed code
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _record(self) -> None:
        start = time.perf_counter()
        self.samples.append((start, probe()))

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._record()

    def burst(self) -> tuple[float, float]:
        """Probe BURST times at once; return the interval they took.

        A set-up of a tenth of a second holds too few probes of its own, and
        its first ones run in a process that has just moved to its CPU.
        """
        start = time.perf_counter()
        for _ in range(BURST):
            self._record()
        return start, time.perf_counter()

    def scaled(self, t0: float, t1: float, speed_at: tuple[float, float] | None = None) -> float:
        """Seconds the interval [t0, t1] would take at the reference speed.

        The probes' own time inside the interval is taken out.  The speed is
        the mean, over blocks of BLOCK consecutive probes inside the
        interval (or inside ``speed_at``, if given), of each block's median
        speed; an interval holding fewer than BLOCK probes takes the BLOCK
        probes nearest its middle.
        """
        samples = list(self.samples)  # the thread may append meanwhile
        paused = sum(max(0.0, min(s + d, t1) - max(s, t0)) for s, d in samples)
        lo, hi = speed_at or (t0, t1)
        inside = [d for s, d in samples if lo <= s and s + d <= hi]
        if len(inside) < BLOCK:
            mid = (lo + hi) / 2
            near = sorted(samples, key=lambda sd: abs(sd[0] + sd[1] / 2 - mid))[:BLOCK]
            blocks = [[d for _, d in near]]
        else:
            blocks = [inside[i : i + BLOCK] for i in range(0, len(inside) - BLOCK + 1, BLOCK)]
        speed = statistics.fmean(REFERENCE_S / statistics.median(b) for b in blocks)
        return (t1 - t0 - paused) * speed
