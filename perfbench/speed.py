"""Host-speed normalisation of timed spans.

The benchmark runs on a few cores of a shared host whose speed drifts
by a quarter or more over tens of seconds, and CPU time drifts with it
(the cores get slower, the process is not descheduled).  So a raw wall
time measures the neighbours as much as the program.

:class:`SpeedMeter` samples the host's speed while a span runs: a
``SIGALRM`` interval timer runs a fixed pure-Python probe (integer
arithmetic, dict and list work, no program code) every
:data:`INTERVAL_S` seconds in the process itself, and the probe is run
once more at the start and at the end of every span.  A span's scaled
time is its wall time times the mean of ``REFERENCE_PROBE_S / probe
time`` over the samples taken during it: the time the span would have
taken at the reference speed.  The probe does not call the program, so
a program that does more work shows in full; what the scaling removes is
the host getting faster or slower while it runs.

Forked workers inherit the handler but not the timer, so only the
measuring process is probed.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

perf_counter = time.perf_counter

#: seconds between two timer-driven probes (each costs ~2% of that)
INTERVAL_S = 0.1
#: probe loop length, about 2 ms of interpreter work
PROBE_LOOPS = 2000
#: the probe's time at the reference speed (its median on a 2-core
#: shared Xeon VM under Python 3.11); scaled times are in seconds at
#: this speed
REFERENCE_PROBE_S = 0.0019


def probe() -> float:
    """Run the fixed probe once and return its wall time."""
    start = perf_counter()
    table = {}
    items = []
    acc = 0x9E3779B9
    for i in range(PROBE_LOOPS):
        acc = (acc * 0x5DEECE66D + i) & 0xFFFFFFFFFFFF
        key = acc & 0x3FF
        table[key] = table.get(key, 0) + (acc >> 17 & 0xFF)
        items.append((key, acc & 0xFFFF))
        if len(items) > 64:
            items.sort()
            del items[:32]
    return perf_counter() - start


# the interpreter specialises the probe's code over its first runs, which
# are slower; run it past that once, so every timed probe is warm
for _ in range(5):
    probe()


def scaled(raw_s: float, probes: List[float]) -> float:
    """*raw_s* at the reference speed, given probe times taken over it."""
    return raw_s * statistics.fmean(REFERENCE_PROBE_S / p for p in probes)


class Span:
    """One timed span: raw wall seconds and reference-speed seconds."""

    def __init__(self, meter: "SpeedMeter") -> None:
        self._meter = meter
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.samples = 0

    def __enter__(self) -> "Span":
        self._first = len(self._meter.samples)
        self._meter.samples.append(probe())
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = perf_counter() - self._start
        self._meter.samples.append(probe())
        taken = self._meter.samples[self._first:]
        self.samples = len(taken)
        self.scaled_s = scaled(self.raw_s, taken)


class SpeedMeter:
    """Probe the host's speed on a timer while installed (``with``)."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: List[float] = []
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def span(self) -> Span:
        return Span(self)
