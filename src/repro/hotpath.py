"""Hot-path optimization switch (``repro.hotpath``).

The perf-critical engines — bit-parallel simulation, BDD apply operations,
NPN canonicalization, cut dominance — each carry two implementations:

* the **optimized** path (compiled :class:`~repro.aig.simprogram.SimProgram`
  simulation, operation-keyed BDD computed tables with an iterative apply,
  LRU-cached NPN canonicalization over precomputed transform tables, leaf
  bitmask signatures on cuts), and
* the **reference** path — the original interpreted implementation, kept
  callable so property tests can prove the optimized path bit-identical and
  so :mod:`scripts.bench_hotpath` can measure honest in-process speedups.

Both paths produce *identical results*: same simulation values, same BDD
functions, same canonical representatives and transforms, same cut sets.
The switch selects only *how* they are computed.

Use :func:`disabled` as a context manager in tests/benchmarks::

    with hotpath.disabled():
        slow = simulate_words(aig, words)   # reference path
    fast = simulate_words(aig, words)       # optimized path
    assert slow == fast
"""

from __future__ import annotations

from contextlib import contextmanager

#: Version tag of the optimization code itself, salted into campaign cache
#: keys (:mod:`repro.campaign.cache`).  Bump whenever an engine or hot-path
#: change may alter *results* (not just speed): every cached entry computed
#: under the old code then reads as a miss instead of replaying stale
#: networks.
CODE_VERSION = "sbm-flow/8"

_ENABLED = True


def enabled() -> bool:
    """True when the optimized hot paths are active (the default)."""
    return _ENABLED


def set_enabled(value: bool) -> None:
    """Globally enable/disable the optimized hot paths."""
    global _ENABLED
    _ENABLED = bool(value)


@contextmanager
def disabled():
    """Run a block on the reference (pre-optimization) implementations."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


@contextmanager
def forced():
    """Run a block on the optimized implementations regardless of state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = True
    try:
        yield
    finally:
        _ENABLED = previous
