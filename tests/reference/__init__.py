"""Reference oracles for the optimized engines (test-only).

Each shipped engine has one implementation.  The formulations it replaced
live here: the interpreted simulation walks, the per-round SAT/guard front
ends, the recursive BDD operators, the re-minimizing SOP algebra and the
uncached kernel search.  Property tests compare each engine with its
oracle, and :func:`engines` runs a whole flow on the oracles.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from typing import Any, Callable, Iterator, List

from tests.reference.bdd import ReferenceBddManager
from tests.reference.sim import (find_counterexample, pattern_signatures,
                                 remove_redundancies, sat_sweep,
                                 simulate_complete, simulate_words,
                                 stage_guard_fast_check)
from tests.reference.sop import (add_cube, best_kernel, divide,
                                 divide_by_cube, kernel_value)

__all__ = ["ReferenceBddManager", "add_cube", "best_kernel", "divide",
           "divide_by_cube", "engines", "find_counterexample",
           "kernel_value", "pattern_signatures", "remove_redundancies",
           "sat_sweep", "simulate_complete", "simulate_words",
           "stage_guard_fast_check"]

#: Modules whose import pulls in every engine a flow or fuzz case runs, so
#: their names exist to be swapped before the block starts.
_ENGINE_MODULES = ("repro.sbm.flow", "repro.fuzz.oracle", "repro.bdd.reorder")


@contextlib.contextmanager
def engines() -> Iterator[None]:
    """Run the block with every engine on its reference oracle.

    Each oracle is bound into every ``repro`` module that holds the
    optimized function, the optimized methods are replaced on their
    classes, BDD managers are built fresh as :class:`ReferenceBddManager`
    (no pool, no MSPF manager reuse), and the kernel memo is dropped
    (the reference ``best_kernel`` ignores it).
    """
    for name in _ENGINE_MODULES:
        importlib.import_module(name)
    from repro.aig import simulate
    from repro.bdd import pool
    from repro.bdd.manager import BddManager
    from repro.guard.stage_guard import StageGuard
    from repro.sat import equivalence, redundancy, sweep
    from repro.sbm import mspf
    from repro.sbm.simpatterns import PatternStore
    from repro.sop.sop import Sop
    from repro.tt import npn
    # ``repro.sop`` re-exports a function named ``kernels``, which hides
    # the submodule from a ``from repro.sop import kernels``.
    division = importlib.import_module("repro.sop.division")
    kernels = importlib.import_module("repro.sop.kernels")

    restore: List[Callable[[], None]] = []

    def swap(owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        restore.append(lambda: setattr(owner, attr, original))

    def swap_everywhere(original: Any, oracle: Any) -> None:
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    swap(module, attr, oracle)

    window_bdds = mspf._window_bdds

    def fresh_window_bdds(*args, reuse=None, **kwargs):
        return window_bdds(*args, **kwargs)

    try:
        for original, oracle in (
                (BddManager, ReferenceBddManager),
                (simulate.simulate_words, simulate_words),
                (simulate.simulate_complete, simulate_complete),
                (equivalence.find_counterexample, find_counterexample),
                (sweep.sat_sweep, sat_sweep),
                (redundancy.remove_redundancies, remove_redundancies),
                (division.divide, divide),
                (division.divide_by_cube, divide_by_cube),
                (kernels.kernel_value, kernel_value),
                (kernels.best_kernel, best_kernel),
                (npn.npn_canonical, npn._npn_canonical_reference)):
            swap_everywhere(original, oracle)
        swap(StageGuard, "fast_check", stage_guard_fast_check)
        swap(PatternStore, "signatures", pattern_signatures)
        swap(Sop, "add_cube", add_cube)
        swap(pool, "acquire", lambda num_vars, node_limit=None:
             ReferenceBddManager(num_vars, node_limit=node_limit))
        swap(pool, "release", lambda manager: None)
        swap(mspf, "_window_bdds", fresh_window_bdds)
        yield
    finally:
        while restore:
            restore.pop()()
