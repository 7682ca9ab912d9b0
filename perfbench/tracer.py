"""Outside-in layer tracer for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
the names the program looks up at each layer boundary — module-level
functions where they are imported, methods on their classes, the
entries of ``repro.sbm.moves.DEFAULT_MOVES`` — with wrappers that record
the call, and :meth:`Tracer.uninstall` puts every original back.

Two kinds of boundary are recorded:

* **span layers** (flow stages, gradient moves, partitioning, the final
  equivalence check, cache and sync calls, LUT mapping, designs and
  campaign phases): every call becomes one span record — name, layer,
  start, end, parent span id, run id, thread and self time — kept in
  memory and written out by :meth:`Tracer.write`;
* **primitive layers** (BDD ops, SAT solves, ISOP, NPN, SOP division and
  kernels, simulation): called hundreds of thousands of times, so each
  call only updates aggregate counters, keyed by the flow stage it ran
  under.  Their time still counts as child time of the enclosing span.

A span's self time is its duration minus the time its child calls
cover, so self times add up to the traced wall time of the outermost
span without double counting.  Counters carry the benchmark's metric
names (``BENCHMARK.json`` ``per_layer``): a span of layer ``L`` and name
``N`` adds ``L.calls``, ``L.self_s``, ``L.N.self_s`` and its duration to
``L.N_s`` (or the name it was given); a primitive call adds its layer's
call counter and ``L.self_s``.  Stacks and counters are per thread (the
campaign runs jobs on two threads); forked pool workers see a disabled
tracer.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: ``repro.sbm.flow`` name -> stage label (the flow's stage table names).
STAGE_FUNCTIONS = {
    "compress2rs_step": "aig_script",
    "gradient_optimize": "gradient",
    "hetero_kernel_pass": "kernel",
    "mspf_pass": "mspf",
    "simresub_pass": "simresub",
    "refactor": "collapse_decomp",
    "boolean_difference_pass": "boolean_diff",
    "sat_sweep": "sat_sweep",
    "remove_redundancies": "redundancy",
    "balance": "balance",
}

#: BDD construction ops; only the outermost one of a nest is counted.
BDD_OPS = ("ite", "apply_and", "apply_or", "apply_xor", "apply_xnor",
           "negate", "and_multi", "or_multi", "cofactor", "exists",
           "forall", "compose")


class _Frame:
    __slots__ = ("child_s", "span_id", "stage")

    def __init__(self, span_id: Optional[int], stage: str) -> None:
        self.child_s = 0.0
        self.span_id = span_id
        self.stage = stage


class _ThreadState:
    """One thread's span stack and counters (merged by the tracer)."""

    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        #: (metric, stage) -> value
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)


class Tracer:
    """Span and counter recorder installed around the program's layers."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.active = False
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._restore: List[Callable[[], None]] = []
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.active = False

    # -- recording -------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _stage_of(self, stack: List[_Frame]) -> str:
        return stack[-1].stage if stack else "-"

    def span(self, layer: str, name: str) -> "_SpanContext":
        """Context manager recording one span from the benchmark's code."""
        return _SpanContext(self, layer, name, f"{layer}.{name}_s")

    def _open(self, layer: str, name: str, stage: Optional[str] = None
              ) -> Tuple[_ThreadState, _Frame, Optional[int], float]:
        state = self._state()
        stack = state.stack
        parent = stack[-1].span_id if stack else None
        frame = _Frame(next(self._ids), stage or self._stage_of(stack))
        stack.append(frame)
        return state, frame, parent, perf_counter()

    def _close(self, state: _ThreadState, frame: _Frame,
               parent: Optional[int], start: float, layer: str, name: str,
               total: str, attrs: Dict[str, Any]) -> None:
        end = perf_counter()
        stack = state.stack
        stack.pop()
        duration = end - start
        self_s = duration - frame.child_s
        if stack:
            stack[-1].child_s += duration
        counts = state.counts
        counts[(f"{layer}.calls", frame.stage)] += 1
        counts[(f"{layer}.self_s", frame.stage)] += self_s
        counts[(total, frame.stage)] += duration
        counts[(f"{layer}.{name}.self_s", frame.stage)] += self_s
        record = {"id": frame.span_id, "parent": parent, "run": self.run_id,
                  "thread": threading.get_ident(), "layer": layer,
                  "name": name, "start": start, "end": end,
                  "self_s": self_s}
        if attrs:
            record["attrs"] = attrs
        with self._lock:
            self.spans.append(record)

    def _leaf_enter(self) -> Tuple[_ThreadState, _Frame, float]:
        state = self._state()
        stack = state.stack
        frame = _Frame(None, self._stage_of(stack))
        stack.append(frame)
        return state, frame, perf_counter()

    def _leaf_exit(self, state: _ThreadState, frame: _Frame, start: float,
                   layer: str, calls: str) -> None:
        duration = perf_counter() - start
        stack = state.stack
        stack.pop()
        if stack:
            stack[-1].child_s += duration
        counts = state.counts
        counts[(calls, frame.stage)] += 1
        counts[(f"{layer}.self_s", frame.stage)] += duration - frame.child_s

    # -- results ----------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Every counter summed over threads and stages."""
        out: Dict[str, float] = defaultdict(float)
        for (metric, _stage), value in self.by_stage().items():
            out[metric] += value
        return dict(out)

    def by_stage(self) -> Dict[Tuple[str, str], float]:
        """Every counter summed over threads, keyed ``(metric, stage)``."""
        out: Dict[Tuple[str, str], float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.counts.items():
                out[key] += value
        return dict(out)

    def write(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write spans and per-stage counters as one JSON document."""
        doc = {"run": self.run_id,
               "spans": self.spans,
               "counters": [{"metric": metric, "stage": stage, "value": value}
                            for (metric, stage), value
                            in sorted(self.by_stage().items())]}
        if extra:
            doc.update(extra)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    # -- installing wrappers -------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        setattr(owner, name, value)
        self._restore.append(lambda: setattr(owner, name, original))

    def _replace_everywhere(self, original: Callable, wrapper: Callable
                            ) -> None:
        """Rebind every ``repro`` module attribute that is *original*."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        self.active = False
        while self._restore:
            self._restore.pop()()

    def install(self) -> None:
        """Wrap every layer boundary the benchmark measures."""
        from importlib import import_module
        flow, simprogram, simulate, sync, partitioner, moves, division, \
            kernels, isop, npn = (import_module(f"repro.{name}") for name in (
                "sbm.flow", "aig.simprogram", "aig.simulate", "campaign.sync",
                "partition.partitioner", "sbm.moves", "sop.division",
                "sop.kernels", "tt.isop", "tt.npn"))
        from repro.bdd.manager import BddManager
        from repro.campaign.cache import ResultCache
        from repro.errors import BddLimitError
        from repro.sat.solver import SatSolver

        for func_name, stage in STAGE_FUNCTIONS.items():
            self._set(flow, func_name, self._span_wrapper(
                getattr(flow, func_name), "stage", stage, stage=stage))
        for index, move in enumerate(list(moves.DEFAULT_MOVES)):
            wrapped = moves.Move(move.name, move.cost,
                                 self._move_wrapper(move.name, move.apply))
            moves.DEFAULT_MOVES[index] = wrapped
            self._restore.append(
                lambda i=index, m=move: moves.DEFAULT_MOVES.__setitem__(i, m))

        self._install_bdd(BddManager, BddLimitError)
        self._set(SatSolver, "solve_limited",
                  self._sat_wrapper(SatSolver.solve_limited))
        self._replace_everywhere(isop.isop, self._leaf(
            isop.isop, "tt.isop", "tt.isop_calls"))
        self._replace_everywhere(npn.npn_canonical, self._leaf(
            npn.npn_canonical, "tt.npn", "tt.npn_calls"))
        for func in (division.divide, division.divide_by_cube):
            self._replace_everywhere(func, self._leaf(
                func, "sop", "sop.divide_calls"))
        for func in (kernels.kernels, kernels.best_kernel):
            self._replace_everywhere(func, self._leaf(
                func, "sop", "sop.kernel_calls"))
        self._set(simprogram.SimProgram, "run",
                  self._sim_run_wrapper(simprogram.SimProgram.run))
        self._replace_everywhere(simulate.simulate_words,
                                 self._sim_words_wrapper(
                                     simulate.simulate_words))
        self._replace_everywhere(partitioner.partition_network,
                                 self._partition_wrapper(
                                     partitioner.partition_network))
        for name in ("lookup", "lookup_stage"):
            self._set(ResultCache, name, self._span_wrapper(
                getattr(ResultCache, name), "cache", "lookup"))
        for name in ("store", "store_stage"):
            self._set(ResultCache, name, self._span_wrapper(
                getattr(ResultCache, name), "cache", "store"))
        self._replace_everywhere(sync.pack_cache, self._span_wrapper(
            sync.pack_cache, "sync", "pack"))
        self._replace_everywhere(sync.merge_cache, self._span_wrapper(
            sync.merge_cache, "sync", "merge"))
        self.active = True

    # -- wrapper factories -----------------------------------------------------------

    def _span_wrapper(self, fn: Callable, layer: str, name: str,
                      stage: Optional[str] = None) -> Callable:
        tracer = self
        total = f"{layer}.{name}_s"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state, frame, parent, start = tracer._open(layer, name, stage)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(state, frame, parent, start, layer, name,
                              total, {})
        wrapper.__wrapped__ = fn
        return wrapper

    def _move_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        total = f"gradient.move.{name}.s"

        def wrapper(aig, window):
            if not tracer.active:
                return fn(aig, window)
            state, frame, parent, start = tracer._open("gradient.move", name)
            gain = 0
            try:
                gain = fn(aig, window)
                return gain
            finally:
                duration = perf_counter() - start
                tracer._close(state, frame, parent, start, "gradient.move",
                              name, total, {"gain": gain})
                counts = state.counts
                stage = frame.stage
                counts[("gradient.moves_tried", stage)] += 1
                if gain > 0:
                    counts[("gradient.moves_gained", stage)] += 1
                else:
                    counts[("gradient.failed_move_s", stage)] += duration
        return wrapper

    def _leaf(self, fn: Callable, layer: str, calls: str) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state, frame, start = tracer._leaf_enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leaf_exit(state, frame, start, layer, calls)
        wrapper.__wrapped__ = fn
        return wrapper

    def _sat_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        def solve_limited(solver, *args, **kwargs):
            if not tracer.active:
                return fn(solver, *args, **kwargs)
            conflicts = solver.num_conflicts
            propagations = solver.num_propagations
            state, frame, start = tracer._leaf_enter()
            result = None
            try:
                result = fn(solver, *args, **kwargs)
                return result
            finally:
                tracer._leaf_exit(state, frame, start, "sat",
                                  "sat.solve_calls")
                counts = state.counts
                stage = frame.stage
                counts[("sat.conflicts", stage)] += \
                    solver.num_conflicts - conflicts
                counts[("sat.propagations", stage)] += \
                    solver.num_propagations - propagations
                if result is None:
                    counts[("sat.undecided", stage)] += 1
        return solve_limited

    def _sim_run_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        def run(program, pi_words, mask=(1 << 64) - 1):
            if not tracer.active:
                return fn(program, pi_words, mask)
            state, frame, start = tracer._leaf_enter()
            try:
                return fn(program, pi_words, mask)
            finally:
                tracer._leaf_exit(state, frame, start, "sim", "sim.calls")
                words = (mask.bit_length() + 63) // 64
                state.counts[("sim.words", frame.stage)] += \
                    len(program.ops) * words
        return run

    def _sim_words_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        def simulate_words(aig, pi_words):
            if not tracer.active:
                return fn(aig, pi_words)
            state, frame, start = tracer._leaf_enter()
            try:
                return fn(aig, pi_words)
            finally:
                tracer._leaf_exit(state, frame, start, "sim", "sim.calls")
                state.counts[("sim.words", frame.stage)] += aig.num_ands
        return simulate_words

    def _partition_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        def partition_network(aig, config=None):
            if not tracer.active:
                return fn(aig, config)
            state, frame, parent, start = tracer._open("partition", "split")
            windows: List[Any] = []
            try:
                windows = fn(aig, config)
                return windows
            finally:
                tracer._close(state, frame, parent, start, "partition",
                              "split", "partition.split_s",
                              {"windows": len(windows)})
                state.counts[("partition.windows", frame.stage)] += \
                    len(windows)
        return partition_network

    def _install_bdd(self, manager_cls: type, limit_error: type) -> None:
        """Wrap the BDD ops, counting only the outermost call of a nest.

        During an outermost op the manager instance carries the original
        bound methods as instance attributes, so the op's own recursive
        and nested calls bypass the wrappers entirely.
        """
        tracer = self
        originals = {name: manager_cls.__dict__[name] for name in BDD_OPS}

        def make(fn: Callable) -> Callable:
            def op(mgr, *args, **kwargs):
                if not tracer.active:
                    return fn(mgr, *args, **kwargs)
                slots = mgr.__dict__
                for name, original in originals.items():
                    slots[name] = original.__get__(mgr)
                nodes = mgr.num_nodes
                state, frame, start = tracer._leaf_enter()
                bailed = False
                try:
                    return fn(mgr, *args, **kwargs)
                except limit_error:
                    bailed = True
                    raise
                finally:
                    tracer._leaf_exit(state, frame, start, "bdd",
                                      "bdd.op_calls")
                    for name in originals:
                        del slots[name]
                    counts = state.counts
                    stage = frame.stage
                    counts[("bdd.nodes_alloc", stage)] += mgr.num_nodes - nodes
                    if bailed:
                        counts[("bdd.bailouts", stage)] += 1
            op.__wrapped__ = fn
            return op

        for name, original in originals.items():
            self._set(manager_cls, name, make(original))


class _SpanContext:
    def __init__(self, tracer: Tracer, layer: str, name: str,
                 total: str) -> None:
        self.tracer = tracer
        self.layer = layer
        self.name = name
        self.total = total

    def __enter__(self) -> "_SpanContext":
        if self.tracer.active:
            self._opened = self.tracer._open(self.layer, self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.tracer.active:
            state, frame, parent, start = self._opened
            self.tracer._close(state, frame, parent, start, self.layer,
                               self.name, self.total, {})
