"""The benchmark's three workloads.

Each workload builds its inputs from the seed, then runs *rounds*: one
round executes the workload's whole design or job set once through the
shipped public API and returns a :class:`Round` with its timings, one
:class:`Row` per design or job, and its failures.  Every output is
checked three ways: the program's own SAT equivalence check (part of the
timed work, as ``python -m repro optimize`` does it), the benchmark's
independent random-pattern evaluator (:mod:`check`), and on
``fleet-cache`` warm-equals-cold by network fingerprint.
"""

from __future__ import annotations

import contextlib
import importlib
import multiprocessing
import os
import re
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import check
import speed


#: Registry designs of the two single-process workloads.
CONTROL_DESIGNS = ("i2c", "router")
ARITH_DESIGNS = ("div",)

#: fleet-cache: registry designs every seed shares (the bulk of the cold
#: work, so the run time does not swing with the seed; the QoR sums
#: cover these alone) ...
FLEET_DESIGNS = ("router", "arbiter", "adder")
#: ... plus small fuzz cases drawn from the seed, per stratum in the
#: recipe stream's order.
FLEET_STRATA = (("random-sop", 4), ("random-aig", 8))
#: random-sop cases above this many ANDs are skipped, so no seeded case
#: rivals a registry design.
FLEET_SOP_MAX_ANDS = 16
#: every n-th fleet job (the first included) runs the pass-ordering
#: search instead of the fixed waterfall.
FLEET_ORCHESTRATE_EVERY = 4
FLEET_WORKERS = 2
#: warm reruns and pack+merge cycles per round (medians are reported).
FLEET_WARM_REPS = 15
FLEET_SYNC_REPS = 10

#: Every program module a round of any workload imports, the lazily
#: imported ones included.  Each workload's ``build`` imports them all, so
#: set-up (and so ``setup_s``) covers the same imports and the NPN tables
#: built at import on every workload, and no round pays for them.
PROGRAM_MODULES = ("repro.sbm", "repro.sat.equivalence", "repro.mapping.lut",
                   "repro.campaign.cache", "repro.campaign.runner",
                   "repro.campaign.sync", "repro.orchestrate",
                   "repro.sop.bitutil")


@dataclass
class Row:
    """One design's or job's result in one round."""

    name: str
    #: seconds at the reference host speed (see :mod:`speed`)
    wall_s: float
    #: wall-clock seconds as measured
    raw_s: float = 0.0
    and_nodes: int = 0
    aig_levels: int = 0
    lut6: int = 0
    lut6_levels: int = 0
    fingerprint: str = ""
    status: str = "ok"
    #: counted in the QoR sums (False for the fleet's fuzz cases)
    qor: bool = True


@dataclass
class Round:
    """One execution of a workload's design or job set."""

    #: seconds at the reference host speed (see :mod:`speed`)
    wall_s: float
    rows: List[Row]
    #: wall-clock seconds as measured
    raw_s: float = 0.0
    failures: List[str] = field(default_factory=list)
    stage_gain: Dict[str, int] = field(default_factory=dict)
    #: fleet-cache only: medians of the warm reruns and sync cycles, at
    #: the reference host speed
    warm_s: float = 0.0
    sync_s: float = 0.0
    #: layer values read from program-exposed reports (fleet-cache)
    layers: Dict[str, float] = field(default_factory=dict)
    #: checks that belong to no row (fleet-cache pack+merge cycles)
    extra_checks: int = 0
    extra_failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.rows) + self.extra_checks

    @property
    def failed(self) -> int:
        return sum(row.status != "ok" for row in self.rows) \
            + self.extra_failed

    def mark(self, row: Row, status: str) -> None:
        """Record a failed check of *row* (its first failure names it)."""
        if row.status == "ok":
            row.status = status
        self.failures.append(f"{row.name}: {status}")


def _span(tracer, layer: str, name: str):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(layer, name)


def _stage_gains(records: List[Tuple[str, int]]) -> Dict[str, int]:
    """Per-stage node gain from a flow's ``(record name, size)`` sequence.

    Record names are ``initial``, ``<stage>[<iteration>]`` (or
    ``<stage>:skipped[...]`` and similar) and ``final``.
    """
    gains: Dict[str, int] = {}
    previous = 0
    for name, size in records:
        if name == "initial":
            previous = size
        elif name != "final":
            stage = re.split(r"[:\[]", name, maxsplit=1)[0]
            gains[stage] = gains.get(stage, 0) + previous - size
            previous = size
    return gains


def _add(into: Dict[str, int], gains: Dict[str, int]) -> None:
    for stage, gain in gains.items():
        into[stage] = into.get(stage, 0) + gain


def _finish_row(round_: Round, row: Row, source, out, seed: int,
                tracer) -> None:
    """QoR, LUT mapping, fingerprint and the independent check of *out*."""
    from repro.campaign.cache import network_fingerprint
    from repro.mapping.lut import map_luts
    with _span(tracer, "mapping", "lut"):
        mapping = map_luts(out, 6)
    row.and_nodes = out.num_ands
    row.aig_levels = out.depth
    row.lut6 = mapping.area
    row.lut6_levels = mapping.depth
    row.fingerprint = network_fingerprint(out)
    mismatch = check.first_mismatch(source, out, seed)
    if mismatch is not None:
        round_.mark(row, f"pattern mismatch at PO {mismatch}")


# -- control-gradient and arith-verify -----------------------------------------

def import_program() -> None:
    for name in PROGRAM_MODULES:
        importlib.import_module(name)


def build_registry(names) -> List[Tuple[str, Any]]:
    from repro.bench.registry import get_benchmark
    return [(name, get_benchmark(name)) for name in names]


def build_designs(names) -> List[Tuple[str, Any]]:
    """Set-up of a single-process workload: imports, then the designs."""
    import_program()
    return build_registry(names)


def flow_round(designs, config, seed: int, tracer=None,
               meter=None) -> Round:
    """``sbm_flow`` then ``check_equivalence`` per design, as the CLI does."""
    from repro.sat.equivalence import check_equivalence
    from repro.sbm import sbm_flow
    meter = meter or speed.SpeedMeter()
    round_ = Round(wall_s=0.0, rows=[])
    outputs = []
    for name, aig in designs:
        out = None
        status = "ok"
        with meter.span() as timed, _span(tracer, "design", name):
            try:
                out, stats = sbm_flow(aig, config)
                with _span(tracer, "verify", "check_equivalence"):
                    equivalent, _cex = check_equivalence(aig, out)
                if not equivalent:
                    status = "not equivalent (SAT CEC)"
                _add(round_.stage_gain, _stage_gains(
                    [(r.name, r.size) for r in stats.records]))
            except Exception as exc:  # a raising design is a counted failure
                status = f"raised {type(exc).__name__}: {exc}"
        row = Row(name=name, wall_s=timed.scaled_s, raw_s=timed.raw_s)
        round_.rows.append(row)
        outputs.append(out)
        if status != "ok":
            round_.mark(row, status)
    for (name, aig), out, row in zip(designs, outputs, round_.rows):
        if out is not None:
            _finish_row(round_, row, aig, out, seed, tracer)
    round_.wall_s = sum(row.wall_s for row in round_.rows)
    round_.raw_s = sum(row.raw_s for row in round_.rows)
    return round_


def control_config():
    from repro.sbm import FlowConfig
    return FlowConfig()


def arith_config():
    from repro.sbm import FlowConfig
    return FlowConfig(iterations=1)


# -- fleet-cache ----------------------------------------------------------------

def fleet_recipes(seed: int) -> List[Any]:
    """The seed's stratified draw of small cases from the fuzz recipes."""
    from repro.fuzz.generators import build_case, iter_recipes
    wanted = dict(FLEET_STRATA)
    picked: List[Tuple[Any, Any]] = []
    for recipe in iter_recipes(seed, 100_000, generators=tuple(wanted)):
        if wanted[recipe.generator] == 0:
            continue
        aig = build_case(recipe)
        if (recipe.generator == "random-sop"
                and aig.num_ands > FLEET_SOP_MAX_ANDS):
            continue
        wanted[recipe.generator] -= 1
        picked.append((recipe, aig))
        if not any(wanted.values()):
            break
    return picked


def build_fleet(seed: int) -> List[Any]:
    """Campaign jobs: the shared designs, then the seed's fuzz cases."""
    import_program()
    from repro.campaign.runner import CampaignJob
    from repro.sbm import FlowConfig
    from repro.sbm.config import OrchestrateConfig
    named = [(name, name, aig) for name, aig in build_registry(FLEET_DESIGNS)]
    named += [(recipe.case_id, recipe.generator, aig)
              for recipe, aig in fleet_recipes(seed)]
    jobs = []
    for index, (label, kind, aig) in enumerate(named):
        config = FlowConfig(iterations=1)
        if index % FLEET_ORCHESTRATE_EVERY == 0:
            config = FlowConfig(iterations=1, orchestrate=OrchestrateConfig(
                k=2, rounds=1))
        jobs.append(CampaignJob(name=f"{index:02d}-{label}", benchmark=kind,
                                config=config, network=aig))
    return jobs


def reap_children(timeout_s: float = 60.0) -> None:
    """Wait for every worker process the program left running."""
    deadline = time.monotonic() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join()


def _dir_bytes(root: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def fleet_round(jobs, seed: int, workdir: str, tracer=None, meter=None,
                warm_reps: int = FLEET_WARM_REPS,
                sync_reps: int = FLEET_SYNC_REPS) -> Round:
    """Cold campaign, warm reruns, then pack+merge cycles of its cache.

    Everything the round writes lives in a fresh directory under
    *workdir*, removed at the end.
    """
    from repro.campaign.runner import run_campaign
    from repro.campaign.sync import cache_inventory, merge_cache, pack_cache
    from repro.sat.equivalence import check_equivalence

    meter = meter or speed.SpeedMeter()
    round_ = Round(wall_s=0.0, rows=[])
    os.makedirs(workdir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="fleet-", dir=workdir)
    cache_dir = os.path.join(scratch, "cache")
    try:
        with meter.span() as timed, _span(tracer, "campaign", "cold"):
            cold = run_campaign(jobs, cache_dir=cache_dir,
                                workers=FLEET_WORKERS)
        round_.wall_s, round_.raw_s = timed.scaled_s, timed.raw_s
        reap_children()
        round_.layers.update(_cold_layers(cold, cache_dir))

        by_name = {job.name: job for job in jobs}
        for result in cold.results:
            # a job's own time, measured in its worker and not scaled
            row = Row(name=result.name, wall_s=result.wall_s,
                      raw_s=result.wall_s,
                      qor=by_name[result.name].benchmark in FLEET_DESIGNS)
            round_.rows.append(row)
            if result.error is not None or result.network is None:
                round_.mark(row, f"raised {result.error}")
                continue
            source = by_name[result.name].resolve_network()
            with _span(tracer, "verify", "check_equivalence"):
                equivalent, _cex = check_equivalence(source, result.network)
            if not equivalent:
                round_.mark(row, "not equivalent (SAT CEC)")
            _finish_row(round_, row, source, result.network, seed, tracer)
            if result.outcome == "miss" and result.stats:
                _add(round_.stage_gain, _stage_gains(
                    [(s["name"], s["size"]) for s in result.stats["stages"]]))

        warm_times = []
        for _ in range(warm_reps):
            with meter.span() as timed, _span(tracer, "campaign", "warm"):
                warm = run_campaign(jobs, cache_dir=cache_dir,
                                    workers=FLEET_WORKERS)
            warm_times.append(timed.scaled_s)
            reap_children()
            _check_warm(round_, warm)
            flow = (warm.cache_slots or {}).get("flow", {})
            round_.layers["cache.flow.hit_frac"] = _frac(
                flow.get("hits", 0), flow.get("hits", 0) + flow.get("misses", 0))

        sync_times = []
        inventory = cache_inventory(cache_dir)
        for rep in range(sync_reps):
            archive = os.path.join(scratch, f"pack-{rep}.tar.gz")
            merged = os.path.join(scratch, f"merged-{rep}")
            with meter.span() as timed, _span(tracer, "sync", "pack+merge"):
                pack_cache(cache_dir, archive, slot_stats=cold.cache_slots)
                report = merge_cache([archive], merged)
            sync_times.append(timed.scaled_s)
            round_.layers["sync.entries"] = report.imported
            round_.extra_checks += 1
            if cache_inventory(merged) != inventory:
                round_.extra_failed += 1
                round_.failures.append(f"sync cycle {rep}: merged cache "
                                       f"differs from the packed one")
            os.unlink(archive)
            shutil.rmtree(merged)
    finally:
        reap_children()
        shutil.rmtree(scratch, ignore_errors=True)

    round_.warm_s = statistics.median(warm_times)
    round_.sync_s = statistics.median(sync_times)
    return round_


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _check_warm(round_: Round, warm) -> None:
    """Every warm result must be a cache hit equal to the cold output."""
    from repro.campaign.cache import network_fingerprint
    by_name = {row.name: row for row in round_.rows}
    for result in warm.results:
        row = by_name[result.name]
        if result.outcome not in ("hit", "dedup") or result.network is None:
            round_.mark(row, f"warm rerun was a {result.outcome}")
        elif network_fingerprint(result.network) != row.fingerprint:
            round_.mark(row, "warm output differs from cold")


def _cold_layers(cold, cache_dir: str) -> Dict[str, float]:
    """Layer values the cold campaign's report exposes."""
    layers: Dict[str, float] = {}
    parallel = cold.parallel or {}
    windows = parallel.get("num_windows", 0)
    layers["parallel.windows"] = windows
    layers["parallel.applied_frac"] = _frac(parallel.get("num_applied", 0),
                                            windows)
    layers["parallel.fallbacks"] = parallel.get("num_fallbacks", 0)
    layers["parallel.worker_busy_s"] = parallel.get("worker_wall_s", 0.0)
    layers["parallel.stolen_windows"] = cold.stolen_windows
    slots = cold.cache_slots or {}
    stage = slots.get("stage", {})
    lookups = stage.get("hits", 0) + stage.get("misses", 0)
    layers["cache.stage.hit_frac"] = _frac(stage.get("hits", 0), lookups)
    layers["cache.stores"] = sum(s.get("stores", 0) for s in slots.values())
    layers["cache.bytes"] = _dir_bytes(cache_dir)
    candidates = hits = misses = 0
    for result in cold.results:
        doc = (result.stats or {}).get("orchestrate") \
            if result.outcome == "miss" else None
        if not doc:
            continue
        for round_doc in doc["rounds"]:
            candidates += len(round_doc["candidates"])
        memo = doc.get("stage_memo") or {}
        hits += memo.get("memory_hits", 0) + memo.get("disk_hits", 0)
        misses += memo.get("misses", 0)  # a miss is a stage recompute
    layers["orchestrate.candidates"] = candidates
    layers["orchestrate.stage_evals"] = misses
    layers["orchestrate.memo_hit_frac"] = _frac(hits, hits + misses)
    return layers


# -- registry -----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    build: Callable[[int], Any]      #: seed -> inputs
    #: (inputs, seed, workdir, tracer, meter) -> Round
    run: Callable[..., Round]
    #: nominal seconds one untraced round measures; a run makes
    #: ``max(1, seconds // round_s)`` rounds, a count fixed by ``--seconds``
    #: alone, so every run on every host averages the same rounds.
    round_s: float

    def rounds(self, seconds: float) -> int:
        return max(1, int(seconds // self.round_s))


def _flow_run(config_factory):
    def run(designs, seed, workdir, tracer=None, meter=None):
        return flow_round(designs, config_factory(), seed, tracer, meter)
    return run


def _fleet_run(jobs, seed, workdir, tracer=None, meter=None):
    if tracer is not None:  # one warm rerun and one sync cycle to trace
        return fleet_round(jobs, seed, workdir, tracer, meter, 1, 1)
    return fleet_round(jobs, seed, workdir, meter=meter)


WORKLOADS: Dict[str, Workload] = {
    "control-gradient": Workload(lambda seed: build_designs(CONTROL_DESIGNS),
                                 _flow_run(control_config), 25.0),
    "arith-verify": Workload(lambda seed: build_designs(ARITH_DESIGNS),
                             _flow_run(arith_config), 37.0),
    "fleet-cache": Workload(build_fleet, _fleet_run, 12.0),
}
