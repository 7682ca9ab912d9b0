"""The SBM Boolean resynthesis flow (Section V-A), hardened by ``repro.guard``.

"We created a Boolean resynthesis script which runs the following
optimizations:

* AIG optimization: ... state-of-the-art methods [1] and our gradient-based
  AIG minimization,
* heterogeneous elimination for kernel extraction, applied on partitioned
  networks of medium-large sizes,
* enhanced MSPF computation, using partitions of medium size and BDDs,
* collapse and Boolean decomposition, applied on reconvergent MFFC of the
  logic network,
* Boolean difference-based optimization to unveil hard to find optimization
  and escape local minima,
* SAT-based sweeping and redundancy removal as in [9].

The optimization flow is iterated twice, with different efforts.  Further,
after each transformation, the logic network is translated into an AIG."

Our networks are always AIGs, so the "translate to AIG" step becomes a
:meth:`~repro.aig.Aig.cleanup` compaction after every stage; the "collapse
and Boolean decomposition on reconvergent MFFCs" stage maps to the
wide-cut refactoring pass.

On top of the paper's engines, the flow runs **simulation-guided
resubstitution** (:mod:`repro.sbm.simresub`, after MSPF) — the
BDD-free fifth engine whose signature-filter/SAT-validate CEGAR loop
stays effective on the large arithmetic benchmarks where the BDD-filtered
engines bail out; disable with ``FlowConfig.enable_simresub = False``.

Execution model
---------------
The iteration body is a **data-driven stage table** (:func:`_stage_specs`)
run through a guarded executor rather than straight-line code.  Each stage
gets a global index (``iteration * stages_per_iteration + position``) —
the cursor that budgets, checkpoints, resume, and fault injection all key
on:

* **budgets** — a :class:`repro.guard.budget.DeadlineManager` splits
  ``FlowConfig.flow_timeout_s`` across the remaining stages and may run a
  stage at reduced effort (fewer kernel thresholds, smaller MSPF
  partitions, halved budgets) or skip it outright; every downgrade is
  recorded in the metrics and the run report.
* **equivalence guard** — with ``verify_each_step``, every stage result
  passes the :class:`repro.guard.stage_guard.StageGuard` ladder
  (256-pattern random simulation, then SAT CEC) and a miscomparing stage
  is rolled back to the last verified network, counterexample attached.
* **checkpoints** — with ``checkpoint_dir``, the current/best networks and
  flow state are snapshotted atomically after every stage;
  ``sbm_flow(..., resume_from=dir)`` skips completed stages.
* **chaos** — a :class:`repro.guard.chaos.FaultPlan` injects
  deterministic faults into the partition scheduler (via per-stage site
  scopes) and the stage runner itself.

With none of those knobs set, the executor is behaviourally identical to
the historical straight-line flow.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.aig.aig import Aig, lit_not
from repro.errors import CheckpointError
from repro.guard.budget import FULL, REDUCED, SKIP, DeadlineManager
from repro.guard.chaos import ChaosInterrupt
from repro.guard.checkpoint import (
    CheckpointState,
    CheckpointStore,
    ResumePoint,
    load_checkpoint,
)
from repro.guard.stage_guard import GuardReport, StageGuard
from repro.opt.balance import balance
from repro.opt.refactor import refactor
from repro.opt.scripts import compress2rs_step
from repro.partition.partitioner import PartitionConfig
from repro.sat.redundancy import remove_redundancies
from repro.sat.sweep import sat_sweep
from repro.sbm.boolean_difference import boolean_difference_pass
from repro.sbm.config import FlowConfig, GradientConfig
from repro.sbm.gradient import gradient_optimize
from repro.sbm.hetero_kernel import hetero_kernel_pass
from repro.sbm.mspf import mspf_pass
from repro.sbm.simresub import simresub_pass


@dataclass
class StageRecord:
    """One flow-stage checkpoint: name, resulting size, elapsed seconds."""

    name: str
    size: int
    elapsed_s: float = 0.0


@dataclass
class FlowStats:
    """Size and timing after every stage of the flow."""

    records: List[StageRecord] = field(default_factory=list)
    runtime_s: float = 0.0
    #: what the hardened execution layer did (degradations, rollbacks,
    #: checkpoints, injected faults); never None after :func:`sbm_flow`
    guard: Optional[GuardReport] = None
    #: pass-ordering search summary (``repro.orchestrate``): per-round
    #: candidates, the chosen ordering, and stage-memo counters; ``None``
    #: for the classic fixed waterfall
    orchestrate: Optional[Dict[str, Any]] = None

    def record(self, stage: str, size: int, elapsed_s: float = 0.0) -> None:
        """Append a stage checkpoint (resulting size, elapsed seconds)."""
        self.records.append(StageRecord(stage, size, elapsed_s))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation for the run report."""
        doc: Dict[str, Any] = {
            "runtime_s": self.runtime_s,
            "stages": [{"name": r.name, "size": r.size,
                        "elapsed_s": r.elapsed_s} for r in self.records],
        }
        if self.orchestrate is not None:
            doc["orchestrate"] = self.orchestrate
        return doc


# -- stage table ---------------------------------------------------------------

@dataclass(frozen=True)
class _StageSpec:
    """One row of the iteration's stage table."""

    name: str
    run: Callable[[Aig, "_StageCtx"], Aig]
    #: what the depth guard (and the stage span) measures against:
    #: "raw" = the network object itself, "cleanup" = a compacted copy,
    #: "none" = no snapshot (stage is exempt from the depth guard)
    snapshot: str = "cleanup"
    depth_guard: bool = True
    #: exempt from the degradation ladder (cheap normalization stages)
    vital: bool = False


@dataclass
class _StageCtx:
    """Everything a stage runner may consult."""

    config: FlowConfig
    effort: int          #: 1-based iteration number (the paper's effort)
    level: int           #: degradation rung: FULL or REDUCED
    span: Any            #: the stage's open observability span
    chaos_scope: str     #: fault-plan site prefix, ``it<effort>:<stage>``


def _reduced_partition(p: PartitionConfig) -> PartitionConfig:
    """Half-size partitions: the degradation ladder's cheaper windows."""
    return PartitionConfig(max_levels=max(4, p.max_levels // 2),
                           max_size=max(32, p.max_size // 2),
                           max_leaves=max(8, p.max_leaves // 2))


def _run_aig_script(aig: Aig, ctx: _StageCtx) -> Aig:
    if ctx.level == REDUCED:
        # One balance instead of the full b;rs;rw;rf;rs;rwz;rfz script.
        return balance(aig)
    return compress2rs_step(aig)


def _run_gradient(aig: Aig, ctx: _StageCtx) -> Aig:
    g = ctx.config.gradient
    budget = g.cost_budget * ctx.effort
    extension = g.budget_extension
    if ctx.level == REDUCED:
        budget = max(1, budget // 2)
        extension = 0
    gradient_optimize(aig, GradientConfig(
        cost_budget=budget,
        window_k=g.window_k,
        min_gain_gradient=g.min_gain_gradient,
        budget_extension=extension,
        partition=g.partition))
    return aig.cleanup()


def _run_kernel(aig: Aig, ctx: _StageCtx) -> Aig:
    cfg = ctx.config.kernel
    if ctx.level == REDUCED:
        thresholds = cfg.eliminate_thresholds[
            :max(2, len(cfg.eliminate_thresholds) // 2)]
        cfg = dataclasses.replace(
            cfg, eliminate_thresholds=thresholds,
            kernel_rounds=max(1, cfg.kernel_rounds // 2),
            partition=_reduced_partition(cfg.partition))
    hetero_kernel_pass(aig, cfg, jobs=ctx.config.jobs,
                       window_timeout_s=ctx.config.window_timeout_s,
                       chaos=ctx.config.chaos, chaos_scope=ctx.chaos_scope,
                       pool=ctx.config.pool)
    return aig.cleanup()


def _run_mspf(aig: Aig, ctx: _StageCtx) -> Aig:
    cfg = ctx.config.mspf
    if ctx.level == REDUCED:
        cfg = dataclasses.replace(
            cfg, bdd_node_limit=max(10_000, cfg.bdd_node_limit // 4),
            partition=_reduced_partition(cfg.partition))
    mspf_pass(aig, cfg, jobs=ctx.config.jobs,
              window_timeout_s=ctx.config.window_timeout_s,
              chaos=ctx.config.chaos, chaos_scope=ctx.chaos_scope,
              pool=ctx.config.pool)
    return aig.cleanup()


def _run_simresub(aig: Aig, ctx: _StageCtx) -> Aig:
    cfg = ctx.config.simresub
    if ctx.level == REDUCED:
        cfg = dataclasses.replace(
            cfg, pattern_words=max(1, cfg.pattern_words // 2),
            max_divisors=max(8, cfg.max_divisors // 2),
            max_pair_checks=max(50, cfg.max_pair_checks // 4),
            sat_conflict_budget=max(200, cfg.sat_conflict_budget // 4),
            partition=_reduced_partition(cfg.partition))
    simresub_pass(aig, cfg, jobs=ctx.config.jobs,
                  window_timeout_s=ctx.config.window_timeout_s,
                  chaos=ctx.config.chaos, chaos_scope=ctx.chaos_scope,
                  pool=ctx.config.pool)
    return aig.cleanup()


def _run_collapse_decomp(aig: Aig, ctx: _StageCtx) -> Aig:
    max_leaves = 8 if ctx.level == REDUCED else 10 + 2 * ctx.effort
    refactor(aig, max_leaves=max_leaves, min_gain=1)
    return aig.cleanup()


def _run_boolean_diff(aig: Aig, ctx: _StageCtx) -> Aig:
    cfg = ctx.config.boolean_difference
    if ctx.level == REDUCED:
        cfg = dataclasses.replace(
            cfg,
            max_pairs_per_node=max(4, cfg.max_pairs_per_node // 4),
            max_pairs_per_partition=max(
                100, cfg.max_pairs_per_partition // 4),
            bdd_node_limit=max(10_000, cfg.bdd_node_limit // 4),
            partition=_reduced_partition(cfg.partition))
    boolean_difference_pass(aig, cfg, jobs=ctx.config.jobs,
                            window_timeout_s=ctx.config.window_timeout_s,
                            chaos=ctx.config.chaos,
                            chaos_scope=ctx.chaos_scope,
                            pool=ctx.config.pool)
    return aig.cleanup()


def _run_sat_sweep(aig: Aig, ctx: _StageCtx) -> Aig:
    max_proofs = 500 if ctx.level == REDUCED else 2000
    merges = sat_sweep(aig, max_proofs=max_proofs)
    aig = aig.cleanup()
    ctx.span.set("merges", merges)
    obs.metrics().inc("sat_sweep.merges", merges)
    return aig


def _run_redundancy(aig: Aig, ctx: _StageCtx) -> Aig:
    max_checks = 50 if ctx.level == REDUCED else 200
    removed = remove_redundancies(aig, max_checks=max_checks)
    aig = aig.cleanup()
    ctx.span.set("removed", removed)
    obs.metrics().inc("redundancy.removed", removed)
    return aig


def _run_balance(aig: Aig, ctx: _StageCtx) -> Aig:
    return balance(aig)


def _stage_specs(config: FlowConfig) -> List[_StageSpec]:
    """The iteration's stage table for *config* (9 stages by default)."""
    specs = [
        _StageSpec("aig_script", _run_aig_script, snapshot="raw"),
        _StageSpec("gradient", _run_gradient),
        _StageSpec("kernel", _run_kernel),
        _StageSpec("mspf", _run_mspf),
    ]
    if config.enable_simresub:
        specs.append(_StageSpec("simresub", _run_simresub))
    specs.extend([
        _StageSpec("collapse_decomp", _run_collapse_decomp),
        _StageSpec("boolean_diff", _run_boolean_diff),
    ])
    if config.enable_sat_sweep:
        specs.append(_StageSpec("sat_sweep", _run_sat_sweep,
                                snapshot="none", depth_guard=False))
    if config.enable_redundancy_removal:
        specs.append(_StageSpec("redundancy", _run_redundancy,
                                snapshot="none", depth_guard=False))
    specs.append(_StageSpec("balance", _run_balance, snapshot="none",
                            depth_guard=False, vital=True))
    return specs


# -- guarded stage execution ---------------------------------------------------

class _StageRunner:
    """Runs one stage under budget, depth, chaos, and equivalence guards."""

    def __init__(self, config: FlowConfig, stats: FlowStats,
                 report: GuardReport, deadline: DeadlineManager,
                 guard: Optional[StageGuard],
                 depth_limit: Optional[int],
                 total_stages: int = 0) -> None:
        self.config = config
        self.stats = stats
        self.report = report
        self.deadline = deadline
        self.guard = guard
        self.depth_limit = depth_limit
        self.total_stages = total_stages

    def run_stage(self, aig: Aig, spec: _StageSpec, iteration: int,
                  stage_index: int) -> Aig:
        """Execute *spec* on *aig*; returns the (possibly rolled-back) result."""
        effort = iteration + 1
        plan = self.deadline.plan(spec.name)
        level = FULL if spec.vital else plan.level
        bus = obs.live_bus()
        if bus.enabled:
            bus.emit("stage_start", stage=spec.name, effort=effort,
                     index=stage_index, total=self.total_stages)
        if level == SKIP:
            self.stats.record(f"{spec.name}:skipped[{effort}]", aig.num_ands)
            self.report.add("skipped", spec.name, iteration,
                            remaining_s=plan.remaining_s)
            obs.metrics().inc("guard.stage_skipped", stage=spec.name)
            self.deadline.finish(spec.name)
            if bus.enabled:
                bus.emit("stage_end", stage=spec.name, effort=effort,
                         index=stage_index, total=self.total_stages,
                         nodes=aig.num_ands, level="skipped")
            return aig
        if level == REDUCED:
            self.report.add("degraded", spec.name, iteration,
                            remaining_s=plan.remaining_s,
                            share_s=plan.share_s)
            obs.metrics().inc("guard.stage_degraded", stage=spec.name)
        t0 = time.perf_counter()
        if spec.snapshot == "cleanup":
            before = aig.cleanup()
        elif spec.snapshot == "raw":
            before = aig
        else:
            before = None
        nodes_before = (before if before is not None else aig).num_ands
        with obs.span(spec.name, kind="stage", effort=effort,
                      nodes_before=nodes_before) as span:
            ctx = _StageCtx(config=self.config, effort=effort, level=level,
                            span=span,
                            chaos_scope=f"it{effort}:{spec.name}")
            result = spec.run(aig, ctx)
            if spec.depth_guard and before is not None:
                result = self._depth_guard(result, before, spec.name, effort)
            result = self._chaos_stage_fault(result, spec.name, stage_index)
            result = self._equivalence_guard(result, spec.name, iteration,
                                             effort)
            span.set("nodes_after", result.num_ands)
            self.stats.record(f"{spec.name}[{effort}]", result.num_ands,
                              time.perf_counter() - t0)
        self.deadline.finish(spec.name)
        if bus.enabled:
            bus.emit("stage_end", stage=spec.name, effort=effort,
                     index=stage_index, total=self.total_stages,
                     nodes=result.num_ands,
                     level="reduced" if level == REDUCED else "full")
        return result

    def _depth_guard(self, candidate: Aig, previous: Aig, stage: str,
                     effort: int) -> Aig:
        """Level discipline: rebalance, roll back if still over budget."""
        if self.depth_limit is None:
            return candidate
        if candidate.depth > self.depth_limit:
            candidate = balance(candidate)
        if candidate.depth > self.depth_limit \
                and previous.depth <= self.depth_limit:
            self.stats.record(f"{stage}:rolled_back[{effort}]",
                              previous.num_ands)
            return previous
        return candidate

    def _chaos_stage_fault(self, aig: Aig, stage: str,
                           stage_index: int) -> Aig:
        """Stage-runner fault injection: corrupt the stage result."""
        chaos = self.config.chaos
        if chaos is None:
            return aig
        kind = chaos.draw_stage(f"stage:{stage_index}:{stage}")
        if kind != "corrupt-result":
            return aig
        corrupted = aig.cleanup()
        corrupted.set_po(0, lit_not(corrupted.pos()[0]))
        obs.metrics().inc("guard.chaos.injected", kind="stage-corrupt")
        return corrupted

    def _equivalence_guard(self, aig: Aig, stage: str, iteration: int,
                           effort: int) -> Aig:
        """StageGuard ladder; on miscompare, roll back to the last verified
        network and attach the counterexample to the report."""
        if self.guard is None:
            return aig
        cex = self.guard.check(aig)
        if cex is None:
            self.guard.commit(aig)
            return aig
        rolled = self.guard.rollback_copy()
        self.stats.record(f"{stage}:guard_rollback[{effort}]",
                          rolled.num_ands)
        self.report.add("rolled_back", stage, iteration,
                        counterexample=cex.to_dict())
        obs.metrics().inc("guard.rollbacks", stage=stage)
        return rolled


# -- the flow ------------------------------------------------------------------

_warned_inline_timeout = False


def _warn_inline_timeout(config: FlowConfig) -> None:
    """One-time warning: ``window_timeout_s`` needs ``jobs > 1``."""
    global _warned_inline_timeout
    if config.window_timeout_s is None or config.jobs != 1:
        return
    if _warned_inline_timeout:
        return
    _warned_inline_timeout = True
    warnings.warn(
        "FlowConfig.window_timeout_s is ignored when jobs <= 1: the inline "
        "path cannot preempt a window.  Use flow_timeout_s (the repro.guard "
        "stage budget) to bound serial runs.",
        RuntimeWarning, stacklevel=3)


def _check_resume(resume: ResumePoint, aig: Aig, total_stages: int) -> None:
    """Reject checkpoints from a different design or flow shape."""
    state = resume.state
    if state.num_pis != aig.num_pis or state.num_pos != aig.num_pos:
        raise CheckpointError(
            f"checkpoint interface ({state.num_pis} PIs / {state.num_pos} "
            f"POs) does not match the input network ({aig.num_pis} PIs / "
            f"{aig.num_pos} POs)")
    if state.total_stages != total_stages:
        raise CheckpointError(
            f"checkpoint was produced by a flow with {state.total_stages} "
            f"stages; this configuration has {total_stages} — refusing to "
            f"resume across configurations")
    if state.next_index > total_stages:
        raise CheckpointError(
            f"checkpoint cursor {state.next_index} is beyond the flow's "
            f"{total_stages} stages")


def sbm_flow(aig: Aig, config: Optional[FlowConfig] = None,
             resume_from: Optional[str] = None) -> Tuple[Aig, FlowStats]:
    """Run the full SBM Boolean resynthesis script; returns a new network.

    The input network is not modified.  *resume_from* names a checkpoint
    directory written by a previous run (``config.checkpoint_dir``);
    completed stages are skipped and execution continues from the last
    committed network, producing the same final result as an uninterrupted
    run.  :attr:`FlowStats.guard` reports everything the hardened
    execution layer did.
    """
    config = config or FlowConfig()
    if config.orchestrate is not None:
        # The pass-ordering search replaces the fixed waterfall entirely;
        # with ``orchestrate=None`` nothing below this line changes, so
        # the classic flow stays bit-identical to previous releases.
        if resume_from is not None:
            raise ValueError(
                "orchestrate is incompatible with resume_from: the "
                "checkpoint cursor is defined over the fixed waterfall")
        from repro.orchestrate.search import orchestrated_flow
        return orchestrated_flow(aig, config)
    _warn_inline_timeout(config)
    specs = _stage_specs(config)
    per_iter = len(specs)
    total = per_iter * config.iterations
    chaos = config.chaos
    chaos_mark = len(chaos.injected) if chaos is not None else 0
    stats = FlowStats()
    stats.guard = report = GuardReport(
        budget_s=config.flow_timeout_s,
        chaos_seed=chaos.seed if chaos is not None else None)
    resume = load_checkpoint(resume_from) if resume_from is not None else None
    if resume is not None:
        _check_resume(resume, aig, total)
    start = time.time()
    try:
        best = _execute_flow(aig, config, specs, stats, report, resume, start)
    finally:
        if chaos is not None:
            report.faults.extend(chaos.injected_since(chaos_mark))
        obs.record_guard_report(report)
    obs.record_flow_stats(stats)
    return best, stats


def _execute_flow(aig: Aig, config: FlowConfig, specs: List[_StageSpec],
                  stats: FlowStats, report: GuardReport,
                  resume: Optional[ResumePoint], start_wall: float) -> Aig:
    per_iter = len(specs)
    total = per_iter * config.iterations
    chaos = config.chaos
    with obs.span("flow", kind="flow", design=aig.name,
                  iterations=config.iterations,
                  jobs=config.jobs) as flow_span:
        if resume is not None:
            current = resume.network
            best = resume.best
            depth_limit = resume.state.depth_limit
            start_index = resume.state.next_index
            prior_runtime = resume.state.runtime_s
            stats.records = [StageRecord(r["name"], r["size"],
                                         r.get("elapsed_s", 0.0))
                             for r in resume.state.records]
            report.resumed_from = start_index
            report.add("resume", resume.state.stage, resume.state.iteration,
                       next_index=start_index)
            obs.metrics().inc("guard.resumes")
        else:
            best = aig.cleanup()
            current = best
            stats.record("initial", best.num_ands)
            depth_limit = None
            if config.max_depth_growth is not None:
                depth_limit = max(1, int(best.depth * config.max_depth_growth))
            start_index = 0
            prior_runtime = 0.0
        flow_span.set("nodes_before", best.num_ands)
        bus = obs.live_bus()
        if bus.enabled:
            bus.emit("flow_start", design=aig.name, nodes=best.num_ands,
                     stages=total, iterations=config.iterations,
                     resumed_at=start_index)
        deadline = DeadlineManager(config.flow_timeout_s,
                                   total - start_index)
        store = CheckpointStore(config.checkpoint_dir) \
            if config.checkpoint_dir else None
        guard = StageGuard(current.cleanup()) \
            if config.verify_each_step else None
        runner = _StageRunner(config, stats, report, deadline, guard,
                              depth_limit, total_stages=total)

        def checkpoint(stage_index: int, iteration: int,
                       stage_name: str) -> None:
            """Commit a checkpoint (if configured), then honour a scheduled
            chaos interrupt — the deterministic stand-in for ``kill -9``."""
            if store is not None:
                state = CheckpointState(
                    next_index=stage_index + 1, iteration=iteration,
                    stage=stage_name, total_stages=total, design=aig.name,
                    num_pis=current.num_pis, num_pos=current.num_pos,
                    depth_limit=depth_limit,
                    runtime_s=prior_runtime + (time.time() - start_wall),
                    records=[{"name": r.name, "size": r.size,
                              "elapsed_s": r.elapsed_s}
                             for r in stats.records])
                store.save(state, current, best)
                report.add("checkpoint", stage_name, iteration,
                           next_index=stage_index + 1)
                obs.metrics().inc("guard.checkpoints")
            if chaos is not None and chaos.should_interrupt(stage_index):
                report.add("interrupted", stage_name, iteration,
                           stage_index=stage_index)
                raise ChaosInterrupt(stage_index, config.checkpoint_dir)

        for iteration in range(config.iterations):
            base = iteration * per_iter
            if base + per_iter <= start_index:
                continue  # iteration fully covered by the checkpoint
            effort = iteration + 1
            with obs.span(f"iteration[{effort}]", kind="iteration",
                          effort=effort,
                          nodes_before=current.num_ands) as it_span:
                for pos, spec in enumerate(specs):
                    stage_index = base + pos
                    if stage_index < start_index:
                        continue  # stage covered by the checkpoint
                    current = runner.run_stage(current, spec, iteration,
                                               stage_index)
                    if pos < per_iter - 1:
                        checkpoint(stage_index, iteration, spec.name)
                it_span.set("nodes_after", current.num_ands)
            if current.num_ands < best.num_ands:
                best = current.cleanup()
            # The iteration's last checkpoint lands after the best-so-far
            # update so a resumed run carries the same `best` an
            # uninterrupted one would.
            checkpoint(base + per_iter - 1, iteration, specs[-1].name)
        stats.runtime_s = prior_runtime + (time.time() - start_wall)
        stats.record("final", best.num_ands)
        flow_span.set("nodes_after", best.num_ands)
        if bus.enabled:
            bus.emit("flow_end", design=aig.name, nodes=best.num_ands)
    return best
