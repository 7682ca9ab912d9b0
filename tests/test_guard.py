"""Tests for ``repro.guard`` — the hardened flow execution layer.

Covers the four pillars of the robustness PR:

* **Budgets** — the deadline manager's degradation ladder (full → reduced
  → skip) and its effect on a running flow.
* **Equivalence guard** — the per-stage random-sim + SAT ladder, rollback
  on miscompare, and the counterexample attached to the report.
* **Checkpoint/resume** — atomic write-then-rename snapshots, the
  ``state.json`` commit point, and interrupted-then-resumed runs matching
  uninterrupted ones bit-for-bit.
* **Chaos** — the seeded fault plan's determinism and a full soak: the
  flow completes under injected faults with a SAT-equivalent result and
  every fault visible in the report.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.aig.aig import Aig, lit_not
from repro.errors import CheckpointError, EquivalenceError
from repro.guard.budget import FULL, REDUCED, SKIP, DeadlineManager
from repro.guard.chaos import (
    ChaosInterrupt,
    FaultPlan,
    corrupt_window_result,
)
from repro.guard.checkpoint import (
    CheckpointState,
    CheckpointStore,
    atomic_write_text,
    load_checkpoint,
)
from repro.guard.stage_guard import GuardReport, StageGuard
from repro.parallel.window_io import CompactAig
from repro.sat.equivalence import (
    assert_equivalent,
    check_equivalence,
    find_counterexample,
)
from repro.sbm.config import FlowConfig
from repro.sbm.flow import sbm_flow

from tests.conftest import make_random_aig


def signature(aig: Aig):
    """Node-for-node structural fingerprint, independent of node ids."""
    c = CompactAig.from_aig(aig)
    return (c.num_pis, tuple(c.gates), tuple(c.outputs))


def broken_copy(aig: Aig) -> Aig:
    """A same-size, non-equivalent copy: first PO complemented."""
    bad = aig.cleanup()
    bad.set_po(0, lit_not(bad.pos()[0]))
    return bad


# -- budgets ------------------------------------------------------------------

class TestDeadlineManager:
    def test_unbounded_budget_never_degrades(self):
        deadline = DeadlineManager(None, total_stages=8)
        for stage in range(8):
            plan = deadline.plan(f"s{stage}")
            assert plan.level == FULL
            deadline.finish(f"s{stage}")
        assert deadline.downgrades == []

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            DeadlineManager(0.0, total_stages=4)
        with pytest.raises(ValueError):
            DeadlineManager(-1.0, total_stages=4)

    def test_on_schedule_runs_full(self):
        clock = [0.0]
        deadline = DeadlineManager(100.0, total_stages=4,
                                   clock=lambda: clock[0])
        assert deadline.plan("a").level == FULL
        deadline.finish("a")
        clock[0] = 25.0  # exactly on schedule after 1/4 stages
        assert deadline.plan("b").level == FULL

    def test_behind_schedule_degrades(self):
        clock = [0.0]
        deadline = DeadlineManager(100.0, total_stages=4,
                                   clock=lambda: clock[0])
        deadline.plan("a")
        deadline.finish("a")
        clock[0] = 60.0  # 60% of budget burnt after 25% of the work
        plan = deadline.plan("b")
        assert plan.level == REDUCED
        assert [(p.stage, p.level) for p in deadline.downgrades] == \
            [("b", REDUCED)]

    def test_exhausted_budget_skips(self):
        clock = [0.0]
        deadline = DeadlineManager(10.0, total_stages=4,
                                   clock=lambda: clock[0])
        clock[0] = 10.0
        plan = deadline.plan("a")
        assert plan.level == SKIP
        assert plan.remaining_s == 0.0

    def test_to_dict_reports_downgrades(self):
        clock = [0.0]
        deadline = DeadlineManager(10.0, total_stages=2,
                                   clock=lambda: clock[0])
        clock[0] = 11.0
        deadline.plan("a")
        data = deadline.to_dict()
        assert data["budget_s"] == 10.0
        assert data["downgrades"] == [
            {"stage": "a", "level": "skip", "remaining_s": 0.0}]


class TestBudgetedFlow:
    def test_tight_budget_skips_stages_but_stays_equivalent(self):
        aig = make_random_aig(8, 150, seed=11)
        config = FlowConfig(iterations=1, flow_timeout_s=0.001)
        out, stats = sbm_flow(aig, config)
        assert stats.guard is not None
        assert stats.guard.skips > 0
        skipped = [r.name for r in stats.records if ":skipped" in r.name]
        assert skipped  # the skips are visible in the stage records too
        assert_equivalent(aig, out)

    def test_generous_budget_matches_unbudgeted_run(self):
        aig = make_random_aig(8, 150, seed=12)
        base, _ = sbm_flow(aig, FlowConfig(iterations=1))
        budgeted, stats = sbm_flow(
            aig, FlowConfig(iterations=1, flow_timeout_s=3600.0))
        assert signature(budgeted) == signature(base)
        assert stats.guard.skips == 0 and stats.guard.degradations == 0


# -- equivalence guard --------------------------------------------------------

class TestStageGuard:
    def test_accepts_equivalent_candidate(self):
        aig = make_random_aig(8, 120, seed=21)
        guard = StageGuard(aig.cleanup())
        assert guard.check(aig.cleanup()) is None
        assert guard.sat_checks == 1

    def test_fast_rung_catches_complemented_po(self):
        aig = make_random_aig(8, 120, seed=22)
        guard = StageGuard(aig.cleanup())
        cex = guard.check(broken_copy(aig))
        assert cex is not None
        assert guard.fast_rejects == 1  # never reached SAT
        assert guard.sat_checks == 0
        assert len(cex.inputs) == aig.num_pis
        # The counterexample genuinely distinguishes the two networks.
        assert find_counterexample(aig, broken_copy(aig)) is not None

    def test_commit_advances_reference(self):
        aig = make_random_aig(6, 80, seed=23)
        guard = StageGuard(aig.cleanup())
        smaller = aig.cleanup()
        guard.commit(smaller)
        assert guard.check(smaller.cleanup()) is None
        rolled = guard.rollback_copy()
        assert rolled is not guard.reference  # an editable copy
        assert rolled.num_ands == smaller.num_ands
        assert_equivalent(rolled, smaller)

    def test_flow_rolls_back_corrupted_stage(self):
        aig = make_random_aig(8, 150, seed=24)
        # Corrupt exactly one stage result via a forced stage fault; the
        # guard must roll it back and the flow must end equivalent.
        plan = FaultPlan(seed=1, rate=0.0,
                         forced={"stage:2:kernel": "corrupt-result"})
        config = FlowConfig(iterations=1, verify_each_step=True, chaos=plan)
        out, stats = sbm_flow(aig, config)
        guard = stats.guard
        assert guard.rollbacks == 1
        [event] = [e for e in guard.events if e.kind == "rolled_back"]
        assert event.stage == "kernel"
        cex = event.detail["counterexample"]
        assert isinstance(cex["inputs"], list)
        assert ("stage:2:kernel", "corrupt-result") in guard.faults
        assert any(":guard_rollback" in r.name for r in stats.records)
        assert_equivalent(aig, out)

    def test_verify_each_step_still_passes_clean_flows(self):
        aig = make_random_aig(8, 150, seed=25)
        base, _ = sbm_flow(aig, FlowConfig(iterations=1))
        guarded, stats = sbm_flow(
            aig, FlowConfig(iterations=1, verify_each_step=True))
        assert signature(guarded) == signature(base)
        assert stats.guard.rollbacks == 0


class TestEquivalenceError:
    def test_assert_equivalent_carries_counterexample(self):
        aig = make_random_aig(6, 60, seed=31)
        with pytest.raises(EquivalenceError) as excinfo:
            assert_equivalent(aig, broken_copy(aig))
        exc = excinfo.value
        assert exc.cex is not None and len(exc.cex) == aig.num_pis
        assert exc.po_index == 0
        # Still catchable as the historical failure type.
        assert isinstance(exc, AssertionError)

    def test_check_equivalence_returns_witness(self):
        aig = make_random_aig(6, 60, seed=32)
        ok, cex = check_equivalence(aig, broken_copy(aig))
        assert not ok and cex is not None
        ok, cex = check_equivalence(aig, aig.cleanup())
        assert ok and cex is None


# -- checkpoint / resume ------------------------------------------------------

class TestCheckpointStore:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "x.txt")
        atomic_write_text(path, "hello")
        atomic_write_text(path, "world")
        with open(path) as handle:
            assert handle.read() == "world"
        assert os.listdir(str(tmp_path)) == ["x.txt"]

    def test_save_load_roundtrip(self, tmp_path):
        aig = make_random_aig(6, 80, seed=41)
        store = CheckpointStore(str(tmp_path))
        state = CheckpointState(next_index=3, iteration=0, stage="mspf",
                                total_stages=8, design="t",
                                num_pis=aig.num_pis, num_pos=aig.num_pos,
                                depth_limit=12, runtime_s=1.5,
                                records=[{"name": "initial", "size": 80,
                                          "elapsed_s": 0.0}])
        store.save(state, aig, aig.cleanup())
        resumed = load_checkpoint(str(tmp_path))
        assert resumed.state.next_index == 3
        assert resumed.state.depth_limit == 12
        assert resumed.state.records[0]["name"] == "initial"
        assert resumed.network.num_pis == aig.num_pis
        assert_equivalent(aig, resumed.network)

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "empty"))
        store = CheckpointStore(str(tmp_path))
        assert store.load() is None  # missing_ok path

    def test_corrupt_state_raises(self, tmp_path):
        aig = make_random_aig(4, 30, seed=42)
        store = CheckpointStore(str(tmp_path))
        state = CheckpointState(next_index=1, iteration=0, stage="a",
                                total_stages=8, design="t",
                                num_pis=aig.num_pis, num_pos=aig.num_pos)
        store.save(state, aig, aig)
        with open(str(tmp_path / "state.json")) as handle:
            data = json.load(handle)
        data["schema"] = "something/else"
        with open(str(tmp_path / "state.json"), "w") as handle:
            json.dump(data, handle)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path))


class TestResume:
    def test_interrupt_then_resume_matches_uninterrupted(self, tmp_path):
        aig = make_random_aig(8, 150, seed=43)
        base, _ = sbm_flow(aig, FlowConfig(iterations=1))
        ckpt = str(tmp_path / "ckpt")
        plan = FaultPlan(seed=5, rate=0.0, interrupt_after=3)
        with pytest.raises(ChaosInterrupt) as excinfo:
            sbm_flow(aig, FlowConfig(iterations=1, checkpoint_dir=ckpt,
                                     chaos=plan))
        assert excinfo.value.stage_index == 3
        out, stats = sbm_flow(aig, FlowConfig(iterations=1),
                              resume_from=ckpt)
        assert signature(out) == signature(base)
        assert stats.guard.resumed_from == 4
        # The resumed stats contain the pre-interrupt stage records too.
        names = [r.name for r in stats.records]
        assert "initial" in names and "final" in names

    def test_checkpoints_committed_after_every_stage(self, tmp_path):
        aig = make_random_aig(8, 120, seed=44)
        ckpt = str(tmp_path / "ckpt")
        out, stats = sbm_flow(
            aig, FlowConfig(iterations=1, checkpoint_dir=ckpt))
        # 9 stages per iteration -> 9 checkpoint commits.
        assert stats.guard.checkpoints == 9
        resumed = load_checkpoint(ckpt)
        assert resumed.state.next_index == 9
        assert signature(resumed.best) == signature(out)

    def test_resume_rejects_wrong_interface(self, tmp_path):
        aig = make_random_aig(8, 120, seed=45)
        ckpt = str(tmp_path / "ckpt")
        plan = FaultPlan(seed=5, rate=0.0, interrupt_after=1)
        with pytest.raises(ChaosInterrupt):
            sbm_flow(aig, FlowConfig(iterations=1, checkpoint_dir=ckpt,
                                     chaos=plan))
        other = make_random_aig(5, 40, seed=46)
        with pytest.raises(CheckpointError):
            sbm_flow(other, FlowConfig(iterations=1), resume_from=ckpt)

    def test_resume_rejects_different_flow_shape(self, tmp_path):
        aig = make_random_aig(8, 120, seed=47)
        ckpt = str(tmp_path / "ckpt")
        plan = FaultPlan(seed=5, rate=0.0, interrupt_after=1)
        with pytest.raises(ChaosInterrupt):
            sbm_flow(aig, FlowConfig(iterations=1, checkpoint_dir=ckpt,
                                     chaos=plan))
        with pytest.raises(CheckpointError):
            sbm_flow(aig, FlowConfig(iterations=2), resume_from=ckpt)


# -- chaos --------------------------------------------------------------------

class TestFaultPlan:
    def test_same_seed_same_draws(self):
        sites = [f"it1:kernel:w{i}" for i in range(200)]
        a = FaultPlan(seed=99, rate=0.2)
        b = FaultPlan(seed=99, rate=0.2)
        assert [a.draw(s) for s in sites] == [b.draw(s) for s in sites]
        assert a.injected == b.injected
        assert a.injected  # 200 sites at 20% must inject something

    def test_different_seeds_differ(self):
        sites = [f"w{i}" for i in range(300)]
        a = [FaultPlan(seed=1, rate=0.2).draw(s) for s in sites]
        b = [FaultPlan(seed=2, rate=0.2).draw(s) for s in sites]
        assert a != b

    def test_forced_overrides_and_logs(self):
        plan = FaultPlan(seed=0, rate=0.0, forced={"x": "worker-crash"})
        assert plan.draw("x") == "worker-crash"
        assert plan.draw("y") is None
        assert plan.injected == [("x", "worker-crash")]
        assert plan.injected_since(1) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, kinds=("nonsense",))
        with pytest.raises(ValueError):
            FaultPlan(seed=0, forced={"x": "nonsense"})

    def test_draw_stage_only_corrupts(self):
        plan = FaultPlan(seed=3, stage_corrupt_rate=1.0)
        assert plan.draw_stage("stage:0:kernel") == "corrupt-result"
        plan = FaultPlan(seed=3, stage_corrupt_rate=0.0)
        assert plan.draw_stage("stage:0:kernel") is None

    def test_corrupt_window_result_flips_function(self):
        aig = make_random_aig(5, 40, seed=51)
        from repro.parallel import extract_task, whole_network_window
        task = extract_task(aig, whole_network_window(aig), 0)
        from repro.parallel.window_io import WindowResult
        clean = WindowResult(index=0, changed=False, optimized=None)
        corrupted = corrupt_window_result(task, clean)
        assert corrupted.changed and corrupted.payload["chaos"] == \
            "corrupt-result"
        ok, _ = check_equivalence(task.compact.to_aig(),
                                  corrupted.optimized.to_aig())
        assert not ok  # non-equivalent, same size: only a CEC can tell
        assert len(corrupted.optimized.gates) == len(task.compact.gates)


class TestChaosSoak:
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_flow_survives_injected_faults(self, seed):
        aig = make_random_aig(9, 200, seed=61)
        plan = FaultPlan(seed=seed, rate=0.25, stage_corrupt_rate=0.2)
        config = FlowConfig(iterations=1, jobs=2, verify_each_step=True,
                            chaos=plan)
        out, stats = sbm_flow(aig, config)
        guard = stats.guard
        assert guard.chaos_seed == seed
        assert len(guard.faults) == len(plan.injected)
        # Every stage-level corruption was caught and rolled back.
        stage_faults = [s for s, k in guard.faults
                        if s.startswith("stage:") and k == "corrupt-result"]
        assert guard.rollbacks >= len(stage_faults)
        assert_equivalent(aig, out)

    def test_chaos_is_deterministic_across_runs(self):
        aig = make_random_aig(8, 150, seed=62)
        results = []
        for _ in range(2):
            plan = FaultPlan(seed=77, rate=0.3, stage_corrupt_rate=0.2)
            out, stats = sbm_flow(
                aig, FlowConfig(iterations=1, verify_each_step=True,
                                chaos=plan))
            results.append((signature(out), tuple(stats.guard.faults)))
        assert results[0] == results[1]


# -- report integration -------------------------------------------------------

class TestGuardReporting:
    def test_guard_report_counts(self):
        report = GuardReport()
        report.add("degraded", "kernel", 0)
        report.add("skipped", "mspf", 0)
        report.add("rolled_back", "kernel", 1, counterexample={"inputs": []})
        report.add("checkpoint", "kernel", 0)
        assert (report.degradations, report.skips, report.rollbacks,
                report.checkpoints) == (1, 1, 1, 1)
        data = report.to_dict()
        assert data["rollbacks"] == 1
        assert data["events"][2]["detail"]["counterexample"] == {"inputs": []}

    def test_flow_registers_guard_report_in_session(self, tmp_path):
        from repro import obs
        from repro.obs.report import build_report, validate_report
        aig = make_random_aig(8, 120, seed=71)
        session = obs.enable()
        try:
            sbm_flow(aig, FlowConfig(
                iterations=1, checkpoint_dir=str(tmp_path / "c")))
        finally:
            obs.disable()
        assert len(session.guard_reports) == 1
        report = build_report(session, command="test")
        validate_report(report)
        assert report["version"] == 3
        assert report["guard"][0]["checkpoints"] == 9


# -- CLI / config satellites --------------------------------------------------

class TestSatellites:
    def test_window_timeout_warns_once_when_serial(self):
        import repro.sbm.flow as flow_mod
        aig = make_random_aig(6, 60, seed=81)
        flow_mod._warned_inline_timeout = False
        try:
            config = FlowConfig(iterations=1, jobs=1, window_timeout_s=5.0)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sbm_flow(aig, config)
                sbm_flow(aig, config)
            timeouts = [w for w in caught
                        if "window_timeout_s" in str(w.message)]
            assert len(timeouts) == 1  # one-time, not per-flow
        finally:
            flow_mod._warned_inline_timeout = False

    def test_cli_chaos_and_checkpoint_flags(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        ckpt = str(tmp_path / "ckpt")
        status = cli_main(["optimize", "cavlc", "--chaos", "3",
                           "--checkpoint-dir", ckpt, "--timeout", "600"])
        out = capsys.readouterr().out
        assert status == 0
        assert "verified=True" in out
        assert "guard :" in out and "checkpoints=" in out
        assert os.path.exists(os.path.join(ckpt, "state.json"))

    def test_cli_rejects_bad_guard_values(self):
        from repro.__main__ import main as cli_main
        with pytest.raises(SystemExit):
            cli_main(["optimize", "cavlc", "--timeout", "soon"])
        with pytest.raises(SystemExit):
            cli_main(["optimize", "cavlc", "--chaos", "tuesday"])
        with pytest.raises(SystemExit):
            cli_main(["optimize", "cavlc", "--timeout", "-5"])
