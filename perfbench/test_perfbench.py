"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q

The determinism tests make two full traced runs of ``control-gradient``
and ``arith-verify`` each (about six minutes on a 2-core machine); the
other tests take seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _traced_result(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["control-gradient", "arith-verify"])
def test_traced_counts_repeat_exactly(workload):
    first = compare.counts(_traced_result(workload))
    second = compare.counts(_traced_result(workload))
    assert first["bdd.op_calls"] > 0 and first["gradient.moves_tried"] > 0
    assert compare.changed(first, second) == []


def _traced_router_round():
    designs = workloads.build_registry(["router"])
    tracer = Tracer("selftest")
    tracer.install()
    try:
        round_ = workloads.flow_round(designs, workloads.arith_config(), 7,
                                     tracer)
    finally:
        tracer.uninstall()
    assert round_.failures == []
    return tracer, round_


def test_doubled_mspf_work_is_flagged(monkeypatch):
    import repro.sbm.flow as flow
    base_tracer, base_round = _traced_router_round()

    original = flow.mspf_pass

    def doubled(aig, *args, **kwargs):
        original(aig.clone(), *args, **kwargs)
        return original(aig, *args, **kwargs)

    monkeypatch.setattr(flow, "mspf_pass", doubled)
    new_tracer, new_round = _traced_router_round()

    base_mspf = base_tracer.by_stage()[("bdd.op_calls", "mspf")]
    assert base_mspf > 0
    assert new_tracer.by_stage()[("bdd.op_calls", "mspf")] == 2 * base_mspf
    # same output, so every other stage did the same work
    assert [r.fingerprint for r in new_round.rows] == \
        [r.fingerprint for r in base_round.rows]

    def as_result(tracer, round_):
        return {"metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in run.layer_metrics(
                                tracer.totals(), round_, round_).items()}}

    flagged = {name for name, _old, _new in compare.changed(
        compare.counts(as_result(base_tracer, base_round)),
        compare.counts(as_result(new_tracer, new_round)))}
    assert "bdd.op_calls" in flagged


def test_uninstall_restores_every_name():
    import repro.sbm.flow as flow
    from repro.bdd.manager import BddManager
    from repro.sbm.moves import DEFAULT_MOVES
    before = (flow.mspf_pass, BddManager.ite, list(DEFAULT_MOVES))
    tracer = Tracer("restore")
    tracer.install()
    assert flow.mspf_pass is not before[0]
    tracer.uninstall()
    assert (flow.mspf_pass, BddManager.ite, list(DEFAULT_MOVES)) == before


def test_independent_check_catches_a_flipped_output():
    from repro.aig.aig import lit_not
    (_name, aig), = workloads.build_registry(["router"])
    assert check.first_mismatch(aig, aig.cleanup(), seed=3) is None
    broken = aig.cleanup()
    broken.set_po(2, lit_not(broken.pos()[2]))
    assert check.first_mismatch(aig, broken, seed=3) == 2


def test_stage_gains_follow_the_record_sequence():
    records = [("initial", 100), ("aig_script[1]", 90), ("gradient[1]", 85),
               ("mspf:skipped[1]", 85), ("aig_script[2]", 80), ("final", 80)]
    assert workloads._stage_gains(records) == {
        "aig_script": 15, "gradient": 5, "mspf": 0}


def test_speed_meter_scales_by_the_probes_taken_during_a_span():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.SpeedMeter(interval_s=0.02)
    with meter:
        with meter.span() as timed:
            time.sleep(0.2)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert timed.samples == len(meter.samples) > 2  # timer probes included
    expected = timed.raw_s * sum(speed.REFERENCE_PROBE_S / sample
                                 for sample in meter.samples) / timed.samples
    assert timed.scaled_s == pytest.approx(expected)
