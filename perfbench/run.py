"""The repository benchmark: optimize-and-verify wall time and QoR.

Run from the repository root::

    python3 perfbench/run.py --workload control-gradient --seed 1 \\
        --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``control-gradient`` — EPFL ``i2c`` and ``router`` (scaled) through the
  default ``FlowConfig()`` and the final SAT equivalence check;
* ``arith-verify`` — EPFL ``div`` (scaled, 16 inputs) at one flow
  iteration plus the final SAT equivalence check;
* ``fleet-cache`` — registry ``router``, ``arbiter`` and ``adder`` plus 12
  small fuzz cases drawn from the seed, through ``run_campaign`` with two
  workers: cold, warm reruns on the filled cache, then pack and merge.

With ``--trace 0`` the run makes ``--seconds`` // the workload's nominal
round time rounds (at least one) and reports the end-to-end
metrics: medians over rounds, QoR sums, setup time (median of several
fresh interpreter starts that import the package and build the inputs)
and peak RSS.  Its times are scaled to a reference host speed by
:class:`speed.SpeedMeter`, which probes the host while they run.  With
``--trace 1`` it runs one untraced round and one round under
:class:`tracer.Tracer`, and reports the per-layer metrics;
``trace.overhead_frac`` is the traced round's raw wall time over the
untraced one's, minus one.  Spans and per-stage counters are written to
``perfbench/out/``.

Every output is checked (program SAT CEC, independent random-pattern
evaluation, warm-equals-cold on fleet-cache, identical outputs across
rounds).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; any failure makes the exit
status 1.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: fresh-interpreter set-up samples per run, half taken before the rounds
#: and half after them (their median is setup_s).  The host's speed swings
#: over seconds, so samples spread over the run's length vary less from
#: run to run than a burst of them would.
SETUP_SAMPLES = 10
#: speed probes each set-up child runs after building its inputs
SETUP_PROBES = 4


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_samples(workload: str, seed: int, count: int) -> list:
    """Times from interpreter launch until the inputs are built, at the
    reference host speed.

    The child reports speed probes it ran itself once the inputs were
    built, so they measure the core the set-up ran on; a probe in this
    process while the child starts would measure their contention.
    """
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            probes = child.stdout.read().split()
        if child.returncode != 0 or line.strip() != "built" or not probes:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        samples.append(speed.scaled(elapsed, [float(p) for p in probes]))
    return samples


def _one_malloc_arena() -> None:
    """Make glibc serve every thread of this process from one arena.

    With an arena per thread, the peak RSS of the fleet's two job threads
    depended on which arena each block landed in: 54.2 to 60.1 MB over
    six cold campaigns of the same jobs in one process, against 51.3 to
    52.5 MB with one arena.  That noise would hide the program's own
    memory changes.  A C library without ``mallopt`` is left as it is.
    """
    m_arena_max = -8  # from glibc's malloc.h
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(m_arena_max, 1)


def _peak_rss_mb() -> float:
    """Peak RSS of this process.  Forked pool workers are left out: they
    share the parent's pages, so adding their peak would count those
    pages twice."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _compare_outputs(reference, round_, label: str) -> None:
    """Mark every row of *round_* whose output differs from *reference*."""
    expected = {row.name: row.fingerprint for row in reference.rows}
    for row in round_.rows:
        if row.fingerprint != expected.get(row.name):
            round_.mark(row, f"output differs from the {label}")


def _print_rows(label: str, round_) -> None:
    print(f"# {label}: wall_s={round_.wall_s:.3f} (raw {round_.raw_s:.3f}) "
          f"warm_s={round_.warm_s:.4f} sync_s={round_.sync_s:.4f}")
    print(f"{'design':<24} {'wall_s':>9} {'raw_s':>9} {'and':>6} {'lev':>4} "
          f"{'lut6':>5} {'llev':>4}  fingerprint   status")
    for row in round_.rows:
        print(f"{row.name:<24} {row.wall_s:9.3f} {row.raw_s:9.3f} "
              f"{row.and_nodes:6d} "
              f"{row.aig_levels:4d} {row.lut6:5d} {row.lut6_levels:4d}  "
              f"{row.fingerprint[:12]}  {row.status}"
              f"{'' if row.qor else '  (not in QoR sums)'}")


def _qor(round_):
    rows = [row for row in round_.rows if row.qor]
    return {name: (sum(getattr(row, name) for row in rows), "count")
            for name in ("and_nodes", "aig_levels", "lut6", "lut6_levels")}


def _end_to_end(args, workload, inputs):
    setup = _setup_samples(args.workload, args.seed, SETUP_SAMPLES // 2)
    rounds = []
    with speed.SpeedMeter() as meter:
        for index in range(workload.rounds(args.seconds)):
            round_ = workload.run(inputs, args.seed, OUT, meter=meter)
            if rounds:
                _compare_outputs(rounds[0], round_, "first round")
            _print_rows(f"round {index + 1}", round_)
            rounds.append(round_)
    setup += _setup_samples(args.workload, args.seed, SETUP_SAMPLES // 2)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
    }
    metrics.update(_qor(rounds[0]))
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return metrics, rounds


def _per_layer(args, workload, inputs):
    from tracer import Tracer
    plain = workload.run(inputs, args.seed, OUT)
    _print_rows("untraced round", plain)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id)
    tracer.install()
    try:
        traced = workload.run(inputs, args.seed, OUT, tracer)
    finally:
        tracer.uninstall()
    _compare_outputs(plain, traced, "untraced round")
    _print_rows("traced round", traced)
    metrics = layer_metrics(tracer.totals(), traced, plain)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"
                                   f".json"),
                 {"metrics": {k: v for k, (v, _u) in metrics.items()},
                  "rows": [vars(row) for row in traced.rows]})
    return metrics, [plain, traced]


def layer_metrics(totals, traced, plain):
    """The ``per_layer`` metrics of BENCHMARK.json, by name.

    Tracer counters already carry the metric names; the round reports
    add the values the program exposes, and a few are derived here.
    Layers a workload does not exercise read 0.
    """
    values = dict(totals)
    values.update(traced.layers)
    values.update((f"stage.{stage}.gain", gain)
                  for stage, gain in traced.stage_gain.items())
    tried = values.get("gradient.moves_tried", 0)
    values["gradient.gain_frac"] = (values.get("gradient.moves_gained", 0)
                                    / tried if tried else 0.0)
    values["warm_s"] = plain.warm_s
    values["sync_s"] = plain.sync_s
    values["trace.overhead_frac"] = traced.raw_s / plain.raw_s - 1.0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        table = json.load(handle)["per_layer"]
    return {metric["name"]: (values.get(metric["name"], 0.0), metric["unit"])
            for metric in table}


def main(argv=None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    _one_malloc_arena()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (expected one of "
              f"{sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    if args.setup_probe:
        print("built", flush=True)
        print(*(speed.probe() for _ in range(SETUP_PROBES)), flush=True)
        return 0
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        metrics, rounds = _per_layer(args, workload, inputs)
    else:
        metrics, rounds = _end_to_end(args, workload, inputs)
    failures = [message for r in rounds for message in r.failures]
    for message in failures:
        print(f"FAIL {message}")
    result = {"correct": not failures,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
