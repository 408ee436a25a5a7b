#!/usr/bin/env python3
"""Benchmark of subshift-algebra: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload {scaling,census,arith} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; the package is imported from the
checkout's ``src/``.  One caller in one thread runs the workload's ops in a
closed loop: a warm-up pass over the seeded inputs, then timed passes while
``--seconds`` last (at least ``MIN_PASSES``).  Every answer is checked.
Timings are in reference seconds (see ``calibration.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it show the same metrics as a
table.

With ``--trace 1`` one more pass runs after the timed ones, with wrappers
around every layer's public entry points, and the metrics are the per-layer
counts and self times of that pass.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPS = 12
SETUP_SAMPLES = 30
MIN_PASSES = 3
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
FAILURES_SHOWN = 5
# Timed passes repeat each op of a workload until its runs cover this many
# seconds, so that the ops of a few milliseconds in `scaling` get as many
# calibrated samples as the long ones; census and arith ops are measured once
# per pass, among thousands.
MIN_OP_S = {"scaling": 0.25}
MAX_REPEATS = 64
WORKLOADS = ("scaling", "census", "arith")


def import_package() -> bool:
    """Import the package from this checkout's ``src/``, and only from there."""
    if not (SRC / "subshift_algebra" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import subshift_algebra
    return Path(subshift_algebra.__file__).resolve().parent.parent == SRC


def tail_level(n: int) -> float:
    """The highest listed percentile with at least 10 of ``n`` samples beyond
    it; 100 (the maximum) when there is none."""
    for level in TAIL_LEVELS:
        if n - math.ceil(level / 100.0 * n) >= 10:
            return level
    return 100.0


def percentile(sorted_values: list[float], level: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(level / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Pass:
    """One pass over the ops, recording each op's latency and failures.

    With a ``sampler`` (an untimed pass has none), calibration samples run
    during the pass and each latency is in reference seconds; otherwise it
    is wall time.  An op runs again, right after itself, until its runs
    cover ``min_op_s`` (at most ``MAX_REPEATS`` runs); its latency in the
    pass is the median of its runs.

    ``reference`` holds the warm-up pass's answers, which every later pass
    must repeat; only a pass without one keeps its answers.  Only a traced
    pass keeps the elements its ops produce, so that memory held across
    passes does not depend on how many passes fit in the run.
    """

    def __init__(self, ops, algebras, reference=None, tracer=None, sampler=None,
                 min_op_s=0.0):
        from tracing import OP_LAYER
        from workloads import RUNNERS
        self.answers: list[str] = []
        self.outputs: list[tuple] = []
        self.failures: list[str] = []
        self.attempted = 0
        clock = time.perf_counter
        spans = []
        # Start every pass from a collected heap, so that the collector's own
        # runs fall on the same ops in every pass and every process.
        gc.collect()
        with sampler if sampler is not None else contextlib.nullcontext():
            for i, op in enumerate(ops):
                runner = RUNNERS[op.kind]
                if tracer is not None:
                    runner = tracer.wrap(runner, OP_LAYER, op.group)
                reps = []
                while not reps or (reps[-1][1] - reps[0][0] < min_op_s
                                   and len(reps) < MAX_REPEATS):
                    t0 = clock()
                    try:
                        answer, outputs = runner(algebras[op.shift, op.ring], op.text)
                    except Exception:  # an op's failure is counted, not fatal
                        answer, outputs = None, ()
                        self.failures.append(f"{op.label}: {traceback.format_exc()}")
                    reps.append((t0, clock()))
                    self.attempted += 1
                    if reference is not None and answer is not None and answer != reference[i]:
                        self.failures.append(f"{op.label}: answer differs from the warm-up pass")
                spans.append(reps)
                if reference is None:
                    self.answers.append(answer)
                if tracer is not None:
                    self.outputs.append(outputs)
        if sampler is None:
            self.latencies = [statistics.median(t1 - t0 for t0, t1 in reps) for reps in spans]
            walls = self.latencies
        else:
            self.latencies = [statistics.median(sampler.scaled(t0, t1) for t0, t1 in reps)
                              for reps in spans]
            walls = [statistics.median(t1 - t0 - sampler.inside(t0, t1) for t0, t1 in reps)
                     for reps in spans]
        # Wall time of one run of every op, without the calibration's.
        self.wall = sum(walls)


def setup_seconds(workload: str, sampler) -> tuple[float, float]:
    """Time of a fresh process that imports the package, builds every
    follower graph and algebra of the workload, and exits: in reference
    seconds, and as wall time.

    The process is too short for the timer's few samples to gauge the CPU,
    so ``SETUP_SAMPLES`` calibration samples run just before it and as many
    just after, and their median is the gauge.  No timeout: with one,
    ``subprocess`` polls for the exit with sleeps of up to 50 ms, which
    would round the measurement up to the next poll.
    """
    first = len(sampler.durations)
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--setup-only", "--workload", workload],
                   check=True, stdin=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    gauge = statistics.median(sampler.durations[first:])
    return wall * calibration.REFERENCE_S / gauge, wall


def end_to_end(ops, setups: list[tuple[float, float]], passes: list[Pass]):
    """End-to-end metrics from the median over repeats of each op and of
    set-up, all in reference seconds."""
    typical = sorted(statistics.median(p.latencies[i] for p in passes) for i in range(len(ops)))
    level = tail_level(len(typical))
    series = sum(typical)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "series_s": (series, "s"),
        "throughput_ops_s": (len(typical) / series, "ops/s"),
        "op_ms_p50": (1e3 * statistics.median(typical), "ms"),
        "op_ms_tail": (1e3 * percentile(typical, level), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond = len(typical) - math.ceil(level / 100.0 * len(typical))
    notes = {
        "setup_s": f"median of {len(setups)} processes; wall median "
                   f"{statistics.median(w for _, w in setups):.4g} s",
        "series_s": f"{len(ops)} ops, each at its median of {len(passes)} passes; wall "
                    f"median pass {statistics.median(p.wall for p in passes):.4g} s",
        "op_ms_tail": f"p{level:g} of {len(typical)} ops, {beyond} beyond",
    }
    return metrics, notes


def per_layer(workload: str, passes: list[Pass], traced: Pass, warm: Pass,
              tracer, setup_tracer):
    from tracing import LAYERS
    from workloads import printed_words, stored_words
    s = tracer.summary(per_op=("reduce",))
    c = tracer.counts

    def layer_sum(table, layer):
        return sum(v for (lay, _q), v in table.items() if lay == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {f"{layer}.self_s": (layer_sum(s["self"], layer), "s") for layer in LAYERS}
    metrics.update({
        "shift.legal_checks": (c["shift.legal_checks"], "count"),
        "shift.legal_true_ratio": (ratio(c["shift.legal_true"], c["shift.legal_checks"]),
                                   "ratio"),
        "shift.extension_words": (c["shift.extension_words"], "count"),
        "shift.graph_build_s": (setup_tracer.summary()["total"]["shift", "build_follower_graph"],
                                "s"),
        "clopen.sets_built": (c["clopen.sets_built"], "count"),
        "clopen.words_stored": (c["clopen.words_stored"], "count"),
        "clopen.refine_out_per_in": (ratio(c["clopen.refine_out"], c["clopen.refine_in"]),
                                     "ratio"),
        "algebra.mul_calls": (c["algebra.mul_calls"], "count"),
        "algebra.mul_pairs": (c["algebra.mul_pairs"], "count"),
        "algebra.elements_built": (c["algebra.elements_built"], "count"),
        "algebra.support_words": (c["algebra.support_words"], "count"),
        "algebra.stored_per_printed": (ratio(
            sum(stored_words(e) for outs in traced.outputs for e in outs),
            sum(printed_words(e) for outs in traced.outputs for e in outs)), "ratio"),
        "rings.ops": (layer_sum(s["calls"], "rings"), "count"),
        "reduction.reduce_s": (s["total"]["reduction", "reduce"], "s"),
        "reduction.verify_s": (s["total"]["reduction", "verify"], "s"),
        "reduction.factors_per_reduce": (ratio(c["reduction.factors"], c["reduction.reduces"]),
                                         "factors"),
        "structure.calls": (layer_sum(s["calls"], "structure"), "count"),
        "parsing.evaluate_calls": (c["parsing.evaluate_calls"], "count"),
        "parsing.chars": (c["parsing.chars"], "count"),
        "words.calls": (layer_sum(s["calls"], "words"), "count"),
    })
    for m in range(2, 9):
        metrics[f"reduction.reduce_s.m{m}"] = (s["under_op"]["reduce", f"m{m}"], "s")
    census = workload == "census"
    metrics["census.zero_inputs"] = (
        sum(a == "zero" for a in warm.answers) if census else 0, "count")
    metrics["census.cycle_forms"] = (
        sum(a is not None and a.startswith("cycle") for a in warm.answers) if census else 0,
        "count")
    untraced = statistics.median(p.wall for p in passes)
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.traced_pass_s"] = (traced.wall, "s")
    metrics["trace.overhead_s"] = (traced.wall - untraced, "s")
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs each workload in its own process, one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_package():
        print(f"run.py: cannot import subshift_algebra from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return max(subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode for w in WORKLOADS)
    from workloads import build_algebras
    if args.setup_only:
        build_algebras(args.workload)
        return 0
    import inputs
    import tracing

    generate = inputs.GENERATORS[args.workload]
    ops = generate(args.seed)
    inputs_repeat = inputs.serialize(ops) == inputs.serialize(generate(args.seed))

    setup_tracer = tracing.Tracer()
    undo = tracing.install(setup_tracer) if args.trace else []
    algebras = build_algebras(args.workload)
    tracing.uninstall(undo)

    # Timed passes, with a set-up process after each of the first ones; no
    # pass starts that would end after --seconds, judged by the last one.
    # The run and its set-up processes stay on one CPU, the one that the
    # calibration gauges: the CPUs of a shared machine slow down separately.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = calibration.Sampler()
    time_setup = not args.trace
    setups = []
    warm = Pass(ops, algebras)
    passes = []
    t0 = last = time.perf_counter()
    while len(passes) < MIN_PASSES or 2 * time.perf_counter() - last - t0 <= args.seconds:
        last = time.perf_counter()
        passes.append(Pass(ops, algebras, reference=warm.answers, sampler=sampler,
                           min_op_s=MIN_OP_S.get(args.workload, 0.0)))
        if time_setup and len(setups) < SETUP_REPS:
            setups.append(setup_seconds(args.workload, sampler))
    while time_setup and len(setups) < SETUP_REPS:
        setups.append(setup_seconds(args.workload, sampler))
    runs = [warm] + passes

    if args.trace:
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced = Pass(ops, algebras, reference=warm.answers, tracer=tracer)
        finally:
            tracing.uninstall(undo)
        runs.append(traced)
        metrics = per_layer(args.workload, passes, traced, warm, tracer, setup_tracer)
        notes = {}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
    else:
        metrics, notes = end_to_end(ops, setups, passes)

    attempted = sum(p.attempted for p in runs)
    failures = [f for p in runs for f in p.failures]
    for f in failures[:FAILURES_SHOWN]:
        print(f"FAILED {f}", file=sys.stderr)
    if not inputs_repeat:
        print("inputs differ between two generations from one seed", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {inputs.digest(ops)}  src_lines "
          f"{sum(len(p.read_text().splitlines()) for p in SRC.rglob('*.py'))}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<30} {value:>14.6g} {unit}{note}")
    print(f"{'failed_frac':<30} {len(failures) / attempted:>14.6g} ratio"
          f"  ({len(failures)} of {attempted} ops)")
    print(json.dumps({
        "correct": not failures and inputs_repeat,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
