"""Sweep benchmark for the simulator and its sweep runner.

Run from the repository root::

    python3 perfbench/run.py --workload attack-matrix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of one workload; ``--trace
1`` reports its per-layer split from a traced run.  ``--workload all``
runs every workload in its own process and prints one table.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A run whose outputs fail the check prints ``"correct": false`` with no
metrics and exits 1.  Run anywhere but a checkout with ``src/repro``, it
prints no result and exits 1.

What one run does, in order:

1. with ``--trace 0``, set up the workload in ``SETUP_PROBES`` fresh
   processes and take the median time from spawn to ready as
   ``setup_s`` (import, input generation, one untimed warm-up trial);
2. set up in this process, then run timed passes over the whole input
   set until ``--seconds`` of timed wall time (at least ``MIN_PASSES``);
   rates are medians over passes.  Every timed interval is bracketed by
   calibration samples and reported at reference host speed (see
   ``calibrate.py``);
3. read this process's peak RSS, then compare every outcome of every
   pass with a cold reference (see ``workloads.py``);
4. with ``--trace 1``: ``TRACED_PASSES`` more passes with span wrappers
   installed (see ``tracing.py``), whose counts must repeat exactly.

Out of scope: the ``ParallelSweepRunner`` process pool (a pool on a
two-CPU host measures the scheduler), ``repro.service``,
``repro.staticcheck``, ``repro.symni`` and the wall time of the test
suite.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from workloads import WORKLOADS, PassResult, make_workload  # noqa: E402

SETUP_PROBES = 3
MIN_PASSES = 2
TRACED_PASSES = 2
#: Scratch space (trial caches, span files), relative to the checkout.
OUT_DIR = ".perfbench_out"
PROBE_TIMEOUT_S = 120

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "trials_per_s": "1/s",
    "sim_kcycles_per_s": "kcycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` on the path and import the program."""
    src = os.path.abspath("src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(
            f"perfbench: no program at {src}/repro; run from the checkout root"
        )
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import repro  # noqa: F401


def set_up(args: argparse.Namespace, work_dir: str):
    """Everything before the first timed trial."""
    import_program()
    workload = make_workload(args.workload, args.seed, work_dir)
    workload.warm_up()
    return workload


def setup_samples(args: argparse.Namespace) -> List[Tuple[float, float]]:
    """``(raw, normalised)`` set-up seconds of ``SETUP_PROBES`` fresh
    processes, each bracketed by calibration samples."""
    brackets = [calibrate.sample()]
    samples = []
    for _ in range(SETUP_PROBES):
        raw = probe_setup(args)
        brackets.append(calibrate.sample())
        samples.append((raw, calibrate.normalise_time(raw, brackets[-2:])))
    return samples


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh set-up process until it is ready."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def measure(
    run_pass: Callable[[], PassResult], seconds: float, count: int = 0
) -> List[PassResult]:
    """Timed passes, each bracketed by calibration samples: ``count``
    of them, or as many as fill ``seconds`` (at least ``MIN_PASSES``)."""
    passes: List[PassResult] = []
    brackets = [calibrate.sample()]
    while (len(passes) < count) if count else (
        len(passes) < MIN_PASSES or sum(p.wall_s for p in passes) < seconds
    ):
        result = run_pass()
        brackets.append(calibrate.sample())
        result.norm_wall_s = calibrate.normalise_time(result.wall_s, brackets[-2:])
        passes.append(result)
    return passes


def check_outputs(
    workload, passes: List[PassResult], reference: Optional[List[str]]
) -> List[str]:
    """Every pass must pass the workload's own check and reproduce the
    reference fingerprints (or, without one, the first pass's)."""
    expected = reference if reference is not None else passes[0].fingerprints
    labels = workload.labels()
    errors = []
    for n, result in enumerate(passes):
        errors += [f"pass {n}: {e}" for e in workload.check(result)]
        got = result.fingerprints
        if len(got) != len(expected):
            errors.append(f"pass {n}: {len(got)} outcomes, expected {len(expected)}")
            continue
        bad = [labels[i] for i in range(len(got)) if got[i] != expected[i]]
        if bad:
            errors.append(
                f"pass {n}: {len(bad)} outcome(s) differ from the reference, "
                f"first {bad[:3]}"
            )
    return errors


def end_to_end(
    passes: List[PassResult], setups: List[Tuple[float, float]], peak_rss_mb: float
) -> Dict[str, float]:
    """Times are at reference host speed (see calibrate.py); ok_frac is
    1 - failed_frac, the failure share kept nonzero."""
    attempted = sum(p.attempted for p in passes)
    return {
        "trials_per_s": statistics.median(p.ok / p.norm_wall_s for p in passes),
        "sim_kcycles_per_s": statistics.median(
            p.cycles / p.norm_wall_s / 1e3 for p in passes
        ),
        "setup_s": statistics.median(norm for _, norm in setups),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": sum(p.ok for p in passes) / attempted,
    }


#: ``SweepResult.batch_stats`` keys, reported as counts (0 when absent).
BATCH_COUNTS = (
    "batched", "ejected", "failed",
    "bypass.no_numpy", "bypass.sanitize", "bypass.snapshot",
    "bypass.min_lanes", "bypass.faults",
)
#: Units of metrics that count work; they must repeat exactly.
COUNT_UNITS = ("count", "ratio")

Metrics = Dict[str, Tuple[float, str]]


def layer_metrics(
    names, calls, inclusive, self_s, result: PassResult, fallbacks: int
) -> Metrics:
    """One traced pass's per-layer metrics; index 0 is the root span."""
    ids = {name: i for i, name in enumerate(names)}
    metrics: Metrics = {}
    for name in names[1:]:
        metrics[f"{name}.self_s"] = (float(self_s[ids[name]]), "s")
        metrics[f"{name}.calls"] = (int(calls[ids[name]]), "count")
    steps = int(calls[ids["pipeline.step"]])
    probes = int(calls[ids["pipeline.next_event_cycle"]])
    step_s = float(inclusive[ids["pipeline.step"]])
    metrics["pipeline.us_per_step"] = (step_s / steps * 1e6 if steps else 0.0, "us")
    forwards = int(calls[ids["pipeline.fast_forward"]])
    metrics["pipeline.ff_hit_ratio"] = (forwards / probes if probes else 0.0, "ratio")
    hits = result.cache_stats.get("hits", 0)
    lookups = hits + result.cache_stats.get("misses", 0)
    metrics["runner.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    for key in BATCH_COUNTS:
        metrics[f"batch.{key}"] = (result.batch_stats.get(key, 0), "count")
    metrics["snapshot.fallbacks"] = (fallbacks, "count")
    metrics["sim.cycles"] = (result.cycles, "count")
    metrics["sim.retired"] = (result.retired, "count")
    metrics["unattributed.self_s"] = (float(self_s[0]), "s")
    metrics["trace.wall_s"] = (float(inclusive[0]), "s")
    return metrics


def traced_passes(
    workload, untraced: List[PassResult], spans_path: str
) -> Tuple[Metrics, List[PassResult], List[str]]:
    """Per-layer metrics from ``TRACED_PASSES`` traced passes.  Times are
    means over the passes; counts must repeat exactly between them, and
    the self times of each pass must sum to its traced wall time."""
    from tracing import ROOT, SPAN_NAMES, SpanRecorder, instrument

    recorder = SpanRecorder(SPAN_NAMES)
    per_pass: List[Metrics] = []
    results: List[PassResult] = []
    errors: List[str] = []

    def traced_pass():
        first = len(recorder.name)
        before = recorder.returned_none.get("snapshot.group", 0)
        result = workload.run_pass(around=lambda: recorder.span(ROOT))
        fallbacks = recorder.returned_none.get("snapshot.group", 0) - before
        calls, inclusive, self_s = recorder.span_table(first)
        wall, total = float(inclusive[0]), float(self_s.sum())
        if abs(total - wall) > 1e-6 * max(1.0, wall):
            errors.append(
                f"traced pass {len(results)}: self times sum to {total:.6f}s, "
                f"traced wall is {wall:.6f}s"
            )
        per_pass.append(
            layer_metrics(recorder.names, calls, inclusive, self_s, result, fallbacks)
        )
        results.append(result)
        return result

    with instrument(recorder):
        traced = measure(traced_pass, 0, count=TRACED_PASSES)
    recorder.save(spans_path)
    first_pass = per_pass[0]
    for n, other in enumerate(per_pass[1:], 1):
        moved = sorted(
            name
            for name, (value, unit) in first_pass.items()
            if unit in COUNT_UNITS and other[name][0] != value
        )
        if moved:
            errors.append(f"traced pass {n}: counts differ from traced pass 0: {moved}")
    metrics: Metrics = {}
    for name, (value, unit) in first_pass.items():
        if unit not in COUNT_UNITS:
            value = statistics.fmean(m[name][0] for m in per_pass)
        metrics[name] = (value, unit)
    overhead = statistics.fmean(p.norm_wall_s for p in traced) / statistics.median(
        p.norm_wall_s for p in untraced
    )
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics, traced, errors


def run_one(args: argparse.Namespace) -> Tuple[bool, int, int, Metrics]:
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        setups = [] if args.trace else setup_samples(args)
        workload = set_up(args, work_dir)
        workload.prepare()
        passes = measure(workload.run_pass, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference = workload.reference()
        errors = check_outputs(workload, passes, reference)
        attempted = sum(p.attempted for p in passes)
        failed = attempted - sum(p.ok for p in passes)
        if args.trace:
            spans_path = os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"
            )
            metrics, traced, trace_errors = traced_passes(workload, passes, spans_path)
            errors += trace_errors + check_outputs(workload, traced, reference)
            if traced[0].cycles != passes[0].cycles:
                errors.append("tracing changed the simulated cycle count")
            print(f"perfbench: spans written to {spans_path}", file=sys.stderr)
        else:
            values = end_to_end(passes, setups, peak_rss_mb)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        walls = ", ".join(f"{p.wall_s:.3f}/{p.norm_wall_s:.3f}" for p in passes)
        setup = ", ".join(f"{raw:.3f}/{norm:.3f}" for raw, norm in setups)
        print(
            f"perfbench: {args.workload} seed {args.seed}: pass wall s "
            f"raw/normalised {walls}; set-up s raw/normalised {setup}",
            file=sys.stderr,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for error in errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    return not errors, attempted, failed, metrics


def result_line(correct: bool, attempted: int, failed: int, metrics: Metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        } if correct else {},
    })


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (so each peak RSS is its own),
    one table, one combined result line."""
    rows, combined, correct, attempted, failed = [], {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = (entry["value"], entry["unit"])
            value, unit = entry["value"], entry["unit"]
            rows.append(f"{name:<18} {metric:<34} {value:>16.6g} {unit}")
    print("\n".join(rows))
    print(result_line(correct, attempted, failed, combined))
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so every ``finally`` stops and
    # waits for the processes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.setup_probe:
        work_dir = os.path.join(OUT_DIR, f"probe-{os.getpid()}")
        try:
            set_up(args, work_dir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload == "defense-overhead":
        print(
            "perfbench: defense-overhead has no random input; --seed is ignored",
            file=sys.stderr,
        )
    import_program()
    correct, attempted, failed, metrics = run_one(args)
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
