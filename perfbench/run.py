#!/usr/bin/env python3
"""Benchmark of the stokesdd SER and rate sweeps.

Run from the root of a checkout (stokesdd is imported from its ``src/``):

    python3 perfbench/run.py --workload ser-16psk --seed 0 --seconds 30 --trace 0

``--trace 0`` times whole sweeps with the program untouched and prints the
end-to-end metrics of BENCHMARK.json. ``--trace 1`` alternates untraced and
traced sweeps and prints the per-layer metrics (see tracing.py). Either way
every CSV a sweep returns is checked (workloads.py); the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics, where
attempted/failed count output checks. A fuller report (environment, CSV
sha256, check results, spans) is written to ``.perfbench/`` in the checkout.

The seed reaches the program only as ``ExperimentConfig.seed``. The benchmark
sets no thread variables: BLAS threads competing with pool workers are part of
what the pool workload measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS, output_checks, slot_evals

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_SWEEPS = 3  # timed sweeps (or traced rounds) per run, however short --seconds is
SETUP_REPEATS = 11  # timed set-ups per run, after one untimed one
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "slot_evals_per_s": "1/s",
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "detection.dims123_s": "s",
    "detection.hypothesis_evals": "count",
    "detection.ns_per_hypothesis_eval": "ns",
    "detection.training_s": "s",
    "detection.training_slots": "count",
    "detection.dim4_s": "s",
    "detection.receiver_self_s": "s",
    "detection.erasure_ratio": "ratio",
    "experiments.scaling_efficiency": "ratio",
    "experiments.self_s": "s",
    "metrics.mi_self_s": "s",
    "metrics.histogram_s": "s",
    "metrics.accumulate_s": "s",
    "channel.propagate_s": "s",
    "frontend.samples_s": "s",
    "constellation.encode_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}

# runs in a fresh interpreter; argv: src directory, config JSON
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import stokesdd
from stokesdd.config import ExperimentConfig
ExperimentConfig.from_json(sys.argv[2]).validate()
print(repr(time.perf_counter() - t0))
"""


def import_program():
    """Import stokesdd from this checkout's src/, and nowhere else."""
    package = SRC / "stokesdd"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no stokesdd sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stokesdd

    if Path(stokesdd.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported stokesdd from {stokesdd.__file__}, not {package}")


class Checks:
    """Pass/fail tally of named output checks."""

    def __init__(self):
        self.tally = {}  # name -> [passed, failed]

    def add(self, name, ok) -> None:
        self.tally.setdefault(name, [0, 0])[0 if ok else 1] += 1

    def extend(self, results: dict) -> None:
        for name, ok in results.items():
            self.add(name, ok)

    @property
    def attempted(self) -> int:
        return sum(p + f for p, f in self.tally.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.tally.values())


def make_config(workload: dict, seed):
    from stokesdd.config import ExperimentConfig

    cfg = ExperimentConfig(**workload, seed=seed)
    cfg.validate()
    return cfg


def sweep(cfg):
    """One sweep through the public entry point; returns (CSV rows, seconds)."""
    from stokesdd import experiments

    entry = experiments.run_rate_experiment if cfg.experiment == "rate" else experiments.run_ser_experiment
    start = perf_counter()
    rows = entry(cfg)
    return rows, perf_counter() - start


def csv_sha256(rows) -> str:
    # the bytes stokesdd.experiments.write_csv would write
    return hashlib.sha256(("\n".join(rows) + "\n").encode()).hexdigest()


def setup_seconds(cfg) -> float:
    """Import stokesdd, build and validate ``cfg`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), cfg.to_json()],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mib() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, children_kib) / 1024.0


def end_to_end(workload, seed, seconds, checks: Checks) -> tuple[dict, dict]:
    """Untraced sweeps for ``seconds`` after one untimed warm-up sweep."""
    cfg = make_config(workload, seed)
    reference, _ = sweep(cfg)
    checks.extend(output_checks(reference, cfg))
    times = []
    deadline = perf_counter() + seconds
    while len(times) < MIN_SWEEPS or perf_counter() < deadline:
        rows, elapsed = sweep(cfg)
        times.append(elapsed)
        checks.add("repeat_identical", rows == reference)
    # read before anything else runs in this process or as its child
    peak = peak_rss_mib()
    if cfg.workers > 1:
        single, _ = sweep(cfg.replaced(workers=1))
        checks.add("workers_identical", single == reference)
    setup_seconds(cfg)  # writes the bytecode cache in a fresh checkout
    setups = [setup_seconds(cfg) for _ in range(SETUP_REPEATS)]
    metrics = {
        "slot_evals_per_s": slot_evals(cfg) * len(times) / sum(times),
        "sweep_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }
    details = {"csv_sha256": csv_sha256(reference), "sweep_times_s": times, "setup_times_s": setups}
    return metrics, details


def _round_metrics(tracer: Tracer, traced_wall: float) -> dict:
    times = tracer.layer_times()
    busy = {layer: b for layer, (b, _) in times.items()}
    own = {layer: s for layer, (_, s) in times.items()}
    counts = tracer.counts
    evals = counts["detection.hypothesis_evals"]
    decisions = counts["detection.dim4_decisions"]
    return {
        "detection.dims123_s": busy["detection.dims123"],
        "detection.hypothesis_evals": evals,
        "detection.ns_per_hypothesis_eval": busy["detection.dims123"] / evals * 1e9 if evals else 0.0,
        "detection.training_s": busy["detection.training"],
        "detection.training_slots": counts["detection.training_slots"],
        "detection.dim4_s": busy["detection.dim4"],
        "detection.receiver_self_s": own["detection.receiver"],
        "detection.erasure_ratio": counts["detection.erasures"] / decisions if decisions else 0.0,
        "experiments.self_s": own["experiments"],
        "metrics.mi_self_s": own["metrics.mi"],
        "metrics.histogram_s": busy["metrics.histogram"],
        "metrics.accumulate_s": busy["metrics.accumulate"],
        "channel.propagate_s": busy["channel.propagate"],
        "frontend.samples_s": busy["frontend.samples"],
        "constellation.encode_s": busy["constellation.encode"],
        "trace.unaccounted_s": traced_wall - sum(own.values()),
    }


def per_layer(workload, seed, seconds, checks: Checks) -> tuple[dict, dict]:
    """Rounds of: untraced sweep, untraced sweep at the workload's worker count
    (when the traced pass uses fewer), traced sweep."""
    cfg = make_config(workload, seed)
    # spans recorded inside pool children never reach this process
    traced_cfg = cfg.replaced(workers=1)
    reference, _ = sweep(traced_cfg)
    checks.extend(output_checks(reference, traced_cfg))
    tracer = Tracer()
    rounds, untraced, pooled, traced = [], [], [], []
    deadline = perf_counter() + seconds
    while len(rounds) < MIN_SWEEPS or perf_counter() < deadline:
        rows, elapsed = sweep(traced_cfg)
        untraced.append(elapsed)
        checks.add("repeat_identical", rows == reference)
        if cfg.workers != traced_cfg.workers:
            rows, elapsed = sweep(cfg)
            pooled.append(elapsed)
            checks.add("workers_identical", rows == reference)
        tracer.reset()
        tracer.install()
        try:
            rows, elapsed = sweep(traced_cfg)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        checks.add("traced_identical", rows == reference)
        current = _round_metrics(tracer, elapsed)
        # layer self times plus experiments.self_s must account for the wall time
        checks.add("trace_accounting", abs(current["trace.unaccounted_s"]) <= 0.01 * elapsed)
        rounds.append(current)

    # median_low picks a measured round, so counts stay whole numbers
    metrics = {name: statistics.median_low(r[name] for r in rounds) for name in rounds[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    # sweep_s at workers=1 over (workers x sweep_s at the workload's worker count);
    # 1 by definition for a single-worker workload
    metrics["experiments.scaling_efficiency"] = (
        statistics.median(untraced) / (cfg.workers * statistics.median(pooled)) if pooled else 1.0
    )
    details = {
        "csv_sha256": csv_sha256(reference),
        "spans_from_workers": traced_cfg.workers,
        "absent": tracer.absent,
        "untraced_s": untraced,
        "pooled_s": pooled,
        "traced_s": traced,
        # busy and self seconds per layer, and the spans, of the last traced sweep
        "layers": tracer.layer_times(),
        "spans": tracer.spans,
    }
    return metrics, details


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run(workload_name: str, seed: int, seconds: int, trace: bool, workloads=WORKLOADS) -> dict:
    """Measure one workload; returns the full report (see ``result``)."""
    load_before = os.getloadavg()
    import_program()
    workload = workloads[workload_name]
    checks = Checks()
    measure = per_layer if trace else end_to_end
    metrics, details = measure(workload, seed, seconds, checks)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {**environment(), "load_before": load_before, "load_after": os.getloadavg()},
        "checks": checks.tally,
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_check_ratio": checks.failed / checks.attempted,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        **details,
    }


def result(report: dict) -> dict:
    """The last-line JSON object."""
    return {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    env = report["environment"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"  python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, nproc {env['nproc']}, "
        f"thread vars {env['thread_vars'] or 'none'}, load {env['load_before'][0]:.2f} -> {env['load_after'][0]:.2f}"
    )
    print(f"  csv sha256 {report['csv_sha256']}")
    if report.get("absent"):
        print(f"  absent (not traced): {', '.join(report['absent'])}")
    if args.trace:
        print(f"  spans from a workers={report['spans_from_workers']} pass")
    print(
        f"  checks: {report['attempted']} attempted, {report['failed']} failed, "
        f"failed_check_ratio {report['failed_check_ratio']:.6g} (ratio)"
    )
    for name, metric in report["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"  report: {path.relative_to(ROOT)}")
    print(json.dumps(result(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
