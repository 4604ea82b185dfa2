"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import itertools
import json

import pytest

import run
import tracing
from workloads import WORKLOADS, output_checks

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# two OSNR points 16 dB apart, so every SER curve is non-increasing at any size
TINY = {
    "ser-16psk": dict(symbols_per_block=300, osnr_start_db=10.0, osnr_stop_db=26.0, osnr_step_db=16.0),
    "ser-est-pool": dict(
        symbols_per_block=300,
        blocks=2,
        training_repeats=200,
        osnr_start_db=10.0,
        osnr_stop_db=26.0,
        osnr_step_db=16.0,
    ),
    "rate-genie": dict(n_samples=4_000, n_channels=2, osnr_start_db=10.0, osnr_stop_db=20.0, osnr_step_db=10.0),
}


def tiny_workloads():
    return {name: {**config, **TINY[name]} for name, config in WORKLOADS.items()}


def tiny_sweep(name, seed=5):
    run.import_program()
    cfg = run.make_config(tiny_workloads()[name], seed)
    rows, _ = run.sweep(cfg)
    return rows, cfg


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    report = run.run(name, seed=3, seconds=0, trace=trace, workloads=tiny_workloads())
    result = run.result(report)
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert report["failed_check_ratio"] == 0.0
    json.dumps(report)  # the report file must serialize


def _set(rows, row, column, value):
    out = list(rows)
    fields = out[row].split(",")
    fields[column] = value
    out[row] = ",".join(fields)
    return out


SER_CORRUPTIONS = {
    "ser_header": lambda rows: [rows[0].replace("trials", "n")] + rows[1:],
    "ser_rows": lambda rows: rows[:-1],
    "ser_trials": lambda rows: _set(rows, 2, 3, "7"),
    "ser_range": lambda rows: _set(rows, len(rows) - 1, 2, "-0.25"),
    # dimension 1 rising from 0.5 at the first OSNR point to 1.0 at the last
    "ser_monotone": lambda rows: _set(_set(rows, 1, 2, "0.5"), len(rows) - 4, 2, "1.0"),
}
RATE_CORRUPTIONS = {
    "rate_header": lambda rows: ["osnr_db,bits,n_samples,n_bins"] + rows[1:],
    "rate_rows": lambda rows: rows + [rows[-1]],
    "rate_range": lambda rows: _set(rows, 1, 1, "2.5"),  # above log2(4) bits
}


@pytest.mark.parametrize(
    "name, check",
    [("ser-16psk", c) for c in SER_CORRUPTIONS] + [("rate-genie", c) for c in RATE_CORRUPTIONS],
)
def test_each_output_check_fails_on_its_corrupted_csv(name, check):
    rows, cfg = tiny_sweep(name)
    assert all(output_checks(rows, cfg).values())
    corrupt = (SER_CORRUPTIONS if name.startswith("ser") else RATE_CORRUPTIONS)[check]
    results = output_checks(corrupt(rows), cfg)
    assert results[check] is False


def _traced():
    from stokesdd import experiments

    return hasattr(experiments.run_ser_experiment, "__wrapped__")


@pytest.mark.parametrize(
    "name, trace, check, corrupt_if",
    [
        ("ser-16psk", False, "repeat_identical", lambda cfg, call: call == 1),
        ("ser-est-pool", False, "workers_identical", lambda cfg, call: cfg.workers == 1),
        ("ser-est-pool", True, "workers_identical", lambda cfg, call: cfg.workers == 2),
        ("ser-16psk", True, "traced_identical", lambda cfg, call: _traced()),
    ],
)
def test_cross_run_checks_fail_on_a_corrupted_csv(monkeypatch, name, trace, check, corrupt_if):
    clean = run.sweep
    calls = itertools.count()

    def sweep(cfg):
        rows, elapsed = clean(cfg)
        return (rows[:-1] if corrupt_if(cfg, next(calls)) else rows), elapsed

    monkeypatch.setattr(run, "sweep", sweep)
    report = run.run(name, seed=3, seconds=0, trace=trace, workloads=tiny_workloads())
    assert not report["correct"]
    assert report["checks"][check][1] >= 1


def test_tracer_accounts_for_the_sweep_and_restores_the_program():
    rows, cfg = tiny_sweep("ser-est-pool")
    cfg = cfg.replaced(workers=1)
    from stokesdd import detection, experiments

    originals = (experiments.run_ser_experiment, experiments.apply_jones, detection.apply_jones)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_rows, _ = run.sweep(cfg)
    finally:
        tracer.uninstall()
    assert (experiments.run_ser_experiment, experiments.apply_jones, detection.apply_jones) == originals
    assert traced_rows == rows
    (root,) = [span for span in tracer.spans if span[2] == -1]
    own = sum(s for _, s in tracer.layer_times().values())
    assert own == pytest.approx(root[4] - root[3], rel=1e-9)
    points, slots = len(cfg.osnr_grid()), cfg.symbols_per_block * cfg.blocks
    assert tracer.counts["detection.hypothesis_evals"] == points * slots * 2 * 2 * 4
    assert tracer.counts["detection.training_slots"] == points * cfg.blocks * 3 * cfg.training_repeats
    assert tracer.counts["detection.dim4_decisions"] == points * (slots - cfg.blocks)


def test_a_wrapped_name_the_program_lacks_is_reported_absent(monkeypatch):
    missing = (
        ("detection", "no_such_function", "detection.dims123", None),
        ("no_such_module", "run", "experiments", None),
    )
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + missing)
    report = run.run("ser-16psk", seed=3, seconds=0, trace=True, workloads=tiny_workloads())
    assert report["absent"] == ["detection.no_such_function", "no_such_module.run"]
    assert report["correct"]
