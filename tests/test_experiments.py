import argparse
import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from stokesdd.cli import _add_experiment_args, _build_config, main
from stokesdd import experiments
from stokesdd.config import (
    MAX_HISTOGRAM_CELLS,
    MAX_HYPOTHESES,
    MAX_OSNR_POINTS,
    SEED_ENV_VAR,
    ExperimentConfig,
)
from stokesdd.detection import SCORE_SLICE_ROWS
from stokesdd.experiments import (
    _whitened_normals,
    covariance_calibration,
    emit_plot_script,
    run_rate_experiment,
    run_ser_experiment,
    write_csv,
)
from stokesdd.metrics import estimate_mi_dim4

FAST_SER = dict(
    osnr_start_db=20.0,
    osnr_stop_db=24.0,
    osnr_step_db=2.0,
    symbols_per_block=500,
    blocks=2,
)


def test_config_round_trip_is_identity():
    cfg = ExperimentConfig(seed=42, osnr_stop_db=18.0, detection_mode="genie")
    text = cfg.to_json()
    again = ExperimentConfig.from_json(text)
    assert again == cfg
    assert again.to_json() == text


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_json(json.dumps({"n_rings": 2, "bogus": 1}))


@pytest.mark.parametrize(
    "field,value",
    [
        ("experiment", "nope"),
        ("n_rings", 0),
        ("n_phases", 0),
        ("osnr_step_db", -1.0),
        ("symbols_per_block", 1),
        ("blocks", 0),
        ("receiver_variant", "half"),
        ("channel_mode", "oracle"),
        ("training_repeats", 0),
        ("detection_mode", "magic"),
        ("n_samples", 0),
        ("n_bins", 1),
        ("n_channels", 0),
        ("rate_context", "oracle"),
        ("workers", 0),
        ("seed", -1),
        ("n_rings", 2.0),
        ("blocks", True),
        ("osnr_start_db", "10"),
        ("osnr_start_db", -4000.0),  # 10^400 overflows: no finite noise variance
        ("osnr_start_db", -3000.0),  # finite variance, overflowing surrogate covariance
        ("osnr_stop_db", math.nan),
    ],
)
def test_config_validation_names_the_field(field, value):
    cfg = ExperimentConfig(**{field: value})
    with pytest.raises(ValueError, match=re.escape(field)):
        cfg.validate()


def test_config_accepts_osnr_whose_surrogate_covariance_is_finite():
    # 8*sigma2^2 overflows below about -1542.8 dB; -1500 dB still detects
    ExperimentConfig(osnr_start_db=-1500.0, osnr_stop_db=-1500.0).validate()


def test_rate_config_needs_a_sample_per_channel():
    cfg = ExperimentConfig(experiment="rate", n_samples=5, n_channels=20)
    with pytest.raises(ValueError, match="n_samples.*n_channels"):
        cfg.validate()
    cfg.replaced(experiment="ser").validate()  # the SER sweep ignores both


def test_config_accepts_ints_in_float_fields():
    ExperimentConfig(osnr_start_db=10, osnr_stop_db=20, osnr_step_db=5).validate()


def test_empty_grid_rejected():
    cfg = ExperimentConfig(osnr_start_db=20.0, osnr_stop_db=10.0)
    with pytest.raises(ValueError, match="grid"):
        cfg.validate()


@pytest.mark.parametrize(
    "start, stop, step",
    [(10.0, 26.0, 1e-9), (10.0, 26.0, 5e-324), (-1e308, 1e308, 1.0), (0.0, 10_000.0, 1.0)],
    ids=["tiny-step", "subnormal-step", "huge-span", "one-past-the-cap"],
)
def test_oversized_osnr_grid_rejected_before_it_is_built(start, stop, step, monkeypatch):
    def never(self):
        raise AssertionError("osnr_grid() called on an oversized grid")

    monkeypatch.setattr(ExperimentConfig, "osnr_grid", never)
    cfg = ExperimentConfig(osnr_start_db=start, osnr_stop_db=stop, osnr_step_db=step)
    with pytest.raises(ValueError, match="osnr_start_db/osnr_stop_db/osnr_step_db") as err:
        cfg.validate()
    assert str(MAX_OSNR_POINTS) in str(err.value)


@pytest.mark.parametrize("step", [1e-9, 0.0, -1.0, math.nan])
def test_unvalidated_osnr_grid_rejects_unbounded_steps(step):
    cfg = ExperimentConfig(osnr_step_db=step)
    with pytest.raises(ValueError, match="osnr_"):
        cfg.osnr_grid()


def test_osnr_grid_at_the_cap_accepted():
    cfg = ExperimentConfig(osnr_start_db=0.0, osnr_stop_db=MAX_OSNR_POINTS - 1.0, osnr_step_db=1.0)
    cfg.validate()
    assert len(cfg.osnr_grid()) == MAX_OSNR_POINTS


def test_rate_histogram_cells_are_capped():
    # the rate histogram holds n_phases * n_bins^2 cells of ~25 bytes each;
    # the cap holds for either experiment, as the rate sweep takes any
    # validated config, and is checked without allocating the histogram
    ExperimentConfig(n_phases=4, n_bins=2048).validate()
    ExperimentConfig(n_phases=8, n_bins=1448).validate()
    for experiment in ("ser", "rate"):
        for n_phases, n_bins in ((4, 2049), (8, 1449), (4, 100_000)):
            cfg = ExperimentConfig(experiment=experiment, n_phases=n_phases, n_bins=n_bins)
            with pytest.raises(ValueError, match="n_bins") as err:
                cfg.validate()
            assert str(MAX_HISTOGRAM_CELLS) in str(err.value)


def test_score_table_cells_are_capped():
    # the receiver scores SCORE_SLICE_ROWS slots at a time, so bounding the
    # H = n_rings^2 * n_phases hypotheses bounds its largest per-slice block
    # (the whitened form's 4H columns) at 2^25 cells, whatever the frame length
    assert SCORE_SLICE_ROWS * 4 * MAX_HYPOTHESES == 2**25
    frame = dict(experiment="rate", n_rings=4, n_phases=16, n_channels=1)
    ExperimentConfig(n_rings=4, n_phases=16, symbols_per_block=2**20).validate()
    ExperimentConfig(rate_context="decision-directed", n_samples=2**20, **frame).validate()
    ExperimentConfig(n_rings=32, n_phases=8, symbols_per_block=100).validate()  # H = 2^13
    too_large = [
        ExperimentConfig(n_rings=32, n_phases=16, symbols_per_block=100),
        ExperimentConfig(experiment="rate", n_rings=32, n_phases=9, symbols_per_block=2),
        ExperimentConfig(n_rings=64, n_phases=64),
    ]
    for cfg in too_large:
        with pytest.raises(ValueError, match="n_rings/n_phases") as err:
            cfg.validate()
        assert str(MAX_HYPOTHESES) in str(err.value)


def test_osnr_grid_no_float_drift():
    cfg = ExperimentConfig(osnr_start_db=10.0, osnr_stop_db=26.0, osnr_step_db=2.0)
    assert cfg.osnr_grid() == [10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0]


def test_ser_rows_deterministic_for_fixed_seed():
    cfg = ExperimentConfig(seed=7, **FAST_SER)
    assert run_ser_experiment(cfg) == run_ser_experiment(cfg)


def test_ser_rows_independent_of_worker_count():
    base = ExperimentConfig(seed=7, **FAST_SER)
    parallel = base.replaced(workers=2)
    assert run_ser_experiment(base) == run_ser_experiment(parallel)


@pytest.mark.parametrize(
    "cpus, workers, blocks, processes",
    [
        (3, 100_000, 100_000, 3),
        (8, 4, 2, 2),
        (8, 3, 10, 3),
        (None, 4, 10, None),
        (1, 4, 10, None),
        (8, 1, 10, None),
        (8, 4, 1, None),
    ],
)
def test_worker_pool_is_bounded_by_blocks_and_cpus(cpus, workers, blocks, processes, monkeypatch):
    # a fake pool records its size and maps in this process, so no process
    # starts; below two processes the map runs serially and makes no pool
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(item) for item in items]

    monkeypatch.setattr(experiments, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    got = experiments._map_blocks(lambda b: 2 * b, range(blocks), workers)
    assert got == [2 * b for b in range(blocks)]
    assert sizes == ([] if processes is None else [processes])


def test_ser_trials_column_counts_every_slot_but_the_pilots_inter_slot_entry():
    # each block's slot 0 is the pilot: it carries no inter-slot decision, so
    # dimension 4 has n - 1 trials per block against n for dimensions 1-3
    cfg = ExperimentConfig(seed=7, **FAST_SER)
    rows = [row.split(",") for row in run_ser_experiment(cfg)[1:]]
    assert [(float(r[0]), int(r[1]), int(r[3])) for r in rows] == [
        (osnr_db, dim, trials)
        for osnr_db in (20.0, 22.0, 24.0)
        for dim, trials in zip((1, 2, 3, 4), (1000, 1000, 1000, 998))
    ]


def test_ser_very_high_osnr_is_error_free():
    cfg = ExperimentConfig(
        seed=3,
        osnr_start_db=60.0,
        osnr_stop_db=60.0,
        osnr_step_db=1.0,
        symbols_per_block=5000,
        blocks=2,
    )
    for row in run_ser_experiment(cfg)[1:]:
        assert float(row.split(",")[2]) == 0.0


def test_ser_reduced_variant_matches_full_variant_errors():
    # the restored samples are algebraically identical, so decisions agree
    full = ExperimentConfig(seed=5, **FAST_SER)
    reduced = full.replaced(receiver_variant="reduced")
    assert run_ser_experiment(full)[1:] == run_ser_experiment(reduced)[1:]


def test_ser_estimated_channel_mode_runs_clean_at_high_osnr():
    cfg = ExperimentConfig(
        seed=11,
        osnr_start_db=30.0,
        osnr_stop_db=30.0,
        osnr_step_db=1.0,
        symbols_per_block=2000,
        blocks=1,
        channel_mode="estimated",
        training_repeats=2000,
    )
    rows = run_ser_experiment(cfg)[1:]
    for row in rows:
        assert float(row.split(",")[2]) < 5e-3


def test_ser_genie_dim4_curve_monotone():
    cfg = ExperimentConfig(
        seed=8,
        osnr_start_db=10.0,
        osnr_stop_db=18.0,
        osnr_step_db=4.0,
        symbols_per_block=5000,
        blocks=4,
        detection_mode="genie",
    )
    dim4 = [
        float(row.split(",")[2])
        for row in run_ser_experiment(cfg)[1:]
        if row.split(",")[1] == "4"
    ]
    assert all(a >= b for a, b in zip(dim4, dim4[1:]))
    assert dim4[0] > 0  # the low end actually exercises errors


def test_ser_all_dimensions_clean_at_30_db():
    cfg = ExperimentConfig(
        seed=13,
        osnr_start_db=30.0,
        osnr_stop_db=30.0,
        osnr_step_db=1.0,
        symbols_per_block=10_000,
        blocks=10,
    )
    for row in run_ser_experiment(cfg)[1:]:
        assert float(row.split(",")[2]) < 1e-3


def test_rate_singleton_alphabet_has_zero_rate():
    cfg = ExperimentConfig(
        experiment="rate",
        n_rings=1,
        n_phases=1,
        seed=1,
        osnr_start_db=10.0,
        osnr_stop_db=20.0,
        osnr_step_db=5.0,
        n_samples=5_000,
        n_bins=16,
        n_channels=2,
    )
    for row in run_rate_experiment(cfg)[1:]:
        assert float(row.split(",")[1]) == pytest.approx(0.0, abs=1e-12)


def test_rate_decision_directed_context_rows():
    cfg = ExperimentConfig(
        experiment="rate",
        seed=2,
        osnr_start_db=18.0,
        osnr_stop_db=18.0,
        osnr_step_db=2.0,
        n_samples=10_000,
        n_bins=32,
        n_channels=2,
        rate_context="decision-directed",
    )
    rows = run_rate_experiment(cfg)[1:]
    assert len(rows) == 1
    assert 0.0 <= float(rows[0].split(",")[1]) <= 2.0 + 1e-12


def test_rate_mi_bits_is_the_channel_mean_of_the_kernel():
    cfg = ExperimentConfig(
        experiment="rate",
        seed=3,
        osnr_start_db=10.0,
        osnr_stop_db=22.0,
        osnr_step_db=4.0,
        n_samples=3_600,
        n_bins=16,
        n_channels=12,
    )
    # at 12 channels bits.mean(axis=0) differs from the column means in the
    # last bit at two of the four points
    bits = np.stack([estimate_mi_dim4(cfg, k) for k in range(cfg.n_channels)])
    assert bits.shape == (12, 4)
    written = [float(row.split(",")[1]) for row in run_rate_experiment(cfg)[1:]]
    assert written == [float(np.mean(column)) for column in bits.T]


def test_rate_rows_deterministic_and_schema():
    cfg = ExperimentConfig(
        experiment="rate",
        seed=2,
        osnr_start_db=18.0,
        osnr_stop_db=22.0,
        osnr_step_db=2.0,
        n_samples=20_000,
        n_bins=32,
        n_channels=4,
    )
    rows = run_rate_experiment(cfg)
    assert rows[0] == "osnr_db,mi_bits,n_samples,n_bins"
    assert len(rows) == 4
    assert rows == run_rate_experiment(cfg)
    for row in rows[1:]:
        osnr, bits, n, nb = row.split(",")
        assert 0.0 <= float(bits) <= 2.0
        assert int(nb) == 32


def test_emit_plot_script(tmp_path):
    cfg = ExperimentConfig(seed=1, **FAST_SER)
    csv_path = tmp_path / "ser.csv"
    write_csv(run_ser_experiment(cfg), csv_path)
    script = emit_plot_script(csv_path, "ser")
    assert os.path.exists(script)
    text = open(script).read()
    assert "semilogy" in text and str(csv_path) in text
    compile(text, script, "exec")  # generated script is valid python


def test_emit_plot_script_rejects_missing_or_mismatched_csv(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_plot_script(tmp_path / "nope.csv", "ser")
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="schema"):
        emit_plot_script(bad, "rate")
    with pytest.raises(ValueError):
        emit_plot_script(bad, "other")


def test_covariance_calibration_tight():
    cal = covariance_calibration(n_configs=5, n_draws=200_000, seed=1)
    assert cal.worst < 0.03


@pytest.mark.parametrize("n", [8, 9, 1001])
def test_whitened_normals_pin_the_sample_moments(n):
    unit = _whitened_normals(np.random.default_rng(n), (n, 4))
    assert unit.shape == (n, 4)
    np.testing.assert_allclose(unit.mean(axis=0), 0.0, atol=1e-15)
    np.testing.assert_allclose(unit.T @ unit / n, np.eye(4), atol=1e-13)


@pytest.mark.parametrize("n_configs, n_draws", [(0, 1000), (1, 7)])
def test_covariance_calibration_rejects_too_few_configs_or_draws(n_configs, n_draws):
    with pytest.raises(ValueError, match="n_configs" if n_configs < 1 else "n_draws"):
        covariance_calibration(n_configs, n_draws)


_SMALL_CAL = ["--configs", "1", "--draws", "8"]


@pytest.mark.parametrize(
    "argv, env_seed, named",
    [
        (["calibrate-cov", "--seed", "-1"], None, "--seed"),
        (["estimate-channel-demo", "--seed", "-2"], None, "--seed"),
        (["calibrate-cov", "--draws", "1"], None, "--draws"),
        (["calibrate-cov", "--draws", "7"], None, "--draws"),
        (["calibrate-cov", "--configs", "0"], None, "--configs"),
        (["estimate-channel-demo", "--repeats", "0"], None, "--repeats"),
        (["calibrate-cov", *_SMALL_CAL], "-1", SEED_ENV_VAR),
        (["estimate-channel-demo", "--repeats", "10"], "seven", SEED_ENV_VAR),
        (["ser", "--blocks", "1", "--symbols-per-block", "10"], "2.5", SEED_ENV_VAR),
        (["ser", "--osnr-step-db", "1e-9"], None, "osnr_step_db"),
        (["ser", "--osnr-start-db", "-4000", "--osnr-stop-db", "-4000"], None, "osnr_start_db"),
        (["rate", "--osnr-start-db", "-4000", "--osnr-stop-db", "-4000"], None, "osnr_start_db"),
        (
            ["ser", "--osnr-start-db", "-3000", "--osnr-stop-db", "-3000",
             "--blocks", "1", "--symbols-per-block", "100"],
            None,
            "osnr_start_db",
        ),
        (["estimate-channel-demo", "--osnr-db", "-4000"], None, "OSNR -4000.0 dB"),
        (["estimate-channel-demo", "--osnr-db=-inf"], None, "OSNR -inf dB"),
        (["ser", "--config", "nope.json"], None, "--config"),
        (["ser", "--config", "."], None, "--config"),
        (["ser", "--config", "five.json"], None, "--config"),
        (["rate", "--config", "syntax.json"], None, "--config"),
        (["rate", "--n-bins", "100000"], None, "n_bins"),
        (["ser", "--n-rings", "64", "--n-phases", "64"], None, "n_rings/n_phases"),
    ],
    ids=[
        "cal-seed", "demo-seed", "cal-draws-1", "cal-draws-7", "cal-configs-0",
        "demo-repeats-0", "cal-env-negative", "demo-env-word", "ser-env-float",
        "ser-tiny-osnr-step", "ser-osnr-overflow", "rate-osnr-overflow", "ser-covariance-overflow",
        "demo-osnr-overflow", "demo-osnr-minus-inf",
        "config-missing", "config-directory", "config-not-an-object", "config-syntax",
        "rate-histogram-too-large", "ser-score-table-too-large",
    ],
)
def test_cli_rejects_bad_inputs_by_name(argv, env_seed, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "five.json").write_text("5\n")
    (tmp_path / "syntax.json").write_text('{"n_rings": 2,\n')
    if env_seed is None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV_VAR, env_seed)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert named in capsys.readouterr().err


def test_cli_ser_smoke(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(
        [
            "ser",
            "--osnr-start-db", "22", "--osnr-stop-db", "24", "--osnr-step-db", "2",
            "--symbols-per-block", "300", "--blocks", "2", "--seed", "9",
            "--out", "out.csv", "--plot-script",
        ]
    )
    assert rc == 0
    lines = open("out.csv").read().splitlines()
    assert lines[0] == "osnr_db,dim,ser,trials,mode"
    assert len(lines) == 9
    assert os.path.exists("out.csv_plot.py")


def test_cli_rate_smoke(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(
        [
            "rate",
            "--osnr-start-db", "20", "--osnr-stop-db", "20", "--osnr-step-db", "2",
            "--n-samples", "5000", "--n-bins", "16", "--n-channels", "2", "--seed", "1",
        ]
    )
    assert rc == 0
    assert open("rate.csv").read().splitlines()[0] == "osnr_db,mi_bits,n_samples,n_bins"


def test_cli_config_file_and_flag_overrides(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(seed=4, **FAST_SER)
    (tmp_path / "cfg.json").write_text(cfg.to_json())
    rc = main(["ser", "--config", "cfg.json", "--blocks", "1", "--out", "a.csv"])
    assert rc == 0
    direct = run_ser_experiment(cfg.replaced(blocks=1))
    assert open("a.csv").read().splitlines() == direct


def test_cli_env_var_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(SEED_ENV_VAR, "123")
    args = [
        "ser",
        "--osnr-start-db", "24", "--osnr-stop-db", "24", "--osnr-step-db", "2",
        "--symbols-per-block", "300", "--blocks", "1",
    ]
    main(args + ["--out", "env.csv"])
    main(args + ["--seed", "123", "--out", "explicit.csv"])
    main(args + ["--seed", "124", "--out", "other.csv"])
    assert open("env.csv").read() == open("explicit.csv").read()
    assert open("env.csv").read() != open("other.csv").read()


def test_csv_bytes_identical_across_runs(tmp_path):
    cfg = ExperimentConfig(seed=6, **FAST_SER)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_ser_experiment(cfg), p1)
    write_csv(run_ser_experiment(cfg.replaced(workers=2)), p2)
    assert p1.read_bytes() == p2.read_bytes()


# values differ from the defaults; numeric fields are derived from them
_FLAG_STRINGS = {
    "receiver_variant": "reduced",
    "channel_mode": "estimated",
    "detection_mode": "genie",
    "rate_context": "decision-directed",
}


@pytest.mark.parametrize(
    "field",
    [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"],
)
def test_every_config_field_parses_from_its_flag(field, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    default = getattr(ExperimentConfig(), field)
    if isinstance(default, str):
        value = _FLAG_STRINGS[field]
    else:
        value = default + (0.5 if isinstance(default, float) else 1)
    parser = argparse.ArgumentParser()
    _add_experiment_args(parser)
    args = parser.parse_args([f"--{field.replace('_', '-')}", str(value)])
    cfg = _build_config(args, "ser")
    assert cfg == ExperimentConfig().replaced(**{field: value})
    assert type(getattr(cfg, field)) is type(value)
