import argparse
import csv
import dataclasses
import json
import math
import os
import pickle
import re
import runpy
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stokesdd
from stokesdd.cli import _add_experiment_args, _build_config, main
from stokesdd import experiments
from stokesdd.channel import JonesChannel, osnr_to_sigma2
from stokesdd.config import (
    MAX_FRAME_SLOTS,
    MAX_HISTOGRAM_CELLS,
    MAX_HYPOTHESES,
    MAX_OSNR_POINTS,
    MIN_OSNR_DB,
    SEED_ENV_VAR,
    ExperimentConfig,
)
from stokesdd.constellation import build_constellation
from stokesdd.detection import SCORE_SLICE_ROWS, _build_bank, detect_dims123_block, monomials, score_slice_rows
from stokesdd.experiments import (
    RATE_HEADER,
    SER_HEADER,
    emit_plot_script,
    run_rate_experiment,
    run_ser_experiment,
    write_csv,
)
from stokesdd.metrics import draw_frame, estimate_mi_dim4, frame_noise

from reference import received_samples

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


def test_config_fields_cannot_be_assigned():
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_rings = 0
    assert cfg.n_rings == 2
    cfg.validate()  # a built config passes again


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ExperimentConfig().replaced(detection_mode="magic"), "detection_mode"),
        (lambda: ExperimentConfig().replaced(n_bins=1), "n_bins"),
        (lambda: ExperimentConfig().replaced(osnr_step_db=0.0), "osnr_step_db"),
        (lambda: ExperimentConfig.from_json(json.dumps({"channel_mode": "oracle"})), "channel_mode"),
        (lambda: ExperimentConfig.from_json(json.dumps({"blocks": 0})), "blocks"),
        (lambda: ExperimentConfig.from_json("{}", workers=0), "workers"),
    ],
    ids=["replaced-choice", "replaced-minimum", "replaced-grid", "json-choice", "json-minimum", "json-override"],
)
def test_replaced_and_from_json_check_the_config(build, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        build()


def test_from_json_checks_the_fields_merged_with_the_overrides():
    text = json.dumps({"experiment": "rate", "n_samples": 5})
    with pytest.raises(ValueError, match="n_samples.*n_channels"):
        ExperimentConfig.from_json(text)  # 5 samples for the default 20 channels
    cfg = ExperimentConfig.from_json(text, n_channels=5)
    assert cfg == ExperimentConfig(experiment="rate", n_samples=5, n_channels=5)


def test_config_survives_a_pickle_round_trip():
    # the worker pool ships configs to its processes this way
    cfg = ExperimentConfig(seed=3, channel_mode="estimated", osnr_stop_db=12.5, workers=2)
    again = pickle.loads(pickle.dumps(cfg))
    assert again == cfg
    assert again.to_json() == cfg.to_json()


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
        ("osnr_start_db", -3000.0),  # finite noise variance, far below the OSNR floor
        ("osnr_start_db", -100.5),  # just below the OSNR floor
        ("osnr_stop_db", math.nan),
    ],
)
def test_config_validation_names_the_field(field, value):
    with pytest.raises(ValueError, match=re.escape(field)):
        ExperimentConfig(**{field: value})


def test_config_accepts_the_osnr_floor_and_nothing_below():
    ExperimentConfig(osnr_start_db=MIN_OSNR_DB, osnr_stop_db=MIN_OSNR_DB)
    below = math.nextafter(MIN_OSNR_DB, -math.inf)
    with pytest.raises(ValueError, match="osnr_start_db"):
        ExperimentConfig(osnr_start_db=below, osnr_stop_db=0.0)


def test_the_rejection_prints_the_osnr_floor_in_full():
    with pytest.raises(ValueError, match="osnr_start_db") as err:
        ExperimentConfig(osnr_start_db=-100.5, osnr_stop_db=0.0)
    floor = float(re.search(r"is below (\S+) dB", str(err.value)).group(1))
    assert floor == MIN_OSNR_DB


@pytest.mark.parametrize("repeats", [1, 10_000])
def test_demo_at_the_osnr_floor_overflows_nowhere(repeats, monkeypatch, capsys):
    # the demo accepts the sweeps' floor; numpy's floating-point warnings
    # raise here
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert main(["estimate-channel-demo", "--osnr-db", repr(MIN_OSNR_DB), "--repeats", str(repeats)]) == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert math.isfinite(float(report["residual"]))


@pytest.mark.parametrize("variant", ["full", "reduced"])
def test_scores_at_the_osnr_floor_are_finite(variant):
    # at the floor's sigma2 = 2.5e9 the scorer's products w_i w_j stay
    # hundreds of decades inside the float range, so a frame scores no NaN
    c = build_constellation(4, 16)
    sigma2 = osnr_to_sigma2(MIN_OSNR_DB)
    channel, _, kx, ky = draw_frame(c, 0, 0, 10_000)
    frames = received_samples(kx, ky, sigma2, frame_noise(0, 0, 10_000), variant)
    bank = _build_bank(JonesChannel(channel.a, channel.b, sigma2), c)
    for start in range(0, len(frames), SCORE_SLICE_ROWS):
        _, scores = detect_dims123_block(monomials(frames[start : start + SCORE_SLICE_ROWS, :4]), bank)
        assert np.isfinite(scores).all()


def test_rate_config_needs_a_sample_per_channel():
    with pytest.raises(ValueError, match="n_samples.*n_channels"):
        ExperimentConfig(experiment="rate", n_samples=5, n_channels=20)
    ExperimentConfig(experiment="ser", n_samples=5, n_channels=20)  # the SER sweep ignores both


def test_config_accepts_ints_in_float_fields():
    ExperimentConfig(osnr_start_db=10, osnr_stop_db=20, osnr_step_db=5)


def test_empty_grid_rejected():
    with pytest.raises(ValueError, match="grid"):
        ExperimentConfig(osnr_start_db=20.0, osnr_stop_db=10.0)


@pytest.mark.parametrize(
    "start, stop, step",
    [(10.0, 26.0, 1e-9), (10.0, 26.0, 5e-324), (-1e308, 1e308, 1.0), (0.0, 10_000.0, 1.0)],
    ids=["tiny-step", "subnormal-step", "huge-span", "one-past-the-cap"],
)
def test_oversized_osnr_grid_rejected_before_it_is_built(start, stop, step, monkeypatch):
    def never(self):
        raise AssertionError("osnr_grid() called on an oversized grid")

    monkeypatch.setattr(ExperimentConfig, "osnr_grid", never)
    with pytest.raises(ValueError, match="osnr_start_db/osnr_stop_db/osnr_step_db") as err:
        ExperimentConfig(osnr_start_db=start, osnr_stop_db=stop, osnr_step_db=step)
    assert str(MAX_OSNR_POINTS) in str(err.value)


@pytest.mark.parametrize("step", [1e-9, 0.0, -1.0, math.nan])
def test_unvalidated_osnr_grid_rejects_unbounded_steps(step):
    # no config skips validation, so none can build an unbounded grid
    with pytest.raises(ValueError, match="osnr_"):
        ExperimentConfig(osnr_step_db=step)


def test_osnr_grid_at_the_cap_accepted():
    cfg = ExperimentConfig(osnr_start_db=0.0, osnr_stop_db=MAX_OSNR_POINTS - 1.0, osnr_step_db=1.0)
    assert len(cfg.osnr_grid()) == MAX_OSNR_POINTS


def test_rate_histogram_cells_are_capped():
    # the rate histogram holds n_phases * n_bins^2 cells of ~25 bytes each;
    # the cap holds for either experiment, as the rate sweep takes any
    # config, and is checked without allocating the histogram
    ExperimentConfig(n_phases=4, n_bins=2048)
    ExperimentConfig(n_phases=8, n_bins=1448)
    for experiment in ("ser", "rate"):
        for n_phases, n_bins in ((4, 2049), (8, 1449), (4, 100_000)):
            with pytest.raises(ValueError, match="n_bins") as err:
                ExperimentConfig(experiment=experiment, n_phases=n_phases, n_bins=n_bins)
            assert str(MAX_HISTOGRAM_CELLS) in str(err.value)


def test_score_table_cells_are_capped():
    # the receiver scores score_slice_rows(H) slots at a time, so its largest
    # per-slice array, the (rows, H) score block, holds at most 2^16 cells
    # (512 KiB) for every H = n_rings^2 * n_phases the config admits,
    # whatever the frame length
    for n_hypotheses in range(1, MAX_HYPOTHESES + 1):
        rows = score_slice_rows(n_hypotheses)
        assert 1 <= rows <= SCORE_SLICE_ROWS and rows * n_hypotheses <= 2**16, n_hypotheses
    frame = dict(experiment="rate", n_rings=4, n_phases=16, n_channels=1)
    ExperimentConfig(n_rings=4, n_phases=16, symbols_per_block=2**20)
    ExperimentConfig(rate_context="decision-directed", n_samples=2**20, **frame)
    ExperimentConfig(n_rings=32, n_phases=8, symbols_per_block=100)  # H = 2^13
    too_large = [
        dict(n_rings=32, n_phases=16, symbols_per_block=100),
        dict(experiment="rate", n_rings=32, n_phases=9, symbols_per_block=2),
        dict(n_rings=64, n_phases=64),
    ]
    for fields in too_large:
        with pytest.raises(ValueError, match="n_rings/n_phases") as err:
            ExperimentConfig(**fields)
        assert str(MAX_HYPOTHESES) in str(err.value)


def test_frame_length_is_capped():
    # a frame past the cap is refused by name before anything is allocated:
    # an SER block, or a rate channel's ceil(n_samples / n_channels) + 1 slots
    rate = dict(experiment="rate", n_channels=3)
    ExperimentConfig(symbols_per_block=MAX_FRAME_SLOTS)
    ExperimentConfig(n_samples=3 * (MAX_FRAME_SLOTS - 1), **rate)
    ExperimentConfig(n_samples=10**13)  # an SER sweep draws no rate frame
    too_long = [
        (dict(symbols_per_block=MAX_FRAME_SLOTS + 1), "symbols_per_block"),
        (dict(symbols_per_block=10**13, blocks=1), "symbols_per_block"),
        (dict(n_samples=3 * (MAX_FRAME_SLOTS - 1) + 1, **rate), "n_samples/n_channels"),
        (dict(experiment="rate", n_samples=10**13, n_channels=1), "n_samples/n_channels"),
    ]
    for fields, named in too_long:
        with pytest.raises(ValueError, match=named) as err:
            ExperimentConfig(**fields)
        assert str(MAX_FRAME_SLOTS) in str(err.value)


def test_osnr_grid_no_float_drift():
    cfg = ExperimentConfig(osnr_start_db=10.0, osnr_stop_db=26.0, osnr_step_db=2.0)
    assert cfg.osnr_grid() == [10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0]


def test_ser_rows_deterministic_for_fixed_seed():
    cfg = ExperimentConfig(seed=7, **FAST_SER)
    assert run_ser_experiment(cfg) == run_ser_experiment(cfg)


@pytest.mark.parametrize(
    "channel_mode, receiver_variant, detection_mode",
    [("true", "full", "decision-directed"), ("estimated", "reduced", "genie")],
)
def test_ser_rows_independent_of_worker_count(channel_mode, receiver_variant, detection_mode):
    # the estimated channel's training stream is keyed per point, so a pool
    # worker draws what the parent would
    base = ExperimentConfig(
        seed=7,
        channel_mode=channel_mode,
        receiver_variant=receiver_variant,
        detection_mode=detection_mode,
        **FAST_SER,
    )
    parallel = base.replaced(workers=2)
    assert run_ser_experiment(base) == run_ser_experiment(parallel)


def test_decision_directed_rate_rows_independent_of_worker_count():
    # criterion 10 covers the genie rate; this one runs the receiver on the
    # noisy samples of each channel draw at every OSNR point
    base = ExperimentConfig(
        experiment="rate",
        rate_context="decision-directed",
        seed=7,
        osnr_start_db=8.0,
        osnr_stop_db=14.0,
        osnr_step_db=2.0,
        n_samples=4_000,
        n_channels=4,
    )
    rows = run_rate_experiment(base)
    assert len(rows) == 5
    assert rows == run_rate_experiment(base.replaced(workers=2))


class _InProcessShare:
    # stands in for a started worker and its pipe: the share is mapped in
    # this process when the worker "starts", and recv hands back its results

    def __init__(self, func, share):
        self.results = [func(b) for b in share]

    def recv(self):
        return self.results

    def join(self):
        pass

    terminate = close = join


def _fake_worker_shares(monkeypatch):
    # the fake start records each worker's share and maps it in this process,
    # so no process starts; below two processes the map runs serially and
    # starts no worker
    shares = []

    def start(func, share):
        shares.append(share)
        worker = _InProcessShare(func, share)
        return worker, worker

    monkeypatch.setattr(experiments, "_start_share", start)
    return shares


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
    # where the platform reports no CPU affinity, os.cpu_count bounds the
    # worker count
    shares = _fake_worker_shares(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    got = experiments._map_blocks(lambda b: 2 * b, range(blocks), workers)
    assert got == [2 * b for b in range(blocks)]
    assert shares == ([] if processes is None else [range(blocks)[k::processes] for k in range(processes)])


@pytest.mark.parametrize("allowed, workers, processes", [(1, 2, None), (3, 4, 3), (8, 4, 4)])
def test_worker_pool_is_bounded_by_the_cpus_the_process_may_run_on(allowed, workers, processes, monkeypatch):
    # under a CPU affinity mask (taskset, a cpuset) the worker count counts
    # the allowed CPUs, not the machine's
    shares = _fake_worker_shares(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(allowed)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    got = experiments._map_blocks(lambda b: 2 * b, range(10), workers)
    assert got == [2 * b for b in range(10)]
    assert shares == ([] if processes is None else [range(10)[k::processes] for k in range(processes)])


def _run_fresh(code: str) -> str:
    # pytest and hypothesis have loaded numpy.random in this process, so what
    # an import leaves out of sys.modules shows only in a fresh interpreter
    src = os.path.dirname(os.path.dirname(os.path.abspath(stokesdd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # every interpreter start pays for what the import path loads
    out = _run_fresh(
        """
        import sys
        import stokesdd.cli
        print("numpy.random" in sys.modules)
        """
    )
    assert out.split() == ["False"]


def test_the_package_loads_its_modules_and_names_nothing_else():
    # ``import stokesdd`` loads the library modules; every function, class
    # and constant is read from its module, not from the package
    out = _run_fresh(
        """
        import sys
        import stokesdd
        print(sorted(m for m in sys.modules if m.startswith("stokesdd.")))
        print(sorted(name for name in vars(stokesdd) if not name.startswith("_")))
        """
    )
    modules = ["channel", "config", "constellation", "detection", "frontend", "metrics"]
    assert out.splitlines() == [str([f"stokesdd.{m}" for m in modules]), str(modules)]


def test_pool_workers_import_nothing():
    # the worker start is replaced by one that records the parent's modules
    # as each worker starts and maps its share in-process, so the blocks run
    # where a fork would start: a module the map imports is one every worker
    # would import on every sweep
    out = _run_fresh(
        """
        import os
        import sys
        from stokesdd import experiments
        from stokesdd.config import ExperimentConfig

        recorded = []

        class InProcessShare:
            def __init__(self, func, share):
                recorded.append(set(sys.modules))
                self.results = [func(b) for b in share]

            def recv(self):
                return self.results

            def join(self):
                pass

            terminate = close = join

        def start(func, share):
            worker = InProcessShare(func, share)
            return worker, worker

        experiments._start_share = start
        os.sched_getaffinity = lambda pid: {0, 1}
        sweeps = [
            (experiments.run_ser_experiment, ExperimentConfig(
                channel_mode="estimated", receiver_variant="reduced", symbols_per_block=200, blocks=2,
                training_repeats=100, osnr_start_db=10.0, osnr_stop_db=14.0, workers=2)),
        ] + [
            (experiments.run_rate_experiment, ExperimentConfig(
                experiment="rate", rate_context=context, n_samples=400, n_channels=2, workers=2))
            for context in ("genie", "decision-directed")
        ]
        for run, cfg in sweeps:
            run(cfg)
            # the modules when the sweep's first worker started
            print(len(recorded), sorted(set(sys.modules) - recorded[-2]))
        """
    )
    assert out.splitlines() == ["2 []", "4 []", "6 []"]


_FORKED_KERNELS = """
    import multiprocessing
    import os
    import resource
    import time

    from stokesdd import experiments

    # real forks on two CPUs, whatever the machine has
    os.sched_getaffinity = lambda pid: {0, 1}


    def tenfold(b):
        return 10 * b


    def raises_at_2(b):
        if b == 2:
            raise ValueError(f"no block {b}")
        if b == 3:
            time.sleep(60)  # still running when worker 0 fails: it must be stopped
        return b


    def exits_at_1(b):
        if b == 1:
            os._exit(3)
        return b
"""


@pytest.mark.parametrize("cpus, blocks", [(2, 5), (3, 7)])
def test_forked_workers_return_the_serial_list_in_key_order(cpus, blocks):
    # uneven strided shares ([0, 2, 4] and [1, 3]; [0, 3, 6], [1, 4] and
    # [2, 5]) are gathered back into key order
    out = _run_fresh(
        _FORKED_KERNELS
        + f"""
    os.sched_getaffinity = lambda pid: set(range({cpus}))
    print(experiments._map_blocks(tenfold, range({blocks}), {cpus}))
    """
    )
    assert out.splitlines() == [str([10 * b for b in range(blocks)])]


def test_a_pooled_sweep_reaps_its_workers():
    # perfbench's peak_rss_mb reads the reaped children's peak RSS, which
    # stays 0 until a worker has been waited for; read before
    # active_children, which itself reaps
    out = _run_fresh(
        _FORKED_KERNELS
        + """
    print(experiments._map_blocks(tenfold, range(4), 2))
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0, multiprocessing.active_children())
    """
    )
    assert out.splitlines() == ["[0, 10, 20, 30]", "True []"]


def test_a_workers_exception_is_re_raised_and_the_other_workers_stopped():
    # worker 0 raises on key 2 while worker 1 sleeps on key 3: the parent
    # re-raises the ValueError, stops worker 1 and reaps both
    out = _run_fresh(
        _FORKED_KERNELS
        + """
    start = time.perf_counter()
    try:
        experiments._map_blocks(raises_at_2, range(4), 2)
    except ValueError as exc:
        print(repr(exc))
        print("raises_at_2" in str(exc.__cause__))
    print(time.perf_counter() - start < 30, multiprocessing.active_children())
    """
    )
    assert out.splitlines() == ["ValueError('no block 2')", "True", "True []"]


def test_a_worker_that_dies_without_sending_raises():
    # a worker that exits without sending (an OOM kill, os._exit) raises
    # naming its exit code; the run's timeout turns a hang into a failure
    out = _run_fresh(
        _FORKED_KERNELS
        + """
    try:
        experiments._map_blocks(exits_at_1, range(4), 2)
    except ChildProcessError as exc:
        print(exc)
    print(multiprocessing.active_children())
    """
    )
    assert out.splitlines() == ["worker 1 died with exit code 3 before sending its results", "[]"]


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


@pytest.mark.parametrize(
    "fields",
    [
        dict(n_rings=1, n_phases=2, osnr_start_db=200.0, osnr_stop_db=200.0, symbols_per_block=100),
        dict(n_rings=4, n_phases=16, osnr_start_db=150.0, osnr_stop_db=160.0, osnr_step_db=5.0,
             symbols_per_block=500),
    ],
    ids=["1x2-200dB", "4x16-150-160dB"],
)
def test_ser_past_the_singular_covariances_is_error_free(fields):
    # from ~150 dB a hypothesis' covariance rounds to singular and its
    # Cholesky factorization fails; the bank scores the nearest mean there
    for row in run_ser_experiment(ExperimentConfig(blocks=1, **fields))[1:]:
        assert float(row.split(",")[2]) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    experiment=st.sampled_from(["ser", "rate"]),
    alphabet=st.tuples(st.integers(1, 3), st.integers(1, 8)),
    # from 20 dB below the floor, so draws below it are rejected
    start=st.floats(MIN_OSNR_DB - 20.0, 1000.0),
    points=st.integers(1, 3),
    step=st.floats(0.5, 600.0),
    slots=st.tuples(st.integers(2, 40), st.integers(1, 2)),
    modes=st.tuples(
        st.sampled_from(["true", "estimated"]),
        st.sampled_from(["genie", "decision-directed"]),
        st.sampled_from(["full", "reduced"]),
        st.sampled_from(["genie", "decision-directed"]),
    ),
    rate=st.tuples(st.integers(1, 60), st.integers(1, 3), st.integers(2, 16)),
    training_repeats=st.integers(1, 50),
    seed=st.integers(0, 2**32),
)
def test_every_accepted_config_gives_rates_in_range(
    experiment, alphabet, start, points, step, slots, modes, rate, training_repeats, seed
):
    # over the space validate() accepts, from the OSNR floor to 1000 dB, SERs
    # are finite and in [0, 1] and rates in [0, log2 n_phases]; a config
    # below the floor is rejected by name.  Every draw is small (H <= 72,
    # <= 80 slots, <= 16 bins), so none allocates more than a few MiB
    n_samples, n_channels, n_bins = rate
    fields = dict(
        experiment=experiment,
        n_rings=alphabet[0],
        n_phases=alphabet[1],
        osnr_start_db=start,
        osnr_stop_db=min(start + (points - 1) * step, 1000.0),
        osnr_step_db=step,
        symbols_per_block=slots[0],
        blocks=slots[1],
        seed=seed,
        channel_mode=modes[0],
        detection_mode=modes[1],
        receiver_variant=modes[2],
        rate_context=modes[3],
        training_repeats=training_repeats,
        n_samples=max(n_samples, n_channels),
        n_channels=n_channels,
        n_bins=n_bins,
    )
    if start < MIN_OSNR_DB:
        with pytest.raises(ValueError, match="osnr_start_db"):
            ExperimentConfig(**fields)
        return
    cfg = ExperimentConfig(**fields)
    if experiment == "ser":
        sers = [float(row.split(",")[2]) for row in run_ser_experiment(cfg)[1:]]
        assert all(0.0 <= s <= 1.0 for s in sers), sers
    else:
        bits = [float(row.split(",")[1]) for row in run_rate_experiment(cfg)[1:]]
        # the plug-in MI is at most the labels' empirical entropy; 1e-12
        # allows the rounding of its sum
        assert all(0.0 <= b <= math.log2(cfg.n_phases) + 1e-12 for b in bits), bits


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
    script = emit_plot_script(csv_path)
    assert os.path.exists(script)
    with open(script) as fh:
        text = fh.read()
    assert "semilogy" in text and str(csv_path) in text
    compile(text, script, "exec")  # generated script is valid python


def test_emit_plot_script_rejects_missing_or_mismatched_csv(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_plot_script(tmp_path / "nope.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="schema") as err:
        emit_plot_script(bad)
    assert SER_HEADER in str(err.value) and RATE_HEADER in str(err.value)
    assert not os.path.exists(str(bad) + "_plot.py")


def _plot_calls(script, monkeypatch):
    """Run a generated plot script against a stub ``matplotlib.pyplot`` and
    return its (object, method, args, kwargs) calls on the figure and axes."""
    calls = []

    class Recorder:
        def __init__(self, owner):
            self.owner = owner

        def __getattr__(self, method):
            return lambda *args, **kwargs: calls.append((self.owner, method, args, kwargs))

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda *args, **kwargs: (Recorder("fig"), Recorder("ax"))
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    runpy.run_path(script, run_name="__main__")
    return calls


def _points(rows, y, series):
    """The CSV's (x, y) points of each series, grouped by the series columns."""
    points = {}
    for row in rows:
        key = tuple(row[column] for column in series)
        points.setdefault(key, []).append((float(row["osnr_db"]), float(row[y])))
    return {key: sorted(pts) for key, pts in points.items()}


def test_generated_ser_script_plots_one_series_per_dim_and_mode(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    grid = ["--osnr-start-db", "20", "--osnr-stop-db", "24", "--osnr-step-db", "2"]
    assert main(["ser", *grid, "--symbols-per-block", "100", "--blocks", "1", "--out", "ser.csv", "--plot-script"]) == 0
    # the script reads the CSV when it runs: a second mode's rows, appended
    # out of OSNR order, must come out as series of their own, in order
    assert main(["ser", *grid, "--symbols-per-block", "100", "--blocks", "1",
                 "--detection-mode", "genie", "--out", "genie.csv"]) == 0
    with open("genie.csv") as fh:
        genie = fh.read().splitlines()[1:]
    with open("ser.csv", "a") as fh:
        fh.writelines(line + "\n" for line in reversed(genie))
    with open("ser.csv") as fh:
        rows = list(csv.DictReader(fh))
    expected = _points(rows, "ser", ("dim", "mode"))
    assert len(expected) == 8

    calls = _plot_calls("ser.csv_plot.py", monkeypatch)
    lines = [(method, args, kwargs) for _, method, args, kwargs in calls if method in ("plot", "semilogy")]
    assert [method for method, _, _ in lines] == ["semilogy"] * 8
    for (dim, mode), (_, args, kwargs) in zip(sorted(expected), lines):
        assert f"dim {dim}" in kwargs["label"] and mode in kwargs["label"]
        assert list(args[0]) == [x for x, _ in expected[dim, mode]] == [20.0, 22.0, 24.0]
        assert list(args[1]) == [y for _, y in expected[dim, mode]]
    assert [method for owner, method, _, _ in calls if owner == "ax"].count("legend") == 1
    assert ("fig", "savefig", ("ser.csv.png",)) in [c[:3] for c in calls]


def test_generated_rate_script_plots_one_series(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["rate", "--osnr-start-db", "18", "--osnr-stop-db", "22", "--osnr-step-db", "2",
            "--n-samples", "2000", "--n-bins", "16", "--n-channels", "1", "--out", "rate.csv", "--plot-script"]
    assert main(argv) == 0
    with open("rate.csv") as fh:
        (points,) = _points(csv.DictReader(fh), "mi_bits", ()).values()

    calls = _plot_calls("rate.csv_plot.py", monkeypatch)
    lines = [(method, args) for _, method, args, _ in calls if method in ("plot", "semilogy")]
    assert [method for method, _ in lines] == ["plot"]
    assert list(lines[0][1][0]) == [x for x, _ in points] == [18.0, 20.0, 22.0]
    assert list(lines[0][1][1]) == [y for _, y in points]
    assert ("fig", "savefig", ("rate.csv.png",)) in [c[:3] for c in calls]


@pytest.mark.parametrize(
    "argv, env_seed, named",
    [
        (["estimate-channel-demo", "--seed", "-2"], None, "--seed"),
        (["estimate-channel-demo", "--repeats", "0"], None, "--repeats"),
        (["estimate-channel-demo", "--repeats", "1"], "-1", SEED_ENV_VAR),
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
        (["ser", "--osnr-start-db", repr(MIN_OSNR_DB - 0.01), "--osnr-stop-db", "0"], None, "osnr_start_db"),
        (["rate", "--osnr-start-db", "-100.5", "--osnr-stop-db", "0"], None, "osnr_start_db"),
        (["estimate-channel-demo", "--osnr-db", "-4000"], None, "OSNR -4000.0 dB"),
        (["estimate-channel-demo", "--osnr-db=-inf"], None, "OSNR -inf dB"),
        (["estimate-channel-demo", "--osnr-db", "-1600"], None, "OSNR -1600.0 dB"),
        (["estimate-channel-demo", "--osnr-db", "-100.5"], None, "OSNR -100.5 dB"),
        (["ser", "--config", "nope.json"], None, "--config"),
        (["ser", "--config", "."], None, "--config"),
        (["ser", "--config", "five.json"], None, "--config"),
        (["rate", "--config", "syntax.json"], None, "--config"),
        (["rate", "--n-bins", "100000"], None, "n_bins"),
        (["ser", "--n-rings", "64", "--n-phases", "64"], None, "n_rings/n_phases"),
        (["ser", "--symbols-per-block", "10000000000000", "--blocks", "1"], None, "symbols_per_block"),
        (["rate", "--n-samples", "10000000000000", "--n-channels", "1"], None, "n_samples/n_channels"),
        (["ser", "--blocks", "1", "--symbols-per-block", "10", "--out", "missing/x.csv"], None, "--out"),
        (["rate", "--n-samples", "100", "--n-channels", "2", "--out", "."], None, "--out"),
        (["estimate-channel-demo", "--osnr-db", "nan"], None, "--osnr-db"),
        (["ser", "--detection-mode", "magic"], None, "--detection-mode"),
    ],
    ids=[
        "demo-seed", "demo-repeats-0", "demo-env-negative", "demo-env-word", "ser-env-float",
        "ser-tiny-osnr-step", "ser-osnr-overflow", "rate-osnr-overflow", "ser-far-below-the-osnr-floor",
        "ser-below-the-osnr-floor", "rate-below-the-osnr-floor", "demo-osnr-overflow", "demo-osnr-minus-inf",
        "demo-below-the-osnr-floor", "demo-just-below-the-osnr-floor",
        "config-missing", "config-directory", "config-not-an-object", "config-syntax",
        "rate-histogram-too-large", "ser-score-table-too-large", "ser-frame-too-long", "rate-frame-too-long",
        "out-missing-directory", "out-is-a-directory", "demo-osnr-nan", "ser-detection-mode-choice",
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
    with open("out.csv") as fh:
        lines = fh.read().splitlines()
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
    with open("rate.csv") as fh:
        assert fh.read().splitlines()[0] == "osnr_db,mi_bits,n_samples,n_bins"


def test_cli_config_file_and_flag_overrides(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(seed=4, **FAST_SER)
    (tmp_path / "cfg.json").write_text(cfg.to_json())
    rc = main(["ser", "--config", "cfg.json", "--blocks", "1", "--out", "a.csv"])
    assert rc == 0
    direct = run_ser_experiment(cfg.replaced(blocks=1))
    with open("a.csv") as fh:
        assert fh.read().splitlines() == direct


def test_cli_config_file_completed_by_flags(tmp_path, monkeypatch):
    # the file alone is no valid rate config (5 samples for 20 channels);
    # merged with the flags it is, and it runs as the same flags alone
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    (tmp_path / "f.json").write_text(json.dumps({"experiment": "rate", "n_samples": 5}))
    assert main(["rate", "--config", "f.json", "--n-channels", "5", "--out", "file.csv"]) == 0
    assert main(["rate", "--n-samples", "5", "--n-channels", "5", "--out", "flags.csv"]) == 0
    with open("file.csv") as file_csv, open("flags.csv") as flags_csv:
        text = file_csv.read()
        assert len(text.splitlines()) == 10
        assert text == flags_csv.read()


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
    with open("env.csv") as env, open("explicit.csv") as explicit, open("other.csv") as other:
        text = env.read()
        assert text == explicit.read()
        assert text != other.read()


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
