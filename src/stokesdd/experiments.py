"""Experiment orchestration: seeded Monte Carlo blocks, CSV emission, and
generated plot scripts.

Both sweeps map a keyed kernel through ``_map_blocks``: ``_ser_block`` over
the SER blocks, ``metrics.estimate_mi_dim4`` over the rate's channel draws.
With two or more workers it starts one process per worker, each running a
strided share of the keys, and gathers the shares in key order; a worker's
error is re-raised in the parent, and a worker that dies without sending its
results raises.  Every random stream is keyed by (seed, block, purpose), so
results are byte-identical for a fixed config regardless of the worker count.
Channel draws, data, and noise quadratures are shared across the OSNR grid
(the noise is rescaled per point), which keeps the curves monotone up to true
detection behavior rather than re-sampling jitter.

``emit_plot_script`` fills one template from the ``_PLOTS`` row the CSV header
names.  The channel-estimation demo returns a plain dict, printed as
``key: value`` lines.
"""

from __future__ import annotations

import os
from functools import partial
from multiprocessing import Pipe, Process

import numpy as np

from .channel import (
    JonesChannel,
    # not called here since draw_frame took the forward model; the benchmark's
    # tracer self-test reads it as experiments.apply_jones (ROADMAP item 8)
    apply_jones,
    haar_random_channel,
    osnr_to_sigma2,
)
from .config import MIN_OSNR_DB, ExperimentConfig
from .constellation import build_constellation
from .detection import (
    _is_count,
    beat_gain,
    estimate_channel,
    gauge_aligned_error,
    run_successive_receiver,
    run_training,
)
from .frontend import evaluate_samples, sample_coefficients
from .metrics import _rng, accumulate_ser, draw_frame, estimate_mi_dim4, frame_noise

SER_HEADER = "osnr_db,dim,ser,trials,mode"
RATE_HEADER = "osnr_db,mi_bits,n_samples,n_bins"


def _format(value: float) -> str:
    return repr(float(value))


def _ser_block(cfg: ExperimentConfig, block: int) -> np.ndarray:
    """Error counts of one Monte Carlo block: (n_osnr, 4) integers."""
    constellation = build_constellation(cfg.n_rings, cfg.n_phases)
    grid = cfg.osnr_grid()
    n = cfg.symbols_per_block

    channel0, idx, kx, ky = draw_frame(constellation, cfg.seed, block, n)
    coefficients = sample_coefficients(kx, ky, frame_noise(cfg.seed, block, n))
    del kx, ky  # the table is all the points read of the frame's fields and noise

    channels = [JonesChannel(channel0.a, channel0.b, osnr_to_sigma2(osnr_db)) for osnr_db in grid]
    estimated = cfg.channel_mode == "estimated"
    if estimated:
        # one training pass over the grid, point i drawing from stream (seed, block, 3, i)
        rngs = [_rng(cfg.seed, block, 3, i) for i in range(len(grid))]
        training = run_training(channels, cfg.training_repeats, rngs).reshape(len(grid), -1, 4)
        estimates = [estimate_channel(obs)[0] for obs in training]
        channels = [JonesChannel(est.a, est.b, ch.sigma2) for est, ch in zip(estimates, channels)]

    # genie mode: the true values' gain through the receiver's channel; the
    # gain reads only (a, b), so the true channel's serves every point
    genie = cfg.detection_mode == "genie"
    gain = beat_gain(constellation, channel0, idx[:, :3]) if genie and not estimated else None
    errors = np.zeros((len(grid), 4), dtype=np.int64)
    for i, channel in enumerate(channels):
        frames = evaluate_samples(coefficients, channel.sigma2, cfg.receiver_variant)
        if genie and estimated:
            gain = beat_gain(constellation, channel, idx[:, :3])
        result = run_successive_receiver(frames, channel, constellation, gain=gain)
        errors[i] = accumulate_ser(idx, result.indices)
    return errors


def _run_share(func, share, writer) -> None:
    # in a worker: one message back, the list of the share's results in
    # order, or a tuple of the exception that stopped it and its traceback
    try:
        message = [func(b) for b in share]
    except Exception as exc:
        import traceback  # only a failing worker needs it; kept off the CLI's import path

        message = (exc, traceback.format_exc())
    writer.send(message)


def _start_share(func, share):
    reader, writer = Pipe(duplex=False)
    child = Process(target=_run_share, args=(func, share, writer), daemon=True)
    child.start()
    # the child's copy of the writer is now the only one, so the reader sees
    # EOF once the child has exited, whether or not it sent anything; closed
    # before the next fork, no later worker holds it open
    writer.close()
    return child, reader


def _receive_share(k: int, child, reader) -> list:
    try:
        message = reader.recv()
    except EOFError:
        child.join()
        code = child.exitcode
        how = f"signal {-code}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(f"worker {k} died with {how} before sending its results") from None
    if isinstance(message, tuple):
        exc, remote = message
        raise exc from RuntimeError(f"in worker {k}:\n{remote}")
    return message


def _map_blocks(func, blocks, workers: int):
    # more processes than blocks or CPUs add start-up cost and memory, never
    # speed, and the results do not depend on the count; the CPUs are those
    # this process may run on (a taskset or cpuset may allow fewer than the
    # machine has), where the platform reports them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    processes = min(workers, len(blocks), cpus)
    if processes < 2:
        return [func(b) for b in blocks]
    # numpy loads numpy.random lazily and nothing on the import path of
    # stokesdd loads it, so each forked worker would import it (with secrets,
    # hashlib and the bit generators) on its first block of every sweep;
    # imported once here, every fork inherits it.  Only pooled sweeps pay
    # for it; importing the package does not.
    import numpy.random  # noqa: F401

    # one process per worker, worker k running the strided share
    # blocks[k::processes] and sending it back in one message; the parent
    # gathers the shares in key order, so the results do not depend on the
    # count.  A worker's exception is re-raised here and a worker that dies
    # without sending raises; either way the other workers are stopped, and
    # every worker is joined (reaped) before this returns or raises.
    started = []
    try:
        for k in range(processes):
            started.append(_start_share(func, blocks[k::processes]))
        shares = [_receive_share(k, child, reader) for k, (child, reader) in enumerate(started)]
    except BaseException:
        for child, _ in started:
            child.terminate()
        raise
    finally:
        for child, reader in started:
            child.join()
            reader.close()
    results = [None] * len(blocks)
    for k, share in enumerate(shares):
        results[k::processes] = share
    return results


def run_ser_experiment(config: ExperimentConfig) -> list[str]:
    """Symbol-error-rate sweep; returns CSV rows (header included)."""
    per_block = _map_blocks(partial(_ser_block, config), range(config.blocks), config.workers)
    errors = np.sum(per_block, axis=0)

    grid = config.osnr_grid()
    n = config.symbols_per_block
    trials = np.array([n, n, n, n - 1], dtype=np.int64) * config.blocks
    rows = [SER_HEADER]
    for i, osnr_db in enumerate(grid):
        for dim in range(4):
            ser = errors[i, dim] / trials[dim]
            rows.append(
                f"{_format(osnr_db)},{dim + 1},{_format(ser)},{trials[dim]},{config.detection_mode}"
            )
    return rows


def run_rate_experiment(config: ExperimentConfig) -> list[str]:
    """Inter-slot phase achievable-rate sweep; returns CSV rows."""
    per_channel = _map_blocks(
        partial(estimate_mi_dim4, config), range(config.n_channels), config.workers
    )
    bits = np.array(per_channel)  # (n_channels, n_osnr)
    n_samples = -(-config.n_samples // config.n_channels) * config.n_channels
    rows = [RATE_HEADER]
    for k, osnr_db in enumerate(config.osnr_grid()):
        # the mean of a 1-D column: pairwise summation, as over a list
        rows.append(f"{_format(osnr_db)},{_format(np.mean(bits[:, k]))},{n_samples},{config.n_bins}")
    return rows


def write_csv(rows: list[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


# per CSV header: the y column, the columns naming a series, axis call, y label
_PLOTS = {
    SER_HEADER: ("ser", ("dim", "mode"), "semilogy", "symbol error rate"),
    RATE_HEADER: ("mi_bits", (), "plot", "achievable rate (bits/channel use)"),
}

_PLOT_TEMPLATE = '''"""Generated plot script: {y_label} vs OSNR."""
import csv

import matplotlib.pyplot as plt

CSV_PATH = {csv_path!r}
SERIES = {series!r}  # the columns that name a series

series = {{}}
with open(CSV_PATH) as fh:
    for row in csv.DictReader(fh):
        key = tuple(row[column] for column in SERIES)
        series.setdefault(key, []).append((float(row["osnr_db"]), float(row[{y!r}])))

fig, ax = plt.subplots()
for key, points in sorted(series.items()):
    points.sort()
    label = ", ".join(f"{{column}} {{value}}" for column, value in zip(SERIES, key))
    ax.{axis}([p[0] for p in points], [p[1] for p in points], marker="o", label=label or None)
ax.set_xlabel("OSNR (dB)")
ax.set_ylabel({y_label!r})
ax.grid(True, which="both", alpha=0.3)
if SERIES:
    ax.legend()
fig.tight_layout()
fig.savefig(CSV_PATH + ".png", dpi=150)
print("wrote", CSV_PATH + ".png")
'''


def emit_plot_script(csv_path) -> str:
    """Write a standalone matplotlib script for an existing results CSV; its
    header picks the plot."""
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header not in _PLOTS:
        raise ValueError(
            f"CSV header {header!r} matches neither the ser schema {SER_HEADER!r} "
            f"nor the rate schema {RATE_HEADER!r}"
        )
    y, series, axis, y_label = _PLOTS[header]
    out_path = str(csv_path) + "_plot.py"
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_PLOT_TEMPLATE.format(csv_path=str(csv_path), y=y, series=series, axis=axis, y_label=y_label))
    return out_path


def channel_estimation_demo(osnr_db: float, repeats: int, seed: int = 0) -> dict:
    """Draw one channel, estimate it from averaged training pilots, and report
    the sign-aligned error and the fit residual.  It accepts the OSNRs a
    sweep's grid may start at."""
    if not _is_count(repeats):  # checked before anything is drawn
        raise ValueError(f"repeats (--repeats) must be a positive integer, got {repeats!r}")
    if not osnr_db >= MIN_OSNR_DB:  # NaN too
        raise ValueError(f"OSNR {osnr_db!r} dB (--osnr-db) must be at least the sweeps' floor, {MIN_OSNR_DB!r} dB")
    sigma2 = osnr_to_sigma2(osnr_db)
    channel = haar_random_channel(_rng(seed, 901), sigma2)
    estimate, residual = estimate_channel(run_training([channel], repeats, [_rng(seed, 902)]))
    return {
        "true_a": channel.a,
        "true_b": channel.b,
        "a_hat": estimate.a,
        "b_hat": estimate.b,
        "residual": residual,
        "aligned_error": gauge_aligned_error(estimate, channel),
    }
