"""Experiment orchestration: seeded Monte Carlo blocks, CSV emission, and
generated plot scripts.

Both sweeps map a keyed kernel through ``_map_blocks``: ``_ser_block`` over
the SER blocks, ``metrics.estimate_mi_dim4`` over the rate's channel draws.
Every random stream is keyed by (seed, block, purpose), so results are
byte-identical for a fixed config regardless of the worker count.  Channel
draws, data, and noise quadratures are shared across the OSNR grid (the noise
is rescaled per point), which keeps the curves monotone up to true detection
behavior rather than re-sampling jitter.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool

import numpy as np

from .channel import (
    JonesChannel,
    add_unit_noise,
    # not called here since draw_frame took the forward model; the benchmark's
    # tracer self-test reads it as experiments.apply_jones (ROADMAP item 6)
    apply_jones,
    haar_random_channel,
    osnr_to_sigma2,
    stokes_vector,
)
from .config import ExperimentConfig
from .constellation import build_constellation
from .detection import (
    beat_gain,
    estimate_channel,
    gauge_aligned_error,
    gaussian_stats_dims123,
    run_successive_receiver,
    run_training,
)
from .frontend import received_samples
from .metrics import _rng, accumulate_ser, draw_frame, estimate_mi_dim4

SER_HEADER = "osnr_db,dim,ser,trials,mode"
RATE_HEADER = "osnr_db,mi_bits,n_samples,n_bins"


def _format(value: float) -> str:
    return repr(float(value))


def _ser_block(cfg: ExperimentConfig, block: int) -> np.ndarray:
    """Error counts of one Monte Carlo block: (n_osnr, 4) integers."""
    constellation = build_constellation(cfg.n_rings, cfg.n_phases)
    grid = cfg.osnr_grid()
    n = cfg.symbols_per_block

    channel0, idx, kx, ky, unit = draw_frame(constellation, cfg.seed, block, n)

    errors = np.zeros((len(grid), 4), dtype=np.int64)
    for i, osnr_db in enumerate(grid):
        sigma2 = osnr_to_sigma2(osnr_db)
        frames = received_samples(kx, ky, sigma2, unit, cfg.receiver_variant)

        channel = JonesChannel(channel0.a, channel0.b, sigma2)
        if cfg.channel_mode == "estimated":
            training = run_training(channel, cfg.training_repeats, _rng(cfg.seed, block, 3, i))
            est = estimate_channel(training)[0]
            channel = JonesChannel(est.a, est.b, sigma2)

        # genie mode: the true values' gain through the receiver's channel
        gain = beat_gain(constellation, channel, idx[:, :3]) if cfg.detection_mode == "genie" else None
        result = run_successive_receiver(frames, channel, constellation, gain=gain)
        errors[i] = accumulate_ser(idx, result.indices)
    return errors


def _map_blocks(func, blocks, workers: int):
    # more processes than blocks or CPUs add start-up cost and memory, never
    # speed, and the results do not depend on the count
    processes = min(workers, len(blocks), os.cpu_count() or 1)
    if processes < 2:
        return [func(b) for b in blocks]
    with Pool(processes=processes) as pool:
        return pool.map(func, blocks)  # ordered gather keeps merging canonical


def run_ser_experiment(config: ExperimentConfig) -> list[str]:
    """Symbol-error-rate sweep; returns CSV rows (header included)."""
    config.validate()
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
    config.validate()
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


_PLOT_TEMPLATE_SER = '''"""Generated plot script: per-dimension symbol error rate vs OSNR."""
import csv

import matplotlib.pyplot as plt

CSV_PATH = {csv_path!r}

series = {{}}
with open(CSV_PATH) as fh:
    for row in csv.DictReader(fh):
        key = (int(row["dim"]), row["mode"])
        series.setdefault(key, []).append((float(row["osnr_db"]), float(row["ser"])))

fig, ax = plt.subplots()
for (dim, mode), points in sorted(series.items()):
    points.sort()
    xs = [p[0] for p in points]
    ys = [max(p[1], 0.0) for p in points]
    ax.semilogy(xs, ys, marker="o", label=f"dim {{dim}} ({{mode}})")
ax.set_xlabel("OSNR (dB)")
ax.set_ylabel("symbol error rate")
ax.grid(True, which="both", alpha=0.3)
ax.legend()
fig.tight_layout()
fig.savefig(CSV_PATH + ".png", dpi=150)
print("wrote", CSV_PATH + ".png")
'''

_PLOT_TEMPLATE_RATE = '''"""Generated plot script: inter-slot phase achievable rate vs OSNR."""
import csv

import matplotlib.pyplot as plt

CSV_PATH = {csv_path!r}

points = []
with open(CSV_PATH) as fh:
    for row in csv.DictReader(fh):
        points.append((float(row["osnr_db"]), float(row["mi_bits"])))
points.sort()

fig, ax = plt.subplots()
ax.plot([p[0] for p in points], [p[1] for p in points], marker="o")
ax.set_xlabel("OSNR (dB)")
ax.set_ylabel("achievable rate (bits/channel use)")
ax.grid(True, alpha=0.3)
fig.tight_layout()
fig.savefig(CSV_PATH + ".png", dpi=150)
print("wrote", CSV_PATH + ".png")
'''


def emit_plot_script(csv_path, kind: str) -> str:
    """Write a standalone matplotlib script for an existing results CSV."""
    if kind not in ("ser", "rate"):
        raise ValueError("kind must be 'ser' or 'rate'")
    if not os.path.exists(csv_path):
        raise FileNotFoundError(f"no such CSV: {csv_path}")
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    expected = SER_HEADER if kind == "ser" else RATE_HEADER
    if header != expected:
        raise ValueError(
            f"CSV header {header!r} does not match the {kind} schema {expected!r}"
        )
    out_path = str(csv_path) + "_plot.py"
    template = _PLOT_TEMPLATE_SER if kind == "ser" else _PLOT_TEMPLATE_RATE
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(template.format(csv_path=str(csv_path)))
    return out_path


# --- calibration and demo helpers -------------------------------------------


@dataclass
class CovarianceCalibration:
    max_rel_dev_mean_123: float
    max_rel_dev_cov_123: float
    max_rel_dev_mean_4: float
    max_rel_dev_cov_4: float
    n_configs: int
    n_draws: int

    @property
    def worst(self) -> float:
        return max(
            self.max_rel_dev_mean_123,
            self.max_rel_dev_cov_123,
            self.max_rel_dev_mean_4,
            self.max_rel_dev_cov_4,
        )


REL_DEV_FLOOR = 0.05  # model entries below this share of the largest are not compared


def _rel_dev(empirical: np.ndarray, model: np.ndarray) -> float:
    scale = np.abs(model).max()
    mask = np.abs(model) > REL_DEV_FLOOR * scale
    if not mask.any():
        return 0.0
    return float((np.abs(empirical - model)[mask] / np.abs(model)[mask]).max())


def _whitened_normals(rng: np.random.Generator, shape) -> np.ndarray:
    # moment-matched draws: antithetic pairing zeroes every odd sample moment
    # exactly, and whitening pins the sample mean/covariance to 0/I, so the
    # propagated-moment oracle is left with fourth-moment sampling error only.
    # The mirrored draws have zero mean and twice the half's Gram matrix, so
    # the half is whitened by that Gram matrix over the padded count n, then
    # mirrored and padded
    n, dim = shape
    half = rng.standard_normal((n // 2, dim))
    chol = np.linalg.cholesky(half.T @ half * (2.0 / n))
    white = half @ np.linalg.inv(chol).T
    return np.concatenate([white, -white, np.zeros((n % 2, dim))])


def covariance_calibration(
    n_configs: int = 100, n_draws: int = 1_000_000, seed: int = 0
) -> CovarianceCalibration:
    """Monte Carlo check of the closed-form observation statistics.

    For random (K_x, K_y, sigma2) configurations, noise is propagated through
    the front-end and the empirical mean/covariance of (w1..w4) and (w5, w6)
    are compared against the model, relative, on entries above 5% of each
    object's largest magnitude.
    """
    if n_configs < 1:
        raise ValueError(f"n_configs (--configs) must be at least 1, got {n_configs}")
    # the antithetic half must hold at least one row per quadrature for the
    # sample covariance to be invertible
    if n_draws < 8:
        raise ValueError(f"n_draws (--draws) must be at least 8, got {n_draws}")
    rng = _rng(seed, 900)
    worst = [0.0, 0.0, 0.0, 0.0]
    for _ in range(n_configs):
        g = rng.standard_normal(4)
        scale = rng.uniform(0.3, 1.5)
        kx = scale * complex(g[0], g[1]) / math.sqrt(2)
        ky = scale * complex(g[2], g[3]) / math.sqrt(2)
        sigma2 = float(10.0 ** rng.uniform(-3, -0.5))

        unit = _whitened_normals(rng, (n_draws, 4))
        w = stokes_vector(*add_unit_noise(kx, ky, sigma2, unit))
        mean, cov = w.mean(axis=0), np.cov(w.T)
        model_mean, model_cov = gaussian_stats_dims123(kx, ky, sigma2)
        worst[0] = max(worst[0], _rel_dev(mean, model_mean))
        worst[1] = max(worst[1], _rel_dev(cov, model_cov))

        # with ky as the previous slot's Y field, (w5, w6) is this beat pair:
        # its moments are the (w3, w4) block of the ones above
        worst[2] = max(worst[2], _rel_dev(mean[2:], model_mean[2:]))
        worst[3] = max(worst[3], _rel_dev(cov[2:, 2:], model_cov[2:, 2:]))
    return CovarianceCalibration(*worst, n_configs, n_draws)


def channel_estimation_demo(osnr_db: float, repeats: int, seed: int = 0) -> dict:
    """Draw one channel, estimate it from averaged training pilots, and report
    the sign-aligned error and the fit residual."""
    if repeats < 1:
        raise ValueError(f"repeats (--repeats) must be at least 1, got {repeats}")
    sigma2 = osnr_to_sigma2(osnr_db)
    channel = haar_random_channel(_rng(seed, 901), sigma2)
    estimate, residual = estimate_channel(run_training(channel, repeats, _rng(seed, 902)))
    return {
        "true_a": channel.a,
        "true_b": channel.b,
        "a_hat": estimate.a,
        "b_hat": estimate.b,
        "residual": residual,
        "aligned_error": gauge_aligned_error(estimate, channel),
    }
