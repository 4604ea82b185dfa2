"""Experiment orchestration: seeded Monte Carlo blocks, CSV emission, and
generated plot scripts.

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
    estimate_channel,
    gauge_aligned_error,
    gaussian_stats_dim4,
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


def _ser_block(args) -> np.ndarray:
    """Error counts of one Monte Carlo block: (n_osnr, 4) integers."""
    cfg_dict, block = args
    cfg = ExperimentConfig(**cfg_dict)
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
            channel = estimate_channel(training).as_channel(sigma2)

        result = run_successive_receiver(
            frames,
            channel,
            constellation,
            genie_indices=idx if cfg.detection_mode == "genie" else None,
        )
        errors[i] = accumulate_ser(idx, result.indices).errors
    return errors


def _map_blocks(func, argses, workers: int):
    if workers <= 1 or len(argses) <= 1:
        return [func(a) for a in argses]
    with Pool(processes=min(workers, len(argses))) as pool:
        return pool.map(func, argses)  # ordered gather keeps merging canonical


def run_ser_experiment(config: ExperimentConfig) -> list[str]:
    """Symbol-error-rate sweep; returns CSV rows (header included)."""
    config.validate()
    cfg_dict = config.__dict__.copy()
    argses = [(cfg_dict, block) for block in range(config.blocks)]
    per_block = _map_blocks(_ser_block, argses, config.workers)
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
    constellation = build_constellation(config.n_rings, config.n_phases)
    estimates = estimate_mi_dim4(
        constellation,
        config.osnr_grid(),
        config.n_samples,
        config.n_bins,
        n_channels=config.n_channels,
        seed=config.seed,
        context=config.rate_context,
    )
    rows = [RATE_HEADER]
    for est in estimates:
        rows.append(
            f"{_format(est.osnr_db)},{_format(est.bits_per_channel_use)},{est.n_samples},{est.n_bins}"
        )
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


def emit_plot_script(csv_path, kind: str, out_path=None) -> str:
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
    out_path = out_path or str(csv_path) + "_plot.py"
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


def _rel_dev(empirical: np.ndarray, model: np.ndarray, floor_frac: float = 0.05) -> float:
    scale = np.abs(model).max()
    mask = np.abs(model) > floor_frac * scale
    if not mask.any():
        return 0.0
    return float((np.abs(empirical - model)[mask] / np.abs(model)[mask]).max())


def _whitened_normals(rng: np.random.Generator, shape) -> np.ndarray:
    # moment-matched draws: antithetic pairing zeroes every odd sample moment
    # exactly, and whitening pins the sample mean/covariance to 0/I, so the
    # propagated-moment oracle is left with fourth-moment sampling error only
    n, dim = shape
    half = rng.standard_normal((n // 2, dim))
    unit = np.concatenate([half, -half])
    if len(unit) < n:
        unit = np.concatenate([unit, np.zeros((1, dim))])
    chol = np.linalg.cholesky(np.cov(unit.T, bias=True))
    return unit @ np.linalg.inv(chol).T


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
        stats = gaussian_stats_dims123(kx, ky, sigma2)
        worst[0] = max(worst[0], _rel_dev(w.mean(axis=0), stats.mean))
        worst[1] = max(worst[1], _rel_dev(np.cov(w.T), stats.cov))

        # with ky as the previous slot's Y field, (w5, w6) is this beat pair
        w56 = w[:, 2:]
        stats4 = gaussian_stats_dim4(kx, ky, sigma2)
        worst[2] = max(worst[2], _rel_dev(w56.mean(axis=0), stats4.mean))
        worst[3] = max(worst[3], _rel_dev(np.cov(w56.T), stats4.cov))
    return CovarianceCalibration(*worst, n_configs, n_draws)


def channel_estimation_demo(osnr_db: float, repeats: int, seed: int = 0) -> dict:
    """Draw one channel, estimate it from averaged training pilots, and report
    the sign-aligned error and the fit residual."""
    sigma2 = osnr_to_sigma2(osnr_db)
    channel = haar_random_channel(_rng(seed, 901), sigma2)
    estimate = estimate_channel(run_training(channel, repeats, _rng(seed, 902)))
    return {
        "true_a": channel.a,
        "true_b": channel.b,
        "a_hat": estimate.a_hat,
        "b_hat": estimate.b_hat,
        "residual": estimate.residual,
        "aligned_error": gauge_aligned_error(estimate, channel),
    }
