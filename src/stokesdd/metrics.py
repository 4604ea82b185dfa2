"""Per-dimension symbol-error accumulation and plug-in mutual-information
estimation for the inter-slot phase subchannel.

The rate of the inter-slot dimension is estimated as the discrete mutual
information between the uniform phase index and the delayed beat observable,
normalized by its known complex gain so that every conditioning context shares
one statistic near the unit circle.  Both contexts read the same keyed frame
per channel draw (``draw_frame``, the frame of the SER sweep): a pilot-led
stream whose consecutive slots are the (previous, current) pairs.  The genie
context takes the gain of the true contexts from the receiver's beat-gain
kernel; the decision-directed context runs the receiver and reads the gain it
used, so the two differ only by the receiver's decision errors.  The
normalized values are histogrammed on a square grid.

``estimate_mi_dim4(config, key)`` is the rate sweep's per-channel kernel, as
``_ser_block`` is the SER sweep's per-block one: it returns one channel's
plug-in bits at every OSNR point, and the sweep averages them over channels.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import (
    JonesChannel,
    add_unit_noise,
    apply_jones,
    haar_random_channel,
    osnr_to_sigma2,
)
from .config import ExperimentConfig
from .constellation import RingPskConstellation, build_constellation, draw_indices, encode_indices
from .detection import PILOT, beat_gain, run_successive_receiver
from .frontend import frontend_full_block

__all__ = [
    "accumulate_ser",
    "draw_frame",
    "histogram_mi_bits",
    "estimate_mi_dim4",
]


def accumulate_ser(truth: np.ndarray, decisions: np.ndarray) -> np.ndarray:
    """Count per-dimension index mismatches between a truth stream and a
    decision stream, (n, 4) index arrays each; returns the (4,) int64 error
    counts.

    Erased inter-slot decisions (-1) count as errors; slot 0 carries no
    inter-slot information and is excluded from that dimension's count.
    """
    t = np.asarray(truth)
    d = np.asarray(decisions)
    if t.ndim != 2 or t.shape[1] != 4 or t.shape != d.shape:
        raise ValueError(
            "expected truth and decisions as (n, 4) index arrays of one shape, "
            f"got {t.shape} and {d.shape}"
        )
    if len(t) < 2:
        raise ValueError("need at least two slots (slot 0 is the pilot)")
    mismatch = t != d
    mismatch[0, 3] = False  # the pilot's inter-slot entry is a placeholder
    return mismatch.sum(axis=0, dtype=np.int64)


def _mi_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    p_label = p.sum(axis=(1, 2))
    p_cell = p.sum(axis=0)
    denom = p_label[:, None, None] * p_cell[None, :, :]
    mask = p > 0
    # analytically nonnegative; clamp float residue from the marginal sums
    return max(0.0, float((p[mask] * np.log2(p[mask] / denom[mask])).sum()))


def histogram_mi_bits(
    labels: np.ndarray,
    values: np.ndarray,
    n_labels: int,
    n_bins: int,
    box_halfwidth: float,
) -> float:
    """Plug-in mutual information, in bits, between integer labels and a
    complex observable binned on a square grid of half-width ``box_halfwidth``.

    Samples outside the box (including non-finite ones) clip into the edge
    bins, so the joint histogram accounts for every sample.  Labels must lie
    in [0, n_labels).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_labels):
        raise ValueError(
            f"labels must lie in [0, {n_labels}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    values = np.asarray(values, dtype=complex)
    h = max(box_halfwidth, 1e-12)
    re = np.nan_to_num(values.real, nan=h, posinf=h, neginf=-h)
    im = np.nan_to_num(values.imag, nan=h, posinf=h, neginf=-h)
    ix = np.clip(((re + h) / (2.0 * h) * n_bins).astype(np.int64), 0, n_bins - 1)
    iy = np.clip(((im + h) / (2.0 * h) * n_bins).astype(np.int64), 0, n_bins - 1)
    flat = (labels * n_bins + ix) * n_bins + iy
    counts = np.bincount(flat, minlength=n_labels * n_bins * n_bins).reshape(
        n_labels, n_bins, n_bins
    )
    return _mi_from_counts(counts)


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Keyed stream: (seed, key) names one independent generator."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def draw_frame(constellation: RingPskConstellation, seed: int, key: int, n: int):
    """One keyed Monte Carlo frame of ``n`` slots: the Haar channel, the
    (n, 4) indices with slot 0 pinned to ``PILOT``, the noiseless received
    fields and the (n, 4) unit noise quadratures,
    ``(channel, idx, kx, ky, unit)``; streams (seed, key, 0/1/2)."""
    channel = haar_random_channel(_rng(seed, key, 0))
    idx = draw_indices(_rng(seed, key, 1), constellation, n)
    idx[0] = PILOT
    kx, ky = apply_jones(channel, *encode_indices(constellation, idx))
    unit = _rng(seed, key, 2).standard_normal((n, 4))
    return channel, idx, kx, ky, unit


# a function, not inlined in the OSNR loop: its return frees the noisy fx, fy
# before the next point draws its own (inlined, rate-genie's peak RSS grew 1 MiB)
def _statistic(constellation, channel, sigma2, kx, ky, unit, genie_gain=None):
    """Normalized delayed-beat statistic of one frame at one noise level: the
    beat (w5 + i w6) / 2 of the noisy fields over its gain.

    Given ``genie_gain``, the beat gain of the true contexts, that gain is
    used.  Without it the receiver runs on the frame's samples
    (decision-directed) and its own conditioning gain is used."""
    fx, fy = add_unit_noise(kx, ky, sigma2, unit)
    gain = genie_gain
    if gain is None:
        noisy = JonesChannel(channel.a, channel.b, sigma2)
        gain = run_successive_receiver(frontend_full_block(fx, fy), noisy, constellation).gain
    with np.errstate(divide="ignore", invalid="ignore"):
        return fx[1:] * np.conj(fy[:-1]) / gain


def estimate_mi_dim4(config: ExperimentConfig, key: int) -> np.ndarray:
    """Plug-in inter-slot phase rate of channel draw ``key`` at each point of
    ``config.osnr_grid()``: the rate sweep's per-channel kernel, an
    (n_osnr,) float array of bits.

    One keyed frame of ceil(n_samples / n_channels) + 1 slots is drawn
    (``draw_frame``; slot 0 is the pilot), the delayed beat of each later slot
    is normalized by its known gain, and the plug-in mutual information is
    computed on an ``n_bins`` square grid covering the unit circle widened by
    four empirical noise deviations.  The terms that do not depend on the OSNR
    (the frame, the genie gain, the reference phasors) are computed once; each
    OSNR point adds its scaled noise to the same frame, so the curve is
    monotone up to estimator noise and each point equals the same OSNR
    computed alone.

    ``config.rate_context`` selects the conditioning: "genie" normalizes by
    the gain of the true per-slot values; "decision-directed" runs the
    receiver on the frame and normalizes by the gain of its own decisions.
    The config is taken as validated.
    """
    constellation = build_constellation(config.n_rings, config.n_phases)
    m = -(-config.n_samples // config.n_channels)  # ceil: per-channel sample count
    channel, idx, kx, ky, unit = draw_frame(constellation, config.seed, key, m + 1)
    eta_idx = idx[1:, 3]
    genie = config.rate_context == "genie"
    genie_gain = beat_gain(constellation, channel, idx[:, :3]) if genie else None
    reference = np.exp(1j * constellation.phase_step * np.arange(constellation.n_phases))[eta_idx]

    grid = config.osnr_grid()
    bits = np.empty(len(grid))
    for k, osnr_db in enumerate(grid):
        stat = _statistic(constellation, channel, osnr_to_sigma2(osnr_db), kx, ky, unit, genie_gain)
        residual = stat - reference
        finite = np.isfinite(residual)
        sigma_w = (
            math.sqrt(float((np.abs(residual[finite]) ** 2).mean()) / 2.0)
            if finite.any()
            else 0.0
        )
        bits[k] = histogram_mi_bits(
            eta_idx, stat, constellation.n_phases, config.n_bins, 1.0 + 4.0 * sigma_w
        )
    return bits
