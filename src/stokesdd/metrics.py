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
normalized values are histogrammed on a square grid and the plug-in estimator
is averaged over channel draws.

An OSNR sweep processes the channel draws one at a time: the terms that do not
depend on the OSNR are computed once per channel, and each OSNR point adds its
scaled noise and histograms into its own accumulators.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Iterable, Optional

import numpy as np

from .channel import (
    JonesChannel,
    add_unit_noise,
    apply_jones,
    haar_random_channel,
    osnr_to_sigma2,
)
from .constellation import RingPskConstellation, draw_indices, encode_indices
from .detection import PILOT, beat_gain, run_successive_receiver
from .frontend import received_samples

__all__ = [
    "SerReport",
    "MiEstimate",
    "accumulate_ser",
    "draw_frame",
    "histogram_mi_bits",
    "estimate_mi_dim4",
]


@dataclass(frozen=True)
class SerReport:
    """Per-dimension error counts; dimension 4 excludes the slot-0 pilot."""

    errors: tuple
    trials: tuple

    def ser(self, dim: int) -> float:
        return self.errors[dim - 1] / self.trials[dim - 1]


def accumulate_ser(truth: np.ndarray, decisions: np.ndarray) -> SerReport:
    """Count per-dimension index mismatches between a truth stream and a
    decision stream, (n, 4) index arrays each.

    Erased inter-slot decisions (-1) count as errors; slot 0 carries no
    inter-slot information and is excluded from that dimension's trials.
    """
    t = np.asarray(truth)
    d = np.asarray(decisions)
    if t.ndim != 2 or t.shape[1] != 4 or t.shape != d.shape:
        raise ValueError(
            "expected truth and decisions as (n, 4) index arrays of one shape, "
            f"got {t.shape} and {d.shape}"
        )
    n = len(t)
    if n < 2:
        raise ValueError("need at least two slots (slot 0 is the pilot)")
    errors = (
        int((t[:, 0] != d[:, 0]).sum()),
        int((t[:, 1] != d[:, 1]).sum()),
        int((t[:, 2] != d[:, 2]).sum()),
        int((t[1:, 3] != d[1:, 3]).sum()),
    )
    return SerReport(errors, (n, n, n, n - 1))


@dataclass(frozen=True, eq=False)
class MiEstimate:
    """Plug-in mutual information of one OSNR point, averaged over channels."""

    osnr_db: float
    bits_per_channel_use: float
    counts: np.ndarray  # pooled (n_labels, n_bins, n_bins) histogram
    n_samples: int
    n_bins: int
    box_halfwidth: float  # mean of the per-channel histogram boxes
    per_channel_bits: tuple = ()


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
    box_halfwidth: Optional[float] = None,
):
    """Joint histogram of integer labels against a complex observable binned
    on a square grid, plus its plug-in mutual information in bits.

    Samples outside the box (including non-finite ones) clip into the edge
    bins, so the histogram always accounts for every sample.  Labels must lie
    in [0, n_labels).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_labels):
        raise ValueError(
            f"labels must lie in [0, {n_labels}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    values = np.asarray(values, dtype=complex)
    if box_halfwidth is None:
        finite = np.abs(values)[np.isfinite(values)]
        box_halfwidth = float(finite.max()) if finite.size else 1.0
    h = max(box_halfwidth, 1e-12)
    re = np.nan_to_num(values.real, nan=h, posinf=h, neginf=-h)
    im = np.nan_to_num(values.imag, nan=h, posinf=h, neginf=-h)
    ix = np.clip(((re + h) / (2.0 * h) * n_bins).astype(np.int64), 0, n_bins - 1)
    iy = np.clip(((im + h) / (2.0 * h) * n_bins).astype(np.int64), 0, n_bins - 1)
    flat = (labels * n_bins + ix) * n_bins + iy
    counts = np.bincount(flat, minlength=n_labels * n_bins * n_bins).reshape(
        n_labels, n_bins, n_bins
    )
    return counts, _mi_from_counts(counts)


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
    idx[0] = astuple(PILOT)
    kx, ky = apply_jones(channel, *encode_indices(constellation, idx))
    unit = _rng(seed, key, 2).standard_normal((n, 4))
    return channel, idx, kx, ky, unit


def _statistic(constellation, channel, sigma2, kx, ky, unit, genie_gain=None):
    """Normalized delayed-beat statistic of one frame at one noise level.

    Given ``genie_gain``, the beat gain of the true contexts, the beat is
    formed from the noisy fields directly.  Without it the receiver runs on
    the frame's samples (decision-directed) and its own conditioning gain
    normalizes the beat."""
    if genie_gain is not None:
        # only the delayed beat is needed: received_samples would build all
        # six samples per slot to read two of them
        fx, fy = add_unit_noise(kx, ky, sigma2, unit)
        beat, scale = fx[1:] * np.conj(fy[:-1]), genie_gain  # (w5 + i w6) / 2
    else:
        frames = received_samples(kx, ky, sigma2, unit, "full")
        noisy = JonesChannel(channel.a, channel.b, sigma2)
        gain = run_successive_receiver(frames, noisy, constellation).gain
        beat, scale = frames[1:, 4] + 1j * frames[1:, 5], 2.0 * gain
    with np.errstate(divide="ignore", invalid="ignore"):
        return beat / scale


def estimate_mi_dim4(
    constellation: RingPskConstellation,
    osnr_db_grid: Iterable[float],
    n_samples: int,
    n_bins: int,
    *,
    n_channels: int = 20,
    seed: int = 0,
    context: str = "genie",
) -> list[MiEstimate]:
    """Inter-slot phase rate over an OSNR grid.

    Per channel draw: one keyed frame of ceil(n_samples / n_channels) + 1
    slots is drawn (``draw_frame``; slot 0 is the pilot), the delayed beat of
    each later slot is normalized by its known gain, and the plug-in mutual
    information is computed on an ``n_bins`` square grid covering the unit
    circle widened by four empirical noise deviations.  Channel draws, context
    draws, and noise quadratures are held fixed across the grid so that the
    curve is monotone up to estimator noise, and each point equals the same
    OSNR computed alone.  Both contexts read the same frame.

    Channels are processed one at a time, so only one channel's arrays are
    alive at once.  The terms that do not depend on the OSNR (the frame, the
    genie gain, the reference phasors) are computed once per
    channel; each OSNR point then adds its scaled noise and histograms into
    per-OSNR accumulators (pooled counts, per-channel bits and boxes).

    ``context`` selects the conditioning: "genie" (default) normalizes by the
    gain of the true per-slot values; "decision-directed" runs the receiver on
    the frame and normalizes by the gain of its own decisions.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")
    if n_channels < 1:
        raise ValueError("n_channels must be positive")
    if n_samples < n_channels:
        raise ValueError("n_samples must be at least n_channels")
    if context not in ("genie", "decision-directed"):
        raise ValueError("context must be 'genie' or 'decision-directed'")
    grid = list(osnr_db_grid)  # visited once per channel
    m = -(-n_samples // n_channels)  # ceil: per-channel sample count
    nph = constellation.n_phases
    sigma2s = [osnr_to_sigma2(osnr_db) for osnr_db in grid]
    pooled = [np.zeros((nph, n_bins, n_bins), dtype=np.int64) for _ in grid]
    per_channel = [[] for _ in grid]
    boxes = [[] for _ in grid]

    for c in range(n_channels):
        # one stream per channel; slot 0 is the pilot, slots 1..m carry labels
        channel, idx, kx, ky, unit = draw_frame(constellation, seed, c, m + 1)
        eta_idx = idx[1:, 3]
        genie_gain = beat_gain(constellation, channel, idx[:, :3]) if context == "genie" else None
        reference = np.exp(1j * constellation.phase_step * eta_idx)

        for k, sigma2 in enumerate(sigma2s):
            stat = _statistic(constellation, channel, sigma2, kx, ky, unit, genie_gain)
            residual = stat - reference
            finite = np.isfinite(residual)
            sigma_w = (
                math.sqrt(float((np.abs(residual[finite]) ** 2).mean()) / 2.0)
                if finite.any()
                else 0.0
            )
            boxes[k].append(1.0 + 4.0 * sigma_w)
            counts, bits = histogram_mi_bits(
                eta_idx, stat, nph, n_bins, box_halfwidth=boxes[k][-1]
            )
            pooled[k] += counts
            per_channel[k].append(bits)

    return [
        MiEstimate(
            float(osnr_db),
            float(np.mean(per_channel[k])),
            pooled[k],
            m * n_channels,
            n_bins,
            float(np.mean(boxes[k])),
            tuple(per_channel[k]),
        )
        for k, osnr_db in enumerate(grid)
    ]
