"""Per-dimension symbol-error accumulation and plug-in mutual-information
estimation for the inter-slot phase subchannel.

The rate of the inter-slot dimension is estimated as the discrete mutual
information between the uniform phase index and the delayed beat observable,
normalized by its known complex gain so that every conditioning context shares
one statistic near the unit circle.  The genie context takes that gain from
the receiver's beat-gain kernel on independent (previous, current) pairs; the
decision-directed context runs the receiver and reads the gain it used.  The
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
from .detection import PILOT, ReceiverResult, beat_gain, run_successive_receiver
from .frontend import received_samples

__all__ = [
    "SerReport",
    "MiEstimate",
    "accumulate_ser",
    "histogram_mi_bits",
    "estimate_mi_dim4",
]


@dataclass(frozen=True)
class SerReport:
    """Per-dimension error counts; dimension 4 excludes the slot-0 pilot."""

    errors: tuple
    trials: tuple
    osnr_db: float = 0.0
    mode: str = ""

    def ser(self, dim: int) -> float:
        return self.errors[dim - 1] / self.trials[dim - 1]


def _indices_array(x) -> np.ndarray:
    if isinstance(x, ReceiverResult):
        return x.indices
    if isinstance(x, np.ndarray):
        return x
    return np.array([(s.rx, s.ry, s.t, s.e) for s in x], dtype=np.int64)


def accumulate_ser(
    truth,
    decisions,
    *,
    osnr_db: float = 0.0,
    mode: str = "",
) -> SerReport:
    """Count per-dimension index mismatches between a truth stream and a
    decision stream (arrays, SymbolIndices sequences, or a ReceiverResult).

    Erased inter-slot decisions (-1) count as errors; slot 0 carries no
    inter-slot information and is excluded from that dimension's trials.
    """
    t = _indices_array(truth)
    d = _indices_array(decisions)
    if t.shape != d.shape:
        raise ValueError("truth and decision streams differ in length or shape")
    n = len(t)
    if n < 2:
        raise ValueError("need at least two slots (slot 0 is the pilot)")
    errors = (
        int((t[:, 0] != d[:, 0]).sum()),
        int((t[:, 1] != d[:, 1]).sum()),
        int((t[:, 2] != d[:, 2]).sum()),
        int((t[1:, 3] != d[1:, 3]).sum()),
    )
    return SerReport(errors, (n, n, n, n - 1), osnr_db, mode)


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


def _genie_terms(constellation, channel, idx_prev, idx_now, eta_idx):
    """OSNR-independent part of the genie statistic for independent context
    draws: the noiseless current x field, the noiseless previous y field, and
    the known gain of the delayed beat, (kx_now, ky_prev, gain)."""
    radii = np.asarray(constellation.radii)
    step = constellation.phase_step
    rxp, ryp, tp = (idx_prev[:, k] for k in range(3))
    rxn, ryn, tn = (idx_now[:, k] for k in range(3))
    # previous slot anchored at arg(E_y') = 0; current slot at arg(E_x) = eta
    ex_prev = radii[rxp] * np.exp(1j * step * tp)
    ey_prev = radii[ryp].astype(complex)
    ex_now = radii[rxn] * np.exp(1j * step * eta_idx)
    ey_now = radii[ryn] * np.exp(1j * step * (eta_idx - tn))
    _, ky_prev = apply_jones(channel, ex_prev, ey_prev)
    kx_now, _ = apply_jones(channel, ex_now, ey_now)
    return kx_now, ky_prev, beat_gain(constellation, channel, idx_prev, idx_now)


def _genie_statistic(kx_now, ky_prev, gain, sigma2, unit):
    """Normalized delayed-beat statistic at one noise level."""
    fx, fy_prev = add_unit_noise(kx_now, ky_prev, sigma2, unit)
    beat = fx * np.conj(fy_prev)  # (w5 + i w6) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return beat / gain


def _dd_statistic(constellation, channel, sigma2, kx, ky, unit):
    """Normalized delayed-beat statistic with decision-directed conditioning:
    the receiver runs on the noiseless fields (kx, ky) of a sequential stream
    plus scaled noise, and its own conditioning gain normalizes the beat."""
    frames = received_samples(kx, ky, sigma2, unit, "full")
    noisy = JonesChannel(channel.a, channel.b, sigma2)
    gain = run_successive_receiver(frames, noisy, constellation).gain
    w56 = frames[1:, 4] + 1j * frames[1:, 5]
    with np.errstate(divide="ignore", invalid="ignore"):
        return w56 / (2.0 * gain)


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

    Per channel draw: uniform contexts and phase indices are sampled, the
    delayed beat is normalized by its known gain, and the plug-in mutual
    information is computed on an ``n_bins`` square grid covering the unit
    circle widened by four empirical noise deviations.  Channel draws, context
    draws, and noise quadratures are held fixed across the grid so that the
    curve is monotone up to estimator noise, and each point equals the same
    OSNR computed alone.

    Channels are processed one at a time, so only one channel's arrays are
    alive at once.  The terms that do not depend on the OSNR (noiseless
    fields, the genie gain, the reference phasors) are computed once per
    channel; each OSNR point then adds its scaled noise and histograms into
    per-OSNR accumulators (pooled counts, per-channel bits and boxes).

    ``context`` selects the conditioning: "genie" (default) normalizes by the
    gain of the true per-slot values; "decision-directed" runs the receiver on
    a sequential stream and normalizes by the gain of its own decisions.
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
        channel = haar_random_channel(_rng(seed, c, 0))
        data_rng = _rng(seed, c, 1)
        if context == "genie":
            idx_prev = draw_indices(data_rng, constellation, m, columns=3)
            idx_now = draw_indices(data_rng, constellation, m, columns=3)
            eta_idx = data_rng.integers(0, nph, m)
            unit = _rng(seed, c, 2).standard_normal((m, 4))
            kx_now, ky_prev, gain = _genie_terms(
                constellation, channel, idx_prev, idx_now, eta_idx
            )
        else:
            # one sequential stream per channel; slot 0 is the pilot
            idx = draw_indices(data_rng, constellation, m + 1)
            idx[0] = astuple(PILOT)
            unit = _rng(seed, c, 2).standard_normal((m + 1, 4))
            eta_idx = idx[1:, 3]
            kx, ky = apply_jones(channel, *encode_indices(constellation, idx))
        reference = np.exp(1j * constellation.phase_step * eta_idx)

        for k, sigma2 in enumerate(sigma2s):
            if context == "genie":
                stat = _genie_statistic(kx_now, ky_prev, gain, sigma2, unit)
            else:
                stat = _dd_statistic(constellation, channel, sigma2, kx, ky, unit)
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
