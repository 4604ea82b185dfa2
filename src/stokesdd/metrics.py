"""Per-dimension symbol-error accumulation and plug-in mutual-information
estimation for the inter-slot phase subchannel.

The rate of the inter-slot dimension is estimated as the discrete mutual
information between the uniform phase index and the delayed beat observable,
normalized by its known complex gain so that every conditioning context shares
one statistic near the unit circle.  Both contexts read the same keyed frame
per channel draw (``draw_frame``, the frame of the SER sweep): a pilot-led
stream whose consecutive slots are the (previous, current) pairs, and its
noise (``frame_noise``), drawn apart so that it exists only while the
coefficients are formed.  The genie context takes the gain of the true
contexts from the receiver's beat-gain kernel; the decision-directed context
runs the receiver and reads the gain it used, so the two differ only by the
receiver's decision errors.  Each point reads its noisy samples from
``frontend``'s coefficients of the frame, formed once per channel: the genie
context only the delayed beat's, the decision-directed context the whole table
its receiver needs.  The genie context forms
its gain before the noise is drawn, and the noise is freed inside
``beat_coefficients``, so no step of a channel's set-up holds more memory
than its points do and each channel reuses the heap pages the last one
freed.  The normalized values are histogrammed on a square grid, the labels
checked and offset once per channel.

``estimate_mi_dim4(config, key)`` is the rate sweep's per-channel kernel, as
``_ser_block`` is the SER sweep's per-block one: it returns one channel's
plug-in bits at every OSNR point, and the sweep averages them over channels.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import JonesChannel, apply_jones, haar_random_channel, osnr_to_sigma2
from .config import ExperimentConfig
from .constellation import RingPskConstellation, build_constellation, draw_indices, encode_indices, phasor_table
from .detection import PILOT, beat_gain, run_successive_receiver
from .frontend import beat_coefficients, evaluate_samples, horner, sample_coefficients

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
    # one count per column: count_nonzero of a strided bool column is ~5x
    # faster than an int64 sum over axis 0, and the same integers
    return np.array([np.count_nonzero(mismatch[:, k]) for k in range(4)], dtype=np.int64)


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
    bins, so the joint histogram accounts for every sample: NaN joins +inf at
    the upper edge.  Labels must be integers (not bool) in [0, n_labels).
    """
    return _LabelBins(labels, n_labels, n_bins).mi_bits(values, box_halfwidth)


class _LabelBins:
    """Integer labels in [0, n_labels), checked once, with their bin offsets
    and the work arrays of one binning: every histogram of the same labels
    (``mi_bits``) reuses them.  The work arrays ``cells`` (n, 2) and
    ``flat`` (n,) hold nothing between calls, so a caller may borrow them."""

    def __init__(self, labels, n_labels: int, n_bins: int):
        labels = np.asarray(labels)
        if labels.dtype.kind not in "iu":  # a float label would be truncated into a bin
            raise ValueError(f"labels must be integers, got a {labels.dtype} array")
        if labels.size and (labels.min() < 0 or labels.max() >= n_labels):
            raise ValueError(f"labels must lie in [0, {n_labels}), got range [{labels.min()}, {labels.max()}]")
        self.n_labels, self.n_bins = n_labels, n_bins
        self.offsets = np.multiply(labels, n_bins, dtype=np.int64)
        self.cells = np.empty((labels.size, 2))  # grid coordinates of (re, im)
        self.ij = np.empty((labels.size, 2), dtype=np.int64)
        self.flat = np.empty_like(self.offsets)

    def mi_bits(self, values, box_halfwidth: float) -> float:
        """``histogram_mi_bits`` of these labels and ``values``."""
        n_bins = self.n_bins
        h = max(box_halfwidth, 1e-12)
        cells, ij, flat = self.cells, self.ij, self.flat
        np.add(np.ascontiguousarray(values, dtype=complex).view(np.float64).reshape(-1, 2), h, out=cells)
        with np.errstate(over="ignore", invalid="ignore"):  # a coordinate may pass the float range
            cells /= 2.0 * h
            cells *= n_bins
            if not math.isfinite(cells.sum()):  # a NaN, an infinity or only a large sum
                np.nan_to_num(cells, copy=False, nan=n_bins)
        # clipped before the cast: a coordinate past the int64 range keeps its edge
        np.clip(cells, 0, n_bins - 1, out=cells)
        np.copyto(ij, cells, casting="unsafe")
        np.add(self.offsets, ij[:, 0], out=flat)
        flat *= n_bins
        flat += ij[:, 1]
        counts = np.bincount(flat, minlength=self.n_labels * n_bins * n_bins).reshape(
            self.n_labels, n_bins, n_bins
        )
        return _mi_from_counts(counts)


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Keyed stream: (seed, key) names one independent generator."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def draw_frame(constellation: RingPskConstellation, seed: int, key: int, n: int):
    """One keyed Monte Carlo frame of ``n`` slots without its noise: the Haar
    channel, the (n, 4) indices with slot 0 pinned to ``PILOT`` and the
    noiseless received fields, ``(channel, idx, kx, ky)``; streams
    (seed, key, 0/1).  ``frame_noise`` draws the frame's noise."""
    channel = haar_random_channel(_rng(seed, key, 0))
    idx = draw_indices(_rng(seed, key, 1), constellation, n)
    idx[0] = PILOT
    kx, ky = apply_jones(channel, *encode_indices(constellation, idx))
    return channel, idx, kx, ky


def frame_noise(seed: int, key: int, n: int) -> np.ndarray:
    """The (n, 4) unit noise quadratures of the frame ``draw_frame`` draws
    for the same (seed, key, n); stream (seed, key, 2).  Callers pass it
    straight into their coefficient builder, so it lives no longer than that
    call needs it."""
    return _rng(seed, key, 2).standard_normal((n, 4))


def _noise_deviation(residual, power) -> float:
    """Per-quadrature RMS of the complex ``residual``; ``power`` is a real
    work array of its shape."""
    np.abs(residual, out=power)
    np.square(power, out=power)
    return math.sqrt(power.mean() / 2.0)


def estimate_mi_dim4(config: ExperimentConfig, key: int) -> np.ndarray:
    """Plug-in inter-slot phase rate of channel draw ``key`` at each point of
    ``config.osnr_grid()``: the rate sweep's per-channel kernel, an
    (n_osnr,) float array of bits.

    One keyed frame of ceil(n_samples / n_channels) + 1 slots is drawn
    (``draw_frame`` and ``frame_noise``; slot 0 is the pilot), the delayed
    beat of each later slot is normalized by its known gain, and the plug-in
    mutual information is computed on an ``n_bins`` square grid covering the
    unit circle widened by four empirical noise deviations.  Every point
    evaluates coefficients formed once per channel (``frontend``), so the
    curve is monotone up to estimator noise, and each point equals the same
    OSNR computed alone.  The labels are checked and given their bin offsets
    once per channel, and the points share their work arrays.

    ``config.rate_context`` selects the conditioning: "genie" divides the
    beat's ``beat_coefficients`` once by the gain of the true per-slot values;
    "decision-directed" runs the receiver on the frame's samples at each point
    and divides their beat by the gain of its own decisions.
    """
    constellation = build_constellation(config.n_rings, config.n_phases)
    m = -(-config.n_samples // config.n_channels)  # ceil: per-channel sample count
    channel, idx, kx, ky = draw_frame(constellation, config.seed, key, m + 1)
    genie = config.rate_context == "genie"
    if genie:
        # no step of the set-up holds more than the points will: the gain is
        # formed while the frame is all that is live, the (m + 1, 4) stream
        # goes before the noise is drawn, and the noise, passed unbound, goes
        # inside ``beat_coefficients``.  Each channel then reuses the pages
        # the last one freed instead of faulting in fresh ones
        gain = beat_gain(constellation, channel, idx[:, :3])
        eta_idx = idx[1:, 3].copy()
        del idx
        coefficients = beat_coefficients(kx, ky, frame_noise(config.seed, key, m + 1))
        del kx, ky
        # divided, not multiplied by 1/gain: where s*b1 falls below b0's last
        # bit (past ~300 dB) the statistic is then the noiseless beat over its
        # gain, correctly rounded, and samples on a bin edge keep their side
        with np.errstate(divide="ignore", invalid="ignore"):
            for b in coefficients:
                np.divide(b, gain, out=b)
        del gain
        coefficients = [b.view(np.float64) for b in coefficients]  # s is real: (re, im) pairs
    else:
        eta_idx = idx[1:, 3]
        table = sample_coefficients(kx, ky, frame_noise(config.seed, key, m + 1))
        del kx, ky  # the table holds all the sweep reads of the frame's fields and noise
    reference = phasor_table(constellation)[eta_idx]

    # the labels are checked and offset once; each point overwrites the
    # statistic, its residual, its power and the binning's work arrays.  The
    # residual and its power are spent before each binning, so they borrow
    # its work arrays: the sweep's peak RSS is set by these arrays
    bins = _LabelBins(eta_idx, constellation.n_phases, config.n_bins)
    stat = np.empty(m, dtype=complex)
    residual = bins.cells.view(complex)[:, 0]
    power = bins.flat.view(np.float64)
    grid = config.osnr_grid()
    bits = np.empty(len(grid))
    for k, osnr_db in enumerate(grid):
        sigma2 = osnr_to_sigma2(osnr_db)
        if genie:
            horner(coefficients, math.sqrt(sigma2), out=stat.view(np.float64))
        else:
            samples = evaluate_samples(table, sigma2, "full")
            gain = run_successive_receiver(samples, JonesChannel(channel.a, channel.b, sigma2), constellation).gain
            # (w5 + i w6) / 2 is the beat, formed from the samples' two
            # contiguous columns as the receiver forms it; the power of two
            # scales exactly
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(samples[1:, 4] + 1j * samples[1:, 5], 2.0 * gain, out=stat)
        np.subtract(stat, reference, out=residual)
        sigma_w = _noise_deviation(residual, power)
        bits[k] = bins.mi_bits(stat, 1.0 + 4.0 * sigma_w)
    return bits
