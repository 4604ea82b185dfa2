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
used, so the two differ only by the receiver's decision errors.  As every
OSNR point scales the same unit noise draws, the noisy beat is a quadratic in
the noise deviation s = sqrt(sigma2), b0 + s*b1 + s**2*b2, whose three
coefficient arrays depend only on the channel draw: they are formed once per
channel, and each point evaluates the quadratic in place.  The normalized
values are histogrammed on a square grid.

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
from .frontend import received_samples

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
    bins, so the joint histogram accounts for every sample: NaN joins +inf at
    the upper edge.  Labels must lie in [0, n_labels).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_labels):
        raise ValueError(
            f"labels must lie in [0, {n_labels}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    h = max(box_halfwidth, 1e-12)
    # grid coordinates of (re, im), one working (n, 2) array scaled in place
    cells = np.ascontiguousarray(values, dtype=complex).view(np.float64).reshape(-1, 2) + h
    with np.errstate(over="ignore", invalid="ignore"):  # a coordinate may pass the float range
        cells /= 2.0 * h
        cells *= n_bins
        if not math.isfinite(cells.sum()):  # a NaN, an infinity or only a large sum
            np.nan_to_num(cells, copy=False, nan=n_bins)
    # clipped before the cast: a coordinate past the int64 range keeps its edge
    np.clip(cells, 0, n_bins - 1, out=cells)
    ij = cells.astype(np.int64)
    flat = labels * n_bins
    flat += ij[:, 0]
    flat *= n_bins
    flat += ij[:, 1]
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


def _beat_coefficients(kx, ky, unit):
    """The noisy delayed beat of a frame as a quadratic in s = sqrt(sigma2):
    with ``fx, fy = add_unit_noise(kx, ky, sigma2, unit)``,
    fx[1:] * conj(fy[:-1]) = b0 + s*b1 + s**2*b2.  Returns the (n-1,) complex
    arrays (b0, b1, b2); b0 is the noiseless beat, bit for bit."""
    ux = unit[1:, 0] + 1j * unit[1:, 1]
    uy_prev = unit[:-1, 2] - 1j * unit[:-1, 3]  # conj of the previous slot's y noise
    b2 = ux * uy_prev
    b1 = kx[1:] * uy_prev
    del uy_prev  # each temporary goes as soon as it is used: they set the sweep's peak RSS
    ky_prev = np.conj(ky[:-1])
    ux *= ky_prev
    b1 += ux
    del ux
    return kx[1:] * ky_prev, b1, b2


def _noise_deviation(residual) -> float:
    """Per-quadrature RMS of the complex ``residual``."""
    power = np.abs(residual)
    np.square(power, out=power)
    return math.sqrt(power.mean() / 2.0)


def estimate_mi_dim4(config: ExperimentConfig, key: int) -> np.ndarray:
    """Plug-in inter-slot phase rate of channel draw ``key`` at each point of
    ``config.osnr_grid()``: the rate sweep's per-channel kernel, an
    (n_osnr,) float array of bits.

    One keyed frame of ceil(n_samples / n_channels) + 1 slots is drawn
    (``draw_frame``; slot 0 is the pilot), the delayed beat of each later slot
    is normalized by its known gain, and the plug-in mutual information is
    computed on an ``n_bins`` square grid covering the unit circle widened by
    four empirical noise deviations.  Every OSNR point adds its scaled noise
    to the same unit draws, so the noisy beat is the quadratic
    b0 + s*b1 + s**2*b2 in s = sqrt(sigma2) (``_beat_coefficients``), formed
    once per channel and evaluated at each point by Horner's rule.  The curve
    is therefore monotone up to estimator noise, and each point equals the
    same OSNR computed alone.

    ``config.rate_context`` selects the conditioning: "genie" divides the
    coefficients once by the gain of the true per-slot values; "decision-
    directed" runs the receiver on the frame's ``received_samples`` at each
    point and divides the point's beat by the gain of its own decisions.  The
    config is taken as validated.
    """
    constellation = build_constellation(config.n_rings, config.n_phases)
    m = -(-config.n_samples // config.n_channels)  # ceil: per-channel sample count
    channel, idx, kx, ky, unit = draw_frame(constellation, config.seed, key, m + 1)
    eta_idx = idx[1:, 3]
    reference = phasor_table(constellation)[eta_idx]
    coefficients = _beat_coefficients(kx, ky, unit)
    genie = config.rate_context == "genie"
    if genie:
        gain = beat_gain(constellation, channel, idx[:, :3])
        # divided, not multiplied by 1/gain: where s*b1 falls below b0's last
        # bit (past ~300 dB) the statistic is then the noiseless beat over its
        # gain, correctly rounded, and samples on a bin edge keep their side
        with np.errstate(divide="ignore", invalid="ignore"):
            for b in coefficients:
                np.divide(b, gain, out=b)
        del kx, ky, unit, gain  # only the decision-directed receiver reads the frame again
    b0, b1, b2 = (b.view(np.float64) for b in coefficients)

    grid = config.osnr_grid()
    bits = np.empty(len(grid))
    for k, osnr_db in enumerate(grid):
        sigma2 = osnr_to_sigma2(osnr_db)
        s = math.sqrt(sigma2)
        horner = b2 * s  # real arithmetic on the (re, im) pairs: s is real
        horner += b1
        horner *= s
        horner += b0
        stat = horner.view(complex)
        if not genie:
            # the frame's samples are a temporary, freed as the receiver returns
            gain = run_successive_receiver(
                received_samples(kx, ky, sigma2, unit, "full"),
                JonesChannel(channel.a, channel.b, sigma2),
                constellation,
            ).gain
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(stat, gain, out=stat)
        sigma_w = _noise_deviation(stat - reference)
        bits[k] = histogram_mi_bits(
            eta_idx, stat, constellation.n_phases, config.n_bins, 1.0 + 4.0 * sigma_w
        )
    return bits
