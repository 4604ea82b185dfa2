"""Channel estimation, Gaussian-approximated ML detection of the per-slot
dimensions, and successive detection of the inter-slot phase dimension.

The photocurrents are quadratic in the received fields, so their conditional
law under additive complex Gaussian noise is not Gaussian.  The detectors use
a Gaussian surrogate with the exact conditional mean and covariance, which are
available in closed form given the noiseless received fields (K_x, K_y):

    E[w1] = 2s + |K_x|^2,   E[w2] = 2s + |K_y|^2,
    E[w3 + i w4] = 2 K_x K_y*,
    Var(w1) = 4s^2 + 4s|K_x|^2,  Var(w3) = Var(w4) = 8s^2 + 4s(|K_x|^2+|K_y|^2),
    Cov(w1, w3) = Cov(w2, w3) = 4s|K_x||K_y|cos(delta), etc.   (s = sigma2)

The delayed beat pair (w5, w6) obeys the same structure with K_y replaced by
the previous slot's K_y, its covariance reducing to a scalar times I_2.

Per-slot detection enumerates all H magnitude/intra-phase hypotheses and
scores each one by the Gaussian log-likelihood
-0.5 (|W_h w - W_h mu_h|^2 + log det C_h), where C_h = L_h L_h^T is the
hypothesis covariance and W_h = L_h^-1 its Cholesky whitening map.  The
hypothesis bank lays every W_h out side by side in one planar (4, 4H)
matrix, so a slice of slots is scored by one GEMM, a subtraction of the
whitened means, and a sum of the squares of four contiguous H-wide planes.
At sigma2 = 0 the covariances vanish and the rule becomes the nearest mean.

The inter-slot phase is then detected successively, conditioned on those
decisions and on the previous slot (its decided values, or the true ones in
genie mode).  The gain of each slot's candidate means is one product of
noiseless fields, K_x[n] K_y*[n-1], of the conditioning stream with each
slot's phase anchored (``beat_gain``); the rate estimate applies the same
kernel.  The candidate means 2*gain*exp(i*c*step) share one isotropic
covariance and one modulus, so the nearest mean is the phase of
w56*conj(gain) rounded to the grid: a few operations per slot.

Every stage works on a whole frame: the receiver takes the (n, 6) samples,
whose slot 0 is ``PILOT``, and returns (n, 4) indices with the gain it
conditioned on; training passes the (3, 6) averaged pilot samples.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import JonesChannel, apply_jones, channel_from_pair, stokes_vector
from .constellation import DualPolSymbol, RingPskConstellation, SymbolIndices
from .frontend import received_samples

# below this beat-mean amplitude the inter-slot phase hypotheses coincide and
# the slot is flagged as an erasure
ERASURE_TOL = 1e-12

# slots per scoring slice: the slice's (rows, 4H) block of whitened
# residuals is 1 MiB at H = 256, so it stays in a 2 MiB per-core L2 cache,
# and each slice still spreads its half-dozen numpy calls over 128 slots
SCORE_SLICE_ROWS = 128


@dataclass
class GaussianStats:
    """Mean vector and covariance of an observation block conditioned on the
    noiseless received fields."""

    mean: np.ndarray
    cov: np.ndarray


def _stats123(kx, ky, sigma2):
    ax2 = np.abs(kx) ** 2
    ay2 = np.abs(ky) ** 2
    cross = kx * np.conj(ky)  # |K_x||K_y| e^{i delta}
    mean = np.stack(
        [2.0 * sigma2 + ax2, 2.0 * sigma2 + ay2, 2.0 * cross.real, 2.0 * cross.imag],
        axis=-1,
    )
    s4 = 4.0 * sigma2 * sigma2
    c = 4.0 * sigma2
    cov = np.zeros(np.shape(ax2) + (4, 4))
    cov[..., 0, 0] = s4 + c * ax2
    cov[..., 1, 1] = s4 + c * ay2
    cov[..., 2, 2] = 2.0 * s4 + c * (ax2 + ay2)
    cov[..., 3, 3] = cov[..., 2, 2]
    re = c * cross.real
    im = c * cross.imag
    for i in (0, 1):
        cov[..., i, 2] = re
        cov[..., 2, i] = re
        cov[..., i, 3] = im
        cov[..., 3, i] = im
    return mean, cov


def gaussian_stats_dims123(kx: complex, ky: complex, sigma2: float) -> GaussianStats:
    """Exact mean and covariance of (w1, w2, w3, w4) given the noiseless
    received fields of the slot."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    mean, cov = _stats123(np.asarray(kx), np.asarray(ky), sigma2)
    return GaussianStats(mean, cov)


def gaussian_stats_dim4(kx_now: complex, ky_prev: complex, sigma2: float) -> GaussianStats:
    """Exact mean and (isotropic) covariance of (w5, w6) given the current
    X field and the previous slot's Y field."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    cross = np.asarray(kx_now) * np.conj(np.asarray(ky_prev))
    mean = np.stack([2.0 * cross.real, 2.0 * cross.imag], axis=-1)
    var = 8.0 * sigma2 * sigma2 + 4.0 * sigma2 * (
        np.abs(kx_now) ** 2 + np.abs(ky_prev) ** 2
    )
    return GaussianStats(mean, float(var) * np.eye(2))


@dataclass
class _HypothesisBank:
    """Per-(channel, constellation) tables for the per-slot detector."""

    triples: np.ndarray  # (H, 3) in canonical rx-major order
    means: np.ndarray  # (H, 4)
    # the fields below are None at sigma2 = 0, where the nearest mean decides
    # (4, 4H) planar whitening map: column j*H + h is row j of W_h = L_h^-1,
    # so w @ whiten holds the whitened coordinate j of every hypothesis in
    # the contiguous plane [j*H, (j+1)*H)
    whiten: Optional[np.ndarray]
    whitened_means: Optional[np.ndarray]  # (4H,) W_h mu_h in the same layout
    logdets: Optional[np.ndarray]  # (H,) log det C_h = 2 sum log diag L_h


def _slot_fields(constellation: RingPskConstellation, idx: np.ndarray):
    """Transmit fields of (n, 3) rows (rx, ry, t) with the x phase anchored
    at zero: (r_x, r_y e^{-i t step})."""
    radii = np.asarray(constellation.radii)
    ex = radii[idx[:, 0]].astype(complex)
    ey = radii[idx[:, 1]] * np.exp(-1j * constellation.phase_step * idx[:, 2])
    return ex, ey


def _build_bank(channel: JonesChannel, constellation: RingPskConstellation) -> _HypothesisBank:
    nr, nph = constellation.n_rings, constellation.n_phases
    triples = np.array(
        [(rx, ry, t) for rx in range(nr) for ry in range(nr) for t in range(nph)],
        dtype=np.int64,
    )
    # the statistics depend on the hypothesis only through
    # (|K_x|, |K_y|, delta), so the x-phase-anchored fields serve
    kx, ky = apply_jones(channel, *_slot_fields(constellation, triples))
    means, covs = _stats123(kx, ky, channel.sigma2)
    if channel.sigma2 == 0.0:
        return _HypothesisBank(triples, means, None, None, None)
    chol = np.linalg.cholesky(covs)
    inv_chol = np.linalg.inv(chol)  # (H, 4, 4), row j of W_h at [h, j]
    whiten = np.ascontiguousarray(inv_chol.transpose(2, 1, 0).reshape(4, -1))
    whitened_means = np.einsum("hji,hi->jh", inv_chol, means).ravel()
    logdets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return _HypothesisBank(triples, means, whiten, whitened_means, logdets)


def _bank_scores(bank: _HypothesisBank, obs: np.ndarray) -> np.ndarray:
    if bank.whiten is None:
        # degenerate covariance at sigma2 = 0: nearest-mean decision
        diffs = obs[:, None, :] - bank.means[None, :, :]
        return -np.einsum("nhi,nhi->nh", diffs, diffs)
    n, h = len(obs), len(bank.logdets)
    scores = np.empty((n, h))
    resid = np.empty((min(n, SCORE_SLICE_ROWS), 4 * h))
    for start in range(0, n, SCORE_SLICE_ROWS):
        stop = min(start + SCORE_SLICE_ROWS, n)
        z = resid[: stop - start]
        np.matmul(obs[start:stop], bank.whiten, out=z)
        z -= bank.whitened_means
        np.square(z, out=z)
        out = scores[start:stop]
        z.reshape(-1, 4, h).sum(axis=1, out=out)
        out += bank.logdets
        out *= -0.5
    return scores


def detect_dims123_block(obs: np.ndarray, channel: JonesChannel, constellation: RingPskConstellation):
    """Vectorized per-slot detection of (ring_x, ring_y, intra-phase).

    ``obs`` is (n, 4) rows of (w1, w2, w3, w4).  Returns the decided (n, 3)
    index array and the (n, H) log-likelihood table.
    """
    obs = np.asarray(obs, dtype=float)
    bank = _build_bank(channel, constellation)
    scores = _bank_scores(bank, obs)
    best = scores.argmax(axis=1)  # ties resolve to the lowest hypothesis index
    return bank.triples[best], scores


# No library caller since beat_gain took the product of the slots' fields;
# kept while perfbench's tracer lists it by name (see ROADMAP item 6).
def context_vectors(constellation: RingPskConstellation, prev, now) -> np.ndarray:
    """Known-context beat vectors of (previous, current) slot pairs.

    ``prev`` and ``now`` are (n, 3) index arrays of (rx, ry, t); row k of
    the returned (n, 4) matrix collects the transmit beat terms
    (E_xE_y'*, E_yE_x'*, E_xE_x'*, E_yE_y'*) of the pair (prev[k], now[k])
    with the inter-slot phase factored out, primes denoting slot n-1.  Their
    coefficients (a^2, -b^2, -ab, ab) give the beat gain in expanded form.
    """
    radii = np.asarray(constellation.radii)
    step = constellation.phase_step
    prev = np.asarray(prev, dtype=np.int64)
    now = np.asarray(now, dtype=np.int64)
    rxn = radii[now[:, 0]]
    ryn = radii[now[:, 1]]
    rxp = radii[prev[:, 0]]
    ryp = radii[prev[:, 1]]
    thn = step * now[:, 2]
    thp = step * prev[:, 2]
    v = np.empty((len(rxn), 4), dtype=complex)
    v[:, 0] = rxn * ryp
    v[:, 1] = ryn * rxp * np.exp(-1j * (thn + thp))
    v[:, 2] = rxn * rxp * np.exp(-1j * thp)
    v[:, 3] = ryn * ryp * np.exp(-1j * thn)
    return v


def beat_gain(constellation: RingPskConstellation, channel: JonesChannel, idx) -> np.ndarray:
    """Gain multiplying exp(i*eta) in the noiseless delayed beat
    K_x[n] K_y*[n-1] of consecutive slots of one stream.

    ``idx`` is the (n, 3) stream of (rx, ry, t); returns the (n-1,) gains of
    slots 1..n-1.  Each slot's fields are anchored at arg(E_x) = 0, so the
    previous slot's y field is rotated by exp(i*t'*step) to anchor it at
    arg(E_y') = 0, the reference of the inter-slot phase.
    """
    idx = np.asarray(idx, dtype=np.int64)
    kx, ky = apply_jones(channel, *_slot_fields(constellation, idx))
    return kx[1:] * np.conj(ky[:-1] * np.exp(1j * constellation.phase_step * idx[:-1, 2]))


def detect_dim4_block(w56: np.ndarray, gain: np.ndarray, constellation: RingPskConstellation):
    """Vectorized inter-slot phase decision.

    ``w56`` holds w5 + i*w6 per slot (slot 0 excluded), ``gain`` the matching
    beat gains.  The candidate means 2*gain*exp(i*c*step) share one
    covariance and one modulus, so the ML rule is the nearest mean, which is
    the phase of w56*conj(gain) rounded to the grid; erased slots (vanishing
    gain) are marked -1.
    """
    ratio = np.angle(w56 * np.conj(gain)) / constellation.phase_step
    decided = np.rint(ratio).astype(np.int64) % constellation.n_phases
    erased = 2.0 * np.abs(gain) < ERASURE_TOL
    decided[erased] = -1
    return decided, erased


# --- training-based channel estimation -------------------------------------

TRAINING_PILOTS = (
    DualPolSymbol(1.0 + 0.0j, 0.0 + 0.0j),
    DualPolSymbol(1.0 + 0.0j, 1.0 + 0.0j),
    DualPolSymbol(1.0j, 1.0 + 0.0j),
)


@dataclass(frozen=True)
class ChannelEstimate:
    """Rotation estimate with the overall sign fixed canonically; ``residual``
    is the L2 misfit of the averaged training observables."""

    a_hat: complex
    b_hat: complex
    residual: float

    def as_channel(self, sigma2: float) -> JonesChannel:
        return channel_from_pair(self.a_hat, self.b_hat, sigma2)


def run_training(channel: JonesChannel, repeats: int, rng: np.random.Generator) -> np.ndarray:
    """Transmit each training pilot ``repeats`` times and average the
    photocurrents; returns the (3, 6) averaged samples, one row per pilot."""
    if repeats < 1:
        raise ValueError("repeats must be positive")
    averaged = np.empty((len(TRAINING_PILOTS), 6))
    for i, pilot in enumerate(TRAINING_PILOTS):
        ex = np.full(repeats, pilot.ex, dtype=complex)
        ey = np.full(repeats, pilot.ey, dtype=complex)
        kx, ky = apply_jones(channel, ex, ey)
        unit = rng.standard_normal((repeats, 4))
        averaged[i] = received_samples(kx, ky, channel.sigma2, unit, "full").mean(axis=0)
    return averaged


def _canonical_sign(a: complex, b: complex):
    # the overall sign of (a, b) is unobservable; pin the first significant
    # component of (Re a, Im a, Re b, Im b) to be positive
    for val in (a.real, a.imag, b.real, b.imag):
        if abs(val) > 1e-9:
            return (a, b) if val > 0 else (-a, -b)
    return a, b


def estimate_channel(training_obs: np.ndarray) -> ChannelEstimate:
    """Solve for the rotation from the (3, 6) averaged pilot observables of
    ``run_training``, one row (w1..w6) per pilot.

    The beat samples are unbiased: pilot 1 gives -ab, pilots 2 and 3 give
    a^2 - b^2 and i(a^2 + b^2), fixing both squared parameters and their
    relative phase.  The pair is anchored on the larger of a^2, b^2, then
    normalized; intensities enter only through the reported residual.
    """
    training_obs = np.asarray(training_obs)
    if training_obs.shape != (3, 6):
        raise ValueError(
            "expected the (3, 6) averaged observables of the three pilots, "
            f"got shape {training_obs.shape}"
        )
    beats = [complex(o[2], o[3]) / 2.0 for o in training_obs]
    ab = -beats[0]
    a2 = (beats[1] + beats[2] / 1j) / 2.0
    b2 = (beats[2] / 1j - beats[1]) / 2.0
    if abs(a2) >= abs(b2):
        a = cmath.sqrt(a2)
        b = ab / a if abs(a) > 1e-12 else cmath.sqrt(b2)
    else:
        b = cmath.sqrt(b2)
        a = ab / b
    unit = channel_from_pair(a, b)
    a, b = _canonical_sign(unit.a, unit.b)

    model = JonesChannel(a, b, 0.0)
    sq_err = 0.0
    for obs, pilot in zip(training_obs, TRAINING_PILOTS):
        predicted = stokes_vector(*apply_jones(model, pilot.ex, pilot.ey))
        sq_err += float(((obs[:4] - predicted) ** 2).sum())
    return ChannelEstimate(a, b, math.sqrt(sq_err))


def gauge_aligned_error(estimate: ChannelEstimate, channel: JonesChannel) -> float:
    """Worst-component estimation error after resolving the unobservable
    overall sign."""
    errs = []
    for s in (1.0, -1.0):
        errs.append(
            max(abs(s * estimate.a_hat - channel.a), abs(s * estimate.b_hat - channel.b))
        )
    return min(errs)


# --- successive receiver ----------------------------------------------------

# the known symbol in slot 0 of every frame
PILOT = SymbolIndices(0, 0, 0, 0)


@dataclass
class ReceiverResult:
    """Decided index array (n, 4) with per-slot erasure flags, and the (n-1,)
    conditioning gain of slots 1..n-1 that the inter-slot stage used.

    Slot 0 is the pilot: its per-slot dimensions are detected blind like any
    other slot, its inter-slot entry is a placeholder, and the inter-slot
    conditioning chain starts from the known pilot values.
    """

    indices: np.ndarray
    erasures: np.ndarray
    mode: str
    gain: np.ndarray


def run_successive_receiver(
    frames,
    channel: JonesChannel,
    constellation: RingPskConstellation,
    *,
    genie_indices: Optional[np.ndarray] = None,
) -> ReceiverResult:
    """Two-stage detection of a frame: per-slot dimensions first, then the
    inter-slot phase conditioned on the decided (or, in genie mode, true)
    values of the current and previous slot.

    ``frames`` is the (n, 6) array of samples w1..w6; slot 0 must be
    ``PILOT``.  Passing ``genie_indices`` (the true (n, 4) indices)
    replaces the decision-directed conditioning to isolate the last stage from
    error propagation; it must be an integer array with every index inside
    the constellation.
    """
    arr = np.asarray(frames)
    if arr.ndim != 2 or arr.shape[1] != 6 or arr.shape[0] < 2:
        raise ValueError("expected at least two slots of six samples")
    if genie_indices is not None:
        genie = np.asarray(genie_indices)
        if genie.shape != (len(arr), 4) or not np.issubdtype(genie.dtype, np.integer):
            raise ValueError(
                f"genie_indices must be an integer array of shape ({len(arr)}, 4), "
                f"got {genie.dtype} {genie.shape}"
            )
        nr, nph = constellation.n_rings, constellation.n_phases
        if (genie < 0).any() or (genie >= (nr, nr, nph, nph)).any():
            raise ValueError(
                "genie_indices out of range: (rx, ry, t, e) must lie in "
                f"[0, {nr}) x [0, {nr}) x [0, {nph}) x [0, {nph})"
            )
    obs123 = arr[:, :4]
    w56 = arr[:, 4] + 1j * arr[:, 5]
    # drop the (n, H) score table now, not at return: kept alive through the
    # dim-4 stage, its freed block is split by the next call's arrays, and
    # whether the next table then grows the heap depends on heap layout alone
    decided = detect_dims123_block(obs123, channel, constellation)[0]

    if genie_indices is not None:
        cond = genie[:, :3].astype(np.int64)
        mode = "genie"
    else:
        cond = decided.copy()
        cond[0] = (PILOT.rx, PILOT.ry, PILOT.t)
        mode = "decision-directed"

    gain = beat_gain(constellation, channel, cond)
    eta, erased = detect_dim4_block(w56[1:], gain, constellation)

    out = np.empty((len(arr), 4), dtype=np.int64)
    out[:, :3] = decided
    out[0, 3] = 0
    out[1:, 3] = eta
    erasures = np.zeros(len(arr), dtype=bool)
    erasures[1:] = erased
    return ReceiverResult(out, erasures, mode, gain)
