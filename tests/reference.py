"""Reference implementations that the library's fast kernels are tested
against.  They favour the plainest form of each formula over speed: the
per-slot (scalar) forms of the encoder, channel, front-end and detectors whose
block (array) forms make up the library."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from stokesdd.channel import JonesChannel, apply_jones
from stokesdd.constellation import (
    TWO_PI,
    DualPolSymbol,
    RingPskConstellation,
    SymbolIndices,
    encode_indices,
)
from stokesdd.detection import (
    ERASURE_TOL,
    context_vectors,
    gaussian_stats_dim4,
    gaussian_stats_dims123,
)


def hypothesis_stats(channel: JonesChannel, constellation: RingPskConstellation):
    """Per-slot hypotheses (H, 3) of (ring_x, ring_y, intra-phase) in
    rx-major order, with the mean (H, 4) and covariance (H, 4, 4) of
    (w1, w2, w3, w4) under each."""
    radii = np.asarray(constellation.radii)
    rx, ry, t = np.meshgrid(
        np.arange(constellation.n_rings),
        np.arange(constellation.n_rings),
        np.arange(constellation.n_phases),
        indexing="ij",
    )
    ex = radii[rx.ravel()].astype(complex)
    ey = radii[ry.ravel()] * np.exp(-1j * constellation.phase_step * t.ravel())
    kx, ky = apply_jones(channel, ex, ey)
    stats = gaussian_stats_dims123(kx, ky, channel.sigma2)
    triples = np.stack([rx.ravel(), ry.ravel(), t.ravel()], axis=1)
    return triples, stats.mean, stats.cov


def einsum_bank_scores(means: np.ndarray, covs: np.ndarray, sigma2: float, obs: np.ndarray) -> np.ndarray:
    """Gaussian-surrogate log-likelihood table (n, H) through explicit inverse
    covariances: -0.5 ((w - mu_h)^T C_h^-1 (w - mu_h) + log det C_h), or the
    negative squared distance to each mean at sigma2 = 0."""
    diffs = obs[:, None, :] - means[None, :, :]
    if sigma2 == 0.0:
        return -np.einsum("nhi,nhi->nh", diffs, diffs)
    icovs = np.linalg.inv(covs)
    logdets = np.linalg.slogdet(covs)[1]
    quad = np.einsum("nhi,hij,nhj->nh", diffs, icovs, diffs)
    return -0.5 * (quad + logdets[None, :])


# --- constellation ------------------------------------------------------------

# near-exact distance ties resolve toward the lower index; the tolerance only
# absorbs rounding of analytically-equal distances
_TIE_TOL = 64.0 * np.finfo(float).eps


def wrap_angle(phi):
    """Wrap angles to [-pi, pi)."""
    return (np.asarray(phi) + math.pi) % TWO_PI - math.pi


def encode_sequence(
    constellation: RingPskConstellation,
    indices: Sequence[SymbolIndices],
    initial_ey_phase: float = 0.0,
) -> list[DualPolSymbol]:
    """Encode a sequence of index tuples into dual-polarization fields."""
    idx = np.array([(s.rx, s.ry, s.t, s.e) for s in indices], dtype=np.int64)
    ex, ey = encode_indices(constellation, idx, initial_ey_phase)
    return [DualPolSymbol(complex(x), complex(y)) for x, y in zip(ex, ey)]


def dimension_values(symbol: DualPolSymbol, prev: DualPolSymbol | None = None):
    """Extract (|E_x|, |E_y|, theta, eta) from fields; eta is None without a
    previous slot."""
    theta = math.atan2((symbol.ex * symbol.ey.conjugate()).imag, (symbol.ex * symbol.ey.conjugate()).real)
    eta = None
    if prev is not None:
        beat = symbol.ex * prev.ey.conjugate()
        eta = math.atan2(beat.imag, beat.real)
    return abs(symbol.ex), abs(symbol.ey), theta, eta


def _first_within(dist: np.ndarray, tol: float) -> np.ndarray:
    dmin = dist.min(axis=-1, keepdims=True)
    return np.asarray(dist <= dmin + tol).argmax(axis=-1)


def nearest_indices_block(constellation: RingPskConstellation, ex_mag, ey_mag, theta, eta):
    """Vectorized hard decision; returns an (n, 4) index array."""
    ex_mag = np.atleast_1d(np.asarray(ex_mag, dtype=float))
    ey_mag = np.atleast_1d(np.asarray(ey_mag, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    radii = np.asarray(constellation.radii)
    step = constellation.phase_step
    grid = step * np.arange(constellation.n_phases)

    mag_tol = _TIE_TOL * max(1.0, radii[-1])
    ang_tol = _TIE_TOL * TWO_PI
    out = np.empty((len(ex_mag), 4), dtype=np.int64)
    out[:, 0] = _first_within(np.abs(ex_mag[:, None] - radii[None, :]), mag_tol)
    out[:, 1] = _first_within(np.abs(ey_mag[:, None] - radii[None, :]), mag_tol)
    out[:, 2] = _first_within(np.abs(wrap_angle(theta[:, None] - grid[None, :])), ang_tol)
    out[:, 3] = _first_within(np.abs(wrap_angle(eta[:, None] - grid[None, :])), ang_tol)
    return out


def nearest_indices(
    constellation: RingPskConstellation,
    ex_mag: float,
    ey_mag: float,
    theta: float,
    eta: float,
) -> SymbolIndices:
    """Hard decision: nearest ring per magnitude, circularly nearest phase per
    angle, near-exact ties toward the lower index."""
    if ex_mag < 0 or ey_mag < 0:
        raise ValueError("magnitudes must be nonnegative")
    row = nearest_indices_block(constellation, ex_mag, ey_mag, theta, eta)[0]
    return SymbolIndices(int(row[0]), int(row[1]), int(row[2]), int(row[3]))


# --- channel ------------------------------------------------------------------


def propagate(channel: JonesChannel, symbol: DualPolSymbol, rng: np.random.Generator):
    """Pass one symbol through the channel; returns (noisy, noiseless) fields."""
    kx, ky = apply_jones(channel, symbol.ex, symbol.ey)
    s = math.sqrt(channel.sigma2)
    g = rng.standard_normal(4)
    noisy = DualPolSymbol(kx + s * complex(g[0], g[1]), ky + s * complex(g[2], g[3]))
    return noisy, DualPolSymbol(complex(kx), complex(ky))


# --- front-end ----------------------------------------------------------------


@dataclass(frozen=True)
class FrontendOutputs:
    """Full-variant samples for one slot."""

    w1: float
    w2: float
    w3: float
    w4: float
    w5: float
    w6: float
    n: int = 0

    def as_array(self) -> np.ndarray:
        return np.array([self.w1, self.w2, self.w3, self.w4, self.w5, self.w6])


@dataclass(frozen=True)
class ReducedFrontendOutputs:
    """Reduced-variant (single-photodiode) samples for one slot."""

    w1: float
    w2: float
    w3p: float
    w4p: float
    w5p: float
    w6p: float
    n: int = 0

    def as_array(self) -> np.ndarray:
        return np.array([self.w1, self.w2, self.w3p, self.w4p, self.w5p, self.w6p])


def frontend_full(f_now: DualPolSymbol, f_prev: DualPolSymbol, n: int = 0) -> FrontendOutputs:
    """Direct intensities plus both beat pairs for one slot."""
    p_now = f_now.ex * f_now.ey.conjugate()
    p_del = f_now.ex * f_prev.ey.conjugate()
    return FrontendOutputs(
        abs(f_now.ex) ** 2,
        abs(f_now.ey) ** 2,
        2.0 * p_now.real,
        2.0 * p_now.imag,
        2.0 * p_del.real,
        2.0 * p_del.imag,
        n,
    )


def frontend_reduced(f_now: DualPolSymbol, f_prev: DualPolSymbol, n: int = 0) -> ReducedFrontendOutputs:
    """Single-photodiode hybrid ports: each port sums the two input intensities
    and half of one beat sample.  The delayed ports mix F_x[n] with F_y[n-1]."""
    ix = abs(f_now.ex) ** 2
    iy = abs(f_now.ey) ** 2
    iy_prev = abs(f_prev.ey) ** 2
    p_now = f_now.ex * f_now.ey.conjugate()
    p_del = f_now.ex * f_prev.ey.conjugate()
    return ReducedFrontendOutputs(
        ix,
        iy,
        ix + iy + p_now.real,
        ix + iy + p_now.imag,
        ix + iy_prev + p_del.real,
        ix + iy_prev + p_del.imag,
        n,
    )


def recover_full(reduced: ReducedFrontendOutputs, w2_prev: float) -> FrontendOutputs:
    """Invert the reduced-port affine relations; w2_prev is |F_y[n-1]|^2 from
    the previous slot."""
    w3 = 2.0 * (reduced.w3p - reduced.w1 - reduced.w2)
    w4 = 2.0 * (reduced.w4p - reduced.w1 - reduced.w2)
    w5 = 2.0 * (reduced.w5p - reduced.w1 - w2_prev)
    w6 = 2.0 * (reduced.w6p - reduced.w1 - w2_prev)
    return FrontendOutputs(reduced.w1, reduced.w2, w3, w4, w5, w6, reduced.n)


# --- detection ----------------------------------------------------------------


@dataclass
class Decision:
    """Per-slot decision; the inter-slot index of ``indices`` and the field
    attributes are finalized by the successive pass."""

    indices: SymbolIndices
    e_now: Optional[DualPolSymbol] = None  # reconstructed transmit fields
    k_now: Optional[DualPolSymbol] = None  # fields after the (estimated) rotation
    log_likelihoods: Optional[np.ndarray] = None


def detect_dims123(obs, channel: JonesChannel, constellation: RingPskConstellation) -> Decision:
    """Gaussian-surrogate ML decision of the three per-slot dimensions for one
    observation (a FrontendOutputs or a length-4 array of w1..w4), scored
    through the explicit inverse covariances of ``einsum_bank_scores``."""
    if isinstance(obs, FrontendOutputs):
        vec = np.array([obs.w1, obs.w2, obs.w3, obs.w4])
    else:
        vec = np.asarray(obs, dtype=float)[:4]
    triples, means, covs = hypothesis_stats(channel, constellation)
    scores = einsum_bank_scores(means, covs, channel.sigma2, vec[None, :])[0]
    h = int(scores.argmax())  # ties resolve to the lowest hypothesis index
    rx, ry, t = (int(v) for v in triples[h])
    ex = complex(constellation.radii[rx])
    ey = constellation.radii[ry] * cmath.exp(-1j * constellation.phase_step * t)
    kx, ky = apply_jones(channel, ex, ey)
    return Decision(
        SymbolIndices(rx, ry, t, 0),
        e_now=DualPolSymbol(ex, ey),
        k_now=DualPolSymbol(complex(kx), complex(ky)),
        log_likelihoods=scores,
    )


def detect_dim4(
    w5: float,
    w6: float,
    decided_now: Decision,
    decided_prev: Decision,
    channel: JonesChannel,
    constellation: RingPskConstellation,
) -> Optional[int]:
    """Successive decision of the inter-slot phase index for one slot.

    Builds candidate transmit fields from the decided per-slot dimensions and
    the previous slot's reconstructed fields, maps them through the rotation,
    and scores (w5, w6) under the Gaussian surrogate.  Returns None when the
    beat mean vanishes (the hypotheses coincide: an erasure).
    """
    prev = decided_prev.e_now
    if prev is None:
        raise ValueError("decided_prev must carry reconstructed transmit fields")
    radii = constellation.radii
    step = constellation.phase_step
    idx = decided_now.indices
    mag_x = radii[idx.rx]
    mag_y = radii[idx.ry]
    base = cmath.phase(prev.ey)
    ky_prev = -channel.b.conjugate() * prev.ex + channel.a.conjugate() * prev.ey
    obs = np.array([w5, w6])
    best = None
    best_score = -math.inf
    for cand in range(constellation.n_phases):
        phase_x = base + cand * step
        ex = mag_x * cmath.exp(1j * phase_x)
        ey = mag_y * cmath.exp(1j * (phase_x - idx.t * step))
        kx = channel.a * ex + channel.b * ey
        if cand == 0 and 2.0 * abs(kx) * abs(ky_prev) < ERASURE_TOL:
            return None
        stats = gaussian_stats_dim4(kx, ky_prev, channel.sigma2)
        var = stats.cov[0, 0]
        dist2 = float(((obs - stats.mean) ** 2).sum())
        score = -dist2 if var == 0.0 else -0.5 * dist2 / var - math.log(var)
        if score > best_score:
            best_score = score
            best = cand
    return best


def ell_vector(channel: JonesChannel) -> np.ndarray:
    """Coefficients of the four transmit beat terms in F_x[n]F_y*[n-1]:
    (a^2, -b^2, -ab, ab) applied to
    (E_xE_y'*, E_yE_x'*, E_xE_x'*, E_yE_y'*), primes denoting slot n-1."""
    a, b = channel.a, channel.b
    return np.array([a * a, -b * b, -a * b, a * b])


def ell_gain(constellation: RingPskConstellation, channel: JonesChannel, prev, now) -> np.ndarray:
    """The paper's expanded form ell^T v of the delayed-beat gain of
    (previous, current) pairs, (n, 3) index arrays each."""
    return context_vectors(constellation, prev, now) @ ell_vector(channel)


def nearest_phase_argmin(w56: np.ndarray, gain: np.ndarray, constellation: RingPskConstellation) -> np.ndarray:
    """Inter-slot decision by an (n, n_phases) table of squared distances to
    the candidate means 2*gain*exp(i*c*step); ties go to the lowest index."""
    phases = np.exp(1j * constellation.phase_step * np.arange(constellation.n_phases))
    dist = np.abs(w56[:, None] - 2.0 * gain[:, None] * phases[None, :]) ** 2
    return dist.argmin(axis=1)


def frames_to_array(frames) -> np.ndarray:
    if isinstance(frames, np.ndarray):
        return frames
    return np.array([f.as_array() for f in frames])


# --- rate ---------------------------------------------------------------------


def genie_pair_terms(constellation, channel, idx_prev, idx_now, eta_idx):
    """Genie beat terms of independent (previous, current) context draws, the
    rate's genie path before it read the sweep's keyed stream: the noiseless
    current x field, the noiseless previous y field, and the known gain of the
    delayed beat in its expanded form ``ell_gain``, (kx_now, ky_prev, gain).
    ``idx_prev``/``idx_now`` are (n, 3) arrays of (rx, ry, t)."""
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
    return kx_now, ky_prev, ell_gain(constellation, channel, idx_prev, idx_now)
