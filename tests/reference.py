"""Reference implementations that the library's fast kernels are tested
against.  They favour the plainest form of each formula over speed: the
per-slot (scalar) forms of the encoder, channel, front-end and detectors whose
block (array) forms make up the library, the per-slot records they pass
(``DualPolSymbol``, ``SymbolIndices``), the 4x4 matrix ``stokes_matrix``
by which the rotation acts on the observables, the exact two-slot moments of
the six samples (``gauss_hermite_moments``) and the surrogate's closed forms
for them (``two_slot_moments``), the exact moments of the averaged training
pilots (``training_moments``), both by quadrature through the library's own
functions, the encoder as exponentials of its running phase
(``encode_exp``), the reduced front-end's block maps as they broadcast
intensity columns over column pairs (``broadcast_reduced_block``,
``broadcast_recover_full_block``), the noisy samples of the rebuilt noisy fields
(``field_samples``), the rate kernel as it rebuilt the noisy fields at
every OSNR point (``field_rate_curve``), training as it trained one point
per call (``single_point_training``), and the SER counts as one integer sum
of the mismatch table over its rows (``summed_ser_counts``)."""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from stokesdd.channel import JonesChannel, add_unit_noise, apply_jones, osnr_to_sigma2, stokes_vector
from stokesdd.config import ExperimentConfig
from stokesdd.constellation import TWO_PI, RingPskConstellation, build_constellation
from stokesdd.detection import (
    ERASURE_TOL,
    TRAINING_PILOTS,
    beat_gain,
    context_vectors,
    gaussian_stats_dims123,
    run_successive_receiver,
    run_training,
)
from stokesdd.frontend import frontend_full_block, received_samples
from stokesdd.metrics import _mi_from_counts, draw_frame


@dataclass(frozen=True)
class DualPolSymbol:
    """Complex field pair on the X and Y polarizations of one slot."""

    ex: complex
    ey: complex


@dataclass(frozen=True)
class SymbolIndices:
    """Index tuple selecting one point in the four information dimensions."""

    rx: int  # ring of |E_x|
    ry: int  # ring of |E_y|
    t: int   # grid index of arg(E_x E_y*), intra-slot
    e: int   # grid index of arg(E_x[n] E_y*[n-1]), inter-slot


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
    means, covs = gaussian_stats_dims123(kx, ky, channel.sigma2)
    triples = np.stack([rx.ravel(), ry.ravel(), t.ravel()], axis=1)
    return triples, means, covs


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


def _product_rule(normals: int, twopoints: int = 0):
    """Product of the 3-node Gauss-Hermite rule on each of ``normals``
    standard normals and the equal-weight two-point rule on each of
    ``twopoints`` more variables: the probabilities (N,), the normals' nodes
    (N, normals) and each two-point variable's side, -1 or +1 (N, twopoints),
    N = 3^normals 2^twopoints."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(3)
    weights = weights / weights.sum()  # standard-normal probabilities
    idx = np.array(list(itertools.product(*[range(3)] * normals, *[range(2)] * twopoints)))
    probs = weights[idx[:, :normals]].prod(axis=1) / 2.0**twopoints
    return probs, nodes[idx[:, :normals]], 2.0 * idx[:, normals:] - 1.0


def _two_slot_rule():
    p, unit, _ = _product_rule(8)
    return p, unit.reshape(-1, 4)  # rows 2k, 2k+1: slot n-1, slot n


# the probabilities (6561,) and unit quadratures (13122, 4) of the rule
_TWO_SLOT_RULE = _two_slot_rule()


def gauss_hermite_moments(prev, now, sigma2: float, variant: str = "full"):
    """Exact mean (10,) and covariance (10, 10) of (w1..w4[n-1], w1..w6[n])
    given the noiseless fields ``prev`` = (K_x, K_y) of slot n-1 and ``now``
    of slot n, through the ``variant`` front-end of ``received_samples``.

    A 3-node Gauss-Hermite rule on each of the two slots' eight noise
    quadratures (6561 nodes) is fed in as ``unit``, the slots interleaved so
    that the delay line of row 2k+1 (slot n) reads row 2k (slot n-1).  Every
    sample is degree 2 in the quadratures, so the mean and covariance
    integrands are of degree at most 4 in each, and 3 nodes integrate up to
    degree 5 exactly.  Deviations are taken from the noiseless samples, so the
    covariance is exactly zero at sigma2 = 0."""
    p, unit = _TWO_SLOT_RULE
    kx = np.tile([prev[0], now[0]], len(p)).astype(complex)
    ky = np.tile([prev[1], now[1]], len(p)).astype(complex)

    def samples(s2, rows):
        # slot n-1's (w5, w6) read the node before, so they are dropped
        w = received_samples(kx[:rows], ky[:rows], s2, unit[:rows], variant).reshape(-1, 12)
        return np.concatenate([w[:, :4], w[:, 6:]], axis=1)

    w0 = samples(0.0, 2)  # the noiseless samples are the same at every node
    dev = samples(sigma2, len(unit)) - w0
    shift = p @ dev
    return w0[0] + shift, (p[:, None] * dev).T @ dev - np.outer(shift, shift)


def two_slot_moments(prev, now, sigma2: float):
    """Closed-form mean (10,) and covariance (10, 10) of (w1..w4[n-1],
    w1..w6[n]) in the layout of ``gauss_hermite_moments``, built from
    ``gaussian_stats_dims123``.

    The two slots' w1..w4 are uncorrelated, (w5, w6) is the (w3, w4) block of
    (K_x, K_y'), and kappa_a = Cov(w_a, w5) + i Cov(w_a, w6) ties it to both
    slots' w1..w4 (q = 2 sigma2, primes for slot n-1)."""
    (kxp, kyp), (kx, ky) = prev, now
    q = 2.0 * sigma2
    m_prev, c_prev = gaussian_stats_dims123(kxp, kyp, sigma2)
    m_now, c_now = gaussian_stats_dims123(kx, ky, sigma2)
    m_del, c_del = gaussian_stats_dims123(kx, kyp, sigma2)
    mean = np.concatenate([m_prev, m_now, m_del[2:]])
    cov = np.zeros((10, 10))
    cov[:4, :4], cov[4:8, 4:8], cov[8:, 8:] = c_prev, c_now, c_del[2:, 2:]
    beat_prev, beat_now = kx * np.conj(kxp), ky * np.conj(kyp)
    kappa = 2.0 * q * np.array(
        [0, kx * np.conj(kyp), beat_prev, 1j * beat_prev,  # slot n-1
         kx * np.conj(kyp), 0, beat_now, 1j * beat_now]  # slot n
    )
    cov[:8, 8], cov[:8, 9] = kappa.real, kappa.imag
    cov[8:, :8] = cov[:8, 8:].T
    return mean, cov


# --- constellation ------------------------------------------------------------

# near-exact distance ties resolve toward the lower index; the tolerance only
# absorbs rounding of analytically-equal distances
_TIE_TOL = 64.0 * np.finfo(float).eps


def wrap_angle(phi):
    """Wrap angles to [-pi, pi)."""
    return (np.asarray(phi) + math.pi) % TWO_PI - math.pi


def encode_exp(constellation: RingPskConstellation, idx):
    """The encoder as complex exponentials of the running phase: arg(E_y)
    starts at zero and advances by (e - t)*step per slot, and
    arg(E_x) = arg(E_y) + t*step.  Its fields drift from the library's exact
    table phasors as the phase grows, by the error of exp at a large
    argument (up to ~1e-10 at 2^20 slots)."""
    idx = np.asarray(idx, dtype=np.int64)
    step = constellation.phase_step
    radii = np.asarray(constellation.radii)
    phase_y = np.zeros(len(idx))
    phase_y[1:] = np.cumsum((idx[1:, 3] - idx[1:, 2]) * step)
    phase_x = phase_y + idx[:, 2] * step
    return radii[idx[:, 0]] * np.exp(1j * phase_x), radii[idx[:, 1]] * np.exp(1j * phase_y)


def encode_sequence(
    constellation: RingPskConstellation, indices: Sequence[SymbolIndices]
) -> list[DualPolSymbol]:
    """Encode a sequence of index tuples into dual-polarization fields."""
    idx = np.array([(s.rx, s.ry, s.t, s.e) for s in indices], dtype=np.int64)
    ex, ey = encode_exp(constellation, idx)
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


def stokes_matrix(channel: JonesChannel) -> np.ndarray:
    """4x4 matrix mapping the transmit observable vector to the received one."""
    a, b = channel.a, channel.b
    ab_conj = a * np.conj(b)
    ab = a * b
    a2 = a * a
    b2 = b * b
    return np.array(
        [
            [abs(a) ** 2, abs(b) ** 2, ab_conj.real, -ab_conj.imag],
            [abs(b) ** 2, abs(a) ** 2, -ab_conj.real, ab_conj.imag],
            [-2.0 * ab.real, 2.0 * ab.real, a2.real - b2.real, -(a2.imag + b2.imag)],
            [-2.0 * ab.imag, 2.0 * ab.imag, a2.imag - b2.imag, a2.real + b2.real],
        ]
    )


# the observable basis weights intensities and beats differently, so the
# rotation is orthogonal only after rescaling: m @ G @ m.T == G, equivalently
# D^-1 m D is orthogonal with D = sqrt(G)
STOKES_METRIC = np.diag([0.5, 0.5, 1.0, 1.0])


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


def _previous_slot(column: np.ndarray) -> np.ndarray:
    # an (n, 1) column one slot later: the delay line is empty before slot 0
    return np.concatenate([np.zeros((1, 1)), column[:-1]])


def broadcast_reduced_block(full) -> np.ndarray:
    """``frontend.frontend_reduced_block`` as it updated each column pair of a
    copy of ``full`` (n, 6) with (n, 1) intensity columns broadcast against
    it: (w1 + w2) + x/2, and w2[n-1] for the delayed pair."""
    reduced = np.array(full, dtype=float)
    w1, w2 = reduced[:, :1], reduced[:, 1:2]
    reduced[:, 2:4] = w1 + w2 + reduced[:, 2:4] / 2.0
    reduced[:, 4:] = w1 + _previous_slot(w2) + reduced[:, 4:] / 2.0
    return reduced


def broadcast_recover_full_block(reduced) -> np.ndarray:
    """``frontend.recover_full_block`` as it restored each column pair of a
    copy of ``reduced`` (n, 6) by broadcasting: 2 ((x - w1) - w2), and w2[n-1]
    for the delayed pair."""
    full = np.array(reduced, dtype=float)
    w1, w2 = full[:, :1], full[:, 1:2]
    full[:, 2:4] = 2.0 * (full[:, 2:4] - w1 - w2)
    full[:, 4:] = 2.0 * (full[:, 4:] - w1 - _previous_slot(w2))
    return full


# --- training -----------------------------------------------------------------


class _NodeDraws:
    """Stand-in for one point's ``np.random.Generator`` in ``run_training``
    that serves one node of a product rule: the normals' nodes in turn, and for
    each gamma of shape k the node k - sqrt(k) or k + sqrt(k) by its side.
    Every row (pilot) of a draw takes the same nodes.  A draw it cannot fill,
    or any other method, raises, so a change to the draws fails the oracle."""

    def __init__(self, normals, sides):
        self._normals, self._sides = list(normals), list(sides)

    @staticmethod
    def _take(queue, size):
        if len(size) != 2 or size[1] > len(queue):
            raise ValueError(f"no node for a draw of size {size} from {len(queue)} left")
        taken = np.array(queue[: size[1]])
        del queue[: size[1]]
        return np.tile(taken, (size[0], 1))

    def standard_normal(self, size):
        return self._take(self._normals, size)

    def standard_gamma(self, shape, size):
        k = np.broadcast_to(np.asarray(shape, dtype=float), size)
        return k + self._take(self._sides, size) * np.sqrt(k)


def field_samples(kx, ky, sigma2: float, unit: np.ndarray, variant: str) -> np.ndarray:
    """``frontend.received_samples`` as it rebuilt the noisy fields: ``unit``
    scaled to ``sigma2`` and added to (kx, ky), then the ``variant`` ("full"
    or "reduced") front-end, reduced-variant samples restored digitally."""
    full = frontend_full_block(*add_unit_noise(kx, ky, sigma2, unit))
    return full if variant == "full" else broadcast_recover_full_block(broadcast_reduced_block(full))


def single_point_training(channel: JonesChannel, repeats: int, rng) -> np.ndarray:
    """``detection.run_training`` of one point as it trained one point per
    call: the (3, 4) pilot averages of ``channel`` over ``repeats``
    transmissions, the sample mean drawn from four normals per pilot through
    ``received_samples`` at sigma2 / repeats, the scatter from its Bartlett
    factor's two gammas and two more normals."""
    kx, ky = apply_jones(channel, *TRAINING_PILOTS.T)
    g = rng.standard_normal((len(TRAINING_PILOTS), 4 if repeats == 1 else 6))
    averaged = received_samples(kx, ky, channel.sigma2 / repeats, g[:, :4], "full")[:, :4]
    if repeats > 1:
        gammas = rng.standard_gamma([repeats - 1, repeats - 2], size=(len(TRAINING_PILOTS), 2))
        scale = math.sqrt(channel.sigma2 / repeats)
        l11, l22 = scale * np.sqrt(2.0 * gammas.T)
        l21 = scale * (g[:, 4] + 1j * g[:, 5])
        averaged += stokes_vector(l11, l21) + stokes_vector(0.0, l22)
    return averaged


def training_moments(channel: JonesChannel, repeats: int):
    """Exact mean (3, 4) and per-pilot covariance (3, 4, 4) of
    ``run_training([channel], repeats, [rng])``, by running it on a product
    rule: one grid call, one point per node.

    Each of its six normals takes the 3-node Gauss-Hermite rule: a sample is
    at most degree 2 in a normal, so the covariance integrands are at most
    degree 4, and 3 nodes are exact to degree 5.  Each of its two gammas of
    shape k takes k -/+ sqrt(k) with probability 1/2, which matches E[g] = k
    and E[g^2] = k^2 + k: a sample is linear in g, or sqrt(g) times a normal,
    whose odd terms the symmetric rules cancel.  The 3^6 2^2 = 2916 points
    draw the same node for all three pilots, so only each pilot's own moments
    are exact; the cross-pilot ones are not returned."""
    p, normals, sides = _product_rule(6, 2)
    draws = [_NodeDraws(*node) for node in zip(normals, sides)]
    w = run_training([channel] * len(draws), repeats, draws).reshape(len(draws), -1, 4)
    mean = np.einsum("n,nia->ia", p, w)
    dev = w - mean
    return mean, np.einsum("n,nia,nib->iab", p, dev, dev)


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
        # (w5, w6) is the (w3, w4) block of a slot with fields (kx, ky_prev)
        mean, cov = gaussian_stats_dims123(kx, ky_prev, channel.sigma2)
        var = cov[2, 2]
        dist2 = float(((obs - mean[2:]) ** 2).sum())
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


def field_statistic(constellation, channel, sigma2, kx, ky, unit, genie_gain=None):
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


def binned_mi_bits(
    labels: np.ndarray,
    values: np.ndarray,
    n_labels: int,
    n_bins: int,
    box_halfwidth: float,
) -> float:
    """Plug-in mutual information, in bits, between integer labels and a
    complex observable binned on a square grid of half-width ``box_halfwidth``,
    each coordinate mapped to its bin in separate arrays.  Non-finite values
    go to the edge bins; a coordinate past the int64 range is cast before it
    is clipped, which numpy leaves undefined."""
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


def field_rate_curve(config: ExperimentConfig, key: int) -> np.ndarray:
    """``metrics.estimate_mi_dim4`` as it rebuilt both noisy fields and their
    delayed beat at every OSNR point (``field_statistic``), binned by
    ``binned_mi_bits``."""
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
        stat = field_statistic(constellation, channel, osnr_to_sigma2(osnr_db), kx, ky, unit, genie_gain)
        residual = stat - reference
        finite = np.isfinite(residual)
        sigma_w = (
            math.sqrt(float((np.abs(residual[finite]) ** 2).mean()) / 2.0)
            if finite.any()
            else 0.0
        )
        bits[k] = binned_mi_bits(
            eta_idx, stat, constellation.n_phases, config.n_bins, 1.0 + 4.0 * sigma_w
        )
    return bits


def summed_ser_counts(truth, decisions) -> np.ndarray:
    """``metrics.accumulate_ser``'s (4,) int64 error counts as one int64 sum
    of the (n, 4) mismatch table over axis 0, the pilot's inter-slot
    placeholder cleared."""
    mismatch = np.asarray(truth) != np.asarray(decisions)
    mismatch[0, 3] = False
    return mismatch.sum(axis=0, dtype=np.int64)
