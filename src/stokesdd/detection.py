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

Every term reads the noiseless Stokes vector ``stokes_vector(K_x, K_y)``,
and one function, ``gaussian_stats_dims123``, returns the (mean, cov) arrays.
The delayed beat pair (w5, w6) is their (w3, w4) block with K_y replaced by
the previous slot's K_y; its covariance is a scalar times I_2.  It is not
independent of the per-slot samples: with q = 2 sigma2 and primes for slot
n-1, kappa_a = Cov(w_a, w5) + i Cov(w_a, w6) is
(2q K_x K_y'*, 0, 2q K_y K_y'*, 2qi K_y K_y'*) over slot n's w1..w4 and
(0, 2q K_x K_y'*, 2q K_x K_x'*, 2qi K_x K_x'*) over slot n-1's.  The
detectors here ignore kappa.  ``tests/reference.py::gauss_hermite_moments``
is the exact oracle of all these moments, through the front end itself.

Per-slot detection enumerates all H magnitude/intra-phase hypotheses and
scores each one by the Gaussian log-likelihood
-0.5 ((w - mu_h)^T P_h (w - mu_h) + log det C_h), with P_h = C_h^-1 and
C_h = L_h L_h^T.  The score is a quadratic in w, so it is linear in the 15
monomials (1, w_i, w_i w_j for i <= j): the quadratic discriminant of
Hastie, Tibshirani & Friedman (Elements of Statistical Learning, 4.3).  The
hypothesis bank stores their (15, H) coefficient table
T = -0.5 [mu^T P mu + log det C; -2 P mu; P_ii, or 2 P_ij for i < j], and a
slice of slots is scored by one GEMM of its monomial rows (``monomials``).
The receiver builds the bank once per frame and scores the frame slice by
slice, keeping only each slot's argmax.  A slice holds at most
``SCORE_SLICE_CELLS`` scores (``score_slice_rows``), so each slice's GEMM
and argmax run on a block that stays in cache.  At 4x16 a slice's GEMM is
256 x 256 x 15 = 983,040 multiply-adds, the most OpenBLAS runs on its
single-threaded small-matrix kernel: 272 rows took 70-80 us against 14 us
for 256.  The monomial rows are built once per chunk of
``MONOMIAL_CHUNK_ROWS`` slots, a whole number of slices, and each slice is
scored from a view of its chunk, so the ~13 numpy calls of a build are
spread over 2048 slots rather than one slice's 256.  The memory of a call
is bounded by one 512 KiB score block and one chunk's 240 KiB of rows,
never by a whole-frame (n, H) table.

The expanded form cancels: w^T P w and mu^T P mu are ~|P| while their
difference is O(1), so its error grows with the condition number kappa of
the covariances.  Where the surrogate would lose its digits, past
``SURROGATE_MAX_KAPPA_EPS`` (84-87 dB), and where it has none, at sigma2 = 0
or where a covariance rounds to singular (from ~150 dB), the bank fills the
same table with P = I and log det C = 0, so it scores -0.5 |w - mu_h|^2:
the rule becomes the nearest mean, and one GEMM scores every noise level.

The inter-slot phase is then detected successively, conditioned on one
gain per slot, the noiseless K_x[n] K_y*[n-1] of the current and previous
slot with each slot's phase anchored (``beat_gain``): that of the receiver's
own decisions, or one the caller passes, such as genie mode's gain of the
true values.  The bank and ``beat_gain`` read one table of the hypotheses'
fields (``_hypothesis_fields``): the receiver keeps each slot's decided
hypothesis number and gathers its own gain from the bank's copy of the
table, ``beat_gain`` numbers a caller's stream and gathers from the table
through the same function.  The candidate means 2*gain*exp(i*c*step)
share one isotropic covariance and one modulus, so rounding the phase of
w56*conj(gain) to the grid is ML given w56 = w5 + i w6 alone.  It ignores
the kappa_a above; ROADMAP item 9 measures ~10x lower dimension-4 SER with them.

Every stage works on a whole frame: the receiver takes the (n, 6) samples,
whose slot 0 is ``PILOT``, and returns (n, 4) indices with the gain it
conditioned on.  Training works on a whole OSNR grid: at each point it
draws the Stokes vector w1..w4 of each (E_x, E_y) row of
``TRAINING_PILOTS``, averaged over r noisy transmissions, from its
sufficient statistics (the noise's sample mean and Wishart scatter) at a
cost independent of r, each point from its own generator, and evaluates the
K points' pilot rows in one stacked pass.  Each point's (3, 4) averages go
to ``estimate_channel``, which returns the ``JonesChannel`` the receiver
runs on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import JonesChannel, apply_jones, channel_from_pair, check_sigma2, stokes_vector
from .constellation import RingPskConstellation, phasor_table, ravel_indices
from .frontend import horner, sample_coefficients

# below this beat-mean amplitude the inter-slot phase hypotheses coincide and
# the slot is flagged as an erasure
ERASURE_TOL = 1e-12

# the receiver's scoring slices, both bounds chosen by timing.  A slice holds
# at most SCORE_SLICE_CELLS scores: its (rows, H) score block is then at most
# 512 KiB, which the GEMM writes and the argmax reads back while it is still
# in cache.  On a 2-core Xeon (2 MiB of L2 per core) a 10^4-slot receiver call
# was fastest at 2^16 cells of the 2^14..2^18 tried: 3.2 ms at 4x16 against
# 3.4 ms with 1024-row (2 MiB) blocks, 11.7 ms at 4x64 against 13.5 ms.
# 2^16 cells x 15 monomials = 983,040 multiply-adds is also the largest GEMM
# that OpenBLAS 0.3.31 runs on its single-threaded small-matrix kernel: on a
# 2-CPU EPYC a 272-row 4x16 slice took 70-80 us against 14 us for 256 rows
# (23 us for 272 with one BLAS thread), and one unsliced GEMM of a whole
# frame halved the 2-worker pool's throughput.  A slice holds at most
# SCORE_SLICE_ROWS slots, so its numpy calls are spread over enough of them
# at small H (128-row slices took twice as long at 2x4 and 4x16).  The
# slice and the chunk below, not the frame, bound a receiver call's memory:
# its largest arrays are the score block and the chunk's monomial rows
SCORE_SLICE_ROWS = 1024
SCORE_SLICE_CELLS = 2**16

# the receiver builds the monomial rows of this many slots at a time, rounded
# down to a whole number of slices (at least one): 2 slices of 1024 rows at
# 2x4, 8 of 256 at 4x16, 256 of 8 at H = 2^13.  A 2048-slot chunk's rows
# (240 KiB) and one score block (512 KiB) fit in a 1 MiB L2.  A 10^4-slot
# 4x16 receiver call at 16 dB (timeit, 2-CPU EPYC, 1 MiB of L2 per core)
# took 1.57 ms with one build per slice, 1.42 ms with 1024-slot chunks,
# 1.38 ms with 2048 and 1.36 ms with 4096; whole-frame rows (1.31 ms) grow
# with the frame, to 480 MiB at config.MAX_FRAME_SLOTS
MONOMIAL_CHUNK_ROWS = 2048


def score_slice_rows(n_hypotheses: int) -> int:
    """Slots per scoring slice of a bank of ``n_hypotheses``: as many as
    ``SCORE_SLICE_CELLS`` scores allow, at least 1 and at most
    ``SCORE_SLICE_ROWS`` (1024 up to H = 64, 256 at 4x16, 8 at H = 2^13)."""
    return max(1, min(SCORE_SLICE_ROWS, SCORE_SLICE_CELLS // n_hypotheses))


# the hand-over from the surrogate's table to the nearest mean's: the bank
# holds (P_h, log det C_h) while max_h kappa_h * eps stays below this bound,
# with kappa_h bounded from above by |L_h|^2 |L_h^-1|^2 (Frobenius).  It
# hands over at 84-87 dB from 1x1 to 4x16, ~55 dB below the first wrong
# decisions of an unguarded surrogate table (from 140 dB at 4x16).  An exact
# likelihood rule for the high-OSNR range would replace the nearest mean at
# this same threshold.
SURROGATE_MAX_KAPPA_EPS = 1e-6

# the (i, j), i <= j, of the quadratic monomials w_i w_j, in table row order
_PAIRS = tuple((i, j) for i in range(4) for j in range(i, 4))


def gaussian_stats_dims123(kx, ky, sigma2: float):
    """Exact mean (..., 4) and covariance (..., 4, 4) of (w1, w2, w3, w4)
    given a slot's noiseless received fields (arrays broadcast).  Given the
    current X and the previous Y field instead, ``mean[..., 2:]`` and
    ``cov[..., 2:, 2:]`` are those of the delayed beat pair (w5, w6)."""
    check_sigma2(sigma2)
    # the noiseless Stokes vector gives the mean and every covariance entry:
    # noise adds 2s to each intensity, and Cov(w_i, w_j) = 2s w_j for an
    # intensity i and a beat j
    mean = stokes_vector(kx, ky)
    ax2, ay2 = mean[..., 0], mean[..., 1]
    s4 = 4.0 * sigma2 * sigma2
    c = 4.0 * sigma2
    cov = np.zeros(mean.shape + (4,))
    cov[..., 0, 0] = s4 + c * ax2
    cov[..., 1, 1] = s4 + c * ay2
    cov[..., 2, 2] = 2.0 * s4 + c * (ax2 + ay2)
    cov[..., 3, 3] = cov[..., 2, 2]
    cov[..., :2, 2:] = 2.0 * sigma2 * mean[..., None, 2:]
    cov[..., 2:, :2] = np.swapaxes(cov[..., :2, 2:], -1, -2)
    mean[..., :2] += 2.0 * sigma2
    return mean, cov


@dataclass
class _HypothesisBank:
    """Per-(channel, constellation) table of the per-slot detector."""

    triples: np.ndarray  # (H, 3) in canonical rx-major order
    table: np.ndarray  # (15, H) coefficients of the monomials (1, w_i, w_i w_j for i <= j)
    kx: np.ndarray  # (H,) noiseless received fields the table was built from
    ky: np.ndarray


def _hypothesis_fields(channel: JonesChannel, constellation: RingPskConstellation):
    """The (H, 3) hypotheses (rx, ry, t) in canonical rx-major order, so that
    row h is hypothesis ``np.ravel_multi_index((rx, ry, t), (nr, nr, nph))``,
    and their noiseless received fields (K_x, K_y), each (H,), of the transmit
    fields anchored at arg(E_x) = 0: (r_x, r_y e^{-i t step})."""
    nr, nph = constellation.n_rings, constellation.n_phases
    triples = np.indices((nr, nr, nph)).reshape(3, -1).T
    radii = np.asarray(constellation.radii)
    ex = radii[triples[:, 0]].astype(complex)
    ey = radii[triples[:, 1]] * np.conj(phasor_table(constellation))[triples[:, 2]]
    return triples, *apply_jones(channel, ex, ey)


def _build_bank(channel: JonesChannel, constellation: RingPskConstellation) -> _HypothesisBank:
    # the statistics depend on the hypothesis only through
    # (|K_x|, |K_y|, delta), so the x-phase-anchored fields serve
    triples, kx, ky = _hypothesis_fields(channel, constellation)
    means, covs = gaussian_stats_dims123(kx, ky, channel.sigma2)
    try:
        chol = np.linalg.cholesky(covs)
        inv_chol = np.linalg.inv(chol)  # (H, 4, 4), row j of W_h = L_h^-1 at [h, j]
        # |L_h|^2 |W_h|^2 is at least the 2-norm kappa of C_h and at most 16 kappa
        kappa = ((chol**2).sum(axis=(1, 2)) * (inv_chol**2).sum(axis=(1, 2))).max()
        surrogate = kappa * np.finfo(float).eps <= SURROGATE_MAX_KAPPA_EPS
    except np.linalg.LinAlgError:  # sigma2 = 0, or a covariance rounded to singular
        surrogate = False
    if surrogate:
        logdets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    else:  # W = I and log det C = 0 score the nearest mean
        inv_chol = np.broadcast_to(np.eye(4), covs.shape)
        logdets = np.zeros(len(triples))
    whitened_means = np.einsum("hji,hi->jh", inv_chol, means)
    prec = np.swapaxes(inv_chol, 1, 2) @ inv_chol  # P_h = W_h^T W_h
    table = np.empty((15, len(triples)))
    table[0] = -0.5 * ((whitened_means**2).sum(axis=0) + logdets)
    table[1:5] = (prec @ means[:, :, None])[..., 0].T
    iu, ju = np.array(_PAIRS).T
    table[5:] = np.where(iu == ju, -0.5, -1.0)[:, None] * prec[:, iu, ju].T
    return _HypothesisBank(triples, table, kx, ky)


def monomials(obs) -> np.ndarray:
    """The (15, rows) monomial rows (1, w1..w4, then w_i w_j in ``_PAIRS``
    order) of ``obs``, (rows, 4) rows of (w1, w2, w3, w4)."""
    f = np.empty((15, len(obs)))
    f[0] = 1.0
    f[1:5] = np.asarray(obs, dtype=float).T
    for k, (i, j) in enumerate(_PAIRS):
        np.multiply(f[1 + i], f[1 + j], out=f[5 + k])
    return f


def detect_dims123_block(f: np.ndarray, bank: _HypothesisBank):
    """Vectorized per-slot detection of (ring_x, ring_y, intra-phase).

    ``f`` is the (15, rows) ``monomials`` of the slots' (w1, w2, w3, w4),
    scored against ``bank`` (``_build_bank``) with one GEMM.  Returns the
    decided (rows,) hypothesis numbers, whose (rx, ry, t) are the rows of
    ``bank.triples``, and the (rows, H) score block: surrogate
    log-likelihoods, or -0.5 |w - mu_h|^2 past the hand-over.  The receiver
    passes a view of one slice of ``score_slice_rows(H)`` columns of its
    chunk's rows per call, so the score block holds at most
    ``SCORE_SLICE_CELLS`` cells (512 KiB).
    """
    scores = f.T @ bank.table
    return scores.argmax(axis=1), scores  # ties resolve to the lowest hypothesis index


# No library caller: reached only through tests/reference.py::ell_gain and
# criterion 06.  Kept while perfbench's WRAPPED lists it (ROADMAP item 8):
# test_perfbench.py::test_a_wrapped_name_the_program_lacks_is_reported_absent fails without it.
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

    ``idx`` is the (n, 3) integer stream of (rx, ry, t) inside the alphabet;
    ``ravel_indices`` checks it and numbers each slot's hypothesis.  Returns
    the (n-1,) gains of slots 1..n-1.  Each slot's fields are anchored at
    arg(E_x) = 0, so the previous slot's y field is rotated by exp(i*t'*step)
    to anchor it at arg(E_y') = 0, the reference of the inter-slot phase.
    The fields are gathers from the H-row table of ``_hypothesis_fields``.
    """
    _, kx, ky = _hypothesis_fields(channel, constellation)
    return _stream_gain(constellation, kx, ky, ravel_indices(constellation, idx, 3))


def _stream_gain(constellation: RingPskConstellation, kx, ky, h) -> np.ndarray:
    # the gains of slots 1..n-1 of the stream of hypothesis numbers h,
    # gathered from the hypotheses' fields (kx, ky) and phasors exp(i*t*step):
    # the numbering is t-minor, so hypothesis j has t = j % n_phases.
    # Re-anchored per slot, not in the table: numpy computes a product with a
    # temporary operand of >= 256 KiB in place, operands swapped, which rounds
    # a complex product's imaginary part differently; this keeps every n's bits
    phasors = phasor_table(constellation)[np.arange(len(kx)) % constellation.n_phases]
    return kx[h][1:] * np.conj(ky[h][:-1] * phasors[h[:-1]])


def detect_dim4_block(w56: np.ndarray, gain: np.ndarray, constellation: RingPskConstellation):
    """Vectorized inter-slot phase decision.

    ``w56`` holds w5 + i*w6 per slot (slot 0 excluded), ``gain`` the matching
    beat gains.  The candidate means 2*gain*exp(i*c*step) share one
    covariance and one modulus, so rounding the phase of w56*conj(gain) to
    the grid is ML given w56 alone; it ignores kappa, the covariance of
    (w5, w6) with both slots' w1..w4.  Returns the decided phase indices,
    with -1 marking an erased slot (vanishing gain).
    """
    ratio = np.angle(w56 * np.conj(gain)) / constellation.phase_step
    decided = _floor_mod(np.rint(ratio).astype(np.int64), constellation.n_phases)
    decided[2.0 * np.abs(gain) < ERASURE_TOL] = -1
    return decided


def _floor_mod(k: np.ndarray, n: int) -> np.ndarray:
    """``k % n`` of an int64 array and a divisor n >= 1, in place in ``k``:
    k - (k // n) * n, whose division by a scalar numpy runs at about a third
    of ``%``'s cost.  It equals ``%`` for every int64: the result lies in
    [0, n), and int64 arithmetic is exact modulo 2**64, so a product
    (k // n) * n that wraps below the int64 range (k near -2**63) cancels."""
    q = k // n
    q *= n
    k -= q
    return k


# --- training-based channel estimation -------------------------------------

# one (E_x, E_y) row per pilot, read-only like the constant it is
TRAINING_PILOTS = np.array([[1.0, 0.0], [1.0, 1.0], [1.0j, 1.0]], dtype=complex)
TRAINING_PILOTS.flags.writeable = False


def _is_count(value) -> bool:
    # bool is an int subclass but never a count; a fractional count is the
    # law of no number of transmissions
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= 1


def run_training(
    channels: Sequence[JonesChannel], repeats: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Average each training pilot's noisy Stokes vector over ``repeats``
    transmissions at each of K points, point k through ``channels[k]`` with
    draws from ``rngs[k]``; returns the (3K, 4) averaged w1..w4, one row per
    pilot, point k's three pilots in rows 3k..3k+2 (one point: the (3, 4)
    averages ``estimate_channel`` takes).

    w1..w4 are linear in the coherency f f^H, and the mean of r coherencies
    (K + n_k)(K + n_k)^H is (K + m)(K + m)^H + S/r, where the noise's sample
    mean m ~ CN(0, (2 sigma2/r) I) and scatter S ~ complex Wishart_2(r-1,
    2 sigma2 I) are independent (Goodman 1963).  So each pilot draws m from
    four normals, evaluated as the ``sample_coefficients`` table at
    sigma2/r, and S = L L^H from its complex Bartlett factor (Bartlett
    1933): L11^2 = 2 sigma2 Gamma(r-1), L22^2 = 2 sigma2 Gamma(r-2) (zero at
    r = 2) and L21 = sqrt(sigma2) (g + i g') from two more normals.  The
    average is the exact law of the brute-force one at a cost independent of
    r; at r = 1 the scatter vanishes and the average is the frame path's
    sample.  Each point makes its own draws in that order (all points'
    normals come first, so points that share one generator draw in another
    order than alone); the arithmetic then runs once on the stacked K*3
    pilot rows, element by element, so every point's averages are those of
    the point trained alone.
    """
    if not _is_count(repeats):
        raise ValueError(f"repeats must be a positive integer, got {repeats!r}")
    if len(channels) != len(rngs) or not channels:
        raise ValueError(
            f"expected one generator per channel and at least one point, "
            f"got {len(channels)} channels and {len(rngs)} generators"
        )
    n_pilots = len(TRAINING_PILOTS)
    kx, ky = np.concatenate([apply_jones(ch, *TRAINING_PILOTS.T) for ch in channels], axis=1)
    g = np.concatenate([rng.standard_normal((n_pilots, 4 if repeats == 1 else 6)) for rng in rngs])
    # each row's sqrt(sigma2 / r), a column broadcast over the samples
    scale = np.sqrt(np.repeat([ch.sigma2 / repeats for ch in channels], n_pilots))
    averaged = horner(sample_coefficients(kx, ky, g[:, :4]), scale[:, None])[:, :4]
    if repeats > 1:
        # the columns (L11, L21) and (0, L22) of L / sqrt(r), whose rank-one
        # coherencies sum to S / r
        gammas = np.concatenate(
            [rng.standard_gamma([repeats - 1, repeats - 2], size=(n_pilots, 2)) for rng in rngs]
        )
        l11, l22 = scale * np.sqrt(2.0 * gammas.T)
        l21 = scale * (g[:, 4] + 1j * g[:, 5])
        averaged += stokes_vector(l11, l21) + stokes_vector(0.0, l22)
    return averaged


def _canonical_sign(a: complex, b: complex):
    # the overall sign of (a, b) is unobservable; pin the first significant
    # component of (Re a, Im a, Re b, Im b) to be positive
    for val in (a.real, a.imag, b.real, b.imag):
        if abs(val) > 1e-9:
            return (a, b) if val > 0 else (-a, -b)
    return a, b


def estimate_channel(training_obs: np.ndarray) -> tuple[JonesChannel, float]:
    """Solve for the rotation from the (3, 4) averaged pilot observables of
    one ``run_training`` point, one finite row (w1..w4) per pilot.  Returns
    ``(channel, residual)``: the noiseless ``JonesChannel`` estimate, with
    the overall sign fixed canonically, and the L2 misfit of the observables.

    The beat samples are unbiased: pilot 1 gives -ab, pilots 2 and 3 give
    a^2 - b^2 and i(a^2 + b^2), fixing both squared parameters and their
    relative phase.  The pair is anchored on the larger of a^2, b^2, then
    normalized; intensities enter only through the residual.
    """
    training_obs = np.asarray(training_obs)
    if training_obs.shape != (3, 4):
        raise ValueError(
            "expected the (3, 4) averaged observables w1..w4 of the three pilots, "
            f"got shape {training_obs.shape}"
        )
    # else a NaN or infinity surfaces as a misleading normalization error,
    # or reaches the receiver as a NaN channel
    if not np.isfinite(training_obs).all():
        raise ValueError("training_obs must hold finite averaged observables")
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
    channel = JonesChannel(*_canonical_sign(unit.a, unit.b))

    predicted = stokes_vector(*apply_jones(channel, *TRAINING_PILOTS.T))
    # each pilot's row sum, then the three in pilot order
    sq_err = sum(((training_obs - predicted) ** 2).sum(axis=1))
    return channel, math.sqrt(sq_err)


def gauge_aligned_error(estimate: JonesChannel, channel: JonesChannel) -> float:
    """Worst-component error of the (a, b) of one channel against another's,
    after resolving the unobservable overall sign."""
    return min(
        max(abs(s * estimate.a - channel.a), abs(s * estimate.b - channel.b)) for s in (1.0, -1.0)
    )


# --- successive receiver ----------------------------------------------------

# the known symbol (rx, ry, t, e) in slot 0 of every frame
PILOT = (0, 0, 0, 0)


@dataclass
class ReceiverResult:
    """Decided index array (n, 4), whose inter-slot entry is -1 at an
    erasure (``erasures``), and the (n-1,) conditioning gain of slots 1..n-1
    that the inter-slot stage used.

    Slot 0 is the pilot: its per-slot dimensions are detected blind like any
    other slot, its inter-slot entry is a placeholder, and the inter-slot
    conditioning chain starts from the known pilot values.
    """

    indices: np.ndarray
    gain: np.ndarray

    @property
    def erasures(self) -> np.ndarray:
        return self.indices[:, 3] < 0


def run_successive_receiver(
    frames,
    channel: JonesChannel,
    constellation: RingPskConstellation,
    *,
    gain: Optional[np.ndarray] = None,
) -> ReceiverResult:
    """Two-stage detection of a frame: per-slot dimensions first, then the
    inter-slot phase conditioned on the beat gain K_x[n] K_y*[n-1] of the
    current and previous slot.

    ``frames`` is the (n, 6) array of finite real samples w1..w6; slot 0
    must be ``PILOT``.  Without ``gain`` the receiver conditions on its own
    decisions, from the pilot on (``beat_gain`` of the decided stream).  A
    given ``gain``, a finite (n-1,) array for slots 1..n-1, replaces that
    conditioning; the genie mode passes the gain of the true values
    (``beat_gain(constellation, channel, idx[:, :3])``) to isolate the last
    stage from error propagation.
    """
    arr = np.asarray(frames)
    if arr.ndim != 2 or arr.shape[1] != 6 or arr.shape[0] < 2:
        raise ValueError("expected at least two slots of six samples")
    # else a NaN row decides hypothesis 0, and complex samples lose their imaginary part
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"frames must hold finite real samples, got a {arr.dtype} array")
    if gain is not None:
        gain = np.asarray(gain)
        if gain.shape != (len(arr) - 1,) or not np.isfinite(gain).all():
            raise ValueError(f"gain must be a finite ({len(arr) - 1},) array, got {gain.dtype} {gain.shape}")
    # one bank per frame; each slice's score block is dropped once its argmax
    # is written as hypothesis numbers, so no (n, H) table is ever built.
    # The chunks read the samples' first four columns, contiguous in the
    # column-major array ``frontend.evaluate_samples`` returns, and each
    # chunk's rows are dropped before the next chunk's are built.  w5 + i w6
    # is formed only after the scoring loop, so its (n,) complex array does
    # not add to the loop's memory peak
    bank = _build_bank(channel, constellation)
    h = np.empty(len(arr), dtype=np.intp)
    step = score_slice_rows(len(bank.triples))
    chunk = step * max(1, MONOMIAL_CHUNK_ROWS // step)
    for start in range(0, len(arr), chunk):
        f = monomials(arr[start : start + chunk, :4])
        for offset in range(0, f.shape[1], step):
            rows = slice(start + offset, start + offset + step)
            h[rows] = detect_dims123_block(f[:, offset : offset + step], bank)[0]
        del f
    # the (n, 4) result in one gather of whole rows (rx, ry, t, 0): a take of
    # contiguous rows costs far less than filling the strided [:, :3] columns
    index_rows = np.zeros((len(bank.triples), 4), dtype=np.int64)
    index_rows[:, :3] = bank.triples
    out = np.take(index_rows, h, axis=0)

    if gain is None:
        # the decided stream from the known pilot on, gathered from the
        # fields the bank was built from
        h[0] = np.ravel_multi_index(PILOT[:3], (constellation.n_rings,) * 2 + (constellation.n_phases,))
        gain = _stream_gain(constellation, bank.kx, bank.ky, h)
    eta = detect_dim4_block(arr[1:, 4] + 1j * arr[1:, 5], gain, constellation)

    out[0, 3] = 0
    out[1:, 3] = eta
    return ReceiverResult(out, gain)
