import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd.channel import (
    MAX_SIGMA2,
    JonesChannel,
    apply_jones,
    haar_random_channel,
    osnr_to_sigma2,
    stokes_vector,
)
from stokesdd.config import MIN_OSNR_DB
from stokesdd.constellation import build_constellation, encode_indices
from stokesdd.detection import (
    PILOT,
    SCORE_SLICE_ROWS,
    TRAINING_PILOTS,
    beat_gain,
    detect_dim4_block,
    detect_dims123_block,
    estimate_channel,
    gauge_aligned_error,
    gaussian_stats_dims123,
    monomials,
    run_successive_receiver,
    run_training,
    score_slice_rows,
)
import stokesdd.detection as detection
from stokesdd.experiments import channel_estimation_demo
from stokesdd.frontend import frontend_full_block

from reference import (
    Decision,
    DualPolSymbol,
    SymbolIndices,
    detect_dim4,
    detect_dims123,
    einsum_bank_scores,
    ell_gain,
    frames_to_array,
    frontend_full,
    gauss_hermite_moments,
    hypothesis_stats,
    nearest_phase_argmin,
    received_samples,
    single_point_training,
    training_moments,
    two_slot_moments,
    wrap_angle,
)


def random_symbol_stream(rng, constellation, n):
    idx = np.stack(
        [
            rng.integers(0, constellation.n_rings, n),
            rng.integers(0, constellation.n_rings, n),
            rng.integers(0, constellation.n_phases, n),
            rng.integers(0, constellation.n_phases, n),
        ],
        axis=1,
    )
    idx[0] = (0, 0, 0, 0)
    return idx


# --- closed-form statistics ---------------------------------------------------


def test_stats123_zero_noise_collapses_to_noiseless_observables():
    kx, ky = 0.4 + 0.3j, -0.2 + 0.9j
    mean, cov = gaussian_stats_dims123(kx, ky, 0.0)
    beat = kx * np.conj(ky)
    assert np.allclose(cov, 0.0)
    assert np.allclose(
        mean, [abs(kx) ** 2, abs(ky) ** 2, 2 * beat.real, 2 * beat.imag]
    )


def test_stats123_hand_substitution():
    mean, cov = gaussian_stats_dims123(1.0 + 0j, 0j, 1.0)
    assert np.allclose(mean, [3.0, 2.0, 0.0, 0.0])
    assert np.allclose(np.diag(cov), [8.0, 4.0, 12.0, 12.0])
    assert np.allclose(cov - np.diag(np.diag(cov)), 0.0)


def test_stats123_symmetry_and_psd():
    rng = np.random.default_rng(8)
    for _ in range(50):
        kx = complex(rng.standard_normal(), rng.standard_normal())
        ky = complex(rng.standard_normal(), rng.standard_normal())
        _, cov = gaussian_stats_dims123(kx, ky, float(rng.uniform(0, 0.5)))
        assert np.abs(cov - cov.T).max() < 1e-12
        assert np.linalg.eigvalsh(cov).min() > -1e-9


def test_stats4_hand_substitution():
    # (w5, w6) of (K_x[n], K_y[n-1]) is the (w3, w4) block of a slot with those fields
    mean, cov = gaussian_stats_dims123(1.0 + 0j, 1.0 + 0j, 1.0)
    assert np.allclose(mean[2:], [2.0, 0.0])
    assert np.allclose(cov[2:, 2:], 16.0 * np.eye(2))


def test_stats4_zero_noise():
    kx, kyp = 0.7 - 0.1j, 0.2 + 0.5j
    mean, cov = gaussian_stats_dims123(kx, kyp, 0.0)
    beat = kx * np.conj(kyp)
    assert np.allclose(cov[2:, 2:], 0.0)
    assert np.allclose(mean[2:], [2 * beat.real, 2 * beat.imag])


def test_stats_reject_negative_sigma2():
    with pytest.raises(ValueError):
        gaussian_stats_dims123(1.0, 0.0, -0.1)


@pytest.mark.parametrize("sigma2", [0.0, 1e-6, 1e-2, 1.0, 30.0])
@pytest.mark.parametrize("variant", ["full", "reduced"])
def test_six_samples_match_the_exact_two_slot_moments(variant, sigma2):
    # the oracle draws all ten samples through the front end, delay line and
    # restoration included
    rng = np.random.default_rng(95)
    for _ in range(10):
        g = rng.standard_normal(8) * rng.uniform(0.1, 2.0)
        kxp, kyp, kx, ky = g[0::2] + 1j * g[1::2]
        mean, cov = gauss_hermite_moments((kxp, kyp), (kx, ky), sigma2, variant)
        want_mean, want_cov = two_slot_moments((kxp, kyp), (kx, ky), sigma2)

        assert np.abs(mean - want_mean).max() <= 1e-11 * np.abs(want_mean).max()
        # at sigma2 = 0 every covariance is 0: bound it by the squared means
        scale = np.abs(want_cov).max() if sigma2 > 0 else np.abs(want_mean).max() ** 2
        assert np.abs(cov - want_cov).max() <= 1e-11 * scale


# --- per-slot detection -------------------------------------------------------


def test_detect_noiseless_recovers_symbols_exactly():
    rng = np.random.default_rng(77)
    c = build_constellation(2, 4)
    for _ in range(20):
        ch = haar_random_channel(rng, 0.0)
        idx = random_symbol_stream(rng, c, 50)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        frames = frontend_full_block(kx, ky)
        bank = detection._build_bank(ch, c)
        decided = bank.triples[detect_dims123_block(monomials(frames[:, :4]), bank)[0]]
        assert (decided == idx[:, :3]).all()


def test_noise_variance_past_the_osnr_floor_is_rejected():
    # sigma2 enters the library through JonesChannel, or raw through the
    # surrogate moments or the noise path (test_frontend.py): all accept the
    # floor's variance and nothing above it, so no bank is built on a sigma2
    # whose scores could overflow (at 1e160 a bank scores every hypothesis
    # -inf and decides hypothesis 0)
    c = build_constellation(2, 4)
    ch = haar_random_channel(np.random.default_rng(98))
    top = osnr_to_sigma2(MIN_OSNR_DB)
    assert np.isfinite(detection._build_bank(JonesChannel(ch.a, ch.b, top), c).table).all()
    assert np.isfinite(gaussian_stats_dims123(1.0, 0.0, top)[1]).all()
    for sigma2 in (np.nextafter(top, math.inf), 1e160, math.inf, math.nan, -1e-3):
        with pytest.raises(ValueError, match="sigma2"):
            JonesChannel(ch.a, ch.b, sigma2)
        with pytest.raises(ValueError, match="sigma2"):
            gaussian_stats_dims123(1.0, 0.0, sigma2)


def test_detect_returns_hypothesis_at_its_mean():
    c = build_constellation(1, 4)
    ch = JonesChannel(1.0 + 0j, 0j, 1.0)
    r = c.radii[0]
    for t in range(4):
        kx = r
        ky = r * cmath.exp(-1j * t * c.phase_step)
        mean, _ = gaussian_stats_dims123(kx, ky, 1.0)
        decision = detect_dims123(np.concatenate([mean, [0, 0]]), ch, c)
        assert decision.indices.t == t


def test_argmax_invariant_to_affine_score_changes():
    rng = np.random.default_rng(4)
    c = build_constellation(2, 4)
    ch = haar_random_channel(rng, 0.01)
    idx = random_symbol_stream(rng, c, 20)
    ex, ey = encode_indices(c, idx)
    frames = received_samples(*apply_jones(ch, ex, ey), ch.sigma2, rng.standard_normal((len(idx), 4)), "full")
    _, scores = detect_dims123_block(monomials(frames[:, :4]), detection._build_bank(ch, c))
    base = scores.argmax(axis=1)
    assert (np.argmax(3.7 * scores + 11.0, axis=1) == base).all()


def test_scalar_detect_matches_block():
    rng = np.random.default_rng(15)
    c = build_constellation(2, 4)
    ch = haar_random_channel(rng, 0.02)
    idx = random_symbol_stream(rng, c, 30)
    ex, ey = encode_indices(c, idx)
    frames = received_samples(*apply_jones(ch, ex, ey), ch.sigma2, rng.standard_normal((len(idx), 4)), "full")
    bank = detection._build_bank(ch, c)
    block = bank.triples[detect_dims123_block(monomials(frames[:, :4]), bank)[0]]
    for n in range(len(idx)):
        d = detect_dims123(frames[n, :4], ch, c)
        assert (d.indices.rx, d.indices.ry, d.indices.t) == tuple(block[n])


def expanded_score_scale(means, covs, sigma2, obs):
    """0.5 max_h sum_k |F_nk| |T_kh| per row: the forward-error scale of the
    dot products F T of the monomials F = (1, w_i, w_i w_j) and the expanded
    table T = [mu^T P mu + log det C; -2 P mu; P_ii, or 2 P_ij for i < j]
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), built
    from the explicit inverses P = C^-1 (P = I, log det C = 0 at sigma2 = 0,
    the nearest mean's table)."""
    if sigma2 == 0.0:
        prec, logdets = np.broadcast_to(np.eye(4), covs.shape), np.zeros(len(covs))
    else:
        prec, logdets = np.linalg.inv(covs), np.linalg.slogdet(covs)[1]
    iu, ju = np.triu_indices(4)
    abs_table = np.concatenate(
        [
            (np.abs(np.einsum("hi,hij,hj->h", means, prec, means)) + np.abs(logdets))[None],
            2.0 * np.abs(np.einsum("hij,hj->ih", prec, means)),
            np.where(iu == ju, 1.0, 2.0)[:, None] * np.abs(prec[:, iu, ju]).T,
        ]
    )
    mono = np.concatenate([np.ones((len(obs), 1)), obs, obs[:, iu] * obs[:, ju]], axis=1)
    return 0.5 * (np.abs(mono) @ abs_table).max(axis=1)


def holds_nearest_mean(bank) -> bool:
    # the quadratic rows of the nearest mean's table (P = I): -0.5 w_i^2, and
    # no cross products w_i w_j
    rows = np.array([-0.5 if i == j else 0.0 for i, j in detection._PAIRS])
    return bool((bank.table[5:] == rows[:, None]).all())


def half_negative_squared_distances(obs, means):
    # -0.5 |w - mu_h|^2, summed coordinate by coordinate
    d = obs[:, None, :] - means[None, :, :]
    sq = d * d
    return -0.5 * (((sq[..., 0] + sq[..., 1]) + sq[..., 2]) + sq[..., 3])


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (2, 4), (3, 8), (4, 16)]),
    osnr_db=st.floats(0.0, 140.0),
    # the row counts of a receiver's slices: one, two, a short and a full
    # slice of the longest, SCORE_SLICE_ROWS (the receiver's slice edges are
    # drawn by the test below)
    n=st.sampled_from([1, 2, SCORE_SLICE_ROWS - 1, SCORE_SLICE_ROWS]),
    seed=st.integers(0, 2**31),
)
def test_whitened_scores_match_einsum_oracle(shape, osnr_db, n, seed):
    # (named for the whitened form the bank once handed over to; past the
    # hand-over the table now holds the nearest mean)
    rng = np.random.default_rng(seed)
    c = build_constellation(*shape)
    ch = haar_random_channel(rng, osnr_to_sigma2(osnr_db))
    triples, means, covs = hypothesis_stats(ch, c)
    idx = random_symbol_stream(rng, c, n)
    ex, ey = encode_indices(c, idx)
    obs = received_samples(*apply_jones(ch, ex, ey), ch.sigma2, rng.standard_normal((n, 4)), "full")[:, :4]

    bank = detection._build_bank(ch, c)
    best, scores = detect_dims123_block(monomials(obs), bank)
    decided = bank.triples[best]
    ref = einsum_bank_scores(means, covs, ch.sigma2, obs)
    assert scores.shape == ref.shape
    assert (decided == triples[ref.argmax(axis=1)]).all()
    eps = np.finfo(float).eps
    if holds_nearest_mean(bank):
        # past the hand-over: -0.5 |w - mu_h|^2, within the rounding of the
        # sums of the P = I table's dot products
        near = half_negative_squared_distances(obs, means)
        tol = 16.0 * eps * expanded_score_scale(means, covs, 0.0, obs)
        assert (np.abs(scores - near) <= tol[:, None]).all()
    else:
        # the surrogate table is off the exact score by about the covariance
        # condition number times eps, relative to the size of the terms
        # summed into a score (see expanded_score_scale).  That bound is
        # below 1e-12 up to about 15 dB and grows 10x per 10 dB beyond.
        scale = expanded_score_scale(means, covs, ch.sigma2, obs)
        tol = 16.0 * np.linalg.cond(covs).max() * eps * scale
        assert (np.abs(scores - ref) <= tol[:, None]).all()


@pytest.mark.parametrize("shape", [(1, 1), (2, 4)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_scores_past_the_hand_over_match_each_hypothesis_terms(shape):
    # past the hand-over the table holds the nearest mean, P = I and
    # log det C = 0, so each score is -0.5 |w - mu_h|^2 of its own
    # hypothesis' mean, and the decisions are the likelihood oracle's
    rng = np.random.default_rng(110)
    c = build_constellation(*shape)
    eps = np.finfo(float).eps
    for osnr_db in (110.0, 115.0, 120.0, 125.0, 130.0, 135.0, 140.0):
        for _ in range(5):
            ch = haar_random_channel(rng, osnr_to_sigma2(osnr_db))
            bank = detection._build_bank(ch, c)
            assert holds_nearest_mean(bank), osnr_db
            triples, means, covs = hypothesis_stats(ch, c)
            mean_sq = (means**2).sum(axis=1)
            assert np.allclose(bank.table[1:5], means.T, rtol=4 * eps, atol=0.0)
            assert np.allclose(bank.table[0], -0.5 * mean_sq, rtol=8 * eps, atol=0.0)
            idx = random_symbol_stream(rng, c, 256)
            obs = received_samples(
                *apply_jones(ch, *encode_indices(c, idx)), ch.sigma2, rng.standard_normal((len(idx), 4)), "full"
            )[:, :4]
            best, scores = detect_dims123_block(monomials(obs), bank)
            decided = bank.triples[best]
            near = half_negative_squared_distances(obs, means)
            tol = 16.0 * eps * expanded_score_scale(means, covs, 0.0, obs)
            assert (np.abs(scores - near) <= tol[:, None]).all(), osnr_db
            oracle = einsum_bank_scores(means, covs, ch.sigma2, obs).argmax(axis=1)
            assert (decided == triples[oracle]).all(), osnr_db


@pytest.mark.parametrize("shape", [(1, 1), (2, 4), (4, 16)], ids=lambda s: f"{s[0]}x{s[1]}")
# one row, and row counts on and either side of a power of two, where the
# GEMM's row blocking leaves different tails
@pytest.mark.parametrize("n", [1, 255, 256, 257])
def test_zero_noise_scores_are_half_negative_squared_distances(shape, n):
    # at sigma2 = 0 the bank takes P = I and every log-determinant is 0, so
    # the table scores -0.5 |w - mu_h|^2, summed as |w|^2 - 2 mu.w + |mu|^2
    rng = np.random.default_rng(21)
    c = build_constellation(*shape)
    ch = haar_random_channel(rng, 0.0)
    obs = rng.standard_normal((n, 4))
    bank = detection._build_bank(ch, c)
    best, scores = detect_dims123_block(monomials(obs), bank)
    decided = bank.triples[best]
    triples, means, covs = hypothesis_stats(ch, c)
    ref = half_negative_squared_distances(obs, means)
    tol = 16.0 * np.finfo(float).eps * expanded_score_scale(means, covs, 0.0, obs)
    assert (np.abs(scores - ref) <= tol[:, None]).all()
    oracle = einsum_bank_scores(means, covs, 0.0, obs).argmax(axis=1)
    assert np.array_equal(scores.argmax(axis=1), oracle)
    assert (decided == triples[oracle]).all()


@pytest.mark.parametrize("shape", [(3, 8), (4, 16)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_high_osnr_decisions_are_exact_past_the_hand_over(shape):
    # w^T P w and mu^T P mu of the expanded table are ~|P| while their
    # difference is O(1); without the hand-over to the nearest mean, 3x8
    # made 87 wrong decisions in 20,000 slots at 145 dB
    rng = np.random.default_rng(16)
    c = build_constellation(*shape)
    for osnr_db in (140.0, 145.0, 148.0):
        for _ in range(10):
            ch = haar_random_channel(rng, osnr_to_sigma2(osnr_db))
            idx = random_symbol_stream(rng, c, 2_000)
            obs = received_samples(
                *apply_jones(ch, *encode_indices(c, idx)), ch.sigma2, rng.standard_normal((len(idx), 4)), "full"
            )[:, :4]
            bank = detection._build_bank(ch, c)
            decided = bank.triples[detect_dims123_block(monomials(obs), bank)[0]]
            assert np.array_equal(decided, idx[:, :3]), (osnr_db, int((decided != idx[:, :3]).any(axis=1).sum()))


@pytest.mark.parametrize("shape", [(2, 4), (4, 16)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_standing_osnr_range_scores_by_the_monomial_table(shape):
    # every standing config (-10 to 60 dB) scores by the surrogate's
    # (P_h, log det C_h); sigma2 = 0 has no covariance and scores the
    # nearest mean
    c = build_constellation(*shape)
    iu, ju = np.array(detection._PAIRS).T
    for seed in range(5):
        rng = np.random.default_rng(seed)
        assert holds_nearest_mean(detection._build_bank(haar_random_channel(rng, 0.0), c))
        for osnr_db in (-10.0, 0.0, 20.0, 40.0, 60.0):
            ch = haar_random_channel(rng, osnr_to_sigma2(osnr_db))
            bank = detection._build_bank(ch, c)
            _, _, covs = hypothesis_stats(ch, c)
            prec = np.linalg.inv(covs)
            expected = np.where(iu == ju, -0.5, -1.0)[:, None] * prec[:, iu, ju].T
            tol = 1e-6 * np.abs(prec).max(axis=(1, 2))  # kappa eps stays below 1e-6 here
            assert (np.abs(bank.table[5:] - expected) <= tol).all(), osnr_db


@pytest.mark.parametrize("osnr_db", [20.0, 120.0], ids=["monomial-table", "nearest-mean"])
@pytest.mark.parametrize(
    "n",
    [
        2,
        2 * SCORE_SLICE_ROWS - 1,
        2 * SCORE_SLICE_ROWS,
        2 * SCORE_SLICE_ROWS + 1,
        3 * SCORE_SLICE_ROWS + SCORE_SLICE_ROWS // 2,
    ],
)
def test_receiver_slices_decide_as_the_whole_frame_oracle(n, osnr_db):
    # the receiver scores the frame score_slice_rows(H) slots at a time.
    # Each alphabet's slice length divides SCORE_SLICE_ROWS, so every n ends
    # the frame at the same place against its slice edges: no edge, one slot
    # either side of an edge, on one, and many slices
    rng = np.random.default_rng(n)
    for shape, rows in (((2, 4), 1024), ((4, 16), 256), ((4, 64), 64)):
        c = build_constellation(*shape)
        assert score_slice_rows(c.n_rings**2 * c.n_phases) == rows and SCORE_SLICE_ROWS % rows == 0
        ch = haar_random_channel(rng, osnr_to_sigma2(osnr_db))
        assert holds_nearest_mean(detection._build_bank(ch, c)) == (osnr_db > 100.0)
        idx = random_symbol_stream(rng, c, n)
        frames = received_samples(
            *apply_jones(ch, *encode_indices(c, idx)), ch.sigma2, rng.standard_normal((len(idx), 4)), "full"
        )
        triples, means, covs = hypothesis_stats(ch, c)
        # the oracle scores whole rows, so its own 256-row chunks (an (n, H,
        # 4) array would take 117 MB at 4x64) leave its decisions as they are
        best = [
            einsum_bank_scores(means, covs, ch.sigma2, frames[start : start + 256, :4]).argmax(axis=1)
            for start in range(0, n, 256)
        ]
        oracle = triples[np.concatenate(best)]
        assert np.array_equal(run_successive_receiver(frames, ch, c).indices[:, :3], oracle), shape


@pytest.mark.parametrize("osnr_db", [20.0, 120.0], ids=["monomial-table", "nearest-mean"])
# one slot either side of the first chunk edge, on it, and past the second
@pytest.mark.parametrize("n", [1819, 1820, 1821, 2 * 1820 + 1])
def test_receiver_chunks_that_no_slice_length_divides_decide_as_the_oracle(n, osnr_db):
    # the receiver builds the monomial rows of whole slices at a time: at 3x8
    # (H = 72) a slice holds 910 slots, so a chunk holds two (1820 slots, not
    # MONOMIAL_CHUNK_ROWS), and the frame's chunk edges fall off the 2^k grid
    rng = np.random.default_rng(n)
    c = build_constellation(3, 8)
    rows = score_slice_rows(c.n_rings**2 * c.n_phases)
    assert rows == 910 and rows * (detection.MONOMIAL_CHUNK_ROWS // rows) == 1820
    ch = haar_random_channel(rng, osnr_to_sigma2(osnr_db))
    assert holds_nearest_mean(detection._build_bank(ch, c)) == (osnr_db > 100.0)
    idx = random_symbol_stream(rng, c, n)
    frames = received_samples(
        *apply_jones(ch, *encode_indices(c, idx)), ch.sigma2, rng.standard_normal((len(idx), 4)), "full"
    )
    triples, means, covs = hypothesis_stats(ch, c)
    best = [
        einsum_bank_scores(means, covs, ch.sigma2, frames[start : start + 256, :4]).argmax(axis=1)
        for start in range(0, n, 256)
    ]
    oracle = triples[np.concatenate(best)]
    assert np.array_equal(run_successive_receiver(frames, ch, c).indices[:, :3], oracle)


@pytest.mark.parametrize("n", [1, 255, 256, 2049])
def test_monomials_are_the_explicit_rows_bit_for_bit(n):
    # (1, w1..w4, w_i w_j for i <= j in _PAIRS order), each product one
    # rounding, whatever the row count
    assert detection._PAIRS == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
    obs = np.random.default_rng(n).standard_normal((n, 4)) * 10.0 ** np.arange(-2, 2)
    want = [np.ones(n), *obs.T, *(obs[:, i] * obs[:, j] for i, j in detection._PAIRS)]
    got = monomials(obs)
    assert got.shape == (15, n) and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


# --- inter-slot detection -----------------------------------------------------


def test_identity_channel_beat_gain_reduces_to_magnitude_product():
    c = build_constellation(2, 4)
    ch = JonesChannel(1.0 + 0j, 0j, 0.0)
    rng = np.random.default_rng(6)
    idx = random_symbol_stream(rng, c, 10)
    gain = beat_gain(c, ch, idx[:, :3])
    radii = np.asarray(c.radii)
    expected = radii[idx[1:, 0]] * radii[idx[:-1, 1]]
    assert np.abs(gain - expected).max() < 1e-12


def test_noiseless_closed_form_eta_statistic():
    rng = np.random.default_rng(19)
    c = build_constellation(2, 4)
    for _ in range(20):
        ch = haar_random_channel(rng, 0.0)
        idx = random_symbol_stream(rng, c, 200)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        frames = frontend_full_block(kx, ky)
        w56 = frames[1:, 4] + 1j * frames[1:, 5]
        gain = beat_gain(c, ch, idx[:, :3])
        stat = w56 / (2.0 * gain)
        assert np.abs(np.abs(stat) - 1.0).max() < 1e-9
        err = wrap_angle(np.angle(stat) - idx[1:, 3] * c.phase_step)
        assert np.abs(err).max() < 1e-8


@pytest.mark.parametrize("rings, phases", [(1, 1), (2, 4), (3, 8), (4, 16)])
def test_stream_gain_matches_expanded_form(rings, phases):
    # K_x[n] K_y*[n-1] of the anchored fields is ell^T v, the paper's
    # expansion into four transmit beat terms, up to rounding
    rng = np.random.default_rng(rings * 100 + phases)
    c = build_constellation(rings, phases)
    for _ in range(20):
        ch = haar_random_channel(rng)
        idx = random_symbol_stream(rng, c, 2_000)[:, :3]
        gain = beat_gain(c, ch, idx)
        expected = ell_gain(c, ch, idx[:-1], idx[1:])
        assert gain.shape == (len(idx) - 1,)
        assert np.abs(gain - expected).max() <= 1e-14 * np.abs(expected).max()


def test_rounded_phase_decision_matches_argmin_oracle():
    # random rows sit off the decision boundaries, where both rules agree
    rng = np.random.default_rng(404)
    rows = 0
    for phases in (1, 2, 3, 4, 5, 8, 16, 33, 64):
        c = build_constellation(1, phases)
        for _ in range(6):
            n = 20_000
            w56 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            gain = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-3, 1, n)
            decided = detect_dim4_block(w56, gain, c)
            erased = decided < 0
            assert not erased.any()
            assert np.array_equal(decided, nearest_phase_argmin(w56, gain, c))
            rows += n
    assert rows >= 1_000_000


@pytest.mark.parametrize("phases", [1, 2, 3, 16])
def test_rounded_phase_decision_at_ties_picks_a_nearest_mean(phases):
    # w56 = 0 ties every candidate and half-step angles tie two; the rules
    # may break a tie differently, but both pick a nearest mean
    rng = np.random.default_rng(phases)
    c = build_constellation(1, phases)
    step = c.phase_step
    gains = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    half = (np.arange(-phases, phases) + 0.5) * step
    radii = (0.5, 1.0, 3.0)
    w56 = np.concatenate(
        [np.zeros(len(gains), dtype=complex)]
        + [2.0 * r * g * np.exp(1j * half) for g in gains for r in radii]
    )
    gain = np.concatenate([gains] + [np.full(len(half), g) for g in gains for _ in radii])
    decided = detect_dim4_block(w56, gain, c)
    erased = decided < 0
    assert not erased.any()
    assert ((decided >= 0) & (decided < phases)).all()
    means = 2.0 * gain[:, None] * np.exp(1j * step * np.arange(phases))[None, :]
    dist = np.abs(w56[:, None] - means) ** 2
    chosen = dist[np.arange(len(w56)), decided]
    assert (np.abs(chosen - dist.min(axis=1)) <= 1e-12 * dist.min(axis=1)).all()


@pytest.mark.parametrize("n", [1, 3, 8191, 8192])
def test_floor_mod_is_the_remainder_operator(n):
    # the phase decision's k - (k // n) * n, in place, against numpy's %:
    # negative values, both int64 ends and +-2**62 with their neighbours,
    # where (k // n) * n may wrap past the int64 range
    edges = [0, 1, -1, n - 1, n, n + 1, -n + 1, -n, -n - 1, 2**62, -(2**62), 2**63 - 1, -(2**63)]
    k = np.array(edges + [e + d for e in (2**62, -(2**62)) for d in (-n - 1, -n, -1, 1, n, n + 1)], dtype=np.int64)
    k = np.concatenate([k, np.random.default_rng(n).integers(-(2**63), 2**63 - 1, 10_000, endpoint=True)])
    want = k % n
    got = detection._floor_mod(k, n)
    assert got is k and got.dtype == np.int64
    assert np.array_equal(got, want)


def test_phase_decision_allocates_no_slot_by_phase_table():
    n, phases = 10_000, 64
    rng = np.random.default_rng(9)
    c = build_constellation(1, phases)
    w56 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gain = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tracemalloc.start()
    try:
        detect_dim4_block(w56, gain, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an (n, n_phases) float64 table alone would take n * phases * 8 bytes
    assert peak < n * phases * 8 // 4


def test_receiver_gain_normalizes_noiseless_beat():
    # the conditioning gain the receiver reports maps the noiseless delayed
    # beat onto exp(i eta step), in both modes (criterion 06's bounds)
    rng = np.random.default_rng(1006)
    c = build_constellation(2, 4)
    for _ in range(20):
        ch = haar_random_channel(rng, 0.0)
        idx = random_symbol_stream(rng, c, 500)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        frames = frontend_full_block(kx, ky)
        w56 = frames[1:, 4] + 1j * frames[1:, 5]
        for given in (None, beat_gain(c, ch, idx[:, :3])):
            gain = run_successive_receiver(frames, ch, c, gain=given).gain
            assert gain.shape == (len(idx) - 1,)
            stat = w56 / (2.0 * gain)
            assert np.abs(np.abs(stat) - 1.0).max() < 1e-9
            err = wrap_angle(np.angle(stat) - idx[1:, 3] * c.phase_step)
            assert np.abs(err).max() < 1e-8


def test_decision_directed_gain_conditions_on_pilot_and_decisions():
    rng = np.random.default_rng(23)
    c = build_constellation(2, 4)
    ch = haar_random_channel(rng, osnr_to_sigma2(8.0))
    idx = random_symbol_stream(rng, c, 400)
    ex, ey = encode_indices(c, idx)
    frames = received_samples(*apply_jones(ch, ex, ey), ch.sigma2, rng.standard_normal((len(idx), 4)), "full")
    result = run_successive_receiver(frames, ch, c)
    cond = result.indices[:, :3].copy()
    assert (cond[1:] != idx[1:, :3]).any()  # the decisions, not the truth
    cond[0] = PILOT[:3]
    expected = ell_gain(c, ch, cond[:-1], cond[1:])
    assert np.allclose(result.gain, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape", [(1, 1), (2, 4), (4, 16)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_decision_directed_gain_is_beat_gain_of_the_pilot_pinned_decisions(shape):
    # the receiver gathers its own gain from its bank's field table by its
    # decided hypothesis numbers, slot 0 pinned to the pilot's; it must equal
    # beat_gain of the decided stream with slot 0 set to PILOT, bit for bit,
    # also past 16,384 slots, where numpy computes a product of a temporary
    # in place with its operands swapped
    rng = np.random.default_rng(1011)
    c = build_constellation(*shape)
    for osnr_db in (None, 10.0, 14.0, 18.0, 22.0, 26.0):
        sigma2 = 0.0 if osnr_db is None else osnr_to_sigma2(osnr_db)
        ch = haar_random_channel(rng, sigma2)
        for n in (2, 700, 20_000):
            idx = random_symbol_stream(rng, c, n)
            idx[0] = PILOT
            kx, ky = apply_jones(ch, *encode_indices(c, idx))
            frames = received_samples(kx, ky, sigma2, rng.standard_normal((n, 4)), "full")
            result = run_successive_receiver(frames, ch, c)
            cond = result.indices[:, :3].copy()
            cond[0] = PILOT[:3]
            want = beat_gain(c, ch, cond)
            assert np.array_equal(result.gain.view(np.uint64), want.view(np.uint64)), (osnr_db, n)


@pytest.mark.parametrize("shape", [(1, 1), (2, 4), (4, 16), (4, 64)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_hypothesis_numbers_give_the_decided_triples(shape):
    # detect_dims123_block returns each slot's argmax hypothesis number h;
    # bank.triples[h] must be the (rx, ry, t) the rx-major numbering gives
    # that argmax, which the block returned as its decision before, and the
    # receiver's decided triples, slice by slice (1024, 256 and 64 rows)
    rng = np.random.default_rng(1013)
    c = build_constellation(*shape)
    alphabet = (c.n_rings, c.n_rings, c.n_phases)
    ch = haar_random_channel(rng, osnr_to_sigma2(12.0))
    rows = score_slice_rows(c.n_rings**2 * c.n_phases)
    n = 2 * rows + 37
    idx = random_symbol_stream(rng, c, n)
    idx[0] = PILOT
    kx, ky = apply_jones(ch, *encode_indices(c, idx))
    frames = received_samples(kx, ky, ch.sigma2, rng.standard_normal((n, 4)), "full")
    bank = detection._build_bank(ch, c)
    decided = []
    for start in range(0, n, rows):
        h, scores = detect_dims123_block(monomials(frames[start : start + rows, :4]), bank)
        assert h.shape == (len(scores),)
        assert np.array_equal(h, scores.argmax(axis=1))
        want = np.column_stack(np.unravel_index(scores.argmax(axis=1), alphabet))
        assert np.array_equal(bank.triples[h], want)
        decided.append(want)
    result = run_successive_receiver(frames, ch, c)
    assert np.array_equal(result.indices[:, :3], np.concatenate(decided))


def test_phasor_gathers_equal_the_per_slot_exp_bit_for_bit():
    # the fields' phase factors are gathered from an n_phases table built by
    # the same expression as the former one exp per slot, so no bit moves
    rng = np.random.default_rng(64)
    ch = haar_random_channel(rng)
    for n_phases in range(1, 65):
        c = build_constellation(2, n_phases)
        idx = random_symbol_stream(rng, c, 30_001)[:, :3]
        radii, step = np.asarray(c.radii), c.phase_step
        ey = radii[idx[:, 1]] * np.exp(-1j * step * idx[:, 2])
        triples, _, ky_h = detection._hypothesis_fields(ch, c)
        ey_h = radii[triples[:, 1]] * np.exp(-1j * step * triples[:, 2])
        ky_ref = apply_jones(ch, radii[triples[:, 0]].astype(complex), ey_h)[1]
        assert np.array_equal(ky_h.view(np.uint64), ky_ref.view(np.uint64))
        kx, ky = apply_jones(ch, radii[idx[:, 0]].astype(complex), ey)
        gain = kx[1:] * np.conj(ky[:-1] * np.exp(1j * step * idx[:-1, 2]))
        assert np.array_equal(beat_gain(c, ch, idx).view(np.uint64), gain.view(np.uint64))


def test_detect_dim4_noiseless_exact():
    rng = np.random.default_rng(31)
    c = build_constellation(2, 4)
    for _ in range(20):
        ch = haar_random_channel(rng, 0.0)
        idx = random_symbol_stream(rng, c, 100)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        frames = frontend_full_block(kx, ky)
        result = run_successive_receiver(frames, ch, c)
        assert (result.indices[1:, 3] == idx[1:, 3]).all()
        assert not result.erasures.any()


def test_all_pilot_noiseless_frame_decodes_error_free():
    c = build_constellation(2, 4)
    rng = np.random.default_rng(44)
    idx = np.zeros((64, 4), dtype=np.int64)
    for _ in range(10):
        ch = haar_random_channel(rng, 0.0)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        res = run_successive_receiver(frontend_full_block(kx, ky), ch, c)
        assert (res.indices == idx).all()
        assert not res.erasures.any()


def test_detect_dim4_flags_erasure_when_beat_vanishes():
    c = build_constellation(1, 2)
    s = math.sqrt(0.5)
    ch = JonesChannel(s + 0j, s + 0j, 0.01)
    prev = Decision(
        SymbolIndices(0, 0, 0, 0),
        e_now=DualPolSymbol(complex(c.radii[0]), complex(c.radii[0])),
    )
    # theta = pi makes E_y = -E_x, so K_x = (E_x + E_y)/sqrt(2) = 0
    now = Decision(SymbolIndices(0, 0, 1, 0))
    assert detect_dim4(0.1, -0.2, now, prev, ch, c) is None


def test_slotwise_scalar_receiver_matches_block_receiver():
    rng = np.random.default_rng(55)
    c = build_constellation(2, 4)
    ch = haar_random_channel(rng, osnr_to_sigma2(14.0))
    idx = random_symbol_stream(rng, c, 60)
    ex, ey = encode_indices(c, idx)
    frames = received_samples(*apply_jones(ch, ex, ey), ch.sigma2, rng.standard_normal((len(idx), 4)), "full")
    block = run_successive_receiver(frames, ch, c)

    # reference walk over the scalar API, maintaining the phase chain
    arr = frames_to_array(frames)
    step = c.phase_step
    pilot_fields = DualPolSymbol(complex(ex[0]), complex(ey[0]))
    prev_dec = Decision(SymbolIndices(*PILOT), e_now=pilot_fields)
    decided = [detect_dims123(arr[0, :4], ch, c).indices]
    etas = [0]
    for n in range(1, len(arr)):
        dn = detect_dims123(arr[n, :4], ch, c)
        e = detect_dim4(arr[n, 4], arr[n, 5], dn, prev_dec, ch, c)
        chain_e = 0 if e is None else e
        etas.append(-1 if e is None else e)
        decided.append(dn.indices)
        base = cmath.phase(prev_dec.e_now.ey)
        phase_x = base + chain_e * step
        exn = c.radii[dn.indices.rx] * cmath.exp(1j * phase_x)
        eyn = c.radii[dn.indices.ry] * cmath.exp(1j * (phase_x - dn.indices.t * step))
        prev_dec = Decision(dn.indices, e_now=DualPolSymbol(exn, eyn))

    for n in range(len(arr)):
        assert (decided[n].rx, decided[n].ry, decided[n].t) == tuple(block.indices[n, :3])
        if n >= 1:
            assert etas[n] == block.indices[n, 3]


def test_beat_gain_rejects_indices_outside_the_alphabet():
    # a negative index would otherwise wrap around to the alphabet's end, and
    # a float array would be cast to integers
    rng = np.random.default_rng(3)
    c = build_constellation(2, 4)
    ch = haar_random_channel(rng)
    idx = random_symbol_stream(rng, c, 20)[:, :3]
    for stream in (idx[:, :2], idx[:, None], idx.ravel(), idx.astype(float), idx > 0):
        with pytest.raises(ValueError):
            beat_gain(c, ch, stream)
    # negative and too-large indices: the error names idx and the alphabet
    outside = []
    for row, col, value in ((5, 0, -1), (6, 1, c.n_rings), (7, 2, c.n_phases), (8, 2, -2)):
        wrong = idx.copy()
        wrong[row, col] = value
        outside.append(wrong)
    outside.append(np.full_like(idx, -1))
    for stream in outside:
        with pytest.raises(ValueError, match=r"idx .*\(2, 2, 4\)"):
            beat_gain(c, ch, stream)
    assert beat_gain(c, ch, idx).shape == (len(idx) - 1,)  # the true indices pass


def test_receiver_rejects_a_malformed_gain():
    rng = np.random.default_rng(3)
    c = build_constellation(2, 4)
    ch = haar_random_channel(rng, 0.01)
    idx = random_symbol_stream(rng, c, 20)
    ex, ey = encode_indices(c, idx)
    frames = received_samples(*apply_jones(ch, ex, ey), ch.sigma2, rng.standard_normal((len(idx), 4)), "full")
    gain = beat_gain(c, ch, idx[:, :3])
    with_nan = gain.copy()
    with_nan[4] = np.nan
    with_inf = gain.copy()
    with_inf[7] = np.inf
    for wrong in (gain[:-1], np.append(gain, gain[0]), gain[:, None], with_nan, with_inf):
        with pytest.raises(ValueError, match="gain"):
            run_successive_receiver(frames, ch, c, gain=wrong)
    run_successive_receiver(frames, ch, c, gain=gain)  # the true values' gain passes


def test_receiver_rejects_frames_that_are_not_finite_and_real():
    # a NaN row decided hypothesis (0, 0, 0) and phase 0, an infinite w5
    # decided phase 0, and complex frames ran on, each with at most a warning
    rng = np.random.default_rng(3)
    c = build_constellation(2, 4)
    ch = haar_random_channel(rng, 0.01)
    idx = random_symbol_stream(rng, c, 20)
    ex, ey = encode_indices(c, idx)
    frames = received_samples(*apply_jones(ch, ex, ey), ch.sigma2, rng.standard_normal((len(idx), 4)), "full")
    with_nan = frames.copy()
    with_nan[5] = np.nan
    with_inf = frames.copy()
    with_inf[7, 4] = np.inf
    for wrong in (with_nan, with_inf, frames + 0j):
        for gain in (None, beat_gain(c, ch, idx[:, :3])):
            with pytest.raises(ValueError, match="frames"):
                run_successive_receiver(wrong, ch, c, gain=gain)
    run_successive_receiver(frames, ch, c)  # finite real samples pass


def test_receiver_peak_memory_is_bounded_by_the_score_slice():
    # the receiver keeps only each slice's argmax, and a slice holds at most
    # 2^16 scores (512 KiB), so a 10^4-slot call stays within three such
    # blocks (1.5 MiB; it peaks at 1.20 MiB at 4x16 and 1.37 MiB at 4x64).
    # A whole-frame (n, H) score table (19.5 MiB at 4x16) or one 1024-row
    # slice (2 MiB at 4x16, 8 MiB at 4x64) alone would break it
    bound = 3 * 2**16 * 8
    rng = np.random.default_rng(4)
    for shape in ((4, 16), (4, 64)):
        c = build_constellation(*shape)
        ch = haar_random_channel(rng, osnr_to_sigma2(20.0))
        idx = random_symbol_stream(rng, c, 10_000)
        frames = received_samples(
            *apply_jones(ch, *encode_indices(c, idx)), ch.sigma2, rng.standard_normal((len(idx), 4)), "full"
        )
        for gain in (None, beat_gain(c, ch, idx[:, :3])):
            tracemalloc.start()
            try:
                run_successive_receiver(frames, ch, c, gain=gain)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (shape, peak, bound)


def test_genie_mode_dominates_decision_directed_dim4():
    rng = np.random.default_rng(70)
    c = build_constellation(2, 4)
    genie_err = dd_err = 0
    trials = 0
    for block in range(4):
        ch = haar_random_channel(rng, osnr_to_sigma2(12.0))
        idx = random_symbol_stream(rng, c, 4000)
        ex, ey = encode_indices(c, idx)
        frames = received_samples(*apply_jones(ch, ex, ey), ch.sigma2, rng.standard_normal((len(idx), 4)), "full")
        dd = run_successive_receiver(frames, ch, c)
        genie = run_successive_receiver(frames, ch, c, gain=beat_gain(c, ch, idx[:, :3]))
        # the per-slot stages are identical in both modes
        assert (dd.indices[:, :3] == genie.indices[:, :3]).all()
        genie_err += int((genie.indices[1:, 3] != idx[1:, 3]).sum())
        dd_err += int((dd.indices[1:, 3] != idx[1:, 3]).sum())
        trials += len(idx) - 1
    slack = 3.0 * math.sqrt(genie_err + dd_err + 1)
    assert genie_err <= dd_err + slack
    assert 0 < genie_err < trials  # the operating point actually exercises errors


# --- channel estimation -------------------------------------------------------


def test_estimate_channel_noiseless_exact():
    rng = np.random.default_rng(90)
    for _ in range(50):
        ch = haar_random_channel(rng, 0.0)
        est, residual = estimate_channel(run_training([ch], 1, [rng]))
        assert residual < 1e-9
        assert gauge_aligned_error(est, ch) < 1e-9


def test_estimate_channel_of_non_finite_observables_raises():
    # a NaN or infinite estimate would reach the receiver, which decides
    # every slot as hypothesis 0 on a NaN channel
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            estimate_channel(np.full((3, 4), value))


@pytest.mark.parametrize("where", ["all-nan", "one-nan-among-zeros", "all-inf"])
def test_estimate_channel_names_non_finite_training_obs(where):
    # without the check, all-NaN observables failed on |a|^2 + |b|^2 = 1 and
    # one NaN beat among zero observables on "cannot normalize the zero pair"
    obs = {
        "all-nan": np.full((3, 4), math.nan),
        "one-nan-among-zeros": np.zeros((3, 4)),
        "all-inf": np.full((3, 4), math.inf),
    }[where]
    if where == "one-nan-among-zeros":
        obs[0, 2] = math.nan
    with pytest.raises(ValueError, match="training_obs"):
        estimate_channel(obs)


def test_identity_channel_pilot_observables():
    ch = JonesChannel(1.0 + 0j, 0j, 0.0)
    obs = run_training([ch], 1, [np.random.default_rng(0)])
    assert np.allclose(obs[0, :4], [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_estimate_invariant_to_whole_matrix_phase():
    # e^{i phi} J produces identical observables, hence an identical estimate
    rng = np.random.default_rng(91)
    ch = haar_random_channel(rng, 0.0)
    est_ref, _ = estimate_channel(run_training([ch], 1, [rng]))
    dark = DualPolSymbol(0j, 0j)
    for phi in (0.0, 0.4, -2.2, math.pi / 2):
        rot = cmath.exp(1j * phi)
        obs = []
        for ex, ey in TRAINING_PILOTS:
            kx, ky = apply_jones(ch, ex, ey)
            obs.append(frontend_full(DualPolSymbol(rot * kx, rot * ky), dark).as_array()[:4])
        est, _ = estimate_channel(np.array(obs))
        assert abs(est.a - est_ref.a) < 1e-12
        assert abs(est.b - est_ref.b) < 1e-12


def test_estimate_channel_noisy_convergence():
    rng = np.random.default_rng(92)
    ch = haar_random_channel(rng, osnr_to_sigma2(20.0))
    est, _ = estimate_channel(run_training([ch], 2000, [rng]))
    assert gauge_aligned_error(est, ch) < 0.03


def test_estimate_channel_recovers_complex_rotations_for_detection():
    # estimates must preserve arg(a) mod pi, otherwise beat predictions rotate
    rng = np.random.default_rng(93)
    c = build_constellation(2, 4)
    for _ in range(10):
        ch = haar_random_channel(rng, 0.0)
        est, _ = estimate_channel(run_training([ch], 1, [rng]))
        idx = random_symbol_stream(rng, c, 40)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        frames = frontend_full_block(kx, ky)
        result = run_successive_receiver(frames, est, c)
        assert (result.indices[:, :3] == idx[:, :3]).all()
        assert (result.indices[1:, 3] == idx[1:, 3]).all()


def test_estimate_channel_requires_three_pilot_blocks():
    ch = JonesChannel(1.0 + 0j, 0j, 0.0)
    obs = run_training([ch], 1, [np.random.default_rng(0)])
    assert obs.shape == (3, 4)
    assert obs.dtype == np.float64
    for bad in (obs[:2], np.vstack([obs, obs[:1]]), np.hstack([obs, obs[:, 2:]])):
        with pytest.raises(ValueError, match=r"\(3, 4\)"):
            estimate_channel(bad)


@pytest.mark.parametrize("repeats", [1, 2, 17, 10_000])
def test_training_matches_the_exact_moments(repeats):
    # each pilot's average of r independent slots has the slot's mean mu and
    # covariance C / r, those of gaussian_stats_dims123 for the pilot's
    # fields; the quadrature oracle integrates run_training's own draws
    # exactly, so they agree to rounding.  One transmission is the frame
    # path's own noisy sample, bit for bit, and noiseless training gives the
    # noiseless Stokes vectors
    rng = np.random.default_rng(95)
    for sigma2 in (0.0, osnr_to_sigma2(0.0), osnr_to_sigma2(20.0), osnr_to_sigma2(40.0)):
        ch = haar_random_channel(rng, sigma2)
        kx, ky = apply_jones(ch, *TRAINING_PILOTS.T)
        seed = int(rng.integers(2**32))
        got = run_training([ch], repeats, [np.random.default_rng(seed)])
        if repeats == 1:
            unit = np.random.default_rng(seed).standard_normal((3, 4))
            assert np.array_equal(got, received_samples(kx, ky, sigma2, unit, "full")[:, :4])
        elif sigma2 == 0.0:
            assert np.array_equal(got, stokes_vector(kx, ky))
        if sigma2 == 0.0:
            continue
        mean, cov = training_moments(ch, repeats)
        want_mean, want_cov = gaussian_stats_dims123(kx, ky, sigma2)
        want_cov = want_cov / repeats
        assert np.abs(mean - want_mean).max() <= 1e-11 * np.abs(want_mean).max()
        assert np.abs(cov - want_cov).max() <= 1e-11 * np.abs(want_cov).max()


@pytest.mark.parametrize("k", [1, 2, 9])
@pytest.mark.parametrize("repeats", [1, 2, 17, 10_000])
def test_grid_training_equals_each_point_trained_alone(k, repeats):
    # each point of a grid makes its own draws, and the stacked pilot rows go
    # through the same elementwise operations, so every point's (3, 4)
    # averages are, bit for bit, those of one point per call (the oracle)
    # and of the point trained alone, at every noise level
    rng = np.random.default_rng(1012)
    levels = (0.0, 1e-12, 0.025, MAX_SIGMA2)
    for offset in range(len(levels)):
        channels = [haar_random_channel(rng, levels[(offset + i) % len(levels)]) for i in range(k)]
        seeds = [int(s) for s in rng.integers(2**63, size=k)]
        got = run_training(channels, repeats, [np.random.default_rng(s) for s in seeds])
        assert got.shape == (3 * k, 4)
        for i, (ch, seed) in enumerate(zip(channels, seeds)):
            want = single_point_training(ch, repeats, np.random.default_rng(seed)).view(np.uint64)
            assert np.array_equal(got[3 * i : 3 * i + 3].view(np.uint64), want), (i, ch.sigma2)
            alone = run_training([ch], repeats, [np.random.default_rng(seed)])
            assert np.array_equal(alone.view(np.uint64), want), (i, ch.sigma2)


def test_training_needs_one_generator_per_point():
    ch = haar_random_channel(np.random.default_rng(98), osnr_to_sigma2(20.0))
    for channels, n_rngs in (([ch], 0), ([ch, ch], 1), ([ch], 2), ([], 0)):
        with pytest.raises(ValueError, match="generator"):
            run_training(channels, 2, [np.random.default_rng(0)] * n_rngs)


def test_training_rejects_repeats_that_are_not_positive_integers():
    # a fractional count is the law of no number of transmissions; bool is
    # an int subclass but never a count
    ch = haar_random_channel(np.random.default_rng(99), osnr_to_sigma2(20.0))
    for repeats in (2.5, 1.5, 2.0, np.float64(3.0), True, 0, -3, np.int64(0)):
        with pytest.raises(ValueError, match="repeats"):
            run_training([ch], repeats, [np.random.default_rng(0)])
    for repeats in (2.5, True):  # the demo names its CLI flag, before it draws a channel
        with pytest.raises(ValueError, match="--repeats"):
            channel_estimation_demo(20.0, repeats)
    for repeats in (1, 17):
        want = run_training([ch], repeats, [np.random.default_rng(0)])
        got = run_training([ch], np.int64(repeats), [np.random.default_rng(0)])
        assert np.array_equal(got, want)


def test_training_cost_is_independent_of_repeats():
    # 10^12 repeats draws as many numbers as 2 repeats: the (10^12, 4)
    # brute-force draw would not fit in memory
    rng = np.random.default_rng(97)
    ch = haar_random_channel(rng, osnr_to_sigma2(10.0))
    start = time.perf_counter()
    got = run_training([ch], 10**12, [rng])
    assert time.perf_counter() - start < 1.0
    assert np.isfinite(got).all()
    for row, (ex, ey) in zip(got, TRAINING_PILOTS):
        # the noiseless Stokes vector, with the noise power 2 sigma2 on each intensity
        mean, _ = gaussian_stats_dims123(*apply_jones(ch, ex, ey), ch.sigma2)
        assert np.abs(row - mean).max() < 1e-4
