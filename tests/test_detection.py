import cmath
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd.channel import (
    JonesChannel,
    add_unit_noise,
    apply_jones,
    haar_random_channel,
    osnr_to_sigma2,
    propagate_block,
)
from stokesdd.constellation import DualPolSymbol, SymbolIndices, build_constellation, encode_indices
from stokesdd.detection import (
    PILOT,
    SCORE_SLICE_ROWS,
    TRAINING_PILOTS,
    beat_gain,
    context_vectors,
    detect_dim4_block,
    detect_dims123_block,
    estimate_channel,
    gauge_aligned_error,
    gaussian_stats_dim4,
    gaussian_stats_dims123,
    run_successive_receiver,
    run_training,
)
import stokesdd.detection as detection
from stokesdd.frontend import frontend_full_block

from reference import (
    Decision,
    detect_dim4,
    detect_dims123,
    einsum_bank_scores,
    ell_gain,
    ell_vector,
    frames_to_array,
    frontend_full,
    hypothesis_stats,
    nearest_phase_argmin,
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
    stats = gaussian_stats_dims123(kx, ky, 0.0)
    beat = kx * np.conj(ky)
    assert np.allclose(stats.cov, 0.0)
    assert np.allclose(
        stats.mean, [abs(kx) ** 2, abs(ky) ** 2, 2 * beat.real, 2 * beat.imag]
    )


def test_stats123_hand_substitution():
    stats = gaussian_stats_dims123(1.0 + 0j, 0j, 1.0)
    assert np.allclose(stats.mean, [3.0, 2.0, 0.0, 0.0])
    assert np.allclose(np.diag(stats.cov), [8.0, 4.0, 12.0, 12.0])
    assert np.allclose(stats.cov - np.diag(np.diag(stats.cov)), 0.0)


def test_stats123_symmetry_and_psd():
    rng = np.random.default_rng(8)
    for _ in range(50):
        kx = complex(rng.standard_normal(), rng.standard_normal())
        ky = complex(rng.standard_normal(), rng.standard_normal())
        stats = gaussian_stats_dims123(kx, ky, float(rng.uniform(0, 0.5)))
        assert np.abs(stats.cov - stats.cov.T).max() < 1e-12
        assert np.linalg.eigvalsh(stats.cov).min() > -1e-9


def test_stats4_hand_substitution():
    stats = gaussian_stats_dim4(1.0 + 0j, 1.0 + 0j, 1.0)
    assert np.allclose(stats.mean, [2.0, 0.0])
    assert np.allclose(stats.cov, 16.0 * np.eye(2))


def test_stats4_zero_noise():
    kx, kyp = 0.7 - 0.1j, 0.2 + 0.5j
    stats = gaussian_stats_dim4(kx, kyp, 0.0)
    beat = kx * np.conj(kyp)
    assert np.allclose(stats.cov, 0.0)
    assert np.allclose(stats.mean, [2 * beat.real, 2 * beat.imag])


def test_stats_reject_negative_sigma2():
    with pytest.raises(ValueError):
        gaussian_stats_dims123(1.0, 0.0, -0.1)
    with pytest.raises(ValueError):
        gaussian_stats_dim4(1.0, 0.0, -0.1)


def test_monte_carlo_moment_oracle_small():
    # scaled-down version of the full acceptance check
    rng = np.random.default_rng(123)
    for _ in range(4):
        kx = complex(rng.standard_normal(), rng.standard_normal()) * 0.7
        ky = complex(rng.standard_normal(), rng.standard_normal()) * 0.7
        sigma2 = float(10 ** rng.uniform(-2.0, -0.7))
        s = math.sqrt(sigma2)
        n = 200_000
        unit = rng.standard_normal((n, 4))
        fx = kx + s * (unit[:, 0] + 1j * unit[:, 1])
        fy = ky + s * (unit[:, 2] + 1j * unit[:, 3])
        beat = fx * np.conj(fy)
        w = np.stack(
            [np.abs(fx) ** 2, np.abs(fy) ** 2, 2 * beat.real, 2 * beat.imag], axis=1
        )
        stats = gaussian_stats_dims123(kx, ky, sigma2)
        emp_mean = w.mean(axis=0)
        emp_cov = np.cov(w.T)
        floor = 0.05 * np.abs(stats.mean).max()
        mask = np.abs(stats.mean) > floor
        assert (
            np.abs(emp_mean - stats.mean)[mask] / np.abs(stats.mean)[mask]
        ).max() < 0.03
        floor = 0.05 * np.abs(stats.cov).max()
        mask = np.abs(stats.cov) > floor
        assert (
            np.abs(emp_cov - stats.cov)[mask] / np.abs(stats.cov)[mask]
        ).max() < 0.03

        stats4 = gaussian_stats_dim4(kx, ky, sigma2)
        w56 = w[:, 2:4]
        emp = np.cov(w56.T)
        assert abs(emp[0, 0] - stats4.cov[0, 0]) / stats4.cov[0, 0] < 0.03
        assert abs(emp[1, 1] - stats4.cov[1, 1]) / stats4.cov[1, 1] < 0.03
        assert abs(emp[0, 1]) < 0.03 * stats4.cov[0, 0]


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
        decided, _ = detect_dims123_block(frames[:, :4], ch, c)
        assert (decided == idx[:, :3]).all()


def test_detect_returns_hypothesis_at_its_mean():
    c = build_constellation(1, 4)
    ch = JonesChannel(1.0 + 0j, 0j, 1.0)
    r = c.radii[0]
    for t in range(4):
        kx = r
        ky = r * cmath.exp(-1j * t * c.phase_step)
        stats = gaussian_stats_dims123(kx, ky, 1.0)
        decision = detect_dims123(np.concatenate([stats.mean, [0, 0]]), ch, c)
        assert decision.indices.t == t


def test_argmax_invariant_to_affine_score_changes():
    rng = np.random.default_rng(4)
    c = build_constellation(2, 4)
    ch = haar_random_channel(rng, 0.01)
    idx = random_symbol_stream(rng, c, 20)
    ex, ey = encode_indices(c, idx)
    fx, fy, _, _ = propagate_block(ch, ex, ey, rng)
    frames = frontend_full_block(fx, fy)
    _, scores = detect_dims123_block(frames[:, :4], ch, c)
    base = scores.argmax(axis=1)
    assert (np.argmax(3.7 * scores + 11.0, axis=1) == base).all()


def test_scalar_detect_matches_block():
    rng = np.random.default_rng(15)
    c = build_constellation(2, 4)
    ch = haar_random_channel(rng, 0.02)
    idx = random_symbol_stream(rng, c, 30)
    ex, ey = encode_indices(c, idx)
    fx, fy, _, _ = propagate_block(ch, ex, ey, rng)
    frames = frontend_full_block(fx, fy)
    block, _ = detect_dims123_block(frames[:, :4], ch, c)
    for n in range(len(idx)):
        d = detect_dims123(frames[n, :4], ch, c)
        assert (d.indices.rx, d.indices.ry, d.indices.t) == tuple(block[n])


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (2, 4), (3, 8), (4, 16)]),
    osnr_db=st.floats(0.0, 140.0),
    # no slice edge, one slot either side of an edge, on one, and many slices
    n=st.sampled_from(
        [1, 2 * SCORE_SLICE_ROWS - 1, 2 * SCORE_SLICE_ROWS, 2 * SCORE_SLICE_ROWS + 1, 1000]
    ),
    seed=st.integers(0, 2**31),
)
def test_whitened_scores_match_einsum_oracle(shape, osnr_db, n, seed):
    rng = np.random.default_rng(seed)
    c = build_constellation(*shape)
    ch = haar_random_channel(rng, osnr_to_sigma2(osnr_db))
    triples, means, covs = hypothesis_stats(ch, c)
    idx = random_symbol_stream(rng, c, n)
    ex, ey = encode_indices(c, idx)
    fx, fy, _, _ = propagate_block(ch, ex, ey, rng)
    obs = frontend_full_block(fx, fy)[:, :4]

    decided, scores = detect_dims123_block(obs, ch, c)
    ref = einsum_bank_scores(means, covs, ch.sigma2, obs)
    assert scores.shape == ref.shape
    assert (decided == triples[ref.argmax(axis=1)]).all()
    # Both forms are backward stable, so each is off the exact score by about
    # the covariance condition number times eps, relative to the size of the
    # terms summed into a score (0.5 (quad + |log det|)).  That bound is below
    # 1e-12 up to about 15 dB and grows 10x per 10 dB beyond.
    logdets = np.linalg.slogdet(covs)[1]
    quads = -2.0 * ref - logdets
    scale = 0.5 * (quads + np.abs(logdets)).max(axis=1)
    kappa = np.linalg.cond(covs).max()
    tol = 16.0 * kappa * np.finfo(float).eps * scale
    assert (np.abs(scores - ref) <= tol[:, None]).all()


def test_zero_noise_scores_are_negative_squared_distances():
    rng = np.random.default_rng(21)
    c = build_constellation(3, 8)
    ch = haar_random_channel(rng, 0.0)
    obs = rng.standard_normal((50, 4))
    _, scores = detect_dims123_block(obs, ch, c)
    _, means, covs = hypothesis_stats(ch, c)
    assert np.array_equal(scores, einsum_bank_scores(means, covs, 0.0, obs))


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
            decided, erased = detect_dim4_block(w56, gain, c)
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
    decided, erased = detect_dim4_block(w56, gain, c)
    assert not erased.any()
    assert ((decided >= 0) & (decided < phases)).all()
    means = 2.0 * gain[:, None] * np.exp(1j * step * np.arange(phases))[None, :]
    dist = np.abs(w56[:, None] - means) ** 2
    chosen = dist[np.arange(len(w56)), decided]
    assert (np.abs(chosen - dist.min(axis=1)) <= 1e-12 * dist.min(axis=1)).all()


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
        for genie in (None, idx):
            gain = run_successive_receiver(frames, ch, c, genie_indices=genie).gain
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
    fx, fy, _, _ = propagate_block(ch, ex, ey, rng)
    result = run_successive_receiver(frontend_full_block(fx, fy), ch, c)
    cond = result.indices[:, :3].copy()
    assert (cond[1:] != idx[1:, :3]).any()  # the decisions, not the truth
    cond[0] = (PILOT.rx, PILOT.ry, PILOT.t)
    expected = context_vectors(c, cond[:-1], cond[1:]) @ ell_vector(ch)
    assert np.allclose(result.gain, expected, rtol=1e-12, atol=0.0)


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
    fx, fy, _, _ = propagate_block(ch, ex, ey, rng)
    frames = frontend_full_block(fx, fy)
    block = run_successive_receiver(frames, ch, c)

    # reference walk over the scalar API, maintaining the phase chain
    arr = frames_to_array(frames)
    step = c.phase_step
    pilot_fields = DualPolSymbol(complex(ex[0]), complex(ey[0]))
    prev_dec = Decision(PILOT, e_now=pilot_fields)
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


def test_receiver_rejects_malformed_genie_indices():
    rng = np.random.default_rng(3)
    c = build_constellation(2, 4)
    ch = haar_random_channel(rng, 0.01)
    idx = random_symbol_stream(rng, c, 20)
    ex, ey = encode_indices(c, idx)
    fx, fy, _, _ = propagate_block(ch, ex, ey, rng)
    frames = frontend_full_block(fx, fy)
    bad = [idx[:-1], idx[:, :3], idx.astype(float)]
    for row, col, value in ((5, 0, -1), (6, 1, c.n_rings), (7, 2, c.n_phases), (8, 3, -2)):
        wrong = idx.copy()
        wrong[row, col] = value
        bad.append(wrong)
    for genie in bad:
        with pytest.raises(ValueError, match="genie_indices"):
            run_successive_receiver(frames, ch, c, genie_indices=genie)
    res = run_successive_receiver(frames, ch, c, genie_indices=idx)
    assert res.mode == "genie"


def test_receiver_frees_score_table_before_dim4_stage(monkeypatch):
    # the (n, H) table is the largest array of a receiver call; holding it
    # through the dim-4 stage raises the peak and fragments the heap
    rng = np.random.default_rng(4)
    c = build_constellation(2, 4)
    ch = haar_random_channel(rng, 0.01)
    idx = random_symbol_stream(rng, c, 300)
    ex, ey = encode_indices(c, idx)
    fx, fy, _, _ = propagate_block(ch, ex, ey, rng)
    frames = frontend_full_block(fx, fy)
    original_dim4 = detection.detect_dim4_block
    tables = []
    live_at_dim4 = []

    def recording_dims123(*args, **kwargs):
        decided, scores = detect_dims123_block(*args, **kwargs)
        tables.append(weakref.ref(scores))
        return decided, scores

    def recording_dim4(*args, **kwargs):
        live_at_dim4.append(tables[-1]() is not None)
        return original_dim4(*args, **kwargs)

    monkeypatch.setattr(detection, "detect_dims123_block", recording_dims123)
    monkeypatch.setattr(detection, "detect_dim4_block", recording_dim4)
    for genie in (None, idx):
        run_successive_receiver(frames, ch, c, genie_indices=genie)
    assert live_at_dim4 == [False, False]


def test_genie_mode_dominates_decision_directed_dim4():
    rng = np.random.default_rng(70)
    c = build_constellation(2, 4)
    genie_err = dd_err = 0
    trials = 0
    for block in range(4):
        ch = haar_random_channel(rng, osnr_to_sigma2(12.0))
        idx = random_symbol_stream(rng, c, 4000)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        unit = rng.standard_normal((len(idx), 4))
        fx, fy = add_unit_noise(kx, ky, ch.sigma2, unit)
        frames = frontend_full_block(fx, fy)
        dd = run_successive_receiver(frames, ch, c)
        genie = run_successive_receiver(frames, ch, c, genie_indices=idx)
        assert dd.mode == "decision-directed"
        assert genie.mode == "genie"
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
        est = estimate_channel(run_training(ch, 1, rng))
        assert est.residual < 1e-9
        assert gauge_aligned_error(est, ch) < 1e-9


def test_identity_channel_pilot_observables():
    ch = JonesChannel(1.0 + 0j, 0j, 0.0)
    obs = run_training(ch, 1, np.random.default_rng(0))
    assert np.allclose(obs[0, :4], [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_estimate_invariant_to_whole_matrix_phase():
    # e^{i phi} J produces identical observables, hence an identical estimate
    rng = np.random.default_rng(91)
    ch = haar_random_channel(rng, 0.0)
    est_ref = estimate_channel(run_training(ch, 1, rng))
    dark = DualPolSymbol(0j, 0j)
    for phi in (0.0, 0.4, -2.2, math.pi / 2):
        rot = cmath.exp(1j * phi)
        obs = []
        for pilot in TRAINING_PILOTS:
            kx, ky = apply_jones(ch, pilot.ex, pilot.ey)
            obs.append(frontend_full(DualPolSymbol(rot * kx, rot * ky), dark).as_array())
        est = estimate_channel(np.array(obs))
        assert abs(est.a_hat - est_ref.a_hat) < 1e-12
        assert abs(est.b_hat - est_ref.b_hat) < 1e-12


def test_estimate_channel_noisy_convergence():
    rng = np.random.default_rng(92)
    ch = haar_random_channel(rng, osnr_to_sigma2(20.0))
    est = estimate_channel(run_training(ch, 2000, rng))
    assert gauge_aligned_error(est, ch) < 0.03


def test_estimate_channel_recovers_complex_rotations_for_detection():
    # estimates must preserve arg(a) mod pi, otherwise beat predictions rotate
    rng = np.random.default_rng(93)
    c = build_constellation(2, 4)
    for _ in range(10):
        ch = haar_random_channel(rng, 0.0)
        est = estimate_channel(run_training(ch, 1, rng)).as_channel(0.0)
        idx = random_symbol_stream(rng, c, 40)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        frames = frontend_full_block(kx, ky)
        result = run_successive_receiver(frames, est, c)
        assert (result.indices[:, :3] == idx[:, :3]).all()
        assert (result.indices[1:, 3] == idx[1:, 3]).all()


def test_estimate_channel_requires_three_pilot_blocks():
    ch = JonesChannel(1.0 + 0j, 0j, 0.0)
    obs = run_training(ch, 1, np.random.default_rng(0))
    assert obs.shape == (3, 6)
    assert obs.dtype == np.float64
    for bad in (obs[:2], obs[:, :4], np.vstack([obs, obs[:1]])):
        with pytest.raises(ValueError, match=r"\(3, 6\)"):
            estimate_channel(bad)
