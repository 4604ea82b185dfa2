import math

import numpy as np
import pytest

from stokesdd.channel import haar_random_channel
from stokesdd.constellation import build_constellation
from stokesdd.detection import beat_gain
from stokesdd.metrics import (
    accumulate_ser,
    draw_frame,
    estimate_mi_dim4,
    histogram_mi_bits,
)

from reference import ell_gain, genie_pair_terms


def test_accumulate_ser_identical_streams():
    truth = np.zeros((100, 4), dtype=np.int64)
    errors = accumulate_ser(truth, truth.copy())
    assert errors.dtype == np.int64
    assert np.array_equal(errors, [0, 0, 0, 0])


def test_accumulate_ser_single_flipped_eta():
    truth = np.zeros((100, 4), dtype=np.int64)
    decided = truth.copy()
    decided[57, 3] = 1
    assert np.array_equal(accumulate_ser(truth, decided), [0, 0, 0, 1])


def test_accumulate_ser_pilot_eta_not_counted():
    truth = np.zeros((10, 4), dtype=np.int64)
    decided = truth.copy()
    decided[0, 3] = 3  # slot 0 carries no inter-slot information
    assert np.array_equal(accumulate_ser(truth, decided), [0, 0, 0, 0])


def test_accumulate_ser_counts_erasures_as_errors():
    truth = np.zeros((10, 4), dtype=np.int64)
    decided = truth.copy()
    decided[4, 3] = -1
    assert np.array_equal(accumulate_ser(truth, decided), [0, 0, 0, 1])


def test_accumulate_ser_rejects_length_mismatch():
    with pytest.raises(ValueError):
        accumulate_ser(np.zeros((5, 4), dtype=int), np.zeros((6, 4), dtype=int))


def test_accumulate_ser_rejects_what_is_not_an_n_by_4_index_array():
    truth = np.zeros((5, 4), dtype=np.int64)
    for bad in (truth[:, :3], [tuple(row) for row in truth[:, :3]], truth.ravel()):
        with pytest.raises(ValueError, match=r"\(n, 4\)"):
            accumulate_ser(bad, bad)


def test_histogram_mi_independent_labels_near_zero():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 4, 50_000)
    values = rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)
    _, bits = histogram_mi_bits(labels, values, 4, 16, np.abs(values).max())
    assert 0.0 <= bits < 0.02


def test_histogram_mi_deterministic_labeling_saturates():
    labels = np.arange(8_000) % 4
    values = np.exp(1j * (math.pi / 2) * labels)
    counts, bits = histogram_mi_bits(labels, values, 4, 32, 1.0)
    assert counts.sum() == 8_000
    assert bits == pytest.approx(2.0, abs=1e-9)


def test_histogram_mi_clips_nonfinite_samples_into_edge_bins():
    labels = np.array([0, 1, 0, 1])
    values = np.array([np.inf + 0j, 0.1 + 0.1j, complex(np.nan, 0), -1j * np.inf])
    counts, _ = histogram_mi_bits(labels, values, 2, 8, 1.0)
    assert counts.sum() == 4


@pytest.mark.parametrize("bad_label", [4, -1])
def test_histogram_mi_rejects_out_of_range_labels(bad_label):
    labels = np.arange(40) % 4
    labels[17] = bad_label
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        histogram_mi_bits(labels, np.ones(40, dtype=complex), 4, 8, 1.0)


def test_mi_noiseless_limit_reaches_log2_np():
    c = build_constellation(2, 4)
    est = estimate_mi_dim4(c, [200.0], 40_000, 32, n_channels=8, seed=3)[0]
    assert est.bits_per_channel_use > 1.99
    assert est.bits_per_channel_use <= 2.0 + 1e-12


def test_mi_singleton_phase_alphabet_is_zero():
    c = build_constellation(2, 1)
    for est in estimate_mi_dim4(c, [10.0, 20.0], 20_000, 32, n_channels=4, seed=1):
        assert est.bits_per_channel_use == pytest.approx(0.0, abs=1e-12)


def test_mi_bounds_and_monotone_trend():
    c = build_constellation(2, 4)
    grid = [8.0, 12.0, 16.0, 20.0]
    ests = estimate_mi_dim4(c, grid, 80_000, 32, n_channels=10, seed=5)
    cap = math.log2(4)
    for est in ests:
        assert 0.0 <= est.bits_per_channel_use <= cap + 1e-12
    # paired per-channel differences: shared channels/noise make the trend tight
    for lo, hi in zip(ests, ests[1:]):
        diffs = np.array(hi.per_channel_bits) - np.array(lo.per_channel_bits)
        assert diffs.mean() >= -3.0 * diffs.std(ddof=1) / math.sqrt(len(diffs))


def test_mi_deterministic_given_seed():
    c = build_constellation(2, 4)
    a = estimate_mi_dim4(c, [18.0], 20_000, 32, n_channels=4, seed=9)[0]
    b = estimate_mi_dim4(c, [18.0], 20_000, 32, n_channels=4, seed=9)[0]
    assert a.bits_per_channel_use == b.bits_per_channel_use
    assert a.per_channel_bits == b.per_channel_bits


def _assert_same_estimate(a, b):
    assert a.osnr_db == b.osnr_db
    assert a.bits_per_channel_use == b.bits_per_channel_use
    assert a.per_channel_bits == b.per_channel_bits
    assert (a.n_samples, a.n_bins) == (b.n_samples, b.n_bins)


@pytest.mark.parametrize("context", ["genie", "decision-directed"])
def test_mi_grid_point_equals_same_osnr_alone(context):
    # common random numbers: channel, context and noise draws do not depend on
    # the grid, so each point of a sweep is the single-point estimate exactly
    c = build_constellation(2, 4)
    grid = [6.0, 14.0, 22.0]
    kwargs = dict(n_channels=4, seed=11, context=context)
    sweep = estimate_mi_dim4(c, grid, 4_000, 16, **kwargs)
    assert len(sweep) == len(grid)
    for osnr_db, est in zip(grid, sweep):
        (alone,) = estimate_mi_dim4(c, [osnr_db], 4_000, 16, **kwargs)
        _assert_same_estimate(est, alone)


@pytest.mark.parametrize(
    "rings, phases, osnr_db",
    [(r, p, osnr) for r, p in [(1, 4), (2, 4), (3, 8)] for osnr in (40.0, 60.0)],
)
def test_mi_contexts_share_one_stream(rings, phases, osnr_db):
    # both contexts read one keyed frame per channel; where the receiver makes
    # no decision error, its conditioning gain is the genie gain, bit for bit
    c = build_constellation(rings, phases)
    kwargs = dict(n_channels=4, seed=21)
    (genie,) = estimate_mi_dim4(c, [osnr_db], 8_000, 32, context="genie", **kwargs)
    (dd,) = estimate_mi_dim4(c, [osnr_db], 8_000, 32, context="decision-directed", **kwargs)
    _assert_same_estimate(genie, dd)


@pytest.mark.parametrize("rings, phases", [(1, 1), (2, 4), (3, 8)])
def test_genie_terms_match_noiseless_beat(rings, phases):
    # noiseless delayed beat: kx[n] conj(ky[n-1]) = gain * exp(i eta step)
    c = build_constellation(rings, phases)
    m = 2_000
    # the rate's stream: consecutive slots of one keyed frame are the pairs
    for key in range(20):
        channel, idx, kx, ky, _ = draw_frame(c, rings * 100 + phases, key, m)
        gain = ell_gain(c, channel, idx[:-1, :3], idx[1:, :3])
        beat = kx[1:] * np.conj(ky[:-1])
        rows = np.abs(gain) > 1e-6
        assert rows.mean() > 0.99
        # the oracle's expanded gain, and the beat-gain kernel on the stream
        for g in (gain, beat_gain(c, channel, idx[:, :3])):
            expected = g * np.exp(1j * c.phase_step * idx[1:, 3])
            rel = np.abs(beat - expected)[rows] / np.abs(gain)[rows]
            assert rel.max() <= 1e-12
    # independent (previous, current) pairs, through the reference genie path
    rng = np.random.default_rng(rings * 100 + phases)
    for _ in range(20):
        channel = haar_random_channel(rng)
        idx_prev, idx_now = (
            np.stack(
                [
                    rng.integers(0, rings, m),
                    rng.integers(0, rings, m),
                    rng.integers(0, phases, m),
                ],
                axis=1,
            )
            for _ in range(2)
        )
        eta = rng.integers(0, phases, m)
        kx_now, ky_prev, gain = genie_pair_terms(c, channel, idx_prev, idx_now, eta)
        beat = kx_now * np.conj(ky_prev)
        rows = np.abs(gain) > 1e-6
        assert rows.mean() > 0.99
        # the statistic's gain, and the beat-gain kernel on a stream that
        # interleaves the pairs: slot 2k is idx_prev[k], slot 2k+1 idx_now[k]
        stream = np.stack([idx_prev, idx_now], axis=1).reshape(-1, 3)
        for g in (gain, beat_gain(c, channel, stream)[::2]):
            expected = g * np.exp(1j * c.phase_step * eta)
            rel = np.abs(beat - expected)[rows] / np.abs(gain)[rows]
            assert rel.max() <= 1e-12


def test_mi_grid_may_be_any_iterable():
    c = build_constellation(2, 4)
    grid = [8.0, 16.0]
    kwargs = dict(n_channels=3, seed=4)
    from_list = estimate_mi_dim4(c, grid, 3_000, 16, **kwargs)
    from_generator = estimate_mi_dim4(c, (g for g in grid), 3_000, 16, **kwargs)
    assert len(from_generator) == len(from_list) == 2
    for a, b in zip(from_list, from_generator):
        _assert_same_estimate(a, b)
    assert estimate_mi_dim4(c, [], 3_000, 16, **kwargs) == []
    assert estimate_mi_dim4(c, iter(()), 3_000, 16, **kwargs) == []


def test_mi_dim4_consistent_with_fano():
    # any detector's error rate is constrained by the estimated rate
    from stokesdd.channel import add_unit_noise, apply_jones, haar_random_channel, osnr_to_sigma2
    from stokesdd.constellation import encode_indices
    from stokesdd.detection import run_successive_receiver
    from stokesdd.frontend import frontend_full_block

    c = build_constellation(2, 4)
    osnr_db = 14.0
    est = estimate_mi_dim4(c, [osnr_db], 200_000, 32, n_channels=10, seed=30)[0]

    rng = np.random.default_rng(31)
    errors = trials = 0
    for _ in range(10):
        ch = haar_random_channel(rng, osnr_to_sigma2(osnr_db))
        idx = np.stack(
            [
                rng.integers(0, 2, 5000),
                rng.integers(0, 2, 5000),
                rng.integers(0, 4, 5000),
                rng.integers(0, 4, 5000),
            ],
            axis=1,
        )
        idx[0] = (0, 0, 0, 0)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        fx, fy = add_unit_noise(kx, ky, ch.sigma2, rng.standard_normal((5000, 4)))
        frames = frontend_full_block(fx, fy)
        res = run_successive_receiver(frames, ch, c, genie_indices=idx)
        errors += int((res.indices[1:, 3] != idx[1:, 3]).sum())
        trials += 4999
    pe = errors / trials
    h = -pe * math.log2(pe) - (1 - pe) * math.log2(1 - pe) if 0 < pe < 1 else 0.0
    fano_floor = math.log2(4) - h - pe * math.log2(3)
    assert est.bits_per_channel_use >= fano_floor - 0.05


def test_mi_decision_directed_context_runs_below_genie():
    c = build_constellation(2, 4)
    genie = estimate_mi_dim4(c, [12.0], 40_000, 32, n_channels=6, seed=17)[0]
    dd = estimate_mi_dim4(
        c, [12.0], 40_000, 32, n_channels=6, seed=17, context="decision-directed"
    )[0]
    assert 0.0 <= dd.bits_per_channel_use <= 2.0 + 1e-12
    # wrong conditioning scatters the statistic, so the DD rate cannot
    # meaningfully exceed the genie rate
    assert dd.bits_per_channel_use <= genie.bits_per_channel_use + 0.05


def test_mi_rejects_unknown_context():
    c = build_constellation(2, 4)
    with pytest.raises(ValueError, match="context"):
        estimate_mi_dim4(c, [10.0], 1000, 16, n_channels=2, context="oracle")


def test_mi_input_validation():
    c = build_constellation(2, 4)
    with pytest.raises(ValueError):
        estimate_mi_dim4(c, [10.0], 100, 1)
    with pytest.raises(ValueError):
        estimate_mi_dim4(c, [10.0], 2, 32, n_channels=5)
