import math
import tracemalloc

import numpy as np
import pytest

from stokesdd.channel import haar_random_channel
from stokesdd.config import MIN_OSNR_DB, ExperimentConfig
from stokesdd.constellation import build_constellation
from stokesdd.detection import PILOT, beat_gain
from stokesdd.metrics import (
    _LabelBins,
    accumulate_ser,
    draw_frame,
    estimate_mi_dim4,
    histogram_mi_bits,
)

from conftest import rate_bits
from reference import (
    binned_mi_bits,
    ell_gain,
    field_rate_curve,
    genie_pair_terms,
    received_samples,
    summed_ser_counts,
)


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


@pytest.mark.parametrize("seed", range(4))
def test_accumulate_ser_matches_the_summed_oracle(seed):
    # random streams led by the pilot: decisions equal, wrong or erased (-1)
    # at a random rate, the pilot's inter-slot placeholder among them, on
    # C-order, F-order and strided inputs, int64 and int32
    rng = np.random.default_rng(seed)
    for n in (2, 3, 17, 1000, 10_001):
        truth = rng.integers(0, 4, (n, 4))
        truth[0] = PILOT
        decided = truth.copy()
        wrong = rng.random((n, 4)) < rng.uniform(0.0, 1.0)
        decided[wrong] = rng.integers(-1, 4, int(wrong.sum()))
        decided[0, 3] = rng.integers(-1, 4)  # the placeholder: never counted
        for t, d in (
            (truth, decided),
            (np.asfortranarray(truth), np.asfortranarray(decided)),
            (np.repeat(truth, 2, axis=1)[:, ::2], np.repeat(decided, 2, axis=1)[:, ::2]),
            (truth.astype(np.int32), decided.astype(np.int32)),
        ):
            got = accumulate_ser(t, d)
            assert got.dtype == np.int64 and got.shape == (4,)
            assert np.array_equal(got, summed_ser_counts(t, d))


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
    bits = histogram_mi_bits(labels, values, 4, 16, np.abs(values).max())
    assert 0.0 <= bits < 0.02


def test_histogram_mi_deterministic_labeling_saturates():
    labels = np.arange(8_000) % 4
    values = np.exp(1j * (math.pi / 2) * labels)
    bits = histogram_mi_bits(labels, values, 4, 32, 1.0)
    assert bits == pytest.approx(2.0, abs=1e-9)


def test_histogram_mi_clips_nonfinite_samples_into_edge_bins():
    # three label-0 samples are non-finite and land in edge bins apart from
    # the one label-1 sample, so the bits are H(1/4); dropping them would
    # leave one label and zero bits
    labels = np.array([0, 1, 0, 0])
    values = np.array([np.inf + 0j, 0.1 + 0.1j, complex(np.nan, 0), -1j * np.inf])
    bits = histogram_mi_bits(labels, values, 2, 8, 1.0)
    h_quarter = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert bits == pytest.approx(h_quarter, abs=1e-12)


@pytest.mark.parametrize("bad_label", [4, -1])
def test_histogram_mi_rejects_out_of_range_labels(bad_label):
    labels = np.arange(40) % 4
    labels[17] = bad_label
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        histogram_mi_bits(labels, np.ones(40, dtype=complex), 4, 8, 1.0)


def test_histogram_mi_rejects_float_and_bool_labels():
    # a float label would be truncated into a bin: [0.9, 1.2, 3.7] read as
    # [0, 1, 3] gives log2(3) bits of three labels that name no symbol
    values = np.array([0.5, -0.5, 0.5j], dtype=complex)
    for labels in (np.array([0.9, 1.2, 3.7]), np.array([0.0, 1.0, 3.0]), np.array([True, False, True])):
        with pytest.raises(ValueError, match="labels must be integers"):
            histogram_mi_bits(labels, values, 4, 8, 1.0)
    narrow = histogram_mi_bits(np.array([0, 1, 3], dtype=np.uint8), values, 4, 8, 1.0)
    assert narrow == histogram_mi_bits(np.array([0, 1, 3]), values, 4, 8, 1.0) == pytest.approx(math.log2(3))


@pytest.mark.filterwarnings("error")
def test_histogram_mi_bins_huge_finite_values_at_their_edge():
    # (x + h) / (2h) * n_bins overflows to +-inf here; each sample still
    # belongs to the edge bin on its own side, so the labels are told apart
    labels = np.array([0, 0, 1, 1])
    values = np.array([1e308, 1e308, -1e308, -1e308], dtype=complex)
    assert histogram_mi_bits(labels, values, 2, 8, 1.0) == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(6))
def test_histogram_mi_matches_the_oracle_bit_for_bit(seed):
    # random coordinates, exact bin edges, values outside the box and
    # non-finite ones, mixed per component.  Coordinates whose grid position
    # overflows are left out: the oracle casts them to int64 before clipping,
    # which numpy leaves undefined (x86 gives bin 0, the wrong edge), and
    # test_histogram_mi_bins_huge_finite_values_at_their_edge covers them.
    rng = np.random.default_rng(seed)
    n_labels, n_bins = 4, (8, 16, 32)[seed % 3]
    h = (1.0, 2.0, rng.uniform(0.1, 5.0))[seed % 3]
    n = 5_000
    pool = np.concatenate(
        [
            rng.uniform(-h, h, n),  # inside the box
            -h + 2.0 * h * np.arange(n_bins + 1) / n_bins,  # bin edges, exact for h = 1 and 2
            rng.uniform(-1e6, 1e6, n) * h,  # mostly outside
            [np.nan, np.inf, -np.inf, 0.0, -0.0, h, -h],
        ]
    )
    values = np.empty(n, dtype=complex)
    values.real, values.imag = rng.choice(pool, n), rng.choice(pool, n)
    labels = rng.integers(0, n_labels, n)
    kept = values.copy()
    bits = histogram_mi_bits(labels, values, n_labels, n_bins, h)
    assert bits == binned_mi_bits(labels, values, n_labels, n_bins, h)
    assert np.array_equal(values, kept, equal_nan=True)  # the caller's values are left as they were


# grids x contexts x alphabets at 2,000 slots per channel, with the ids that
# stacked parametrize marks would give them, and one case at the benchmark's size
_ORACLE_CASES = [
    pytest.param(
        rings, phases, context, start, stop, step, 2_000, id=f"{rings}-{phases}-{context}-{start}-{stop}-{step}"
    )
    for start, stop, step in [(-30.0, 60.0, 10.0), (250.0, 3000.0, 250.0)]
    for context in ["genie", "decision-directed"]
    for rings, phases in [(2, 4), (3, 8)]
] + [
    # the benchmark's 30,000 slots per channel: numpy computes a product with
    # a temporary operand of >= 256 KiB in place in it, operands swapped,
    # which 2,000 slots never reach
    pytest.param(2, 4, "genie", 10.0, 26.0, 2.0, 30_000, id="2-4-genie-10.0-26.0-2.0-m30000"),
]


@pytest.mark.parametrize("rings, phases, context, start, stop, step, m", _ORACLE_CASES)
def test_rate_kernel_matches_the_field_oracle_bit_for_bit(context, rings, phases, start, stop, step, m):
    # the quadratic form and the copy-free histogram bin every sample where
    # the rebuilt noisy fields and the copying histogram did; far above
    # 300 dB the noise is below the beat's last bit, and the statistics sit
    # on the bin edges through 0, so only the same rounding keeps the bits
    cfg = ExperimentConfig(
        experiment="rate", n_rings=rings, n_phases=phases, n_samples=3 * m, n_channels=3, n_bins=16,
        seed=8, rate_context=context, osnr_start_db=start, osnr_stop_db=stop, osnr_step_db=step,
    )
    for key in range(cfg.n_channels):
        assert np.array_equal(estimate_mi_dim4(cfg, key), field_rate_curve(cfg, key))


def test_decision_directed_beat_bins_as_the_complex_view():
    # the decision-directed kernel forms the beat w5 + 1j * w6 from the
    # samples' columns, where a row-major array's (w5, w6) pair could be read
    # as one complex number.  The two differ at most in the sign of a zero
    # component, which lands in the same bin (0 maps to the box's middle)
    rng = np.random.default_rng(23)
    n, n_phases, n_bins = 5_000, 8, 16
    samples = rng.standard_normal((n, 6))
    samples[rng.random((n, 6)) < 0.2] = 0.0
    samples[rng.random((n, 6)) < 0.2] = -0.0
    gain = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    gain[:20] = 0.0  # erasures: a zero gain gives inf or NaN
    labels = rng.integers(0, n_phases, n - 1)
    stats = []
    for beat in (samples[1:, 4] + 1j * samples[1:, 5], np.ascontiguousarray(samples)[1:, 4:].view(complex)[:, 0]):
        with np.errstate(divide="ignore", invalid="ignore"):
            stats.append(np.divide(beat, 2.0 * gain))
    assert np.array_equal(stats[0], stats[1], equal_nan=True)
    bins = _LabelBins(labels, n_phases, n_bins)
    for h in (1.0, 1.3, 4.0):
        flats, bits = [], []
        for stat in stats:
            bits.append(bins.mi_bits(stat, h))
            flats.append(bins.flat.copy())  # each slot's (label, bin) cell of this binning
        assert np.array_equal(flats[0], flats[1]) and bits[0] == bits[1]


def test_genie_channel_peak_is_set_by_its_points():
    # one genie channel of the benchmark's rate sweep (30,000 slots): the
    # points hold ~142 bytes per slot (coefficients, statistic, reference and
    # binning), and no step of the set-up may hold more, or each channel
    # faults in fresh heap pages
    cfg = ExperimentConfig(experiment="rate", rate_context="genie", n_samples=600_000)
    m = cfg.n_samples // cfg.n_channels
    estimate_mi_dim4(cfg, 1)  # the first call's imports (numpy.random) are not a channel's
    tracemalloc.start()
    try:
        estimate_mi_dim4(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 150 * m


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("context", ["genie", "decision-directed"])
def test_rate_at_the_osnr_floor_is_an_estimate(context):
    # far below 0 dB the statistic is noise scaled by s^2, which the box
    # scales with: the floor reads as -80 dB does, and warns of nothing
    fields = dict(n_samples=400, n_bins=32, n_channels=4, seed=0, rate_context=context)
    floor = rate_bits([MIN_OSNR_DB], **fields)
    assert np.all(floor > 0.0) and np.all(floor <= 2.0)
    assert np.array_equal(floor, rate_bits([-80.0], **fields))


def test_mi_noiseless_limit_reaches_log2_np():
    bits = np.mean(rate_bits([200.0], n_samples=40_000, n_bins=32, n_channels=8, seed=3))
    assert bits > 1.99
    assert bits <= 2.0 + 1e-12


def test_mi_singleton_phase_alphabet_is_zero():
    bits = rate_bits([10.0, 20.0], n_phases=1, n_samples=20_000, n_bins=32, n_channels=4, seed=1)
    for column in bits.T:
        assert np.mean(column) == pytest.approx(0.0, abs=1e-12)


def test_mi_bounds_and_monotone_trend():
    bits = rate_bits([8.0, 12.0, 16.0, 20.0], n_samples=80_000, n_bins=32, n_channels=10, seed=5)
    cap = math.log2(4)
    for column in bits.T:
        assert 0.0 <= np.mean(column) <= cap + 1e-12
    # paired per-channel differences: shared channels/noise make the trend tight
    for diffs in (bits[:, 1:] - bits[:, :-1]).T:
        assert diffs.mean() >= -3.0 * diffs.std(ddof=1) / math.sqrt(len(diffs))


def test_mi_deterministic_given_seed():
    fields = dict(n_samples=20_000, n_bins=32, n_channels=4, seed=9)
    assert np.array_equal(rate_bits([18.0], **fields), rate_bits([18.0], **fields))


def _assert_same_estimate(a, b):
    # per-channel bits of one OSNR point, bit for bit
    assert np.array_equal(a, b)


@pytest.mark.parametrize("context", ["genie", "decision-directed"])
def test_mi_grid_point_equals_same_osnr_alone(context):
    # common random numbers: channel, context and noise draws do not depend on
    # the grid, so each point of a sweep is the single-point estimate exactly
    grid = [6.0, 14.0, 22.0]
    fields = dict(n_samples=4_000, n_bins=16, n_channels=4, seed=11, rate_context=context)
    sweep = rate_bits(grid, **fields)
    assert sweep.shape == (4, len(grid))
    for k, osnr_db in enumerate(grid):
        alone = rate_bits([osnr_db], **fields)
        _assert_same_estimate(sweep[:, k], alone[:, 0])


@pytest.mark.parametrize(
    "rings, phases, osnr_db",
    [(r, p, osnr) for r, p in [(1, 4), (2, 4), (3, 8)] for osnr in (40.0, 60.0)],
)
def test_mi_contexts_share_one_stream(rings, phases, osnr_db):
    # both contexts read one keyed frame per channel; where the receiver makes
    # no decision error, its conditioning gain is the genie gain, bit for bit
    fields = dict(n_rings=rings, n_phases=phases, n_samples=8_000, n_bins=32, n_channels=4, seed=21)
    genie = rate_bits([osnr_db], rate_context="genie", **fields)
    dd = rate_bits([osnr_db], rate_context="decision-directed", **fields)
    _assert_same_estimate(genie[:, 0], dd[:, 0])


@pytest.mark.parametrize("rings, phases", [(1, 1), (2, 4), (3, 8)])
def test_genie_terms_match_noiseless_beat(rings, phases):
    # noiseless delayed beat: kx[n] conj(ky[n-1]) = gain * exp(i eta step)
    c = build_constellation(rings, phases)
    m = 2_000
    # the rate's stream: consecutive slots of one keyed frame are the pairs
    for key in range(20):
        channel, idx, kx, ky = draw_frame(c, rings * 100 + phases, key, m)
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


def test_mi_dim4_consistent_with_fano():
    # any detector's error rate is constrained by the estimated rate
    from stokesdd.channel import apply_jones, haar_random_channel, osnr_to_sigma2
    from stokesdd.constellation import encode_indices
    from stokesdd.detection import run_successive_receiver

    c = build_constellation(2, 4)
    osnr_db = 14.0
    bits = np.mean(rate_bits([osnr_db], n_samples=200_000, n_bins=32, n_channels=10, seed=30))

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
        frames = received_samples(*apply_jones(ch, ex, ey), ch.sigma2, rng.standard_normal((5000, 4)), "full")
        res = run_successive_receiver(frames, ch, c, gain=beat_gain(c, ch, idx[:, :3]))
        errors += int((res.indices[1:, 3] != idx[1:, 3]).sum())
        trials += 4999
    pe = errors / trials
    h = -pe * math.log2(pe) - (1 - pe) * math.log2(1 - pe) if 0 < pe < 1 else 0.0
    fano_floor = math.log2(4) - h - pe * math.log2(3)
    assert bits >= fano_floor - 0.05


def test_mi_decision_directed_context_runs_below_genie():
    fields = dict(n_samples=40_000, n_bins=32, n_channels=6, seed=17)
    genie = np.mean(rate_bits([12.0], **fields))
    dd = np.mean(rate_bits([12.0], rate_context="decision-directed", **fields))
    assert 0.0 <= dd <= 2.0 + 1e-12
    # wrong conditioning scatters the statistic, so the DD rate cannot
    # meaningfully exceed the genie rate
    assert dd <= genie + 0.05
