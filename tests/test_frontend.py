import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd.channel import (
    MAX_SIGMA2,
    apply_jones,
    haar_random_channel,
    osnr_to_sigma2,
    stokes_vector,
)
from stokesdd.config import ExperimentConfig
from stokesdd.constellation import build_constellation
from stokesdd.frontend import (
    beat_coefficients,
    evaluate_samples,
    frontend_full_block,
    frontend_reduced_block,
    recover_full_block,
    sample_coefficients,
)
from stokesdd.metrics import draw_frame, frame_noise

from reference import (
    DualPolSymbol,
    broadcast_recover_full_block,
    broadcast_reduced_block,
    field_samples,
    frontend_full,
    frontend_reduced,
    received_samples,
    recover_full,
    row_major_sample_coefficients,
    stokes_matrix,
)

finite_complex = st.builds(
    complex,
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
)


def test_single_slot_against_dark_delay():
    out = frontend_full(DualPolSymbol(1.0 + 0j, 1j), DualPolSymbol(0j, 0j))
    assert (out.w1, out.w2, out.w3, out.w4, out.w5, out.w6) == (1.0, 1.0, 0.0, -2.0, 0.0, 0.0)


def test_delayed_beat_of_equal_fields():
    out = frontend_full(DualPolSymbol(1.0 + 0j, 1.0 + 0j), DualPolSymbol(1.0 + 0j, 1.0 + 0j))
    assert out.w5 == 2.0
    assert out.w6 == 0.0


def test_reduced_ports_by_hand():
    red = frontend_reduced(DualPolSymbol(1.0 + 0j, 1j), DualPolSymbol(0j, 0j))
    assert red.w3p == 2.0
    assert red.w4p == 1.0
    assert red.w5p == 1.0
    assert red.w6p == 1.0


def test_zero_fields_give_zero_outputs():
    red = frontend_reduced(DualPolSymbol(0j, 0j), DualPolSymbol(0j, 0j))
    assert red.as_array().tolist() == [0.0] * 6


@settings(max_examples=80, deadline=None)
@given(fx=finite_complex, fy=finite_complex, fx_prev=finite_complex, fy_prev=finite_complex)
def test_beat_definition_and_cauchy_schwarz(fx, fy, fx_prev, fy_prev):
    out = frontend_full(DualPolSymbol(fx, fy), DualPolSymbol(fx_prev, fy_prev))
    assert out.w3 + 1j * out.w4 == pytest.approx(2 * fx * np.conj(fy), abs=1e-12)
    assert out.w5 + 1j * out.w6 == pytest.approx(2 * fx * np.conj(fy_prev), abs=1e-12)
    assert out.w1 >= 0 and out.w2 >= 0
    assert out.w3**2 + out.w4**2 <= 4 * out.w1 * out.w2 + 1e-9


@settings(max_examples=80, deadline=None)
@given(fx=finite_complex, fy=finite_complex, fx_prev=finite_complex, fy_prev=finite_complex)
def test_reduced_recover_matches_full_scalar(fx, fy, fx_prev, fy_prev):
    now, prev = DualPolSymbol(fx, fy), DualPolSymbol(fx_prev, fy_prev)
    full = frontend_full(now, prev)
    rebuilt = recover_full(frontend_reduced(now, prev), abs(fy_prev) ** 2)
    assert np.abs(rebuilt.as_array() - full.as_array()).max() < 1e-12


def test_reduced_recover_matches_full_block():
    rng = np.random.default_rng(21)
    fx = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    fy = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    full = frontend_full_block(fx, fy)
    rebuilt = recover_full_block(frontend_reduced_block(full))
    assert np.abs(rebuilt - full).max() < 1e-12


def _bits(a):
    # compared as integers, so that -0.0 and 0.0 differ
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("rings, phases", [(2, 4), (4, 16)])
@pytest.mark.parametrize("sigma2", [0.0, 1e-12, 0.025, 250.0, MAX_SIGMA2])
def test_reduced_maps_round_as_the_broadcast_oracle(sigma2, rings, phases):
    # the reduced evaluation is the oracle's restore of its reduce of the
    # full evaluation, and each public map is its oracle, bit for bit: an
    # operation taken in another order would move some last bits
    c = build_constellation(rings, phases)
    for key in range(3):
        _, _, kx, ky = draw_frame(c, 6, key, 2_000)
        table = sample_coefficients(kx, ky, frame_noise(6, key, 2_000))
        full = evaluate_samples(table, sigma2, "full")
        reduced = broadcast_reduced_block(full)
        restored = broadcast_recover_full_block(reduced)
        assert np.array_equal(_bits(evaluate_samples(table, sigma2, "reduced")), _bits(restored))
        assert np.array_equal(_bits(frontend_reduced_block(full)), _bits(reduced))
        assert np.array_equal(_bits(recover_full_block(reduced)), _bits(restored))


def test_reduced_maps_keep_signed_zeros_as_the_broadcast_oracle():
    # every sign of zero, and +-1, in every column of some row
    values = np.array([0.0, -0.0, 1.0, -1.0])
    rows = values[np.indices((4,) * 6).reshape(6, -1).T]
    for block_map, oracle in (
        (frontend_reduced_block, broadcast_reduced_block),
        (recover_full_block, broadcast_recover_full_block),
    ):
        assert np.array_equal(_bits(block_map(rows)), _bits(oracle(rows)))


@pytest.mark.parametrize("block_map", [frontend_reduced_block, recover_full_block])
def test_public_maps_copy_and_read_any_layout(block_map):
    # the input is left as it was, the output is a new array, and the
    # input's memory layout does not change a bit of it
    rng = np.random.default_rng(12)
    samples = rng.standard_normal((500, 6))
    wide = np.zeros((500, 9))
    wide[:, 2:8] = samples
    want = _bits(block_map(samples))
    for layout in (samples, np.asfortranarray(samples), wide[:, 2:8]):
        before = _digest(layout)
        got = block_map(layout)
        assert _digest(layout) == before
        assert not np.shares_memory(got, layout)
        assert np.array_equal(_bits(got), want)


def test_evaluate_samples_leaves_the_table_unchanged():
    # a whole grid of points, in both variants, reads the table without
    # writing it, and evaluating the grid again gives the same bits
    c = build_constellation(2, 4)
    _, _, kx, ky = draw_frame(c, 5, 0, 1_000)
    table = sample_coefficients(kx, ky, frame_noise(5, 0, 1_000))
    before = _digest(table)
    sigma2s = [osnr_to_sigma2(osnr_db) for osnr_db in ExperimentConfig().osnr_grid()]
    for variant in ("full", "reduced"):
        first = [evaluate_samples(table, sigma2, variant) for sigma2 in sigma2s]
        assert _digest(table) == before
        assert not any(np.shares_memory(samples, table) for samples in first)
        for sigma2, samples in zip(sigma2s, first):
            assert np.array_equal(_bits(evaluate_samples(table, sigma2, variant)), _bits(samples))
    assert _digest(table) == before


def test_block_matches_scalar_path():
    rng = np.random.default_rng(2)
    fx = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    fy = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    block = frontend_full_block(fx, fy)
    prev = DualPolSymbol(0j, 0j)
    for n in range(6):
        now = DualPolSymbol(fx[n], fy[n])
        assert np.abs(frontend_full(now, prev).as_array() - block[n]).max() < 1e-15
        prev = now


def test_noiseless_outputs_match_stokes_system():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(500):
        ch = haar_random_channel(rng)
        ex = complex(rng.standard_normal(), rng.standard_normal())
        ey = complex(rng.standard_normal(), rng.standard_normal())
        kx, ky = apply_jones(ch, ex, ey)
        w = frontend_full(DualPolSymbol(kx, ky), DualPolSymbol(0j, 0j))
        predicted = stokes_matrix(ch) @ stokes_vector(ex, ey)
        worst = max(worst, np.abs(w.as_array()[:4] - predicted).max())
    assert worst < 1e-9


def _rounding_bound(kx, ky, sigma2, unit, variant):
    # 4 eps times what each sample is formed from: twice the product of its
    # two field bounds |K| + s |U| and, restored from the reduced front-end,
    # twice the intensities its hybrid port sums; either form of the noisy
    # samples rounds within this
    s = math.sqrt(sigma2)
    a = np.abs(kx) + s * np.hypot(unit[:, 0], unit[:, 1])
    b = np.abs(ky) + s * np.hypot(unit[:, 2], unit[:, 3])
    b_prev = np.concatenate([[0.0], b[:-1]])
    terms = 2.0 * np.column_stack([a * a, b * b, a * b, a * b, a * b_prev, a * b_prev])
    if variant == "reduced":
        ports = 2.0 * np.column_stack([a * a + b * b, a * a + b_prev * b_prev])
        terms[:, 2:] += np.repeat(ports, 2, axis=1)
    return 4.0 * np.finfo(float).eps * terms


@pytest.mark.parametrize("sigma2", [0.0, 1e-12, 0.025, 250.0, MAX_SIGMA2])
def test_sample_coefficients_give_the_noisy_samples(sigma2):
    # c0 + s c1 + s^2 c2 are the six samples of the rebuilt noisy fields, in
    # either front-end, up to the rounding of either form; exactly so without
    # noise.  c0 is the noiseless front-end bit for bit, and the delayed
    # columns are twice the genie rate's beat coefficients
    c = build_constellation(2, 4)
    for key in range(5):
        _, _, kx, ky = draw_frame(c, 4, key, 3_000)
        unit = frame_noise(4, key, 3_000)
        table = sample_coefficients(kx, ky, unit)
        assert table.shape == (3, 3_000, 6)
        assert np.array_equal(table[0], frontend_full_block(kx, ky))
        delayed = table[:, 1:, 4] + 1j * table[:, 1:, 5]
        assert np.array_equal(delayed, 2.0 * np.stack(beat_coefficients(kx, ky, unit)))
        for variant in ("full", "reduced"):
            got = evaluate_samples(table, sigma2, variant)
            want = field_samples(kx, ky, sigma2, unit, variant)
            if sigma2 == 0.0:
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= _rounding_bound(kx, ky, sigma2, unit, variant))


@pytest.mark.parametrize("n", [2_000, 2**15])
@pytest.mark.parametrize("rings, phases", [(2, 4), (4, 16)])
def test_column_major_table_equals_the_row_major_oracle_bit_for_bit(rings, phases, n):
    # the table is stored column-major, and its three planes, signed zeros
    # included, and every evaluation of it are the row-major oracle's bit for
    # bit.  At 2^15 slots a complex temporary is 512 KiB, past the 256 KiB
    # from which numpy computes a product in place in its temporary operand,
    # which rounds a complex product's imaginary part differently.  Slot 0's
    # delayed pair is a product with the empty delay line, a zero whose sign
    # follows the frame: these four frames put -0.0 in each of its columns
    # of Q(K) and Q(U)
    c = build_constellation(rings, phases)
    slot0_signs = np.zeros((2, 2), dtype=bool)
    for key in range(4):
        _, _, kx, ky = draw_frame(c, 3, key, n)
        unit = frame_noise(3, key, n)
        table = sample_coefficients(kx, ky, unit)
        want = row_major_sample_coefficients(kx, ky, unit)
        assert table.shape == want.shape == (3, n, 6)
        assert all(plane.T.flags.c_contiguous for plane in table)
        for plane, want_plane in zip(table, want):
            assert np.array_equal(_bits(plane), _bits(want_plane)), key
        slot0_signs |= np.signbit(table[::2, 0, 4:])
        for sigma2 in (0.0, 1e-12, 0.025, MAX_SIGMA2):
            for variant in ("full", "reduced"):
                got = _bits(evaluate_samples(table, sigma2, variant))
                assert np.array_equal(got, _bits(evaluate_samples(want, sigma2, variant))), (key, sigma2, variant)
    assert slot0_signs.all()


def test_received_samples_is_noise_then_front_end():
    # one noise level of the table: the noisy fields' samples up to rounding
    rng = np.random.default_rng(8)
    kx = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    ky = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    unit = rng.standard_normal((300, 4))
    for variant in ("full", "reduced"):
        got = received_samples(kx, ky, 0.05, unit, variant)
        want = field_samples(kx, ky, 0.05, unit, variant)
        assert np.all(np.abs(got - want) <= _rounding_bound(kx, ky, 0.05, unit, variant))
    with pytest.raises(ValueError, match="variant"):
        received_samples(kx, ky, 0.05, unit, "balanced")


def test_received_samples_rejects_a_noise_variance_outside_the_bound():
    # the noise path holds the bound JonesChannel holds, and names sigma2
    rng = np.random.default_rng(9)
    kx = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    ky = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    unit = rng.standard_normal((50, 4))
    for variant in ("full", "reduced"):
        assert np.isfinite(received_samples(kx, ky, MAX_SIGMA2, unit, variant)).all()
        for sigma2 in (math.nan, math.inf, -math.inf, -1.0, np.nextafter(MAX_SIGMA2, math.inf)):
            with pytest.raises(ValueError, match="sigma2"):
                received_samples(kx, ky, sigma2, unit, variant)
