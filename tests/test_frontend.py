import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd.channel import (
    MAX_SIGMA2,
    add_unit_noise,
    apply_jones,
    haar_random_channel,
    stokes_vector,
)
from stokesdd.frontend import (
    frontend_full_block,
    frontend_reduced_block,
    received_samples,
    recover_full_block,
)

from reference import DualPolSymbol, frontend_full, frontend_reduced, recover_full, stokes_matrix

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
    rebuilt = recover_full_block(frontend_reduced_block(fx, fy))
    assert np.abs(rebuilt - full).max() < 1e-12


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


def test_received_samples_is_noise_then_front_end():
    rng = np.random.default_rng(8)
    kx = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    ky = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    unit = rng.standard_normal((300, 4))
    fx, fy = add_unit_noise(kx, ky, 0.05, unit)
    full = received_samples(kx, ky, 0.05, unit, "full")
    reduced = received_samples(kx, ky, 0.05, unit, "reduced")
    assert np.array_equal(full, frontend_full_block(fx, fy))
    assert np.array_equal(reduced, recover_full_block(frontend_reduced_block(fx, fy)))
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
