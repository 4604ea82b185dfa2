import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd.channel import (
    JonesChannel,
    apply_jones,
    channel_from_pair,
    haar_random_channel,
    osnr_to_sigma2,
    propagate_block,
    stokes_vector,
)

from reference import STOKES_METRIC, DualPolSymbol, propagate, stokes_matrix


def random_channel(rng, sigma2=0.0):
    return haar_random_channel(rng, sigma2)


def test_unitarity_enforced():
    with pytest.raises(ValueError):
        JonesChannel(0.9 + 0j, 0j, 0.0)
    with pytest.raises(ValueError):
        JonesChannel(1.0 + 0j, 0j, -1e-3)
    JonesChannel(1.0 + 0j, 0j, 0.0)  # exact case constructs fine


def test_forced_gaussian_draws():
    assert channel_from_pair(1.0, 0.0).a == 1.0
    assert channel_from_pair(1.0, 0.0).b == 0.0
    ch = channel_from_pair(0.0, 1.0)
    assert ch.a == 0.0 and ch.b == 1.0
    with pytest.raises(ValueError):
        channel_from_pair(0.0, 0.0)


def test_haar_mean_intensity_split():
    rng = np.random.default_rng(11)
    vals = np.empty(100_000)
    for i in range(len(vals)):
        vals[i] = abs(haar_random_channel(rng).a) ** 2
    # |a|^2 is uniform on [0, 1] under the Haar draw: 3 sigma of the mean
    assert vals.mean() == pytest.approx(0.5, abs=3 * math.sqrt(1 / 12 / len(vals)))


def test_propagate_identity_noiseless():
    ch = JonesChannel(1.0 + 0j, 0j, 0.0)
    noisy, clean = propagate(ch, DualPolSymbol(1.0 + 0j, 1j), np.random.default_rng(0))
    assert noisy == clean == DualPolSymbol(1.0 + 0j, 1j)


def test_propagate_swap_channel_by_hand():
    # [[0, 1], [-1, 0]] applied to (e_x, e_y) gives (e_y, -e_x)
    ch = JonesChannel(0j, 1.0 + 0j, 0.0)
    ex, ey = 0.3 - 0.7j, -1.1 + 0.2j
    _, clean = propagate(ch, DualPolSymbol(ex, ey), np.random.default_rng(0))
    assert clean.ex == pytest.approx(ey)
    assert clean.ey == pytest.approx(-ex)


def test_noise_quadrature_convention():
    sigma2 = 0.37
    ch = JonesChannel(1.0 + 0j, 0j, sigma2)
    rng = np.random.default_rng(5)
    n = 1_000_000
    ex = np.ones(n, dtype=complex)
    fx, fy, kx, ky = propagate_block(ch, ex, np.zeros(n, dtype=complex), rng)
    assert np.var((fx - kx).real) == pytest.approx(sigma2, rel=0.01)
    assert np.var((fx - kx).imag) == pytest.approx(sigma2, rel=0.01)
    assert np.var((fy - ky).real) == pytest.approx(sigma2, rel=0.01)
    # the two polarizations and quadratures are uncorrelated
    assert abs(np.mean((fx - kx).real * (fy - ky).real)) < 5 * sigma2 / math.sqrt(n)


def test_stokes_matrix_identity_channel():
    m = stokes_matrix(JonesChannel(1.0 + 0j, 0j))
    assert np.allclose(m, np.eye(4), atol=1e-15)


def test_stokes_matrix_swap_channel():
    m = stokes_matrix(JonesChannel(0j, 1.0 + 0j))
    expected = np.array(
        [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, 1],
        ],
        dtype=float,
    )
    assert np.allclose(m, expected, atol=1e-15)


def test_stokes_matrix_maps_transmit_to_received_observables():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        ch = random_channel(rng)
        m = stokes_matrix(ch)
        ex = complex(rng.standard_normal(), rng.standard_normal())
        ey = complex(rng.standard_normal(), rng.standard_normal())
        kx, ky = apply_jones(ch, ex, ey)
        worst = max(worst, np.abs(m @ stokes_vector(ex, ey) - stokes_vector(kx, ky)).max())
    assert worst < 1e-9


def test_stokes_vector_broadcasts_its_fields():
    ey = np.array([1.0, -2.0 + 1j, 0.5j])
    w = stokes_vector(0.0, ey)
    assert w.shape == (3, 4)
    np.testing.assert_array_equal(w, stokes_vector(np.zeros_like(ey), ey))
    ex = np.array([[1.0], [0.3 - 1j]])
    grid = stokes_vector(ex, ey)
    assert grid.shape == (2, 3, 4)
    np.testing.assert_array_equal(grid[1, 2], stokes_vector(0.3 - 1j, 0.5j))


def test_stokes_matrix_scaled_orthogonality():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = stokes_matrix(random_channel(rng))
        assert np.abs(m @ STOKES_METRIC @ m.T - STOKES_METRIC).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_noiseless_energy_conservation(seed):
    rng = np.random.default_rng(seed)
    ch = random_channel(rng)
    ex = complex(rng.standard_normal(), rng.standard_normal())
    ey = complex(rng.standard_normal(), rng.standard_normal())
    kx, ky = apply_jones(ch, ex, ey)
    assert abs(kx) ** 2 + abs(ky) ** 2 == pytest.approx(abs(ex) ** 2 + abs(ey) ** 2, abs=1e-12)


def test_global_phase_of_the_rotation_is_unobservable():
    # multiplying the whole rotation matrix by e^{i phi} scales both received
    # components together, leaving every intensity and beat product unchanged
    rng = np.random.default_rng(9)
    from stokesdd.frontend import frontend_full_block

    for _ in range(50):
        ch = random_channel(rng)
        phi = rng.uniform(-math.pi, math.pi)
        ex = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        ey = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        kx, ky = apply_jones(ch, ex, ey)
        w_ref = frontend_full_block(kx, ky)
        w_rot = frontend_full_block(np.exp(1j * phi) * kx, np.exp(1j * phi) * ky)
        assert np.abs(w_rot - w_ref).max() < 1e-10


@pytest.mark.parametrize(
    "osnr_db,expected",
    [(0.0, 0.25), (20.0, 0.0025), (10.0, 0.025)],
)
def test_osnr_values(osnr_db, expected):
    assert osnr_to_sigma2(osnr_db) == pytest.approx(expected, rel=1e-12)


def test_osnr_log_linearity():
    for db in (-3.0, 7.5, 14.0):
        assert osnr_to_sigma2(db + 10.0) == pytest.approx(osnr_to_sigma2(db) / 10.0, rel=1e-12)


def test_osnr_without_finite_noise_variance_rejected():
    # 10^(4000/10) overflows a float; -inf and NaN have no variance at all
    for osnr_db in (-4000.0, -3083.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"OSNR {osnr_db!r} dB"):
            osnr_to_sigma2(osnr_db)
    assert osnr_to_sigma2(math.inf) == 0.0
    assert math.isfinite(osnr_to_sigma2(-3082.0))
