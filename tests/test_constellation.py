import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd.constellation import build_constellation, draw_indices, encode_indices, phasor_table

from reference import (
    SymbolIndices,
    dimension_values,
    encode_exp,
    encode_sequence,
    nearest_indices,
    nearest_indices_block,
    wrap_angle,
)


def random_indices(rng, constellation, n):
    return np.stack(
        [
            rng.integers(0, constellation.n_rings, n),
            rng.integers(0, constellation.n_rings, n),
            rng.integers(0, constellation.n_phases, n),
            rng.integers(0, constellation.n_phases, n),
        ],
        axis=1,
    )


def test_single_ring_radius_matches_closed_form():
    c = build_constellation(1, 4)
    assert c.radii == (math.sqrt(0.5),)
    assert c.phase_step == pytest.approx(math.pi / 2)


def test_two_ring_squared_radii():
    c = build_constellation(2, 4)
    sq = [r * r for r in c.radii]
    assert sq[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert sq[1] == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_degenerate_alphabet_forces_zero_indices():
    c = build_constellation(1, 1)
    ex, ey = encode_indices(c, [[0, 0, 0, 0], [0, 0, 0, 0]])
    assert nearest_indices(c, abs(ex[1]), abs(ey[1]), 0.3, -0.7) == SymbolIndices(0, 0, 0, 0)


@pytest.mark.parametrize("n_rings,n_phases", [(0, 4), (2, 0), (-1, 1)])
def test_build_rejects_nonpositive_sizes(n_rings, n_phases):
    with pytest.raises(ValueError):
        build_constellation(n_rings, n_phases)


@pytest.mark.parametrize("n_rings", [1, 2, 3, 5])
def test_squared_radii_equally_spaced_and_increasing(n_rings):
    c = build_constellation(n_rings, 4)
    sq = np.array([r * r for r in c.radii])
    assert c.radii[0] > 0
    assert (np.diff(np.asarray(c.radii)) > 0).all() or n_rings == 1
    if n_rings > 1:
        assert np.allclose(np.diff(sq), sq[0], rtol=1e-12)


@pytest.mark.parametrize("n_rings,n_phases", [(1, 4), (2, 4), (3, 8), (2, 2)])
def test_unit_average_energy_exact(n_rings, n_phases):
    c = build_constellation(n_rings, n_phases)
    sq = np.array([r * r for r in c.radii])
    assert 2.0 * sq.mean() == pytest.approx(1.0, rel=1e-14)


def test_energy_normalization_monte_carlo():
    c = build_constellation(2, 4)
    rng = np.random.default_rng(7)
    idx = random_indices(rng, c, 100_000)
    ex, ey = encode_indices(c, idx)
    energy = np.abs(ex) ** 2 + np.abs(ey) ** 2
    # per-polarization ring variance is 1/36, so 3 sigma of the mean is ~2.2e-3
    assert energy.mean() == pytest.approx(1.0, abs=3 * math.sqrt(1 / 18 / len(idx)))


def test_single_symbol_zero_phase_offsets():
    c = build_constellation(1, 4)
    symbols = encode_sequence(c, [SymbolIndices(0, 0, 0, 0)])
    assert symbols[0].ex == pytest.approx(math.sqrt(0.5))
    assert symbols[0].ey == pytest.approx(math.sqrt(0.5))


def test_two_symbol_recursion_by_hand():
    c = build_constellation(1, 4)
    symbols = encode_sequence(c, [SymbolIndices(0, 0, 0, 0), SymbolIndices(0, 0, 1, 1)])
    e0, e1 = symbols
    assert math.atan2(e0.ey.imag, e0.ey.real) == 0.0  # slot 0 anchors arg(E_y)
    arg_x1 = math.atan2(e1.ex.imag, e1.ex.real)
    arg_y0 = math.atan2(e0.ey.imag, e0.ey.real)
    arg_y1 = math.atan2(e1.ey.imag, e1.ey.real)
    assert float(wrap_angle(arg_x1 - (math.pi / 2 + arg_y0))) == pytest.approx(0.0, abs=1e-12)
    assert float(wrap_angle(arg_y1 - (arg_x1 - math.pi / 2))) == pytest.approx(0.0, abs=1e-12)
    # both phase-difference definitions recover the commanded grid values
    assert float(wrap_angle(np.angle(e1.ex * np.conj(e1.ey)) - math.pi / 2)) == pytest.approx(0.0, abs=1e-12)
    assert float(wrap_angle(np.angle(e1.ex * np.conj(e0.ey)) - math.pi / 2)) == pytest.approx(0.0, abs=1e-12)


def test_encode_rejects_out_of_range_indices():
    c = build_constellation(2, 4)
    with pytest.raises(ValueError):
        encode_indices(c, [[0, 0, 0, 4]])
    with pytest.raises(ValueError):
        encode_indices(c, [[2, 0, 0, 0]])
    with pytest.raises(ValueError):
        encode_indices(c, np.empty((0, 4), dtype=int))


@settings(max_examples=40, deadline=None)
@given(
    n_rings=st.integers(1, 3),
    n_phases=st.integers(1, 8),
    seed=st.integers(0, 2**31),
    n=st.integers(2, 40),
)
def test_round_trip_random_sequences(n_rings, n_phases, seed, n):
    c = build_constellation(n_rings, n_phases)
    rng = np.random.default_rng(seed)
    idx = random_indices(rng, c, n)
    ex, ey = encode_indices(c, idx)
    # a common phase on every field changes none of the decoded quantities
    common = np.exp(1j * rng.uniform(-3, 3))
    ex, ey = ex * common, ey * common
    theta = np.angle(ex * np.conj(ey))
    eta = np.zeros(n)
    eta[1:] = np.angle(ex[1:] * np.conj(ey[:-1]))
    decoded = nearest_indices_block(c, np.abs(ex), np.abs(ey), theta, eta)
    assert (decoded[:, :3] == idx[:, :3]).all()
    assert (decoded[1:, 3] == idx[1:, 3]).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 30))
def test_phase_recursion_matches_grid_to_machine_precision(seed, n):
    c = build_constellation(2, 8)
    rng = np.random.default_rng(seed)
    idx = random_indices(rng, c, n)
    ex, ey = encode_indices(c, idx)
    step = c.phase_step
    theta_err = wrap_angle(np.angle(ex * np.conj(ey)) - idx[:, 2] * step)
    eta_err = wrap_angle(np.angle(ex[1:] * np.conj(ey[:-1])) - idx[1:, 3] * step)
    assert np.abs(theta_err).max() < 1e-10
    assert np.abs(eta_err).max() < 1e-10


def _long_stream(n_rings, n_phases, n):
    c = build_constellation(n_rings, n_phases)
    return c, random_indices(np.random.default_rng(n_rings * 100 + n_phases), c, n)


@pytest.mark.parametrize("n_rings,n_phases", [(2, 4), (4, 16)])
def test_fields_are_exact_table_phasors_at_2_20_slots(n_rings, n_phases):
    # the phase indices from a recurrence in Python ints, one slot at a time
    c, idx = _long_stream(n_rings, n_phases, 2**20)
    steps = (idx[1:, 3] - idx[1:, 2]).tolist()
    k_y = np.array(list(itertools.accumulate(steps, lambda k, d: (k + d) % n_phases, initial=0)))
    k_x = (k_y + idx[:, 2]) % n_phases
    radii, phasors = np.asarray(c.radii), phasor_table(c)
    ex, ey = encode_indices(c, idx)
    assert np.array_equal(ex, radii[idx[:, 0]] * phasors[k_x])
    assert np.array_equal(ey, radii[idx[:, 1]] * phasors[k_y])


@pytest.mark.parametrize("n_rings,n_phases", [(2, 4), (4, 16)])
def test_fields_agree_with_the_exp_of_the_running_phase(n_rings, n_phases):
    # the gap is the exp oracle's own error at phases up to ~1e6 rad: 5.4e-11 here
    c, idx = _long_stream(n_rings, n_phases, 2**20)
    for got, oracle in zip(encode_indices(c, idx), encode_exp(c, idx)):
        assert np.abs(got - oracle).max() < 1e-9


def test_nearest_indices_exact_point_is_fixed_point():
    c = build_constellation(2, 4)
    for rx in range(2):
        for t in range(4):
            got = nearest_indices(c, c.radii[rx], c.radii[1], t * c.phase_step, 0.0)
            assert (got.rx, got.ry, got.t, got.e) == (rx, 1, t, 0)


def test_nearest_indices_phase_tie_breaks_low():
    c = build_constellation(1, 4)
    got = nearest_indices(c, 0.7, 0.7, c.phase_step / 2, c.phase_step / 2)
    assert got.t == 0
    assert got.e == 0


def test_nearest_indices_ring_tie_breaks_low():
    c = build_constellation(2, 4)
    mid = 0.5 * (c.radii[0] + c.radii[1])
    got = nearest_indices(c, mid, mid, 0.0, 0.0)
    assert got.rx == 0
    assert got.ry == 0


def test_nearest_indices_rejects_negative_magnitude():
    c = build_constellation(1, 4)
    with pytest.raises(ValueError):
        nearest_indices(c, -0.1, 0.5, 0.0, 0.0)


def test_dimension_values_helper():
    c = build_constellation(2, 4)
    symbols = encode_sequence(c, [SymbolIndices(0, 1, 1, 0), SymbolIndices(1, 0, 2, 3)])
    mx, my, theta, eta = dimension_values(symbols[1], symbols[0])
    assert mx == pytest.approx(c.radii[1])
    assert my == pytest.approx(c.radii[0])
    assert float(wrap_angle(theta - 2 * c.phase_step)) == pytest.approx(0.0, abs=1e-12)
    assert float(wrap_angle(eta - 3 * c.phase_step)) == pytest.approx(0.0, abs=1e-12)
    assert dimension_values(symbols[0])[3] is None


def test_draw_indices_draws_column_by_column():
    # rings, rings, phases, phases, one whole column per integers() call
    c = build_constellation(3, 8)
    got = draw_indices(np.random.default_rng(12), c, 500)
    rng = np.random.default_rng(12)
    expected = np.stack([rng.integers(0, high, 500) for high in (3, 3, 8, 8)], axis=1)
    assert got.shape == (500, 4)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
