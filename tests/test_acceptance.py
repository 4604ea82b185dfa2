"""Acceptance suite: every criterion runs at its stated tolerance and reports
one pass/fail line in the terminal summary."""

import math
import time

import numpy as np

from conftest import rate_bits, record_acceptance
from stokesdd.channel import (
    apply_jones,
    haar_random_channel,
    osnr_to_sigma2,
    stokes_vector,
)
from stokesdd.config import ExperimentConfig
from stokesdd.constellation import build_constellation, encode_indices
from stokesdd.detection import (
    context_vectors,
    estimate_channel,
    gauge_aligned_error,
    run_successive_receiver,
    run_training,
)
from stokesdd.experiments import run_rate_experiment, run_ser_experiment
from stokesdd.frontend import (
    frontend_full_block,
    frontend_reduced_block,
    recover_full_block,
)
from stokesdd.metrics import _rng

from reference import ell_vector, gauss_hermite_moments, stokes_matrix, two_slot_moments, wrap_angle

def _stream(rng, constellation, n):
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


def test_criterion_01_noiseless_exactness():
    start = time.time()
    c = build_constellation(2, 4)
    rng = np.random.default_rng(1001)
    errors = 0
    for _ in range(100):
        ch = haar_random_channel(rng, 0.0)
        idx = _stream(rng, c, 10_000)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        frames = frontend_full_block(kx, ky)
        res = run_successive_receiver(frames, ch, c)
        errors += int((res.indices[:, :3] != idx[:, :3]).sum())
        errors += int((res.indices[1:, 3] != idx[1:, 3]).sum())
    elapsed = time.time() - start
    ok = errors == 0 and elapsed < 30.0
    record_acceptance(
        f"[{'PASS' if ok else 'FAIL'}] 01 noiseless exactness: "
        f"{errors} errors over 100 channels x 10^4 symbols in {elapsed:.1f} s (< 30 s)"
    )
    assert errors == 0
    assert elapsed < 30.0


def test_criterion_02_covariance_mean_oracle():
    # the surrogate's closed-form two-slot moments against the exact ones of
    # all six samples, through either front end; each object's worst
    # deviation is taken over its largest entry
    start = time.time()
    rng = _rng(1002, 900)
    worst = 0.0
    for _ in range(100):
        g = rng.standard_normal(8)
        scale = rng.uniform(0.3, 1.5)
        kxp, kyp, kx, ky = scale * (g[0::2] + 1j * g[1::2]) / math.sqrt(2)
        sigma2 = float(10.0 ** rng.uniform(-3, -0.5))
        want = two_slot_moments((kxp, kyp), (kx, ky), sigma2)
        for variant in ("full", "reduced"):
            got = gauss_hermite_moments((kxp, kyp), (kx, ky), sigma2, variant)
            for exact, model in zip(got, want):
                worst = max(worst, float(np.abs(exact - model).max() / np.abs(model).max()))
    elapsed = time.time() - start
    ok = worst <= 1e-11 and elapsed < 300.0
    record_acceptance(
        f"[{'PASS' if ok else 'FAIL'}] 02 covariance/mean oracle: max dev {worst:.1e} of the largest entry "
        f"(<= 1e-11) against the exact two-slot moments, 100 configs x 2 front ends in {elapsed:.1f} s (< 300 s)"
    )
    assert worst <= 1e-11
    assert elapsed < 300.0


def test_criterion_03_stokes_system_identity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(10_000):
        ch = haar_random_channel(rng)
        ex = complex(rng.standard_normal(), rng.standard_normal())
        ey = complex(rng.standard_normal(), rng.standard_normal())
        kx, ky = apply_jones(ch, ex, ey)
        residual = np.abs(
            stokes_matrix(ch) @ stokes_vector(ex, ey) - stokes_vector(kx, ky)
        ).max()
        worst = max(worst, residual)
    ok = worst < 1e-9
    record_acceptance(
        f"[{'PASS' if ok else 'FAIL'}] 03 Stokes-system identity: "
        f"max residual {worst:.2e} (< 1e-9) over 10^4 cases"
    )
    assert worst < 1e-9


def test_criterion_04_reduced_frontend_equivalence():
    rng = np.random.default_rng(1004)
    fx = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    fy = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    full = frontend_full_block(fx, fy)
    rebuilt = recover_full_block(frontend_reduced_block(full))
    worst = float(np.abs(full - rebuilt).max())
    ok = worst < 1e-12
    record_acceptance(
        f"[{'PASS' if ok else 'FAIL'}] 04 reduced-frontend equivalence: "
        f"max deviation {worst:.2e} (< 1e-12) over 10^4 slots"
    )
    assert worst < 1e-12


def test_criterion_05_global_phase_invariance():
    # a global phase on the whole rotation matrix scales both received field
    # components by e^{i phi}; every photocurrent is unchanged
    rng = np.random.default_rng(1005)
    c = build_constellation(2, 4)
    worst = 0.0
    for _ in range(200):
        ch = haar_random_channel(rng)
        phi = rng.uniform(-math.pi, math.pi)
        idx = _stream(rng, c, 100)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        w_ref = frontend_full_block(kx, ky)
        w_rot = frontend_full_block(np.exp(1j * phi) * kx, np.exp(1j * phi) * ky)
        worst = max(worst, float(np.abs(w_rot - w_ref).max()))
    ok = worst < 1e-10
    record_acceptance(
        f"[{'PASS' if ok else 'FAIL'}] 05 global-phase invariance: "
        f"max w change {worst:.2e} (< 1e-10)"
    )
    assert worst < 1e-10


def test_criterion_06_eta_closed_form():
    rng = np.random.default_rng(1006)
    c = build_constellation(2, 4)
    worst_mag = 0.0
    worst_arg = 0.0
    for _ in range(50):
        ch = haar_random_channel(rng, 0.0)
        idx = _stream(rng, c, 500)
        ex, ey = encode_indices(c, idx)
        kx, ky = apply_jones(ch, ex, ey)
        frames = frontend_full_block(kx, ky)
        w56 = frames[1:, 4] + 1j * frames[1:, 5]
        gain = context_vectors(c, idx[:-1, :3], idx[1:, :3]) @ ell_vector(ch)
        stat = w56 / (2.0 * gain)
        worst_mag = max(worst_mag, float(np.abs(np.abs(stat) - 1.0).max()))
        arg_err = wrap_angle(np.angle(stat) - idx[1:, 3] * c.phase_step)
        worst_arg = max(worst_arg, float(np.abs(arg_err).max()))
    ok = worst_mag < 1e-9 and worst_arg < 1e-8
    record_acceptance(
        f"[{'PASS' if ok else 'FAIL'}] 06 exp(i*eta) closed form: "
        f"|stat|-1 max {worst_mag:.2e} (< 1e-9), grid angle max {worst_arg:.2e}"
    )
    assert worst_mag < 1e-9
    assert worst_arg < 1e-8


def test_criterion_07_ser_curve_shape():
    start = time.time()
    cfg = ExperimentConfig(
        seed=1007,
        osnr_start_db=10.0,
        osnr_stop_db=26.0,
        osnr_step_db=2.0,
        symbols_per_block=10_000,
        blocks=10,
        detection_mode="decision-directed",
    )
    rows = run_ser_experiment(cfg)[1:]
    elapsed = time.time() - start
    curves = {dim: [] for dim in (1, 2, 3, 4)}
    for row in rows:
        osnr, dim, ser, trials, _ = row.split(",")
        assert int(trials) >= 99_000
        curves[int(dim)].append((float(osnr), float(ser)))
    monotone = all(
        all(a[1] >= b[1] for a, b in zip(pts, pts[1:]))
        for pts in (sorted(c) for c in curves.values())
    )
    ok = monotone and elapsed < 600.0
    record_acceptance(
        f"[{'PASS' if ok else 'FAIL'}] 07 SER curve shape: all four dimensions "
        f"monotone non-increasing over 10-26 dB at 10^5 symbols/point in {elapsed:.0f} s (< 600 s)"
    )
    assert monotone
    assert elapsed < 600.0


def test_criterion_08_rate_anchor_and_stability():
    scan = rate_bits([18.0, 20.0, 22.0, 24.0], n_samples=400_000, n_bins=32, n_channels=20, seed=1008)
    bits = [np.mean(column) for column in scan.T]
    anchor = max(bits)
    bounded = all(0.0 <= b <= math.log2(4) + 1e-12 for b in bits)
    fields = dict(n_samples=1_000_000, n_channels=20, seed=1008)
    coarse = np.mean(rate_bits([20.0], n_bins=32, **fields))
    fine = np.mean(rate_bits([20.0], n_bins=64, **fields))
    drift = abs(coarse - fine)
    ok = anchor >= 1.8 and bounded and drift < 0.05
    record_acceptance(
        f"[{'PASS' if ok else 'FAIL'}] 08 rate anchor: peak {anchor:.3f} bits in 18-24 dB "
        f"(>= 1.8), bounded by 2, bin refinement drift {drift:.4f} (< 0.05)"
    )
    assert anchor >= 1.8
    assert bounded
    assert drift < 0.05


def test_criterion_09_channel_estimation():
    rng = np.random.default_rng(1009)
    sigma2 = osnr_to_sigma2(20.0)
    worst_err = 0.0
    for _ in range(20):
        ch = haar_random_channel(rng, sigma2)
        est, _ = estimate_channel(run_training(ch, 10_000, rng))
        worst_err = max(worst_err, gauge_aligned_error(est, ch))
    worst_res = 0.0
    for _ in range(20):
        ch = haar_random_channel(rng, 0.0)
        _, residual = estimate_channel(run_training(ch, 1, rng))
        worst_res = max(worst_res, residual)
    ok = worst_err < 0.01 and worst_res < 1e-9
    record_acceptance(
        f"[{'PASS' if ok else 'FAIL'}] 09 channel estimation: worst aligned error "
        f"{worst_err:.4f} (< 0.01) at 20 dB x 10^4 repeats, noiseless residual {worst_res:.2e} (< 1e-9)"
    )
    assert worst_err < 0.01
    assert worst_res < 1e-9


def test_criterion_10_determinism():
    ser_cfg = ExperimentConfig(
        seed=1010,
        osnr_start_db=18.0,
        osnr_stop_db=22.0,
        osnr_step_db=2.0,
        symbols_per_block=2_000,
        blocks=4,
    )
    runs = [
        run_ser_experiment(ser_cfg),
        run_ser_experiment(ser_cfg),
        run_ser_experiment(ser_cfg.replaced(workers=2)),
        run_ser_experiment(ser_cfg.replaced(workers=4)),
    ]
    ser_ok = all(r == runs[0] for r in runs)
    rate_cfg = ExperimentConfig(
        experiment="rate",
        seed=1010,
        osnr_start_db=20.0,
        osnr_stop_db=20.0,
        osnr_step_db=2.0,
        n_samples=50_000,
        n_bins=32,
        n_channels=5,
    )
    rate_runs = [
        run_rate_experiment(rate_cfg),
        run_rate_experiment(rate_cfg),
        run_rate_experiment(rate_cfg.replaced(workers=2)),
        run_rate_experiment(rate_cfg.replaced(workers=4)),
    ]
    rate_ok = all(r == rate_runs[0] for r in rate_runs)
    ok = ser_ok and rate_ok
    record_acceptance(
        f"[{'PASS' if ok else 'FAIL'}] 10 determinism: identical CSV rows across "
        f"repeat runs and worker counts 1/2/4"
    )
    assert ser_ok
    assert rate_ok
