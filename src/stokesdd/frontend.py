"""Photocurrent observables of the dual-polarization delay receiver.

Six real samples per slot with unit photodiode responsivity:

    w1 = |F_x[n]|^2                  w2 = |F_y[n]|^2
    w3 = 2 Re(F_x[n] F_y*[n])        w4 = 2 Im(F_x[n] F_y*[n])
    w5 = 2 Re(F_x[n] F_y*[n-1])      w6 = 2 Im(F_x[n] F_y*[n-1])

The reduced variant replaces each balanced detector pair with a single
photodiode; its hybrid-port samples are affine in (w1, w2, w3..w6) and the
beat samples are restored digitally from them.  The delay line is empty before
the first slot, so slot 0 behaves as if F_y[-1] = 0.

Each function takes a whole field sequence (or its samples) and returns an
(n, 6) array, one row per slot.  ``received_samples`` (noise, then either
front-end) is the one noisy path of the SER sweep, the rate and training.
"""

from __future__ import annotations

import numpy as np

from .channel import add_unit_noise


def _delayed(fy: np.ndarray) -> np.ndarray:
    fy_prev = np.empty_like(fy)
    fy_prev[0] = 0.0
    fy_prev[1:] = fy[:-1]
    return fy_prev


def frontend_full_block(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Full-variant samples for a field sequence; returns (n, 6)."""
    p_now = fx * np.conj(fy)
    p_del = fx * np.conj(_delayed(fy))
    return np.stack(
        [
            np.abs(fx) ** 2,
            np.abs(fy) ** 2,
            2.0 * p_now.real,
            2.0 * p_now.imag,
            2.0 * p_del.real,
            2.0 * p_del.imag,
        ],
        axis=-1,
    )


def frontend_reduced_block(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Reduced-variant samples for a field sequence; returns (n, 6) columns
    (w1, w2, w3', w4', w5', w6')."""
    ix = np.abs(fx) ** 2
    iy = np.abs(fy) ** 2
    iy_prev = _delayed(iy)
    p_now = fx * np.conj(fy)
    p_del = fx * np.conj(_delayed(fy))
    return np.stack(
        [
            ix,
            iy,
            ix + iy + p_now.real,
            ix + iy + p_now.imag,
            ix + iy_prev + p_del.real,
            ix + iy_prev + p_del.imag,
        ],
        axis=-1,
    )


def recover_full_block(reduced: np.ndarray) -> np.ndarray:
    """Digital restoration of (w1..w6) from reduced-variant samples (n, 6)."""
    reduced = np.asarray(reduced)
    w1 = reduced[:, 0]
    w2 = reduced[:, 1]
    w2_prev = _delayed(w2)
    return np.stack(
        [
            w1,
            w2,
            2.0 * (reduced[:, 2] - w1 - w2),
            2.0 * (reduced[:, 3] - w1 - w2),
            2.0 * (reduced[:, 4] - w1 - w2_prev),
            2.0 * (reduced[:, 5] - w1 - w2_prev),
        ],
        axis=-1,
    )


def received_samples(kx, ky, sigma2: float, unit: np.ndarray, variant: str) -> np.ndarray:
    """Noisy (n, 6) samples w1..w6 of the noiseless received fields (kx, ky):
    ``unit`` standard-normal quadratures scaled to ``sigma2``, then the
    ``variant`` ("full" or "reduced") front-end; reduced-variant samples are
    restored digitally."""
    fx, fy = add_unit_noise(kx, ky, sigma2, unit)
    if variant == "full":
        return frontend_full_block(fx, fy)
    if variant == "reduced":
        return recover_full_block(frontend_reduced_block(fx, fy))
    raise ValueError(f"variant must be 'full' or 'reduced', got {variant!r}")
