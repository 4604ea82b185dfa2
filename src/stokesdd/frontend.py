"""Photocurrent observables of the dual-polarization delay receiver.

Six real samples per slot with unit photodiode responsivity:

    w1 = |F_x[n]|^2                  w2 = |F_y[n]|^2
    w3 = 2 Re(F_x[n] F_y*[n])        w4 = 2 Im(F_x[n] F_y*[n])
    w5 = 2 Re(F_x[n] F_y*[n-1])      w6 = 2 Im(F_x[n] F_y*[n-1])

w1..w4 are the slot's Stokes vector (``channel.stokes_vector``); the front-end
adds only the delayed beat pair.  The reduced variant replaces each balanced
detector pair with a single photodiode: each hybrid port sums two intensities
and half of one beat sample, so the reduced samples are affine in the full
ones, and ``recover_full_block`` inverts that map digitally.  The delay line
is empty before the first slot, so slot 0 behaves as if F_y[-1] = 0.

Each function takes a whole field sequence (or its samples) and returns an
(n, 6) array, one row per slot.  ``received_samples`` (noise, then either
front-end) is the noisy path of every receiver: the SER sweep's and the
decision-directed rate's.  The rate sweep forms its delayed beat from the
noiseless fields and the unit draws (``metrics._beat_coefficients``).
"""

from __future__ import annotations

import numpy as np

from .channel import add_unit_noise, stokes_vector


def _delayed(fy: np.ndarray) -> np.ndarray:
    fy_prev = np.empty_like(fy)
    fy_prev[0] = 0.0
    fy_prev[1:] = fy[:-1]
    return fy_prev


def frontend_full_block(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Full-variant samples for a field sequence: the Stokes vector w1..w4 of
    each slot and the delayed beat pair (w5, w6); returns (n, 6)."""
    delayed = 2.0 * fx * np.conj(_delayed(fy))
    return np.column_stack([stokes_vector(fx, fy), delayed.real, delayed.imag])


def frontend_reduced_block(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Reduced-variant samples for a field sequence; returns (n, 6) columns
    (w1, w2, w1+w2+w3/2, w1+w2+w4/2, w1+w2'+w5/2, w1+w2'+w6/2) of the full
    samples, w2' = w2[n-1]."""
    reduced = frontend_full_block(fx, fy)
    w1, w2 = reduced[:, :1], reduced[:, 1:2]
    reduced[:, 2:4] = w1 + w2 + reduced[:, 2:4] / 2.0
    reduced[:, 4:] = w1 + _delayed(w2) + reduced[:, 4:] / 2.0
    return reduced


def recover_full_block(reduced: np.ndarray) -> np.ndarray:
    """Digital restoration of (w1..w6) from reduced-variant samples (n, 6):
    the inverse of the affine map of ``frontend_reduced_block``."""
    full = np.array(reduced, dtype=float)
    w1, w2 = full[:, :1], full[:, 1:2]
    full[:, 2:4] = 2.0 * (full[:, 2:4] - w1 - w2)
    full[:, 4:] = 2.0 * (full[:, 4:] - w1 - _delayed(w2))
    return full


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
