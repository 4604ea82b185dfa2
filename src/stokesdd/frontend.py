"""Photocurrent observables of the dual-polarization delay receiver.

Six real samples per slot with unit photodiode responsivity:

    w1 = |F_x[n]|^2                  w2 = |F_y[n]|^2
    w3 = 2 Re(F_x[n] F_y*[n])        w4 = 2 Im(F_x[n] F_y*[n])
    w5 = 2 Re(F_x[n] F_y*[n-1])      w6 = 2 Im(F_x[n] F_y*[n-1])

w1..w4 are the slot's Stokes vector (``channel.stokes_vector``); the front-end
adds only the delayed beat pair.  The reduced variant replaces each balanced
detector pair with a single photodiode: each hybrid port sums two intensities
and half of one beat sample, so the reduced samples are affine in the full
ones, and ``recover_full_block`` inverts that map digitally.  Those two public
maps return new arrays; ``evaluate_samples`` applies the same two maps in place
to the array it has just evaluated, column by column, with the same rounding.
The delay line is empty before the first slot, so slot 0 behaves as if
F_y[-1] = 0.

Noisy samples have one formula, here.  With unit noise quadratures U fixed
across an OSNR grid, the fields are K + s U, s = sqrt(sigma2), and the
front-end is a quadratic form Q, so the samples are Q(K) + s B(K, U) +
s^2 Q(U), B the polarization of Q: ``sample_coefficients`` builds that table
per frame, and ``evaluate_samples`` evaluates it at each point by Horner's
rule.  Each function takes a whole sequence and returns one row per slot.

The table is stored column-major: each plane is the transpose of a (6, n)
array, so each sample's n values are contiguous.  Every pass over it works
column by column (Horner's rule, the reduced map and its restoration, and
the receiver's reads of w1..w4 and of w5 + i w6), and each then runs on
contiguous memory instead of 48-byte strides; Horner's rule keeps the
layout, so the samples come out column-major too.  A 10^4-slot reduced
evaluation takes about half as long as on a row-major table, with the same
bits: every value is computed by the same operations in the same order.
"""

from __future__ import annotations

import numpy as np

from .channel import check_sigma2, stokes_vector


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


def _reduce(samples: np.ndarray) -> np.ndarray:
    # the reduced map in place, one column at a time: x/2 + (w1 + w2k), the
    # same rounding as (w1 + w2k) + x/2; w2k is w2, or w2[n-1] for w5 and w6
    w1, w2 = samples[:, 0], samples[:, 1]
    now, prev = w1 + w2, w1 + _delayed(w2)
    for k, port in ((2, now), (3, now), (4, prev), (5, prev)):
        col = samples[:, k]
        col /= 2.0
        col += port
    return samples


def _restore(samples: np.ndarray) -> np.ndarray:
    # the restoration in place, one column at a time: 2 ((x - w1) - w2k)
    w1, w2 = samples[:, 0], samples[:, 1]
    w2_prev = _delayed(w2)
    for k, w2k in ((2, w2), (3, w2), (4, w2_prev), (5, w2_prev)):
        col = samples[:, k]
        col -= w1
        col -= w2k
        col *= 2.0
    return samples


def frontend_reduced_block(full: np.ndarray) -> np.ndarray:
    """Reduced-variant samples (w1, w2, w1+w2+w3/2, w1+w2+w4/2, w1+w2'+w5/2,
    w1+w2'+w6/2), w2' = w2[n-1], of full-variant samples (n, 6), in a new array."""
    return _reduce(np.array(full, dtype=float))


def recover_full_block(reduced: np.ndarray) -> np.ndarray:
    """Digital restoration of (w1..w6) from reduced-variant samples (n, 6), in
    a new array: the inverse of the affine map of ``frontend_reduced_block``."""
    return _restore(np.array(reduced, dtype=float))


def beat_coefficients(kx, ky, unit):
    """The (n-1,) complex (b0, b1, b2) of the noisy delayed beat F_x[n] F_y*[n-1]
    = b0 + s b1 + s^2 b2 of slots 1..n-1, from the noiseless fields and the
    (n, 4) unit quadratures; b0 is the noiseless beat, bit for bit.

    The call drops its reference to ``unit`` once U_x[n] and conj U_y[n-1]
    are formed, so quadratures passed straight in (``metrics.frame_noise``)
    are freed halfway through it, before b0..b2 are allocated."""
    ux = unit[1:, 0] + 1j * unit[1:, 1]
    uy_prev = unit[:-1, 2] - 1j * unit[:-1, 3]  # conj of the previous slot's y noise
    del unit
    b2 = ux * uy_prev
    b1 = kx[1:] * uy_prev
    del uy_prev  # each temporary goes as soon as it is used: they set the rate sweep's peak RSS
    ky_prev = np.conj(ky[:-1])
    ux *= ky_prev
    b1 += ux
    del ux
    return kx[1:] * ky_prev, b1, b2


def sample_coefficients(kx, ky, unit) -> np.ndarray:
    """The (3, n, 6) table (Q(K), B(K, U), Q(U)) of a frame's noiseless
    fields and (n, 4) unit quadratures, column-major (the transpose of a
    (3, 6, n) array); c[0] is ``frontend_full_block(kx, ky)``."""
    ux, uy = unit[:, 0] + 1j * unit[:, 1], unit[:, 2] + 1j * unit[:, 3]
    columns = np.zeros((3, 6, len(unit)))  # zeros: slot 0 has no delayed beat
    table = columns.transpose(0, 2, 1)
    table[0] = frontend_full_block(kx, ky)
    table[2] = frontend_full_block(ux, uy)
    beat = kx * uy.conj() + ux * ky.conj()
    polarization = columns[1]
    for k, term in enumerate(((kx * ux.conj()).real, (ky * uy.conj()).real, beat.real, beat.imag)):
        np.multiply(2.0, term, out=polarization[k])
    delayed = beat_coefficients(kx, ky, unit)[1]
    np.multiply(2.0, delayed.real, out=polarization[4, 1:])
    np.multiply(2.0, delayed.imag, out=polarization[5, 1:])
    return table


def horner(coefficients, s: float, out=None) -> np.ndarray:
    """c0 + s c1 + s^2 c2 of the arrays (c0, c1, c2) by Horner's rule, in
    ``out`` or a new array."""
    value = np.multiply(coefficients[2], s, out=out)
    value += coefficients[1]
    value *= s
    value += coefficients[0]
    return value


def evaluate_samples(coefficients: np.ndarray, sigma2: float, variant: str) -> np.ndarray:
    """The (n, 6) samples w1..w6 of a ``sample_coefficients`` table at noise
    variance ``sigma2`` (``check_sigma2``), through the ``variant`` ("full" or
    "reduced") front-end, in a new array of the table's layout (column-major
    for ``sample_coefficients``'s).  Reduced-variant samples are mapped
    and restored digitally in place in that array, bit for bit as
    ``recover_full_block(frontend_reduced_block(...))`` would return them."""
    check_sigma2(sigma2)
    samples = horner(coefficients, np.sqrt(sigma2))
    if variant == "full":
        return samples
    if variant == "reduced":
        return _restore(_reduce(samples))
    raise ValueError(f"variant must be 'full' or 'reduced', got {variant!r}")
