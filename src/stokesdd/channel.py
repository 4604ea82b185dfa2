"""Unitary polarization rotation with amplifier noise, and the Stokes vector
of a field pair.

The two-polarization field passes through a random unit-determinant rotation
[[a, b], [-b*, a*]] and picks up circularly symmetric complex Gaussian noise of
variance 2*sigma2 per polarization (sigma2 per real quadrature).
``stokes_vector`` gives the four per-slot observables
(|F_x|^2, |F_y|^2, 2Re F_xF_y*, 2Im F_xF_y*) of field arrays; the rotation
acts on them as a fixed 4x4 matrix, which the tests keep as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MIN_OSNR_DB

UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class JonesChannel:
    """Rotation parameters (a, b) with |a|^2 + |b|^2 = 1, plus the noise level
    sigma2, at most ``MAX_SIGMA2``: the OSNR floor's."""

    a: complex
    b: complex
    sigma2: float = 0.0

    def __post_init__(self):
        if abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0) > UNITARITY_TOL:
            raise ValueError("(a, b) must satisfy |a|^2 + |b|^2 = 1")
        check_sigma2(self.sigma2)


def check_sigma2(sigma2: float) -> None:
    """Raise a ValueError naming sigma2 unless it lies in [0, ``MAX_SIGMA2``]:
    the noise bound of ``JonesChannel``, the surrogate moments and the noise
    path, so no kernel decides on non-finite samples or scores."""
    if not 0.0 <= sigma2 <= MAX_SIGMA2:  # NaN does not pass
        raise ValueError(f"sigma2 must lie in [0, {MAX_SIGMA2!r}], got {sigma2!r}")


def channel_from_pair(z1: complex, z2: complex, sigma2: float = 0.0) -> JonesChannel:
    """Normalize a complex pair onto the unit sphere |a|^2 + |b|^2 = 1."""
    norm = math.sqrt(abs(z1) ** 2 + abs(z2) ** 2)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero pair")
    return JonesChannel(z1 / norm, z2 / norm, sigma2)


def haar_random_channel(rng: np.random.Generator, sigma2: float = 0.0) -> JonesChannel:
    """Uniform draw over the unit-determinant rotations: two independent
    standard complex Gaussians, normalized to unit joint norm."""
    g = rng.standard_normal(4)
    return channel_from_pair(complex(g[0], g[1]), complex(g[2], g[3]), sigma2)


def apply_jones(channel: JonesChannel, ex, ey):
    """Noiseless rotation of field arrays (or scalars)."""
    a, b = channel.a, channel.b
    return a * ex + b * ey, -np.conj(b) * ex + np.conj(a) * ey


def add_unit_noise(kx, ky, sigma2: float, unit: np.ndarray):
    """Add scaled pre-drawn standard-normal quadratures (n, 4) to the fields.

    Keeping the unit draws fixed while sweeping sigma2 gives common-random-number
    curves across an OSNR grid.  sigma2 must pass ``check_sigma2``.
    """
    check_sigma2(sigma2)
    s = math.sqrt(sigma2)
    fx = kx + s * (unit[..., 0] + 1j * unit[..., 1])
    fy = ky + s * (unit[..., 2] + 1j * unit[..., 3])
    return fx, fy


# No caller in the library or the tests: received_samples is the noisy path.
# Kept while perfbench's WRAPPED lists it (ROADMAP item 8):
# test_perfbench.py::test_a_wrapped_name_the_program_lacks_is_reported_absent fails without it.
def propagate_block(channel: JonesChannel, ex, ey, rng: np.random.Generator):
    """Rotate and add noise to field arrays; returns (fx, fy, kx, ky)."""
    kx, ky = apply_jones(channel, ex, ey)
    unit = rng.standard_normal((np.shape(kx)[0], 4))
    fx, fy = add_unit_noise(kx, ky, channel.sigma2, unit)
    return fx, fy, kx, ky


def stokes_vector(ex, ey) -> np.ndarray:
    """Observable 4-vector (|E_x|^2, |E_y|^2, 2Re E_xE_y*, 2Im E_xE_y*);
    broadcasts over arrays, stacking on the last axis."""
    ex, ey = np.broadcast_arrays(ex, ey)
    p = ex * np.conj(ey)
    return np.stack(
        [np.abs(ex) ** 2, np.abs(ey) ** 2, 2.0 * p.real, 2.0 * p.imag], axis=-1
    )


def osnr_to_sigma2(osnr_db: float) -> float:
    """Per-quadrature noise variance at a given OSNR for unit average signal
    energy; total noise energy per slot is 4*sigma2 over both polarizations."""
    try:
        sigma2 = 10.0 ** (-osnr_db / 10.0) / 4.0
    except OverflowError:  # below about -3082 dB
        sigma2 = math.inf
    if not sigma2 < math.inf:  # +inf gives 0.0; NaN, -inf and overflow do not pass
        raise ValueError(f"OSNR {osnr_db!r} dB gives no finite noise variance")
    return sigma2


# the noise variance at config.MIN_OSNR_DB, the most that check_sigma2 accepts
MAX_SIGMA2 = osnr_to_sigma2(MIN_OSNR_DB)
