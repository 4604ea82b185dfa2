"""Ring-PSK alphabet on two polarizations, its recursive phase encoder, and
the uniform index draw that every simulated stream starts from.

Each slot carries four quantities: the field magnitude on each polarization
(a ring index per polarization), the intra-slot phase difference between the
two polarizations, and the phase difference between the current X field and
the previous Y field.  The last quantity is differential, so a sequence is
generated recursively from an initial phase reference; the first slot has no
predecessor and its inter-slot index is ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DualPolSymbol:
    """Complex field pair on the X and Y polarizations of one slot."""

    ex: complex
    ey: complex


@dataclass(frozen=True)
class SymbolIndices:
    """Index tuple selecting one point in the four information dimensions."""

    rx: int  # ring of |E_x|
    ry: int  # ring of |E_y|
    t: int   # grid index of arg(E_x E_y*), intra-slot
    e: int   # grid index of arg(E_x[n] E_y*[n-1]), inter-slot


@dataclass(frozen=True)
class RingPskConstellation:
    """Amplitude rings with equally spaced squared radii and a common phase grid.

    Radii are scaled so the uniform average of |E_x|^2 + |E_y|^2 over all index
    tuples equals one, which pins the OSNR reference.
    """

    n_rings: int
    n_phases: int
    radii: tuple
    phase_step: float

    @property
    def size(self) -> int:
        return self.n_rings**2 * self.n_phases**2


def build_constellation(n_rings: int, n_phases: int) -> RingPskConstellation:
    """Build an amplitude-ring/PSK alphabet with unit average total energy.

    Squared radii are proportional to 1..n_rings; the mean of k/(n_rings+1)
    over k is 1/2 per polarization, so the two-polarization average energy is
    exactly one.
    """
    if n_rings < 1:
        raise ValueError("n_rings must be a positive integer")
    if n_phases < 1:
        raise ValueError("n_phases must be a positive integer")
    scale = 1.0 / (n_rings + 1)
    radii = tuple(math.sqrt(scale * k) for k in range(1, n_rings + 1))
    return RingPskConstellation(n_rings, n_phases, radii, TWO_PI / n_phases)


def draw_indices(rng: np.random.Generator, constellation: RingPskConstellation, n: int, columns: int = 4):
    """Uniform (n, columns) index draw, one column at a time in (rx, ry, t, e)
    order: rings, rings, phases, phases."""
    highs = (constellation.n_rings,) * 2 + (constellation.n_phases,) * 2
    return np.stack([rng.integers(0, high, n) for high in highs[:columns]], axis=1)


def encode_indices(constellation: RingPskConstellation, idx, initial_ey_phase: float = 0.0):
    """Map an (n, 4) integer index array to transmit field arrays (ex, ey).

    Recursion: arg(E_x[n]) = e[n]*step + arg(E_y[n-1]) and
    arg(E_y[n]) = arg(E_x[n]) - t[n]*step.  Slot 0 anchors arg(E_y[0]) to
    ``initial_ey_phase`` and ignores its inter-slot index.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != 4 or idx.shape[0] == 0:
        raise ValueError("expected a nonempty (n, 4) index array")
    if (idx < 0).any() or (idx[:, :2] >= constellation.n_rings).any() or (
        idx[:, 2:] >= constellation.n_phases
    ).any():
        raise ValueError("symbol index out of range")
    step = constellation.phase_step
    radii = np.asarray(constellation.radii)
    phase_y = np.empty(len(idx))
    phase_y[0] = initial_ey_phase
    if len(idx) > 1:
        # arg(E_y) advances by (e - t)*step per slot
        phase_y[1:] = initial_ey_phase + np.cumsum((idx[1:, 3] - idx[1:, 2]) * step)
    phase_x = phase_y + idx[:, 2] * step
    ex = radii[idx[:, 0]] * np.exp(1j * phase_x)
    ey = radii[idx[:, 1]] * np.exp(1j * phase_y)
    return ex, ey
