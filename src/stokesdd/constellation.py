"""Ring-PSK alphabet on two polarizations, its recursive phase encoder, and
the uniform index draw that every simulated stream starts from.

Each slot carries four quantities: the field magnitude on each polarization
(a ring index per polarization), the intra-slot phase difference between the
two polarizations, and the phase difference between the current X field and
the previous Y field.  The last quantity is differential, so a sequence is
generated recursively from arg(E_y) = 0 in the first slot, which has no
predecessor and whose inter-slot index is ignored.  A common phase on every
field changes no observable, so that reference loses no generality.

A stream is an (n, 4) integer array of rows (rx, ry, t, e), and its fields
are two complex (n,) arrays (E_x, E_y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

TWO_PI = 2.0 * math.pi


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


def draw_indices(rng: np.random.Generator, constellation: RingPskConstellation, n: int):
    """Uniform (n, 4) index draw, one column at a time in (rx, ry, t, e)
    order: rings, rings, phases, phases."""
    highs = (constellation.n_rings,) * 2 + (constellation.n_phases,) * 2
    idx = np.empty((n, 4), dtype=np.int64)
    for col, high in enumerate(highs):
        idx[:, col] = rng.integers(0, high, n)
    return idx


def phasor_table(constellation: RingPskConstellation) -> np.ndarray:
    """The (n_phases,) grid phasors exp(i*k*step), k = 0..n_phases-1: every
    transmit phase of the encoder, and the phase reference of the inter-slot
    decision and the rate."""
    return np.exp(1j * constellation.phase_step * np.arange(constellation.n_phases))


def ravel_indices(constellation: RingPskConstellation, idx, columns: int) -> np.ndarray:
    """Flat index of each row of an (n, ``columns``) stream of (rx, ry, t)
    or (rx, ry, t, e) in the alphabet (n_rings, n_rings, n_phases[,
    n_phases]): the hypothesis numbers of an (n, 3) stream.

    ``idx`` must be a nonempty integer (not bool) array of that shape with
    every entry inside the alphabet; anything else raises a ValueError that
    names ``idx`` and the alphabet.
    """
    idx = np.asarray(idx)
    alphabet = (constellation.n_rings,) * 2 + (constellation.n_phases,) * (columns - 2)
    try:
        if idx.dtype.kind not in "iu" or idx.ndim != 2 or idx.shape[1] != columns or len(idx) == 0:
            raise ValueError
        # numpy raises on any index outside the alphabet, negative ones included
        return np.ravel_multi_index(tuple(idx.T), alphabet)
    except ValueError:
        raise ValueError(
            f"idx must be a nonempty integer (n, {columns}) array, no entry out of range of "
            f"the alphabet {alphabet}; got {idx.dtype} {idx.shape}"
        ) from None


def encode_indices(constellation: RingPskConstellation, idx):
    """Map an (n, 4) integer index array to transmit field arrays (ex, ey).

    Recursion: arg(E_x[n]) = e[n]*step + arg(E_y[n-1]) and
    arg(E_y[n]) = arg(E_x[n]) - t[n]*step.  Slot 0 anchors arg(E_y[0]) at
    zero and ignores its inter-slot index.  Every phase is a whole number of
    steps, carried as an integer modulo n_phases, so each field is its ring
    radius times a ``phasor_table`` entry, exactly, however long the stream.
    """
    ravel_indices(constellation, idx, 4)
    idx = np.asarray(idx, dtype=np.int64)  # checked; e - t of a narrow or unsigned dtype would wrap
    nph = constellation.n_phases
    radii = np.asarray(constellation.radii)
    phasors = phasor_table(constellation)
    # arg(E_y) = k_y*step starts at zero and advances by (e - t) steps per
    # slot; the int64 sum cannot overflow: |e - t| < n_phases <=
    # MAX_HYPOTHESES = 2**13 and n <= MAX_FRAME_SLOTS = 2**22 keep it below 2**35
    k_y = np.zeros(len(idx), dtype=np.int64)
    np.cumsum(idx[1:, 3] - idx[1:, 2], out=k_y[1:])
    k_y %= nph
    k_x = k_y + idx[:, 2]
    k_x %= nph
    return radii[idx[:, 0]] * phasors[k_x], radii[idx[:, 1]] * phasors[k_y]
