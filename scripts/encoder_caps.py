#!/usr/bin/env python3
"""Check the encoder's integer phases at the caps that ``validate()`` allows.

Encodes ``MAX_FRAME_SLOTS`` slots on the one-ring alphabets of
``MAX_HYPOTHESES`` phases and of one phase fewer, each as an extreme stream
(t = 0, e = n_phases - 1 in every slot, so the running phase sum reaches
~3.4e10 steps, past 2^31) and as a uniform draw.  Every slot's phase indices
come from a recurrence in Python ints, and both fields must equal
radius x ``phasor_table`` entry bit for bit.  A power-of-two phase count cannot
show a 32-bit wrap of the sum (2^32 is a multiple of it); 8191 phases can.
Takes no options and exits nonzero on the first mismatch; run from the root of
a checkout with ``PYTHONPATH=src`` (about 5 s and 0.4 GiB on two cores).
"""

import sys

import numpy as np

from stokesdd.config import MAX_FRAME_SLOTS, MAX_HYPOTHESES, ExperimentConfig
from stokesdd.constellation import build_constellation, draw_indices, encode_indices, phasor_table

CHUNK = 2**16


def check(name, constellation, idx):
    nph = constellation.n_phases
    ex, ey = encode_indices(constellation, idx)
    radius, phasors = constellation.radii[0], phasor_table(constellation)
    k = 0  # arg(E_y[0]) = 0; slot 0's inter-slot index is ignored
    for start in range(0, len(idx), CHUNK):
        t, e = idx[start : start + CHUNK, 2].tolist(), idx[start : start + CHUNK, 3].tolist()
        k_y = []
        for n, (tn, en) in enumerate(zip(t, e), start):
            if n:
                k = (k + en - tn) % nph
            k_y.append(k)
        k_x = [(ky + tn) % nph for ky, tn in zip(k_y, t)]
        stop = start + len(t)
        if not (
            np.array_equal(ex[start:stop], radius * phasors[k_x])
            and np.array_equal(ey[start:stop], radius * phasors[k_y])
        ):
            sys.exit(f"{name}: a field differs from radius x table phasor in slots {start}..{stop - 1}")
    print(f"{name}: {len(idx)} slots, every field is radius x table phasor bit for bit")


def main():
    for n_phases in (MAX_HYPOTHESES, MAX_HYPOTHESES - 1):
        ExperimentConfig(n_rings=1, n_phases=n_phases, symbols_per_block=MAX_FRAME_SLOTS).validate()
        c = build_constellation(1, n_phases)
        extreme = np.broadcast_to(np.array([0, 0, 0, n_phases - 1]), (MAX_FRAME_SLOTS, 4))
        check(f"1x{n_phases} extreme", c, extreme)
        check(f"1x{n_phases} uniform", c, draw_indices(np.random.default_rng(n_phases), c, MAX_FRAME_SLOTS))


if __name__ == "__main__":
    main()
