"""Dual-polarization direct-detection link simulator.

Modules: constellation (ring-PSK alphabet, the grid phasors
``phasor_table``, the phase encoder, the index draw ``draw_indices`` and
``ravel_indices``, the one check of an index stream), channel
(random unitary rotation, amplifier noise, and ``stokes_vector``, the one
formula of w1..w4 that the front-end, the surrogate moments and training build
on), frontend (photocurrent observables of both receiver variants, and the
one formula of noisy samples: a quadratic in sqrt(sigma2) per frame, which
the SER sweep, both rate contexts and training evaluate),
detection (``gaussian_stats_dims123``, the one function of the surrogate
moments, Gaussian-surrogate ML and successive detection from the known
``PILOT``: the inter-slot decision rounds the phase of the delayed beat
against one gain per slot, K_x[n] K_y*[n-1] of the decided slots' noiseless
fields or a gain the receiver is given, such as the true values' gain in
genie mode; training-based channel estimation), metrics (SER
accumulation, ``draw_frame``, the one keyed Monte Carlo frame of the SER and
rate sweeps, and ``frame_noise``, its noise, drawn apart so that each caller
frees it once its coefficients are formed, and ``estimate_mi_dim4(config,
key)``, one channel's plug-in rate over the OSNR grid),
experiments/config/cli (seeded sweeps, each a map of a keyed kernel over
blocks or channels, and CSV/plot emission).

Every layer works on whole blocks of slots: index arrays (n, 4), field arrays
(n,), sample arrays (n, 6); scalar per-slot forms live in the tests as oracles.
Each name is read from its module (``from stokesdd.detection import PILOT``).
"""

from . import channel, config, constellation, detection, frontend, metrics

__version__ = "0.1.0"
