"""Dual-polarization direct-detection link simulator.

Modules: constellation (ring-PSK alphabet, the grid phasors
``phasor_table``, the phase encoder, the index draw ``draw_indices``), channel
(random unitary rotation, amplifier noise, and ``stokes_vector``, the one
formula of w1..w4 that the front-end, the surrogate moments and training build
on), frontend (photocurrent observables of both
receiver variants, and ``received_samples``, every receiver's noisy path),
detection (``gaussian_stats_dims123``, the one function of the surrogate
moments, Gaussian-surrogate ML and successive detection from the known
``PILOT``: the inter-slot decision rounds the phase of the delayed beat
against one gain per slot, K_x[n] K_y*[n-1] of the decided slots' noiseless
fields or a gain the receiver is given, such as the true values' gain in
genie mode; training-based channel estimation), metrics (SER
accumulation, ``draw_frame``, the one keyed Monte Carlo frame of the SER and
rate sweeps, and ``estimate_mi_dim4(config, key)``, one channel's plug-in
rate over the OSNR grid), experiments/config/cli (seeded sweeps, each a map
of a keyed kernel over blocks or channels, and CSV/plot emission).

Every layer works on whole blocks of slots: index arrays (n, 4), field arrays
(n,), sample arrays (n, 6); scalar per-slot forms live in the tests as oracles.
"""

from .channel import (
    JonesChannel,
    apply_jones,
    channel_from_pair,
    haar_random_channel,
    osnr_to_sigma2,
    stokes_vector,
)
from .config import ExperimentConfig
from .constellation import (
    RingPskConstellation,
    build_constellation,
    draw_indices,
    encode_indices,
)
from .detection import (
    PILOT,
    ReceiverResult,
    estimate_channel,
    gaussian_stats_dims123,
    run_successive_receiver,
    run_training,
)
from .metrics import accumulate_ser, estimate_mi_dim4

__version__ = "0.1.0"
