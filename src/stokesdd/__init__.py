"""Dual-polarization direct-detection link simulator.

Modules: constellation (ring-PSK alphabet, phase encoder, the index draw
``draw_indices``), channel (random unitary rotation and amplifier noise),
frontend (photocurrent observables of both receiver variants, and
``received_samples``, the one noisy forward path), detection
(Gaussian-surrogate ML and successive detection from the known ``PILOT``:
the inter-slot gain is the product K_x[n] K_y*[n-1] of the conditioning
slots' noiseless fields and the decision rounds the phase of the delayed beat
against it; training-based channel estimation), metrics (SER accumulation,
plug-in rate estimation, and ``draw_frame``, the one keyed Monte Carlo frame
of the SER and rate sweeps), experiments/config/cli (seeded sweeps and
CSV/plot emission).

Every layer works on whole blocks of slots: index arrays (n, 4), field arrays
(n,), sample arrays (n, 6).
"""

from .channel import (
    JonesChannel,
    apply_jones,
    channel_from_pair,
    haar_random_channel,
    osnr_to_sigma2,
    stokes_matrix,
    stokes_vector,
)
from .config import ExperimentConfig
from .constellation import (
    DualPolSymbol,
    RingPskConstellation,
    SymbolIndices,
    build_constellation,
    draw_indices,
    encode_indices,
)
from .detection import (
    PILOT,
    ChannelEstimate,
    GaussianStats,
    ReceiverResult,
    estimate_channel,
    gaussian_stats_dim4,
    gaussian_stats_dims123,
    run_successive_receiver,
    run_training,
)
from .metrics import MiEstimate, SerReport, accumulate_ser, estimate_mi_dim4

__version__ = "0.1.0"
