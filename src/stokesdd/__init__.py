"""Dual-polarization direct-detection link simulator.

Modules: constellation (ring-PSK alphabet, phase encoder, the index draw
``draw_indices``), channel (random unitary rotation and amplifier noise),
frontend (photocurrent observables of both receiver variants, and
``received_samples``, the one noisy forward path), detection
(Gaussian-surrogate ML and successive detection from the known ``PILOT``, the
beat-gain kernel on (previous, current) pairs, training-based channel
estimation), metrics (SER accumulation and plug-in rate estimation),
experiments/config/cli (seeded sweeps and CSV/plot emission).

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
