"""Dual-polarization direct-detection link simulator.

Modules: constellation (ring-PSK alphabet and phase encoder), channel (random
unitary rotation and amplifier noise), frontend (photocurrent observables of
both receiver variants), detection (Gaussian-surrogate ML and successive
detection, training-based channel estimation), metrics (SER accumulation and
plug-in rate estimation), experiments/config/cli (seeded sweeps and CSV/plot
emission).

Every layer works on whole blocks of slots: index arrays (n, 4), field arrays
(n,), sample arrays (n, 6).
"""

from .channel import (
    JonesChannel,
    StokesMatrix,
    apply_jones,
    channel_from_pair,
    haar_random_channel,
    osnr_to_sigma2,
    propagate_block,
    stokes_matrix,
    stokes_vector,
)
from .config import ExperimentConfig
from .constellation import (
    DualPolSymbol,
    RingPskConstellation,
    SymbolIndices,
    build_constellation,
    encode_indices,
)
from .detection import (
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
