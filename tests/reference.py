"""Reference implementations that the library's fast kernels are tested
against.  They favour the plainest form of each formula over speed."""

from __future__ import annotations

import numpy as np

from stokesdd.channel import JonesChannel, apply_jones
from stokesdd.constellation import RingPskConstellation
from stokesdd.detection import gaussian_stats_dims123


def hypothesis_stats(channel: JonesChannel, constellation: RingPskConstellation):
    """Per-slot hypotheses (H, 3) of (ring_x, ring_y, intra-phase) in
    rx-major order, with the mean (H, 4) and covariance (H, 4, 4) of
    (w1, w2, w3, w4) under each."""
    radii = np.asarray(constellation.radii)
    rx, ry, t = np.meshgrid(
        np.arange(constellation.n_rings),
        np.arange(constellation.n_rings),
        np.arange(constellation.n_phases),
        indexing="ij",
    )
    ex = radii[rx.ravel()].astype(complex)
    ey = radii[ry.ravel()] * np.exp(-1j * constellation.phase_step * t.ravel())
    kx, ky = apply_jones(channel, ex, ey)
    stats = gaussian_stats_dims123(kx, ky, channel.sigma2)
    triples = np.stack([rx.ravel(), ry.ravel(), t.ravel()], axis=1)
    return triples, stats.mean, stats.cov


def einsum_bank_scores(means: np.ndarray, covs: np.ndarray, sigma2: float, obs: np.ndarray) -> np.ndarray:
    """Gaussian-surrogate log-likelihood table (n, H) through explicit inverse
    covariances: -0.5 ((w - mu_h)^T C_h^-1 (w - mu_h) + log det C_h), or the
    negative squared distance to each mean at sigma2 = 0."""
    diffs = obs[:, None, :] - means[None, :, :]
    if sigma2 == 0.0:
        return -np.einsum("nhi,nhi->nh", diffs, diffs)
    icovs = np.linalg.inv(covs)
    logdets = np.linalg.slogdet(covs)[1]
    quad = np.einsum("nhi,hij,nhj->nh", diffs, icovs, diffs)
    return -0.5 * (quad + logdets[None, :])
