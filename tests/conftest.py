import numpy as np

from stokesdd.config import ExperimentConfig
from stokesdd.metrics import estimate_mi_dim4

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def rate_bits(grid, **fields) -> np.ndarray:
    """Per-channel plug-in bits of a rate config over the evenly spaced OSNR
    ``grid``: ``estimate_mi_dim4(cfg, k)`` for each channel key k, stacked
    into an (n_channels, len(grid)) array. ``fields`` are the other config
    fields."""
    step = grid[1] - grid[0] if len(grid) > 1 else 1.0
    cfg = ExperimentConfig(
        experiment="rate", osnr_start_db=grid[0], osnr_stop_db=grid[-1], osnr_step_db=step, **fields
    )
    assert cfg.osnr_grid() == list(grid)
    return np.stack([estimate_mi_dim4(cfg, k) for k in range(cfg.n_channels)])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
