"""Experiment configuration: a flat dataclass with JSON round-tripping and
field-by-field validation."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .channel import osnr_to_sigma2
from .detection import gaussian_stats_dims123

SEED_ENV_VAR = "STOKESDD_SEED"

# largest OSNR grid a config may define; the repo's own sweeps use at most 11
MAX_OSNR_POINTS = 10_000

# largest rate histogram, n_phases * n_bins^2 cells at ~25 bytes each (~400
# MiB): 2048 bins at 4 phases; the repo's own sweeps use at most 32,768
MAX_HISTOGRAM_CELLS = 2**24

# most per-slot hypotheses H = n_rings^2 * n_phases: the receiver scores a
# frame in slices of detection.SCORE_SLICE_ROWS = 2^10 slots, so its largest
# array, the whitened form's (slice, 4H) block, stays within 2^25 float64
# cells (256 MiB) at any frame length; the repo's own sweeps use at most 256
# (4 rings x 16 phases)
MAX_HYPOTHESES = 2**13

# a grid point this far past osnr_stop_db still belongs to the grid
_GRID_TOL = 1e-9


@dataclass
class ExperimentConfig:
    experiment: str = "ser"  # ser | rate
    n_rings: int = 2
    n_phases: int = 4
    osnr_start_db: float = 10.0
    osnr_stop_db: float = 26.0
    osnr_step_db: float = 2.0
    symbols_per_block: int = 10_000
    blocks: int = 10
    seed: int = 0
    receiver_variant: str = "full"  # full | reduced
    channel_mode: str = "true"  # true | estimated
    training_repeats: int = 10_000
    detection_mode: str = "decision-directed"  # genie | decision-directed
    n_samples: int = 200_000  # rate experiment
    n_bins: int = 32
    n_channels: int = 20
    rate_context: str = "genie"  # conditioning of the rate estimate
    workers: int = 1

    def validate(self) -> None:
        # the annotations are strings here, so each field's type is read off
        # its default; bool is an int subclass but never a valid count
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(field.default, int) and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ValueError(f"{field.name} must be an integer, got {value!r}")
            if isinstance(field.default, float) and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise ValueError(f"{field.name} must be a number, got {value!r}")
        if self.experiment not in ("ser", "rate"):
            raise ValueError("experiment must be 'ser' or 'rate'")
        if self.n_rings < 1:
            raise ValueError("n_rings must be a positive integer")
        if self.n_phases < 1:
            raise ValueError("n_phases must be a positive integer")
        self._check_grid_bounds()
        if not self.osnr_grid():
            raise ValueError("osnr_start_db/osnr_stop_db define an empty grid")
        try:  # the grid's lowest point has its largest noise variance
            sigma2 = osnr_to_sigma2(self.osnr_start_db)
            # the detectors' surrogate covariance must stay finite there; its
            # noise-only term 8*sigma2^2, a dark slot's, is what overflows
            gaussian_stats_dims123(0j, 0j, sigma2)
        except ValueError as err:
            raise ValueError(f"osnr_start_db: {err}") from None
        if self.symbols_per_block < 2:
            raise ValueError("symbols_per_block must be at least 2")
        if self.blocks < 1:
            raise ValueError("blocks must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.receiver_variant not in ("full", "reduced"):
            raise ValueError("receiver_variant must be 'full' or 'reduced'")
        if self.channel_mode not in ("true", "estimated"):
            raise ValueError("channel_mode must be 'true' or 'estimated'")
        if self.training_repeats < 1:
            raise ValueError("training_repeats must be positive")
        if self.detection_mode not in ("genie", "decision-directed"):
            raise ValueError("detection_mode must be 'genie' or 'decision-directed'")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.n_bins < 2:
            raise ValueError("n_bins must be at least 2")
        if self.n_phases * self.n_bins**2 > MAX_HISTOGRAM_CELLS:
            raise ValueError(f"n_bins: n_phases * n_bins^2 exceeds {MAX_HISTOGRAM_CELLS} histogram cells")
        if self.n_channels < 1:
            raise ValueError("n_channels must be positive")
        if self.experiment == "rate" and self.n_samples < self.n_channels:
            raise ValueError("n_samples must be at least n_channels for a rate sweep")
        if self.rate_context not in ("genie", "decision-directed"):
            raise ValueError("rate_context must be 'genie' or 'decision-directed'")
        if self.n_rings**2 * self.n_phases > MAX_HYPOTHESES:
            raise ValueError(
                f"n_rings/n_phases: n_rings^2 * n_phases exceeds {MAX_HYPOTHESES} per-slot hypotheses"
            )
        if self.workers < 1:
            raise ValueError("workers must be positive")

    def _check_grid_bounds(self) -> None:
        for name in ("osnr_start_db", "osnr_stop_db", "osnr_step_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.osnr_step_db <= 0:
            raise ValueError("osnr_step_db must be positive")
        # count the points before building the list, which a tiny step would
        # grow until memory runs out; the quotient is inf, not an error, when
        # the step is subnormal
        span = (self.osnr_stop_db + _GRID_TOL - self.osnr_start_db) / self.osnr_step_db
        if span >= MAX_OSNR_POINTS:
            raise ValueError(
                "osnr_start_db/osnr_stop_db/osnr_step_db define more than "
                f"{MAX_OSNR_POINTS} grid points"
            )

    def osnr_grid(self) -> list[float]:
        self._check_grid_bounds()  # also when validate() was not called
        grid = []
        k = 0
        # generate by index to avoid accumulating float steps
        while True:
            value = self.osnr_start_db + k * self.osnr_step_db
            if value > self.osnr_stop_db + _GRID_TOL:
                break
            grid.append(value)
            k += 1
        return grid

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def replaced(self, **overrides) -> "ExperimentConfig":
        return dataclasses.replace(self, **overrides)
