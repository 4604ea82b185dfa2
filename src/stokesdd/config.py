"""Experiment configuration: a frozen flat dataclass with JSON round-tripping.

A config checks itself when it is built, directly, by ``replaced()`` or by
``from_json()``, so every ``ExperimentConfig`` that exists is valid and its
callers need not check it again.  ``CHOICES`` and ``MINIMA`` state each
string and integer field's domain; ``validate()`` adds the float fields' and
the cross-field bounds."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

SEED_ENV_VAR = "STOKESDD_SEED"

# largest OSNR grid a config may define; the repo's own sweeps use at most 11
MAX_OSNR_POINTS = 10_000

# largest rate histogram, n_phases * n_bins^2 cells at ~25 bytes each (~400
# MiB): 2048 bins at 4 phases; the repo's own sweeps use at most 32,768
MAX_HISTOGRAM_CELLS = 2**24

# most per-slot hypotheses H = n_rings^2 * n_phases: the receiver scores a
# frame in slices of detection.score_slice_rows(H) slots, so its (slice, H)
# score block stays within 2^16 float64 cells (512 KiB) at any frame length
# and any H up to this cap, where a slice is 8 slots; the repo's own sweeps
# use at most 256 (4 rings x 16 phases)
MAX_HYPOTHESES = 2**13

# longest frame a sweep may draw: an SER block of symbols_per_block slots, or
# a rate channel's ceil(n_samples / n_channels) + 1 slots.  Peak RSS grows by
# ~280 bytes per slot (SER) and ~360 (decision-directed rate), so a frame at
# the cap peaks near 1.1 and 1.4 GiB per process; a much longer one ends in
# numpy's allocation error, or gets the process killed
MAX_FRAME_SLOTS = 2**22

# lowest OSNR a grid may start at.  Below about -30 dB every SER sits at
# chance and the plug-in rate at its sampling bias, so nothing lower changes an
# output; at -100 dB (sigma2 = 2.5e9) every product of observables the
# detector forms is hundreds of decades inside the float range
MIN_OSNR_DB = -100.0

# a grid point this far past osnr_stop_db still belongs to the grid
_GRID_TOL = 1e-9

# the values of each string field; the CLI's flags list them
CHOICES = {
    "experiment": ("ser", "rate"),
    "receiver_variant": ("full", "reduced"),
    "channel_mode": ("true", "estimated"),
    "detection_mode": ("genie", "decision-directed"),
    "rate_context": ("genie", "decision-directed"),  # conditioning of the rate estimate
}

# the least value of each integer field
MINIMA = dict(
    n_rings=1, n_phases=1, symbols_per_block=2, blocks=1, seed=0,
    training_repeats=1, n_samples=1, n_bins=2, n_channels=1, workers=1,
)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "ser"
    n_rings: int = 2
    n_phases: int = 4
    osnr_start_db: float = 10.0
    osnr_stop_db: float = 26.0
    osnr_step_db: float = 2.0
    symbols_per_block: int = 10_000
    blocks: int = 10
    seed: int = 0
    receiver_variant: str = "full"
    channel_mode: str = "true"
    training_repeats: int = 10_000
    detection_mode: str = "decision-directed"
    n_samples: int = 200_000  # rate experiment
    n_bins: int = 32
    n_channels: int = 20
    rate_context: str = "genie"
    workers: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise a ValueError naming the first field out of its domain."""
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
        for name, values in CHOICES.items():
            if getattr(self, name) not in values:
                raise ValueError(f"{name} must be one of {values}, got {getattr(self, name)!r}")
        for name, least in MINIMA.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
        for name in ("osnr_start_db", "osnr_stop_db", "osnr_step_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.osnr_step_db <= 0:
            raise ValueError("osnr_step_db must be positive")
        # count the points before any list is built, which a tiny step would
        # grow until memory runs out; the quotient is inf, not an error, when
        # the step is subnormal
        span = (self.osnr_stop_db + _GRID_TOL - self.osnr_start_db) / self.osnr_step_db
        if span >= MAX_OSNR_POINTS:
            raise ValueError(
                "osnr_start_db/osnr_stop_db/osnr_step_db define more than "
                f"{MAX_OSNR_POINTS} grid points"
            )
        if self.osnr_start_db > self.osnr_stop_db + _GRID_TOL:  # osnr_grid()'s first test
            raise ValueError("osnr_start_db/osnr_stop_db define an empty grid")
        # the grid's lowest point has its largest noise variance
        if self.osnr_start_db < MIN_OSNR_DB:
            raise ValueError(
                f"osnr_start_db: {self.osnr_start_db!r} dB is below {MIN_OSNR_DB!r} dB, the OSNR floor"
            )
        if self.symbols_per_block > MAX_FRAME_SLOTS:
            raise ValueError(f"symbols_per_block exceeds {MAX_FRAME_SLOTS} slots per frame")
        if self.n_phases * self.n_bins**2 > MAX_HISTOGRAM_CELLS:
            raise ValueError(f"n_bins: n_phases * n_bins^2 exceeds {MAX_HISTOGRAM_CELLS} histogram cells")
        if self.experiment == "rate" and self.n_samples < self.n_channels:
            raise ValueError("n_samples must be at least n_channels for a rate sweep")
        if self.experiment == "rate" and -(-self.n_samples // self.n_channels) + 1 > MAX_FRAME_SLOTS:
            raise ValueError(
                f"n_samples/n_channels: ceil(n_samples / n_channels) + 1 exceeds {MAX_FRAME_SLOTS} slots per frame"
            )
        if self.n_rings**2 * self.n_phases > MAX_HYPOTHESES:
            raise ValueError(
                f"n_rings/n_phases: n_rings^2 * n_phases exceeds {MAX_HYPOTHESES} per-slot hypotheses"
            )

    def osnr_grid(self) -> list[float]:
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
    def from_json(cls, text: str, **overrides) -> "ExperimentConfig":
        """The config of a JSON object's fields, each of ``overrides`` in
        place of the object's, checked once as a whole."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**{**data, **overrides})

    def replaced(self, **overrides) -> "ExperimentConfig":
        return dataclasses.replace(self, **overrides)
