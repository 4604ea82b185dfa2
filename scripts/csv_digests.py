#!/usr/bin/env python3
"""Print the sha256 of the SER and rate CSVs of the standing config set.

The set covers the default SER sweep in genie, reduced-front-end and
estimated-channel modes, and with the estimated channel and the reduced
front-end together (the path of the benchmark's pool workload); the 4x16 and
3x8 alphabets at 0-60 dB, the 1x2 alphabet at -10 to 30 dB, one 40,000-slot
4x16 block (its complex temporaries are 640 KiB, past the 256 KiB from which
numpy reuses a temporary in place), and the genie and decision-directed rate
sweeps (default and 3x8), and the genie rate sweep at 600,000 samples (the
benchmark's rate workload, 30,000 slots per channel), each at seeds 0, 1 and
7: 39 digests.  Compare its output before and after a change to see which CSV
bytes moved.  Takes no options; run from the root of a checkout with
``PYTHONPATH=src`` (about 7 s on two cores).
"""

import hashlib
import os
import tempfile

from stokesdd.config import ExperimentConfig
from stokesdd.experiments import run_rate_experiment, run_ser_experiment, write_csv

SEEDS = (0, 1, 7)

CONFIGS = {
    "ser-default": {},
    "ser-genie": {"detection_mode": "genie"},
    "ser-reduced": {"receiver_variant": "reduced"},
    "ser-estimated": {"channel_mode": "estimated"},
    "ser-est-reduced": {"channel_mode": "estimated", "receiver_variant": "reduced"},
    "ser-4x16-0-60": {"n_rings": 4, "n_phases": 16, "blocks": 2,
                      "osnr_start_db": 0.0, "osnr_stop_db": 60.0, "osnr_step_db": 10.0},
    "ser-3x8-0-60": {"n_rings": 3, "n_phases": 8, "blocks": 2,
                     "osnr_start_db": 0.0, "osnr_stop_db": 60.0, "osnr_step_db": 10.0},
    "ser-1x2-m10-30": {"n_rings": 1, "n_phases": 2, "blocks": 2,
                       "osnr_start_db": -10.0, "osnr_stop_db": 30.0, "osnr_step_db": 10.0},
    "ser-4x16-40k": {"n_rings": 4, "n_phases": 16, "symbols_per_block": 40_000, "blocks": 1},
    "rate-genie": {"experiment": "rate"},
    "rate-genie-600k": {"experiment": "rate", "n_samples": 600_000},
    "rate-dd": {"experiment": "rate", "rate_context": "decision-directed"},
    "rate-dd-3x8": {"experiment": "rate", "rate_context": "decision-directed",
                    "n_rings": 3, "n_phases": 8, "n_samples": 30_000},
}


def csv_sha256(cfg: ExperimentConfig) -> str:
    run = run_rate_experiment if cfg.experiment == "rate" else run_ser_experiment
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write_csv(run(cfg), path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def main():
    for name, fields in CONFIGS.items():
        for seed in SEEDS:
            print(f"{name} seed={seed} {csv_sha256(ExperimentConfig(seed=seed, **fields))}", flush=True)


if __name__ == "__main__":
    main()
