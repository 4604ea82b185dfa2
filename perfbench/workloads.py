"""Benchmark workloads and the output checks run on every sweep they produce.

Each workload is one `ExperimentConfig`, minus the seed, which the benchmark
takes as an argument. The checks read only the CSV rows a sweep returns, so
they hold whatever the program does inside.
"""

from __future__ import annotations

import math

SER_COLUMNS = ("osnr_db", "dim", "ser", "trials", "mode")
RATE_COLUMNS = ("osnr_db", "mi_bits", "n_samples", "n_bins")


# ExperimentConfig fields of each workload; the seed comes from the command line.
# Why each one is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "ser-16psk": dict(
        experiment="ser",
        n_rings=4,
        n_phases=16,
        symbols_per_block=10_000,
        blocks=1,
        workers=1,
    ),
    "ser-est-pool": dict(
        experiment="ser",
        channel_mode="estimated",
        receiver_variant="reduced",
        symbols_per_block=10_000,
        blocks=4,
        workers=2,
    ),
    "rate-genie": dict(experiment="rate", rate_context="genie", n_samples=600_000),
}


def slot_evals(cfg) -> int:
    """Data slots times OSNR points of one sweep; training pilots excluded.

    SER: every slot of every block (slot 0 included: it goes through the
    per-slot detector like the rest). Rate: the samples the CSV reports.
    """
    points = len(cfg.osnr_grid())
    if cfg.experiment == "rate":
        return _rate_samples(cfg) * points
    return cfg.symbols_per_block * cfg.blocks * points


def _rate_samples(cfg) -> int:
    return -(-cfg.n_samples // cfg.n_channels) * cfg.n_channels


def _table(rows, columns):
    """Split CSV rows into fields; None when the header does not start with
    ``columns`` (extra trailing columns are allowed). Rows too short to hold
    every column are dropped, so the row-count check catches them."""
    header = rows[0].split(",") if rows else []
    if tuple(header[: len(columns)]) != columns:
        return None
    fields = [row.split(",") for row in rows[1:]]
    return [f for f in fields if len(f) >= len(columns)]


def _num(text) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _monotone(values) -> bool:
    # the rule of acceptance criterion 07: non-increasing along the grid
    return all(a >= b for a, b in zip(values, values[1:]))


def ser_checks(rows, cfg) -> dict:
    """Named pass/fail results for one SER CSV."""
    table = _table(rows, SER_COLUMNS)
    grid = cfg.osnr_grid()
    if table is None:
        return {"ser_header": False}
    n = cfg.symbols_per_block * cfg.blocks
    expected_trials = (n, n, n, n - cfg.blocks)
    shape_ok = len(table) == 4 * len(grid)
    layout_ok = shape_ok and all(
        _num(r[0]) == grid[k // 4] and r[1] == str(k % 4 + 1) and r[4] == cfg.detection_mode
        for k, r in enumerate(table)
    )
    trials_ok = layout_ok and all(
        _num(r[3]) == expected_trials[k % 4] for k, r in enumerate(table)
    )
    sers = [_num(r[2]) for r in table]
    range_ok = bool(sers) and all(0.0 <= s <= 1.0 for s in sers)
    monotone_ok = layout_ok and all(_monotone(sers[dim::4]) for dim in range(4))
    return {
        "ser_header": True,
        "ser_rows": layout_ok,
        "ser_trials": trials_ok,
        "ser_range": range_ok,
        "ser_monotone": monotone_ok,
    }


def rate_checks(rows, cfg) -> dict:
    """Named pass/fail results for one rate CSV."""
    table = _table(rows, RATE_COLUMNS)
    grid = cfg.osnr_grid()
    if table is None:
        return {"rate_header": False}
    layout_ok = len(table) == len(grid) and all(
        _num(r[0]) == g and _num(r[2]) == _rate_samples(cfg) and _num(r[3]) == cfg.n_bins
        for r, g in zip(table, grid)
    )
    top = math.log2(cfg.n_phases) + 1e-12
    bits = [_num(r[1]) for r in table]
    range_ok = bool(bits) and all(0.0 <= b <= top for b in bits)
    return {"rate_header": True, "rate_rows": layout_ok, "rate_range": range_ok}


def output_checks(rows, cfg) -> dict:
    return rate_checks(rows, cfg) if cfg.experiment == "rate" else ser_checks(rows, cfg)
