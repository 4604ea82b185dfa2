"""Command-line entry point: ser / rate sweeps, the covariance calibration
oracle, and a channel-estimation demo."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import SEED_ENV_VAR, ExperimentConfig
from .experiments import (
    channel_estimation_demo,
    covariance_calibration,
    emit_plot_script,
    run_rate_experiment,
    run_ser_experiment,
    write_csv,
)

# one --kebab-case flag per config field but the experiment, which the
# subcommand names; the annotations are strings here, so each flag's type is
# read off the field's default
_OVERRIDES = tuple(
    (field.name, type(field.default))
    for field in dataclasses.fields(ExperimentConfig)
    if field.name != "experiment"
)


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer. It raises
    ArgumentTypeError, so argparse's error names the flag."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _env_seed(default: int) -> int:
    """The seed set by the environment variable, or ``default`` when it is unset."""
    text = os.environ.get(SEED_ENV_VAR)
    if text is None:
        return default
    try:
        return _seed(text)
    except argparse.ArgumentTypeError as err:
        raise ValueError(f"{SEED_ENV_VAR} {err}") from None


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--out", help="output CSV path (default <experiment>.csv)")
    parser.add_argument(
        "--plot-script",
        action="store_true",
        help="also emit a standalone matplotlib script next to the CSV",
    )
    for name, typ in _OVERRIDES:
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ, dest=name)


def _build_config(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    if args.config:
        try:
            cfg = ExperimentConfig.from_file(args.config)
        except (OSError, ValueError) as err:  # JSON syntax errors are ValueErrors
            raise ValueError(f"--config: {err}") from None
    else:
        cfg = ExperimentConfig()
    overrides = {"experiment": experiment}
    for name, _ in _OVERRIDES:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if "seed" not in overrides and not args.config:
        overrides["seed"] = _env_seed(cfg.seed)
    cfg = cfg.replaced(**overrides)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stokesdd",
        description="Dual-polarization direct-detection link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in (
        ("ser", "per-dimension symbol-error-rate sweep"),
        ("rate", "inter-slot phase achievable-rate sweep"),
    ):
        p = sub.add_parser(name, help=desc)
        _add_experiment_args(p)

    p = sub.add_parser("calibrate-cov", help="Monte Carlo check of the closed-form statistics")
    p.add_argument("--configs", type=int, default=100)
    p.add_argument("--draws", type=int, default=1_000_000)
    p.add_argument("--seed", type=_seed, default=None)

    p = sub.add_parser("estimate-channel-demo", help="training-based channel estimation demo")
    p.add_argument("--osnr-db", type=float, default=20.0)
    p.add_argument("--repeats", type=int, default=10_000)
    p.add_argument("--seed", type=_seed, default=None)

    args = parser.parse_args(argv)

    # a bad value exits through parser.error, naming its flag or variable; the
    # floors of the calibration and demo inputs live in the library functions
    try:
        if args.command in ("ser", "rate"):
            cfg = _build_config(args, args.command)
        else:
            seed = args.seed if args.seed is not None else _env_seed(0)
            if args.command == "calibrate-cov":
                cal = covariance_calibration(args.configs, args.draws, seed)
            else:
                report = channel_estimation_demo(args.osnr_db, args.repeats, seed)
    except ValueError as err:
        parser.error(str(err))

    if args.command in ("ser", "rate"):
        rows = run_ser_experiment(cfg) if args.command == "ser" else run_rate_experiment(cfg)
        out = args.out or f"{args.command}.csv"
        write_csv(rows, out)
        print(f"wrote {out} ({len(rows) - 1} rows)")
        if args.plot_script:
            print("wrote", emit_plot_script(out, args.command))
        return 0

    if args.command == "calibrate-cov":
        print(
            f"configs={cal.n_configs} draws={cal.n_draws}\n"
            f"max relative deviation, per-slot mean:  {cal.max_rel_dev_mean_123:.5f}\n"
            f"max relative deviation, per-slot cov:   {cal.max_rel_dev_cov_123:.5f}\n"
            f"max relative deviation, delayed mean:   {cal.max_rel_dev_mean_4:.5f}\n"
            f"max relative deviation, delayed cov:    {cal.max_rel_dev_cov_4:.5f}\n"
            f"worst: {cal.worst:.5f}"
        )
        return 0

    for key, value in report.items():
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
