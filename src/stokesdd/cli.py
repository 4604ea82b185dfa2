"""Command-line entry point: ser / rate sweeps and a channel-estimation demo."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import CHOICES, SEED_ENV_VAR, ExperimentConfig
from .experiments import (
    channel_estimation_demo,
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


def _out_path(args: argparse.Namespace) -> str:
    """The sweep's CSV path, checked before the sweep runs: ``--out``, or
    ``<command>.csv``, must name a file in an existing directory."""
    out = args.out or f"{args.command}.csv"
    if os.path.isdir(out):
        raise ValueError(f"--out: {out!r} is a directory")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"--out: no directory {os.path.dirname(out)!r}")
    return out


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--out", help="output CSV path (default <experiment>.csv)")
    parser.add_argument(
        "--plot-script",
        action="store_true",
        help="also emit a standalone matplotlib script next to the CSV",
    )
    for name, typ in _OVERRIDES:
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ, dest=name, choices=CHOICES.get(name))


def _build_config(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    """The config of the flags, merged over the ``--config`` file's fields,
    if any, and checked once as a whole."""
    overrides = {"experiment": experiment}
    for name, _ in _OVERRIDES:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if not args.config:
        if "seed" not in overrides:
            overrides["seed"] = _env_seed(ExperimentConfig.seed)
        return ExperimentConfig(**overrides)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_json(fh.read(), **overrides)
    except (OSError, ValueError) as err:  # JSON syntax errors are ValueErrors
        raise ValueError(f"--config: {err}") from None


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

    p = sub.add_parser("estimate-channel-demo", help="training-based channel estimation demo")
    p.add_argument("--osnr-db", type=float, default=20.0)
    p.add_argument("--repeats", type=int, default=10_000)
    p.add_argument("--seed", type=_seed, default=None)

    args = parser.parse_args(argv)

    # a bad value exits through parser.error, naming its flag or variable; the
    # floors of the demo inputs live in the library function
    try:
        if args.command in ("ser", "rate"):
            cfg = _build_config(args, args.command)
            out = _out_path(args)
        else:
            seed = args.seed if args.seed is not None else _env_seed(0)
            report = channel_estimation_demo(args.osnr_db, args.repeats, seed)
    except ValueError as err:
        parser.error(str(err))

    if args.command in ("ser", "rate"):
        rows = run_ser_experiment(cfg) if args.command == "ser" else run_rate_experiment(cfg)
        write_csv(rows, out)
        print(f"wrote {out} ({len(rows) - 1} rows)")
        if args.plot_script:
            print("wrote", emit_plot_script(out))
        return 0

    for key, value in report.items():
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
