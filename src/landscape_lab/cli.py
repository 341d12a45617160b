"""Command-line front end.

Grammar:

    landscape-lab <experiment> [--n N] [--k K] [--r R] [--m M[,M...]]
                  [--trials T] [--seed S] [--grid min:max:points]
                  [--out path] [--format csv|json] [--samples S]
                  [--epsilon E] [--eta E] [--radius R] [--n_probes P]
                  [--rank_bound B] [--family pr|ms] [--config path]

A config file holds flat ``key=value`` lines (``#`` starts a comment). Its
keys are ``experiment`` and the flag names without the leading dashes. The
file's entries become the parser's defaults, so a file value is typed as
the flag's value is, and a flag given on the command line overrides it.
A key given twice in the file, a key the experiment does not read (see
``experiments.SETTINGS``), or an M list for an experiment that takes one M,
is an invalid configuration.

Exit codes: 0 success, 2 verification failure, 3 invalid configuration
(errors.ConfigError), 4 numerical failure (errors.NumericalFailure, and
numpy's LinAlgError and FloatingPointError).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import experiments
from .errors import ConfigError, InvalidConfig, NumericalFailure

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 2
EXIT_INVALID_CONFIG = 3
EXIT_NUMERICAL_FAILURE = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; that slot is taken."""

    def error(self, message):
        raise InvalidConfig(message)


def parse_m(text: str):
    parts = [p.strip() for p in str(text).split(",")]
    if not parts or any(not p for p in parts):
        raise InvalidConfig(f"bad measurement list {text!r}; use --m 50 or --m 50,400")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise InvalidConfig(f"bad measurement list {text!r}") from None


def parse_grid(text: str):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise InvalidConfig(f"bad grid {text!r}; use min:max:points")
    try:
        return (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError:
        raise InvalidConfig(f"bad grid {text!r}") from None


def load_config_file(path: str, keys) -> dict:
    """Read ``key=value`` lines; every key must be one of ``keys``, once."""
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise InvalidConfig(f"{path}:{lineno}: unknown config key {key!r}")
        if key in entries:
            raise InvalidConfig(f"{path}:{lineno}: config key {key!r} given twice")
        if not value:
            raise InvalidConfig(f"{path}:{lineno}: empty value for {key!r}")
        entries[key] = value
    return entries


def _glue_dash_values(argv):
    """Join ``--grid -2:2:81`` into ``--grid=-2:2:81`` so argparse does not
    mistake a negative grid minimum for an option."""
    out = []
    i = 0
    argv = list(argv)
    while i < len(argv):
        token = argv[i]
        if token in ("--grid", "--m") and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def build_config(argv) -> experiments.ExperimentConfig:
    argv = _glue_dash_values(argv)
    parser = _Parser(
        prog="landscape-lab",
        description="Landscape experiments and verification suites.",
    )
    parser.add_argument("experiment", nargs="?", choices=experiments.EXPERIMENTS)
    parser.add_argument("--n", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--r", type=int)
    parser.add_argument("--m", type=parse_m, default=())
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--grid", type=parse_grid)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--samples", type=int)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--eta", type=float)
    parser.add_argument("--radius", type=float)
    parser.add_argument("--n_probes", type=int)
    parser.add_argument("--rank_bound", type=int)
    parser.add_argument("--family")
    parser.add_argument("--config")
    args = vars(parser.parse_args(argv))
    if args["config"]:
        # argparse types string defaults as it types flag values
        keys = args.keys() - {"config"}
        parser.set_defaults(**load_config_file(args["config"], keys))
        args = vars(parser.parse_args(argv))
    del args["config"]
    if args["experiment"] is None:
        raise InvalidConfig("no experiment named on the command line or in the config file")
    return experiments.ExperimentConfig(
        master_seed=args.pop("seed"), fmt=args.pop("format"), **args
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        # an overflow or invalid value reaches the user as exit 4 through
        # the NonFiniteEntry checks, not as numpy's RuntimeWarning lines
        with np.errstate(over="ignore", invalid="ignore"):
            config = build_config(argv)
            outcome = experiments.run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    # numpy's own failures are numerical too: eigh, svd or qr failing to
    # converge, and floating-point errors under an error state that raises
    except (NumericalFailure, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    for path in outcome.paths:
        print(f"wrote {path}")
    print(json.dumps(outcome.summary, sort_keys=True))
    return EXIT_OK if outcome.ok else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
