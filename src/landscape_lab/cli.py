"""Command-line front end.

Grammar:

    landscape-lab <experiment> [--n N] [--k K] [--r R] [--m M[,M...]]
                  [--trials T] [--seed S] [--grid min:max:points]
                  [--out path] [--format csv|json] [--config path]

A config file holds flat ``key=value`` lines (``#`` starts a comment);
command-line flags override file entries. Keys beyond the flag set
(samples, epsilon, eta, radius, n_probes, rank_bound, family) are only
reachable through the file.

Exit codes: 0 success, 2 verification failure, 3 invalid configuration,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments, rng
from .errors import (
    DimensionMismatch,
    GramNotSPD,
    InvalidConfig,
    InvalidRank,
    InvalidSampleCount,
    NonFiniteEntry,
    NotHorizontal,
    NotSkew,
    SamplerStarved,
    ZeroTruthSignal,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 2
EXIT_INVALID_CONFIG = 3
EXIT_NUMERICAL_FAILURE = 4

_CONFIG_ERRORS = (
    InvalidConfig,
    InvalidRank,
    InvalidSampleCount,
    DimensionMismatch,
    ZeroTruthSignal,
)
_NUMERICAL_ERRORS = (
    NonFiniteEntry,
    GramNotSPD,
    NotSkew,
    NotHorizontal,
    SamplerStarved,
    FloatingPointError,
)

_INT_KEYS = ("n", "k", "r", "trials", "seed", "samples", "n_probes", "rank_bound")
_FLOAT_KEYS = ("epsilon", "eta", "radius")
_STR_KEYS = ("out", "format", "family")
_ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + _STR_KEYS + ("m", "grid", "experiment")


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


def load_config_file(path: str) -> dict:
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise InvalidConfig(f"{path}:{lineno}: unknown config key {key!r}")
        if not value:
            raise InvalidConfig(f"{path}:{lineno}: empty value for {key!r}")
        entries[key] = value
    return entries


def _coerce(key: str, value):
    if not isinstance(value, str):
        return value
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError:
        raise InvalidConfig(f"bad value {value!r} for {key}") from None
    if key == "m":
        return parse_m(value)
    if key == "grid":
        return parse_grid(value)
    return value


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
    parser = _Parser(
        prog="landscape-lab",
        description="Landscape experiments and verification suites.",
    )
    parser.add_argument("experiment", nargs="?", choices=experiments.EXPERIMENTS)
    parser.add_argument("--n", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--r", type=int)
    parser.add_argument("--m", type=parse_m)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--grid", type=parse_grid)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--config")
    args = parser.parse_args(_glue_dash_values(argv))

    merged = {}
    if args.config:
        merged.update(load_config_file(args.config))
    for key in ("experiment", "n", "k", "r", "m", "trials", "seed", "grid", "out", "format"):
        value = getattr(args, key)
        if value is not None:
            merged[key] = value

    experiment = merged.pop("experiment", None)
    if experiment is None:
        raise InvalidConfig("no experiment named on the command line or in the config file")
    coerced = {key: _coerce(key, value) for key, value in merged.items()}
    seed = coerced.pop("seed", None)
    fmt = coerced.pop("format", None)
    if fmt is None:
        fmt = "json" if experiment in experiments.VERIFICATION_EXPERIMENTS else "csv"
    return experiments.ExperimentConfig(
        experiment=experiment,
        master_seed=rng.resolve_master_seed(seed),
        fmt=fmt,
        **{key: coerced[key] for key in coerced if key != "experiment"},
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = build_config(argv)
        outcome = experiments.run(config)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    for path in outcome.paths:
        print(f"wrote {path}")
    print(json.dumps(outcome.summary, sort_keys=True))
    return EXIT_OK if outcome.ok else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
