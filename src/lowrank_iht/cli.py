"""Command-line front end for the experiment drivers.

Exit codes: 0 success, 2 bad configuration or flags (including a config
file that is missing, unreadable, not JSON, or not a JSON object, under every
subcommand), 3 numerical failure inside a run, 4 I/O problems around the
output directory, including a metrics.csv that ``report`` cannot parse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import ConfigError, ExperimentConfig, reaggregate, run_experiment
from .linalg import SvdConvergenceError
from .sparse import AssumptionViolationError

_COMMAND_MODE = {
    "simulate-matrix": "matrix_sim",
    "simulate-quantum": "quantum",
    "simulate-sparse": "sparse",
}

_DEFAULT_GRIDS = {
    "matrix_sim": {
        "d_values": [16], "k_values": [2], "n_values": [1500, 3000],
        "replicates": 8, "level": 0.90,
    },
    "quantum": {
        "m_values": [3], "k_values": [1], "alpha_values": [2, 5],
        "t_factors": [10], "replicates": 5,
    },
    "sparse": {
        "p_values": [100], "k_values": [3], "n_values": [400],
        "replicates": 10,
    },
}


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config; keys mirror ExperimentConfig fields")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="master seed (overrides config)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides config output_dir)")
    parser.add_argument("--workers", type=int, metavar="N",
                        help="parallel replicate workers (overrides config)")
    parser.add_argument("--replicates", type=int, metavar="N",
                        help="replicates per grid cell (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowrank-iht",
        description="Hard-thresholding estimators for low-rank trace regression, "
                    "with tomography and sparse-vector simulation grids.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMAND_MODE:
        p = sub.add_parser(command, help=f"run the {_COMMAND_MODE[command]} grid")
        _add_common_flags(p)
    rep = sub.add_parser("report", help="recompute aggregate.csv from metrics.csv")
    rep.add_argument("--config", metavar="PATH", help="JSON config naming output_dir")
    rep.add_argument("--out", metavar="DIR", help="directory holding metrics.csv")
    return parser


def _read_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _load_config(args, mode: str) -> ExperimentConfig:
    if args.config is not None:
        data = _read_config(args.config)
        if data.get("mode", mode) != mode:
            raise ConfigError(
                f"config mode {data.get('mode')!r} does not match subcommand {mode!r}")
        data["mode"] = mode
    else:
        data = {"mode": mode, **_DEFAULT_GRIDS[mode]}
    if args.out is not None:
        data["output_dir"] = args.out
    for flag in ("seed", "workers", "replicates"):
        value = getattr(args, flag)
        if value is not None:
            data[flag] = value
    if "output_dir" not in data:
        raise ConfigError("no output directory: pass --out or set output_dir in the config")
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            out_dir = args.out
            if out_dir is None and args.config is not None:
                out_dir = _read_config(args.config).get("output_dir")
            if not out_dir:
                raise ConfigError("report needs --out or a config with output_dir")
            try:
                path = reaggregate(os.path.join(out_dir, "metrics.csv"),
                                   os.path.join(out_dir, "aggregate.csv"))
            except ValueError as exc:  # a metrics.csv that does not parse
                raise OSError(str(exc)) from exc
            print(f"wrote {path}")
            return 0
        config = _load_config(args, _COMMAND_MODE[args.command])
        paths = run_experiment(config)
        for name in sorted(paths):
            print(f"wrote {paths[name]}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except (SvdConvergenceError, AssumptionViolationError, ArithmeticError,
            ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
