"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 data/validation error,
4 analysis did not converge.
"""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, config_from_dict, load_config, storage_time
from .errors import ConfigError, DataError, DimensionError, ValidationError
from .fileio import json_text
from .pipeline import (
    DEFAULT_SWEEP_GRID_US,
    run_bell,
    run_bell_data,
    run_fit,
    run_measures,
    run_rates,
    run_simulate,
    run_sweep,
    run_tomo,
)
from .tomography import MAX_RESAMPLES, MIN_RESAMPLES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NO_CONVERGENCE = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config (defaults when omitted)")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    parser.add_argument(
        "--trials", type=int, metavar="N", help="override n_sequences from the config"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ces",
        description="Simulate and analyze the two-photon entanglement experiment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write coincidence counts for the configured settings")
    _add_common(p)

    p = sub.add_parser("bell", help="CHSH test (end-to-end, or from a counts CSV)")
    _add_common(p)
    p.add_argument("--data", metavar="CSV", help="analyze an existing counts CSV instead")

    p = sub.add_parser("tomo", help="nine-basis tomography and state reconstruction")
    _add_common(p)
    p.add_argument("--data", metavar="CSV", help="reconstruct from an existing tomography CSV")
    p.add_argument("--method", choices=["mle", "linear"], default="mle")
    p.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        metavar="N",
        help=f"bootstrap resamples: 0 (none) or {MIN_RESAMPLES} to {MAX_RESAMPLES}",
    )

    p = sub.add_parser("measures", help="entanglement report for a density-matrix JSON")
    p.add_argument("state", metavar="JSON", help="density matrix file")
    p.add_argument("--out", metavar="DIR", default=None, help="also write measures.json here")

    p = sub.add_parser("fit", help="Gaussian lifetime fit of a dt series CSV")
    p.add_argument("series", metavar="CSV", help="series file: dt_us,value,kind[,sigma]")
    p.add_argument("--out", metavar="DIR", default=None, help="also write lifetime_fit.json here")

    p = sub.add_parser("rates", help="efficiency and rate budget")
    _add_common(p)

    p = sub.add_parser("sweep", help="tomography over a storage-time grid plus lifetime fit")
    _add_common(p)
    p.add_argument(
        "--dt-grid",
        metavar="US[,US...]",
        default=",".join(str(x) for x in DEFAULT_SWEEP_GRID_US),
        help="comma-separated storage times in microseconds",
    )
    return parser


def _config_from_args(args) -> ExperimentConfig:
    data = load_config(args.config).to_dict()
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        data["n_sequences"] = args.trials
    return config_from_dict(data)


def _cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    out = run_simulate(cfg, args.out)
    print(f"wrote {out['counts']}")
    return EXIT_OK


def _cmd_bell(args) -> int:
    if args.data:
        out = run_bell_data(args.data, args.out)
    else:
        out = run_bell(_config_from_args(args), args.out)
    result = out["result"]
    print(f"S = {result.s_value:.4f} +/- {result.std_err:.4f} (wrote {out['bell']})")
    return EXIT_OK


def _cmd_tomo(args) -> int:
    cfg = _config_from_args(args)
    out = run_tomo(cfg, args.out, method=args.method, bootstrap=args.bootstrap, data=args.data)
    fit = out["fit"]
    line = f"method={fit.method} log_likelihood={fit.log_likelihood:.3f} converged={fit.converged}"
    if "metrics" in out["payload"]:
        line += f" F={out['payload']['metrics']['fidelity_singlet']:.4f}"
    print(line + f" (wrote {out['reconstruction']})")
    return EXIT_OK if fit.converged else EXIT_NO_CONVERGENCE


def _cmd_measures(args) -> int:
    print(json_text(run_measures(args.state, args.out)), end="")
    return EXIT_OK


def _cmd_fit(args) -> int:
    payload = run_fit(args.series, args.out)
    print(json_text(payload), end="")
    return EXIT_OK if payload["converged"] else EXIT_NO_CONVERGENCE


def _cmd_rates(args) -> int:
    cfg = _config_from_args(args)
    out = run_rates(cfg, args.out)
    print(out["table"])
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    try:
        values = [float(x) for x in args.dt_grid.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"--dt-grid: {exc}") from exc
    grid = tuple(storage_time(f"--dt-grid[{i}]", x) for i, x in enumerate(values))
    if len(grid) < 3 or len(set(grid)) < 2:
        raise ConfigError("--dt-grid needs at least 3 storage times, 2 of them distinct")
    out = run_sweep(cfg, args.out, dt_grid_us=grid)
    life = out["fit"]
    print(
        f"tau_e = {life.tau_e_us:.3f} us, n0 = {life.n0:.4f} "
        f"(wrote {out['fit_file']})"
    )
    missed = [dt for dt, ok in zip(grid, out["converged"]) if not ok]
    if missed:
        print(f"MLE missed the certificate at dt_us = {missed}", file=sys.stderr)
    return EXIT_OK if life.converged and not missed else EXIT_NO_CONVERGENCE


_HANDLERS = {
    "simulate": _cmd_simulate,
    "bell": _cmd_bell,
    "tomo": _cmd_tomo,
    "measures": _cmd_measures,
    "fit": _cmd_fit,
    "rates": _cmd_rates,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ValidationError, DimensionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
