"""Run modes: each computes its results, then writes them into a run
directory with ``write_run``.

Every run directory holds its output files and a ``manifest.json``.  For a
given (config, seed) every output byte is reproducible; the manifest's
timestamp is the only field excluded from that guarantee.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from datetime import datetime, timezone
from hashlib import sha256
from pathlib import Path

import numpy as np

from . import __version__
from .bell import analytic_chsh, chsh_from_counts, chsh_quad, correlation_from_counts
from .config import ExperimentConfig, config_hash
from .detection import setting_probabilities, simulate_counts, simulate_tomography_dataset
from .errors import ConfigError, DataError
from .fileio import (
    read_counts_csv,
    read_density_matrix_json,
    read_series_csv,
    read_tomography_csv,
    write_counts_csv,
    write_json,
    write_series_csv,
    write_tomography_csv,
)
from .lifetime import fit_lifetime
from .measures import log_negativity, report
from .protocol import final_state, rate_budget
from .rng import derive_seed
from .tomography import (
    MAX_RESAMPLES,
    MIN_RESAMPLES,
    bootstrap_errors,
    linear_inversion,
    mle_reconstruct,
    mle_reconstruct_batch,
)

DEFAULT_SWEEP_GRID_US = (0.8, 2.0, 4.0, 6.0, 8.0, 10.0)


def _entry(label: str, data: bytes) -> dict:
    return {"path": label, "sha256": sha256(data).hexdigest()}


def _check_manifest(out: Path, names) -> None:
    """ConfigError when ``out`` holds a manifest that does not parse or that
    lists an output other than ``names``, so another run's manifest stays."""
    path = out / "manifest.json"
    if not path.exists():
        return
    try:
        listed = [entry["path"] for entry in json.loads(path.read_text())["outputs"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path} is not a run manifest: {exc!r}") from exc
    others = [name for name in listed if name not in names]
    if others:
        raise ConfigError(f"{out} holds the outputs {others} of another run")


def write_run(out_dir, cfg: ExperimentConfig | None, outputs, inputs=()) -> dict[str, str]:
    """Make ``out_dir``, write each output into it, then ``manifest.json``.

    ``outputs`` holds (file name, fileio writer, data) triples and ``inputs``
    the paths of the data files the run read, recorded as absolute paths.
    ``cfg`` is None where no config was read; the manifest's ``config_hash``
    and ``seed`` are then null.  ``_check_manifest`` runs before anything is
    created.  The old manifest goes before any output is replaced, so a
    write that fails leaves no manifest listing bytes that are no longer on
    disk.  Each output is hashed from the bytes its writer returns.  An
    ``OSError`` from making the directory or writing a file is raised as a
    ``ConfigError`` naming the path.  Returns the path of each output by
    file name.
    """
    out = Path(out_dir)
    paths = {name: out / name for name, _, _ in outputs}
    _check_manifest(out, paths)
    read = [_entry(str(Path(path).resolve()), Path(path).read_bytes()) for path in inputs]
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").unlink(missing_ok=True)
        written = {name: writer(paths[name], data) for name, writer, data in outputs}
        write_json(
            out / "manifest.json",
            {
                "config_hash": None if cfg is None else config_hash(cfg),
                "tool_version": __version__,
                "seed": None if cfg is None else cfg.seed,
                "created_utc": datetime.now(timezone.utc).isoformat(),
                "outputs": [_entry(name, written[name]) for name in sorted(written)],
                "inputs": read,
            },
        )
    except OSError as exc:
        raise ConfigError(f"cannot write the run directory {out}: {exc}") from exc
    return {name: str(path) for name, path in paths.items()}


def _json_float(x):
    """``x``, or None (JSON null) when it is None or not finite."""
    return x if x is not None and math.isfinite(x) else None


def _simulated_counts(cfg: ExperimentConfig):
    """The configured state and its counts: all settings' p in one call, then a draw each."""
    rho = final_state(cfg.noise, cfg.dt_us)
    probs = setting_probabilities(rho, cfg.settings, cfg.detector)
    return rho, [
        simulate_counts(p, s, cfg.n_sequences, derive_seed(cfg.seed, i))
        for i, (p, s) in enumerate(zip(probs, cfg.settings))
    ]


def run_simulate(cfg: ExperimentConfig, out_dir) -> dict:
    """Simulate coincidence counts at every configured setting."""
    _, records = _simulated_counts(cfg)
    paths = write_run(out_dir, cfg, [("counts.csv", write_counts_csv, records)])
    return {"counts": paths["counts.csv"], "records": records}


def run_bell(cfg: ExperimentConfig, out_dir) -> dict:
    """Full Bell-test pipeline: state, counts at 4 settings, CHSH JSON."""
    quad = chsh_quad(cfg.settings)
    if quad is None:
        raise ConfigError("bell mode needs 4 settings, one per cell of a 2x2 (alpha, beta) grid")
    rho, records = _simulated_counts(cfg)
    result = chsh_from_counts(records, quad)
    payload = bell_payload(result, records)
    payload["analytic_S"] = analytic_chsh(rho, quad).s_value
    paths = write_run(
        out_dir,
        cfg,
        [("counts.csv", write_counts_csv, records), ("bell.json", write_json, payload)],
    )
    return {"bell": paths["bell.json"], "result": result}


def run_bell_data(data, out_dir) -> dict:
    """CHSH test on a recorded counts CSV; reads no config."""
    records = read_counts_csv(data)
    quad = chsh_quad([r.setting for r in records])
    if quad is None:
        raise DataError(f"{data}: counts need one record per setting of a 2x2 grid")
    result = chsh_from_counts(records, quad)
    outputs = [("bell.json", write_json, bell_payload(result, records))]
    paths = write_run(out_dir, None, outputs, inputs=[data])
    return {"bell": paths["bell.json"], "result": result}


def bell_payload(result, records) -> dict:
    return {
        "S": result.s_value,
        "std_err": result.std_err,
        "settings": list(result.settings),
        "E_values": [
            {
                "alpha_deg": rec.setting.alpha_deg,
                "beta_deg": rec.setting.beta_deg,
                "E": corr.value,
                "std_err": corr.std_err,
                "n": int(rec.total),
            }
            for rec, corr in zip(records, map(correlation_from_counts, records))
        ],
    }


def run_tomo(
    cfg: ExperimentConfig,
    out_dir,
    method: str = "mle",
    bootstrap: int = 0,
    data=None,
) -> dict:
    """Nine-basis tomography pipeline ending in a reconstruction report.

    ``data`` may name a recorded tomography CSV; when omitted the dataset is
    simulated from the configured state and written as ``tomography.csv``.
    ``bootstrap`` is 0 (none) or from MIN_RESAMPLES to MAX_RESAMPLES, and needs
    ``method="mle"``: every resample is refit by MLE.
    """
    if method not in ("mle", "linear"):
        raise ConfigError(f"unknown reconstruction method {method!r}")
    if bootstrap and not MIN_RESAMPLES <= bootstrap <= MAX_RESAMPLES:
        raise ConfigError(
            f"bootstrap must be 0 or at least {MIN_RESAMPLES} and at most {MAX_RESAMPLES}"
            f" resamples, got {bootstrap!r}"
        )
    if bootstrap and method != "mle":
        raise ConfigError(f"bootstrap resamples are refit by MLE; method {method!r} has none")
    outputs = []
    if data is None:
        rho_true = final_state(cfg.noise, cfg.dt_us)
        dataset = simulate_tomography_dataset(
            rho_true, cfg.n_sequences, cfg.detector, derive_seed(cfg.seed, 1000)
        )
        outputs.append(("tomography.csv", write_tomography_csv, dataset))
    else:
        dataset = read_tomography_csv(data)

    fit = mle_reconstruct(dataset.counts) if method == "mle" else linear_inversion(dataset.counts)
    gap = _json_float(fit.certificate_gap)
    reconstruction = {**vars(fit), "psd_ok": fit.psd_ok, "certificate_gap": gap}
    payload = {"rho": reconstruction.pop("rho").to_json_dict(), "reconstruction": reconstruction}
    if fit.psd_ok:
        payload["metrics"] = asdict(report(fit.rho))
    if bootstrap:
        payload["bootstrap"] = asdict(
            bootstrap_errors(dataset.counts, fit.rho, bootstrap, derive_seed(cfg.seed, 2000))
        )
    outputs.append(("reconstruction.json", write_json, payload))
    paths = write_run(out_dir, cfg, outputs, inputs=[] if data is None else [data])
    return {"reconstruction": paths["reconstruction.json"], "fit": fit, "payload": payload}


def run_sweep(
    cfg: ExperimentConfig,
    out_dir,
    dt_grid_us=DEFAULT_SWEEP_GRID_US,
) -> dict:
    """Tomography over a storage-time grid followed by the lifetime fit.

    One ``simulate_tomography_dataset`` call simulates every storage time
    and one ``mle_reconstruct_batch`` call fits them.  ``converged``
    lists, per storage time, whether its reconstruction met the certificate.
    """
    states = np.array([final_state(cfg.noise, dt_us).matrix for dt_us in dt_grid_us])
    seeds = [derive_seed(cfg.seed, 3000 + i) for i in range(len(states))]
    dataset = simulate_tomography_dataset(states, cfg.n_sequences, cfg.detector, seeds)
    fits = mle_reconstruct_batch(dataset.counts)
    dts = np.array(dt_grid_us, dtype=float)
    values, _ = log_negativity(np.array([fit.rho.matrix for fit in fits]))
    life = fit_lifetime(dts, values, kind="N")
    series = [(dt, value, "N", None) for dt, value in zip(dts, values)]
    paths = write_run(
        out_dir,
        cfg,
        [
            ("sweep_series.csv", write_series_csv, series),
            ("lifetime_fit.json", write_json, lifetime_payload(life)),
        ],
    )
    return {
        "series": paths["sweep_series.csv"],
        "fit_file": paths["lifetime_fit.json"],
        "fit": life,
        "converged": [fit.converged for fit in fits],
    }


def lifetime_payload(life) -> dict:
    return {
        "n0": life.n0,
        "tau_e_us": life.tau_e_us,
        "cov": [[_json_float(float(x)) for x in row] for row in life.covariance],
        "residual_rms": life.residual_rms,
        "converged": life.converged,
    }


def run_fit(series, out_dir=None) -> dict:
    """Lifetime fit of a recorded series CSV; returns the fit's JSON payload
    and, when ``out_dir`` is given, also writes it as ``lifetime_fit.json``."""
    dts, values, kinds, sigma = read_series_csv(series)
    payload = lifetime_payload(fit_lifetime(dts, values, kind=kinds, sigma=sigma))
    if out_dir is not None:
        write_run(out_dir, None, [("lifetime_fit.json", write_json, payload)], inputs=[series])
    return payload


def run_measures(state, out_dir=None) -> dict:
    """Entanglement report of a density-matrix JSON; returns it and, when
    ``out_dir`` is given, also writes it as ``measures.json``."""
    payload = asdict(report(read_density_matrix_json(state)))
    if out_dir is not None:
        write_run(out_dir, None, [("measures.json", write_json, payload)], inputs=[state])
    return payload


def run_rates(cfg: ExperimentConfig, out_dir) -> dict:
    """Rate budget JSON plus a plain-text table."""
    rep = rate_budget(cfg.efficiency, cfg.detector)
    paths = write_run(out_dir, cfg, [("rates.json", write_json, asdict(rep))])
    table = "\n".join(
        [
            f"{'pair detection probability':<30} {rep.p_pair_detect:.3e}",
            f"{'pairs produced per second':<30} {rep.pairs_produced_per_s:.1f}",
            f"{'pairs detected per second':<30} {rep.pairs_detected_per_s:.1f}",
        ]
    )
    return {"rates": paths["rates.json"], "report": rep, "table": table}
