"""End-to-end run modes tying state generation, detection and analysis.

Each mode writes its output files into a directory together with a run
manifest.  For a given (config, seed) every output byte is reproducible;
the manifest's timestamp is the only field excluded from that guarantee.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from hashlib import sha256
from pathlib import Path

import numpy as np

from . import __version__
from .bell import analytic_chsh, chsh_from_counts, chsh_quad, correlation_from_counts
from .config import ExperimentConfig, config_hash
from .detection import simulate_counts, simulate_tomography_dataset
from .errors import ConfigError
from .fileio import (
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
    MIN_RESAMPLES,
    bootstrap_errors,
    linear_inversion,
    mle_reconstruct,
    mle_reconstruct_batch,
)

DEFAULT_SWEEP_GRID_US = (0.8, 2.0, 4.0, 6.0, 8.0, 10.0)


@dataclass
class RunManifest:
    config_hash: str
    tool_version: str
    seed: int
    created_utc: str
    outputs: list[dict] = field(default_factory=list)

    def add(self, path: Path) -> None:
        digest = sha256(path.read_bytes()).hexdigest()
        self.outputs.append({"path": path.name, "sha256": digest})

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "manifest.json"
        write_json(
            path,
            {
                "config_hash": self.config_hash,
                "tool_version": self.tool_version,
                "seed": self.seed,
                "created_utc": self.created_utc,
                "outputs": sorted(self.outputs, key=lambda x: x["path"]),
            },
        )
        return path


def _new_manifest(cfg: ExperimentConfig) -> RunManifest:
    return RunManifest(
        config_hash=config_hash(cfg),
        tool_version=__version__,
        seed=cfg.seed,
        created_utc=datetime.now(timezone.utc).isoformat(),
    )


def _prepare_out(out_dir) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_simulate(cfg: ExperimentConfig, out_dir) -> dict:
    """Simulate coincidence counts at every configured setting."""
    out = _prepare_out(out_dir)
    manifest = _new_manifest(cfg)
    rho = final_state(cfg.noise, cfg.dt_us)
    records = [
        simulate_counts(rho, s, cfg.n_sequences, cfg.detector, derive_seed(cfg.seed, i))
        for i, s in enumerate(cfg.settings)
    ]
    counts_path = out / "counts.csv"
    write_counts_csv(counts_path, records)
    manifest.add(counts_path)
    manifest.write(out)
    return {"counts": str(counts_path), "records": records}


def run_bell(cfg: ExperimentConfig, out_dir) -> dict:
    """Full Bell-test pipeline: state, counts at 4 settings, CHSH JSON."""
    out = _prepare_out(out_dir)
    manifest = _new_manifest(cfg)
    quad = chsh_quad(cfg.settings)
    if quad is None:
        raise ConfigError("bell mode needs 4 settings, one per cell of a 2x2 (alpha, beta) grid")
    rho = final_state(cfg.noise, cfg.dt_us)
    records = [
        simulate_counts(rho, s, cfg.n_sequences, cfg.detector, derive_seed(cfg.seed, i))
        for i, s in enumerate(cfg.settings)
    ]
    counts_path = out / "counts.csv"
    write_counts_csv(counts_path, records)
    manifest.add(counts_path)

    result = chsh_from_counts(records, quad)
    payload = bell_payload(result, records)
    payload["analytic_S"] = analytic_chsh(rho, quad).s_value
    bell_path = out / "bell.json"
    write_json(bell_path, payload)
    manifest.add(bell_path)
    manifest.write(out)
    return {"bell": str(bell_path), "result": result}


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


def _reconstruct(dataset, method: str):
    if method == "mle":
        return mle_reconstruct(dataset)
    if method == "linear":
        return linear_inversion(dataset)
    raise ConfigError(f"unknown reconstruction method {method!r}")


def run_tomo(
    cfg: ExperimentConfig,
    out_dir,
    method: str = "mle",
    bootstrap: int = 0,
    dataset=None,
) -> dict:
    """Nine-basis tomography pipeline ending in a reconstruction report.

    ``dataset`` may carry pre-recorded counts (e.g. read from CSV); when
    omitted the dataset is simulated from the configured state.
    ``bootstrap`` is 0 (none) or at least MIN_RESAMPLES.
    """
    if bootstrap < 0 or 0 < bootstrap < MIN_RESAMPLES:
        raise ConfigError(
            f"bootstrap must be 0 or at least {MIN_RESAMPLES} resamples, got {bootstrap!r}"
        )
    out = _prepare_out(out_dir)
    manifest = _new_manifest(cfg)
    if dataset is None:
        rho_true = final_state(cfg.noise, cfg.dt_us)
        dataset = simulate_tomography_dataset(
            rho_true, cfg.n_sequences, cfg.detector, derive_seed(cfg.seed, 1000)
        )
        data_path = out / "tomography.csv"
        write_tomography_csv(data_path, dataset)
        manifest.add(data_path)

    fit = _reconstruct(dataset, method)
    payload = {
        "rho": fit.rho.to_json_dict(),
        "reconstruction": {
            "method": fit.method,
            "log_likelihood": fit.log_likelihood,
            "iterations": fit.iterations,
            "converged": fit.converged,
            "min_eigenvalue": fit.min_eigenvalue,
            "psd_ok": fit.psd_ok,
            "certificate_gap": fit.certificate_gap,
        },
    }
    if fit.psd_ok:
        payload["metrics"] = asdict(report(fit.rho))
    if bootstrap:
        payload["bootstrap"] = asdict(
            bootstrap_errors(dataset, bootstrap, derive_seed(cfg.seed, 2000))
        )
    result_path = out / "reconstruction.json"
    write_json(result_path, payload)
    manifest.add(result_path)
    manifest.write(out)
    return {"reconstruction": str(result_path), "fit": fit, "payload": payload}


def run_sweep(
    cfg: ExperimentConfig,
    out_dir,
    dt_grid_us=DEFAULT_SWEEP_GRID_US,
) -> dict:
    """Tomography over a storage-time grid followed by the lifetime fit.

    One ``mle_reconstruct_batch`` call fits every storage time.  ``converged``
    lists, per storage time, whether its reconstruction met the certificate.
    """
    out = _prepare_out(out_dir)
    manifest = _new_manifest(cfg)
    datasets = [
        simulate_tomography_dataset(
            final_state(cfg.noise, dt_us),
            cfg.n_sequences,
            cfg.detector,
            derive_seed(cfg.seed, 3000 + i),
        )
        for i, dt_us in enumerate(dt_grid_us)
    ]
    fits = mle_reconstruct_batch(datasets)
    dts = np.array(dt_grid_us, dtype=float)
    values, _ = log_negativity(np.array([fit.rho.matrix for fit in fits]))

    series_path = out / "sweep_series.csv"
    write_series_csv(series_path, [(dt, value, "N", None) for dt, value in zip(dts, values)])
    manifest.add(series_path)

    life = fit_lifetime(dts, values, kind="N")
    fit_path = out / "lifetime_fit.json"
    write_json(fit_path, lifetime_payload(life))
    manifest.add(fit_path)
    manifest.write(out)
    return {
        "series": str(series_path),
        "fit_file": str(fit_path),
        "fit": life,
        "converged": [fit.converged for fit in fits],
    }


def lifetime_payload(life) -> dict:
    return {
        "n0": life.n0,
        "tau_e_us": life.tau_e_us,
        "cov": [[float(x) for x in row] for row in life.covariance],
        "residual_rms": life.residual_rms,
        "converged": life.converged,
    }


def run_rates(cfg: ExperimentConfig, out_dir) -> dict:
    """Rate budget JSON plus a plain-text table."""
    out = _prepare_out(out_dir)
    manifest = _new_manifest(cfg)
    rep = rate_budget(cfg.efficiency, cfg.detector)
    rates_path = out / "rates.json"
    write_json(rates_path, asdict(rep))
    manifest.add(rates_path)
    manifest.write(out)
    table = "\n".join(
        [
            f"{'pair detection probability':<30} {rep.p_pair_detect:.3e}",
            f"{'pairs produced per second':<30} {rep.pairs_produced_per_s:.1f}",
            f"{'pairs detected per second':<30} {rep.pairs_detected_per_s:.1f}",
        ]
    )
    return {"rates": str(rates_path), "report": rep, "table": table}
