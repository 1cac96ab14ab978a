"""The three benchmark workloads: inputs, run-mode call, failures and checks.

Each workload builds its config from a shipped config in ``configs/`` and
the workload seed, runs one public run mode of ``ces.pipeline`` into a
directory, and checks the files written there against ``oracles``.  A
check returns a list of failure messages; an empty list means it held.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles

#: Detector of the bell workload: every branch of the detection chain runs.
BELL_DETECTOR = {
    "eta_det": 0.2,
    "dark_rate": 0.05,
    "window_fraction": 0.8,
    "late_emission_error": 0.1,
}
#: Sequences per setting: about three seconds of detection per run_bell call.
BELL_SEQUENCES = 4_000_000
BOOTSTRAP_RESAMPLES = 200
SWEEP_GRID_US = (0.8, 2.0, 4.0, 6.0, 8.0, 10.0)

#: Standard errors allowed between a Monte-Carlo figure and its closed form.
SIGMAS = 5.0
#: Sweep lifetime fit: its covariance comes from the residuals of six points
#: (4 degrees of freedom) and can be small by chance, so the allowed distance
#: is SIGMAS fitted standard errors but never less than this share of the
#: configured value (seed-to-seed spread: about 1 % for tau_e, 0.6 % for N0).
LIFETIME_FLOOR = 0.05
#: Sweep negativity points: about 6x the largest seed-to-seed standard
#: deviation of one point (0.004, at 6 us) seen over twelve seeds.
NEGATIVITY_TOL = 0.025


def _near(failures, label, value, expected, tol):
    if not abs(value - expected) <= tol:
        failures.append(f"{label} = {value!r}, expected {expected!r} +/- {tol:.3g}")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _require(condition: bool, message: str) -> None:
    """Guard the assumptions the closed forms rest on (shipped config values)."""
    if not condition:
        raise ValueError(f"benchmark input out of the oracles' range: {message}")


def _calibrated(root: Path) -> dict:
    cfg = _read_json(root / "configs" / "calibrated.json")
    noise = cfg["noise"]
    _require(noise["v0"] == 1.0 and noise["eta_pump"] == 1.0 and cfg["dt_us"] == 0.0,
             "calibrated.json must be a Werner state at dt = 0")
    return cfg


class Bell:
    name = "bell"
    ops_per_call = 4  # detection settings

    @staticmethod
    def config(root: Path, seed: int) -> dict:
        cfg = _calibrated(root)
        alpha, alpha_p, beta, beta_p = oracles.CHSH_QUAD
        cfg.update(
            detector=dict(BELL_DETECTOR),
            n_sequences=BELL_SEQUENCES,
            settings=[[a, b] for a in (alpha, alpha_p) for b in (beta, beta_p)],
            seed=seed,
        )
        return cfg

    @staticmethod
    def run(pipeline, cfg, out: Path) -> None:
        pipeline.run_bell(cfg, out)

    @staticmethod
    def failed(out: Path) -> int:
        return sum(1 for e in _read_json(out / "bell.json")["E_values"] if e["n"] == 0)

    @staticmethod
    def check(out: Path, cfg: dict) -> list[str]:
        failures: list[str] = []
        det = cfg["detector"]
        p_white = cfg["noise"]["p_white"]
        fraction = oracles.coincidence_fraction(det["window_fraction"], det["eta_det"])
        e = {}
        for row in _read_csv(out / "counts.csv"):
            cells = [int(row[k]) for k in ("n_uu", "n_ud", "n_du", "n_dd")]
            n = sum(cells) + int(row["n_discarded"])
            setting = (float(row["alpha_deg"]), float(row["beta_deg"]))
            if n != cfg["n_sequences"]:
                failures.append(f"setting {setting}: {n} sequences, configured {cfg['n_sequences']}")
            _near(failures, f"coincidence fraction at {setting}", sum(cells) / n, fraction,
                  SIGMAS * math.sqrt(fraction * (1.0 - fraction) / n))
            e[setting] = (cells[0] + cells[3] - cells[1] - cells[2]) / sum(cells)

        alpha, alpha_p, beta, beta_p = (x % 180.0 for x in oracles.CHSH_QUAD)
        s_counts = (abs(e[alpha_p, beta_p] - e[alpha, beta_p])
                    + abs(e[alpha_p, beta] + e[alpha, beta]))
        bell = _read_json(out / "bell.json")
        s = bell["S"]
        _near(failures, "S against counts.csv", s, s_counts, 1e-12)
        _near(failures, "S", s,
              oracles.chsh_werner(p_white, det["dark_rate"], det["late_emission_error"],
                                  det["window_fraction"]),
              SIGMAS * bell["std_err"])
        if not 2.0 < s <= oracles.TSIRELSON:
            failures.append(f"S = {s} outside (2, 2 sqrt 2]")
        _near(failures, "analytic_S", bell["analytic_S"],
              oracles.TSIRELSON * (1.0 - p_white), 1e-9)
        return failures


class TomoBootstrap:
    name = "tomo_bootstrap"
    ops_per_call = 9 + 1 + BOOTSTRAP_RESAMPLES  # settings, MLE fit, resamples

    @staticmethod
    def config(root: Path, seed: int) -> dict:
        return dict(_calibrated(root), seed=seed)

    @staticmethod
    def run(pipeline, cfg, out: Path) -> None:
        pipeline.run_tomo(cfg, out, method="mle", bootstrap=BOOTSTRAP_RESAMPLES)

    @staticmethod
    def failed(out: Path) -> int:
        payload = _read_json(out / "reconstruction.json")
        return payload["bootstrap"]["n_failed"] + int(not payload["reconstruction"]["converged"])

    @staticmethod
    def check(out: Path, cfg: dict) -> list[str]:
        failures: list[str] = []
        payload = _read_json(out / "reconstruction.json")
        rho_json = payload["rho"]
        rho = (np.array(rho_json["re"]) + 1j * np.array(rho_json["im"])).reshape(4, 4)
        _near(failures, "max |rho - rho^dag|", float(np.abs(rho - rho.conj().T).max()), 0.0, 1e-10)
        _near(failures, "tr rho", float(np.real(np.trace(rho))), 1.0, 1e-10)
        min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
        if min_eig < -1e-9:
            failures.append(f"rho has eigenvalue {min_eig}")

        metrics, boot = payload["metrics"], payload["bootstrap"]
        fidelity = oracles.singlet_fidelity(rho)
        _near(failures, "fidelity_singlet against rho", metrics["fidelity_singlet"], fidelity, 1e-9)
        _near(failures, "fidelity_singlet", fidelity,
              oracles.werner_fidelity(cfg["noise"]["p_white"]), SIGMAS * boot["sigma_fidelity"])
        _near(failures, "s_max", metrics["s_max"], oracles.s_max(rho), 1e-9)
        if boot["n_resamples"] != BOOTSTRAP_RESAMPLES:
            failures.append(f"bootstrap ran {boot['n_resamples']} resamples")
        return failures


class Sweep:
    name = "sweep"
    ops_per_call = len(SWEEP_GRID_US) * (9 + 1) + 1  # settings and fit per point, lifetime fit

    @staticmethod
    def config(root: Path, seed: int) -> dict:
        cfg = _read_json(root / "configs" / "sweep.json")
        noise = cfg["noise"]
        _require(noise["p_white"] == 0.0 and noise["eta_pump"] == 1.0,
                 "sweep.json must be pure dephasing")
        return dict(cfg, seed=seed)

    @staticmethod
    def run(pipeline, cfg, out: Path) -> None:
        pipeline.run_sweep(cfg, out, dt_grid_us=SWEEP_GRID_US)

    @staticmethod
    def failed(out: Path) -> int:
        return int(not _read_json(out / "lifetime_fit.json")["converged"])

    @staticmethod
    def check(out: Path, cfg: dict) -> list[str]:
        failures: list[str] = []
        noise = cfg["noise"]
        rows = _read_csv(out / "sweep_series.csv")
        dts = tuple(float(r["dt_us"]) for r in rows)
        if dts != SWEEP_GRID_US:
            failures.append(f"sweep grid {dts}, expected {SWEEP_GRID_US}")
        for row in rows:
            dt = float(row["dt_us"])
            expected = oracles.coherence(noise["v0"], noise["tau_e_us"], dt) / 2.0
            _near(failures, f"negativity at {dt} us", float(row["value"]), expected, NEGATIVITY_TOL)

        fit = _read_json(out / "lifetime_fit.json")
        sigma_n0, sigma_tau = (math.sqrt(max(fit["cov"][i][i], 0.0)) for i in range(2))
        n0 = noise["v0"] / 2.0
        _near(failures, "tau_e_us", fit["tau_e_us"], noise["tau_e_us"],
              max(SIGMAS * sigma_tau, LIFETIME_FLOOR * noise["tau_e_us"]))
        _near(failures, "n0", fit["n0"], n0, max(SIGMAS * sigma_n0, LIFETIME_FLOOR * n0))
        return failures


WORKLOADS = {w.name: w for w in (Bell, TomoBootstrap, Sweep)}
