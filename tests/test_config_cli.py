"""Configuration loading, manifests, output determinism, and exit codes."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ces
from ces import cli
from ces.config import (
    config_from_dict,
    config_hash,
    load_config,
    save_config,
)
from ces.errors import ConfigError
from ces.pipeline import run_bell, run_rates, run_tomo
from ces.tomography import GAP_TOL


class TestLoadConfig:
    def test_empty_object_yields_published_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg.noise.v0 == pytest.approx(0.804)
        assert cfg.noise.tau_e_us == pytest.approx(5.7)
        assert cfg.noise.eta_pump == pytest.approx(0.8)
        assert cfg.efficiency.p_photon1 == pytest.approx(0.086)
        assert cfg.detector.eta_det == pytest.approx(0.2)
        assert cfg.efficiency.rep_rate_khz == pytest.approx(50.0)
        assert cfg.dt_us == pytest.approx(0.8)

    def test_out_of_range_names_field_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"noise": {"v0": 1.5}}')
        with pytest.raises(ConfigError, match="noise.v0"):
            load_config(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="wobble"):
            config_from_dict({"wobble": 1})
        with pytest.raises(ConfigError, match="detector"):
            config_from_dict({"detector": {"gain": 2.0}})

    def test_round_trip_identity_on_canonical_form(self, tmp_path):
        cfg = config_from_dict({"noise": {"v0": 0.5}, "dt_us": 1.25, "seed": 99})
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        again = load_config(path)
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    @pytest.mark.parametrize(
        ("text", "path"),
        [
            ('{"dt_us": NaN}', "dt_us"),
            ('{"dt_us": Infinity}', "dt_us"),
            ('{"noise": {"v0": NaN}}', "noise.v0"),
        ],
    )
    def test_non_finite_number_names_field_path(self, tmp_path, text, path):
        # Python's json module accepts NaN and Infinity literals.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: expected a finite number")):
            load_config(cfg)

    def test_removed_efficiency_eta_det_is_rejected(self):
        # The detector efficiency lives in detector.eta_det only.
        with pytest.raises(ConfigError, match="efficiency: unknown key 'eta_det'"):
            config_from_dict({"efficiency": {"eta_det": 0.2}})

    def test_validator_error_is_prefixed_with_section(self):
        with pytest.raises(ConfigError, match=re.escape("detector.window_fraction must be")):
            config_from_dict({"detector": {"window_fraction": 0.0}})

    def test_seed_validation(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": -1})
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": 2**64})

    def test_hash_stable_across_processes(self):
        cfg = config_from_dict({})
        # Canonical form is fully deterministic, so the digest is a constant
        # for the shipped defaults; guard against accidental format drift.
        assert config_hash(cfg) == config_hash(config_from_dict({}))


def _fast_cfg(seed=7, n=20_000):
    return config_from_dict(
        {
            "noise": {"v0": 1.0, "p_white": 0.0, "eta_pump": 1.0},
            "detector": {"eta_det": 1.0},
            "dt_us": 0.0,
            "seed": seed,
            "n_sequences": n,
        }
    )


class TestPipelineDeterminism:
    def test_bell_outputs_byte_identical(self, tmp_path):
        cfg = _fast_cfg()
        out1 = run_bell(cfg, tmp_path / "a")
        out2 = run_bell(cfg, tmp_path / "b")
        for name in ("counts.csv", "bell.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
        m1.pop("created_utc")
        m2.pop("created_utc")
        assert m1 == m2
        assert out1["result"].s_value == out2["result"].s_value

    def test_manifest_covers_every_output(self, tmp_path):
        run_tomo(_fast_cfg(n=5_000), tmp_path, method="mle")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        listed = {entry["path"] for entry in manifest["outputs"]}
        produced = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
        assert listed == produced
        import hashlib

        for entry in manifest["outputs"]:
            digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_manifest_hash_matches_config(self, tmp_path):
        cfg = _fast_cfg()
        run_rates(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["seed"] == cfg.seed


class TestCliExitCodes:
    def test_rates_ok(self, tmp_path, capsys):
        code = cli.main(["rates", "--out", str(tmp_path)])
        assert code == 0
        assert "pairs produced per second" in capsys.readouterr().out

    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"noise": {"v0": 7}}')
        code = cli.main(["rates", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "noise.v0" in capsys.readouterr().err

    def test_removed_efficiency_eta_det_is_2(self, tmp_path, capsys):
        bad = tmp_path / "old.json"
        bad.write_text('{"efficiency": {"eta_det": 0.2}}')
        code = cli.main(["rates", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "efficiency" in err and "eta_det" in err
        assert not (tmp_path / "o").exists()

    def test_rates_read_detector_efficiency(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"detector": {"eta_det": 0.5}}')
        assert cli.main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rates = json.loads((tmp_path / "o" / "rates.json").read_text())
        eff = load_config(cfg).efficiency
        assert rates["p_pair_detect"] == pytest.approx(
            eff.p_photon1 * eff.p_photon2 * 0.25, rel=1e-12
        )

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--trials", "0"]])
    def test_bad_seed_or_trials_flag_is_2(self, tmp_path, capsys, flags):
        code = cli.main(["simulate", "--out", str(tmp_path / "o"), *flags])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_non_finite_dt_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dt_us": NaN, "n_sequences": 1000}')
        assert cli.main(["tomo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("grid", ["-1,2,4", "nan,2,4", "inf,2,4"])
    def test_bad_dt_grid_is_2(self, tmp_path, capsys, grid):
        code = cli.main(
            ["sweep", "--trials", "2000", f"--dt-grid={grid}", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "--dt-grid[0]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid", ["2,4", "1,1,1", "0,0,0"])
    def test_dt_grid_without_two_distinct_times_is_2(self, tmp_path, capsys, grid):
        code = cli.main(
            ["sweep", "--trials", "2000", f"--dt-grid={grid}", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "--dt-grid needs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_max_iter_below_one_is_2(self, tmp_path, capsys, cap):
        code = cli.main(
            ["tomo", "--trials", "2000", "--max-iter", cap, "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "max_iter" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_data_error_is_3(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("dt_us,value,kind,sigma\n0.8,0.4,N,\n2.0,0.35,N,\n")
        code = cli.main(["fit", str(series)])
        assert code == 3

    @pytest.mark.parametrize(
        ("column", "row"),
        [("dt_us", "nan,0.3,N,0.01"), ("value", "4.0,inf,N,0.01"), ("sigma", "4.0,0.3,N,nan")],
    )
    def test_non_finite_series_is_3(self, tmp_path, capsys, column, row):
        series = tmp_path / "series.csv"
        series.write_text(f"dt_us,value,kind,sigma\n0.8,0.4,N,0.01\n2.0,0.35,N,0.01\n{row}\n")
        assert cli.main(["fit", str(series)]) == 3
        assert column in capsys.readouterr().err

    def test_missing_input_file_is_3(self, tmp_path):
        assert cli.main(["fit", str(tmp_path / "missing.csv")]) == 3
        assert cli.main(["bell", "--data", str(tmp_path / "missing.csv")]) == 3
        assert cli.main(["tomo", "--data", str(tmp_path / "missing.csv")]) == 3

    def test_non_convergence_is_4(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "noise": {"v0": 0.9, "eta_pump": 1.0},
                    "detector": {"eta_det": 1.0},
                    "seed": 3,
                    "n_sequences": 2000,
                }
            )
        )
        code = cli.main(
            [
                "tomo",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "o"),
                "--max-iter",
                "1",
            ]
        )
        assert code == 4
        # Outputs are still written for inspection.
        assert (tmp_path / "o" / "reconstruction.json").exists()
        fit = json.loads((tmp_path / "o" / "reconstruction.json").read_text())["reconstruction"]
        assert fit["iterations"] == 1 and not fit["converged"]
        assert fit["certificate_gap"] > 0.0

    def test_low_count_bootstrap_certifies_every_resample(self, tmp_path):
        # Resample 84 of this run has an interior optimum behind a boundary
        # start: RrhoR alone needs 24 007 steps, past the 10 000-step cap.
        config = Path(__file__).resolve().parents[1] / "configs" / "calibrated.json"
        out = tmp_path / "o"
        code = cli.main(
            ["tomo", "--config", str(config), "--seed", "4242", "--trials", "20000",
             "--bootstrap", "100", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "reconstruction.json").read_text())
        assert payload["bootstrap"]["n_failed"] == 0

    def test_sweep_point_missing_the_certificate_is_4(self, tmp_path, capsys, monkeypatch):
        from ces import pipeline, tomography

        real_fit = tomography._fit
        calls = []

        def second_point_unconverged(projectors, counts, max_iter):
            calls.append(counts)
            rho, iterations, gap = real_fit(projectors, counts, max_iter)
            if len(calls) % 3 == 2:
                gap[:] = np.inf
            return rho, iterations, gap

        monkeypatch.setattr(tomography, "_fit", second_point_unconverged)
        out = pipeline.run_sweep(_fast_cfg(), tmp_path / "run", dt_grid_us=(0.8, 2.0, 4.0))
        assert out["converged"] == [True, False, True]

        code = cli.main(["sweep", "--trials", "20000", "--dt-grid", "0.8,2,4",
                         "--out", str(tmp_path / "o")])
        assert code == 4
        assert "dt_us = [2.0]" in capsys.readouterr().err
        lines = (tmp_path / "o" / "sweep_series.csv").read_text().splitlines()
        assert lines[0] == "dt_us,value,kind,sigma" and len(lines) == 4
        for name in ("lifetime_fit.json", "manifest.json"):
            assert (tmp_path / "o" / name).exists()

    def test_fit_without_decay_is_4(self, tmp_path):
        series = tmp_path / "series.csv"
        rows = "".join(f"{dt},{0.1 + 0.01 * dt!r},N,\n" for dt in (0.8, 2.0, 4.0, 6.0))
        series.write_text("dt_us,value,kind,sigma\n" + rows)
        assert cli.main(["fit", str(series), "--out", str(tmp_path / "o")]) == 4
        payload = json.loads((tmp_path / "o" / "lifetime_fit.json").read_text())
        assert payload["converged"] is False

    def test_bell_from_counts_csv(self, tmp_path, capsys):
        cfg = _fast_cfg()
        run_bell(cfg, tmp_path / "sim")
        code = cli.main(
            ["bell", "--data", str(tmp_path / "sim" / "counts.csv"), "--out", str(tmp_path / "an")]
        )
        assert code == 0
        assert (tmp_path / "an" / "bell.json").exists()
        payload = json.loads((tmp_path / "an" / "bell.json").read_text())
        assert payload["S"] == pytest.approx(
            json.loads((tmp_path / "sim" / "bell.json").read_text())["S"]
        )

    @pytest.mark.parametrize("rows", [slice(0, 3), [0, 1, 2, 3, 3]])
    def test_bell_csv_without_one_record_per_setting_is_3(self, tmp_path, capsys, rows):
        run_bell(_fast_cfg(), tmp_path / "sim")
        header, *records = (tmp_path / "sim" / "counts.csv").read_text().splitlines()
        csv_path = tmp_path / "counts.csv"
        picked = records[rows] if isinstance(rows, slice) else [records[i] for i in rows]
        csv_path.write_text("\n".join([header, *picked]) + "\n")
        code = cli.main(["bell", "--data", str(csv_path), "--out", str(tmp_path / "an")])
        assert code == 3
        assert str(csv_path) in capsys.readouterr().err
        assert not (tmp_path / "an" / "bell.json").exists()

    def test_log_negativity_overflow_is_3(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("dt_us,value,kind,sigma\n0.8,2000,EN,\n2,0.3,EN,\n4,0.2,EN,\n6,0.1,EN,\n")
        assert cli.main(["fit", str(series), "--out", str(tmp_path / "o")]) == 3
        assert "value" in capsys.readouterr().err
        assert not (tmp_path / "o" / "lifetime_fit.json").exists()

    def test_measures_subcommand(self, tmp_path, capsys):
        from ces.fileio import write_json
        from ces.qcore import DensityMatrix, SINGLET_KET

        state = tmp_path / "state.json"
        write_json(state, DensityMatrix.from_ket(SINGLET_KET).to_json_dict())
        code = cli.main(["measures", str(state)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fidelity_singlet"] == pytest.approx(1.0, abs=1e-9)

    def test_fit_subcommand(self, tmp_path, capsys):
        rows = ["dt_us,value,kind,sigma"]
        for dt in (0.8, 2.0, 4.0, 6.0, 8.0, 10.0):
            rows.append(f"{dt},{float(0.42 * np.exp(-(dt / 5.7) ** 2))!r},N,")
        series = tmp_path / "series.csv"
        series.write_text("\n".join(rows) + "\n")
        code = cli.main(["fit", str(series)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau_e_us"] == pytest.approx(5.7, rel=1e-5)

    def test_trials_and_seed_overrides(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main(
            ["simulate", "--out", str(out), "--trials", "5000", "--seed", "11"]
        )
        assert code == 0
        text = (out / "counts.csv").read_text()
        rows = text.strip().splitlines()[1:]
        totals = [sum(int(x) for x in r.split(",")[2:7]) for r in rows]
        assert all(t == 5000 for t in totals)

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "noise": {"v0": 0.9, "tau_e_us": 5.7, "eta_pump": 1.0},
                    "detector": {"eta_det": 1.0},
                    "seed": 5,
                    "n_sequences": 30000,
                }
            )
        )
        out = tmp_path / "o"
        code = cli.main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--dt-grid",
                "0.8,3,6,9",
            ]
        )
        assert code == 0
        payload = json.loads((out / "lifetime_fit.json").read_text())
        assert payload["tau_e_us"] == pytest.approx(5.7, abs=0.6)
        assert (out / "sweep_series.csv").exists()

    def test_tomo_csv_with_unknown_basis_label_is_data_error(self, tmp_path):
        from ces.detection import DetectorParams, simulate_tomography_dataset
        from ces.errors import DataError
        from ces.fileio import read_tomography_csv, write_tomography_csv
        from ces.tomography import linear_inversion
        from conftest import singlet_dm

        ds = simulate_tomography_dataset(singlet_dm(), 1_000, DetectorParams(), seed=79)
        _, basis_b, rec = ds.records[0]
        bad = dataclasses.replace(ds, records=(("XY", basis_b, rec),) + ds.records[1:])
        csv_path = tmp_path / "tomography.csv"
        write_tomography_csv(csv_path, bad)
        with pytest.raises(DataError, match="unknown basis"):
            linear_inversion(read_tomography_csv(csv_path))
        code = cli.main(
            ["tomo", "--data", str(csv_path), "--method", "linear", "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_tomo_from_recorded_csv(self, tmp_path):
        from ces.detection import DetectorParams, simulate_tomography_dataset
        from ces.fileio import read_tomography_csv, write_tomography_csv
        from conftest import dephased_singlet

        ds = simulate_tomography_dataset(
            dephased_singlet(0.8), 30_000, DetectorParams(), seed=77
        )
        csv_path = tmp_path / "tomography.csv"
        write_tomography_csv(csv_path, ds)
        again = read_tomography_csv(csv_path)
        assert again.basis_pairs() == ds.basis_pairs()
        assert [r.counts().tolist() for _, _, r in again.records] == [
            r.counts().tolist() for _, _, r in ds.records
        ]

        out = tmp_path / "o"
        code = cli.main(["tomo", "--data", str(csv_path), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "reconstruction.json").read_text())
        assert payload["metrics"]["concurrence"] == pytest.approx(0.8, abs=0.03)
        gap = payload["reconstruction"]["certificate_gap"]
        assert 0.0 <= gap <= GAP_TOL * ds.total_coincidences()

        code = cli.main(["tomo", "--data", str(csv_path), "--method", "linear", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "reconstruction.json").read_text())
        assert payload["reconstruction"]["certificate_gap"] is None


_SERIES_CSV = "dt_us,value,kind,sigma\n0.8,0.39,N,\n2.0,0.35,N,\n4.0,0.23,N,\n6.0,0.08,N,\n"


@pytest.mark.parametrize(
    "statement",
    [
        "pass",
        "ces.measures.report(ces.qcore.DensityMatrix.from_ket(ces.qcore.SINGLET_KET))",
        "ces.pipeline.run_tomo(ces.config.config_from_dict(dict(n_sequences=20000)), "
        "out, bootstrap=100)",
        "assert ces.pipeline.run_sweep(ces.config.config_from_dict(dict(n_sequences=20000)), "
        "out)['fit'].converged",
        f"import pathlib; p = out + '/series.csv'; pathlib.Path(p).write_text({_SERIES_CSV!r}); "
        "assert ces.cli.main(['fit', p]) == 0",
    ],
    ids=["import", "measures_report", "tomo_bootstrap", "sweep", "fit"],
)
def test_run_modes_load_no_scipy(statement, tmp_path):
    # numpy is the only runtime dependency: starting any command, and
    # running ces measures, a tomography with its bootstrap, a sweep or a
    # lifetime fit, must load no scipy module.
    src = str(Path(ces.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        f"import sys, ces, ces.cli; out = {str(tmp_path)!r}; {statement}; "
        "sys.exit(any(m.partition('.')[0] == 'scipy' for m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert result.returncode == 0
