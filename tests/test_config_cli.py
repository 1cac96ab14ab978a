"""Configuration loading, manifests, output determinism, and exit codes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ces
from ces import cli
from ces.config import config_from_dict, config_hash, load_config
from ces.errors import ConfigError
from ces.fileio import write_json
from ces.pipeline import run_bell, run_rates, run_tomo
from ces.tomography import GAP_TOL
from conftest import CONFIGS, HUGE_CELL_TABLE, zero_cell_table


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
        write_json(path, cfg.to_dict())
        again = load_config(path)
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize("path", [None, *sorted(CONFIGS.glob("*.json"))])
    def test_to_dict_is_the_asdict_form(self, path):
        cfgs = [load_config(path)]
        if path is None:
            cfgs.append(config_from_dict({
                "noise": {"v0": 0.5}, "detector": {"dark_rate": 0.01}, "dt_us": 3.5,
                "settings": [[10, 20], [30.5, 200]], "seed": 2**64 - 1, "n_sequences": 123,
            }))
        for cfg in cfgs:
            expected = dataclasses.asdict(cfg)
            expected["settings"] = [[s.alpha_deg, s.beta_deg] for s in cfg.settings]
            assert cfg.to_dict() == expected
            assert list(cfg.to_dict()) == list(expected)
            text = json.dumps(expected, sort_keys=True, separators=(",", ":"))
            assert config_hash(cfg) == hashlib.sha256(text.encode("utf-8")).hexdigest()

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

    def test_n_sequences_up_to_2_53(self):
        assert config_from_dict({"n_sequences": 2**53}).n_sequences == 2**53
        with pytest.raises(ConfigError, match="n_sequences"):
            config_from_dict({"n_sequences": 2**53 + 1})

    @pytest.mark.parametrize("n", [0, -1, True, 1.5, float(2**53), "1000", None])
    def test_n_sequences_must_be_a_positive_integer(self, n):
        with pytest.raises(ConfigError, match="n_sequences"):
            config_from_dict({"n_sequences": n})

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


def _tomography_csv_lines(tmp_path, rho=None, n=1_000, seed=79) -> list[str]:
    """The header and nine rows of a written tomography CSV, to be edited as
    raw rows: a TomographyDataset cannot hold an unknown, duplicated or
    missing pair, nor rows out of BASIS_PAIRS order."""
    from ces.detection import DetectorParams, simulate_tomography_dataset
    from ces.fileio import write_tomography_csv
    from conftest import singlet_dm

    dataset = simulate_tomography_dataset(
        singlet_dm() if rho is None else rho, n, DetectorParams(), seed
    )
    path = tmp_path / "written.csv"
    write_tomography_csv(path, dataset)
    return path.read_text().splitlines(keepends=True)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A fast config, the outputs of a bell and a tomo run of it, and a
    series CSV: one data file for each data mode."""
    path = tmp_path_factory.mktemp("recorded")
    write_json(path / "fast.json", _fast_cfg(n=5_000).to_dict())
    run_bell(_fast_cfg(n=5_000), path / "bell")
    run_tomo(_fast_cfg(n=5_000), path / "tomo")
    (path / "series.csv").write_text(_SERIES_CSV)
    return path


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

    @pytest.mark.parametrize(
        ("argv", "data"),
        [
            (["simulate", "--config", "{config}"], None),
            (["bell", "--config", "{config}"], None),
            (["bell", "--data", "{data}"], "bell/counts.csv"),
            (["tomo", "--config", "{config}"], None),
            (["tomo", "--config", "{config}", "--data", "{data}"], "tomo/tomography.csv"),
            (["measures", "{data}"], "tomo/reconstruction.json"),
            (["fit", "{data}"], "series.csv"),
            (["rates", "--config", "{config}"], None),
            (["sweep", "--config", "{config}", "--dt-grid", "0.8,3,6"], None),
        ],
        ids=[
            "simulate", "bell", "bell-data", "tomo", "tomo-data",
            "measures", "fit", "rates", "sweep",
        ],
    )
    def test_manifest_covers_every_output(self, tmp_path, recorded, argv, data):
        # Every CLI mode that writes a file writes one manifest schema; it
        # lists each output and each data file read, with their SHA-256.
        config = recorded / "fast.json"
        args = [a.format(config=config, data=recorded / str(data)) for a in argv]
        out = tmp_path / "o"
        assert cli.main([*args, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {
            "config_hash", "tool_version", "seed", "created_utc", "outputs", "inputs",
        }
        assert {e["path"] for e in manifest["outputs"]} == {
            p.name for p in out.iterdir()
        } - {"manifest.json"}
        for entry in manifest["outputs"]:
            assert entry["sha256"] == _sha256(out / entry["path"])
        if "--config" in argv:
            cfg = load_config(config)
            assert (manifest["config_hash"], manifest["seed"]) == (config_hash(cfg), cfg.seed)
        else:
            assert (manifest["config_hash"], manifest["seed"]) == (None, None)
        expected = [] if data is None else [str(recorded / data)]
        assert [e["path"] for e in manifest["inputs"]] == expected
        for entry in manifest["inputs"]:
            assert entry["sha256"] == _sha256(entry["path"])

    def test_manifest_hash_matches_config(self, tmp_path):
        cfg = _fast_cfg()
        run_rates(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["seed"] == cfg.seed


def _tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*"))}


class TestRunDirectory:
    def test_run_into_another_runs_directory_is_2(self, tmp_path, capsys, monkeypatch):
        # measures would replace the manifest of the tomo run, which lists
        # files measures does not write; a second tomo run replaces its own.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["tomo", "--trials", "20000", "--out", "fo"]) == 0
        before = _tree(tmp_path / "fo")
        assert cli.main(["measures", "fo/reconstruction.json", "--out", "fo"]) == 2
        err = capsys.readouterr().err
        assert "tomography.csv" in err and "Traceback" not in err
        assert _tree(tmp_path / "fo") == before
        assert cli.main(["tomo", "--trials", "20000", "--out", "fo"]) == 0

    @pytest.mark.parametrize(
        "text", ["", "{", "[]", '{"outputs": 3}', '{"outputs": ["rates.json"]}', '{"seed": 1}']
    )
    def test_directory_with_a_foreign_manifest_is_2(self, tmp_path, capsys, text):
        out = tmp_path / "o"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        assert cli.main(["rates", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "is not a run manifest" in err and "Traceback" not in err
        assert _tree(out) == {"manifest.json": text.encode()}

    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path, capsys, monkeypatch):
        # The rerun replaces counts.csv, then cannot write bell.json: the first
        # run's manifest, whose hash of counts.csv no longer holds, must go.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bell", "--trials", "20000", "--out", "pw"]) == 0
        first = (tmp_path / "pw" / "counts.csv").read_bytes()
        (tmp_path / "pw" / "bell.json").unlink()
        (tmp_path / "pw" / "bell.json").mkdir()
        assert cli.main(["bell", "--trials", "20000", "--seed", "5", "--out", "pw"]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert (tmp_path / "pw" / "counts.csv").read_bytes() != first
        assert not (tmp_path / "pw" / "manifest.json").exists()

    def test_manifest_inputs_are_absolute(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_bell(_fast_cfg(), "sim")
        assert cli.main(["bell", "--data", "sim/counts.csv", "--out", "an"]) == 0
        (entry,) = json.loads((tmp_path / "an" / "manifest.json").read_text())["inputs"]
        assert entry["path"] == str((tmp_path / "sim" / "counts.csv").resolve())
        assert Path(entry["path"]).is_absolute()
        assert entry["sha256"] == _sha256(tmp_path / "sim" / "counts.csv")


def _writer_cases():
    from ces.detection import (
        CountRecord,
        DetectorParams,
        MeasurementSetting,
        simulate_tomography_dataset,
    )
    from ces.fileio import write_counts_csv, write_series_csv, write_tomography_csv
    from conftest import singlet_dm

    dataset = simulate_tomography_dataset(singlet_dm(), 1_000, DetectorParams(), 79)
    return {
        "counts": (write_counts_csv, [CountRecord(MeasurementSetting(0.0, 22.5), 1, 2, 3, 4, 5)]),
        "tomography": (write_tomography_csv, dataset),
        "series": (write_series_csv, [(0.8, 0.4, "N", None), (2.0, 0.3, "EN", 0.01)]),
        "json": (write_json, {"S": 2.5, "E_values": [{"n": 7}], "none": None}),
    }


class TestWriters:
    @pytest.mark.parametrize("name", ["counts", "tomography", "series", "json"])
    def test_writer_returns_the_bytes_on_disk(self, tmp_path, name):
        # write_run hashes the returned bytes; a longer stale file must not
        # leave a tail behind.
        writer, data = _writer_cases()[name]
        path = tmp_path / "out"
        path.write_bytes(b"stale\n" * 1000)
        written = writer(path, data)
        assert isinstance(written, bytes) and written
        assert path.read_bytes() == written
        assert writer(path, data) == written

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_json_refuses_non_finite_and_keeps_the_old_file(self, tmp_path, x):
        path = tmp_path / "out.json"
        path.write_bytes(b"keep me\n")
        with pytest.raises(ValueError):
            write_json(path, {"cov": [[x]]})
        assert path.read_bytes() == b"keep me\n"

    def test_symlinked_output_is_replaced_not_followed(self, tmp_path):
        target = tmp_path / "elsewhere.json"
        target.write_bytes(b"keep me\n")
        out = tmp_path / "o"
        out.mkdir()
        (out / "rates.json").symlink_to(target)
        run_rates(_fast_cfg(), out)
        assert target.read_bytes() == b"keep me\n"
        assert not (out / "rates.json").is_symlink()
        (entry,) = json.loads((out / "manifest.json").read_text())["outputs"]
        assert entry["sha256"] == _sha256(out / "rates.json")


def _step_onto_hh(counts, rho, r_op):
    """A boundary step that lands every row on |HH><HH| = ones(4, 4) / 4, whose
    HV/HV ud probability is exactly 0: R turns non-finite under a positive count."""
    return np.full(rho.shape, 0.25, dtype=complex)


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

    @pytest.mark.parametrize("mode", ["rates", "bell"])
    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ('{"noise": 3}', "noise: expected an object"),
            ("[1, 2]", "top level: expected a JSON object"),
            ('{"settings": []}', "settings: expected a non-empty list"),
            ('{"settings": [[0, 0, 1]]}', "settings[0]: expected [alpha_deg, beta_deg]"),
            ("{oops", "invalid JSON"),
            ('{"efficiency": {"rep_rate_khz": 0}}', "efficiency.rep_rate_khz must be > 0"),
            ('{"efficiency": {"rep_rate_khz": 1e308}}', "efficiency.rep_rate_khz must be > 0"),
        ],
        ids=[
            "section", "top-level", "no-settings", "three-angles", "not-json", "rep-rate",
            "rep-rate-overflows-hz",
        ],
    )
    def test_malformed_config_is_2(self, tmp_path, capsys, mode, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert cli.main([mode, "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bell_with_three_settings_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"settings": [[0, 22.5], [0, 67.5], [45, 22.5]], "n_sequences": 2000}')
        assert cli.main(["bell", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "bell mode needs 4 settings" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", ["out_is_a_file", "output_is_a_directory", "under_a_file"])
    def test_unwritable_out_is_2(self, tmp_path, capsys, case):
        # An --out that cannot be made, or an output name taken by a
        # directory, is a usage error that names the path; nothing is removed.
        blocker = tmp_path / "f"
        blocker.write_text("x")
        out = {
            "out_is_a_file": blocker,
            "output_is_a_directory": tmp_path / "d",
            "under_a_file": blocker / "sub",
        }[case]
        if case == "output_is_a_directory":
            (out / "rates.json").mkdir(parents=True)
        assert cli.main(["rates", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err
        assert blocker.read_text() == "x"
        assert not (out / "manifest.json").exists()

    def test_rates_read_detector_efficiency(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"detector": {"eta_det": 0.5}}')
        assert cli.main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rates = json.loads((tmp_path / "o" / "rates.json").read_text())
        eff = load_config(cfg).efficiency
        assert rates["p_pair_detect"] == pytest.approx(
            eff.p_photon1 * eff.p_photon2 * 0.25, rel=1e-12
        )

    def test_rates_coincidence_matches_simulation(self, tmp_path):
        # p_coincidence / (p1 p2) is the coincidence fraction per produced
        # pair that simulate_counts draws; 5 binomial sigma over all settings.
        from ces.detection import setting_probabilities, simulate_counts
        from ces.protocol import final_state
        from ces.rng import derive_seed

        config = Path(__file__).resolve().parents[1] / "configs" / "window_study.json"
        assert cli.main(["rates", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        rates = json.loads((tmp_path / "o" / "rates.json").read_text())
        cfg = load_config(config)
        probs = setting_probabilities(final_state(cfg.noise, cfg.dt_us), cfg.settings, cfg.detector)
        records = [
            simulate_counts(p, s, cfg.n_sequences, derive_seed(cfg.seed, i))
            for i, (p, s) in enumerate(zip(probs, cfg.settings))
        ]
        trials = len(records) * cfg.n_sequences
        fraction = sum(rec.total for rec in records) / trials
        expected = rates["p_coincidence"] / (cfg.efficiency.p_photon1 * cfg.efficiency.p_photon2)
        assert abs(fraction - expected) <= 5.0 * np.sqrt(expected * (1.0 - expected) / trials)

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--trials", "0"]])
    def test_bad_seed_or_trials_flag_is_2(self, tmp_path, capsys, flags):
        code = cli.main(["simulate", "--out", str(tmp_path / "o"), *flags])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2**53 + 1, 10**20])
    @pytest.mark.parametrize("via", ["trials", "config"])
    def test_n_sequences_above_2_53_is_2(self, tmp_path, capsys, n, via):
        # Every count a run writes must be readable again, and the CSV
        # readers take counts up to 2**53.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_sequences": n}))
        flags = ["--trials", str(n)] if via == "trials" else ["--config", str(cfg)]
        out = tmp_path / "o"
        assert cli.main(["bell", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n_sequences" in err and "Traceback" not in err
        assert not out.exists()

    def test_counts_of_2_53_trials_read_back(self, tmp_path):
        # The largest n_sequences accepted writes counts the CSV reader takes.
        sim, out = tmp_path / "s", tmp_path / "b"
        assert cli.main(["simulate", "--trials", str(2**53), "--out", str(sim)]) == 0
        assert cli.main(["bell", "--data", str(sim / "counts.csv"), "--out", str(out)]) == 0

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

    @pytest.mark.parametrize("grid", ["1,abc,2", "1,2,0x10"])
    def test_dt_grid_that_is_not_numbers_is_2(self, tmp_path, capsys, grid):
        code = cli.main(
            ["sweep", "--trials", "2000", f"--dt-grid={grid}", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "--dt-grid: could not convert" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid", ["2,4", "1,1,1", "0,0,0"])
    def test_dt_grid_without_two_distinct_times_is_2(self, tmp_path, capsys, grid):
        code = cli.main(
            ["sweep", "--trials", "2000", f"--dt-grid={grid}", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "--dt-grid needs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_method_flag_is_gone(self, tmp_path, capsys):
        # The linear estimate of a rank-deficient sweep state can have a
        # negative eigenvalue, which no negativity is defined for; the sweep
        # always fits by maximum likelihood.
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--method", "linear", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--method" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_max_iter_flag_is_gone(self, tmp_path, capsys):
        # One step cap, tomography.MAX_ITER, applies to every fit.
        with pytest.raises(SystemExit) as exc:
            cli.main(["tomo", "--max-iter", "5", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--max-iter" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n", ["50", "-5"])
    def test_bootstrap_below_minimum_is_2(self, tmp_path, capsys, n):
        code = cli.main(
            ["tomo", "--trials", "2000", "--bootstrap", n, "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "bootstrap must be 0 or at least 100" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n", ["10001", "1000000000000"])
    def test_bootstrap_above_maximum_is_2(self, tmp_path, capsys, monkeypatch, n):
        # Refused before anything is simulated: 10**12 resamples do not fit in memory.
        from ces import pipeline

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the flags were checked")

        monkeypatch.setattr(pipeline, "simulate_tomography_dataset", no_simulation)
        argv = ["tomo", "--trials", "20000", "--bootstrap", n, "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert "at most 10000 resamples" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_linear_with_bootstrap_is_2(self, tmp_path, capsys, monkeypatch):
        # Every resample is refit by MLE, so its error bars do not belong
        # next to a linear-inversion state; the pair is refused before any
        # simulation.
        from ces import pipeline

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the flags were checked")

        monkeypatch.setattr(pipeline, "simulate_tomography_dataset", no_simulation)
        argv = ["tomo", "--trials", "20000", "--method", "linear", "--bootstrap", "100"]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert "refit by MLE" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_reconstruction_method_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown reconstruction method 'ls'"):
            run_tomo(_fast_cfg(), tmp_path / "o", method="ls")
        assert not (tmp_path / "o").exists()

    def test_bootstrap_zero_runs_none(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["tomo", "--trials", "20000", "--bootstrap", "0", "--out", str(out)]) == 0
        assert "bootstrap" not in json.loads((out / "reconstruction.json").read_text())

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

    @pytest.mark.parametrize("text", ["a,b\n1,2\n", ""], ids=["other-columns", "empty"])
    @pytest.mark.parametrize("command", ["fit", "bell", "tomo"])
    def test_csv_without_the_expected_columns_is_3(self, tmp_path, capsys, command, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        args = [str(data)] if command == "fit" else ["--data", str(data)]
        assert cli.main([command, *args, "--out", str(tmp_path / "o")]) == 3
        assert "expected columns" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_tomography_with_pair_totals_beyond_the_ratio_is_3(self, tmp_path, capsys):
        # RL/RL n_dd at 2**53 among 100s: the bootstrap used to run for about
        # 20 s and report F 0 as converged.
        from ces.detection import TomographyDataset
        from ces.fileio import write_tomography_csv

        counts = np.full((9, 4), 100)
        counts[8, 3] = 2**53
        data = tmp_path / "data.csv"
        write_tomography_csv(data, TomographyDataset(counts, np.zeros(9, int)))
        argv = ["tomo", "--data", str(data), "--bootstrap", "100", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "differ by more than a factor 2**20" in err

    def test_tomography_above_a_total_of_2_48_is_3(self, tmp_path, capsys):
        # HV/HV n_ud at 2**53 among 2**33s: within MAX_PAIR_RATIO, but the
        # fit's certificate is quantised to ulp(N) and read -2.0.
        from ces.detection import TomographyDataset
        from ces.fileio import write_tomography_csv

        counts = np.full((9, 4), 2**33)
        counts[0, 1] = 2**53
        data = tmp_path / "data.csv"
        write_tomography_csv(data, TomographyDataset(counts, np.zeros(9, int)))
        assert cli.main(["tomo", "--data", str(data), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "above a total of 2**48" in err
        assert not (tmp_path / "o").exists()

    def test_non_convergence_is_4(self, tmp_path, monkeypatch):
        from ces import tomography

        monkeypatch.setattr(tomography, "MAX_ITER", 1)
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
        code = cli.main(["tomo", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 4
        # Outputs are still written for inspection.
        assert (tmp_path / "o" / "reconstruction.json").exists()
        fit = json.loads((tmp_path / "o" / "reconstruction.json").read_text())["reconstruction"]
        assert fit["iterations"] == 1 and not fit["converged"]
        assert fit["certificate_gap"] > 0.0

    def test_low_count_bootstrap_certifies_every_resample(self, tmp_path):
        # At this count some resamples have optima on or near the PSD
        # boundary; test_tomography's mixed-table test keeps three of them
        # as fixed data.
        config = Path(__file__).resolve().parents[1] / "configs" / "calibrated.json"
        out = tmp_path / "o"
        code = cli.main(
            ["tomo", "--config", str(config), "--seed", "4242", "--trials", "20000",
             "--bootstrap", "100", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "reconstruction.json").read_text())
        assert payload["bootstrap"]["n_failed"] == 0
        assert payload["bootstrap"]["sigma_negativity"] > 0.0

    def test_sweep_point_missing_the_certificate_is_4(self, tmp_path, capsys, monkeypatch):
        from ces import pipeline, tomography

        real_fit = tomography._fit
        calls = []

        def second_point_unconverged(counts):
            # The sweep fits its three points as the rows of one call.
            calls.append(counts)
            assert counts.shape == (3, 36)
            rho, iterations, gap = real_fit(counts)
            gap[1] = np.inf
            return rho, iterations, gap

        monkeypatch.setattr(tomography, "_fit", second_point_unconverged)
        out = pipeline.run_sweep(_fast_cfg(), tmp_path / "run", dt_grid_us=(0.8, 2.0, 4.0))
        assert out["converged"] == [True, False, True]

        code = cli.main(["sweep", "--trials", "20000", "--dt-grid", "0.8,2,4",
                         "--out", str(tmp_path / "o")])
        assert code == 4
        assert len(calls) == 2
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
        assert not (tmp_path / "an" / "manifest.json").exists()

    def test_bell_from_counts_csv_reads_no_config(self, tmp_path):
        # The counts alone define the CHSH test: a config that would not
        # load is never read.
        run_bell(_fast_cfg(), tmp_path / "sim")
        bad = tmp_path / "bad.json"
        bad.write_text('{"noise": {"v0": 7}}')
        counts = str(tmp_path / "sim" / "counts.csv")
        out = tmp_path / "an"
        assert cli.main(["bell", "--data", counts, "--config", str(bad), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config_hash"] is None

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
        write_json(state, DensityMatrix(np.outer(SINGLET_KET, SINGLET_KET.conj())).to_json_dict())
        code = cli.main(["measures", str(state)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fidelity_singlet"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3, 0, -1])
    def test_measures_of_a_state_that_is_not_two_qubit_is_3(self, tmp_path, capsys, dim):
        # dims 1-3 are valid density matrices of the wrong size; 0 and -1
        # are no dimension at all (-1 still has dim * dim = 1 entry).
        rho = np.eye(dim) / dim if dim > 0 else np.ones(dim * dim)
        state = tmp_path / "state.json"
        state.write_text(
            json.dumps({"dim": dim, "re": rho.ravel().tolist(), "im": [0.0] * rho.size})
        )
        assert cli.main(["measures", str(state), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "needs dim 4" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["not json", None], ids=["not-json", "missing"])
    def test_measures_of_a_file_that_is_not_json_is_3(self, tmp_path, capsys, text):
        state = tmp_path / "state.json"
        if text is not None:
            state.write_text(text)
        assert cli.main(["measures", str(state), "--out", str(tmp_path / "o")]) == 3
        assert "cannot read density-matrix JSON" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dim", [4.9, "4", True], ids=["float", "string", "bool"])
    def test_measures_of_a_state_whose_dim_is_not_an_integer_is_3(self, tmp_path, capsys, dim):
        state = tmp_path / "state.json"
        state.write_text(
            json.dumps({"dim": dim, "re": (np.eye(4) / 4).ravel().tolist(), "im": [0.0] * 16})
        )
        assert cli.main(["measures", str(state), "--out", str(tmp_path / "o")]) == 3
        assert "needs an integer dim" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_measures_of_a_non_finite_state_is_3(self, tmp_path, capsys, part, value):
        # json.dumps writes, and Python's json module parses, NaN and
        # Infinity literals; the error names the part that holds one, and
        # numpy warns about nothing.
        parts = {"re": (np.eye(4) / 4).ravel().tolist(), "im": [0.0] * 16}
        parts[part][1] = value
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"dim": 4, **parts}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["measures", str(state), "--out", str(tmp_path / "o")]) == 3
        assert f"data error: density-matrix JSON: {part} holds a non-finite entry" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cell", [2**53, 2**53 + 1, 10**23])
    def test_counts_above_2_53_are_bad_rows(self, tmp_path, cell):
        # Counts are held as floats downstream, which are exact up to 2**53.
        from ces.errors import DataError
        from ces.fileio import read_counts_csv

        data = tmp_path / "counts.csv"
        data.write_text(f"alpha_deg,beta_deg,n_uu,n_ud,n_du,n_dd,n_discarded\n0,22.5,1,2,{cell},4,0\n")
        if cell <= 2**53:
            assert read_counts_csv(data)[0].n_du == cell
        else:
            with pytest.raises(DataError, match=r"bad row .*counts above 2\*\*53"):
                read_counts_csv(data)

    @pytest.mark.parametrize(
        ("case", "code"),
        [("bell-dt", 0), ("sweep-dt", 0), ("measures-huge-entry", 3), ("tomo-huge-count", 3)],
    )
    def test_extreme_inputs_exit_cleanly(self, tmp_path, capsys, case, code):
        # A storage time of 1e200 has coherence 0; a 1e308 diagonal entry
        # fails validation; a count above 2**53 is a bad row.  Each exits
        # with its code and no numpy warning, and a failed run writes nothing.
        from ces.detection import DetectorParams, simulate_tomography_dataset
        from ces.fileio import write_tomography_csv

        out = tmp_path / "o"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dt_us": 1e200, "n_sequences": 20000}')
        if case == "measures-huge-entry":
            re = (np.eye(4) / 4).ravel().tolist()
            re[0] = 1e308
            data = tmp_path / "state.json"
            data.write_text(json.dumps({"dim": 4, "re": re, "im": [0.0] * 16}))
        elif case == "tomo-huge-count":
            data = tmp_path / "tomography.csv"
            dataset = simulate_tomography_dataset(np.eye(4) / 4, 1000, DetectorParams(), 1)
            write_tomography_csv(data, dataset)
            lines = data.read_text().splitlines()
            cells = lines[3].split(",")
            cells[4] = str(10**23)
            lines[3] = ",".join(cells)
            data.write_text("\n".join(lines) + "\n")
        argv = {
            "bell-dt": ["bell", "--config", str(cfg)],
            "sweep-dt": ["sweep", "--config", str(cfg), "--dt-grid", "1e200,2,4"],
            "measures-huge-entry": ["measures", str(tmp_path / "state.json")],
            "tomo-huge-count": ["tomo", "--data", str(tmp_path / "tomography.csv")],
        }[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert not out.exists()
            assert {"measures-huge-entry": "trace defect 1.00e+308",
                    "tomo-huge-count": "bad row {'basis_a': 'HV', 'basis_b': 'RL'"}[case] in err
        if case == "sweep-dt":
            fit = json.loads((out / "lifetime_fit.json").read_text())
            rows = (out / "sweep_series.csv").read_text().splitlines()
            assert fit["converged"] and float(rows[1].split(",")[1]) == 0.0

    def test_tomography_whose_r_turns_infinite_is_4(self, tmp_path, capsys, monkeypatch):
        # A boundary step that lands on |HH><HH|, whose HV/HV ud probability
        # is exactly 0 under a positive count, makes R non-finite; the run
        # reports the fit unconverged instead of a LinAlgError.
        from ces.detection import TomographyDataset
        from ces.fileio import write_tomography_csv

        monkeypatch.setattr("ces.tomography._boundary_step", _step_onto_hh)
        data = tmp_path / "tomography.csv"
        write_tomography_csv(data, TomographyDataset(zero_cell_table(), np.zeros(9, int)))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["tomo", "--data", str(data), "--out", str(out)]) == 4
        assert "Traceback" not in capsys.readouterr().err
        fit = json.loads((out / "reconstruction.json").read_text())["reconstruction"]
        assert not fit["converged"] and fit["certificate_gap"] is None

    def test_tomography_with_a_huge_cell_exits_as_its_fit_converged(
        self, tmp_path, capsys, monkeypatch
    ):
        # A 1e14 cell among hundreds: exit 0 when the fit certifies, else 4,
        # with no warning and no traceback.  The table check rejects such a
        # table, so it is lifted to reach the fit.
        from ces.detection import TomographyDataset
        from ces.fileio import write_tomography_csv

        monkeypatch.setattr("ces.tomography.MAX_PAIR_RATIO", math.inf)
        data = tmp_path / "tomography.csv"
        write_tomography_csv(data, TomographyDataset(HUGE_CELL_TABLE, np.zeros(9, int)))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["tomo", "--data", str(data), "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        fit = json.loads((out / "reconstruction.json").read_text())["reconstruction"]
        assert code == (0 if fit["converged"] else 4)

    @pytest.mark.parametrize("command", ["fit", "tomo"])
    def test_non_finite_figures_are_written_as_null(self, tmp_path, capsys, monkeypatch, command):
        # Standard JSON (RFC 8259) has no NaN or Infinity.  A series with no
        # signal has no lifetime covariance; a boundary step onto |HH><HH|,
        # as in test_tomography_whose_r_turns_infinite_is_4, drives the
        # tomography certificate gap to infinity.
        from ces.detection import TomographyDataset
        from ces.fileio import write_tomography_csv

        def strict(text):
            def refuse(constant):
                raise ValueError(f"non-standard JSON constant {constant}")

            return json.loads(text, parse_constant=refuse)

        data, out = tmp_path / "data.csv", tmp_path / "o"
        if command == "fit":
            data.write_text("dt_us,value,kind,sigma\n0,0,N,\n1,0,N,\n2,0,N,\n")
            argv = ["fit", str(data)]
        else:
            monkeypatch.setattr("ces.tomography._boundary_step", _step_onto_hh)
            write_tomography_csv(data, TomographyDataset(zero_cell_table(), np.zeros(9, int)))
            argv = ["tomo", "--data", str(data)]
        assert cli.main([*argv, "--out", str(out)]) == 4
        stdout = capsys.readouterr().out
        if command == "fit":
            payload = strict((out / "lifetime_fit.json").read_text())
            assert strict(stdout) == payload
            assert payload["cov"] == [[None, None], [None, None]]
        else:
            payload = strict((out / "reconstruction.json").read_text())
            assert payload["reconstruction"]["certificate_gap"] is None

    @pytest.mark.parametrize(
        ("command", "text"),
        [
            ("fit", "dt_us,value,kind,sigma\n0.8,0.4,N,\n2.0,0.35\n"),
            ("bell", "alpha_deg,beta_deg,n_uu,n_ud,n_du,n_dd,n_discarded\n0,22.5,10,2\n"),
            ("tomo", "basis_a,basis_b,alpha_deg,beta_deg,n_uu,n_ud,n_du,n_dd,n_discarded\n"
                     "HV,HV,0,0,1,2,3\n"),
        ],
    )
    def test_short_csv_row_is_3(self, tmp_path, capsys, command, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        args = [str(data)] if command == "fit" else ["--data", str(data)]
        assert cli.main([command, *args, "--out", str(tmp_path / "o")]) == 3
        assert "bad row" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("command", "text"),
        [
            ("fit", "dt_us,value,kind\n0.8,0.4,N,1,2\n2.0,0.35,N\n4.0,0.3,N\n"),
            ("bell", "alpha_deg,beta_deg,n_uu,n_ud,n_du,n_dd,n_discarded\n0,22.5,10,2,3,4,0,9\n"),
            ("tomo", "basis_a,basis_b,alpha_deg,beta_deg,n_uu,n_ud,n_du,n_dd,n_discarded\n"
                     "HV,HV,0,0,1,2,3,4,0,5\n"),
        ],
    )
    def test_long_csv_row_is_3(self, tmp_path, capsys, command, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        args = [str(data)] if command == "fit" else ["--data", str(data)]
        assert cli.main([command, *args, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "bad row" in err and "fields beyond the header" in err

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
        from ces.errors import DataError
        from ces.fileio import read_tomography_csv

        lines = _tomography_csv_lines(tmp_path)
        lines[1] = "XY" + lines[1][2:]
        csv_path = tmp_path / "tomography.csv"
        csv_path.write_text("".join(lines))
        with pytest.raises(DataError, match="unknown basis"):
            read_tomography_csv(csv_path)
        code = cli.main(
            ["tomo", "--data", str(csv_path), "--method", "linear", "--out", str(tmp_path / "o")]
        )
        assert code == 3

    @pytest.mark.parametrize("method", ["mle", "linear"])
    @pytest.mark.parametrize(
        ("case", "message"),
        [
            ("duplicated", "basis pair ('HV', 'HV') appears more than once"),
            ("missing", "missing [('DA', 'DA')]"),
            ("zero", "basis pair ('DA', 'HV') has zero coincidences"),
        ],
        ids=["duplicated", "missing", "zero"],
    )
    def test_tomo_csv_with_malformed_basis_set_is_3(self, tmp_path, capsys, method, case, message):
        lines = _tomography_csv_lines(tmp_path)
        if case == "duplicated":
            lines.append(lines[1])
        elif case == "missing":
            del lines[5]
        else:
            cells = lines[4].split(",")
            cells[4:8] = ["0"] * 4
            lines[4] = ",".join(cells)
        csv_path = tmp_path / "tomography.csv"
        csv_path.write_text("".join(lines))
        code = cli.main(
            ["tomo", "--data", str(csv_path), "--method", method, "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["mle", "linear"])
    def test_tomo_csv_row_order_does_not_change_output(self, tmp_path, method):
        from conftest import dephased_singlet

        lines = _tomography_csv_lines(tmp_path, dephased_singlet(0.8), 20_000, seed=83)
        outputs = []
        for name, rows in (("forward", lines[1:]), ("reversed", lines[:0:-1])):
            csv_path = tmp_path / f"{name}.csv"
            csv_path.write_text("".join([lines[0], *rows]))
            out = tmp_path / name
            args = ["tomo", "--data", str(csv_path), "--method", method, "--out", str(out)]
            assert cli.main(args + (["--bootstrap", "100"] if method == "mle" else [])) == 0
            outputs.append((out / "reconstruction.json").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        ("row", "column", "value", "code"),
        [
            (1, 2, "1.5", 3),  # HV/HV measured at 1.5 degrees
            (5, 3, "-45.000000", 3),  # DA/DA arm B at 135 degrees
            (3, 3, "45.000000", 3),  # HV/RL arm B: RL is measured at 0 degrees
            (1, 2, "180.000000", 0),  # angles are modulo 180
            (4, 2, "225.0000004", 0),  # DA at 45 degrees within the six written decimals
        ],
        ids=["hv-alpha", "da-beta", "rl-beta", "modulo-180", "rounding"],
    )
    def test_tomo_csv_angle_columns_must_match_labels(
        self, tmp_path, capsys, row, column, value, code
    ):
        # The angle columns of each row must be those of its basis labels:
        # HV and RL at 0 degrees, DA at 45, modulo 180.
        run = tmp_path / "run"
        assert cli.main(["tomo", "--trials", "20000", "--out", str(run)]) == 0
        lines = (run / "tomography.csv").read_text().splitlines(keepends=True)
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        data = tmp_path / "edited.csv"
        data.write_text("".join(lines))
        out = tmp_path / "o"
        assert cli.main(["tomo", "--data", str(data), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert not out.exists()
            assert f"bad row {{'basis_a': '{cells[0]}', 'basis_b': '{cells[1]}'" in err
        else:
            reconstruction = "reconstruction.json"
            assert (out / reconstruction).read_bytes() == (run / reconstruction).read_bytes()

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
        np.testing.assert_array_equal(again.counts, ds.counts)
        np.testing.assert_array_equal(again.discarded, ds.discarded)
        assert again.records == ds.records

        out = tmp_path / "o"
        code = cli.main(["tomo", "--data", str(csv_path), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "reconstruction.json").read_text())
        assert payload["metrics"]["concurrence"] == pytest.approx(0.8, abs=0.03)
        gap = payload["reconstruction"]["certificate_gap"]
        assert 0.0 <= gap <= GAP_TOL * ds.counts.sum()

        code = cli.main(["tomo", "--data", str(csv_path), "--method", "linear", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "reconstruction.json").read_text())
        assert payload["reconstruction"]["certificate_gap"] is None

    def test_one_huge_cell_keeps_the_tolerance_at_one_unit(self, tmp_path):
        # HV/HV n_uu brings its pair to 2**20 times the smallest pair total,
        # the largest ratio accepted, so GAP_TOL * N is a few log-likelihood
        # units.  The tolerance is capped at 1, so the fit and every
        # bootstrap resample must certify to that.
        from ces.detection import TomographyDataset
        from ces.fileio import read_tomography_csv, write_tomography_csv
        from ces.tomography import MAX_PAIR_RATIO

        run, data, out = tmp_path / "run", tmp_path / "huge.csv", tmp_path / "o"
        assert cli.main(["tomo", "--trials", "20000", "--out", str(run)]) == 0
        recorded = read_tomography_csv(run / "tomography.csv")
        counts = recorded.counts.copy()
        counts[0, 0] = MAX_PAIR_RATIO * counts.sum(axis=1).min() - counts[0, 1:].sum()
        assert GAP_TOL * counts.sum() > 1.0
        write_tomography_csv(data, TomographyDataset(counts, recorded.discarded))
        code = cli.main(["tomo", "--data", str(data), "--bootstrap", "100", "--out", str(out)])
        payload = json.loads((out / "reconstruction.json").read_text())
        assert code == 0
        assert payload["reconstruction"]["converged"]
        assert 0.0 <= payload["reconstruction"]["certificate_gap"] <= 1.0


_SERIES_CSV = "dt_us,value,kind,sigma\n0.8,0.39,N,\n2.0,0.35,N,\n4.0,0.23,N,\n6.0,0.08,N,\n"


@pytest.mark.parametrize(
    "statement",
    [
        "pass",
        "ket = ces.qcore.SINGLET_KET; "
        "ces.measures.report(ces.qcore.DensityMatrix(ket[:, None] * ket.conj()))",
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


def test_package_import_loads_nothing_and_exports_only_its_version():
    # Run modes and tests import the submodules they use; ``import ces``
    # alone loads no ces submodule and no numpy, and names only __version__.
    src = str(Path(ces.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, ces; "
        "loaded = sorted(m for m in sys.modules if m.startswith('ces.') or m == 'numpy'); "
        "public = sorted(a for a in vars(ces) if not a.startswith('_')); "
        "sys.exit((loaded, public) if loaded or public or not ces.__version__ else None)"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_no_third_party_module_but_numpy():
    # A cold start (perfbench's setup_s) should time ces itself: importing
    # the command line in a fresh interpreter loads ces, numpy and standard
    # library modules only, so no scipy.
    src = str(Path(ces.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys; before = set(sys.modules); import ces.cli; "
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "sys.exit(sorted(loaded - set(sys.stdlib_module_names) - {'ces', 'numpy'}) or None)"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
