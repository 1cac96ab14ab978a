"""Experiment configuration: schema, defaults, file form and hash.

Configs are JSON.  The ``noise``, ``efficiency`` and ``detector`` sections
hold the fields of :class:`NoiseParams`, :class:`EfficiencyParams` and
:class:`DetectorParams`; those dataclasses define each parameter's name and
allowed range, and their validation errors are reported with the full field
path (``noise.v0 must be within [0, 1], …``).  Unknown keys and non-finite
numbers are rejected.  Missing keys fall back to the packaged
``defaults.json`` (the published experimental parameters).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .detection import MAX_COUNT, DetectorParams, MeasurementSetting
from .errors import ConfigError
from .protocol import EfficiencyParams, NoiseParams

_MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class ExperimentConfig:
    noise: NoiseParams
    efficiency: EfficiencyParams
    detector: DetectorParams
    dt_us: float
    settings: tuple[MeasurementSetting, ...]
    seed: int
    n_sequences: int

    def to_dict(self) -> dict:
        """The ``asdict`` form, built from the fields without its deep copy."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in _SECTIONS:
            out[name] = {f.name: getattr(out[name], f.name) for f in fields(out[name])}
        out["settings"] = [[s.alpha_deg, s.beta_deg] for s in self.settings]
        return out


_SECTIONS = {"noise": NoiseParams, "efficiency": EfficiencyParams, "detector": DetectorParams}
_TOP_KEYS = [f.name for f in fields(ExperimentConfig)]


def _as_number(path: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def storage_time(path: str, value) -> float:
    """A storage time in microseconds: a finite number >= 0."""
    dt_us = _as_number(path, value)
    if dt_us < 0.0:
        raise ConfigError(f"{path} must be >= 0, got {dt_us!r}")
    return dt_us


def _parse_section(name: str, defaults: dict, override: dict):
    if not isinstance(override, dict):
        raise ConfigError(f"{name}: expected an object")
    cls = _SECTIONS[name]
    keys = [f.name for f in fields(cls)]
    unknown = [k for k in override if k not in keys]
    if unknown:
        raise ConfigError(f"{name}: unknown key {unknown[0]!r}")
    merged = {**defaults, **override}
    try:
        return cls(**{key: _as_number(f"{name}.{key}", merged[key]) for key in keys})
    except ValueError as exc:  # validator messages start with the field name
        raise ConfigError(f"{name}.{exc}") from exc


def _parse_settings(raw) -> tuple[MeasurementSetting, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("settings: expected a non-empty list of [alpha_deg, beta_deg] pairs")
    out = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"settings[{i}]: expected [alpha_deg, beta_deg]")
        out.append(
            MeasurementSetting(
                _as_number(f"settings[{i}][0]", pair[0]),
                _as_number(f"settings[{i}][1]", pair[1]),
            )
        )
    return tuple(out)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    unknown = [k for k in data if k not in _TOP_KEYS]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    defaults = json.loads(resources.files("ces").joinpath("defaults.json").read_text())

    sections = {
        name: _parse_section(name, defaults.get(name, {}), data.get(name, {}))
        for name in _SECTIONS
    }
    dt_us = storage_time("dt_us", data.get("dt_us", defaults["dt_us"]))
    settings = _parse_settings(data.get("settings", defaults["settings"]))

    seed = data.get("seed", defaults["seed"])
    if isinstance(seed, bool) or not isinstance(seed, int) or not (0 <= seed <= _MAX_SEED):
        raise ConfigError(f"seed: expected an unsigned 64-bit integer, got {seed!r}")
    n_sequences = data.get("n_sequences", defaults["n_sequences"])
    if (
        isinstance(n_sequences, bool)
        or not isinstance(n_sequences, int)
        or not 0 < n_sequences <= MAX_COUNT
    ):
        raise ConfigError(
            f"n_sequences: expected a positive integer at most 2**53, got {n_sequences!r}"
        )

    return ExperimentConfig(
        **sections,
        dt_us=dt_us,
        settings=settings,
        seed=seed,
        n_sequences=n_sequences,
    )


def load_config(path=None) -> ExperimentConfig:
    """Load a config file, filling gaps from the shipped defaults.

    ``path=None`` (or an empty JSON object) yields the pure defaults.
    """
    if path is None:
        return config_from_dict({})
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def config_hash(cfg: ExperimentConfig) -> str:
    """SHA-256 of the config's compact JSON form with sorted keys."""
    text = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
