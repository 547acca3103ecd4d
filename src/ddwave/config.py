"""Scenario configuration: JSON loading, validation, defaults."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, fields

from .channel import ChannelConfig
from .link import Constellation
from .modem import (
    AfdmSpec,
    OfdmSpec,
    OtfsSpec,
    afdm_orthogonality_ok,
    afdm_tune,
    otfs_orthogonality_ok,
)

log = logging.getLogger("ddwave")


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


_ALIASES = {"N": "n", "K": "k", "L": "l", "P": "paths", "p": "paths"}

_DEFAULTS = {
    "schema": 1,
    "waveform": "all",       # ofdm | otfs | afdm | all
    "n": 64,
    "k": None,               # otfs grid; defaults to sqrt(n) when square
    "l": None,
    "xi": 0,
    "c1": None,              # None means afdm_tune decides
    "c2": None,
    "cp_len": None,          # None means ell_max
    "f_s": 1.0e7,            # Hz
    "f_c": 5.9e9,            # Hz
    "ell_max": 3,
    "f_max": 2,
    "paths": 3,
    "constellation": "qpsk",
    "snr_sweep": [0.0, 5.0, 10.0, 15.0, 20.0],
    "frames": 200,
    "seed": 1,
    "doppler_mode": "integer",
    "outputs": "out",
    "geometry": "monostatic",
    "detector": "lmmse",
    "trials": 50,            # sensing Monte Carlo trials per SNR point
    "refine_levels": 3,
    "refine_factor": 10,
    "notes": None,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; every field has a documented default."""

    waveform: str
    n: int
    k: int | None
    l: int | None
    xi: int
    c1: float | None
    c2: float | None
    cp_len: int
    f_s: float
    f_c: float
    ell_max: int
    f_max: int
    paths: int
    constellation: str
    snr_sweep: tuple[float, ...]
    frames: int
    seed: int
    doppler_mode: str
    outputs: str
    geometry: str
    detector: str
    trials: int
    refine_levels: int
    refine_factor: int
    notes: str | None = None
    schema: int = 1

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        data = dict(_DEFAULTS)
        for key, value in raw.items():
            key = _ALIASES.get(key, key)
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config field {key!r}")
            data[key] = value
        if data["schema"] != 1:
            raise ConfigError(f"unsupported schema version {data['schema']!r} (expected 1)")
        if data["waveform"] not in ("ofdm", "otfs", "afdm", "all"):
            raise ConfigError(f"waveform must be ofdm|otfs|afdm|all, got {data['waveform']!r}")
        if data["doppler_mode"] not in ("integer", "fractional"):
            raise ConfigError(f"doppler_mode must be integer|fractional, got {data['doppler_mode']!r}")
        if data["geometry"] not in ("monostatic", "bistatic"):
            raise ConfigError(f"geometry must be monostatic|bistatic, got {data['geometry']!r}")
        if data["detector"] not in ("zf", "lmmse"):
            raise ConfigError(f"detector must be zf|lmmse, got {data['detector']!r}")
        try:
            Constellation.by_name(data["constellation"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name in ("n", "ell_max", "f_max", "paths", "frames", "trials",
                     "refine_levels", "refine_factor", "xi", "seed"):
            if not isinstance(data[name], int) or isinstance(data[name], bool):
                raise ConfigError(f"{name} must be an integer, got {data[name]!r}")
        for name, low in (("n", 1), ("seed", 0), ("paths", 1), ("frames", 1), ("trials", 1),
                          ("refine_levels", 0), ("refine_factor", 2)):
            if data[name] < low:
                raise ConfigError(f"{name} must be >= {low}, got {data[name]}")
        for name in ("f_s", "f_c"):
            if not isinstance(data[name], (int, float)) or data[name] <= 0:
                raise ConfigError(f"{name} must be a positive number, got {data[name]!r}")
        if data["cp_len"] is None:
            data["cp_len"] = data["ell_max"]
        if not isinstance(data["cp_len"], int) or isinstance(data["cp_len"], bool):
            raise ConfigError(f"cp_len must be an integer, got {data['cp_len']!r}")
        needs_otfs = data["waveform"] in ("otfs", "all")
        if needs_otfs:
            if data["k"] is None or data["l"] is None:
                root = math.isqrt(data["n"])
                if root * root != data["n"]:
                    raise ConfigError(
                        f"k and l required: n={data['n']} is not a perfect square"
                    )
                data["k"] = data["l"] = root
            if data["k"] * data["l"] != data["n"]:
                raise ConfigError(
                    f"k*l must equal n, got {data['k']}*{data['l']} != {data['n']}"
                )
        data["snr_sweep"] = tuple(float(s) for s in data["snr_sweep"])
        if not data["snr_sweep"]:
            raise ConfigError("snr_sweep must be nonempty")
        cfg = ScenarioConfig(**data)
        try:
            cfg.channel_config()  # its own checks: cp_len, ell_max and f_max ranges
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        cfg._report_orthogonality()
        return cfg

    def _report_orthogonality(self):
        if self.waveform in ("afdm", "all"):
            if not afdm_orthogonality_ok(self.ell_max, self.f_max, self.xi, self.n):
                log.warning(
                    "AFDM orthogonality fails for ell_max=%d f_max=%d xi=%d N=%d",
                    self.ell_max, self.f_max, self.xi, self.n,
                )
        if self.waveform in ("otfs", "all") and self.k is not None:
            if not otfs_orthogonality_ok(self.ell_max, self.f_max, self.k, self.l):
                log.warning(
                    "OTFS orthogonality fails for ell_max=%d f_max=%d K=%d L=%d",
                    self.ell_max, self.f_max, self.k, self.l,
                )

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(
            N=self.n,
            f_s=self.f_s,
            f_c=self.f_c,
            ell_max=self.ell_max,
            f_max=self.f_max,
            P=self.paths,
            cp_len=self.cp_len,
        )

    def afdm_spec(self) -> AfdmSpec:
        c1, c2 = self.c1, self.c2
        if c1 is None or c2 is None:
            try:
                tuned_c1, tuned_c2 = afdm_tune(self.ell_max, self.f_max, self.xi, self.n)
            except ValueError as exc:
                raise ConfigError(f"afdm tuning: {exc}") from None
            c1 = tuned_c1 if c1 is None else c1
            c2 = tuned_c2 if c2 is None else c2
        return AfdmSpec(n=self.n, c1=c1, c2=c2, xi=self.xi, cp_len=self.cp_len)

    def waveform_specs(self) -> list[tuple[str, object]]:
        """(name, spec) pairs for the configured waveform(s), fixed order."""
        out = []
        if self.waveform in ("ofdm", "all"):
            out.append(("ofdm", OfdmSpec(n=self.n, cp_len=self.cp_len)))
        if self.waveform in ("otfs", "all"):
            out.append(("otfs", OtfsSpec(k=self.k, l=self.l, cp_len=self.cp_len)))
        if self.waveform in ("afdm", "all"):
            out.append(("afdm", self.afdm_spec()))
        return out

    def sensing_spec(self):
        """The single waveform sensing commands run with (AFDM when 'all')."""
        if self.waveform == "ofdm":
            raise ConfigError("sensing commands need an OTFS or AFDM waveform")
        if self.waveform == "otfs":
            return "otfs", self.waveform_specs()[0][1]
        return "afdm", self.afdm_spec()

    def to_json_dict(self) -> dict:
        """Every field whose value is set, in JSON types; from_dict inverts it."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["snr_sweep"] = list(self.snr_sweep)
        return {name: value for name, value in d.items() if value is not None}


def load_config(path: str, seed: int | None = None) -> ScenarioConfig:
    """Parse and validate a JSON scenario file; `seed`, when given, replaces its seed."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if seed is not None:
        raw = {**raw, "seed": seed}
    return ScenarioConfig.from_dict(raw)
