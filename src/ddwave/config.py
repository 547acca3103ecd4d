"""Scenario configuration: JSON loading, validation, defaults."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, fields

from .channel import _DOPPLER_MODES, ChannelConfig
from .link import _DETECTORS, Constellation
from .modem import (
    AfdmSpec,
    OfdmSpec,
    OtfsSpec,
    _c1_merges_targets,
    _default_c2,
    afdm_orthogonality_ok,
    afdm_tune,
    otfs_orthogonality_ok,
)
from .sensing import _GEOMETRIES

log = logging.getLogger("ddwave")


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


_ALIASES = {"N": "n", "K": "k", "L": "l", "P": "paths", "p": "paths"}
_DERIVED = ("k", "l", "cp_len")  # None in a scenario: from_dict derives them
_WAVEFORMS = ("ofdm", "otfs", "afdm", "all")
# the fields one waveform alone reads, and what they set: away from its
# default, a field given to a scenario without its waveform exits 2
_WAVEFORM_FIELDS = (
    ("otfs", ("k", "l"), "the OTFS grid"),
    ("afdm", ("c1", "c2", "xi"), "the AFDM chirp"),
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; from_dict fills and checks every field.

    The defaults below are the ones a JSON scenario gets for fields it leaves
    out; None marks a value from_dict derives (k, l, cp_len) or leaves unset.
    """

    waveform: str = "all"       # one of _WAVEFORMS
    n: int = 64
    k: int | None = None        # otfs grid; n // the other when one is given, else sqrt(n)
    l: int | None = None
    xi: int = 0
    c1: float | None = None     # None means afdm_tune decides
    c2: float | None = None     # None means modem._default_c2
    cp_len: int | None = None   # None means ell_max
    f_s: float = 1.0e7          # Hz
    f_c: float = 5.9e9          # Hz
    ell_max: int = 3
    f_max: int = 2
    paths: int = 3
    constellation: str = "qpsk"
    snr_sweep: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    frames: int = 200
    seed: int = 1
    doppler_mode: str = "integer"
    outputs: str = "out"
    geometry: str = "monostatic"
    detector: str = "lmmse"
    trials: int = 50            # sensing Monte Carlo trials per SNR point
    refine_levels: int = 3
    refine_factor: int = 10
    notes: str | None = None
    schema: int = 1

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        defaults = {f.name: f.default for f in fields(ScenarioConfig)}
        data = dict(defaults)
        source: dict[str, str] = {}  # field -> the key that gave it
        for key, value in raw.items():
            name = _ALIASES.get(key, key)
            if name not in data:
                raise ConfigError(f"unknown config field {name!r}")
            if name in source:
                raise ConfigError(f"config field {name!r} given twice, as {source[name]!r} and {key!r}")
            source[name] = key
            data[name] = value
        if data["schema"] != 1:
            raise ConfigError(f"unsupported schema version {data['schema']!r} (expected 1)")
        for name, choices in (("waveform", _WAVEFORMS), ("doppler_mode", _DOPPLER_MODES),
                              ("geometry", _GEOMETRIES), ("detector", _DETECTORS)):
            if data[name] not in choices:
                raise ConfigError(f"{name} must be {'|'.join(choices)}, got {data[name]!r}")
        for name in ("constellation", "outputs"):
            if not isinstance(data[name], str):
                raise ConfigError(f"{name} must be a string, got {data[name]!r}")
        if not (data["notes"] is None or isinstance(data["notes"], str)):
            raise ConfigError(f"notes must be a string or null, got {data['notes']!r}")
        try:
            Constellation.by_name(data["constellation"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name in ("n", "ell_max", "f_max", "paths", "frames", "trials",
                     "refine_levels", "refine_factor", "xi", "seed", *_DERIVED):
            if not (_is_int(data[name]) or (data[name] is None and name in _DERIVED)):
                raise ConfigError(f"{name} must be an integer, got {data[name]!r}")
        for name, low in (("n", 1), ("seed", 0), ("paths", 1), ("frames", 1), ("trials", 1),
                          ("refine_levels", 0), ("refine_factor", 2), ("xi", 0), ("k", 1), ("l", 1)):
            if data[name] is not None and data[name] < low:
                raise ConfigError(f"{name} must be >= {low}, got {data[name]}")
        for name in ("f_s", "f_c"):
            if not _is_number(data[name]) or not 0 < data[name] < math.inf:
                raise ConfigError(f"{name} must be a positive number, got {data[name]!r}")
        for name in ("c1", "c2"):
            if data[name] is not None and not (_is_number(data[name]) and math.isfinite(data[name])):
                raise ConfigError(f"{name} must be a finite number, got {data[name]!r}")
        if data["cp_len"] is None:
            data["cp_len"] = data["ell_max"]
        for owner, names, what in _WAVEFORM_FIELDS:
            given = [name for name in names if data[name] != defaults[name]]
            if given and data["waveform"] not in (owner, "all"):
                raise ConfigError(f"{given[0]} sets {what}: waveform {data['waveform']} has none")
        if data["xi"] and data["c1"] is not None:
            raise ConfigError("xi sets the tuned AFDM chirp: a given c1 is not tuned")
        if data["waveform"] in ("otfs", "all"):
            n, given = data["n"], [name for name in ("k", "l") if data[name] is not None]
            if not given:
                root = math.isqrt(n)
                if root * root != n:
                    raise ConfigError(f"k and l required: n={n} is not a perfect square")
                data["k"] = data["l"] = root
            elif len(given) == 1:
                [name] = given
                if n % data[name]:
                    raise ConfigError(f"{name}={data[name]} does not divide n={n}: give both k and l")
                data["l" if name == "k" else "k"] = n // data[name]
            if data["k"] * data["l"] != data["n"]:
                raise ConfigError(
                    f"k*l must equal n, got {data['k']}*{data['l']} != {data['n']}"
                )
        sweep = data["snr_sweep"]
        # inf is the noiseless point; NaN and -inf would silently run noiseless too
        if not isinstance(sweep, (list, tuple)) or not all(
            _is_number(s) and -math.inf < s <= math.inf for s in sweep
        ):
            raise ConfigError(f"snr_sweep must be a list of SNRs in dB (no NaN or -inf), got {sweep!r}")
        if not sweep:
            raise ConfigError("snr_sweep must be nonempty")
        data["snr_sweep"] = tuple(float(s) for s in sweep)
        cfg = ScenarioConfig(**data)
        try:
            cfg.channel_config()  # its own checks: cp_len, ell_max and f_max ranges
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        cfg._report_orthogonality()
        return cfg

    def _report_orthogonality(self):
        if self.waveform in ("afdm", "all"):
            if self.c1 is None:
                if not afdm_orthogonality_ok(self.ell_max, self.f_max, self.xi, self.n):
                    log.warning(
                        "AFDM orthogonality fails for ell_max=%d f_max=%d xi=%d N=%d",
                        self.ell_max, self.f_max, self.xi, self.n,
                    )
            elif _c1_merges_targets(self.c1, self.ell_max, self.f_max, self.n):
                log.warning(
                    "AFDM orthogonality fails for ell_max=%d f_max=%d N=%d at the given c1=%r",
                    self.ell_max, self.f_max, self.n, self.c1,
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
        """The AFDM spec: c1 tuned (afdm_tune) unless given, c2 _default_c2 unless given."""
        c1 = self.c1
        if c1 is None:
            try:
                c1, _ = afdm_tune(self.ell_max, self.f_max, self.xi, self.n)
            except ValueError as exc:
                raise ConfigError(f"afdm tuning: {exc}") from None
        c2 = _default_c2(self.n) if self.c2 is None else self.c2
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
        spec = self.afdm_spec()
        try:
            spec.delay_stride
        except ValueError as exc:
            raise ConfigError(f"afdm sensing: {exc}") from None
        return "afdm", spec

    def to_json_dict(self) -> dict:
        """Every field whose value is set, in JSON types; from_dict inverts it."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["snr_sweep"] = list(self.snr_sweep)
        return {name: value for name, value in d.items() if value is not None}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; ConfigError for a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config field {key!r} given twice")
        obj[key] = value
    return obj


def load_config(path: str, seed: int | None = None) -> ScenarioConfig:
    """Parse and validate a JSON scenario file; `seed`, when given, replaces its seed."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {getattr(exc, 'strerror', None) or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if seed is not None:
        raw = {**raw, "seed": seed}
    return ScenarioConfig.from_dict(raw)
