"""Command-line front end: scenario presets, sweep tables, file emission.

Subcommands: effchan, ber, sense, ambiguity, demo-v2x. Every command is a
pure function of (config, seed). No frame is built here: link and sensing
draw them, the CLI tabulates and writes.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .channel import ChannelRealization, PathParams, sample_paths
from .config import ConfigError, ScenarioConfig, load_config
from .link import Constellation, SingularChannelError, _ber_sweep, _chunks, substream
from .modem import effective_channel
from .sensing import RadarTargetEstimate, _frame_ambiguity, _sense_trials, _threshold, sensing_rmse

log = logging.getLogger("ddwave")

# three-target structural demo: block size 36, 6x6 grid, tuned chirp
_FIG3_SCENARIO = {
    "waveform": "all", "n": 36, "k": 6, "l": 6, "ell_max": 3, "f_max": 2, "xi": 0,
    "cp_len": 3, "paths": 3,
}
_FIG3_TARGETS = {
    "integer": [(0, 0.0), (1, -2.0), (3, 1.0)],
    "fractional": [(0, 0.266), (1, -2.365), (3, 1.231)],
}


def _setup_logging():
    level = os.environ.get("DDWAVE_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(level=getattr(logging, level))


def _write_csv(path: str, columns: dict) -> None:
    """Write a table given as {header: column}, one row per column index.

    The bytes are those of `csv.writer` with its default dialect on rows of
    these values: CRLF line ends and floats as their shortest round-trip
    repr. Each column is a sequence of numbers or of names that need no
    quoting; a table with no rows is the header line alone.
    """
    cells = [map(str, np.asarray(col).tolist()) for col in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cells)), ""]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_array(a: np.ndarray, level: int) -> str:
    """A float array as `json.dumps(a.tolist(), indent=2)` nested `level` deep."""
    if len(a) == 0:
        return "[]"
    if a.ndim == 1:
        items = list(map(repr, a.tolist()))
        if not np.isfinite(a).all():
            items = [_JSON_SPECIAL.get(v, v) for v in items]
    else:
        items = [_json_array(row, level + 1) for row in a]
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


def _json_value(v, level: int) -> str:
    """`json.dumps(v, sort_keys=True, indent=2)` nested `level` deep.

    Takes dicts with str keys, lists, tuples, str, int, float, bool, None
    and float numpy arrays, which are written as the nested lists of their
    values, a whole row at a time (_json_array).
    """
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None or isinstance(v, bool):
        return _JSON_CONSTANTS[v]
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        text = float.__repr__(v)
        return _JSON_SPECIAL.get(text, text)
    if isinstance(v, np.ndarray):
        return _json_array(v, level)
    if isinstance(v, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_value(v[k], level + 1)}" for k in sorted(v)]
        brackets = "{}"
    elif isinstance(v, (list, tuple)):
        items = [_json_value(item, level + 1) for item in v]
        brackets = "[]"
    else:
        raise TypeError(f"cannot write {type(v).__name__} as JSON")
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


def _write_json(path: str, obj: dict) -> None:
    """Write `json.dump(obj, sort_keys=True, indent=2)` and a newline (see _json_value)."""
    with open(path, "w") as fh:
        fh.write(_json_value(obj, 0))
        fh.write("\n")


def _estimate_record(est: RadarTargetEstimate) -> dict:
    return {
        "ell": est.delay_norm_hat,
        "f": est.doppler_norm_hat,
        "gain_re": float(np.real(est.gain_hat)),
        "gain_im": float(np.imag(est.gain_hat)),
        "range_m": est.range_m,
        "velocity_mps": est.velocity_mps,
    }


def cmd_effchan(cfg: ScenarioConfig, out: str, fig3: bool = False, variant: str = "integer") -> list[str]:
    """Emit effective-channel heatmap CSVs (sparse, thresholded) plus JSON grids."""
    if fig3:
        # the preset's chirp is tuned afresh, so the scenario's c1/c2 do not carry over
        base = {k: v for k, v in cfg.to_json_dict().items() if k not in ("c1", "c2")}
        cfg = ScenarioConfig.from_dict({**base, **_FIG3_SCENARIO})
        paths = (PathParams(1.0 + 0.0j, ell, f) for ell, f in _FIG3_TARGETS[variant])
        chan = ChannelRealization(cfg.channel_config(), tuple(paths))
    else:
        chan = sample_paths(cfg.channel_config(), cfg.doppler_mode, substream(cfg.seed, 0))
    written = []
    for name, spec in cfg.waveform_specs():
        G = effective_channel(spec, chan)
        threshold = _threshold(spec)  # the direct-CSI detection threshold
        mag = np.abs(G)
        rows, cols = np.nonzero(mag > threshold)
        csv_path = os.path.join(out, f"effchan_{name}.csv")
        _write_csv(
            csv_path,
            {
                "row": rows,
                "col": cols,
                "re": G.real[rows, cols],
                "im": G.imag[rows, cols],
                "mag": mag[rows, cols],
            },
        )
        json_path = os.path.join(out, f"effchan_{name}.json")
        _write_json(
            json_path,
            {"waveform": name, "n": spec.n, "threshold": threshold, "magnitude": mag},
        )
        written.extend([csv_path, json_path])
    return written


def cmd_ber(cfg: ScenarioConfig, out: str) -> list[str]:
    """SNR sweep x waveform BER table from one _ber_sweep over all waveforms."""
    names, specs = zip(*cfg.waveform_specs())
    sweeps = _ber_sweep(specs, cfg.channel_config(), Constellation.by_name(cfg.constellation),
                        sorted(cfg.snr_sweep), cfg.frames, cfg.detector, cfg.seed, cfg.doppler_mode)
    table = {key: [] for key in ("snr_db", "waveform", "ber", "frames", "papr_db_p99")}
    for name, results in zip(names, sweeps):
        for res in results:
            row = (res.snr_db, name, res.ber, res.frames, res.papr_db_p99)
            for column, value in zip(table.values(), row):
                column.append(value)
    path = os.path.join(out, "ber.csv")
    _write_csv(path, table)
    return [path]


def cmd_sense(cfg: ScenarioConfig, out: str) -> list[str]:
    """Monte Carlo sensing sweep; RMSE per (SNR, method) plus example estimates.

    Trial t of SNR point i is sensing._sense_trials' trial of key (i, t), in
    the chunks of the BER frames. The example is trial 0 of the last point.
    """
    _, spec = cfg.sensing_spec()
    chan_cfg = cfg.channel_config()
    constellation = Constellation.by_name(cfg.constellation)
    sweep = sorted(cfg.snr_sweep)
    table = {
        key: []
        for key in ("snr_db", "method", "trials", "rmse_delay", "rmse_doppler", "misdetections")
    }
    for snr_idx, snr in enumerate(sweep):
        trials = [
            trial
            for chunk in _chunks(spec.n, cfg.trials)
            for trial in _sense_trials(
                spec, chan_cfg, constellation, snr, cfg.doppler_mode, cfg.seed,
                [(snr_idx, t) for t in chunk], cfg.refine_levels, cfg.refine_factor,
            )
        ]
        for m in trials[0][1]:
            errs = [sensing_rmse(ests[m], truth) for truth, ests in trials]
            paired = [e for e in errs if not np.isnan(e.rmse_delay)]
            rmse_d = float(np.sqrt(np.mean([e.rmse_delay**2 for e in paired]))) if paired else math.nan
            rmse_f = float(np.sqrt(np.mean([e.rmse_doppler**2 for e in paired]))) if paired else math.nan
            row = (float(snr), m, cfg.trials, rmse_d, rmse_f, sum(e.misdetections for e in errs))
            for column, value in zip(table.values(), row):
                column.append(value)
    example = {
        m: [_estimate_record(e.with_physical_units(cfg.f_s, cfg.f_c, spec.n, cfg.geometry)) for e in ests]
        for m, ests in trials[0][1].items()
    }
    csv_path = os.path.join(out, "sense.csv")
    _write_csv(csv_path, table)
    json_path = os.path.join(out, "estimates.json")
    _write_json(json_path, {"snr_db": sweep[-1], "geometry": cfg.geometry, "methods": example})
    return [csv_path, json_path]


def cmd_ambiguity(cfg: ScenarioConfig, out: str) -> list[str]:
    """Ambiguity maps of one random frame per waveform, plus a peak summary."""
    constellation = Constellation.by_name(cfg.constellation)
    written = []
    summary = {"waveform": [], "peak_mag": [], "psr_db": []}
    for idx, (name, spec) in enumerate(cfg.waveform_specs()):
        amb = _frame_ambiguity(spec, constellation, substream(cfg.seed, idx))
        mags = np.abs(amb.values)
        path = os.path.join(out, f"ambiguity_{name}.csv")
        _write_csv(
            path,
            {
                "delay_bin": np.repeat(amb.delay_bins.astype(int), mags.shape[1]),
                "doppler_bin": np.tile(amb.doppler_bins.astype(int), mags.shape[0]),
                "re": amb.values.real.ravel(),
                "im": amb.values.imag.ravel(),
                "mag": mags.ravel(),
            },
        )
        written.append(path)
        zero = (0, spec.n // 2)  # (delay 0, Doppler 0)
        peak = float(mags[zero])
        side = mags.copy()
        side[zero] = 0.0
        # a one-cell map (n = 1) has no sidelobes: the ratio is unbounded
        psr_db = float(20.0 * np.log10(peak / side.max())) if side.max() > 0 else float("inf")
        for column, value in zip(summary.values(), (name, peak, psr_db)):
            column.append(value)
    path = os.path.join(out, "ambiguity_summary.csv")
    _write_csv(path, summary)
    written.append(path)
    return written


def cmd_demo_v2x(out: str, geometry: str = "monostatic", seed: int = 1) -> list[str]:
    """Write the vehicular preset: 5.9 GHz carrier, 10 MHz bandwidth, 3 paths,
    N = 64, and f_max = 0 with fractional Doppler, since even a 500 km/h
    target stays below one Doppler bin there (the preset's notes)."""
    preset = {
        "schema": 1,
        "waveform": "all",
        "n": 64,
        "k": 8,
        "l": 8,
        "f_s": 1.0e7,
        "f_c": 5.9e9,
        "ell_max": 3,
        "f_max": 0,
        "xi": 1,
        "paths": 3,
        "cp_len": 3,
        "constellation": "qpsk",
        "snr_sweep": [0.0, 10.0, 20.0],
        "frames": 200,
        "trials": 25,
        "seed": seed,
        "doppler_mode": "fractional",
        "geometry": geometry,
        "notes": (
            "sub-bin Doppler regime: 500 km/h at 5.9 GHz gives ~5.47 kHz, "
            "normalized 64*nu/1e7 ~ 0.035 < 1 bin; fractional mode covers it"
        ),
    }
    cfg = ScenarioConfig.from_dict(preset)  # validates before writing
    path = os.path.join(out, "demo_v2x.json")
    _write_json(path, cfg.to_json_dict())
    return [path]


def _load(args) -> ScenarioConfig:
    if args.config:
        return load_config(args.config, seed=args.seed)
    return ScenarioConfig.from_dict({} if args.seed is None else {"seed": args.seed})


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="ddwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON scenario file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility, must be >= 1, and has no effect: "
                            "every command runs serially")
        p.add_argument("--out", default=None, help="output directory (default: config outputs)")

    p_eff = sub.add_parser("effchan", help="effective-channel heatmaps")
    common(p_eff)
    p_eff.add_argument("--fig3", action="store_true",
                       help="use the three-target structural preset (N=36, 6x6 grid)")
    p_eff.add_argument("--variant", choices=["integer", "fractional"], default="integer")

    p_ber = sub.add_parser("ber", help="Monte Carlo BER sweep")
    common(p_ber)

    p_sense = sub.add_parser("sense", help="Monte Carlo sensing RMSE sweep")
    common(p_sense)

    p_amb = sub.add_parser("ambiguity", help="waveform ambiguity maps")
    common(p_amb)

    p_demo = sub.add_parser("demo-v2x", help="write the 5.9 GHz vehicular preset config")
    common(p_demo, config=False)
    p_demo.add_argument("--geometry", choices=["monostatic", "bistatic"], default="monostatic")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    try:
        cfg = None if args.command == "demo-v2x" else _load(args)
        out = args.out or (cfg.outputs if cfg else "out")
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc.strerror or exc}") from None
        if args.command == "demo-v2x":
            written = cmd_demo_v2x(out, geometry=args.geometry, seed=args.seed if args.seed is not None else 1)
        elif args.command == "effchan":
            written = cmd_effchan(cfg, out, fig3=args.fig3, variant=args.variant)
        elif args.command == "ber":
            written = cmd_ber(cfg, out)
        elif args.command == "sense":
            written = cmd_sense(cfg, out)
        elif args.command == "ambiguity":
            written = cmd_ambiguity(cfg, out)
        else:  # pragma: no cover
            raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularChannelError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in written:
        log.info("wrote %s", path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
