"""Command-line front end: scenario presets, sweep tables, file emission.

Subcommands: effchan, ber, sense, ambiguity, demo-v2x. Every command is a
pure function of (config, seed). Link and sensing draw and chunk the frames
and score the maps; the CLI knows no chunk size and no grid index, and only
tabulates and writes, as bytes. The json module encodes every JSON value
but a 2-D float array (an effchan magnitude grid). That grid, and a CSV table
all of whose columns are numbers (the effchan and ambiguity maps), go through
one loop, _write_table, that formats them in numpy a block of rows at a time
(_floattext.Table) into the same bytes as repr's and str's.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import _floattext, _lapack
from .channel import ChannelRealization, PathParams, sample_paths
from .config import ConfigError, ScenarioConfig, load_config
from .link import Constellation, SingularChannelError, _ber_sweep, substream
from .modem import effective_channel
from .sensing import _GEOMETRIES, RadarTargetEstimate, _frame_ambiguity, _sense_trials, _threshold, sensing_rmse

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


@contextlib.contextmanager
def _result_file(path):
    """A binary file for path's contents, written at path + ".tmp" beside it
    and renamed onto path (os.replace) when the block ends, so path is never
    left half-written: if the block raises, the temporary file is removed. An
    OSError is raised as ConfigError "cannot write <path>: <strerror>"."""
    tmp = f"{path}.tmp"
    opened = False
    try:
        with open(tmp, "wb") as fh:
            opened = True
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if opened and os.path.lexists(tmp):
            os.remove(tmp)


_CSV_BLOCK = 4096  # cells of one kind formatted per block of a table's rows


def _write_table(fh, parts: list, prefixes: list, end: str, sep: str = "", nonfinite=None) -> None:
    """Write the rows of parts, 2-D number arrays side by side, as
    _floattext.Table formats them: each cell after its prefix, each row
    followed by end, the rows joined by sep, and nan, inf and -inf as repr
    writes them or as the names in nonfinite. Each block of at most
    _CSV_BLOCK cells of one kind is written as it is formatted, so memory
    stays bounded."""
    table = _floattext.Table(parts, prefixes, end + sep, _CSV_BLOCK, nonfinite)
    rows = len(parts[0])
    for start in range(0, rows, table.block):
        text = table.text(start)
        fh.write(text if start + table.block < rows else memoryview(text)[: len(text) - len(sep)])


def _write_csv(path: str, columns: dict) -> None:
    """Write a table given as {header: column}, one row per column index.

    The bytes are those of `csv.writer` with its default dialect on rows of
    these values: CRLF line ends and floats as their shortest round-trip
    repr. Each column is a sequence of numbers or of names that need no
    quoting, and all have one length (ValueError otherwise); a table with no
    rows is the header line alone. The rows are written a block at a time,
    so memory stays bounded, to a temporary file that replaces path once
    whole (_result_file). A table whose columns are all float or integer
    arrays of at most 8 bytes is formatted in numpy (_write_table: the same
    repr and str bytes); any other, such as one with a column of names, goes
    through `map(str, ...)`.
    """
    cols = [np.asarray(col) for col in columns.values()]
    rows = len(cols[0]) if cols else 0
    if any(len(col) != rows for col in cols):
        raise ValueError(f"columns of unequal length: {dict(zip(columns, map(len, cols)))}")
    with _result_file(path) as fh:
        fh.write((",".join(columns) + "\r\n").encode())
        if rows and all(col.dtype.kind in "fiu" and col.itemsize <= 8 for col in cols):
            _write_table(fh, [col[:, None] for col in cols], ["", *[","] * (len(cols) - 1)], "\r\n")
        elif rows:
            block = max(1, _CSV_BLOCK // len(cols))  # every cell is one kind, text
            for start in range(0, rows, block):
                cells = [map(str, col[start : start + block].tolist()) for col in cols]
                fh.write("".join(",".join(row) + "\r\n" for row in zip(*cells)).encode())


def _write_rows(path: str, header: tuple, rows: list) -> None:
    """Write a nonempty list of row tuples under header, transposed into _write_csv's columns."""
    _write_csv(path, dict(zip(header, zip(*rows))))


def _write_json(path: str, obj: dict) -> None:
    """Write `json.dump(obj, sort_keys=True, indent=2)` and a newline.

    obj's keys must be str. The stdlib encodes each top-level value as it is
    written, an ndarray as its `tolist()`, except a nonempty 2-D float array,
    such as an effchan magnitude grid: its rows are formatted in numpy
    (_write_table: repr's bytes, with nan, inf and -inf written as JSON's
    NaN, Infinity and -Infinity) a block at a time, so the document is never
    held whole. A value that fails to encode leaves no file (_result_file).
    """
    with _result_file(path) as fh:
        fh.write(b"{")
        for i, key in enumerate(sorted(obj)):
            fh.write((("," if i else "") + "\n  " + encode_basestring_ascii(key) + ": ").encode())
            v = obj[key]
            if isinstance(v, np.ndarray) and v.ndim == 2 and v.size and v.dtype.kind == "f" and v.itemsize <= 8:
                # one list per row, nested one deep
                fh.write(b"[\n    ")
                _write_table(fh, [v], ["[\n      ", *[",\n      "] * (v.shape[1] - 1)], "\n    ]", ",\n    ",
                             ("NaN", "Infinity", "-Infinity"))
                fh.write(b"\n  ]")
            else:
                v = v.tolist() if isinstance(v, np.ndarray) else v
                fh.write(json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n  ").encode())
        fh.write(b"\n}\n" if obj else b"}\n")


def _estimate_record(est: RadarTargetEstimate) -> dict:
    return {
        "ell": est.delay_norm_hat,
        "f": est.doppler_norm_hat,
        "gain_re": float(np.real(est.gain_hat)),
        "gain_im": float(np.imag(est.gain_hat)),
        "range_m": est.range_m,
        "velocity_mps": est.velocity_mps,
    }


def cmd_effchan(cfg: ScenarioConfig, out: str, fig3: bool = False, variant: str | None = None) -> list[str]:
    """Emit effective-channel heatmap CSVs (sparse, thresholded) plus JSON grids.
    variant picks the Fig. 3 preset's targets (default integer); raises
    ConfigError when given without fig3, which alone reads it."""
    if variant is not None and not fig3:
        raise ConfigError(f"--variant {variant} needs --fig3: only the Fig. 3 preset has variants")
    if fig3:
        # the preset's chirp is tuned afresh, so the scenario's c1/c2 do not carry over
        base = {k: v for k, v in cfg.to_json_dict().items() if k not in ("c1", "c2")}
        cfg = ScenarioConfig.from_dict({**base, **_FIG3_SCENARIO})
        paths = (PathParams(1.0 + 0.0j, ell, f) for ell, f in _FIG3_TARGETS[variant or "integer"])
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
    rows = [(res.snr_db, name, res.ber, res.frames, res.papr_db_p99)
            for name, results in zip(names, sweeps) for res in results]
    path = os.path.join(out, "ber.csv")
    _write_rows(path, ("snr_db", "waveform", "ber", "frames", "papr_db_p99"), rows)
    return [path]


def cmd_sense(cfg: ScenarioConfig, out: str) -> list[str]:
    """Monte Carlo sensing sweep; RMSE per (SNR, method) plus example estimates.

    Trial t of SNR point i is sensing._sense_trials' trial of key (i, t).
    The example is trial 0 of the last point.
    """
    _, spec = cfg.sensing_spec()
    chan_cfg = cfg.channel_config()
    constellation = Constellation.by_name(cfg.constellation)
    sweep = sorted(cfg.snr_sweep)
    rows = []
    for snr_idx, snr in enumerate(sweep):
        trials = _sense_trials(spec, chan_cfg, constellation, snr, cfg.doppler_mode, cfg.seed,
                               [(snr_idx, t) for t in range(cfg.trials)], cfg.refine_levels, cfg.refine_factor)
        for m in trials[0][1]:
            errs = [sensing_rmse(ests[m], truth) for truth, ests in trials]
            paired = [e for e in errs if not np.isnan(e.rmse_delay)]
            rmse_d = float(np.sqrt(np.mean([e.rmse_delay**2 for e in paired]))) if paired else math.nan
            rmse_f = float(np.sqrt(np.mean([e.rmse_doppler**2 for e in paired]))) if paired else math.nan
            rows.append((float(snr), m, cfg.trials, rmse_d, rmse_f, sum(e.misdetections for e in errs)))
    example = {
        m: [_estimate_record(e.with_physical_units(cfg.f_s, cfg.f_c, spec.n, cfg.geometry)) for e in ests]
        for m, ests in trials[0][1].items()
    }
    csv_path = os.path.join(out, "sense.csv")
    _write_rows(csv_path, ("snr_db", "method", "trials", "rmse_delay", "rmse_doppler", "misdetections"), rows)
    json_path = os.path.join(out, "estimates.json")
    _write_json(json_path, {"snr_db": sweep[-1], "geometry": cfg.geometry, "methods": example})
    return [csv_path, json_path]


def cmd_ambiguity(cfg: ScenarioConfig, out: str) -> list[str]:
    """Ambiguity maps of one random frame per waveform, plus a peak summary."""
    constellation = Constellation.by_name(cfg.constellation)
    written, summary = [], []
    for idx, (name, spec) in enumerate(cfg.waveform_specs()):
        amb, peak, psr_db = _frame_ambiguity(spec, constellation, substream(cfg.seed, idx))
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
        summary.append((name, peak, psr_db))
    path = os.path.join(out, "ambiguity_summary.csv")
    _write_rows(path, ("waveform", "peak_mag", "psr_db"), summary)
    written.append(path)
    return written


def cmd_demo_v2x(out: str, geometry: str = "monostatic", seed: int = 1) -> list[str]:
    """Write the vehicular preset, every field (to_json_dict): the schema's 5.9 GHz carrier,
    10 MHz bandwidth, 3 paths and N = 64, with f_max = 0 and fractional Doppler,
    since even a 500 km/h target stays below one Doppler bin there (the notes)."""
    preset = {
        "f_max": 0,
        "xi": 1,
        "snr_sweep": [0.0, 10.0, 20.0],
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
    parser = argparse.ArgumentParser(
        prog="ddwave", description="OFDM, OTFS and AFDM over doubly dispersive channels: maps, BER and sensing.")
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
    p_eff.add_argument("--variant", choices=list(_FIG3_TARGETS), default=None,
                       help="the preset's targets (default integer); needs --fig3")

    p_ber = sub.add_parser("ber", help="Monte Carlo BER sweep")
    common(p_ber)

    p_sense = sub.add_parser("sense", help="Monte Carlo sensing RMSE sweep")
    common(p_sense)

    p_amb = sub.add_parser("ambiguity", help="waveform ambiguity maps")
    common(p_amb)

    p_demo = sub.add_parser("demo-v2x", help="write the 5.9 GHz vehicular preset config")
    common(p_demo, config=False)
    p_demo.add_argument("--geometry", choices=_GEOMETRIES, default="monostatic")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    with _lapack.banded().one_thread() as pinned:  # BLAS's results then depend on no thread count
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
                if args.fig3 and args.seed is not None:
                    log.warning("--seed %d has no effect with --fig3: the Fig. 3 preset's paths are fixed", args.seed)
                written = cmd_effchan(cfg, out, fig3=args.fig3, variant=args.variant)
            elif args.command == "ber":
                if cfg.detector == "zf" and not pinned:  # a ZF refusal names the SVD's condition number
                    log.warning("numpy bundles no OpenBLAS whose thread count can be set, so the condition "
                                "number an exit-3 message names may depend on BLAS's thread count")
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
