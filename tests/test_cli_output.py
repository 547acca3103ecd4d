"""Byte format of the result files.

The package formats its tables and grids a whole column at a time. The
references here are the straightforward formatters: `csv.writer` over rows
of repr'd floats and `json.dump(obj, sort_keys=True, indent=2)` over nested
lists of Python floats. Every file the command line writes must match them
byte for byte.
"""

import csv
import errno
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddwave.channel import ChannelRealization, PathParams, sample_paths
from ddwave.cli import _CSV_BLOCK, _write_csv, _write_json, main
from ddwave.config import ScenarioConfig
from ddwave.link import Constellation, map_bits, run_ber_point
from ddwave.modem import effective_channel, modulate
from ddwave.sensing import ambiguity_map

GRIDS = np.random.default_rng(11)
EDGE_FLOATS = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e-05, 1e16, 0.1]

FIG3_SCENARIO = {
    "waveform": "all", "n": 36, "k": 6, "l": 6, "ell_max": 3, "f_max": 2,
    "xi": 0, "cp_len": 3, "paths": 3,
}
FIG3_TARGETS = {
    "integer": [(0, 0.0), (1, -2.0), (3, 1.0)],
    "fractional": [(0, 0.266), (1, -2.365), (3, 1.231)],
}


# ------------------------------------------------------------ references


def reference_csv(path, header, rows):
    """Rows go to `csv.writer` as they are; floats are repr'd first."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )


def reference_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def reference_effchan(out, cfg, chan):
    for name, spec in cfg.waveform_specs():
        G = effective_channel(spec, chan)
        threshold = 1.0 / (2 * spec.n)
        mag = np.abs(G)
        rows = [
            (r, c, float(G[r, c].real), float(G[r, c].imag), float(mag[r, c]))
            for r in range(spec.n)
            for c in range(spec.n)
            if mag[r, c] > threshold
        ]
        reference_csv(out / f"effchan_{name}.csv", ["row", "col", "re", "im", "mag"], rows)
        reference_json(
            out / f"effchan_{name}.json",
            {
                "waveform": name,
                "n": spec.n,
                "threshold": threshold,
                "magnitude": [[float(v) for v in row] for row in mag],
            },
        )


def reference_ambiguity(out, cfg):
    constellation = Constellation.by_name(cfg.constellation)
    summary = []
    for idx, (name, spec) in enumerate(cfg.waveform_specs()):
        bits = rng(cfg.seed, idx).integers(0, 2, size=spec.n * constellation.bits_per_symbol)
        s = modulate(spec, map_bits(bits, constellation))
        delays = list(range(spec.n))
        dopplers = list(range(-(spec.n // 2), spec.n // 2 + 1))
        amb = ambiguity_map(s, delays, dopplers)
        rows = [
            (
                int(amb.delay_bins[i]),
                int(amb.doppler_bins[j]),
                float(amb.values[i, j].real),
                float(amb.values[i, j].imag),
                float(np.abs(amb.values[i, j])),
            )
            for i in range(len(delays))
            for j in range(len(dopplers))
        ]
        reference_csv(out / f"ambiguity_{name}.csv",
                      ["delay_bin", "doppler_bin", "re", "im", "mag"], rows)
        mags = np.abs(amb.values)
        peak = float(mags[delays.index(0), dopplers.index(0)])
        side = mags.copy()
        side[delays.index(0), dopplers.index(0)] = 0.0
        summary.append((name, peak, float(20.0 * np.log10(peak / side.max()))))
    reference_csv(out / "ambiguity_summary.csv", ["waveform", "peak_mag", "psr_db"], summary)


def assert_same_files(got, want):
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in got.iterdir()) == names
    for name in names:
        assert read_bytes(got / name) == read_bytes(want / name), name


# ---------------------------------------------------------------- writers


def test_csv_writer_matches_csv_module(tmp_path):
    """Both sides of the rule: a table of numbers is formatted by _floattext,
    in one block or in several, and one with a names column never is."""
    for rows in (1, len(EDGE_FLOATS), 2 * _CSV_BLOCK + 3):
        values = np.resize(EDGE_FLOATS, rows)
        bits = np.random.default_rng(rows).integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
        numbers = {
            "count": np.arange(rows) - rows // 2,
            "value": values,
            "bits": bits,
            "listed": values[::-1].tolist(),
        }
        apart = {"value": values, "count": numbers["count"], "bits": bits}  # float cells not adjacent
        names = np.resize(["ofdm", "otfs", "afdm", "matched_filter", "direct_csi"], rows).tolist()
        for case, columns in enumerate((numbers, apart, {"name": names, **numbers})):
            got, want = tmp_path / f"got-{rows}-{case}.csv", tmp_path / f"want-{rows}-{case}.csv"
            _write_csv(got, columns)
            cells = [col.tolist() if isinstance(col, np.ndarray) else col for col in columns.values()]
            reference_csv(want, list(columns), zip(*cells))
            assert read_bytes(got) == read_bytes(want), (rows, list(columns))


def test_csv_writer_keeps_its_memory_bounded(tmp_path):
    # an ambiguity map's table at N = 256: 65,792 rows, about 4.6 MB of CSV; formatted
    # a block of rows at a time, the writer holds a block's text and workspace, not the file's
    rng = np.random.default_rng(9)
    rows = 256 * 257
    columns = {
        "delay_bin": np.repeat(np.arange(256), 257),
        "doppler_bin": np.tile(np.arange(-128, 129), 256),
        "re": 0.05 * rng.standard_normal(rows),
        "im": 0.05 * rng.standard_normal(rows),
        "mag": rng.random(rows),
    }
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "got.csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "got.csv").stat().st_size
    assert size > 4_000_000 and peak < size / 2


def test_csv_writer_refuses_columns_of_unequal_length(tmp_path):
    for columns in ({"row": np.arange(3), "mag": np.zeros(2)}, {"waveform": ["ofdm", "otfs", "afdm"], "ber": [0.5, 0.25]}):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "got.csv", columns)
        assert os.listdir(tmp_path) == []


def test_csv_writer_empty_table_is_header_only(tmp_path):
    columns = {"row": np.zeros(0, dtype=int), "mag": np.zeros(0)}
    _write_csv(tmp_path / "got.csv", columns)
    reference_csv(tmp_path / "want.csv", ["row", "mag"], [])
    assert read_bytes(tmp_path / "got.csv") == b"row,mag\r\n"
    assert read_bytes(tmp_path / "want.csv") == b"row,mag\r\n"


@pytest.mark.parametrize(
    "grid",
    [
        np.array([[0.5]]),
        np.array([EDGE_FLOATS, [-v for v in EDGE_FLOATS]]),
        np.array(EDGE_FLOATS).reshape(4, 2),
        np.zeros((1, 0)),
        np.zeros((0, 0)),
        # blocks of max(1, 4096 // width) rows: a short last block, one row
        # wider than the block, and nan, inf and -inf only in the last block
        GRIDS.random((17, 256)),
        GRIDS.random((1, 5000)),
        np.vstack([GRIDS.random((2, 4096)), [[float("nan"), float("inf"), float("-inf")] * 1365 + [0.5]]]),
        GRIDS.random((300, 20)).astype(np.float32),
        GRIDS.random((20, 300)).T,
        GRIDS.random((40, 300))[::2],
        # any other array goes to the json module as its tolist()
        np.array([[True, False], [False, True]]),
        np.array([[1, -2], [3, 2**40]]),
    ],
    ids=["1x1", "2x8", "4x2", "1x0", "0x0", "17x256", "1x5000", "3x4096-nonfinite", "float32",
         "transposed", "strided", "bool", "int"],
)
def test_json_writer_matches_json_module(tmp_path, grid):
    obj = {"waveform": "afdm", "n": len(grid), "threshold": 1e-05, "magnitude": grid}
    _write_json(tmp_path / "got.json", obj)
    reference_json(tmp_path / "want.json", {**obj, "magnitude": grid.tolist()})
    assert read_bytes(tmp_path / "got.json") == read_bytes(tmp_path / "want.json")


def test_json_writer_keeps_its_memory_bounded(tmp_path):
    # a 1024 x 256 grid is about 6.9 MB of JSON; formatted a block of rows at
    # a time, the writer holds one block's text and workspace whatever the
    # grid's length, so its peak does not grow with the document
    rng = np.random.default_rng(5)
    _write_json(tmp_path / "warm.json", {"magnitude": rng.random((2, 2))})  # the kernel's tables, built once
    peaks, sizes = [], []
    for rows in (256, 1024):
        grid = rng.random((rows, 256))
        obj = {"waveform": "otfs", "n": 256, "threshold": 1e-05, "magnitude": grid}
        tracemalloc.start()
        try:
            _write_json(tmp_path / "got.json", obj)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append((tmp_path / "got.json").stat().st_size)
        reference_json(tmp_path / "want.json", {**obj, "magnitude": grid.tolist()})
        assert read_bytes(tmp_path / "got.json") == read_bytes(tmp_path / "want.json")
    assert sizes[1] > 6_000_000
    assert peaks[1] < 1.1 * peaks[0] and peaks[1] < sizes[1] / 4


@pytest.mark.parametrize(
    "obj",
    [
        {
            "snr_db": 20.0,
            "geometry": "monostatic",
            "methods": {"indirect_ml": [{"f": -0.0, "ell": 3}], "direct_csi": []},
            "notes": None,
            "sweep": [1e16, 5e-324],
            "empty": {},
        },
        {},
    ],
    ids=["nested", "empty"],
)
def test_json_writer_matches_json_module_without_arrays(tmp_path, obj):
    _write_json(tmp_path / "got.json", obj)
    reference_json(tmp_path / "want.json", obj)
    assert read_bytes(tmp_path / "got.json") == read_bytes(tmp_path / "want.json")


def test_json_writer_refuses_a_key_that_is_not_a_string(tmp_path):
    with pytest.raises(TypeError):
        _write_json(tmp_path / "got.json", {1: 0.5})
    assert os.listdir(tmp_path) == []


def test_a_value_that_fails_to_encode_leaves_the_old_file_whole(tmp_path):
    path = tmp_path / "got.json"
    _write_json(path, {"a": 1})
    before = read_bytes(path)
    for bad in (object(), np.array([[1 + 2j]])):  # a complex grid has no JSON form
        with pytest.raises(TypeError):
            _write_json(path, {"a": 2, "b": bad})  # "a" is written before "b" fails
        assert os.listdir(tmp_path) == ["got.json"] and read_bytes(path) == before
        with pytest.raises(TypeError):
            _write_json(tmp_path / "new.json", {"a": 2, "b": bad})
        assert os.listdir(tmp_path) == ["got.json"]


@pytest.mark.parametrize("blocked", ["ber.csv", "ber.csv.tmp"])
def test_a_result_file_that_cannot_be_written_exits_2_and_leaves_no_file(tmp_path, capsys, blocked):
    """A directory where the result file, or its temporary name, should go:
    the sweep's result cannot be written, so the run exits 2 with one line,
    and only the directory, untouched, is left."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({**SMALL, "frames": 1, "snr_sweep": [10.0]}))
    (out / blocked).mkdir(parents=True)
    assert main(["ber", "--config", str(cfg), "--out", str(out)]) == 2
    path = out / "ber.csv"
    assert capsys.readouterr().err == f"config error: cannot write {path}: {os.strerror(errno.EISDIR)}\n"
    assert os.listdir(out) == [blocked] and os.listdir(out / blocked) == []


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, "\u00e9\u4e2d\U0001f600"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(obj=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=5))
def test_json_writer_matches_json_module_on_any_nesting(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "got.json"
    _write_json(path, obj)
    want = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert read_bytes(path) == want.encode()


# --------------------------------------------------------- command files


SMALL = {"waveform": "all", "n": 16, "ell_max": 1, "f_max": 1, "seed": 5}


def run(tmp_path, argv, scenario=SMALL):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scenario))
    got, want = tmp_path / "got", tmp_path / "want"
    want.mkdir()
    assert main([*argv, "--config", str(cfg), "--out", str(got)]) == 0
    return ScenarioConfig.from_dict(scenario), got, want


def test_effchan_sampled_channel_bytes(tmp_path):
    cfg, got, want = run(tmp_path, ["effchan"])
    chan = sample_paths(cfg.channel_config(), cfg.doppler_mode, rng(cfg.seed, 0))
    reference_effchan(want, cfg, chan)
    assert_same_files(got, want)


@pytest.mark.parametrize("variant", ["integer", "fractional"])
def test_effchan_fig3_bytes(tmp_path, variant):
    _, got, want = run(tmp_path, ["effchan", "--fig3", "--variant", variant])
    cfg = ScenarioConfig.from_dict(FIG3_SCENARIO)
    chan = ChannelRealization(
        cfg.channel_config(),
        tuple(PathParams(1.0 + 0.0j, ell, f) for ell, f in FIG3_TARGETS[variant]),
    )
    reference_effchan(want, cfg, chan)
    assert_same_files(got, want)


def test_ambiguity_bytes(tmp_path):
    cfg, got, want = run(tmp_path, ["ambiguity"])
    reference_ambiguity(want, cfg)
    assert_same_files(got, want)


def test_ber_bytes(tmp_path):
    scenario = {**SMALL, "snr_sweep": [10.0, 0.0], "frames": 3}
    cfg, got, want = run(tmp_path, ["ber", "--threads", "1"], scenario)
    constellation = Constellation.by_name(cfg.constellation)
    rows = []
    for name, spec in cfg.waveform_specs():
        for snr in sorted(cfg.snr_sweep):
            res = run_ber_point(spec, cfg.channel_config(), constellation, snr, cfg.frames,
                                detector=cfg.detector, seed=cfg.seed,
                                doppler_mode=cfg.doppler_mode)
            rows.append((res.snr_db, name, res.ber, res.frames, res.papr_db_p99))
    reference_csv(want / "ber.csv", ["snr_db", "waveform", "ber", "frames", "papr_db_p99"], rows)
    assert_same_files(got, want)
