"""Tests for scenario config validation and the command-line entry point."""

import contextlib
import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import ddwave
import ddwave._lapack
import ddwave.cli
from ddwave.cli import _parser, _setup_logging, main
from ddwave.config import ConfigError, ScenarioConfig, load_config
from ddwave.modem import AfdmSpec, OtfsSpec, afdm_tune, predict_support


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ------------------------------------------------------------------- config


def test_default_config_values():
    cfg = ScenarioConfig.from_dict({})
    assert cfg.waveform == "all"
    assert cfg.n == 64
    assert (cfg.k, cfg.l) == (8, 8)  # 64 is square, grid inferred
    assert cfg.ell_max == 3 and cfg.f_max == 2 and cfg.paths == 3
    assert cfg.cp_len == 3  # defaults to ell_max
    assert cfg.snr_sweep == (0.0, 5.0, 10.0, 15.0, 20.0)
    assert cfg.frames == 200 and cfg.trials == 50 and cfg.seed == 1
    assert cfg.doppler_mode == "integer" and cfg.detector == "lmmse"
    assert cfg.constellation == "qpsk" and cfg.geometry == "monostatic"
    assert cfg.outputs == "out"
    assert cfg.refine_levels == 3 and cfg.refine_factor == 10
    assert cfg.c1 is None and cfg.c2 is None


def test_minimal_config_tunes_chirp_rates():
    cfg = ScenarioConfig.from_dict({"waveform": "afdm", "N": 64})
    spec = cfg.afdm_spec()
    assert spec.c1 == 5 / 128
    assert spec.c2 == 1 / 8192
    assert spec.delay_stride == 5


def test_uppercase_aliases_accepted():
    cfg = ScenarioConfig.from_dict(
        {"waveform": "otfs", "N": 36, "K": 6, "L": 6, "P": 2}
    )
    assert (cfg.n, cfg.k, cfg.l, cfg.paths) == (36, 6, 6, 2)
    assert ScenarioConfig.from_dict({"p": 5}).paths == 5


def test_cp_len_shorter_than_delay_spread_rejected():
    with pytest.raises(ConfigError, match="cp_len"):
        ScenarioConfig.from_dict({"cp_len": 1, "ell_max": 3})


def test_otfs_grid_product_must_match_block_size():
    with pytest.raises(ConfigError, match="must equal n"):
        ScenarioConfig.from_dict({"waveform": "otfs", "n": 36, "k": 5, "l": 6})


def test_otfs_non_square_needs_explicit_grid():
    with pytest.raises(ConfigError, match="perfect square"):
        ScenarioConfig.from_dict({"waveform": "otfs", "n": 48})
    cfg = ScenarioConfig.from_dict({"waveform": "otfs", "n": 48, "k": 6, "l": 8})
    assert (cfg.k, cfg.l) == (6, 8)


@pytest.mark.parametrize("given, grid", [
    ({"n": 64, "k": 16}, (16, 4)),
    ({"n": 64, "l": 2}, (32, 2)),
    ({"n": 48, "k": 6}, (6, 8)),  # n not a square
    ({"n": 37, "l": 37}, (1, 37)),
])
def test_otfs_grid_derives_the_missing_side_from_the_given_one(given, grid):
    for waveform in ("otfs", "all"):
        cfg = ScenarioConfig.from_dict({"waveform": waveform, **given})
        assert (cfg.k, cfg.l) == grid
        otfs = dict(cfg.waveform_specs())["otfs"]
        assert (otfs.k, otfs.l) == grid


@pytest.mark.parametrize("patch, message", [
    ({"waveform": "otfs", "n": 64, "k": 7}, "k=7 does not divide n=64: give both k and l"),
    ({"n": 36, "l": 5}, "l=5 does not divide n=36: give both k and l"),
])
def test_a_grid_side_that_does_not_divide_n_exits_2(tmp_path, capsys, patch, message):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(patch)
    assert str(exc.value) == message
    assert main(["ber", "--config", write_config(tmp_path, patch), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("patch, message", [
    ({"waveform": "afdm", "n": 64, "k": 5, "l": 3}, "k sets the OTFS grid: waveform afdm has none"),
    ({"waveform": "ofdm", "n": 64, "k": 7}, "k sets the OTFS grid: waveform ofdm has none"),
    ({"waveform": "afdm", "n": 64, "L": 8}, "l sets the OTFS grid: waveform afdm has none"),
    ({"waveform": "ofdm", "c1": 0.3}, "c1 sets the AFDM chirp: waveform ofdm has none"),
    ({"waveform": "otfs", "c1": 0.0}, "c1 sets the AFDM chirp: waveform otfs has none"),
    ({"waveform": "otfs", "n": 64, "c2": 0.001}, "c2 sets the AFDM chirp: waveform otfs has none"),
    ({"waveform": "otfs", "xi": 4}, "xi sets the AFDM chirp: waveform otfs has none"),
    ({"waveform": "ofdm", "xi": 1, "c2": 0.0}, "c2 sets the AFDM chirp: waveform ofdm has none"),
    # the table's order: the grid before the chirp
    ({"waveform": "ofdm", "c1": 0.3, "k": 8}, "k sets the OTFS grid: waveform ofdm has none"),
])
def test_a_grid_given_with_no_otfs_waveform_exits_2(tmp_path, capsys, patch, message):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(patch)
    assert str(exc.value) == message
    assert main(["ber", "--config", write_config(tmp_path, patch), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("waveform", ["ofdm", "otfs"])
def test_a_chirp_field_at_its_default_loads_with_any_waveform(waveform):
    cfg = ScenarioConfig.from_dict({"waveform": waveform, "xi": 0, "c1": None, "c2": None})
    assert [name for name, _ in cfg.waveform_specs()] == [waveform]


def test_a_given_c1_is_never_tuned(tmp_path, capsys):
    """At n = 16 tuning is infeasible, but a given c1 is not tuned: it runs,
    and the omitted c2 is afdm_tune's 1/(2N^2)."""
    scenario = {"waveform": "afdm", "n": 16, "c1": 0.0123, "frames": 2, "snr_sweep": [10.0]}
    spec = ScenarioConfig.from_dict(scenario).afdm_spec()
    assert (spec.c1, spec.c2) == (0.0123, afdm_tune(1, 1, 0, 16)[1]) == (0.0123, 1 / 512)
    assert main(["ber", "--config", write_config(tmp_path, scenario), "--out", str(tmp_path / "out")]) == 0
    assert len(read_csv(tmp_path / "out" / "ber.csv")) == 1
    # a given c2 beside a tuned c1 is kept as given
    spec = ScenarioConfig.from_dict({"waveform": "afdm", "n": 36, "c2": 0.011}).afdm_spec()
    assert (spec.c1, spec.c2) == (afdm_tune(3, 2, 0, 36)[0], 0.011)


def test_xi_with_a_given_c1_exits_2(tmp_path, capsys):
    message = "xi sets the tuned AFDM chirp: a given c1 is not tuned"
    for waveform in ("afdm", "all"):
        patch = {"waveform": waveform, "c1": 0.0123, "xi": 1}
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(patch)
        assert str(exc.value) == message
        assert main(["ber", "--config", write_config(tmp_path, patch), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert ScenarioConfig.from_dict({"waveform": "afdm", "c1": 0.0123, "xi": 0}).xi == 0


@pytest.mark.parametrize("text, message", [
    ('{"n": 64, "N": 36}', "config field 'n' given twice, as 'n' and 'N'"),
    ('{"paths": 2, "P": 5, "p": 1}', "config field 'paths' given twice, as 'paths' and 'P'"),
    ('{"p": 1, "K": 8, "k": 8}', "config field 'k' given twice, as 'K' and 'k'"),
    ('{"n": 64, "n": 36}', "config field 'n' given twice"),
    ('{"seed": 1, "frames": 2, "seed": 3}', "config field 'seed' given twice"),
])
def test_a_field_given_twice_exits_2(tmp_path, capsys, text, message):
    """An alias beside its field, or a JSON key given twice, is refused: no
    value silently wins."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_config(str(path), seed=4)
    assert str(exc.value) == message
    assert main(["ber", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("notes", [5, ["a"], {"text": "a"}, True])
def test_non_string_notes_exits_2(tmp_path, capsys, notes):
    message = f"notes must be a string or null, got {notes!r}"
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict({"notes": notes})
    assert str(exc.value) == message
    assert main(["ber", "--config", write_config(tmp_path, {"notes": notes}), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    for notes in (None, "", "a note"):
        assert ScenarioConfig.from_dict({"notes": notes}).notes == notes


@pytest.mark.parametrize("outputs", [5, ["a"], None, {"dir": "out"}])
def test_non_string_outputs_exits_2(tmp_path, capsys, monkeypatch, outputs):
    message = f"outputs must be a string, got {outputs!r}"
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict({"outputs": outputs})
    assert str(exc.value) == message
    monkeypatch.chdir(tmp_path)  # no --out: the run would write under `outputs`
    assert main(["ber", "--config", write_config(tmp_path, {"outputs": outputs, "frames": 1})]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown config field"):
        ScenarioConfig.from_dict({"bandwidth": 1e6})


@pytest.mark.parametrize(
    "patch",
    [
        {"waveform": "gfdm"},
        {"doppler_mode": "half"},
        {"geometry": "triangular"},
        {"detector": "sphere"},
        {"constellation": "qam64"},
        {"schema": 2},
        {"snr_sweep": []},
        {"n": 0},
        {"f_s": 0},
        {"f_c": -1.0},
        {"frames": "many"},
        {"n": True},
        {"seed": -1},
        {"snr_sweep": ["x"]},
        {"snr_sweep": 5},
        {"snr_sweep": [float("nan")]},
        {"snr_sweep": [10.0, float("-inf")]},
        {"constellation": 5},
        {"waveform": "afdm", "c1": "a"},
        {"waveform": "afdm", "c2": float("inf")},
        {"waveform": "afdm", "c1": True},
        {"k": "8", "l": 8},
        {"k": 8, "l": 8.0},
        {"k": -8, "l": -8},
        {"f_s": True},
        {"f_c": float("nan")},
    ],
)
def test_invalid_values_rejected(patch):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(patch)


def test_infinite_snr_is_the_noiseless_point():
    assert ScenarioConfig.from_dict({"snr_sweep": [float("inf"), 3]}).snr_sweep == (float("inf"), 3.0)


def test_round_trip_through_json_dict():
    cfg = ScenarioConfig.from_dict(
        {"waveform": "otfs", "n": 48, "k": 6, "l": 8, "seed": 9,
         "snr_sweep": [3, 7], "notes": "round trip"}
    )
    again = ScenarioConfig.from_dict(cfg.to_json_dict())
    assert again == cfg


def test_afdm_tuning_failure_surfaces_as_config_error(caplog):
    # feasible channel geometry, but no chirp rate separates the targets
    with caplog.at_level(logging.WARNING, logger="ddwave"):
        cfg = ScenarioConfig.from_dict(
            {"waveform": "afdm", "n": 12, "ell_max": 2, "f_max": 2}
        )
    assert any("orthogonality" in r.getMessage() for r in caplog.records)
    with pytest.raises(ConfigError, match="tuning"):
        cfg.afdm_spec()


def test_sensing_spec_selection():
    assert ScenarioConfig.from_dict({}).sensing_spec()[0] == "afdm"
    cfg = ScenarioConfig.from_dict({"waveform": "otfs", "n": 16})
    name, spec = cfg.sensing_spec()
    assert name == "otfs" and isinstance(spec, OtfsSpec)
    with pytest.raises(ConfigError, match="sensing"):
        ScenarioConfig.from_dict({"waveform": "ofdm"}).sensing_spec()


def test_waveform_specs_fixed_order():
    names = [name for name, _ in ScenarioConfig.from_dict({}).waveform_specs()]
    assert names == ["ofdm", "otfs", "afdm"]


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/scenario.json")


def test_load_config_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "waveform": afdm\n}\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(path))


def test_load_config_requires_object_root(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(str(path))


# ------------------------------------------------------------ CLI: effchan


FIG3_TARGETS = [(0, 0), (1, -2), (3, 1)]


def fig3_expected_support(spec):
    sup = set()
    for ell, f in FIG3_TARGETS:
        sup |= {(r, c) for r, c in predict_support(spec, ell, f)}
    return sup


def csv_cells(path):
    return {(int(r["row"]), int(r["col"])) for r in read_csv(path)}


def test_effchan_fig3_matches_predicted_supports(tmp_path):
    assert main(["effchan", "--fig3", "--out", str(tmp_path)]) == 0
    c1, c2 = afdm_tune(3, 2, 0, 36)
    afdm = AfdmSpec(36, c1, c2, xi=0, cp_len=3)
    assert csv_cells(tmp_path / "effchan_afdm.csv") == fig3_expected_support(afdm)
    otfs = OtfsSpec(6, 6, cp_len=3)
    assert csv_cells(tmp_path / "effchan_otfs.csv") == fig3_expected_support(otfs)
    meta = json.loads((tmp_path / "effchan_afdm.json").read_text())
    assert meta["n"] == 36
    assert meta["threshold"] == pytest.approx(1 / 72)
    assert len(meta["magnitude"]) == 36 and len(meta["magnitude"][0]) == 36


def test_effchan_fig3_fractional_leaks_off_support(tmp_path):
    assert main(["effchan", "--fig3", "--variant", "fractional",
                 "--out", str(tmp_path)]) == 0
    c1, c2 = afdm_tune(3, 2, 0, 36)
    afdm = AfdmSpec(36, c1, c2, xi=0, cp_len=3)
    cells = csv_cells(tmp_path / "effchan_afdm.csv")
    assert cells - fig3_expected_support(afdm)  # inter-bin leakage shows up


def test_effchan_variant_without_fig3_exits_2(tmp_path, capsys):
    # only the Fig. 3 preset has variants; a sampled channel would ignore the flag
    for variant in ("integer", "fractional"):
        assert main(["effchan", "--variant", variant, "--out", str(tmp_path)]) == 2
        message = f"--variant {variant} needs --fig3: only the Fig. 3 preset has variants"
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.iterdir())
    # --fig3 alone means the integer variant
    assert main(["effchan", "--fig3", "--out", str(tmp_path / "default")]) == 0
    assert main(["effchan", "--fig3", "--variant", "integer", "--out", str(tmp_path / "integer")]) == 0
    for path in sorted((tmp_path / "default").iterdir()):
        assert read_bytes(path) == read_bytes(tmp_path / "integer" / path.name), path.name


def test_effchan_fig3_warns_that_seed_has_no_effect(tmp_path, caplog):
    # the preset's paths are fixed: --seed changes no byte, and says so
    with caplog.at_level(logging.WARNING, logger="ddwave"):
        assert main(["effchan", "--fig3", "--seed", "7", "--out", str(tmp_path / "seeded")]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "--seed 7 has no effect with --fig3: the Fig. 3 preset's paths are fixed"]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ddwave"):
        assert main(["effchan", "--fig3", "--out", str(tmp_path / "plain")]) == 0
    assert not caplog.records
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "seeded").iterdir()) and len(names) == 6
    for name in names:
        assert read_bytes(tmp_path / "seeded" / name) == read_bytes(tmp_path / "plain" / name), name


def test_effchan_runs_with_sampled_channel(tmp_path):
    cfg = write_config(tmp_path, {"waveform": "afdm", "n": 16,
                                  "ell_max": 1, "f_max": 1})
    assert main(["effchan", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "4"]) == 0
    meta = json.loads((tmp_path / "effchan_afdm.json").read_text())
    assert len(meta["magnitude"]) == 16


def run_fresh_process(argv):
    """One `main(argv)` call as the first call of a new interpreter; returns its exit code."""
    src = str(Path(ddwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys; from ddwave.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env).returncode


def test_parser_is_built_once_and_reused_calls_write_the_same_bytes(tmp_path):
    runs = [["effchan", "--fig3", "--variant", "fractional"], ["effchan"]]
    for i, argv in enumerate(runs):
        assert run_fresh_process([*argv, "--out", str(tmp_path / f"fresh{i}")]) == 0
    for i, argv in enumerate(runs):  # both in this process, on one parser
        assert main([*argv, "--out", str(tmp_path / f"reused{i}")]) == 0
    assert _parser() is _parser()
    for i in range(len(runs)):
        fresh = sorted((tmp_path / f"fresh{i}").iterdir())
        assert [p.name for p in fresh] == sorted(p.name for p in (tmp_path / f"reused{i}").iterdir())
        for path in fresh:
            assert read_bytes(path) == read_bytes(tmp_path / f"reused{i}" / path.name), path.name


# ---------------------------------------------------------------- CLI: ber


FLAT_SCENARIO = {
    "waveform": "all",
    "n": 16,
    "ell_max": 0,
    "f_max": 0,
    "paths": 1,
    "snr_sweep": [300.0],
    "frames": 25,
}


def test_ber_noiseless_flat_channel_is_error_free(tmp_path):
    cfg = write_config(tmp_path, FLAT_SCENARIO)
    assert main(["ber", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "ber.csv")
    assert {r["waveform"] for r in rows} == {"ofdm", "otfs", "afdm"}
    assert all(float(r["ber"]) == 0.0 for r in rows)
    assert all(int(r["frames"]) == 25 for r in rows)


def test_ber_rows_sorted_by_snr(tmp_path):
    cfg = write_config(tmp_path, {**FLAT_SCENARIO, "waveform": "ofdm",
                                  "snr_sweep": [10.0, -5.0, 0.0], "frames": 5})
    assert main(["ber", "--config", cfg, "--out", str(tmp_path)]) == 0
    snrs = [float(r["snr_db"]) for r in read_csv(tmp_path / "ber.csv")]
    assert snrs == [-5.0, 0.0, 10.0]


def test_ber_thread_count_does_not_change_bytes(tmp_path):
    cfg = write_config(tmp_path, {"waveform": "afdm", "n": 16, "frames": 12,
                                  "ell_max": 1, "f_max": 1,
                                  "snr_sweep": [5.0], "doppler_mode": "fractional"})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["ber", "--config", cfg, "--out", str(a), "--threads", "1"]) == 0
    assert main(["ber", "--config", cfg, "--out", str(b), "--threads", "3"]) == 0
    assert read_bytes(a / "ber.csv") == read_bytes(b / "ber.csv")


# the ber-small-n64 shape at N = 128, L = 16, seed 4: a channel singular to working
# precision, whose SVD condition number moved with the BLAS thread count
SINGULAR_ZF = {"waveform": "all", "n": 128, "k": 8, "l": 16, "constellation": "qam16", "detector": "zf",
               "doppler_mode": "integer", "snr_sweep": [10.0, 20.0], "frames": 50, "seed": 4}


def blas_threads():
    """numpy's OpenBLAS thread count as (get, set), or a skip where the CLI cannot set it."""
    threads = getattr(ddwave._lapack.banded(), "_threads", None)
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set here")
    return threads


def test_the_exit_3_message_does_not_depend_on_the_blas_thread_count(tmp_path):
    blas_threads()
    cfg = write_config(tmp_path, SINGULAR_ZF)
    src = str(Path(ddwave.__file__).resolve().parents[1])
    code = "import sys; from ddwave.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        runs.append(subprocess.run([sys.executable, "-c", code, "ber", "--config", cfg, "--out", str(tmp_path)],
                                   env=env, capture_output=True, text=True))
    assert [r.returncode for r in runs] == [3, 3]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.startswith("numerical failure: channel condition number")


def test_main_runs_blas_on_one_thread_and_restores_the_callers_count(tmp_path, monkeypatch):
    get, put = blas_threads()
    seen = []
    real = ddwave.cli.cmd_ber
    monkeypatch.setattr(ddwave.cli, "cmd_ber", lambda *a: seen.append(get()) or real(*a))
    cfg = write_config(tmp_path, {**FLAT_SCENARIO, "frames": 2})
    before = get()
    put(2)
    try:
        assert main(["ber", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert seen == [1] and get() == 2
    finally:
        put(before)


def test_without_numpys_openblas_only_a_zf_ber_run_warns(tmp_path, monkeypatch, caplog):
    # only a ZF refusal prints a number (the SVD's condition number) that BLAS's threads can move
    monkeypatch.setattr(ddwave._lapack, "banded", ddwave._lapack._NumpyBanded)
    for detector in ("zf", "lmmse"):
        cfg = write_config(tmp_path, {**FLAT_SCENARIO, "frames": 2, "detector": detector})
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ddwave"):
            assert main(["ber", "--config", cfg, "--out", str(tmp_path), "--threads", "2"]) == 0
        messages = [r.getMessage() for r in caplog.records]
        if detector == "zf":
            assert len(messages) == 1 and "thread count" in messages[0]
        else:
            assert messages == []


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {"waveform": "afdm", "n": 16, "frames": 8,
                                  "ell_max": 1, "f_max": 1, "snr_sweep": [5.0]})
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["ber", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
    assert main(["ber", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
    assert main(["ber", "--config", cfg, "--out", str(c), "--seed", "1"]) == 0
    assert read_bytes(a / "ber.csv") != read_bytes(b / "ber.csv")
    assert read_bytes(a / "ber.csv") == read_bytes(c / "ber.csv")


def test_seed_flag_validates_the_config_once(tmp_path, caplog):
    # OTFS orthogonality fails for f_max=2 on a 4x4 grid; the warning must
    # appear once even though --seed replaces the file's seed
    cfg = write_config(tmp_path, {"waveform": "otfs", "n": 16, "f_max": 2})
    with caplog.at_level(logging.WARNING, logger="ddwave"):
        assert main(["ambiguity", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "3"]) == 0
    warned = [r for r in caplog.records if "orthogonality" in r.getMessage()]
    assert len(warned) == 1


# 2*N*c1 = 1 at N = 64: every delay moves one diagonal, so with f_max = 2 the
# pairs (ell, f_int) and (ell + 1, f_int + 1) share a diagonal
COLLIDING_C1 = {"waveform": "afdm", "n": 64, "c1": 0.0078125, "trials": 1, "snr_sweep": [20.0]}


def test_given_c1_whose_stride_merges_targets_warns(tmp_path, caplog):
    cfg = write_config(tmp_path, COLLIDING_C1)
    with caplog.at_level(logging.WARNING, logger="ddwave"):
        assert main(["sense", "--config", cfg, "--out", str(tmp_path)]) == 0
    warned = [r.getMessage() for r in caplog.records if "orthogonality" in r.getMessage()]
    assert warned == ["AFDM orthogonality fails for ell_max=3 f_max=2 N=64 at the given c1=0.0078125"]


@pytest.mark.parametrize("stride", [5, 7])  # 5 is the tuned stride, 7 is not
def test_given_c1_whose_stride_separates_targets_is_quiet(tmp_path, caplog, stride):
    cfg = write_config(tmp_path, {**COLLIDING_C1, "c1": stride / 128})
    with caplog.at_level(logging.WARNING, logger="ddwave"):
        assert main(["sense", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert not [r for r in caplog.records if "orthogonality" in r.getMessage()]


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    assert main(["ber", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_nonpositive_threads_exit_2(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["ber", "--threads", threads, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "ber.csv").exists()


# -------------------------------------------------------------- CLI: sense


SENSE_SCENARIO = {
    "waveform": "afdm",
    "n": 32,
    "ell_max": 3,
    "f_max": 2,
    "xi": 1,
    "paths": 1,
    "snr_sweep": [300.0],
    "trials": 5,
    "doppler_mode": "integer",
}


def test_sense_noiseless_integer_scene_is_exact(tmp_path):
    cfg = write_config(tmp_path, SENSE_SCENARIO)
    assert main(["sense", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "5"]) == 0
    rows = read_csv(tmp_path / "sense.csv")
    assert {r["method"] for r in rows} == {"matched_filter", "direct_csi", "indirect_ml"}
    for r in rows:
        assert float(r["rmse_delay"]) == 0.0
        assert float(r["rmse_doppler"]) == 0.0
        assert int(r["misdetections"]) == 0


def test_sense_error_grows_with_noise(tmp_path):
    cfg = write_config(tmp_path, {**SENSE_SCENARIO, "paths": 2, "trials": 10,
                                  "snr_sweep": [-10.0, 300.0],
                                  "doppler_mode": "fractional"})
    assert main(["sense", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "5"]) == 0
    by = {
        (r["method"], float(r["snr_db"])): (float(r["rmse_delay"]), float(r["rmse_doppler"]))
        for r in read_csv(tmp_path / "sense.csv")
    }
    # direct extraction reads the noise-free channel matrix, so only the two
    # observation-based methods are expected to degrade
    for method in ("matched_filter", "indirect_ml"):
        assert by[(method, -10.0)][0] >= by[(method, 300.0)][0]
        assert by[(method, -10.0)][1] > by[(method, 300.0)][1]


def test_sense_estimates_json_schema(tmp_path):
    cfg = write_config(tmp_path, SENSE_SCENARIO)
    assert main(["sense", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "5"]) == 0
    doc = json.loads((tmp_path / "estimates.json").read_text())
    assert doc["snr_db"] == 300.0
    assert doc["geometry"] == "monostatic"
    assert set(doc["methods"]) == {"matched_filter", "direct_csi", "indirect_ml"}
    for records in doc["methods"].values():
        for rec in records:
            assert set(rec) == {"ell", "f", "gain_re", "gain_im", "range_m", "velocity_mps"}
            assert np.isfinite(rec["range_m"]) and np.isfinite(rec["velocity_mps"])


def test_sense_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SENSE_SCENARIO)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sense", "--config", cfg, "--out", str(a), "--seed", "5"]) == 0
    assert main(["sense", "--config", cfg, "--out", str(b), "--seed", "5"]) == 0
    for name in ("sense.csv", "estimates.json"):
        assert read_bytes(a / name) == read_bytes(b / name)


# ---------------------------------------------------------- CLI: ambiguity


def test_ambiguity_origin_peak_and_summary(tmp_path):
    cfg = write_config(tmp_path, {"waveform": "all", "n": 16,
                                  "ell_max": 1, "f_max": 1})
    assert main(["ambiguity", "--config", cfg, "--out", str(tmp_path)]) == 0
    for name in ("ofdm", "otfs", "afdm"):
        rows = read_csv(tmp_path / f"ambiguity_{name}.csv")
        origin = [r for r in rows
                  if int(r["delay_bin"]) == 0 and int(r["doppler_bin"]) == 0]
        assert len(origin) == 1
        # unitary modulation of a unit-modulus frame: energy is exactly n
        assert float(origin[0]["mag"]) == pytest.approx(16.0, abs=1e-9)
    summary = {r["waveform"]: float(r["psr_db"])
               for r in read_csv(tmp_path / "ambiguity_summary.csv")}
    assert set(summary) == {"ofdm", "otfs", "afdm"}
    assert all(v > 0 for v in summary.values())


def test_ambiguity_single_sample_has_unbounded_psr(tmp_path):
    # n = 1 leaves only the origin cell, so there are no sidelobes to divide by;
    # a one-sample block holds no delay or Doppler spread (ell_max < n, f_max <= n/2)
    cfg = write_config(tmp_path, {"waveform": "ofdm", "n": 1, "ell_max": 0, "f_max": 0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ambiguity", "--config", cfg, "--out", str(tmp_path)]) == 0
    (row,) = read_csv(tmp_path / "ambiguity_summary.csv")
    assert float(row["peak_mag"]) == pytest.approx(1.0, abs=1e-12)
    assert row["psr_db"] == "inf"


# ----------------------------------------------------------- CLI: demo-v2x


@pytest.mark.parametrize("geometry", ["monostatic", "bistatic"])
def test_demo_v2x_writes_valid_scenario(tmp_path, geometry):
    assert main(["demo-v2x", "--geometry", geometry, "--out", str(tmp_path)]) == 0
    path = tmp_path / "demo_v2x.json"
    cfg = load_config(str(path))
    assert cfg.geometry == geometry
    assert cfg.f_c == 5.9e9 and cfg.f_s == 1.0e7
    assert cfg.n == 64 and (cfg.k, cfg.l) == (8, 8)
    assert cfg.doppler_mode == "fractional"
    assert "sub-bin" in cfg.notes


def test_demo_v2x_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(["demo-v2x", "--out", str(a)]) == 0
    assert main(["demo-v2x", "--out", str(b)]) == 0
    assert read_bytes(a / "demo_v2x.json") == read_bytes(b / "demo_v2x.json")


def test_demo_v2x_rejects_config_flag(tmp_path):
    # the preset is fixed; a scenario file would be ignored, so the flag is refused
    with pytest.raises(SystemExit) as exc:
        main(["demo-v2x", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "demo_v2x.json").exists()


# ------------------------------------------------------- exit codes, logging


def test_exit_2_on_missing_config(tmp_path, capsys):
    assert main(["ber", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config-is-a-directory", "config-not-utf8", "out-is-a-file"])
def test_exit_2_on_unreadable_config_or_unusable_out(tmp_path, capsys, case):
    out = tmp_path / "out"
    if case == "config-is-a-directory":
        argv = ["ber", "--config", str(tmp_path), "--out", str(out)]
    elif case == "config-not-utf8":
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"notes": "café"}'.encode("latin-1"))
        argv = ["ber", "--config", str(bad), "--out", str(out)]
    else:
        out.write_text("")
        argv = ["demo-v2x", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


CHOICE_ERRORS = [
    ({"waveform": "dft-s-ofdm"}, "waveform must be ofdm|otfs|afdm|all, got 'dft-s-ofdm'"),
    ({"doppler_mode": "half"}, "doppler_mode must be integer|fractional, got 'half'"),
    ({"geometry": "multistatic"}, "geometry must be monostatic|bistatic, got 'multistatic'"),
    ({"detector": "mmse"}, "detector must be zf|lmmse, got 'mmse'"),
    # checked in the order above: the first bad field is the one named
    ({"detector": "mmse", "geometry": "multistatic", "doppler_mode": "half"},
     "doppler_mode must be integer|fractional, got 'half'"),
]


@pytest.mark.parametrize("patch, message", CHOICE_ERRORS, ids=["waveform", "doppler_mode", "geometry",
                                                               "detector", "order"])
def test_choice_fields_name_their_choices(tmp_path, capsys, patch, message):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(patch)
    assert str(exc.value) == message
    assert main(["ber", "--config", write_config(tmp_path, patch), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("argv, choices", [(["demo-v2x"], "--geometry {monostatic,bistatic}"),
                                           (["effchan"], "--variant {integer,fractional}")])
def test_help_lists_the_choices(capsys, argv, choices):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert choices in capsys.readouterr().out


def test_exit_2_on_invalid_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"waveform": "dft-s-ofdm"})
    assert main(["ber", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


# 2*N*c1 = 1.57 at the default N = 64: BER and the maps run with it, but the
# sensing supports need 2*N*c1 integral
GIVEN_C1 = {"waveform": "afdm", "c1": 0.0123}


@pytest.mark.parametrize(
    "patch",
    [
        {"paths": 0},
        {"f_max": -1},
        {"ell_max": -1},
        {"waveform": "afdm", "n": 2},  # default ell_max 3 >= n
        {"frames": 0},
        {"refine_factor": 1},
        {"trials": 0},
        {"refine_levels": -1},
        {"snr_sweep": ["x"]},
        {"snr_sweep": [float("nan")]},
        {"k": "8", "l": 8},
        {"f_s": True},
        GIVEN_C1,
        {"n": 16, "cp_len": 17},  # a prefix longer than the block
        {"waveform": "afdm", "n": 36, "xi": -1},  # tuned c1, c2
        {"waveform": "afdm", "n": 36, "xi": -1, "c1": 1 / 72, "c2": 0.011},
        {"waveform": "ofdm", "n": 36, "xi": -1},  # no AFDM to use it, still refused
    ],
)
def test_exit_2_on_out_of_range_config(tmp_path, capsys, patch):
    cfg = write_config(tmp_path, patch)
    for command in ("sense",) if patch is GIVEN_C1 else ("ber", "effchan", "sense"):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err


def test_exit_2_when_afdm_tuning_infeasible(tmp_path, capsys, caplog):
    with caplog.at_level(logging.WARNING, logger="ddwave"):
        cfg = write_config(
            tmp_path, {"waveform": "afdm", "n": 12, "ell_max": 2, "f_max": 2}
        )
        assert main(["effchan", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "tuning" in capsys.readouterr().err


def test_exit_3_on_numerical_failure(tmp_path, capsys, monkeypatch):
    from ddwave.link import SingularChannelError

    def boom(*args, **kwargs):
        raise SingularChannelError("synthetic failure")

    monkeypatch.setattr("ddwave.cli.cmd_ber", boom)
    assert main(["ber", "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_log_level_env_variable(monkeypatch):
    seen = {}
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: seen.update(kw))
    monkeypatch.setenv("DDWAVE_LOG", "info")
    _setup_logging()
    assert seen["level"] == logging.INFO
    monkeypatch.setenv("DDWAVE_LOG", "chatty")
    _setup_logging()
    assert seen["level"] == logging.WARNING


def test_written_files_logged_at_info(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="ddwave"):
        assert main(["demo-v2x", "--out", str(tmp_path)]) == 0
    assert any("wrote" in r.getMessage() for r in caplog.records)


# ------------------------------------------------------- config boundary property

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


_FIELDS = {  # valid values of each optional field, then edge values and wrong types
    "xi": (st.integers(0, 2), st.just(-1)),
    "c1": (st.floats(-1.0, 1.0) | st.integers(1, 9).map(lambda q: q / 74),
           st.sampled_from([float("inf"), float("nan"), 1e300])),
    "c2": (st.floats(-1.0, 1.0), st.sampled_from([float("-inf"), 1e300])),
    "cp_len": (st.integers(0, 3), st.sampled_from([-1, 38])),
    "ell_max": (st.integers(0, 2), st.sampled_from([-1, 37])),
    "f_max": (st.integers(0, 2), st.sampled_from([-1, 19])),
    "paths": (st.integers(1, 4), st.just(0)),
    "constellation": (st.sampled_from(["qpsk", "qam16", "16QAM"]), st.just("bpsk")),
    "snr_sweep": (st.lists(st.sampled_from([0.0, 10.0, 30.0, float("inf")]), min_size=1, max_size=2),
                  st.sampled_from([[], [float("nan")], [float("-inf")], ["10"]])),
    "frames": (st.integers(1, 2), st.just(0)),
    "trials": (st.integers(1, 2), st.just(0)),
    "seed": (st.integers(0, 3), st.just(-1)),
    "doppler_mode": (st.sampled_from(["integer", "fractional"]), st.just("mixed")),
    "detector": (st.sampled_from(["zf", "lmmse"]), st.just("mmse")),
    "refine_levels": (st.integers(0, 2), st.just(-1)),
    "refine_factor": (st.integers(2, 3), st.just(1)),
    "f_s": (st.just(1.0e7), st.sampled_from([0.0, float("inf")])),
    "geometry": (st.sampled_from(["monostatic", "bistatic"]), st.just("tristatic")),
    "waveform": (st.sampled_from(["ofdm", "otfs", "afdm", "all"]), st.just("OFDM")),
    "n": (st.integers(1, 37), st.sampled_from([0, -1])),
    "k": (st.integers(1, 37), st.just(0)),
}
_WRONG_TYPE = st.sampled_from(["x", [], {}, True, None, 1.5])


@st.composite
def scenarios(draw):
    """A scenario dict with n <= 37 and at most 2 frames and trials: a valid
    draw of some fields, the AFDM chirp fields only if the waveform has a
    chirp (xi only without c1), the OTFS grid from a divisor of n whenever n
    is not a square and the waveform has a grid, and, a third of the time,
    one field set to an edge value or a value of the wrong type."""
    n = draw(st.sampled_from([25, 36, 37]) | st.integers(1, 37))
    scenario = {"n": n, "frames": 1, "trials": 1, "snr_sweep": [10.0], "refine_levels": 1}
    for name in sorted(draw(st.sets(st.sampled_from(sorted(set(_FIELDS) - {"n", "k"}))))):
        scenario[name] = draw(_FIELDS[name][0])
    if "cp_len" in scenario:  # at least the largest delay
        scenario["cp_len"] += scenario.get("ell_max", 3)
    # the grid and the chirp only where they are read: an OTFS grid or an
    # AFDM chirp field given to another waveform exits 2, as does xi beside c1
    waveform = scenario.get("waveform", "all")
    if waveform not in ("afdm", "all"):
        for name in ("c1", "c2", "xi"):
            scenario.pop(name, None)
    if "c1" in scenario:
        scenario.pop("xi", None)
    has_grid = waveform in ("otfs", "all")
    if has_grid and (math.isqrt(n) ** 2 != n or draw(st.booleans())):
        k = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        scenario["k"], scenario["l"] = k, n // k
    if draw(st.integers(0, 2)) == 0:
        name = draw(st.sampled_from(sorted(_FIELDS)))
        scenario[name] = draw(_FIELDS[name][1] | _WRONG_TYPE)
    return scenario


def _run(command, config, out):
    """main's exit code, its stderr and the bytes of every file it wrote."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", config, "--out", out])
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    return code, err.getvalue(), {name: read_bytes(os.path.join(out, name)) for name in names}


@settings(derandomize=True, deadline=None, max_examples=100, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_every_scenario_exits_0_2_or_3_and_reruns_the_same_bytes(scenario):
    """Any scenario dict, valid or not, through ber, sense, effchan and ambiguity:
    exit 0, 2 (one stderr line, no traceback) or 3, and an exit-0 run writes
    the same bytes again."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ChannelConfig's underspread warning
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w") as fh:
            json.dump(scenario, fh)
        for command in ("ber", "sense", "effchan", "ambiguity"):
            code, err, files = _run(command, config, os.path.join(tmp, command))
            assert code in (0, 2, 3), (command, code, err)
            assert "Traceback" not in err
            if code == 2:
                assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
            if code == 0:
                assert files and _run(command, config, os.path.join(tmp, command + "-again"))[2] == files
