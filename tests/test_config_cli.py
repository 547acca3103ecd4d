"""Tests for scenario config validation and the command-line entry point."""

import csv
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ddwave
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
