"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import run
from tracing import Span, Tracer, covered_length, layer_table, self_times

HERE = Path(__file__).resolve().parent


def span(id, parent, start, end, name="f", thread=1):
    return Span(id, parent, name, thread, start, end, None)


# ------------------------------------------------------------ self-time arithmetic


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert covered_length([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0


def test_self_time_of_nested_spans_on_one_thread():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 6.0),
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_with_children_on_two_threads():
    # a pool call on thread 1 waits while two workers overlap in [2, 5]
    spans = [
        span(0, None, 0.0, 10.0, "pool", thread=1),
        span(1, 0, 1.0, 5.0, "frame", thread=2),
        span(2, 0, 6.0, 7.0, "frame", thread=2),
        span(3, 0, 2.0, 8.0, "frame", thread=3),
    ]
    selfs = self_times(spans)
    assert selfs[0] == 3.0  # 10 s minus the union [1, 8]
    # busy time of the workers adds up to more than the wall time they cover
    assert selfs[1] + selfs[2] + selfs[3] == 11.0


def test_layer_table_counts_per_window_and_takes_median():
    spans = [
        span(0, None, 0.0, 1.0, "a"),
        span(1, None, 10.0, 13.0, "a"),
        span(2, 1, 11.0, 12.0, "b"),
        span(3, None, 20.0, 22.0, "a"),
    ]
    windows = [(0.0, 5.0), (10.0, 15.0), (20.0, 25.0)]
    table = layer_table(spans, windows, ["a", "b", "absent"])
    assert table["a"] == (1.0, 2.0)
    assert table["b"] == (1 / 3, 0.0)
    assert table["absent"] == (0.0, 0.0)


# ---------------------------------------------------------------- the tracer


def fake_modules():
    home = types.ModuleType("fake_home")
    exec(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def leaf(x):\n"
        "    return x + 1\n"
        "def pool(xs):\n"
        "    with ThreadPoolExecutor(max_workers=2) as ex:\n"
        "        return list(ex.map(leaf, xs))\n",
        home.__dict__,
    )
    importer = types.ModuleType("fake_importer")
    importer.leaf = home.leaf
    return home, importer


def test_tracer_links_worker_spans_and_restores_originals():
    home, importer = fake_modules()
    originals = home.leaf, home.pool
    tracer = Tracer()
    with tracer.installed(["m.pool", "m.leaf", "m.renamed", "gone.f"], {"m": home}, [importer]) as absent:
        assert importer.leaf is not originals[0]
        assert home.pool(range(6)) == [1, 2, 3, 4, 5, 6]
    assert absent == ["m.renamed", "gone.f"]
    assert (home.leaf, home.pool) == originals
    assert importer.leaf is originals[0]
    (outer,) = [s for s in tracer.spans if s.name == "m.pool"]
    leaves = [s for s in tracer.spans if s.name == "m.leaf"]
    assert len(leaves) == 6
    assert all(s.parent == outer.id and s.thread != outer.thread for s in leaves)


def test_tracer_restores_originals_when_the_block_raises():
    home, importer = fake_modules()
    original = home.leaf
    with pytest.raises(RuntimeError):
        with Tracer().installed(["m.leaf"], {"m": home}, [importer]):
            raise RuntimeError("boom")
    assert home.leaf is original and importer.leaf is original


def test_tracer_records_errors_and_reraises():
    tracer = Tracer()

    def fails():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        tracer.wrap("x.fails", fails)()
    assert tracer.spans[0].error == "ZeroDivisionError"


def test_tracer_loses_no_span_under_thread_contention():
    tracer = Tracer()
    leaf = tracer.wrap("x.leaf", lambda: None)
    outer = tracer.wrap("x.outer", lambda: [leaf() for _ in range(200)])
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=outer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert len(tracer.spans) == 8 * 201
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "x.leaf":
            assert by_id[s.parent].name == "x.outer" and by_id[s.parent].thread == s.thread


# ------------------------------------------------------------ metrics and files


def test_metric_names_use_only_allowed_characters():
    names = run.metric_names()
    assert len(names) == len(set(names))
    assert all(run.METRIC_NAME.fullmatch(name) for name in names)
    assert all(run.METRIC_NAME.fullmatch(name) for name in run.WORKLOADS)


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_ml_probe_count_follows_the_grid():
    # 3 paths x (4 x 5 coarse cells + 3 levels x 21 refinements), one trial
    assert run.ml_probes_per_sweep(run.WORKLOADS["sense-afdm-n256"]) == 249


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ber-small-n64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert child.stdout == ""


# ------------------------------------------------------- sweeps through the CLI

TINY = {
    "commands": [["ber", "--threads", "2"]],
    "scenario": {"waveform": "all", "n": 16, "k": 4, "l": 4, "ell_max": 2, "f_max": 1,
                 "cp_len": 2, "constellation": "qpsk", "detector": "zf",
                 "snr_sweep": [10.0], "frames": 2},
}


@pytest.fixture
def cli_main():
    sys.path.insert(0, str(run.SRC))
    import ddwave.cli

    return ddwave.cli.main


def sweeps_for(cli_main, workload, tmp_path, seed=5):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({**workload["scenario"], "seed": seed}))
    return run.Sweeps(cli_main, workload, config, tmp_path / "out")


def test_sweeps_pass_on_a_valid_scenario(cli_main, tmp_path):
    sweeps = sweeps_for(cli_main, TINY, tmp_path)
    assert len(sweeps.measure(0.0)) == run.MIN_SWEEPS
    assert (sweeps.attempted, sweeps.failed, sweeps.problems) == (run.MIN_SWEEPS, 0, [])
    assert sweeps.quality["link.bits"] == 3 * 2 * 16 * 2


def test_files_that_change_between_sweeps_fail_the_sweep(cli_main, tmp_path):
    calls = []

    def drifting(argv):
        code = cli_main(argv)
        calls.append(argv)
        if len(calls) == 2:
            with open(tmp_path / "out" / "ber.csv", "a") as fh:
                fh.write("\n")
        return code

    sweeps = sweeps_for(drifting, TINY, tmp_path)
    assert len(sweeps.measure(0.0)) == run.MIN_SWEEPS - 1
    assert sweeps.failed == 1
    assert sweeps.problems == ["files differ from the first sweep of the same seed"]


@pytest.mark.parametrize("trace", [False, True])
def test_a_valid_run_reports_every_declared_metric(monkeypatch, tmp_path, trace):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "STATE", tmp_path)
    result = run.run_workload("tiny", seed=2, seconds=0.3, trace=trace)
    assert result["correct"] is True and result["failed"] == 0
    units = run.per_layer_units() if trace else run.END_TO_END
    assert {m: e["unit"] for m, e in result["metrics"].items()} == units
    if trace:
        assert result["metrics"]["link.equalize_zf.calls"]["value"] == 3 * 2
        assert result["metrics"]["trace.absent"]["value"] == 0
    else:
        assert all(e["value"] > 0 for e in result["metrics"].values())


@pytest.mark.parametrize("trace", [False, True])
def test_rejected_scenario_counts_as_failed_and_the_run_goes_on(monkeypatch, tmp_path, capsys, trace):
    bad = {**TINY, "scenario": {**TINY["scenario"], "ell_max": 3, "cp_len": 1}}
    monkeypatch.setitem(run.WORKLOADS, "bad", bad)
    monkeypatch.setattr(run, "STATE", tmp_path)
    result = run.run_workload("bad", seed=1, seconds=0.01, trace=trace)
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] > 0
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 1.0
    assert "exited 2" in capsys.readouterr().err
