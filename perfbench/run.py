#!/usr/bin/env python3
"""Benchmark of the ddwave command line, end to end and layer by layer.

One workload in this process:

    python3 perfbench/run.py --workload ber-dense-n1024 --seed 1 --seconds 20 --trace 0

Every workload, each in a fresh process, printed as one table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs the real entry point, ``ddwave.cli.main(argv)``, on a
scenario JSON generated from --seed, again and again for --seconds seconds,
and checks every sweep's output files. With --trace 0 the last stdout line
holds the end-to-end metrics, measured untraced. With --trace 1 it holds the
per-layer metrics of a traced pass that wraps the package's public functions
from outside (see tracing.py); the untraced sweeps of the same run give the
tracing overhead. README.md in this directory says why each workload exists
and which layer metric should move which end-to-end metric.

Exit code 0 when a result was printed, 2 when the repository is not there.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_table

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
STATE = ROOT / ".perfbench"  # run records, spans and scratch output; git-ignored

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 10  # fresh-process set-ups per run, spread over the run
# Median of MachineSpeed's kernel on the reference box (2-vCPU x86-64 VM,
# numpy 2.4 with OpenBLAS on one thread) while nothing else loaded it.
REFERENCE_S = 0.006
SPEED_INTERVAL_S = 0.1  # one kernel sample per this much run time, about 6% of it
MIN_SWEEPS = 3
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Values not given are the config defaults: ell_max=3, f_max=2, paths=3,
# cp_len=3, refine_levels=3, refine_factor=10. Frame and trial counts keep
# one sweep between 0.3 s and 2.5 s on a 2-vCPU box, so a run holds many sweeps.
WORKLOADS = {
    "ber-dense-n1024": {
        "commands": [["ber", "--threads", "1"]],
        "scenario": {
            "waveform": "all", "n": 1024, "k": 32, "l": 32, "constellation": "qpsk",
            "detector": "lmmse", "doppler_mode": "fractional", "snr_sweep": [10.0],
            "frames": 1,
        },
    },
    "ber-small-n64": {
        "commands": [["ber", "--threads", "2"]],
        "scenario": {
            "waveform": "all", "n": 64, "k": 8, "l": 8, "constellation": "qam16",
            "detector": "zf", "doppler_mode": "fractional", "snr_sweep": [10.0, 20.0],
            "frames": 50,
        },
    },
    "sense-afdm-n256": {
        "commands": [["sense", "--threads", "2"]],
        "scenario": {
            "waveform": "afdm", "n": 256, "doppler_mode": "fractional",
            "snr_sweep": [10.0], "trials": 1,
        },
    },
    "maps-n256": {
        "commands": [["effchan"], ["ambiguity"]],
        "scenario": {"waveform": "all", "n": 256},
    },
}

# Public functions timed by the traced pass, as "<module>.<function>".
TRACED = (
    "config.load_config",
    "cli.cmd_ber", "cli.cmd_sense", "cli.cmd_effchan", "cli.cmd_ambiguity",
    "link.run_ber_point", "link.map_bits", "link.add_awgn",
    "link.equalize_zf", "link.equalize_lmmse", "link.demap_symbols",
    "channel.sample_paths", "channel.time_domain_apply",
    "modem.modulate", "modem.prepend_cp", "modem.demodulate",
    "modem.effective_channel", "modem.measure_papr",
    "sensing.matched_filter_map", "sensing.direct_csi_extract",
    "sensing.indirect_csi_ml", "sensing.sensing_rmse", "sensing.ambiguity_map",
)
# The modules whose names the traced functions are called through.
IMPORTERS = ("cli", "link")

END_TO_END = {  # name: unit
    "setup_s": "s",
    "sweep_s": "s",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNTERS = {  # name: unit; per sweep unless the unit says otherwise
    "link.bits": "bits/sweep",
    "link.bit_errors": "errors/sweep",
    "link.singular_refusals": "count/sweep",
    "sensing.ml_probes_computed": "probes/sweep",
    "sensing.rmse_doppler_ml": "bins",
    "sensing.misdetections": "targets/sweep",
    "cli.bytes_written": "bytes/sweep",
    "trace.overhead_frac": "ratio",
    "trace.absent": "count",
    "failed_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for target in TRACED:
        units[f"{target}.calls"] = "calls/sweep"
        units[f"{target}.self_s"] = "s/sweep"
    units.update(COUNTERS)
    return units


def metric_names() -> list[str]:
    return [*END_TO_END, *per_layer_units()]


# ---------------------------------------------------------------- workloads


def waveforms(scenario: dict) -> list[str]:
    wf = scenario.get("waveform", "all")
    return ["ofdm", "otfs", "afdm"] if wf == "all" else [wf]


def frames_per_sweep(workload: dict) -> int:
    """N-sample blocks one sweep processes: BER frames, sensing trials
    (one pilot frame each), or one channel / one frame per waveform per map."""
    sc = workload["scenario"]
    first = workload["commands"][0][0]
    if first == "ber":
        return sc["frames"] * len(sc["snr_sweep"]) * len(waveforms(sc))
    if first == "sense":
        return sc["trials"] * len(sc["snr_sweep"])
    return len(waveforms(sc)) * len(workload["commands"])


def ml_probes_per_sweep(workload: dict) -> int:
    """Probe channels the grid-search ML builds, computed from the scenario:
    P x (coarse cells + refine_levels x (2 refine_factor + 1)) per trial."""
    sc = workload["scenario"]
    if workload["commands"][0][0] != "sense":
        return 0
    ell_max, f_max = sc.get("ell_max", 3), sc.get("f_max", 2)
    levels, factor = sc.get("refine_levels", 3), sc.get("refine_factor", 10)
    per_trial = sc.get("paths", 3) * ((ell_max + 1) * (2 * f_max + 1) + levels * (2 * factor + 1))
    return per_trial * sc["trials"] * len(sc["snr_sweep"])


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(workload: dict, out: Path) -> tuple[list[str], dict]:
    """Problems found in one sweep's files, and the quality figures they hold."""
    sc = workload["scenario"]
    n, wfs = sc["n"], waveforms(sc)
    problems, quality = [], {}

    def need(path: Path) -> bool:
        if not path.is_file():
            problems.append(f"missing {path.name}")
            return False
        return True

    for command, *_ in workload["commands"]:
        if command == "ber" and need(out / "ber.csv"):
            rows = read_csv(out / "ber.csv")
            if len(rows) != len(wfs) * len(sc["snr_sweep"]):
                problems.append(f"ber.csv has {len(rows)} rows")
            bps = 4 if sc["constellation"] == "qam16" else 2
            bits = errors = 0
            for row in rows:
                frames, ber = int(row["frames"]), float(row["ber"])
                if frames != sc["frames"] or not 0.0 <= ber <= 1.0:
                    problems.append(f"ber.csv row {row}")
                bits += frames * n * bps
                errors += round(ber * frames * n * bps)
            quality.update({"link.bits": bits, "link.bit_errors": errors})
        elif command == "sense" and need(out / "sense.csv") and need(out / "estimates.json"):
            rows = read_csv(out / "sense.csv")
            methods = {"matched_filter", "direct_csi", "indirect_ml"}
            if len(rows) != 3 * len(sc["snr_sweep"]) or {r["method"] for r in rows} != methods:
                problems.append(f"sense.csv rows {[r['method'] for r in rows]}")
            estimates = json.loads((out / "estimates.json").read_text())
            if set(estimates.get("methods", {})) != methods:
                problems.append("estimates.json lacks a method")
            ml = [float(r["rmse_doppler"]) for r in rows if r["method"] == "indirect_ml"]
            quality["sensing.rmse_doppler_ml"] = statistics.fmean(ml) if ml else float("nan")
            quality["sensing.misdetections"] = sum(int(r["misdetections"]) for r in rows)
        elif command == "effchan":
            for wf in wfs:
                csv_path, json_path = out / f"effchan_{wf}.csv", out / f"effchan_{wf}.json"
                if need(csv_path) and need(json_path):
                    grid = json.loads(json_path.read_text())
                    mag = grid["magnitude"]
                    above = sum(v > grid["threshold"] for row in mag for v in row)
                    if len(mag) != n or any(len(row) != n for row in mag):
                        problems.append(f"{json_path.name} grid is not {n} x {n}")
                    if len(read_csv(csv_path)) != above:
                        problems.append(f"{csv_path.name} disagrees with its JSON grid")
        elif command == "ambiguity":
            cells = n * (2 * (n // 2) + 1)
            for wf in wfs:
                path = out / f"ambiguity_{wf}.csv"
                if need(path) and len(read_csv(path)) != cells:
                    problems.append(f"{path.name} does not have {cells} rows")
            if need(out / "ambiguity_summary.csv"):
                if len(read_csv(out / "ambiguity_summary.csv")) != len(wfs):
                    problems.append("ambiguity_summary.csv row count")
    return problems, quality


def digest(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


class Sweeps:
    """Runs the workload's commands through ddwave.cli.main and checks each sweep.

    A sweep fails when a command exits non-zero or raises, when an expected
    file is missing or has the wrong row count, or when its files differ from
    those of the first good sweep of the same scenario. A failure is counted
    and the run goes on.
    """

    def __init__(self, cli_main, workload: dict, config: Path, out: Path):
        self.cli_main = cli_main
        self.workload = workload
        self.argv = [[*cmd, "--config", str(config), "--out", str(out)] for cmd in workload["commands"]]
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None
        self.quality: dict = {}
        self.bytes_written = 0

    def _call(self, argv) -> int:
        try:
            return self.cli_main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this sweep, not the run
            traceback.print_exc()
            return -1

    def once(self) -> tuple[float, float] | None:
        """One sweep; its (start, end) perf_counter times if it passed every check."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        start = time.perf_counter()
        codes = [self._call(argv) for argv in self.argv]
        end = time.perf_counter()
        problems = [f"{argv[0]} exited {code}" for argv, code in zip(self.argv, codes) if code != 0]
        if not problems:
            try:
                problems, quality = check_outputs(self.workload, self.out)
            except (KeyError, ValueError, TypeError) as exc:  # a malformed file
                problems, quality = [f"unreadable output: {exc!r}"], {}
            files = digest(self.out)
            if not problems and self.reference is None:
                self.reference, self.quality = files, quality
                self.bytes_written = sum(p.stat().st_size for p in self.out.iterdir())
            elif not problems and files != self.reference:
                problems = ["files differ from the first sweep of the same seed"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            if self.failed <= 10:  # a rejected scenario fails every sweep; say so a few times
                print(f"sweep {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            return None
        return start, end

    def measure(self, seconds: float, between=None) -> list[tuple[float, float]]:
        """Sweeps for `seconds` (at least MIN_SWEEPS); windows of the good ones.

        `between(elapsed)`, if given, runs after each sweep, outside its timing.
        """
        windows, began, tries = [], time.perf_counter(), 0
        while tries < MIN_SWEEPS or time.perf_counter() - began < seconds:
            tries += 1
            window = self.once()
            if window is not None:
                windows.append(window)
            if between is not None:
                between(time.perf_counter() - began)
        return windows


# ------------------------------------------------------------- measurements


SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import ddwave.cli
from ddwave.config import load_config
load_config(sys.argv[2])
print(time.monotonic())
"""


def setup_seconds(config: Path) -> float | None:
    """Time from starting a fresh interpreter to a loaded, validated config;
    None when the child fails, for instance because the config is rejected."""
    began = time.monotonic()
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(config)],
        capture_output=True, text=True, timeout=120,
    )
    if child.returncode != 0:
        print(f"set-up failed: {child.stderr.strip()[-300:]}", file=sys.stderr)
        return None
    return float(child.stdout.split()[-1]) - began


class MachineSpeed:
    """Times a short fixed kernel between sweeps, to take out other tenants' load.

    On a shared box the kernel flips between about 6 ms and 10 ms many times
    a second, and the share of slow time drifts over minutes, so a 20-second
    run can fall into a busy stretch. The kernel does none of ddwave's work
    but the same three kinds of work: a BLAS matmul, small numpy calls, and
    interpreter-bound float formatting. Its mean over the run estimates how
    much slower than unloaded the machine ran; a change to ddwave does not
    move it.
    """

    def __init__(self):
        import numpy as np

        n = np.arange(256)
        self._np = np
        self._matrix = np.exp(2j * np.pi * np.outer(n, n) / 4096.0)
        self.samples: list[float] = []

    def sample(self) -> None:
        np, m = self._np, self._matrix
        start = time.perf_counter()
        m @ m
        for _ in range(100):
            np.abs(np.fft.fft(m[0])).sum()
        [repr(float(i) * 0.1) for i in range(7000)]
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor from this run's seconds to seconds on the unloaded reference box."""
        return REFERENCE_S / statistics.fmean(self.samples)


def oracle_problems(config: Path, workload: dict, seed: int) -> list[str]:
    """One noiseless block per waveform against the dense operators of tests/oracle.py.

    Both the time-domain pipeline (modulate, prefix, channel, demodulate) and
    effective_channel(spec, chan) @ x must match to 1e-10.
    """
    import numpy as np
    from ddwave import channel, config as ddconfig, modem

    loader = importlib.util.spec_from_file_location("ddwave_bench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(oracle)
    cfg = ddconfig.load_config(str(config))
    if workload["commands"][0][0] == "sense":
        specs = [cfg.sensing_spec()]
    else:
        specs = cfg.waveform_specs()
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2**31,)))
    chan = channel.sample_paths(cfg.channel_config(), cfg.doppler_mode, rng)
    paths = [(p.gain, p.delay_norm, p.doppler_norm) for p in chan.paths]
    problems = []
    for name, spec in specs:
        n = spec.n
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        if name == "afdm":
            tx, rx = oracle.afdm_ops(n, spec.c1, spec.c2)
            phase = oracle.chirp_cp_cycles(spec.c1, n)
        elif name == "otfs":
            tx, rx = oracle.otfs_ops(spec.k, spec.l)
            phase = oracle.zero_cycles
        else:
            tx, rx = oracle.ofdm_ops(n)
            phase = oracle.zero_cycles
        want = rx @ oracle.received(tx @ x, paths, cfg.cp_len, phase)
        s_cp = modem.prepend_cp(spec, modem.modulate(spec, x))
        got = {
            "pipeline": modem.demodulate(spec, channel.time_domain_apply(s_cp, chan)),
            "effective_channel": modem.effective_channel(spec, chan) @ x,
        }
        for route, y in got.items():
            err = float(np.max(np.abs(y - want)))
            if not err <= 1e-10:
                problems.append(f"{name} {route} differs from the oracle by {err:.3e}")
    return problems


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 2.0 has no dict form
        blas = {}
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or commit
    src_lines = sum(
        1
        for path in sorted((SRC / "ddwave").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )
    return {
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_lines": src_lines,
    }


def traced_pass(sweeps: Sweeps, seconds: float):
    """Sweeps with every TRACED function wrapped; (spans, windows, absent)."""
    modules = {}
    for label in {t.split(".")[0] for t in TRACED} | set(IMPORTERS):
        try:
            modules[label] = importlib.import_module(f"ddwave.{label}")
        except ModuleNotFoundError:
            modules[label] = None
    importers = [modules[label] for label in IMPORTERS if modules[label] is not None]
    tracer = Tracer()
    with tracer.installed(TRACED, modules, importers) as absent:
        windows = sweeps.measure(seconds)
    for target in absent:
        print(f"traced function {target} is absent; reported as 0", file=sys.stderr)
    return tracer.spans, windows, absent


def layer_metrics(workload: dict, sweeps: Sweeps, spans, windows, absent, plain_s) -> dict:
    """The per-layer metrics of a traced pass; `plain_s` are the untraced sweep times."""
    traced_s = [end - start for start, end in windows]
    overhead = float("nan")
    if traced_s and plain_s:
        overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    metrics = {}
    for target, (calls, busy) in layer_table(spans, windows, TRACED).items():
        metrics[f"{target}.calls"] = calls
        metrics[f"{target}.self_s"] = busy
    refusals = sum(s.name == "link.equalize_zf" and s.error == "SingularChannelError" for s in spans)
    metrics.update({
        "link.bits": sweeps.quality.get("link.bits", 0),
        "link.bit_errors": sweeps.quality.get("link.bit_errors", 0),
        "link.singular_refusals": refusals / max(len(windows), 1),
        "sensing.ml_probes_computed": ml_probes_per_sweep(workload),
        "sensing.rmse_doppler_ml": sweeps.quality.get("sensing.rmse_doppler_ml", 0.0),
        "sensing.misdetections": sweeps.quality.get("sensing.misdetections", 0),
        "cli.bytes_written": sweeps.bytes_written,
        "trace.overhead_frac": overhead,
        "trace.absent": len(absent),
        "failed_frac": sweeps.failed / sweeps.attempted,
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    scratch = STATE / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        config = scratch / "scenario.json"
        config.write_text(json.dumps({**workload["scenario"], "seed": seed}, indent=2))
        sys.path.insert(0, str(SRC))
        import ddwave.cli

        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        sweeps = Sweeps(ddwave.cli.main, workload, config, scratch / "out")
        setups = []  # seconds of fresh-process set-ups, None for a failed one
        if trace:
            warmup = sweeps.once()
            plain = sweeps.measure(seconds / 2)
            spans, traced, absent = traced_pass(sweeps, seconds / 2)
        else:
            speed = MachineSpeed()

            def between_sweeps(elapsed: float) -> None:
                while len(speed.samples) < elapsed / SPEED_INTERVAL_S:
                    speed.sample()
                # set-ups spread over the run see the same machine as the sweeps
                if len(setups) < 1 + elapsed * (SETUP_SAMPLES - 1) / seconds:
                    setups.append(setup_seconds(config))

            setups.append(setup_seconds(config))
            warmup = sweeps.once()
            plain = sweeps.measure(seconds, between_sweeps)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            oracle = oracle_problems(config, workload, seed)
        except ddwave.cli.ConfigError as exc:
            oracle = [f"scenario rejected: {exc}"]
        for problem in oracle:
            print(f"oracle check failed: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain_s = [end - start for start, end in plain]
    problems = sweeps.problems + oracle
    if None in setups:
        problems.append("a fresh-process set-up failed")
    good_setups = [took for took in setups if took is not None]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "scenario": workload["scenario"], "commands": workload["commands"],
        "warmup_s": None if warmup is None else warmup[1] - warmup[0],
        "setup_times_s": setups, "sweep_times_s": plain_s, "problems": problems,
    }
    nan = float("nan")
    if trace:
        record["traced_sweep_times_s"] = [end - start for start, end in traced]
        metrics = layer_metrics(workload, sweeps, spans, traced, absent, plain_s)
        spans_path = STATE / f"spans-{name}.jsonl"  # the latest traced run only; they are large
        with open(spans_path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span._asdict()) + "\n")
        record["spans"] = spans_path.name
    else:
        scale = speed.scale()
        wall_sweep_s = statistics.median(plain_s) if plain_s else nan
        wall_setup_s = statistics.median(good_setups) if good_setups else nan
        record.update(machine_speed_times_s=speed.samples, machine_speed_scale=scale)
        metrics = {
            "setup_s": wall_setup_s * scale,
            "sweep_s": wall_sweep_s * scale,
            "frames_per_s": frames_per_sweep(workload) / (wall_sweep_s * scale),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"{name} before scaling by machine speed {scale:.4g}: "
              f"setup_s {wall_setup_s:.6g} s, sweep_s {wall_sweep_s:.6g} s")
    record["metrics"] = metrics
    (STATE / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True)
    )
    units = per_layer_units() if trace else END_TO_END
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    return {
        "correct": not problems and bool(plain_s),
        "attempted": sweeps.attempted,
        "failed": sweeps.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own fresh process; one table of every metric."""
    ok = True
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exited {child.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.3g} ratio")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:38s} {entry['value']:>14.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ddwave" / "cli.py").is_file() or not ORACLE.is_file():
        print(f"no ddwave checkout around {ROOT}: need src/ddwave and tests/oracle.py",
              file=sys.stderr)
        return 2
    # Must happen before numpy loads: an unpinned BLAS makes run-to-run noise
    # on a small box several times larger than any change worth measuring.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    STATE.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
