"""cocyclelab benchmark: seeded experiment workloads run through cli.main.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload orbit-long --seed 1 --seconds 30 --trace 0

One closed-loop caller runs the workload's experiment list in-process, one
``cocyclelab.cli.main`` call after another; a pass is one trip through the
list. After one warm-up pass, passes repeat while the next one is expected
to end within --seconds seconds. Every output is checked against an oracle
(oracles.py) and, byte for byte, against the warm-up pass. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (setup_s, wall_s, wall_1t_s,
peak_rss_mb). Each timing is scaled by the fixed host probe run just before
and just after it, so host-speed drift between runs cancels; the raw times go
to standard error. --trace 1 alternates untraced and traced passes and reports the
per-layer metrics (layers.py). A summary with machine facts goes to standard
error. The program is imported from src/ of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

SETUP_REPS = 5          # fresh interpreters per run; setup_s is their median


def load_cli():
    """Import cocyclelab.cli from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "cocyclelab", "cli.py")):
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import cocyclelab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported {cli.__file__}, not {SRC}\n")
        sys.exit(2)
    return cli


# Median host_probe() time on the machine described in README.md. Timings
# are scaled by PROBE_REF_S / (probe time around them), so they read as
# seconds on that machine at its usual speed.
PROBE_REF_S = 0.5


def host_probe() -> float:
    """Fixed work, independent of cocyclelab, in seconds.

    Three parts stand for the workloads' kinds of work: an interpreted
    Python loop, stacked 2x2 products on a cache-resident 512-matrix stack,
    and the same on a 65536-matrix stack that exceeds L2. The host's speed
    drifted by up to 2x between runs (other tenants), and this probe drifts
    with it. Its inputs are built per call and freed, so the process holds
    no probe memory between calls.
    """
    rng = np.random.default_rng(12345)
    stacks = [rng.standard_normal((m, 2, 2)) + 1j * rng.standard_normal((m, 2, 2))
              for m in (512, 65536)]
    t0 = time.perf_counter()
    a, b = 1.0 + 0.5j, 0.3 - 0.2j
    for _ in range(60000):
        a, b = a * 0.99 + b * 0.01, a * 0.01 + b * 0.99
    for stack, steps in zip(stacks, (500, 8)):
        m = stack.copy()
        for _ in range(steps):
            m = stack @ m
            n = np.abs(m).max(axis=(1, 2))
            m /= n[:, None, None]
            np.log(n)
    return time.perf_counter() - t0


def host_adjusted(seconds: float, probe_before: float, probe_after: float) -> float:
    """A timing scaled to the reference host speed, by the probes around it."""
    return seconds * PROBE_REF_S * 2.0 / (probe_before + probe_after)


def machine_facts() -> Dict[str, object]:
    facts: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
        facts["simd_found"] = ",".join(config["SIMD Extensions"]["found"])
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        facts["blas"] = "unknown"
    return facts


def measure_setup(config_paths: List[str]):
    """Fresh interpreter start to every config through cli.load_config.

    Returns (raw, host-adjusted) seconds of each of SETUP_REPS processes.
    """
    raw, adjusted = [], []
    probe = os.path.join(HERE, "setup_probe.py")
    before = host_probe()
    for _ in range(SETUP_REPS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, probe, *config_paths],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        after = host_probe()
        adjusted.append(host_adjusted(raw[-1], before, after))
        before = after
    return raw, adjusted


@dataclass
class PassResult:
    seconds: float
    failed: Dict[int, List[str]] = field(default_factory=dict)
    bytes_written: int = 0


class Runner:
    """Closed-loop caller: the next experiment starts when the last returns."""

    def __init__(self, cli, wl: workloads.Workload, config_paths: List[str],
                 out_root: str):
        self.cli = cli
        self.wl = wl
        self.config_paths = config_paths
        self.out_root = out_root
        self.reference: Optional[Dict[int, Dict[str, str]]] = None
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.trace_ok = True
        self.missing_bindings: List[str] = []
        self.self_sum_err = 0.0

    def _call(self, argv: List[str]):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return self.cli.main(argv), sink.getvalue()
        except SystemExit as e:
            return e.code, sink.getvalue()
        except Exception as e:  # counted as a failed experiment, not raised
            return f"raised {type(e).__name__}: {e}", sink.getvalue()

    def run_pass(self, threads: int, tracer: Optional[Tracer] = None) -> PassResult:
        out = os.path.join(self.out_root, f"pass{self.passes:03d}")
        self.passes += 1
        dirs = [os.path.join(out, f"{i:02d}") for i in range(len(self.wl.experiments))]
        calls = []
        span = tracer.span("bench.pass") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span as root:
            for exp, path, d in zip(self.wl.experiments, self.config_paths, dirs):
                argv = [exp.subcommand, "--config", path, "--out", d,
                        "--threads", str(threads)]
                if tracer:
                    with tracer.span("cli.main", (argv,)):
                        calls.append(self._call(argv))
                else:
                    calls.append(self._call(argv))
        seconds = root.duration if tracer else time.perf_counter() - t0
        res = PassResult(seconds=seconds)
        digests = {}
        for i, (exp, (rc, text), d) in enumerate(zip(self.wl.experiments, calls, dirs)):
            probs = [] if rc == 0 else [f"{exp.label}: exit {rc}: {text.strip()[:300]}"]
            if not probs:
                probs = oracles.check(exp.label, exp.config, d)
            digests[i] = self._digest(d)
            res.bytes_written += sum(os.path.getsize(os.path.join(d, f))
                                     for f in digests[i])
            if self.reference is not None and digests[i] != self.reference[i]:
                probs.append(f"{exp.label}: output bytes differ from the first "
                             f"pass (threads={threads})")
            if probs:
                res.failed[i] = probs
        if self.reference is None:
            self.reference = digests
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += len(calls)
        self.failed += len(res.failed)
        for probs in res.failed.values():
            self.problems.extend(probs)
        return res

    @staticmethod
    def _digest(d: str) -> Dict[str, str]:
        if not os.path.isdir(d):
            return {}
        out = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out


def _timed_passes(seconds: float, kinds: list, run_one, first_guess: float):
    """Cycle through `kinds`, one pass each, while the next pass (with its
    checks) is expected to end within `seconds`; each kind runs at least once.
    Returns the pass times of each kind."""
    times: Dict[object, List[float]] = {k: [] for k in kinds}
    costs: Dict[object, List[float]] = {k: [] for k in kinds}
    start = time.perf_counter()
    for i in itertools.count():
        kind = kinds[i % len(kinds)]
        now = time.perf_counter()
        guess = statistics.median(costs[kind]) if costs[kind] else first_guess
        if all(times.values()) and now - start + guess > seconds:
            return times
        times[kind].append(run_one(kind))
        costs[kind].append(time.perf_counter() - now)


def run_untraced(runner: Runner, wl: workloads.Workload, seconds: float,
                 warm: PassResult, probes: List[float]):
    """Host-adjusted and raw pass times, by thread count."""
    counts = [wl.threads] + ([wl.compare_threads] if wl.compare_threads else [])
    raw: Dict[int, List[float]] = {k: [] for k in counts}

    def one(threads: int) -> float:
        raw[threads].append(runner.run_pass(threads).seconds)
        probes.append(host_probe())
        return host_adjusted(raw[threads][-1], probes[-2], probes[-1])

    return _timed_passes(seconds, counts, one, warm.seconds), raw


def run_traced(runner: Runner, wl: workloads.Workload, seconds: float,
               warm: PassResult, probes: List[float]):
    per_pass: List[Dict[str, float]] = []
    tracer = Tracer()

    def one(traced: bool) -> float:
        if not traced:
            t = runner.run_pass(wl.threads).seconds
            probes.append(host_probe())
            return t
        with instrument(tracer) as missing:
            res = runner.run_pass(wl.threads, tracer)
        if missing:
            runner.missing_bindings = missing
        nesting = tracer.nesting_problems()
        runner.problems.extend(f"trace: {p}" for p in nesting[:5])
        runner.trace_ok &= not missing and not nesting
        # holds for every tree of spans; reported, not checked
        runner.self_sum_err = max(runner.self_sum_err,
                                  abs(sum(tracer.self_times()) - res.seconds))
        m = layers.pass_metrics(tracer)
        m["cli.bytes_written"] = res.bytes_written
        per_pass.append(m)
        tracer.clear()
        probes.append(host_probe())
        return res.seconds

    times = _timed_passes(seconds, [False, True], one, warm.seconds)
    return times[False], times[True], per_pass


def declared_units() -> Dict[str, Dict[str, str]]:
    """Unit of each metric, by result kind, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_cli()
    units = declared_units()
    wl = workloads.make(args.workload, args.seed)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        paths = []
        for i, exp in enumerate(wl.experiments):
            paths.append(os.path.join(work, f"{i:02d}-{exp.label}.yaml"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(exp.yaml_text())
        runner = Runner(cli, wl, paths, os.path.join(work, "out"))
        warm = runner.run_pass(wl.threads)
        # one pass through the list in a fresh process: later passes only add
        # allocator fragmentation, which varies from process to process
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = [host_probe()]
        if args.trace == 0:
            setup_raw, setup = measure_setup(paths)
            adjusted, passes = run_untraced(runner, wl, args.seconds, warm, probes)
            wall = statistics.median(adjusted[wl.threads])
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": wall,
                # single-threaded workloads: their passes are the 1-thread pass
                "wall_1t_s": statistics.median(adjusted.get(1, [wall])),
                "peak_rss_mb": peak_rss,
            }
            raw = {"setup_s": statistics.median(setup_raw),
                   **{f"wall_{k}t_s": statistics.median(v)
                      for k, v in passes.items()}}
        else:
            untraced, traced, per_pass = run_traced(runner, wl, args.seconds,
                                                    warm, probes)
            values = {name: statistics.median(p[name] for p in per_pass)
                      for name in per_pass[0]}
            values["trace_overhead_frac"] = (
                statistics.median(traced) / statistics.median(untraced) - 1.0)
            values["passes"] = len(untraced)
            values["wall_raw_s"] = statistics.median(untraced)
            passes = {"untraced": untraced, "traced": traced}
            raw = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    # per-layer figures; the end-to-end result line carries only its own
    side = {"env.probe_s": statistics.median(probes),
            "failed_frac": runner.failed / runner.attempted}
    if args.trace == 1:
        values.update(side)
    declared = units["per_layer" if args.trace else "end_to_end"]
    if set(values) != set(declared):
        raise RuntimeError(f"computed metrics {sorted(values)} are not those "
                           f"BENCHMARK.json declares: {sorted(declared)}")
    unit_of = {**units["end_to_end"], **units["per_layer"]}
    summary = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
               "warmup_s": warm.seconds,
               "pass_s": {str(k): [round(t, 4) for t in v]
                          for k, v in passes.items()},
               "machine": machine_facts(),
               "metrics": {k: f"{v:.6g} {unit_of[k]}"
                           for k, v in {**values, **side}.items()},
               "raw_s": raw,
               "problems": runner.problems[:20]}
    if args.trace == 1:
        summary["trace_self_sum_err_s"] = runner.self_sum_err
    sys.stderr.write(json.dumps(summary, indent=1) + "\n")
    if runner.missing_bindings:
        print("perfbench: bindings to trace are missing from cocyclelab: "
              + ", ".join(runner.missing_bindings))
    correct = runner.failed == 0 and runner.trace_ok
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": declared[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
