#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``hjbpi`` command line.

Run from the repository root:

    python3 bench/run.py --workload pi-lq --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload pi-lq --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --self-check --seed 1

The load is a closed loop with one client and no extra threads: each CLI
invocation (``hjbpi.cli.main``) starts after the previous one returned.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a traced run (see ``tracing.py``).  Every run is
checked against the recorded artifact digest; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Inputs are fixed configs, so the seed does not change what is computed: it
orders and interleaves the measurements of a run (and the workloads of a
self-check), and it is printed with the results.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracing
from calibrate import Calibrator
from workloads import WORKLOADS, artifact_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5     # fresh interpreters per run; setup_s is their median
RSS_PROBES = 1       # fresh CLI processes per run; peak_rss_mb is their median
MIN_SAMPLES = 5      # timed in-process CLI runs, at least
MIN_TRACED = 3       # traced passes, at least
CHILD_TIMEOUT = 120  # seconds

SETUP_CHILD = """\
import sys
from hjbpi.cli import parse_config
with open(sys.argv[1]) as fh:
    parse_config(fh.read())
"""

# VmHWM is the peak of this process image alone; ru_maxrss would also carry
# the peak of the forked benchmark process across exec.
RSS_CHILD = """\
import sys
from hjbpi.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _no_huge_pages():
    # prctl(PR_SET_THP_DISABLE, 1): this process and its exec'd image only
    ctypes.CDLL(None, use_errno=True).prctl(41, 1, 0, 0, 0)


class Gate:
    """Counts every checked operation and every one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Runner:
    """One workload's files under .bench_out and the ways to invoke it."""

    def __init__(self, workload, gate):
        self.workload = workload
        self.gate = gate
        self.dir = OUT / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.cfg"
        self.config.write_text(workload.config)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def argv(self, outdir):
        return [self.workload.mode, "--config", str(self.config), "--output", str(outdir)]

    def _artifacts_ok(self, code, outdir, what):
        ok = code == 0 and artifact_digest(outdir) == self.workload.digest
        return self.gate.check(ok, f"{self.workload.name} {what}: exit {code}")

    def cli(self, what="timed run"):
        """One in-process CLI invocation; returns its wall seconds."""
        from hjbpi import cli

        outdir = self.dir / "artifacts"
        shutil.rmtree(outdir, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        code = cli.main(self.argv(outdir))
        elapsed = time.perf_counter() - start
        self._artifacts_ok(code, outdir, what)
        return elapsed

    def setup_probe(self):
        """Wall seconds for a fresh interpreter to import the CLI and validate the config."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(self.config)],
                              cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT)
        elapsed = time.perf_counter() - start
        self.gate.check(proc.returncode == 0,
                        f"{self.workload.name} setup probe: exit {proc.returncode}")
        return elapsed

    def rss_probe(self):
        """Peak resident MiB of a fresh process that runs the workload once.

        The child runs without transparent huge pages, which otherwise move
        its peak by whole 2 MiB pages from run to run.
        """
        outdir = self.dir / "child"
        shutil.rmtree(outdir, ignore_errors=True)
        proc = subprocess.run([sys.executable, "-c", RSS_CHILD] + self.argv(outdir),
                              cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT, preexec_fn=_no_huge_pages)
        if not self._artifacts_ok(proc.returncode, outdir, "fresh-process run"):
            return float("nan")
        return int(proc.stdout.split()[-1]) / 1024.0

    def replay_check(self):
        """Feeding the direct solve's argmin policies to evaluate_policy must
        reproduce it bitwise (checked outside every timed region)."""
        from hjbpi.benchmarks import get_benchmark
        from hjbpi.cli import parse_config
        from hjbpi.scheme import SchemeParams, evaluate_policy, solve_hjb_direct

        config = parse_config(self.workload.config)
        benchmark = get_benchmark(config.benchmark)
        problem = benchmark.problem
        grid = benchmark.make_grid(config.h)
        params = SchemeParams.create(grid.spacing, config.T, problem.f_sup_bound,
                                     tau=config.tau, N=config.N, dim=grid.dim)
        fixed = solve_hjb_direct(problem, grid, params)
        replay = evaluate_policy(problem, grid, params, fixed.policy_slices[1:])
        same = fixed.values_array().tobytes() == replay.values_array().tobytes()
        self.gate.check(same, f"{self.workload.name} policy replay is not bitwise")


def measure(runner, rng, seconds):
    """End-to-end metrics: timed CLI runs with seed-placed fresh-process probes.

    Times are calibrated (see calibrate.py); the raw medians are in the notes.
    """
    runner.setup_probe()  # byte-compiles the package and warms the file cache
    warm = runner.cli("warm-up run")
    if runner.workload.replay:
        runner.replay_check()

    probes = ["setup"] * SETUP_PROBES + ["rss"] * RSS_PROBES
    slots = max(MIN_SAMPLES, round(seconds / warm))
    schedule = sorted((rng.randrange(slots), rng.random(), kind) for kind in probes)
    calibrator = Calibrator()
    walls, setups, rss = [], [], []

    def run_probe(kind):
        if kind == "setup":
            setups.append(calibrator.timed(runner.setup_probe))
        else:
            rss.append(calibrator.untimed(runner.rss_probe))

    while len(walls) < MIN_SAMPLES or sum(raw for _, raw in walls) < seconds:
        while schedule and schedule[0][0] <= len(walls):
            run_probe(schedule.pop(0)[2])
        walls.append(calibrator.timed(runner.cli))
    for _, _, kind in schedule:
        run_probe(kind)

    def median(pairs, column):
        return statistics.median(pair[column] for pair in pairs)

    notes = {
        "wall_s": f"median of {len(walls)} timed CLI runs; raw {median(walls, 1):.4f} s",
        "setup_s": f"median of {len(setups)} fresh interpreters; raw {median(setups, 1):.4f} s",
        "peak_rss_mb": f"median of {len(rss)} fresh CLI process(es)",
        "calibration": f"median factor {statistics.median(calibrator.factors):.4f} "
                       f"over {len(calibrator.factors)} kernel pairs",
    }
    metrics = {
        "wall_s": {"value": median(walls, 0), "unit": "s"},
        "setup_s": {"value": median(setups, 0), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
    }
    return metrics, notes


def measure_traced(runner, rng, seconds):
    """Per-layer metrics: traced and untraced passes in seed-chosen order.

    Each traced pass's times are calibrated by that pass's speed factor.
    """
    runner.cli("warm-up run")
    if runner.workload.replay:
        runner.replay_check()

    calibrator = Calibrator()
    recorder = tracing.Recorder()
    traced, untraced, factors = [], [], []
    while len(traced) < MIN_TRACED or sum(raw for _, raw in traced + untraced) < seconds:
        for is_traced in rng.sample([True, False], 2):
            if not is_traced:
                untraced.append(calibrator.timed(runner.cli))
                continue
            recorder.run = len(traced)
            handle = tracing.install(recorder)
            try:
                traced.append(calibrator.timed(lambda: runner.cli("traced run")))
            finally:
                handle.restore()
            factors.append(calibrator.factors[-1])
    recorder.write(runner.dir / "spans.jsonl.gz")

    per_pass = tracing.pass_metrics(recorder.spans)
    values = tracing.median_metrics([_calibrated(per_pass[run], factors[run])
                                     for run in sorted(per_pass)])
    values["trace.overhead_s"] = (statistics.median(t for t, _ in traced)
                                  - statistics.median(t for t, _ in untraced))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.PER_LAYER_UNITS.items()}
    notes = {"trace.overhead_s": f"traced minus untraced median wall_s over "
                                 f"{len(traced)} + {len(untraced)} runs"}
    return metrics, notes


def _calibrated(metrics, factor):
    """Scale one pass's times by its speed factor and its rates by the inverse."""
    scaled = {}
    for name, value in metrics.items():
        unit = tracing.PER_LAYER_UNITS[name]
        if unit == "s":
            value *= factor
        elif unit.endswith("/s"):
            value /= factor
        scaled[name] = value
    return scaled


def run(name, seed, seconds, traced):
    """Measure one workload; return the result object and human-readable notes."""
    gate = Gate()
    runner = Runner(WORKLOADS[name], gate)
    rng = random.Random(seed)
    measure_fn = measure_traced if traced else measure
    metrics, notes = measure_fn(runner, rng, seconds)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    return result, notes


def report(name, seed, result, notes):
    print(f"workload {name}  seed {seed}  python {sys.version.split()[0]}  "
          f"numpy {numpy.__version__}  nproc {os.cpu_count()}")
    for metric, entry in result["metrics"].items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        value = entry["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {metric}: {shown} {entry['unit']}{note}")
    for key in notes.keys() - result["metrics"].keys():
        print(f"  {key}: {notes[key]}")
    print(f"  fail_rate: {result['failed'] / result['attempted']:.6g} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")


def self_check(seed):
    """Run every workload once, briefly, traced and untraced; check the result
    shape against BENCHMARK.json and that nothing failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    random.Random(seed).shuffle(names)
    problems = []
    for name in names:
        for traced, section in ((0, "end_to_end"), (1, "per_layer")):
            result, notes = run(name, seed, 1, traced)
            report(name, seed, result, notes)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={traced}: metrics {got} != {want}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} trace={traced}: fail_rate "
                                f"{result['failed']}/{result['attempted']}")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once and check the result shape")
    args = parser.parse_args(argv)

    if not (SRC / "hjbpi" / "cli.py").is_file():
        print(f"error: no hjbpi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.self_check:
        return self_check(args.seed)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, notes = run(args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, args.seed, result, notes)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
