#!/usr/bin/env python3
"""Benchmark of `kasamilab verify`: wall time end to end and per module.

Run from the root of the repository:

  python3 bench/run.py --workload corr-struct --seed 0 --seconds 30 --trace 0

Each workload is a fixed grid of (n, k) points. One pass runs
`kasamilab.cli.main(["verify", ...])` at every point of the grid, one point at
a time, each in a fresh child process (bench/child.py); passes repeat in a
closed loop until the next one would end after --seconds. Every run is
checked: its exit code is fixed per point, and its report.json is compared
with the reference report in bench/expected/, written by the kasamilab code
this benchmark was defined on. The seed picks the primitive --modulus for
each n; seed 0 keeps the program's default, and only then must the report be
byte-identical.

With --trace 0 the end-to-end metrics are medians over the passes. Set-up
time is also sampled by extra children that only import kasamilab and build
the field. With --trace 1 untraced and traced passes alternate; the traced
ones wrap the public functions of each kasamilab module from outside
(bench/layers.py) and give the per-layer metrics, and the difference between
the two kinds of pass is the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The machine facts are printed on the line
before it. Exit status 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import reports

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass(frozen=True)
class Workload:
    points: tuple
    workers: int
    why: str


# The n = 6 structural checks are pure-Python loops. Alone, their run-to-run
# spread on a shared 2-CPU machine reached 27%, so they share a workload with
# the BLAS-bound n = 8 correlation sweep, which spreads 3-8%.
WORKLOADS = {
    "corr-struct": Workload(
        ((6, 1), (6, 2), (8, 2)), 1,
        "the correlation kernel at scale (8,2) and at small size (6,k), with "
        "exhaustive cyclicity, gamma-sweep, Artin-Schreier and inequivalence "
        "at n = 6"),
    "sums-n10": Workload(
        ((10, 1), (10, 2), (12, 1)), 2,
        "S and T sweeps and Bluher counts on the threaded path; codes and "
        "sequences skipped by budget"),
}

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("verified_per_s", "1/s", "higher"),
    ("checks_run", "count", "higher"),
]

# Per-layer metrics taken from pass wall times, not from spans.
TRACE_METRICS = [
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

SETUP_ROUNDS = 5
# Every run ends well within three minutes, even when a child hangs.
RUN_DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    setup: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    verified: int = 0
    checks: int = 0
    # ((n, k), wall, per-layer metric parts) of each traced child.
    points: list = field(default_factory=list)


class Runner:
    def __init__(self, workload, seed, workdir, deadline):
        self.workload = workload
        self.moduli = {n: reports.choose_modulus(n, seed)
                       for n, _ in workload.points}
        self.workdir = workdir
        self.deadline = deadline
        self.spawned = 0
        self.attempted = 0
        self.failures = []

    def _spawn(self, n, k, traced=False, setup_only=False):
        """Run bench/child.py for one point; return its result and costs."""
        self.spawned += 1
        out = self.workdir / f"c{self.spawned}"
        out.mkdir()
        result = out / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--n", str(n),
               "--k", str(k), "--workers", str(self.workload.workers),
               "--out", str(out), "--result", str(result)]
        modulus = self.moduli[n]
        if modulus is not None:
            cmd += ["--modulus", f"{modulus:#x}"]
        if traced:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(out / "log.txt", "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"verify at ({n},{k}) still running at the "
                                 f"run deadline") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            end = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if code != 0 or not result.exists():
            tail = (out / "log.txt").read_text(errors="replace")[-2000:]
            raise BenchError(f"child for ({n},{k}) exited {code}:\n{tail}")
        data = json.loads(result.read_text())
        data["out"] = out
        data["wall"] = end - start
        data["setup"] = data["setup_end"] - start
        data["cpu"] = ((after.ru_utime - before.ru_utime)
                       + (after.ru_stime - before.ru_stime))
        return data

    def setup_round(self):
        return sum(self._spawn(n, k, setup_only=True)["setup"]
                   for n, k in self.workload.points)

    def run_pass(self, traced):
        p = Pass(traced)
        start = time.monotonic()
        for n, k in self.workload.points:
            child = self._spawn(n, k, traced=traced)
            p.setup += child["setup"]
            p.cpu += child["cpu"]
            p.rss_mb = max(p.rss_mb, child["maxrss_kb"] / 1024)
            report = self._check(n, k, child)
            if report is not None:
                p.verified += reports.verified_total(n, k, report)
                p.checks += reports.checks_run(report)
            if traced:
                p.points.append(((n, k), child["wall"], child["layer_parts"]))
        p.wall = time.monotonic() - start
        return p

    def _check(self, n, k, child):
        """Record a failure unless the run is correct; return the report."""
        self.attempted += 1
        reasons, report = [], None
        if child["exit_code"] is None:
            reasons.append("verify raised:\n" + child["error"])
        elif child["exit_code"] != reports.EXIT_CODES[(n, k)]:
            reasons.append(f"exit code {child['exit_code']}, expected "
                           f"{reports.EXIT_CODES[(n, k)]}")
        path = child["out"] / "report.json"
        if path.exists():
            actual = path.read_bytes()
            reasons += reports.compare_reports(
                reports.expected_report(n, k), actual, self.moduli[n])
            if not reasons:
                report = json.loads(actual)
        else:
            reasons.append("no report.json written")
        if reasons:
            self.failures.append(((n, k), reasons))
        return report


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_facts(workload, seed, trace):
    import numpy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(passes, setups):
    med = statistics.median
    values = {
        "wall_s": med(p.wall for p in passes),
        "setup_s": med(setups),
        "cpu_s": med(p.cpu for p in passes),
        "peak_rss_mb": med(p.rss_mb for p in passes),
        "verified_per_s": med(p.verified / p.wall for p in passes),
        "checks_run": statistics.median_low(p.checks for p in passes),
    }
    return {name: _metric(values[name], unit)
            for name, unit, _better in END_TO_END}


def per_layer_metrics(plain, traced):
    med = statistics.median
    out = {}
    for name, unit, _better, _parts in layers.PER_LAYER:
        # Sum each part over the pass's grid points, then combine.
        values = (layers.combine([sum(x) for x in zip(
            *(parts[name] for _point, _wall, parts in p.points))])
            for p in traced)
        out[name] = _metric(med(values), unit)
    traced_wall = med(p.wall for p in traced)
    values = {"trace.wall_s": traced_wall,
              "trace.overhead_s": traced_wall - med(p.wall for p in plain)}
    for name, unit, _better in TRACE_METRICS:
        out[name] = _metric(values[name], unit)
    return out


def run(workload_name, seed, seconds, trace):
    if not (ROOT / "src" / "kasamilab" / "cli.py").is_file():
        raise BenchError(f"no kasamilab sources under {ROOT / 'src'}")
    workload = WORKLOADS[workload_name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = HERE / ".work" / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, workdir, deadline)
        # In a traced run these only warm the file cache.
        setups = [runner.setup_round() for _ in range(SETUP_ROUNDS)]
        modes = (False, True) if trace else (False,)
        passes = []
        start = time.monotonic()
        while True:
            passes += [runner.run_pass(traced) for traced in modes]
            elapsed = time.monotonic() - start
            per_round = elapsed / (len(passes) // len(modes))
            if elapsed + per_round > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    plain = [p for p in passes if not p.traced]
    if trace:
        metrics = per_layer_metrics(plain, [p for p in passes if p.traced])
    else:
        metrics = end_to_end_metrics(plain, setups + [p.setup for p in plain])
    return runner, passes, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the child still
    # running is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        runner, passes, metrics = run(args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for (n, k), reasons in runner.failures:
        for reason in reasons:
            print(f"FAILED verify ({n},{k}): {reason}", file=sys.stderr)
    moduli = ", ".join(f"n={n}: " + (f"{m:#x}" if m else "default")
                       for n, m in runner.moduli.items())
    print(f"{args.workload}: seed {args.seed} ({moduli}), {len(passes)} "
          f"passes over {len(runner.workload.points)} points")
    print("  pass wall_s: " + " ".join(
        f"{p.wall:.3f}" + (" (traced)" if p.traced else "") for p in passes))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6f} {m['unit']}")
    traced = [p for p in passes if p.traced]
    if traced:
        print("  largest spans per point, last traced pass:")
        for (n, k), wall, parts in traced[-1].points:
            top = sorted(((layers.combine(parts[name]), name)
                          for name, unit, _b, _p in layers.PER_LAYER
                          if unit == "s"), reverse=True)[:3]
            print(f"    ({n},{k}) {wall:.3f} s: " + ", ".join(
                f"{name} {v:.3f} s ({v / wall:.0%})" for v, name in top))
    failed = len(runner.failures)
    print(f"  {'failed_frac':32s} {failed / runner.attempted:>16.6f} "
          f"({failed} of {runner.attempted} verify runs)")
    print("facts: " + json.dumps(machine_facts(args.workload, args.seed,
                                               bool(args.trace))))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
