"""Benchmark of snnselect: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload mc-dgp2-table --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout.  Every metric is printed by name with its unit and sample
count; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md here.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
SETUP_ROUNDS = 3
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
RSS_SAMPLE_S = 0.02
# One BLAS/OpenMP thread per process: numpy's OpenBLAS is threaded, and the
# Monte Carlo pool already puts one worker on every core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import snnselect; print(time.perf_counter() - t)"
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metadata(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or commit
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "threads_per_process": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _import_probe_s() -> float:
    """Import time of snnselect in a fresh interpreter, timed by that interpreter."""
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(res.stdout.strip())


def _hwm_kb(pid) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _children() -> list[str]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += (task / "children").read_text().split()
        except OSError:
            pass
    return pids


class PeakRss(threading.Thread):
    """Samples the peak resident set of this process plus its children.

    Each sample adds the high-water marks (VmHWM) of this process and of every
    live child, so a pool worker's peak counts as long as it was sampled once
    before it exited.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._stop_event = threading.Event()
        self.peak_kb = 0

    def sample(self) -> None:
        total = _hwm_kb("self")
        for pid in _children():
            try:
                total += _hwm_kb(pid)
            except OSError:
                pass  # the child exited between listing and reading
        self.peak_kb = max(self.peak_kb, total)

    def run(self) -> None:
        while not self._stop_event.wait(RSS_SAMPLE_S):
            self.sample()

    def stop(self) -> None:
        self._stop_event.set()
        self.join()
        self.sample()


def _describe(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def _untraced(job, seconds: float):
    """Timed passes until ``seconds`` would be exceeded (at least MIN_PASSES)."""
    walls, outputs = [], []
    sampler = PeakRss()
    sampler.start()
    start = perf_counter()
    try:
        while len(walls) < MIN_PASSES or perf_counter() - start + statistics.median(walls) <= seconds:
            t = perf_counter()
            outputs.append(job.run_pass())
            walls.append(perf_counter() - t)
    finally:
        sampler.stop()
    return walls, outputs, sampler.peak_kb / 1024.0


def _traced(job, seconds: float, tracing):
    """Alternating untraced and traced passes; the traced ones record spans."""
    walls, tracers, outputs = [], [], []
    start = perf_counter()
    while len(tracers) < MIN_TRACED_PAIRS or perf_counter() - start + 2 * statistics.median(walls) <= seconds:
        t = perf_counter()
        outputs.append(job.run_pass())
        walls.append(perf_counter() - t)
        tracer = tracing.Tracer()
        with tracer.installed():
            outputs.append(tracer.run(job.run_pass))
        tracers.append(tracer)
    return walls, tracers, outputs


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "snnselect" / "__init__.py").is_file():
        print(f"error: no snnselect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import snnselect
    import tracing
    import workloads

    if Path(snnselect.__file__).resolve().parent != SRC / "snnselect":
        print(f"error: imported snnselect from {snnselect.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        job = workloads.WORKLOADS[args.workload](args.seed, work_dir, nproc, trace=args.trace == 1)
        print("meta", json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, **_metadata(nproc)}))

        rounds = []
        for _ in range(SETUP_ROUNDS):
            imp = _import_probe_s()
            t = perf_counter()
            job.prepare()
            rounds.append(imp + perf_counter() - t)

        metrics, samples, failures = {}, {}, {}
        if args.trace == 0:
            walls, outputs, peak_mb = _untraced(job, args.seconds)
            counts = [job.account(o) for o in outputs]
            rates = [c.items / w for c, w in zip(counts, walls)]
            metrics = {
                "wall_s": statistics.median(walls),
                "items_per_s": statistics.median(rates),
                "peak_rss_mb": peak_mb,
                "setup_s": statistics.median(rounds),
            }
            samples = {"wall_s": walls, "items_per_s": rates, "setup_s": rounds}
            units = _declared("end_to_end")
        else:
            walls, tracers, outputs = _traced(job, args.seconds, tracing)
            counts = [job.account(o) for o in outputs]
            for name, value in tracing.PER_PASS.items():
                samples[name] = [value(t) for t in tracers]
                metrics[name] = statistics.median(samples[name])
            untraced_wall = statistics.median(walls)
            metrics["trace_overhead_share"] = (metrics["traced_wall_s"] - untraced_wall) / untraced_wall
            units = _declared("per_layer")
            failures = tracers[-1].boundary_failures()

        checks = job.checks(outputs[-1])
        if args.trace == 1:
            checks.append((
                f"layer self times + harness self time == traced wall_s "
                f"(within {tracing.SPAN_SUM_TOLERANCE:g})",
                all(t.span_sum_ok() for t in tracers),
            ))
            for name in tracing.EXACT_COUNTS:
                checks.append((f"{name} repeats exactly across passes", len(set(samples[name])) == 1))

        failed_checks = sum(not ok for _, ok in checks)
        attempted = sum(c.attempted for c in counts) + len(checks)
        failed = sum(c.failed for c in counts) + failed_checks
        for name, ok in checks:
            print(f"check {'PASS' if ok else 'FAIL'}: {name}")
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
        for name, value in metrics.items():
            print(f"metric {name} = {value:.6g} {units[name]} ({_describe(samples.get(name, [value]))})")
        for reason, n in sorted(failures.items()):
            print(f"failure {reason} = {n} (last traced pass)")
        print(f"operations (checks included): attempted={attempted} failed={failed} "
              f"failed_share={failed / attempted:.6g}")
        print(json.dumps({
            "correct": failed_checks == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds leftovers


if __name__ == "__main__":
    sys.exit(main())
