"""cqcalc benchmark: three closed-loop CLI job streams.

    python3 bench/run.py --workload {sweep,proofs,certify} --seed N \
        [--seconds S] --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`.  One process, one client: each job runs in-process through
`cqcalc.cli.main(argv)` or a public library call, and the next job
starts when the previous one has finished.  Every output is checked
against an independent reference (`reference.py`).

`--trace 0` reports the end-to-end metrics.  `--trace 1` ignores
`--seconds` and runs a fixed number of blocks: untraced, then with every
public function of the traced modules wrapped (`tracing.py`), and on
`proofs` once more for the tracemalloc peak of `Diagram.evaluate`.  It
reports per-layer metrics, whose counts repeat exactly for a given
seed.  The last line of standard output is the result object; the line
before it holds run details and the machine fingerprint.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate
from tracing import TRACED_MODULES, EvaluateMemory, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # per-run scratch files, removed at exit
OUT = ROOT / ".bench_out"  # span files of traced runs

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 20  # fresh interpreters per set-up measurement, after one unmeasured
SETUP_TIMEOUT = 120
MIN_JOBS = 100  # so that at least ten samples lie beyond the 90th percentile
TRACE_BLOCKS = {"sweep": 2, "proofs": 6, "certify": 4}

# Functions each workload must call (so a rename cannot read as zero)
# and functions it must never call (the layers it is meant to bypass).
EXPECT_CALLED = {
    "sweep": ["cli.main", "protocol.spotcheck_run"],
    "proofs": [
        "cli.main", "regcalc.random_cq_channel", "diagram.evaluate", "diagram.canonical_form",
        "rewrite.run_script", "rewrite.find_matches",
    ],
    "certify": [
        "cli.main", "extractor.extractor_distance_exact", "extractor.toeplitz_matrix",
        "protocol.min_entropy_cq", "regcalc.process_distance", "regcalc.choi_operator",
    ],
}
EXPECT_UNCALLED = {
    "sweep": ["diagram.", "rewrite.", "extractor.", "regcalc.random_cq_channel",
              "regcalc.process_distance", "regcalc.choi_operator", "protocol.min_entropy_cq"],
    "proofs": ["protocol.", "extractor.", "regcalc.process_distance"],
    "certify": ["diagram.", "rewrite.", "protocol.spotcheck_run", "regcalc.random_cq_channel"],
}

CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cqcalc.cli
code = cqcalc.cli.main(sys.argv[3:])
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import statistics, numpy, calibrate
print(code, seconds, statistics.median(calibrate.kernel_seconds(numpy) for _ in range(5)))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "proofs", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="timed-loop length; required with --trace 0")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.trace and args.seconds is None:
        p.error("--seconds is required with --trace 0")
    return args


class Runner:
    """Executes jobs, times them, checks them and keeps the tallies."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.out = workdir / "report.json"
        self.attempted = 0
        self.failures = []  # (kind, message)
        self.kernel_s = []  # calibration samples

    def run(self, job, wrap=None):
        """Returns (seconds, report bytes, counters) for one job."""
        if self.out.exists():
            self.out.unlink()
        self.attempted += 1
        value, data, error = None, b"", None
        t0 = time.perf_counter()
        try:
            if job.argv is not None:
                argv = [*job.argv, "--out", str(self.out)]
                code = wrap(lambda: self.cli.main(argv)) if wrap else self.cli.main(argv)
            else:
                value, data = wrap(job.call) if wrap else job.call()
        except (Exception, SystemExit):
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        counters = {}
        if error is None:
            try:
                if job.argv is not None:
                    data = self.out.read_bytes() if self.out.exists() else b""
                    value = (code, data)
                counters = job.check(value) or {}
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            self.fail(job.kind, error)
        gc.collect()
        return seconds, data, counters

    def fail(self, kind, message):
        if not self.failures:
            print(f"job {kind} failed:\n{message}", file=sys.stderr)
        self.failures.append((kind, message.strip().splitlines()[-1]))


def add(total: dict, counters: dict):
    for k, v in counters.items():
        total[k] = total.get(k, 0) + v


def percentile(values, q):
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup(workload, runner, workdir):
    """Median over fresh interpreters of import cqcalc.cli + first job."""
    job = workload.first_job()
    out = workdir / "setup.json"
    samples = []
    for i in range(SETUP_RUNS + 1):
        runner.attempted += 1
        cmd = [sys.executable, "-c", CHILD, str(SRC), str(BENCH), *job.argv, "--out", str(out)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT, cwd=workdir)
            code, seconds, kernel = proc.stdout.split()[-3:]
            job.check((int(code), out.read_bytes()))
        except Exception:
            runner.fail(job.kind + ":setup", traceback.format_exc())
            continue
        if i:
            samples.append((float(seconds), float(kernel)))
    return samples


def warm_up(workload, runner):
    """Reference jobs, then one job of each class, untimed."""
    for job in workload.reference_jobs():
        runner.run(job)
    seen = set()
    for job in workload.block(-1):
        if job.kind not in seen:
            seen.add(job.kind)
            runner.run(job)


def pooled_checks(workload, runner, counters):
    for kind, message in workload.finish(counters):
        runner.attempted += 1
        runner.fail(kind, message)


def timed_jobs(blocks, runner, np, seen, wrap=None):
    """Run blocks of jobs, passing (job, report bytes, counters) of each
    to `seen`; returns raw and calibrated seconds per job."""
    raw, samples = [], []
    for block in blocks:
        for job in block:
            samples.append(calibrate.kernel_seconds(np))
            dt, data, counters = runner.run(job, wrap)
            raw.append(dt)
            seen(job, data, counters)
    samples.append(calibrate.kernel_seconds(np))
    runner.kernel_s += samples
    return raw, calibrate.scaled(raw, samples)


def blocks_for(workload, seconds):
    """Whole blocks until `seconds` have passed and MIN_JOBS have run."""
    start, index, jobs = time.perf_counter(), 0, 0
    while time.perf_counter() - start < seconds or jobs < MIN_JOBS:
        block = workload.block(index)
        yield block
        index += 1
        jobs += len(block)


def end_to_end(workload, runner, workdir, seconds, np):
    setup = measure_setup(workload, runner, workdir)
    warm_up(workload, runner)
    kinds, counters = [], {}

    def seen(job, data, c):
        kinds.append(job.kind)
        add(counters, c)

    raw, times = timed_jobs(blocks_for(workload, seconds), runner, np, seen)
    pooled_checks(workload, runner, counters)
    by_kind = {}
    for kind, t in zip(kinds, times):
        by_kind.setdefault(kind, []).append(t)
    setup_scaled = [s * calibrate.NOMINAL_S / k for s, k in setup]
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s.p50": (percentile(times, 0.5), "s"),
        "job_s.p90": (percentile(times, 0.9), "s"),
        "setup_s": (statistics.median(setup_scaled) if setup else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - len(runner.failures) / runner.attempted, "ratio"),
    }
    info = {
        "jobs": len(times),
        "raw": {
            "jobs_per_s": len(raw) / sum(raw),
            "job_s.p50": percentile(raw, 0.5),
            "job_s.p90": percentile(raw, 0.9),
            "setup_s": statistics.median(s for s, _ in setup) if setup else None,
        },
        "setup_samples_s": setup_scaled,
        "median_s_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }
    return metrics, info


def traced(workload, runner, package, np):
    warm_up(workload, runner)
    blocks = [workload.block(i) for i in range(TRACE_BLOCKS[workload.name])]
    _, plain = timed_jobs(blocks, runner, np, lambda *_: None)

    counters, digest = {}, hashlib.sha256()
    report_bytes = 0

    def seen(job, data, c):
        nonlocal report_bytes
        add(counters, c)
        if job.argv is not None:
            report_bytes += len(data)
        digest.update(job.kind.encode() + b"\0" + data)

    tracer = Tracer(package)
    wrapped = tracer.install()
    try:
        raw, job_times = timed_jobs(blocks, runner, np, seen, wrap=tracer.job)
    finally:
        tracer.uninstall()
    pooled_checks(workload, runner, counters)
    scale = sum(job_times) / sum(raw)  # calibrated over raw seconds of the traced pass

    # tracemalloc slows every allocation, so the peak gets a pass of its own
    memory = EvaluateMemory(package["diagram"].Diagram)
    if "diagram.evaluate" in EXPECT_CALLED[workload.name]:
        memory.install()
        try:
            timed_jobs(blocks, runner, np, lambda *_: None)
        finally:
            memory.uninstall()

    table = tracer.table()
    for name in EXPECT_CALLED[workload.name]:
        if name not in wrapped:
            runner.fail("trace", f"{name} is not a public function any more")
        elif table.get(name, {}).get("calls", 0) == 0:
            runner.fail("trace", f"{name} was never called")
    for prefix in EXPECT_UNCALLED[workload.name]:
        for name, row in table.items():
            if name.startswith(prefix) and row["calls"]:
                runner.fail("trace", f"{name} called {row['calls']} times")

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "main_self_s": 0.0})

    def module_self(prefix):
        return sum(r["self_s"] for n, r in table.items() if n.startswith(prefix))

    def frac(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    rounds = counts["protocol.rounds"]
    entropy_calls = row("protocol.min_entropy_cq")["calls"]
    distance_calls = row("regcalc.process_distance")["calls"]
    metrics = {
        "protocol.spotcheck_run.calls": (row("protocol.spotcheck_run")["calls"], "count"),
        "protocol.spotcheck_run.self_s": (row("protocol.spotcheck_run")["self_s"], "s"),
        "protocol.rounds": (rounds, "count"),
        "protocol.us_per_round": (
            frac(row("protocol.spotcheck_run")["main_self_s"] * 1e6, counts["protocol.rounds.main"]), "us"),
        "cli.self_s": (module_self("cli."), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "regcalc.random_cq_channel.calls": (row("regcalc.random_cq_channel")["calls"], "count"),
        "regcalc.random_cq_channel.self_s": (row("regcalc.random_cq_channel")["self_s"], "s"),
        "diagram.evaluate.calls": (row("diagram.evaluate")["calls"], "count"),
        "diagram.evaluate.self_s": (row("diagram.evaluate")["self_s"], "s"),
        "diagram.evaluate.peak_mb": (memory.peak_mb, "MB"),
        "diagram.canonical_form.calls": (row("diagram.canonical_form")["calls"], "count"),
        "diagram.canonical_form.self_s": (row("diagram.canonical_form")["self_s"], "s"),
        "rewrite.run_script.self_s": (row("rewrite.run_script")["self_s"], "s"),
        "rewrite.find_matches.calls": (row("rewrite.find_matches")["calls"], "count"),
        "rewrite.find_matches.self_s": (row("rewrite.find_matches")["self_s"], "s"),
        "rewrite.steps_checked_frac": (frac(counters.get("steps_checked", 0), counters.get("steps", 0)), "ratio"),
        "extractor.extractor_distance_exact.self_s": (row("extractor.extractor_distance_exact")["self_s"], "s"),
        "extractor.toeplitz_matrix.calls": (row("extractor.toeplitz_matrix")["calls"], "count"),
        "extractor.toeplitz_matrix.self_s": (row("extractor.toeplitz_matrix")["self_s"], "s"),
        "extractor.seeds_enumerated": (counts["extractor.seeds_enumerated"], "count"),
        "protocol.min_entropy_cq.calls": (entropy_calls, "count"),
        "protocol.min_entropy_cq.self_s": (row("protocol.min_entropy_cq")["self_s"], "s"),
        "protocol.min_entropy_cq.iterations": (counts["protocol.min_entropy_cq.iterations"], "count"),
        "protocol.min_entropy_cq.converged_frac": (
            frac(counts["protocol.min_entropy_cq.converged"], entropy_calls), "ratio"),
        "regcalc.process_distance.self_s": (row("regcalc.process_distance")["self_s"], "s"),
        "regcalc.choi_operator.calls": (row("regcalc.choi_operator")["calls"], "count"),
        "regcalc.choi_operator.self_s": (row("regcalc.choi_operator")["self_s"], "s"),
        "regcalc.process_distance.loose_upper_frac": (
            frac(counts["regcalc.process_distance.loose_upper"], distance_calls), "ratio"),
        "regcalc.self_s": (module_self("regcalc."), "s"),
        "diagram.self_s": (module_self("diagram."), "s"),
        "rewrite.self_s": (module_self("rewrite."), "s"),
        "protocol.self_s": (module_self("protocol."), "s"),
        "extractor.self_s": (module_self("extractor."), "s"),
        "trace.jobs": (len(job_times), "count"),
        "trace.job_total_s": (sum(raw), "s"),
        "trace.unwrapped_self_s": (row("job")["self_s"], "s"),
        "trace.slowdown": (frac(sum(job_times), sum(plain)), "ratio"),
    }
    for name, (value, unit) in metrics.items():
        if unit in ("s", "us"):
            metrics[name] = (value * scale, unit)
    info = {
        "report_sha256": digest.hexdigest(),
        "untraced_jobs_per_s": len(plain) / sum(plain),
        "traced_jobs_per_s": len(job_times) / sum(job_times),
        "spans": len(tracer.spans),
    }
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(span_file, {"workload": workload.name, "seed": workload.seed,
                             "functions": table, "counts": dict(counts)})
    info["span_file"] = str(span_file.relative_to(ROOT))
    return metrics, info


def fingerprint(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


class Terminated(BaseException):
    """SIGTERM: unwinds past the job runner's handlers, so that the work
    directory is removed."""


def terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, terminate)
    if not (SRC / "cqcalc" / "cli.py").is_file():
        print(f"error: cqcalc sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is imported, here and in the children
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(SRC))
    import numpy as np

    from jobs import WORKLOADS

    package = {m: importlib.import_module(f"cqcalc.{m}") for m in TRACED_MODULES}
    nproc = len(os.sched_getaffinity(0))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    os.chdir(workdir)  # job input files are named relative to it
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, nproc, package)
        runner = Runner(package["cli"], workdir)
        if args.trace:
            metrics, info = traced(workload, runner, package, np)
        else:
            metrics, info = end_to_end(workload, runner, workdir, args.seconds, np)
    except Terminated:
        print("terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    info["failures"] = runner.failures[:20]
    info["calibration_kernel_s"] = statistics.median(runner.kernel_s)
    info["fingerprint"] = fingerprint(np)
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
