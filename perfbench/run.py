"""Benchmark of the hydrostat package: one closed-loop client, one workload
per process.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each in its own process

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs each op untraced and then traced, checks that both give
the same output digest, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.  See README.md for the workloads and metrics.
"""

import time

# Process start.  The interpreter's start-up before this line is CPU-bound,
# so the CPU time it has used stands for the wall time it took.
_T0 = time.perf_counter() - time.process_time()

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("ensemble", "probes", "goodset")
# The ensemble pool runs its paths one after another.  A second pool thread
# gained 3-12 % throughput on a 2-vCPU machine, because the paths' Python
# glue holds the interpreter lock, and it made the runs far less steady: both
# cores busy means any other process on the machine stalls an op.
ENSEMBLE_THREADS = 1
PER_N_NAMES = ("spectral.transport_bilinear", "dynamics.step_diffusion", "dynamics.step_damping")


def op_seed(seed: int, index: int) -> int:
    import numpy as np
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def tail(latencies):
    """Latency at the highest percentile with at least 10 ops beyond it, and
    that percentile.  With 21 ops or fewer no percentile above the median
    has 10 ops beyond it, and the median is reported as p50."""
    n = len(latencies)
    if n < 22:
        return statistics.median(latencies), 50.0
    rank = n - 11  # 0-based; 10 ops lie beyond it
    return sorted(latencies)[rank], 100.0 * rank / (n - 1)


def environment(seed: int, threads: int) -> dict:
    import numpy as np
    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hydrostat").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "ensemble_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": ("pocketfft C++ ufuncs (numpy.fft._pocketfft_umath)"
                        if hasattr(np.fft, "_pocketfft_umath") else "pocketfft (numpy.fft)"),
        "thread_env": {k: os.environ.get(k, "unset") for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "HYDROSTAT_THREADS")},
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "machine": platform.machine(),
    }


class Run:
    """One workload in this process: set-up, the timed closed loop, checks."""

    def __init__(self, name: str, seed: int):
        from workloads import WORKLOADS
        self.name, self.seed = name, seed
        self.make = WORKLOADS[name]
        self.failed_ops: set = set()
        self.problems: list = []  # failed checks that belong to no single op

    def attempt(self, workload, index: int):
        """Run op ``index``; returns (result or None, latency)."""
        s = op_seed(self.seed, index)
        start = time.perf_counter()
        try:
            result = workload.op(s)
        except Exception:  # an op that raises counts as failed; the run goes on
            latency = time.perf_counter() - start
            self.fail(index, f"seed {s} raised\n{traceback.format_exc()}")
            return None, latency
        latency = time.perf_counter() - start
        if not result.ok:
            self.fail(index, f"seed {s}: {result.detail}")
        return result, latency

    def fail(self, index, detail: str):
        print(f"FAILED op {index} {detail}")
        if index > 0:
            self.failed_ops.add(index)
        else:
            self.problems.append(f"warm-up op: {detail}")

    def set_up(self):
        """Set the workload up and run one warm-up op.  Returns the workload
        and setup_s, the time from process start to here: interpreter
        start-up, imports, set-up and the warm-up op, all cold."""
        workload = self.make(OUT)
        self.attempt(workload, 0)
        return workload, time.perf_counter() - _T0

    def loop(self, workload, seconds: float, tracer=None):
        """Closed loop until ``seconds`` have passed.  With a tracer, each op
        runs a second time traced and the two digests must agree."""
        latencies, traced, work, index = [], [], 0, 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            index += 1
            result, latency = self.attempt(workload, index)
            latencies.append(latency)
            work += result.work if result and result.ok else 0
            if tracer is None:
                continue
            tracer.op = index
            tracer.install()
            try:
                again, latency = self.attempt(workload, index)
            finally:
                tracer.uninstall()
            traced.append(latency)
            if result and again and again.digest != result.digest:
                self.fail(index, "traced digest differs from the untraced one")
        wall = time.perf_counter() - start
        ok, detail = workload.final_check()
        print(f"check: {detail}")
        if not ok:
            self.problems.append(detail)
        return latencies, traced, work, wall


def end_to_end(run_, workload, setup_s: float, seconds: float):
    latencies, _, work, wall = run_.loop(workload, seconds)
    unit = workload.unit
    p50 = statistics.median(latencies)
    tail_s, pct = tail(latencies)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(latencies)
    print("op latencies s: " + " ".join(f"{x:.3f}" for x in latencies))
    print(f"setup_s            {setup_s:.4f} s")
    print(f"{unit + '_per_s':<18} {work / wall:.4f} 1/s  (reported as work_per_s: "
          f"{work} {unit} in {wall:.2f} s)")
    print(f"op_p50_s           {p50:.4f} s  (n={n})")
    print(f"op_tail_s          {tail_s:.4f} s  (p{pct:.1f}, n={n})")
    print(f"peak_rss_mib       {rss:.1f} MiB")
    return n, {
        "setup_s": (setup_s, "s"),
        "work_per_s": (work / wall, "1/s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mib": (rss, "MiB"),
    }


def per_layer(run_, workload, seconds: float, threads: int):
    import numpy
    import hydrostat
    from tracing import Tracer, fft_outside_transport, fft_per_transport, layer_metrics, per_n_means

    tracer = Tracer(hydrostat, numpy.fft)
    latencies, traced, _, _ = run_.loop(workload, seconds, tracer)
    n = len(latencies)
    spans = tracer.spans
    metrics = layer_metrics(spans, n, threads, sum(traced) / sum(latencies))
    # Counter cross-checks: a call site that bypasses a wrapper breaks them.
    per_transport = fft_per_transport(spans)
    stray = fft_outside_transport(spans)
    print(f"fft calls per transport: {dict(per_transport)}; outside a transport: {stray}")
    if len(per_transport) > 1 or 0 in per_transport:
        run_.problems.append(f"fft calls per transport vary or are 0: {dict(per_transport)}")
    if stray:
        run_.problems.append(f"{stray} fft calls made outside transport_bilinear")
    if run_.name == "ensemble":
        calls = Counter(s.name for s in spans)
        transports = calls["spectral.transport_bilinear"]
        steps = calls["dynamics.step_diffusion"] + calls["dynamics.step_damping"]
        print(f"{transports} transports, {steps} steps")
        if steps == 0 or transports != 4 * steps:
            run_.problems.append(f"{transports} transports != 4 x {steps} steps")
    means = per_n_means(spans, PER_N_NAMES)
    print("mean ms per call: " + json.dumps({k: round(v, 3) for k, v in means.items()}))
    for key, (value, unit) in metrics.items():
        print(f"{key:<44} {value:.6g} {unit}")
    tracer.write(OUT / f"spans-{run_.name}-seed{run_.seed}.jsonl")
    return n, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "hydrostat" / "__init__.py").is_file():
        print(f"error: no hydrostat sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = ENSEMBLE_THREADS
    os.environ["HYDROSTAT_THREADS"] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    run_ = Run(name, seed)
    workload, setup_s = run_.set_up()
    # Printed after set-up, so that its git call is not timed as set-up.
    print("env " + json.dumps(environment(seed, threads), sort_keys=True))
    try:
        if trace:
            attempted, metrics = per_layer(run_, workload, seconds, threads)
        else:
            attempted, metrics = end_to_end(run_, workload, setup_s, seconds)
    finally:
        workload.close()
    failed = len(run_.failed_ops)
    print(f"failed_frac        {failed / attempted:.4f}  ({failed}/{attempted} ops)")
    for problem in run_.problems:
        print(f"FAILED {problem}")
    correct = not run_.failed_ops and not run_.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so set-up time and peak memory
    belong to that workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
