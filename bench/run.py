"""axiwave benchmark: one closed-loop client driving one workload.

    python3 bench/run.py --workload {ledger,evolve,files} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
./src.  `--trace 0` measures the end-to-end metrics with tracing off.
`--trace 1` runs the same ops untraced and then traced, and reports the
per-layer metrics, the tracing overhead and the per-call table.  Every
metric is printed by name with its unit; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

End-to-end metrics (untraced):
  setup_s      median over fresh processes of the time to import axiwave
               and finish one warm-up op of the workload
  ops_per_s    ops completed per second of op time; the client's own input
               generation and output checks are paused out
  op_p50_ms    median op latency
  op_tail_ms   latency at the highest percentile with at least ten ops
               beyond it (the median when a run has fewer than 21 ops); the
               percentile and the op count are printed with it
  peak_rss_mb  ru_maxrss of the workload process, in MiB
The share of failed ops, `failed / attempted`, is printed with every run
and reported as the per-layer metric `failed_ratio`.

`correct` is false when any op on well-formed input raised, exited
non-zero or broke its output check (a wrong answer).  `failed` also
counts malformed-input probes that did not exit 2.  Inputs that break the
exit-code contract today (known defects) are not ops of the timed run;
the traced pass feeds each once and counts the ones that raise out of
`axiwave.cli.main` in `cli.uncaught`.  The BLAS/OpenMP thread count is
fixed at one before numpy loads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT = 120
TAIL_BEYOND = 10          # samples beyond the reported tail percentile

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MiB"}
BENCH_DIR = Path(__file__).resolve().parent


def _per_layer_units() -> dict[str, str]:
    from micro import metric_names
    from tracing import LAYERS
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.share": "ratio"})
    units.update({
        "kernel.r2r.calls": "count", "kernel.r2r.self_s": "s",
        "kernel.r2r.bytes": "B", "kernel.fft.calls": "count",
        "kernel.fft.self_s": "s", "kernel.fft.bytes": "B",
        "python_overhead_share": "ratio",
        "grids.conjugate.calls": "count",
        "transforms.quadrature.calls": "count",
        "transforms.quadrature.self_s": "s",
        "transforms.quadrature.alloc_peak_mb": "MiB",
        "evolution.diagnostics.self_s": "s",
        "fileio.read.bytes": "B", "fileio.write.bytes": "B",
        "fileio.read.mb_per_s": "MB/s", "fileio.write.mb_per_s": "MB/s",
        "relativity.retained_min": "ratio", "relativity.retained_mean": "ratio",
        "relativity.warnings": "count",
        "verify.entries_failed": "count", "verify.warnings": "count",
        "cli.uncaught": "count", "cli.diag_blank_cells": "count",
        "failed_ratio": "ratio", "trace.overhead_share": "ratio",
    })
    for kind in ("scalar", "rk4", "wave", "weyl", "maxwell"):
        units[f"evolution.{kind}.p50_ms"] = "ms"
    units.update({name: "us" for name in metric_names()})
    return units


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["ledger", "evolve", "files"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)   # internal: one set-up timing
    return p.parse_args(argv)


def _import_library(root: Path):
    """Import axiwave from the checkout's src/, never from elsewhere."""
    src = root / "src"
    if not (src / "axiwave" / "__init__.py").is_file():
        raise SystemExit(f"error: no axiwave sources under {src}; run from "
                         "the root of a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import axiwave
    if Path(axiwave.__file__).resolve().parent != (src / "axiwave").resolve():
        raise SystemExit(f"error: axiwave imported from {axiwave.__file__}")
    return axiwave


def setup_probe(args, root: Path):
    """Child process: import the library and finish one warm-up op."""
    t0 = time.perf_counter()
    _import_library(root)
    from workloads import WORKLOADS, run_ops
    imported = time.perf_counter() - t0
    workdir = root / ".bench_run" / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # the workload's input files are the benchmark's own, not set-up
        wl = WORKLOADS[args.workload](args.seed, workdir)
        warm = run_ops(itertools.islice(wl.ops(), 1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": imported + warm.wall, "failed": warm.failed}))


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that still has
    TAIL_BEYOND samples beyond it, never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(xs), 50.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _machine(root: Path) -> dict:
    import numpy
    import scipy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    head = root / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "nproc": os.cpu_count(), "caches": caches,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS}}


def end_to_end(stats, setup_times) -> tuple[dict, dict]:
    value, pct = tail(stats.latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": stats.attempted / sum(stats.latencies),
        "op_p50_ms": statistics.median(stats.latencies) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"tail_percentile": pct, "tail_samples": stats.attempted,
                     "setup_runs_s": setup_times,
                     "failed_ratio": stats.failed / stats.attempted}


def per_layer(tracer, traced, untraced, probes, micro_table) -> dict:
    from tracing import LAYERS
    calls, self_s = tracer.layer_totals()
    wall = traced.wall
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.share"] = self_s[layer] / wall
    library = sum(self_s[layer] for layer in LAYERS)
    for k in ("r2r", "fft"):
        m[f"kernel.{k}.calls"] = tracer.prefix_sum(f"kernel.{k}", "calls")
        m[f"kernel.{k}.self_s"] = tracer.prefix_sum(f"kernel.{k}", "self")
        m[f"kernel.{k}.bytes"] = tracer.counters[f"kernel.{k}.bytes"]
    m["python_overhead_share"] = 1.0 - self_s["kernel"] / library if library else 0.0
    m["grids.conjugate.calls"] = tracer.prefix_sum("grids.conjugate", "calls")
    m["transforms.quadrature.calls"] = tracer.prefix_sum("transforms.quadrature", "calls")
    m["transforms.quadrature.self_s"] = tracer.prefix_sum("transforms.quadrature", "self")
    m["transforms.quadrature.alloc_peak_mb"] = \
        tracer.alloc_peak["transforms.quadrature"] / 2 ** 20
    for kind in ("scalar", "rk4", "wave", "weyl", "maxwell"):
        m[f"evolution.{kind}.p50_ms"] = tracer.p50_ms(f"evolution.{kind}")
    m["evolution.diagnostics.self_s"] = tracer.prefix_sum("evolution.diagnostics", "self")
    for direction in ("read", "write"):
        size = tracer.counters[f"fileio.{direction}.bytes"]
        secs = tracer.counters[f"fileio.{direction}.seconds"]
        m[f"fileio.{direction}.bytes"] = size
        m[f"fileio.{direction}.mb_per_s"] = size / 1e6 / secs if secs else 0.0
    kept = traced.retained
    m["relativity.retained_min"] = min(kept) if kept else 0.0
    m["relativity.retained_mean"] = statistics.fmean(kept) if kept else 0.0
    for key in ("relativity.warnings", "verify.entries_failed", "verify.warnings",
                "cli.uncaught", "cli.diag_blank_cells"):
        m[key] = traced.counters[key] + probes.counters[key]
    m["failed_ratio"] = traced.failed / traced.attempted
    m["trace.overhead_share"] = traced.wall / untraced.wall - 1.0
    m.update(micro_table)
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    root = Path.cwd()
    if args.setup_probe:
        setup_probe(args, root)
        return 0
    _import_library(root)
    setup_times = measure_setup(args) if args.trace == 0 else []

    from workloads import WORKLOADS, run_ops
    workdir = root / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # warm caches on the run's first ops, from a twin of the workload,
        # so the timed run still starts from the seed's first input
        warm = WORKLOADS[args.workload](args.seed, workdir / "warm")
        run_ops(itertools.islice(warm.ops(), warm.warmup_ops))
        wl = WORKLOADS[args.workload](args.seed, workdir / "run")
        untraced = run_ops(wl.ops(), args.seconds, keep_ops=args.trace == 1)
        if args.trace == 0:
            metrics, extra = end_to_end(untraced, setup_times)
            units = END_TO_END
            runs = [untraced]
        else:
            import micro
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(iter(untraced.ops), span=tracer.op_span)
            finally:
                tracer.uninstall()
            probes = run_ops(iter(wl.defect_probes()))
            tracer.write(root / ".bench_run" / "traces"
                         / f"{args.workload}-seed{args.seed}.npz")
            metrics = per_layer(tracer, traced, untraced, probes, micro.run())
            units = _per_layer_units()
            extra = {"spans": tracer.n_spans, "traced_ops": traced.attempted,
                     "defect_probes": {"attempted": probes.attempted,
                                       "failures": dict(probes.reasons)}}
            runs = [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    working = sorted(untraced.working_sets)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "client": "one, closed loop",
            "working_set_bytes": {"median": working[len(working) // 2],
                                  "max": working[-1]},
            "failures": dict(sum((r.reasons for r in runs), Counter())),
            **extra, **_machine(root)}
    for name, value in metrics.items():
        print(f"{name:<44} {value:>16.6g} {units[name]}")
    if "tail_percentile" in extra:
        print(f"op_tail_ms is the p{extra['tail_percentile']:.1f} latency of "
              f"{extra['tail_samples']} ops (p50 when fewer than "
              f"{2 * TAIL_BEYOND + 1})")
    print("meta " + json.dumps(meta, sort_keys=True))
    attempted = sum(r.attempted for r in runs)
    result = {"correct": all(r.wrong == 0 for r in runs),
              "attempted": attempted,
              "failed": sum(r.failed for r in runs),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
