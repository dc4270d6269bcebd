"""monosep benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload separate_S --seed 1 --seconds 12 --trace 0

Run from the repository root. The package is imported from ``src/``; no
install is needed. A run

1. pins the BLAS thread count to one, never more than ``nproc``, before
   numpy loads,
2. sets the workload up three times (import, model build or checkpoint
   write, one warm-up op) and reports the median as ``setup_s``,
3. runs the closed loop for ``--seconds`` with tracing off,
4. with ``--trace 1``, runs it again with the tracer installed and reports
   the per-layer metrics and the tracing overhead,
5. checks outputs, prints every metric by name, unit and sample count, and
   ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
   ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer ones with
   ``--trace 1``).

Per-run records (host facts, samples, metrics) and, for traced runs, the
spans go to ``perfbench/out/``. Metric names, units and the rationale for
each workload are in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("separate_S", "train_tiny", "train_wide")
SETUPS = 3
P90_MIN_SAMPLES = 100
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> tuple[int, int]:
    """Pin every BLAS thread-count variable to one thread (never more than
    nproc); returns (nproc, threads).

    One thread because OpenBLAS workers spin between calls: with two on a
    2-core host, S ``separate`` used 19.5 s of CPU for 10 s of wall time
    and ran no faster than with one.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = min(1, nproc)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return nproc, threads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts(nproc: int, threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version")),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(samples) -> float | None:
    if len(samples) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10)[8]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, start: float, nproc: int, threads: int, workdir: str) -> dict:
    """Set up, time, trace and check one workload; ``start`` is the clock
    reading taken before numpy and monosep were imported."""
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = []
    for index in range(SETUPS):
        begin = start if index == 0 else time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - begin)

    tracer = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        base = wl.run_phase(args.seconds)
        rss = peak_rss_mb()
        base_warnings = len(caught)
        if args.trace:
            tracer = Tracer()
            tracer.install(step_ops=wl.step_ops)
            try:
                traced = wl.run_phase(args.seconds, tracer)
            finally:
                tracer.uninstall()
        fp_warnings = len(caught) - base_warnings
    failed_checks = wl.check()

    phases = [base] + ([traced] if tracer else [])
    attempted = sum(p.ops for p in phases)
    failed = min(attempted, sum(p.failed for p in phases) + failed_checks)
    op_ms_p50 = workloads.median(base.op_ms)
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_ms_p50": (op_ms_p50, "ms"),
        "ops_per_s": ((base.ops - base.failed) / base.busy_s, "1/s"),
        "rtf": (op_ms_p50 / 1e3 / wl.audio_s_per_op, "s/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "op_ms_p90": (p90(base.op_ms), "ms"),
        "quality_db": (workloads.median(wl.quality_db)
                       if wl.quality_db else None, "dB"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_facts(nproc, threads),
        "setup_s": setup_s, "op_ms": base.op_ms,
        "quality_db": wl.quality_db, "fp_warnings": base_warnings,
        "attempted": attempted, "failed": failed,
        "end_to_end": {k: v for k, (v, _) in {**e2e, **extra}.items()},
    }

    print("host " + " ".join(f"{k}={v!r}" for k, v in record["host"].items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops={base.ops} samples={len(base.op_ms)} "
          f"failed={failed}/{attempted} fp_warnings={base_warnings}")
    for name, (value, unit) in {**e2e, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<12} {shown:>14} {unit}")
    print(f"  setup runs: {', '.join(f'{s:.4f}' for s in setup_s)} s; "
          f"op samples n={len(base.op_ms)}; quality n={len(wl.quality_db)}")

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in e2e.items()}
    if tracer is not None:
        ops = [op for op in tracer.op_ids if op is not None]
        layers = tracer.per_layer(ops)
        traced_p50 = workloads.median(traced.op_ms)
        layers["trace.op_ms_p50"] = traced_p50
        layers["trace.overhead_ms"] = traced_p50 - op_ms_p50
        layers["autodiff.fp_warnings"] = fp_warnings
        units = per_layer_units()
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units.items()}
        record["per_layer"] = layers
        print(f"traced: {len(ops)} ops, {len(tracer.spans)} spans, "
              f"op_ms_p50 {traced_p50:.6g} ms "
              f"(overhead {layers['trace.overhead_ms']:+.4g} ms)")
        for name in units:
            print(f"  {name:<34} {layers[name]:>14.6g} {units[name]}")
        total = layers["model.separate_ms"]
        print("largest self times per op (share of model.separate_ms):")
        for name, ms in tracer.self_time_shares(ops):
            share = f"{ms / total:6.1%}" if total else "   n/a"
            print(f"  {name:<34} {ms:>12.4f} ms  {share}")
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")

    record_path = os.path.join(
        OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as out:
        json.dump(record, out, indent=1, default=str)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return {m["name"]: m["unit"] for m in json.load(spec)["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    nproc, threads = pin_blas_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "monosep", "__init__.py")):
        print(f"error: monosep sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        result = run(args, start, nproc, threads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
