"""One workload pass in a fresh interpreter.

Run by ``run.py``; writes one JSON document to ``--result``.  Timeline:
interpreter start, ``import ikmig.cli``, input generation (together
``setup_s``), the CLI commands back to back (``run_s``), then the output
checks, which are not timed.  With ``--trace 1`` the commands run under
the span recorder of ``tracing.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def traced_layers(tracer, workload: str, ctx: dict, run_s: float, import_s: float) -> dict:
    """Per-layer figures of one traced pass."""
    selfs = tracer.self_times()
    calls = tracer.migrate_calls
    stack_s = sum(c["seconds"] for c in calls)
    kernel = sum(c["cells"] * c["n"] * c["f"] for c in calls)
    predicted = workloads.predicted_counts(workload, ctx)
    mismatches = int(tracer.hankel_calls != predicted["hankel"])
    mismatches += int(kernel != predicted["kernel"])
    mismatches += int(tracer.kernel_evals_seen != kernel)
    layers = {
        "cli.import_s": import_s,
        "scene.load_s": sum(sp.end - sp.start for sp in tracer.spans if sp.name == "scene.load"),
        "forward.synth_s": tracer.inclusive("forward.synth"),
        "forward.csv_write_s": tracer.inclusive("forward.csv_write"),
        "forward.csv_read_s": tracer.inclusive("forward.csv_read"),
        "forward.csv_mb": tracer.csv_bytes / 1e6,
        "stochastic.noise_s": tracer.inclusive("stochastic.noise"),
        "stochastic.illum_s": tracer.inclusive("stochastic.illum"),
        "stochastic.substreams": tracer.substreams,
        "recover.band_s": tracer.inclusive("recover.band"),
        "recover.condition_s": tracer.inclusive("recover.condition"),
        "recover.geometry_s": tracer.inclusive("recover.geometry"),
        "recover.share": tracer.inclusive("recover.band") / run_s,
        "migrate.stack_s": stack_s,
        "migrate.kernel_evals": kernel,
        "migrate.ns_per_eval": 1e9 * stack_s / kernel if kernel else 0.0,
        # Computed from array sizes, not measured: 8 flops per complex
        # multiply-add of the (cells x N) @ (N x S) product, and 16 bytes
        # per complex entry of kernel, fields and image, per frequency.
        "migrate.ops_computed": sum(8 * c["cells"] * c["n"] * c["s"] * c["f"] for c in calls),
        "migrate.bytes_computed": sum(
            16 * c["f"] * (c["cells"] * c["n"] + c["n"] * c["s"] + c["cells"] * c["s"])
            for c in calls),
        "migrate.peak_alloc_mb": max((c["peak_alloc_mb"] for c in calls), default=0.0),
        "migrate.thread_speedup": 0.0,
        "migrate.metrics_s": tracer.inclusive("migrate.metrics"),
        "migrate.export_s": tracer.inclusive("migrate.export"),
        "specfun.hankel_calls": tracer.hankel_calls,
        "specfun.hankel_s": tracer.hankel_s,
        "trace.run_s": run_s,
        "trace.unaccounted_s": run_s - sum(selfs.values()),
        "trace.count_mismatches": mismatches,
    }
    for layer in ("cli", "scene", "forward", "stochastic", "recover", "migrate"):
        layers[f"{layer}.self_s"] = selfs[layer]
    return layers


def thread_speedup(call: dict, peak_alloc: bool) -> float:
    """Re-runs a traced threads>1 migration at one thread; returns t1 / tN.

    tracemalloc is on for the re-run exactly when it was on for the
    traced call, so both sides pay the same.
    """
    import tracemalloc

    from ikmig import migrate

    if peak_alloc:
        tracemalloc.start()
    start = time.perf_counter()
    migrate.migrate_broadband_stack(**dict(call["arguments"], threads=1))
    seconds = time.perf_counter() - start
    if peak_alloc:
        tracemalloc.stop()
    return seconds / call["seconds"]


def run_pass(workload: str, seeds: list[int], work: str, trace: bool,
             spawned_at: float, record: bool = False) -> dict:
    start = time.monotonic()
    import ikmig.cli
    import_s = time.monotonic() - start

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    peak_alloc = workload != "small2d"
    if trace:
        from tracing import Tracer

        # tracemalloc slows small2d's scalar Hankel loop ninefold, and its
        # migration temporaries are under 1 MB, so it is left off there.
        tracer = Tracer(migrate_peak_alloc=peak_alloc)
        span = tracer.span
    ctx = workloads.setup(workload, work, seeds, span)
    if tracer is not None:
        tracer.install()

    failures, ops = [], 0
    first = time.monotonic()
    origin = time.perf_counter()
    for argv in workloads.commands(workload, work, seeds):
        ops += 1
        try:
            code = ikmig.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a failed benchmark
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            failures.append(f"exit {code}: ikmig {' '.join(argv)}")
    run_s = time.monotonic() - first

    result = {"setup_s": first - spawned_at, "run_s": run_s, "import_s": import_s}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = traced_layers(tracer, workload, ctx, run_s, import_s)
        result["counts"] = {"hankel": tracer.hankel_calls,
                            "kernel": result["layers"]["migrate.kernel_evals"]}
        multi = [c for c in tracer.migrate_calls if c["threads"] > 1]
        if multi and not failures:
            result["layers"]["migrate.thread_speedup"] = thread_speedup(multi[0], peak_alloc)
        result["spans"] = tracer.dump(origin)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if record:
        workloads.record(workload, work, seeds)
    checks, corrs = workloads.check(workload, work, seeds, ctx)
    ops += len(checks)
    failures += [f"check failed: {name} ({detail})" for name, ok, detail in checks if not ok]
    result.update({
        "ops": ops,
        "failures": failures,
        "corrs": corrs,
        "rss_mb": rss_mb,
        "env": environment(),
    })
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seeds", default="", help="comma-separated stochastic seeds")
    parser.add_argument("--work", required=True, help="scratch directory of this pass")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--record", action="store_true",
                        help="store this pass's outputs as the references")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]
    os.makedirs(args.work, exist_ok=True)
    result = run_pass(args.workload, seeds, args.work, bool(args.trace), args.spawned_at,
                      args.record)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
