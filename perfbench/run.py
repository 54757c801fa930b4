"""ikmig benchmark: drives the ``ikmig`` CLI on four workloads.

    python3 perfbench/run.py --workload point3d --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each pass of a workload runs in a fresh
child interpreter (``child.py``) with BLAS pinned to one thread, so
``--threads`` is the only parallelism measured.  Passes repeat until the
next one would overrun ``--seconds``; every figure is the median over
the passes of the run, and ``run_s`` and ``setup_s`` are scaled by a
host speed probe run between the passes (``hostspeed.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Spans
and full per-pass results go to ``.perfbench/`` at the repository root.

``--record`` stores the outputs of one pass as the reference that every
later pass is checked against (``perfbench/refs/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 120

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "image_corr": "ratio",
    "ok_ops": "share",
}

PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s",
    "scene.load_s": "s", "scene.self_s": "s",
    "forward.synth_s": "s", "forward.csv_write_s": "s", "forward.csv_read_s": "s",
    "forward.csv_mb": "MB", "forward.self_s": "s",
    "stochastic.noise_s": "s", "stochastic.illum_s": "s", "stochastic.substreams": "count",
    "stochastic.self_s": "s",
    "recover.band_s": "s", "recover.condition_s": "s", "recover.geometry_s": "s",
    "recover.share": "ratio", "recover.self_s": "s",
    "migrate.stack_s": "s", "migrate.kernel_evals": "count", "migrate.ns_per_eval": "ns",
    "migrate.ops_computed": "flop", "migrate.bytes_computed": "B",
    "migrate.peak_alloc_mb": "MB", "migrate.thread_speedup": "ratio",
    "migrate.metrics_s": "s", "migrate.export_s": "s", "migrate.self_s": "s",
    "specfun.hankel_calls": "count", "specfun.hankel_s": "s",
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.unaccounted_s": "s",
    "trace.count_mismatches": "count",
    "host.probe_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seeds: list[int], trace: bool, index: int, record: bool) -> dict:
    """One pass in a fresh interpreter; a crash counts as a failed pass."""
    work = os.path.join(OUT, f"work-{os.getpid()}-{index}")
    result_path = work + ".json"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seeds", ",".join(map(str, seeds)), "--work", work, "--result", result_path,
           "--trace", str(int(trace))]
    if record:
        cmd.append("--record")
    shutil.rmtree(work, ignore_errors=True)
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            return {"crashed": f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        with open(result_path) as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        return {"crashed": f"child exceeded {CHILD_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(result_path):
            os.unlink(result_path)


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], list[float]]:
    """Passes until the next one would end after ``seconds``.

    With tracing, passes come in pairs of one untraced and one traced
    pass; which goes first alternates with the seed and the pair index,
    so the order does not bias ``trace.overhead_s``.

    A host speed probe runs before the first pass and after each one,
    and single repeats of it fill the rest of the run; returns the
    passes and every probe repeat time.
    """
    passes: list[dict] = []
    seeds = workloads.pass_seeds(workload, seed, 64)
    hostspeed.probe(1)  # warm-up, not timed
    start = time.monotonic()
    probes = hostspeed.probe()
    for index, group in enumerate(seeds):
        kinds = ((False, True), (True, False))[(seed + index) % 2] if trace else (False,)
        t0 = time.monotonic()
        for traced in kinds:
            result = run_child(workload, group, traced, len(passes), False)
            result["traced"] = traced
            result["seeds"] = group
            passes.append(result)
        probes += hostspeed.probe()
        group_s = time.monotonic() - t0
        if "crashed" in passes[-1]:
            return passes, probes
        if time.monotonic() - start + group_s > seconds:
            break
    while time.monotonic() - start + 2 * probes[-1] < seconds:
        probes += hostspeed.probe(1)
    return passes, probes


def summarize(passes: list[dict], probes: list[float], trace: bool) -> dict:
    attempted = failed = 0
    errors: list[str] = []
    for p in passes:
        if "crashed" in p:
            attempted += 1
            failed += 1
            errors.append(p["crashed"])
            continue
        attempted += p["ops"]
        failed += len(p["failures"])
        errors += p["failures"]
    ok = [p for p in passes if "crashed" not in p]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]

    def med(values):
        return statistics.median(values) if values else 0.0

    # Times are scaled by the host speed measured over the whole run; see
    # hostspeed.py.  Per-layer times stay as measured.
    scale = hostspeed.REFERENCE_S / statistics.fmean(probes)

    metrics: dict[str, float] = {}
    if not trace:
        metrics["run_s"] = med([p["run_s"] for p in untraced]) * scale
        metrics["setup_s"] = med([p["setup_s"] for p in untraced]) * scale
        metrics["peak_rss_mb"] = med([p["rss_mb"] for p in untraced])
        metrics["image_corr"] = med([c for p in untraced for c in p["corrs"]])
        metrics["ok_ops"] = (attempted - failed) / attempted
        units = END_TO_END
    else:
        for name in PER_LAYER:
            metrics[name] = med([p["layers"][name] for p in traced if name in p["layers"]])
        metrics["trace.overhead_s"] = (med([p["run_s"] for p in traced])
                                       - med([p["run_s"] for p in untraced])) * scale
        metrics["host.probe_s"] = statistics.fmean(probes)
        counts = {json.dumps(p["counts"], sort_keys=True) for p in traced}
        if len(counts) > 1:
            errors.append(f"exact counts did not repeat across traced passes: {sorted(counts)}")
            metrics["trace.count_mismatches"] += 1
        units = PER_LAYER
    return {
        "correct": failed == 0 and bool(ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "errors": errors,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record reference outputs (all noisy_ingest pool seeds)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ikmig", "cli.py")):
        print("error: run from an ikmig checkout; src/ikmig is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    if args.record:
        seeds = list(workloads.NOISY_POOL) if args.workload == "noisy_ingest" else []
        result = run_child(args.workload, seeds, False, 0, True)
        if "crashed" in result or result["failures"]:
            print(json.dumps(result.get("crashed") or result["failures"]), file=sys.stderr)
            return 1
        print(f"recorded {args.workload} references in {workloads.REFS}")
        return 0

    if workloads.threads(args.workload) == 1:
        # One core for the probes and, inherited, every pass, so that
        # both see the same core of the host.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    passes, probes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = summarize(passes, probes, bool(args.trace))
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = [{"pass": i, "spans": p.pop("spans")} for i, p in enumerate(passes) if "spans" in p]
    if spans:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans, fh)
    env = next((p["env"] for p in passes if "env" in p), {})
    with open(stem + ".json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "summary": summary, "probes": probes,
                   "passes": passes},
                  fh, indent=1)
    for err in summary.pop("errors"):
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "passes": len(passes), "env": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
