"""The four benchmark workloads: inputs, CLI commands and output checks.

Why each workload exists is recorded in BENCHMARK.json.  Every workload
is closed-loop from one process: the commands of a pass run back to back
and each waits for the previous one.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import replace

import numpy as np

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# A reference check accepts a value within REL_TOL of the recorded one,
# relative to the largest recorded magnitude.  Exact reorderings of the
# sums (a frequency recurrence differed by 6.7e-11, SciPy's Hankel by
# 3e-11 of its envelope) pass; a wrong image or a changed random stream
# does not.
REL_TOL = 1e-8
MIN_CORR = 0.99

NAMES = ("point3d", "wide3d", "noisy_ingest", "small2d")

# noisy_ingest draws its per-pass seeds from this pool, whose outputs
# are recorded in refs/noisy_ingest.json.
NOISY_POOL = tuple(range(1000, 1016))
NOISY_SEEDS_PER_PASS = 3
NOISE_FRACTION = 0.1


def threads(workload: str) -> int:
    """Worker threads of a workload: two for point3d, or fewer on a
    smaller machine; one for the others."""
    if workload != "point3d":
        return 1
    return min(2, len(os.sched_getaffinity(0)))


def pass_seeds(workload: str, seed: int, n_passes: int) -> list[list[int]]:
    """Per-pass stochastic seeds, fixed by the benchmark seed.

    Passes walk one shuffle of the pool, so a run sees as many distinct
    seeds as it has room for.
    """
    if workload != "noisy_ingest":
        return [[] for _ in range(n_passes)]
    order = list(NOISY_POOL)
    random.Random(seed).shuffle(order)
    k = NOISY_SEEDS_PER_PASS
    return [[order[(i * k + j) % len(order)] for j in range(k)] for i in range(n_passes)]


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------


def build_scene(workload: str):
    """The generated scene of a pipeline workload (None for the others)."""
    from ikmig.scene import FrequencyGrid, ImageWindowSpec, preset_scene

    point = preset_scene("point")
    win = point.window
    if workload == "wide3d":
        # ~14.6k cells and 6 frequencies: (cells x N) temporaries dominate.
        band = FrequencyGrid(point.band.f_min_hz, point.band.f_max_hz, 6)
        return replace(point, band=band, window=ImageWindowSpec(win.center, win.spacing, 60))
    if workload == "small2d":
        # 9 cells, full band: every Green's function is a scalar Hankel call.
        return replace(point, dimension=2, window=ImageWindowSpec(win.center, win.spacing, 1))
    return None


# ---------------------------------------------------------------------------
# set-up and commands
# ---------------------------------------------------------------------------


def setup(workload: str, work: str, seeds: list[int], span) -> dict:
    """Write the inputs a pass needs; returns what its checks need.

    ``span(name)`` is a context manager that records a traced span, or
    does nothing in an untraced pass.
    """
    from ikmig.forward import array_response_band, write_field_csv
    from ikmig.scene import emit_scene, preset_scene

    if workload == "point3d":
        return {}
    if workload == "noisy_ingest":
        from ikmig.recover import recover_band
        from ikmig.stochastic import PowerSpectrum, clean_power_data, sample_illumination

        with span("scene.load"):
            scene = preset_scene("stochastic")
        spectrum = PowerSpectrum.for_band(scene.band)
        clean = {}
        for s in seeds:
            draw = sample_illumination(spectrum, scene.band, s)
            clean[s] = np.abs(recover_band(scene, clean_power_data(scene, draw)))
        return {"clean": clean}
    with span("scene.load"):
        scene = build_scene(workload)
    with open(os.path.join(work, "scene.json"), "w") as fh:
        fh.write(emit_scene(scene))
    write_field_csv(scene.band.omegas, array_response_band(scene), os.path.join(work, "truth.csv"))
    return {"scene": scene}


def commands(workload: str, work: str, seeds: list[int]) -> list[list[str]]:
    """The CLI invocations of one pass, in order."""
    def p(*parts):
        return os.path.join(work, *parts)

    if workload == "point3d":
        return [["experiment", "--case", "point", "--threads", str(threads(workload)),
                 "--out", p("exp")]]
    if workload == "noisy_ingest":
        out = []
        for s in seeds:
            out.append(["simulate", "--scene", "preset:stochastic", "--stochastic",
                        "--seed", str(s), "--noise-fraction", str(NOISE_FRACTION),
                        "--out", p(f"s{s}", "sim")])
            out.append(["recover", "--scene", "preset:stochastic",
                        "--data", p(f"s{s}", "sim", "intensity.csv"), "--out", p(f"s{s}", "rec")])
        return out
    scene = p("scene.json")
    return [
        ["simulate", "--scene", scene, "--out", p("sim")],
        ["recover", "--scene", scene, "--data", p("sim", "intensity.csv"), "--out", p("rec")],
        ["migrate", "--scene", scene, "--field", p("rec", "recovered.csv"),
         "--reference", p("truth.csv"), "--out", p("img"), "--threads", "1"],
    ]


def predicted_counts(workload: str, ctx: dict) -> dict:
    """Scalar Hankel evaluations and migration kernel entries of one pass.

    Derived from the problem sizes: cells, receivers N, frequencies F,
    scatterers Ns.  Only 2-D scenes evaluate Hankel functions.
    """
    from ikmig.scene import preset_scene

    if workload == "noisy_ingest":
        return {"hankel": 0, "kernel": 0}
    scene = ctx.get("scene") or preset_scene("point")
    n, f = scene.n_receivers, scene.band.count
    cells = scene.window.cells_per_side ** 2
    ns = len(scene.scatterers)
    kernel = cells * n * f
    if scene.dimension == 3:
        return {"hankel": 0, "kernel": kernel}
    simulate = n * f + f * (n * ns + ns)      # g0 rows, then Born rows
    recover = n * f + n * f                   # g0 rows, condition numbers
    migrate = f * cells * (n + 1)             # receiver and source legs
    return {"hankel": simulate + recover + migrate, "kernel": kernel}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_image(path: str) -> np.ndarray:
    """Complex (n, n) grid from an ``image.csv`` dump."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ix = rows[:, 0].astype(int)
    iy = rows[:, 1].astype(int)
    he = int(ix.max())
    n = 2 * he + 1
    if rows.shape[0] != n * n:
        raise ValueError(f"{path}: rows do not fill a square grid")
    out = np.full((n, n), np.nan, dtype=complex)
    out[ix + he, iy + he] = rows[:, 4] + 1j * rows[:, 5]
    return out


def read_rows(path: str, complex_values: bool) -> np.ndarray:
    """(F, N) grid from an intensity or recovered-field CSV."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    f = rows[:, 0].astype(int)
    r = rows[:, 2].astype(int)
    values = rows[:, 3] + 1j * rows[:, 4] if complex_values else rows[:, 3]
    out = np.full((f.max() + 1, r.max() + 1), np.nan, dtype=values.dtype)
    out[f, r] = values
    return out


def magnitude_corr(a: np.ndarray, b: np.ndarray) -> float:
    ma, mb = np.abs(a), np.abs(b)
    valid = ~(np.isnan(ma) | np.isnan(mb))
    ma, mb = ma[valid], mb[valid]
    return float((ma * mb).sum() / (np.linalg.norm(ma) * np.linalg.norm(mb)))


def close_to(value: np.ndarray, ref: np.ndarray) -> bool:
    if value.shape != ref.shape:
        return False
    nan_v, nan_r = np.isnan(value), np.isnan(ref)
    if not np.array_equal(nan_v, nan_r):
        return False
    scale = np.max(np.abs(ref[~nan_r]))
    return bool(np.max(np.abs(value[~nan_v] - ref[~nan_r])) <= REL_TOL * scale)


def image_paths(workload: str, work: str) -> tuple[str, str]:
    """(recovered image, full-phase image) written by the pass."""
    if workload == "point3d":
        return (os.path.join(work, "exp", "image_recovered.csv"),
                os.path.join(work, "exp", "image_true.csv"))
    return os.path.join(work, "img", "image.csv"), os.path.join(work, "img", "image_reference.csv")


def noisy_outputs(work: str, s: int) -> tuple[np.ndarray, np.ndarray]:
    """(intensity, recovered) (F, N) grids of one noisy_ingest seed."""
    return (read_rows(os.path.join(work, f"s{s}", "sim", "intensity.csv"), False),
            read_rows(os.path.join(work, f"s{s}", "rec", "recovered.csv"), True))


def noisy_digest(intensity: np.ndarray, recovered: np.ndarray) -> dict:
    """Per-frequency L2 row norms of both files."""
    return {"intensity": np.linalg.norm(intensity, axis=1).tolist(),
            "recovered": np.linalg.norm(recovered, axis=1).tolist()}


IMAGE_CHECKS = ("recovered image matches reference", "full-phase image matches reference",
                "recovered peak on full-phase peak", f"image correlation >= {MIN_CORR}")


def check(workload: str, work: str, seeds: list[int], ctx: dict):
    """Compare a pass's outputs with the references recorded in ``refs/``.

    Returns (results, correlations): one (name, ok, detail) per check,
    and the magnitude correlations the pass produced.  Outputs that
    cannot be read fail every check that needs them.
    """
    results, corrs = [], []
    if workload == "noisy_ingest":
        with open(os.path.join(REFS, "noisy_ingest.json")) as fh:
            ref = json.load(fh)["seeds"]
        for s in seeds:
            names = [f"seed {s} {key} row norms" for key in ("intensity", "recovered")]
            try:
                intensity, recovered = noisy_outputs(work, s)
            except (OSError, ValueError) as exc:
                results += [(name, False, f"{type(exc).__name__}: {exc}") for name in names]
                continue
            digest = noisy_digest(intensity, recovered)
            for name, key in zip(names, ("intensity", "recovered")):
                ok = close_to(np.asarray(digest[key]), np.asarray(ref[str(s)][key]))
                results.append((name, ok, key))
            corrs.append(magnitude_corr(recovered, ctx["clean"][s]))
        return results, corrs

    rec_path, full_path = image_paths(workload, work)
    try:
        rec, full = read_image(rec_path), read_image(full_path)
    except (OSError, ValueError) as exc:
        return [(name, False, f"{type(exc).__name__}: {exc}") for name in IMAGE_CHECKS], corrs
    with np.load(os.path.join(REFS, f"{workload}.npz")) as data:
        ref_rec, ref_full = data["recovered"], data["full_phase"]
    peak_rec = tuple(int(i) for i in np.unravel_index(np.nanargmax(np.abs(rec)), rec.shape))
    peak_full = tuple(int(i) for i in np.unravel_index(np.nanargmax(np.abs(full)), full.shape))
    corr = magnitude_corr(rec, full)
    corrs.append(corr)
    return list(zip(IMAGE_CHECKS, (
        close_to(rec, ref_rec), close_to(full, ref_full), peak_rec == peak_full, corr >= MIN_CORR,
    ), (
        rec_path, full_path, f"recovered {peak_rec}, full-phase {peak_full}", f"{corr:.6f}",
    ))), corrs


def record(workload: str, work: str, seeds: list[int]) -> None:
    """Store a pass's outputs as the references later passes must match."""
    os.makedirs(REFS, exist_ok=True)
    if workload == "noisy_ingest":
        path = os.path.join(REFS, "noisy_ingest.json")
        doc = {"rel_tol": REL_TOL, "seeds": {}}
        if os.path.exists(path):
            with open(path) as fh:
                doc = json.load(fh)
        for s in seeds:
            doc["seeds"][str(s)] = noisy_digest(*noisy_outputs(work, s))
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=0, sort_keys=True)
            fh.write("\n")
        return
    rec_path, full_path = image_paths(workload, work)
    np.savez_compressed(os.path.join(REFS, f"{workload}.npz"),
                        recovered=read_image(rec_path), full_phase=read_image(full_path))
