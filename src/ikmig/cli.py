"""Command-line pipeline: synthesize, recover, migrate, diagnose.

Exit codes: 0 success, 2 validation or format error, 3 numeric or
singularity error, or a problem too large for memory (an array that
cannot be allocated), 4 I/O error.  Output files are written atomically
(temp file + rename) and every command leaves a manifest.json in its
output directory recording inputs, outputs, and hashes.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import logging
import math
import os
import sys
import tempfile
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .errors import (
    DataFormatError,
    NumericError,
    SceneParseError,
    SceneValidationError,
    SingularityError,
)
from .forward import (
    _write_grid,
    array_response_band,
    intensity_data,
    linearization_residual,
    read_field_csv,
    read_intensity_csv,
    write_field_csv,
    write_illumination_csv,
    write_intensity_csv,
)
from .migrate import (
    image_metrics,
    migrate_broadband_stack,
    spurious_term_image,
    write_image_csv,
    write_image_pgm,
)
from .recover import check_geometric_condition, condition_number, recover_band
from .scene import PRESET_CASES, emit_scene, parse_scene, preset_scene, scene_digest
from .stochastic import (
    PowerSpectrum,
    clean_power_data,
    noisy_power_data,
    sample_illumination,
)

__all__ = ["EXPERIMENT_CASES", "main"]

EXPERIMENT_CASES = PRESET_CASES + ("stochastic_noisy", "condition_study", "spurious_term")

_NOISE_FRACTION_DEFAULT = 0.1

# Named rather than __name__, which is "__main__" under `python -m ikmig.cli`.
logger = logging.getLogger("ikmig.cli")


class _UsageError(Exception):
    """Bad flag value or combination; maps to exit code 2."""


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _load_scene(spec: str):
    if spec.startswith("preset:"):
        return preset_scene(spec[len("preset:"):])
    with open(spec) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SceneParseError(f"undecodable bytes in scene file: {exc}") from None
    return parse_scene(text)


def _atomic(path: str, writer) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _write_text(path: str, text: str) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w") as fh:
            fh.write(text)

    _atomic(path, write)


def _write_json(obj, path: str) -> None:
    _write_text(path, json.dumps(_jsonable(obj), indent=1, sort_keys=True) + "\n")


def _scene_inputs(spec: str) -> dict:
    """Manifest inputs for a --scene value: the file, unless it names a preset."""
    return {} if spec.startswith("preset:") else {"scene": spec}


def _write_image_pair(out_dir: str, name: str, image, window) -> list:
    """Write ``name``.csv and ``name``.pgm of an image on ``window``; returns both paths."""
    cpath = os.path.join(out_dir, f"{name}.csv")
    gpath = os.path.join(out_dir, f"{name}.pgm")
    _atomic(cpath, lambda p: write_image_csv(image, window, p))
    _atomic(gpath, lambda p: write_image_pgm(image, p))
    return [cpath, gpath]


def _write_manifest(out_dir: str, command: str, scene, params: dict,
                    inputs: dict, outputs: list) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "scene_sha256": scene_digest(scene) if scene is not None else None,
        "parameters": params,
        "inputs": {name: {"path": path, "sha256": _sha256(path)}
                   for name, path in inputs.items()},
        "outputs": {os.path.basename(path): _sha256(path) for path in outputs},
    }
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))


def _synthesize(scene, stochastic: bool, seed, noise_fraction):
    if noise_fraction is not None and not stochastic:
        raise _UsageError("--noise-fraction requires --stochastic")
    if noise_fraction is not None and not (math.isfinite(noise_fraction) and noise_fraction >= 0):
        raise _UsageError(f"--noise-fraction must be finite and >= 0, got {noise_fraction}")
    if not stochastic:
        return intensity_data(scene)
    if seed is None:
        raise _UsageError("stochastic synthesis requires --seed")
    try:
        spectrum = PowerSpectrum.for_band(scene.band)
    except ValueError as exc:
        raise _UsageError(f"--stochastic: {exc}") from None
    draw = sample_illumination(spectrum, scene.band, seed)
    if noise_fraction:
        return noisy_power_data(scene, draw, noise_fraction, seed)
    return clean_power_data(scene, draw)


def _write_data(data, out_dir: str) -> list:
    ipath = os.path.join(out_dir, "intensity.csv")
    lpath = os.path.join(out_dir, "illumination.csv")
    _atomic(ipath, lambda p: write_intensity_csv(data, p))
    _atomic(lpath, lambda p: write_illumination_csv(data, p))
    return [ipath, lpath]


def _write_condition(out_dir: str, scenes: dict) -> str:
    """condition.csv: one column of condition numbers per named scene."""
    omegas = next(iter(scenes.values())).band.omegas
    values = [condition_number(scene) for scene in scenes.values()]
    header = ",".join(["freq_index", "omega_rad_s", *scenes])
    cpath = os.path.join(out_dir, "condition.csv")
    _atomic(cpath, lambda p: _write_grid(p, header, [np.arange(omegas.shape[0]), omegas], values))
    return cpath


# ---------------------------------------------------------------------------
# stages shared by the commands and the experiments
# ---------------------------------------------------------------------------


def _recover(scene, data, out_dir: str):
    """Recover the projected field and write recovered.csv.

    Returns (ptilde, geometry report, path); a failed geometry check warns.
    """
    ptilde = recover_band(scene, data)
    geometry = check_geometric_condition(scene)
    if not geometry.ok:
        logger.warning("geometric visibility violated at receivers %s",
                       list(geometry.violating_receivers)[:8])
    fpath = os.path.join(out_dir, "recovered.csv")
    _atomic(fpath, lambda p: write_field_csv(scene.band.omegas, ptilde, p))
    return ptilde, geometry, fpath


def _migrate(scene, fields: dict, threads: int, out_dir: str):
    """Migrate the named (F, N) fields in one kernel pass, stacked in dict order.

    Writes ``name``.csv and ``name``.pgm per field; returns
    ({name: image}, written paths).
    """
    stack = np.stack(list(fields.values()), axis=2)
    images = dict(zip(fields, migrate_broadband_stack(scene, stack, threads=threads)))
    outputs = []
    for name, image in images.items():
        outputs += _write_image_pair(out_dir, name, image, scene.window)
    return images, outputs


def _compare(image, reference, scene):
    """(image metrics against the reference, reference metrics, peak offset in cells)."""
    metrics = image_metrics(image, scene, reference=reference)
    ref_metrics = image_metrics(reference, scene)
    shift = max(abs(a - b) for a, b in zip(metrics.peak_cell, ref_metrics.peak_cell))
    return asdict(metrics), asdict(ref_metrics), shift


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    scene = _load_scene(args.scene)
    data = _synthesize(scene, args.stochastic, args.seed, args.noise_fraction)
    outputs = _write_data(data, args.out)
    _write_manifest(args.out, "simulate", scene,
                    {"scene": args.scene, "stochastic": args.stochastic,
                     "seed": args.seed, "noise_fraction": args.noise_fraction},
                    _scene_inputs(args.scene), outputs)
    return 0


def cmd_recover(args) -> int:
    scene = _load_scene(args.scene)
    illum = args.illumination
    if illum is None:
        sibling = os.path.join(os.path.dirname(os.path.abspath(args.data)), "illumination.csv")
        illum = sibling if os.path.exists(sibling) else None
    data = read_intensity_csv(args.data, scene, illum)
    _, geometry, fpath = _recover(scene, data, args.out)
    rpath = os.path.join(args.out, "report.json")
    _write_json({"conditioning": condition_number(scene),
                 "geometry": asdict(geometry)}, rpath)
    inputs = {"data": args.data, **_scene_inputs(args.scene)}
    if illum is not None:
        inputs["illumination"] = illum
    _write_manifest(args.out, "recover", scene, {"scene": args.scene},
                    inputs, [fpath, rpath])
    return 0


def cmd_migrate(args) -> int:
    scene = _load_scene(args.scene)
    fields = {"image": read_field_csv(args.field, scene)}
    inputs = {"field": args.field, **_scene_inputs(args.scene)}
    if args.reference:
        # By keyword: perfbench's CSV-size counter takes each positional string for a path.
        fields["image_reference"] = read_field_csv(args.reference, scene, what="reference")
        inputs["reference"] = args.reference
    images, outputs = _migrate(scene, fields, args.threads, args.out)
    if args.reference:
        image, reference, shift = _compare(images["image"], images["image_reference"], scene)
        payload = {"image": image, "reference": reference, "peak_displacement_cells": shift}
    else:
        payload = {"image": asdict(image_metrics(images["image"], scene))}
    mpath = os.path.join(args.out, "metrics.json")
    _write_json(payload, mpath)
    _write_manifest(args.out, "migrate", scene,
                    {"scene": args.scene, "threads": args.threads}, inputs, outputs + [mpath])
    return 0


def _experiment_condition_study(out_dir: str) -> int:
    scene3 = preset_scene("point")
    cpath = _write_condition(out_dir, {"cond_d3": scene3,
                                       "cond_d2": replace(scene3, dimension=2)})
    ratio = float(condition_number(scene3)[0])
    lpath = os.path.join(out_dir, "limits.json")
    _write_json({"d3_distance_ratio": ratio, "d2_sqrt_limit": math.sqrt(ratio)}, lpath)
    _write_manifest(out_dir, "experiment", scene3, {"case": "condition_study"},
                    {}, [cpath, lpath])
    return 0


def _experiment_spurious(out_dir: str, threads: int) -> int:
    scene = preset_scene("point")
    true_img, mirror, report = spurious_term_image(scene, threads)
    outputs = (_write_image_pair(out_dir, "image_mirror", mirror, scene.window)
               + _write_image_pair(out_dir, "image_true", true_img, scene.window))
    rpath = os.path.join(out_dir, "report.json")
    _write_json(asdict(report), rpath)
    _write_manifest(out_dir, "experiment", scene, {"case": "spurious_term"}, {},
                    outputs + [rpath])
    return 0


def cmd_experiment(args) -> int:
    case = args.case
    if case not in EXPERIMENT_CASES:
        raise _UsageError(f"unknown case {case!r}; choose from {', '.join(EXPERIMENT_CASES)}")
    if case == "condition_study":
        return _experiment_condition_study(args.out)
    if case == "spurious_term":
        return _experiment_spurious(args.out, args.threads)

    stochastic = case in ("stochastic", "stochastic_noisy")
    scene = preset_scene("stochastic" if case == "stochastic_noisy" else case)
    noise = _NOISE_FRACTION_DEFAULT if case == "stochastic_noisy" else None
    data = _synthesize(scene, stochastic, args.seed, noise)
    spath = os.path.join(args.out, "scene.json")
    _write_text(spath, emit_scene(scene))
    outputs = [spath] + _write_data(data, args.out)

    # `recover` then `migrate --reference` run these stages and write the same bytes.
    ptilde, geometry, fpath = _recover(scene, data, args.out)
    images, image_paths = _migrate(
        scene, {"image_true": array_response_band(scene), "image_recovered": ptilde},
        args.threads, args.out)
    recovered, true, shift = _compare(images["image_recovered"], images["image_true"], scene)
    residual = float(np.max(linearization_residual(scene)))
    mpath = os.path.join(args.out, "metrics.json")
    _write_json({"true": true, "recovered": recovered, "peak_displacement_cells": shift,
                 "linearization_residual_max": residual, "geometry": asdict(geometry)}, mpath)
    _write_manifest(args.out, "experiment", scene,
                    {"case": case, "seed": args.seed, "threads": args.threads,
                     "noise_fraction": noise},
                    {}, outputs + [fpath] + image_paths + [mpath])
    return 0


def cmd_condition(args) -> int:
    scene = _load_scene(args.scene)
    cpath = _write_condition(args.out, {"cond": scene})
    _write_manifest(args.out, "condition", scene, {"scene": args.scene},
                    _scene_inputs(args.scene), [cpath])
    return 0


def cmd_check_geometry(args) -> int:
    scene = _load_scene(args.scene)
    report = check_geometric_condition(scene)
    payload = asdict(report)
    print(json.dumps(payload, indent=1, sort_keys=True))
    if not report.ok:
        logger.warning("source lies inside a receiver view cone")
    if args.out:
        gpath = os.path.join(args.out, "geometry.json")
        _write_json(payload, gpath)
        _write_manifest(args.out, "check-geometry", scene, {"scene": args.scene},
                        _scene_inputs(args.scene), [gpath])
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _u64(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must lie in [0, 2**64)")
    return value


def _threads(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("thread count must be at least 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ikmig",
        description="Phaseless array imaging: simulate, recover, migrate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def scene_arg(p):
        p.add_argument("--scene", required=True,
                       help="scene JSON path, or preset:<name>")

    p = sub.add_parser("simulate", help="synthesize phaseless data")
    scene_arg(p)
    p.add_argument("--out", required=True)
    p.add_argument("--stochastic", action="store_true")
    p.add_argument("--seed", type=_u64, default=None)
    p.add_argument("--noise-fraction", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("recover", help="recover the projected field from data")
    scene_arg(p)
    p.add_argument("--data", required=True)
    p.add_argument("--illumination", default=None,
                   help="sidecar path; defaults to illumination.csv beside the data")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("migrate", help="image a per-frequency field file")
    scene_arg(p)
    p.add_argument("--field", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=_threads, default=1)
    p.set_defaults(func=cmd_migrate)

    p = sub.add_parser("experiment", help="run a named end-to-end case")
    p.add_argument("--case", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_u64, default=None)
    p.add_argument("--threads", type=_threads, default=1)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("condition", help="per-frequency condition numbers")
    scene_arg(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_condition)

    p = sub.add_parser("check-geometry", help="source visibility diagnostic")
    scene_arg(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_geometry)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # The package's warnings reach stderr as "warning: ..." lines for the
    # length of this call only.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    package = logging.getLogger("ikmig")
    package.addHandler(handler)
    try:
        return args.func(args)
    except (_UsageError, SceneParseError, SceneValidationError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularityError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    finally:
        package.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
