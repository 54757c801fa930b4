"""Command-line pipeline: synthesize, recover, migrate, diagnose.

Exit codes: 0 success, 2 validation or format error, 3 numeric or
singularity error, or a problem too large for memory (an array that
cannot be allocated), 4 I/O error.  Output files are written atomically
(temp file + rename) with the mode the umask gives, and every command
that writes files leaves a manifest.json beside them recording its
inputs, the files it wrote, and their hashes (``check-geometry`` writes
neither without ``--out``).
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
    intensity_data,
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
    with open(spec, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SceneParseError(f"undecodable bytes in scene file: {exc}") from None
    return parse_scene(text)


# The files the running ``main`` call has written, in order: its manifest's outputs.
_written: list = []


def _atomic(out_dir: str, name: str, writer) -> None:
    """Write ``out_dir``/``name`` by ``writer(tmp)`` and a rename, and record it.

    The file gets ``open``'s mode under the umask, not mkstemp's 0600.
    """
    directory = os.path.abspath(out_dir)
    path = os.path.join(directory, name)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".", suffix=".tmp")
    # Reading the umask sets it for a moment; no other thread runs while a command writes.
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, 0o666 & ~umask)
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _written.append(path)


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


def _write_text(out_dir: str, name: str, text: str) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    _atomic(out_dir, name, write)


def _write_json(out_dir: str, name: str, obj) -> None:
    _write_text(out_dir, name, json.dumps(_jsonable(obj), indent=1, sort_keys=True) + "\n")


def _scene_inputs(spec: str) -> dict:
    """Manifest inputs for a --scene value: the file, unless it names a preset."""
    return {} if spec.startswith("preset:") else {"scene": spec}


def _write_image_pair(out_dir: str, name: str, image, window) -> None:
    """Write ``name``.csv and ``name``.pgm of an image on ``window``."""
    _atomic(out_dir, f"{name}.csv", lambda p: write_image_csv(image, window, p))
    _atomic(out_dir, f"{name}.pgm", lambda p: write_image_pgm(image, p))


def _write_manifest(out_dir: str, command: str, scene, params: dict, inputs: dict) -> None:
    """manifest.json: the run's inputs, with the files written so far as its outputs."""
    manifest = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "scene_sha256": scene_digest(scene) if scene is not None else None,
        "parameters": params,
        "inputs": {name: {"path": path,
                          "sha256": _sha256(path) if os.path.isfile(path) else None}
                   for name, path in inputs.items()},
        "outputs": {os.path.basename(path): _sha256(path) for path in _written},
    }
    _write_json(out_dir, "manifest.json", manifest)


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
    fhat = sample_illumination(spectrum, scene.band, seed)
    if noise_fraction:
        return noisy_power_data(scene, fhat, noise_fraction, seed)
    return clean_power_data(scene, fhat)


def _write_data(scene, data, out_dir: str) -> None:
    _atomic(out_dir, "intensity.csv", lambda p: write_intensity_csv(scene.band.omegas, data, p))
    _atomic(out_dir, "illumination.csv",
            lambda p: write_illumination_csv(scene.band.omegas, data, p))


def _write_condition(out_dir: str, scenes: dict) -> None:
    """condition.csv: one column of condition numbers per named scene."""
    omegas = next(iter(scenes.values())).band.omegas
    values = [condition_number(scene) for scene in scenes.values()]
    header = ",".join(["freq_index", "omega_rad_s", *scenes])
    _atomic(out_dir, "condition.csv",
            lambda p: _write_grid(p, header, [np.arange(omegas.shape[0]), omegas], values))


# ---------------------------------------------------------------------------
# stages shared by the commands and the experiments
# ---------------------------------------------------------------------------


def _recover(scene, data, out_dir: str):
    """Recover the projected field and write recovered.csv.

    Returns (ptilde, geometry report); a failed geometry check warns.
    """
    ptilde = recover_band(scene, data)
    geometry = check_geometric_condition(scene)
    if not geometry.ok:
        logger.warning("geometric visibility violated at receivers %s",
                       list(geometry.violating_receivers)[:8])
    _atomic(out_dir, "recovered.csv", lambda p: write_field_csv(scene.band.omegas, ptilde, p))
    return ptilde, geometry


def _migrate(scene, fields: dict, threads: int, out_dir: str):
    """Migrate the named (F, N) fields in one kernel pass, stacked in dict order.

    The fields move into one (S, F, N) stack, the layout the kernels read,
    so it is the only copy of them: ``fields`` is emptied, and a caller
    that keeps no other reference frees every field before the kernel
    pass.  Writes ``name``.csv and ``name``.pgm per field; returns
    {name: image}.
    """
    names = list(fields)
    stack = np.stack([fields.pop(name) for name in names])
    images = dict(zip(names, migrate_broadband_stack(scene, stack.transpose(1, 2, 0),
                                                     threads=threads)))
    del stack
    for name, image in images.items():
        _write_image_pair(out_dir, name, image, scene.window)
    return images


def _compare(image, reference, scene):
    """(image metrics against the reference, reference metrics, peak offset in cells)."""
    metrics = image_metrics(image, scene, reference=reference)
    ref_metrics = image_metrics(reference, scene)
    shift = max(abs(a - b) for a, b in zip(metrics.peak_cell, ref_metrics.peak_cell))
    return asdict(metrics), asdict(ref_metrics), shift


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


# Each command returns what its manifest records beyond the files it wrote:
# (scene, parameters, inputs), or None when it wrote nothing.


def cmd_simulate(args):
    scene = _load_scene(args.scene)
    data = _synthesize(scene, args.stochastic, args.seed, args.noise_fraction)
    _write_data(scene, data, args.out)
    return (scene, {"scene": args.scene, "stochastic": args.stochastic,
                    "seed": args.seed, "noise_fraction": args.noise_fraction},
            _scene_inputs(args.scene))


def cmd_recover(args):
    scene = _load_scene(args.scene)
    illum = args.illumination
    if illum is None:
        sibling = os.path.join(os.path.dirname(os.path.abspath(args.data)), "illumination.csv")
        illum = sibling if os.path.exists(sibling) else None
    data = read_intensity_csv(args.data, scene, illum)
    _, geometry = _recover(scene, data, args.out)
    _write_json(args.out, "report.json", {"conditioning": condition_number(scene),
                                          "geometry": asdict(geometry)})
    inputs = {"data": args.data, **_scene_inputs(args.scene)}
    if illum is not None:
        inputs["illumination"] = illum
    return scene, {"scene": args.scene}, inputs


def cmd_migrate(args):
    scene = _load_scene(args.scene)
    fields = {"image": read_field_csv(args.field, scene)}
    inputs = {"field": args.field, **_scene_inputs(args.scene)}
    if args.reference:
        # By keyword: perfbench's CSV-size counter takes each positional string for a path.
        fields["image_reference"] = read_field_csv(args.reference, scene, what="reference")
        inputs["reference"] = args.reference
    images = _migrate(scene, fields, args.threads, args.out)
    if args.reference:
        image, reference, shift = _compare(images["image"], images["image_reference"], scene)
        payload = {"image": image, "reference": reference, "peak_displacement_cells": shift}
    else:
        payload = {"image": asdict(image_metrics(images["image"], scene))}
    _write_json(args.out, "metrics.json", payload)
    return scene, {"scene": args.scene, "threads": args.threads}, inputs


def _experiment_condition_study(out_dir: str):
    scene3 = preset_scene("point")
    _write_condition(out_dir, {"cond_d3": scene3, "cond_d2": replace(scene3, dimension=2)})
    ratio = float(condition_number(scene3)[0])
    _write_json(out_dir, "limits.json",
                {"d3_distance_ratio": ratio, "d2_sqrt_limit": math.sqrt(ratio)})
    return scene3, {"case": "condition_study"}, {}


def _experiment_spurious(out_dir: str, threads: int):
    scene = preset_scene("point")
    true_img, mirror, report = spurious_term_image(scene, threads)
    _write_image_pair(out_dir, "image_mirror", mirror, scene.window)
    _write_image_pair(out_dir, "image_true", true_img, scene.window)
    _write_json(out_dir, "report.json", asdict(report))
    return scene, {"case": "spurious_term"}, {}


def cmd_experiment(args):
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
    _write_text(args.out, "scene.json", emit_scene(scene))
    _write_data(scene, data, args.out)

    # `recover` then `migrate --reference` run these stages and write the same bytes.
    ptilde, geometry = _recover(scene, data, args.out)
    fields = {"image_true": array_response_band(scene), "image_recovered": ptilde}
    # The migration's stack is then the one copy of the fields.
    del data, ptilde
    images = _migrate(scene, fields, args.threads, args.out)
    recovered, true, shift = _compare(images["image_recovered"], images["image_true"], scene)
    residual = float(np.max(linearization_residual(scene)))
    _write_json(args.out, "metrics.json",
                {"true": true, "recovered": recovered, "peak_displacement_cells": shift,
                 "linearization_residual_max": residual, "geometry": asdict(geometry)})
    return (scene, {"case": case, "seed": args.seed, "threads": args.threads,
                    "noise_fraction": noise}, {})


def cmd_condition(args):
    scene = _load_scene(args.scene)
    _write_condition(args.out, {"cond": scene})
    return scene, {"scene": args.scene}, _scene_inputs(args.scene)


def cmd_check_geometry(args):
    scene = _load_scene(args.scene)
    report = check_geometric_condition(scene)
    payload = asdict(report)
    print(json.dumps(payload, indent=1, sort_keys=True))
    if not report.ok:
        logger.warning("source lies inside a receiver view cone")
    if args.out:
        _write_json(args.out, "geometry.json", payload)
        return scene, {"scene": args.scene}, _scene_inputs(args.scene)


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
    _written.clear()
    try:
        record = args.func(args)
        if record is not None:
            _write_manifest(args.out, args.command, *record)
        return 0
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
