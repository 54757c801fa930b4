"""Run a fixed set of ikmig commands and print the SHA-256 of every output.

The set: every ``experiment`` case with ``--seed 5 --threads 2``, and one
``simulate`` -> ``recover`` -> ``migrate --reference`` chain each on
``preset:point`` and on a 2-D scene file (``two_points`` in two
dimensions on a 5 x 5 window).  A chain's reference is the true response
p, written as ``truth.csv``, as ``experiment`` takes it.  Every file under
OUTDIR but ``manifest.json``, which records times and paths, is printed as
``sha256  relative/path``, sorted by path, so two checkouts' runs compare
with ``diff``:

    PYTHONPATH=src python tools/output_digests.py OUTDIR
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

from ikmig.cli import EXPERIMENT_CASES, _load_scene, main as ikmig_main
from ikmig.forward import array_response_band, write_field_csv
from ikmig.scene import ImageWindowSpec, emit_scene, preset_scene


def digests(root: Path) -> list[str]:
    """``sha256  relative/path`` of every file under ``root`` but the
    manifests, sorted by path."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}"
            for path in sorted(root.rglob("*"), key=lambda p: p.relative_to(root).as_posix())
            if path.is_file() and path.name != "manifest.json"]


def run(root: Path) -> None:
    """Run the commands, each into its own directory under ``root``."""
    def command(*argv: str) -> None:
        if ikmig_main(list(argv)) != 0:
            raise SystemExit(f"ikmig {' '.join(argv)} failed")

    for case in EXPERIMENT_CASES:
        command("experiment", "--case", case, "--seed", "5", "--threads", "2",
                "--out", str(root / "experiment" / case))
    pair = preset_scene("two_points")
    window = ImageWindowSpec(pair.window.center, pair.window.spacing, 2)
    scene_2d = root / "chain_2d" / "scene.json"
    scene_2d.parent.mkdir(parents=True)
    scene_2d.write_text(emit_scene(replace(pair, dimension=2, window=window)), encoding="utf-8")
    for name, scene_arg in (("chain_point", "preset:point"), ("chain_2d", str(scene_2d))):
        out = root / name
        out.mkdir(exist_ok=True)
        scene = _load_scene(scene_arg)
        write_field_csv(scene.band.omegas, array_response_band(scene), out / "truth.csv")
        command("simulate", "--scene", scene_arg, "--out", str(out / "sim"))
        command("recover", "--scene", scene_arg, "--data", str(out / "sim" / "intensity.csv"),
                "--out", str(out / "rec"))
        command("migrate", "--scene", scene_arg, "--field", str(out / "rec" / "recovered.csv"),
                "--reference", str(out / "truth.csv"), "--out", str(out / "img"))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/output_digests.py OUTDIR", file=sys.stderr)
        return 2
    root = Path(argv[1])
    run(root)
    print("\n".join(digests(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
