import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(__file__))


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def peak_growth(setup: str, work: str, *args: str) -> tuple[list[str], int]:
    """Run the Python source ``setup`` then ``work`` in a fresh process with
    ``args`` as ``sys.argv[1:]``: the words ``work`` prints, and the bytes by
    which ``work`` raised the process's peak RSS.

    A process's ru_maxrss starts at that of the image it was forked from,
    so the measured process is started by a small one, not by pytest,
    whose own peak would hide any growth below it.
    """
    code = (
        f"import resource, sys\n{setup}\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"{work}\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        # ru_maxrss counts KiB, and bytes on macOS.
        "print((after - before) * (1 if sys.platform == 'darwin' else 1024))\n"
    )
    spawn = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", spawn, sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    *words, grown = proc.stdout.split()
    return words, int(grown)
