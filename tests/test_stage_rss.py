"""The per-stage peak-memory report of ``tools/stage_rss.py``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from conftest import src_env

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_rss.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("stage_rss", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


stage_rss = load_tool()


def test_self_growth_leaves_out_the_stages_called(monkeypatch):
    peak = [10.0]
    monkeypatch.setattr(stage_rss, "peak_mib", lambda: peak[0])
    stages = stage_rss.StageRss()

    def grow(by):
        peak[0] += by

    inner = stages.wrap("inner", lambda: grow(3.0))

    def outer():
        grow(1.0)
        inner()
        inner()
        grow(0.5)

    stages.wrap("outer", outer)()
    inner()
    assert stages.calls == {"inner": 3, "outer": 1}
    assert stages.growth == {"inner": 9.0, "outer": 7.5}
    assert stages.self_growth == {"inner": 9.0, "outer": 1.5}


def test_a_workload_pass_names_its_stages_setup_included():
    # small2d's setup writes the true response through the defining
    # module's array_response_band; its commands synthesize through the CLI.
    proc = subprocess.run([sys.executable, str(TOOL), "small2d"], capture_output=True,
                          text=True, env=src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("small2d: ")
    names = {line.split()[0] for line in lines[1:]}
    assert {"setup", "commands", "array_response_band", "total_field_band",
            "recover_band", "migrate_broadband_stack"} <= names
