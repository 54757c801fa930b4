"""The directory digest of ``tools/output_digests.py``."""

import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_digests = load_tool()


def test_every_file_but_the_manifests_is_listed_by_relative_path(tmp_path):
    files = {"b.csv": b"1,2\n", "a/z.pgm": b"P5\n", "a/b/c.json": b"{}", "a-b.txt": b""}
    for name, data in {**files, "manifest.json": b"{}", "a/manifest.json": b"[]"}.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    assert output_digests.digests(tmp_path) == [
        f"{hashlib.sha256(files[name]).hexdigest()}  {name}"
        for name in ("a-b.txt", "a/b/c.json", "a/z.pgm", "b.csv")]


def test_an_empty_directory_has_no_lines(tmp_path):
    (tmp_path / "sub").mkdir()
    assert output_digests.digests(tmp_path) == []


def test_it_takes_one_output_directory(capsys):
    assert output_digests.main(["output_digests.py"]) == 2
    assert "OUTDIR" in capsys.readouterr().err
