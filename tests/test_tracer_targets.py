"""Every package name that the benchmark tracer patches still exists and
is still called there.

``perfbench/tracing.py`` wraps functions by (module, attribute) and skips
a name that is missing without a word, so a renamed or deleted function
would silently drop its span or counter from traced benchmark runs.  A
wrapper also counts only the calls that look the name up in that module,
so a name kept there only as an import, or only defined, drops its span
just as silently.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = sorted({(module, attr) for module, attr, _ in tracing.SPANS}
                 | set(tracing.HANKEL) | {("ikmig.migrate", "_apply_kernel")})

# Targets that no longer exist in the package and that the tracer still
# names.  Delete an entry when the tracer stops naming it.
DEAD = {
    ("ikmig.forward", "direct_arrivals"),
    ("ikmig.recover", "hankel0_1"),
    ("ikmig.migrate", "hankel0_1"),
}


@pytest.mark.parametrize("module, attr", [t for t in TARGETS if t not in DEAD])
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def called_names(module):
    """Global names that a module's source calls, as ``name(...)``: the
    calls that look the name up in the module when they run."""
    source = Path(importlib.util.find_spec(module).origin).read_text()
    return {node.func.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


@pytest.mark.parametrize("module, attr", [t for t in TARGETS if t not in DEAD])
def test_target_is_called_in_its_module(module, attr):
    assert attr in called_names(module)


def test_exemptions_are_still_named_and_still_dead():
    assert DEAD <= set(TARGETS)
    for module, attr in DEAD:
        assert not hasattr(importlib.import_module(module), attr)
