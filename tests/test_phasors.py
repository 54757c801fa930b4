"""Every unit phasor of the package comes from ``forward._phase``.

The phases of the presets' Green's functions reach 1e6 rad, where a libm
cosine or sine of the unreduced angle is slow and ``np.exp`` of an
imaginary argument is one more path with its own rounding.  This scan of
the package's source fails on any ``np.cos`` or ``np.sin`` call and on any
``np.exp`` call whose argument holds an imaginary literal.  Real
exponentials (the power spectrum's Gaussian) and ``math`` functions of a
scalar stay allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ikmig"
NUMPY = {"np", "numpy"}


def _numpy_call(node: ast.AST) -> str | None:
    """The function name of a call ``np.<name>(...)``, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id in NUMPY):
        return node.func.attr
    return None


def _imaginary(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Constant) and isinstance(n.value, complex)
               for n in ast.walk(node))


def phasor_calls(source: str) -> list[str]:
    """``np.cos``/``np.sin`` calls and complex ``np.exp`` calls, as
    "line: name" entries."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = _numpy_call(node)
        if name in ("cos", "sin") or (
                name == "exp" and any(_imaginary(arg) for arg in node.args)):
            found.append(f"{node.lineno}: np.{name}")
    return found


def test_the_scan_finds_each_kind_of_phasor():
    source = ("import math\nimport numpy as np\n"
              "a = np.cos(t)\nb = numpy.sin(t, out=c)\nd = np.exp(1j * k * r)\n"
              "e = np.exp(-x * x)\nf = math.sin(0.5 * tol)\ng = np.exp(-(2.0 - 1j) * x)\n")
    assert phasor_calls(source) == ["3: np.cos", "4: np.sin", "5: np.exp", "8: np.exp"]


def test_no_module_forms_a_phasor_but_phase():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: phasor_calls(path.read_text()) for path in modules}
    assert {name: calls for name, calls in found.items() if calls} == {}
