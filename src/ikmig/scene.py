"""Scene description: array geometry, frequency band, scatterers, image window.

Positions are stored in meters.  Scene documents (JSON) may declare a
``unit`` field (``m``, ``mm``, ``um``, ``nm``; default ``mm``) that scales
every position-valued entry; wave speed, frequencies and reflectivities are
never scaled.  A scene's ``dimension`` selects the Green's function branch
(2 or 3) independently of the coordinate length, so planar geometry with
three-dimensional wave propagation is expressible.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SceneParseError, SceneValidationError

logger = logging.getLogger(__name__)

__all__ = [
    "FrequencyGrid",
    "PointScatterer",
    "ImageWindowSpec",
    "Scene",
    "linear_array",
    "disk_scatterer",
    "parse_scene",
    "emit_scene",
    "preset_scene",
    "scene_digest",
    "PRESET_CASES",
]

_UNIT_FACTORS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}

# Most 8-byte elements one array can address.  NumPy refuses a longer
# array with ValueError or IndexError, not MemoryError.
_MAX_ELEMENTS = np.iinfo(np.intp).max // 8


def _check_size(elements: int, what: str) -> None:
    """An array too long to address is out of memory, like one too big to hold."""
    if elements > _MAX_ELEMENTS:
        raise MemoryError(f"{what} of {elements} elements cannot be allocated")


def _integer(value, minimum: int, message: str) -> int:
    """``value`` as a Python int, if ``operator.index`` takes it, it is not
    a bool, and it is at least ``minimum``; SceneValidationError otherwise."""
    try:
        if not isinstance(value, bool) and operator.index(value) >= minimum:
            return operator.index(value)
    except TypeError:
        pass
    raise SceneValidationError(message)


def _real(value, message: str, valid=math.isfinite) -> float:
    """``value`` as a Python float, if it is a real number (``numbers.Real``:
    Python's and NumPy's ints and floats), not a bool, and ``valid`` of the
    float holds; SceneValidationError otherwise."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if valid(number := float(value)):
                return number
        except OverflowError:  # an int past the float range
            pass
    raise SceneValidationError(message)


def _positive(value: float) -> bool:
    return 0.0 < value < math.inf


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyGrid:
    """Equally spaced frequency samples of a band [f_min, f_max]."""

    f_min_hz: float
    f_max_hz: float
    count: int

    def __post_init__(self):
        f_min = _real(self.f_min_hz, "band.f_min_hz must be positive and finite", _positive)
        f_max = _real(self.f_max_hz, "band.f_max_hz must be finite and >= f_min_hz",
                      lambda v: f_min <= v < math.inf)
        object.__setattr__(self, "f_min_hz", f_min)
        object.__setattr__(self, "f_max_hz", f_max)
        # Checked on the scalar: a huge count must still reach ``omegas``'s
        # MemoryError, not be allocated here.
        if not math.isfinite(2.0 * math.pi * self.f_max_hz):
            raise SceneValidationError("band.f_max_hz is too large: 2 pi f_max_hz overflows")
        object.__setattr__(
            self, "count", _integer(self.count, 1, "band.count must be a positive integer"))
        if self.count == 1 and self.f_min_hz != self.f_max_hz:
            raise SceneValidationError("band.count == 1 requires f_min_hz == f_max_hz")

    @cached_property
    def omegas(self) -> np.ndarray:
        """Angular frequencies (rad/s), ascending."""
        _check_size(self.count, "band")
        freqs = np.linspace(self.f_min_hz, self.f_max_hz, self.count)
        out = 2.0 * math.pi * freqs
        out.setflags(write=False)
        return out

    @property
    def delta_omega(self) -> float:
        """Uniform quadrature weight for band sums.

        A single-sample band uses unit weight, so the degenerate sum reduces
        to the plain single-frequency result.
        """
        if self.count == 1:
            return 1.0
        return 2.0 * math.pi * (self.f_max_hz - self.f_min_hz) / (self.count - 1)

    @property
    def f_center_hz(self) -> float:
        return 0.5 * (self.f_min_hz + self.f_max_hz)


@dataclass(frozen=True)
class PointScatterer:
    """Weak point reflector; rho absorbs the discretization weight."""

    position: tuple[float, ...]
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(
            _real(v, "scatterer position must be finite") for v in self.position))
        object.__setattr__(self, "rho", _real(
            self.rho, "scatterer rho must be finite and nonzero",
            lambda v: math.isfinite(v) and v != 0.0))


@dataclass(frozen=True)
class ImageWindowSpec:
    """Square image grid: (2*half_extent+1)^2 cells around a center point.

    The grid spans the first two coordinate axes; cell (ix, iy) sits at
    center + (ix*spacing, iy*spacing).
    """

    center: tuple[float, ...]
    spacing: float
    half_extent: int

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(
            _real(v, "window.center must be finite") for v in self.center))
        object.__setattr__(self, "spacing", _real(
            self.spacing, "window.spacing must be positive", _positive))
        object.__setattr__(self, "half_extent", _integer(
            self.half_extent, 0, "window.half_extent must be a nonnegative integer"))

    @property
    def cells_per_side(self) -> int:
        return 2 * self.half_extent + 1

    def cell_offsets(self) -> np.ndarray:
        """Signed cell indices -half_extent .. +half_extent."""
        return np.arange(-self.half_extent, self.half_extent + 1)

    def cell_positions(self) -> np.ndarray:
        """Array (n, n, d) of cell center coordinates, indexed [ix, iy]."""
        n = self.cells_per_side
        _check_size(n * n * len(self.center), "image window")
        off = self.cell_offsets() * self.spacing
        pos = np.tile(np.asarray(self.center, dtype=float), (n, n, 1))
        pos[:, :, 0] += off[:, None]
        pos[:, :, 1] += off[None, :]
        return pos


@dataclass(frozen=True, eq=False)
class Scene:
    """Validated imaging configuration, all lengths in meters."""

    dimension: int
    c0: float
    receivers: np.ndarray
    source: np.ndarray
    band: FrequencyGrid
    scatterers: tuple[PointScatterer, ...]
    window: ImageWindowSpec

    def __post_init__(self):
        dimension = _integer(self.dimension, 2, "dimension must be 2 or 3")
        if dimension > 3:
            raise SceneValidationError("dimension must be 2 or 3")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "c0", _real(self.c0, "c0 must be positive and finite",
                                             _positive))
        if not math.isfinite(2.0 * math.pi * self.band.f_max_hz / self.c0):
            raise SceneValidationError(
                "c0 is too small for the band: the wavenumber 2 pi f_max_hz / c0 overflows")

        # Copies, frozen below: the caller's arrays stay writeable, and
        # writing to them cannot change the scene.
        recv = np.array(self.receivers, dtype=float)
        if recv.ndim != 2 or recv.shape[0] < 1 or recv.shape[1] not in (2, 3):
            raise SceneValidationError("receivers must be an (N, 2) or (N, 3) array")
        if not np.all(np.isfinite(recv)):
            raise SceneValidationError("receiver positions must be finite")
        src = np.array(self.source, dtype=float).reshape(-1)
        if src.shape[0] != recv.shape[1]:
            raise SceneValidationError("source length must match receiver coordinates")
        if not np.all(np.isfinite(src)):
            raise SceneValidationError("source position must be finite")

        # Equal rows are adjacent once sorted; 0.0 and -0.0 compare equal.
        # (np.unique(axis=0) would import numpy.ma, 8-10 ms a process.)
        ordered = recv[np.lexsort(recv.T)]
        if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
            raise SceneValidationError("receiver positions must be pairwise distinct")
        hits = np.flatnonzero(np.all(recv == src, axis=1))
        if hits.size:
            raise SceneValidationError(f"source coincides with receiver {hits[0]}")

        scats = tuple(self.scatterers)
        for s in scats:
            if len(s.position) != recv.shape[1]:
                raise SceneValidationError(
                    "scatterer coordinate length must match receivers"
                )
        if len(self.window.center) != recv.shape[1]:
            raise SceneValidationError("window.center length must match receivers")

        recv.setflags(write=False)
        src.setflags(write=False)
        object.__setattr__(self, "receivers", recv)
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "scatterers", scats)

        half = self.window.half_extent * self.window.spacing
        center = np.asarray(self.window.center)
        for i, s in enumerate(scats):
            off = np.abs(np.asarray(s.position)[:2] - center[:2])
            if np.any(off > half * (1.0 + 1e-12) + 1e-300):
                logger.warning("scatterer %d lies outside the image window", i)

    # -- derived geometry ---------------------------------------------------

    @property
    def n_receivers(self) -> int:
        return self.receivers.shape[0]

    @property
    def coords(self) -> int:
        """Length of position vectors (may differ from ``dimension``)."""
        return self.receivers.shape[1]

    @property
    def lambda0(self) -> float:
        """Wavelength at the band center."""
        return self.c0 / self.band.f_center_hz

    @property
    def aperture(self) -> float:
        """Largest per-coordinate span of the receiver array."""
        return float(np.max(self.receivers.max(axis=0) - self.receivers.min(axis=0)))

    @property
    def array_center(self) -> np.ndarray:
        return self.receivers.mean(axis=0)

    @property
    def standoff(self) -> float:
        """Distance from the array center to the window center."""
        return float(np.linalg.norm(np.asarray(self.window.center) - self.array_center))


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def linear_array(
    center: Sequence[float], length: float, count: int, axis: Sequence[float]
) -> np.ndarray:
    """Equally spaced collinear receiver positions (meters)."""
    count = _integer(count, 1, "receivers.linear.count must be a positive integer")
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if not norm > 0.0:
        raise SceneValidationError("receivers.linear.axis must be nonzero")
    axis = axis / norm
    center = np.asarray(center, dtype=float)
    if count == 1:
        return center[None, :].copy()
    _check_size(count * center.shape[0], "receiver array")
    offsets = np.linspace(-0.5 * length, 0.5 * length, count)
    return center[None, :] + offsets[:, None] * axis[None, :]


def disk_scatterer(
    center: Sequence[float], radius: float, spacing: float, rho: float
) -> tuple[PointScatterer, ...]:
    """Point reflectors on a square lattice covering a disk.

    Lattice points whose offset from the center has norm <= radius are kept,
    in row-major order (first coordinate slow, second fast).
    """
    if not radius > 0.0 or not spacing > 0.0:
        raise SceneValidationError("disk radius and spacing must be positive")
    center = tuple(float(v) for v in center)
    n = int(math.ceil(radius / spacing))
    r2 = radius * radius
    out = []
    for i in range(-n, n + 1):
        dx = i * spacing
        for j in range(-n, n + 1):
            dy = j * spacing
            if dx * dx + dy * dy <= r2:
                pos = list(center)
                pos[0] += dx
                pos[1] += dy
                out.append(PointScatterer(tuple(pos), rho))
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON document interface
# ---------------------------------------------------------------------------


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise SceneParseError(f"missing field {context}{key}")
    return doc[key]


def _number(value, field_name: str, kind=float):
    """The one numeric rule of a scene document.

    A value must be a JSON number: booleans and strings are rejected, and
    an integer field (``kind=int``) takes only an integer.
    """
    accepted = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, accepted):
        article = "an integer" if kind is int else "a number"
        raise SceneParseError(f"{field_name} must be {article}")
    try:
        return kind(value)
    except OverflowError:
        raise SceneParseError(f"{field_name} is out of range") from None


def _position(value, unit: float, field_name: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) not in (2, 3):
        raise SceneParseError(f"{field_name} must be a 2- or 3-vector")
    return tuple(_number(v, field_name) * unit for v in value)


def parse_scene(text: str) -> Scene:
    """Parse and validate a JSON scene document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past Python's
        # digit limit; RecursionError, arrays or objects nested too deep.
        raise SceneParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SceneParseError("scene document must be a JSON object")

    unit_name = doc.get("unit", "mm")
    if not isinstance(unit_name, str) or unit_name not in _UNIT_FACTORS:
        raise SceneParseError(f"unit must be one of {sorted(_UNIT_FACTORS)}")
    unit = _UNIT_FACTORS[unit_name]

    dimension = _number(_require(doc, "dimension", ""), "dimension", int)
    c0 = _number(_require(doc, "c0", ""), "c0")

    band_doc = _require(doc, "band", "")
    if not isinstance(band_doc, dict):
        raise SceneParseError("band must be an object")
    band = FrequencyGrid(
        _number(_require(band_doc, "f_min_hz", "band."), "band.f_min_hz"),
        _number(_require(band_doc, "f_max_hz", "band."), "band.f_max_hz"),
        _number(_require(band_doc, "count", "band."), "band.count", int),
    )

    recv_doc = _require(doc, "receivers", "")
    if not isinstance(recv_doc, dict) or len(recv_doc) != 1:
        raise SceneParseError("receivers must hold exactly one of 'linear'/'explicit'")
    if "linear" in recv_doc:
        lin = recv_doc["linear"]
        if not isinstance(lin, dict):
            raise SceneParseError("receivers.linear must be an object")
        center = _position(_require(lin, "center", "receivers.linear."), unit,
                           "receivers.linear.center")
        axis = _position(_require(lin, "axis", "receivers.linear."), 1.0,
                         "receivers.linear.axis")
        if len(axis) != len(center):
            raise SceneParseError("receivers.linear.axis must match center in length")
        receivers = linear_array(
            center,
            _number(_require(lin, "length", "receivers.linear."), "receivers.linear.length")
            * unit,
            _number(_require(lin, "count", "receivers.linear."), "receivers.linear.count", int),
            axis,
        )
    elif "explicit" in recv_doc:
        rows = recv_doc["explicit"]
        if not isinstance(rows, list) or not rows:
            raise SceneParseError("receivers.explicit must be a nonempty list")
        positions = [_position(r, unit, f"receivers.explicit[{i}]") for i, r in enumerate(rows)]
        if len({len(p) for p in positions}) != 1:
            raise SceneParseError("receivers.explicit rows must share one length")
        receivers = np.asarray(positions)
    else:
        raise SceneParseError("receivers must hold one of 'linear'/'explicit'")

    source = _position(_require(doc, "source", ""), unit, "source")

    scat_doc = _require(doc, "scatterers", "")
    if not isinstance(scat_doc, list):
        raise SceneParseError("scatterers must be a list")
    scatterers = []
    for i, s in enumerate(scat_doc):
        if not isinstance(s, dict):
            raise SceneParseError(f"scatterers[{i}] must be an object")
        pos = _position(_require(s, "pos", f"scatterers[{i}]."), unit, f"scatterers[{i}].pos")
        rho = _number(_require(s, "rho", f"scatterers[{i}]."), f"scatterers[{i}].rho")
        scatterers.append(PointScatterer(pos, rho))

    win_doc = _require(doc, "window", "")
    if not isinstance(win_doc, dict):
        raise SceneParseError("window must be an object")
    center = _position(_require(win_doc, "center", "window."), unit, "window.center")
    half_extent = _number(win_doc.get("half_extent", 25), "window.half_extent", int)
    lambda0 = c0 / band.f_center_hz
    if "spacing" in win_doc and "spacing_lambda0" in win_doc:
        raise SceneParseError("window accepts only one of spacing/spacing_lambda0")
    if "spacing" in win_doc:
        spacing = _number(win_doc["spacing"], "window.spacing") * unit
    else:
        spacing = _number(win_doc.get("spacing_lambda0", 0.4), "window.spacing_lambda0") * lambda0
    window = ImageWindowSpec(center, spacing, half_extent)

    return Scene(
        dimension=dimension,
        c0=c0,
        receivers=receivers,
        source=np.asarray(source),
        band=band,
        scatterers=tuple(scatterers),
        window=window,
    )


def emit_scene(scene: Scene) -> str:
    """Canonical JSON document (meters, explicit receivers, sorted keys).

    ``parse_scene(emit_scene(s))`` reproduces the scene exactly.
    """
    doc = {
        "unit": "m",
        "dimension": scene.dimension,
        "c0": scene.c0,
        "receivers": {"explicit": [list(row) for row in scene.receivers.tolist()]},
        "source": list(scene.source.tolist()),
        "band": {
            "f_min_hz": scene.band.f_min_hz,
            "f_max_hz": scene.band.f_max_hz,
            "count": scene.band.count,
        },
        "scatterers": [
            {"pos": list(s.position), "rho": s.rho} for s in scene.scatterers
        ],
        "window": {
            "center": list(scene.window.center),
            "spacing": scene.window.spacing,
            "half_extent": scene.window.half_extent,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def scene_digest(scene: Scene) -> str:
    """SHA-256 of the canonical scene document."""
    return hashlib.sha256(emit_scene(scene).encode()).hexdigest()


# ---------------------------------------------------------------------------
# experiment presets
# ---------------------------------------------------------------------------

_C0 = 3.0e8
_BAND = FrequencyGrid(430e12, 750e12, 100)
_LAMBDA0 = _C0 / _BAND.f_center_hz
_ARRAY = dict(center=(0.0, 0.0), length=10e-3, count=501, axis=(0.0, 1.0))
_SOURCE = (5e-3, -7.5e-3)
_TARGET = (50e-3, 0.0)
_RHO = 1e-15

# Disk preset radius.  The grid pitch lambda0/4 is fixed; the radius is a
# free choice.  Any value in (1.090, 1.118) lambda0 selects the same
# 61-point lattice shell, whose migrated half-maximum support tracks the
# disk well; neighboring shells smear it.
DISK_RADIUS = 1.1 * _LAMBDA0

PRESET_CASES = (
    "point",
    "two_points",
    "disk",
    "breakdown_a",
    "breakdown_b",
    "breakdown_c",
    "breakdown_d",
    "stochastic",
)


def _window(center=_TARGET) -> ImageWindowSpec:
    return ImageWindowSpec(center, _LAMBDA0 / 2.5, 25)


def _base(source=_SOURCE, scatterers=(), window=None) -> Scene:
    return Scene(
        dimension=3,
        c0=_C0,
        receivers=linear_array(**_ARRAY),
        source=np.asarray(source),
        band=_BAND,
        scatterers=tuple(scatterers),
        window=window or _window(),
    )


def preset_scene(case: str) -> Scene:
    """Named experiment configurations.

    ``point``          one weak reflector on the window center
    ``two_points``     two separated weak reflectors
    ``disk``           lattice of reflectors filling a disk
    ``breakdown_a``    source moved next to the reflector
    ``breakdown_b``    reflector moved next to the array
    ``breakdown_c``    strong reflector, distant source
    ``breakdown_d``    source on the array axis (geometry check fails)
    ``stochastic``     the point layout, for randomly illuminated runs
    """
    lam = _LAMBDA0
    if case == "point" or case == "stochastic":
        return _base(scatterers=[PointScatterer(_TARGET, _RHO)])
    if case == "two_points":
        a = (_TARGET[0] - 3.0 * lam, -lam)
        b = (_TARGET[0] + 6.0 * lam, 5.0 * lam)
        return _base(scatterers=[PointScatterer(a, _RHO), PointScatterer(b, _RHO)])
    if case == "disk":
        return _base(scatterers=disk_scatterer(_TARGET, DISK_RADIUS, lam / 4.0, _RHO))
    if case == "breakdown_a":
        return _base(
            source=(_TARGET[0] - 10.0 * lam, 0.0),
            scatterers=[PointScatterer(_TARGET, _RHO)],
        )
    if case == "breakdown_b":
        target = (11.0 * lam, 0.0)
        return _base(
            source=(-50e-3, 0.0),
            scatterers=[PointScatterer(target, _RHO)],
            window=_window(target),
        )
    if case == "breakdown_c":
        return _base(
            source=(5e-3, -75e-3), scatterers=[PointScatterer(_TARGET, 1e-10)]
        )
    if case == "breakdown_d":
        return _base(source=(5e-3, 0.0), scatterers=[PointScatterer(_TARGET, _RHO)])
    raise SceneValidationError(f"unknown preset {case!r}; expected one of {PRESET_CASES}")
