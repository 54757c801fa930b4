"""Single-scattering forward model and phaseless array data.

The array records, per frequency, the squared modulus of the total field at
each receiver: direct arrival plus the weak scattered response.  Phases are
discarded at this point; everything downstream works from these power rows.
The model functions return (F, N) rows over a band, or one value per band
frequency.

The free-space Green's function is exp(ikr)/(4 pi r) in three dimensions
and (i/4) H0(kr) in two, where H0 = J0 + i Y0 (``hankel0_1``) comes from
SciPy's cephes ``j0``/``y0``.  ``scipy.special`` is imported on first use,
so importing the CLI or running a 3-D scene does not load it.

The CSV band files (intensity, illumination, field) are read on the scene
they serve, as images live on its window: one reader, ``_read_band``,
accepts exactly the rows the writers emit for the scene's band and array
and returns plain value arrays on that band.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, SingularityError
from .scene import Scene

__all__ = [
    "IntensityData",
    "hankel0_1",
    "direct_arrivals_band",
    "array_response_band",
    "total_field_band",
    "intensity_data",
    "linearization_residual",
    "write_intensity_csv",
    "read_intensity_csv",
    "write_illumination_csv",
    "write_field_csv",
    "read_field_csv",
]


@dataclass(frozen=True)
class IntensityData:
    """Phaseless data rows over the full band.

    ``illumination`` holds the per-frequency divisor used at recovery time:
    |fhat|^2 for deterministic illumination (1 for ``intensity_data``),
    2*pi*Fhat for stochastic runs.
    """

    omegas: np.ndarray
    values: np.ndarray
    illumination: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        ill = np.asarray(self.illumination, dtype=float)
        if om.ndim != 1 or vals.ndim != 2 or vals.shape[0] != om.shape[0]:
            raise DataFormatError("intensity values must be (F, N) matching omegas")
        if ill.shape != om.shape:
            raise DataFormatError("illumination must hold one value per frequency")
        if not (np.all(np.isfinite(om)) and np.all(np.isfinite(vals))):
            raise DataFormatError("intensity data must be finite")
        if not np.all(np.isfinite(ill)):
            raise DataFormatError("illumination must be finite")
        for arr in (om, vals, ill):
            arr.setflags(write=False)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "illumination", ill)

    @property
    def n_receivers(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# vectorized Green's function helpers
# ---------------------------------------------------------------------------


def _distances(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Euclidean distances over the last axis, points and ref broadcast.

    Summed coordinate by coordinate, in the order ``np.linalg.norm``
    uses, so the result is the same to the bit without building the
    (..., coords) difference array.
    """
    d = points[..., 0] - ref[..., 0]
    sq = d * d
    for j in range(1, points.shape[-1]):
        d = points[..., j] - ref[..., j]
        sq += d * d
    return np.sqrt(sq, out=sq)


def hankel0_1(t: np.ndarray) -> np.ndarray:
    """First-kind Hankel function of order zero, J0(t) + i Y0(t), for t > 0.

    Composed from cephes ``j0`` and ``y0`` rather than taken from AMOS
    ``hankel1``.  The argument is not checked: every caller passes k r
    with k > 0 (``FrequencyGrid`` rejects a band that does not start
    above 0 Hz) and r > 0 (zero distances raise or are masked first).  The
    accuracy target, 1e-10 absolute for small arguments and 1e-10 relative
    to the envelope sqrt(2/(pi t)) for large ones, is pinned by the
    arbitrary-precision oracle in the tests.
    """
    from scipy import special

    return special.j0(t) + 1j * special.y0(t)


def _spreading_3d(r: np.ndarray) -> np.ndarray:
    """4 pi r: the 3-D Green's function is e^{ikr} divided by this, so its
    amplitude 1/(4 pi r) does not depend on k."""
    return 4.0 * math.pi * r


def _green_from_distance(r: np.ndarray, k, dimension: int) -> np.ndarray:
    """Green's function values for separations r at wavenumbers k (broadcast)."""
    if dimension == 3:
        return np.exp(1j * k * r) / _spreading_3d(r)
    return 0.25j * hankel0_1(k * r)


def _wavenumbers(scene: Scene) -> np.ndarray:
    """Band wavenumbers omega / c0, ascending and positive."""
    return scene.band.omegas / scene.c0


def _direct_rows(scene: Scene, k: np.ndarray) -> np.ndarray:
    """(F, N) direct arrivals g0 at the wavenumbers k."""
    r = _distances(scene.receivers, scene.source)
    hit = np.flatnonzero(r == 0.0)
    if hit.size:
        raise SingularityError(f"source coincides with receiver {hit[0]}")
    return _green_from_distance(r, k[:, None], scene.dimension)


def _response_rows(scene: Scene, k: np.ndarray) -> np.ndarray:
    """(F, N) scattered field p, first Born term, at the wavenumbers k."""
    if not scene.scatterers:
        return np.zeros((k.shape[0], scene.n_receivers), dtype=complex)
    positions = np.asarray([s.position for s in scene.scatterers])
    rho = np.asarray([s.rho for s in scene.scatterers])

    r_rs = _distances(scene.receivers[:, None, :], positions[None, :, :])
    r_ss = _distances(positions, scene.source)
    bad = np.argwhere(r_rs == 0.0)
    if bad.size:
        r_i, s_i = bad[0]
        raise SingularityError(f"scatterer {s_i} coincides with receiver {r_i}")
    bad = np.flatnonzero(r_ss == 0.0)
    if bad.size:
        raise SingularityError(f"scatterer {bad[0]} coincides with the source")

    g_recv = _green_from_distance(r_rs, k[:, None, None], scene.dimension)
    g_src = _green_from_distance(r_ss, k[:, None], scene.dimension)
    return (k * k)[:, None] * (g_recv * (rho * g_src)[:, None, :]).sum(axis=2)


def direct_arrivals_band(scene: Scene) -> np.ndarray:
    """Stacked g0 rows, shape (F, N), ascending frequency."""
    return _direct_rows(scene, _wavenumbers(scene))


def array_response_band(scene: Scene) -> np.ndarray:
    """Stacked p rows, shape (F, N), ascending frequency."""
    return _response_rows(scene, _wavenumbers(scene))


def total_field_band(scene: Scene) -> np.ndarray:
    """Stacked g0 + p rows, shape (F, N), ascending frequency."""
    k = _wavenumbers(scene)
    return _direct_rows(scene, k) + _response_rows(scene, k)


# ---------------------------------------------------------------------------
# phaseless data
# ---------------------------------------------------------------------------


def intensity_data(scene: Scene) -> IntensityData:
    """Exact quadratic power rows |g0 + p|^2 over the band, under unit
    illumination; no linearization is applied."""
    omegas = scene.band.omegas
    total = total_field_band(scene)
    # Copied out, so the data do not keep the complex product alive.
    power = (np.conj(total) * total).real.copy()
    return IntensityData(omegas, power, np.ones(omegas.shape[0]))


def linearization_residual(scene: Scene) -> np.ndarray:
    """max_r |p_r| / |g0_r| per band frequency: the size of the neglected
    quadratic term."""
    ratio = np.abs(array_response_band(scene)) / np.abs(direct_arrivals_band(scene))
    return np.max(ratio, axis=1)


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

_INTENSITY_HEADER = "freq_index,omega_rad_s,receiver_index,value"
_ILLUMINATION_HEADER = "freq_index,omega_rad_s,twopi_Fhat"
_FIELD_HEADER = "freq_index,omega_rad_s,receiver_index,re,im"


def _text(column: np.ndarray) -> list[str]:
    """Each entry of a key column as text: ``%d`` if integer, else ``%.17g``."""
    fmt = "%d" if np.issubdtype(column.dtype, np.integer) else "%.17g"
    return [fmt % x for x in column.ravel().tolist()]


def _write_grid(path, header: str, keys, values) -> None:
    """A (lines, positions) grid under ``header``, one row per cell, row-major.

    The row's columns are ``keys`` then ``values``.  A key column is either
    an (lines, 1) array, one entry per grid line, or a 1-D array, one entry
    per position, repeated on every line; a value column is an array that
    broadcasts to the grid.  A 1-D table is one line of positions.

    The contract every writer shares, and the inverse of ``_read_columns``:
    ``%d`` for an integer column, ``%.17g`` (round-trip exact) for a float
    column, so the bytes equal a ``%``-format of each row.  Each key entry
    is formatted once, not once per row: the per-position keys into one
    template per file, the per-line keys into one template per grid line,
    and each line is written with one ``%`` on that template, which holds
    only the value columns' ``%.17g``.
    """
    keys = [np.asarray(c) for c in keys]
    shape = np.broadcast_shapes((1, 1), *(np.shape(c) for c in (*keys, *values)))
    fields = [["%s"] * shape[1] if c.ndim == 2 else _text(c) for c in keys]
    skeleton = "".join(",".join(row) + ",%%.17g" * len(values) + "\n"
                       for row in zip(*fields, strict=True))
    line_keys = list(zip(*(_text(c) for c in keys if c.ndim == 2))) or [()] * shape[0]
    rows = np.stack([np.broadcast_to(np.asarray(v, dtype=float), shape) for v in values],
                    axis=-1).reshape(shape[0], -1).tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for text, row in zip(line_keys, rows, strict=True):
            fh.write(skeleton % (text * shape[1]) % tuple(row))


def _read_columns(path, header: str, kinds, what: str) -> list[np.ndarray]:
    """One array per column of a CSV file, of the types ``kinds`` (int/float).

    The shared contract of every reader: the header must match exactly,
    blank lines are skipped, each row has one field per column, and a
    field that does not parse, or bytes that do not decode, are a
    DataFormatError.
    """
    dtype = [(f"c{j}", kind) for j, kind in enumerate(kinds)]
    try:
        with open(path) as fh:
            first = fh.readline().strip()
            if first != header:
                raise DataFormatError(f"unexpected {what} header {first!r}")
            with warnings.catch_warnings():
                # loadtxt warns about a table without rows; that is raised below
                warnings.simplefilter("ignore", UserWarning)
                columns = np.loadtxt(filter(None, map(str.strip, fh)), dtype=dtype,
                                     delimiter=",", comments=None, ndmin=1, unpack=True)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"undecodable bytes in {what} file: {exc}") from None
    except ValueError as exc:
        raise DataFormatError(f"malformed {what} row: {exc}") from None
    if columns[0].size == 0:
        raise DataFormatError(f"{what} file holds no rows")
    return columns


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _band_keys(omegas: np.ndarray, n: int) -> list:
    """Frequency index and omega per grid line, receiver index per position."""
    return [np.arange(omegas.shape[0])[:, None], omegas[:, None], np.arange(n)]


def _read_band(path, header: str, n_keys: int, scene: Scene, what: str) -> list[np.ndarray]:
    """The value columns of a band file written for ``scene``: (F, N) arrays
    if ``n_keys`` is 3 (frequency index, omega, receiver index), (F,) if it
    is 2 (no receiver column).

    Every value must be finite, and the file must hold exactly the rows the
    writers emit for the scene: its key columns equal ``_band_keys`` of the
    scene's band and array, row for row (file round trips are bit-exact, so
    equality is literal).  Errors name the file by ``what`` and give the
    first data row that differs, or the row count the scene expects.
    """
    kinds = (int, float, int)[:n_keys] + (float,) * (header.count(",") + 1 - n_keys)
    columns = _read_columns(path, header, kinds, what)
    if not all(np.isfinite(c).all() for c in columns):
        raise DataFormatError(f"{what} data must be finite")
    keys = _band_keys(scene.band.omegas, scene.n_receivers)[:n_keys]
    grid = np.broadcast_shapes(*(k.shape for k in keys))
    n_rows = math.prod(grid)
    if columns[0].size != n_rows:
        raise DataFormatError(f"{what} file holds {columns[0].size} data rows; "
                              f"the scene expects {n_rows}")
    expected = [np.broadcast_to(k, grid).ravel() for k in keys]
    bad = np.flatnonzero(np.any([c != e for c, e in zip(columns, expected)], axis=0))
    if bad.size:
        row = bad[0]
        text = ",".join(_text(e[row:row + 1])[0] for e in expected)
        raise DataFormatError(f"{what} data row {row + 1} does not match the scene: "
                              f"its keys should be {text}")
    return [c.reshape(grid[:n_keys - 1]) for c in columns[n_keys:]]


def write_intensity_csv(data: IntensityData, path) -> None:
    """Rows sorted by (freq_index, receiver_index), 17 significant digits."""
    _write_grid(path, _INTENSITY_HEADER, _band_keys(data.omegas, data.n_receivers),
                [data.values])


def write_illumination_csv(data: IntensityData, path) -> None:
    _write_grid(path, _ILLUMINATION_HEADER,
                [np.arange(data.omegas.shape[0]), data.omegas], [data.illumination])


def write_field_csv(omegas, values, path) -> None:
    """Per-frequency complex receiver fields, same ordering as intensity."""
    values = np.asarray(values, dtype=complex)
    omegas = np.asarray(omegas, dtype=float)
    _write_grid(path, _FIELD_HEADER, _band_keys(omegas, values.shape[1]),
                [values.real, values.imag])


def read_intensity_csv(path, scene: Scene, illumination_path=None) -> IntensityData:
    """Intensity rows on the scene's band and array (``_read_band``), with
    the illumination file's divisors, or 1 at every frequency without one."""
    (values,) = _read_band(path, _INTENSITY_HEADER, 3, scene, "intensity")
    if illumination_path is None:
        illumination = np.ones(scene.band.count)
    else:
        (illumination,) = _read_band(illumination_path, _ILLUMINATION_HEADER, 2, scene,
                                     "illumination")
    return IntensityData(scene.band.omegas, values, illumination)


def read_field_csv(path, scene: Scene, what: str = "field") -> np.ndarray:
    """The (F, N) complex field of a file on the scene's band and array
    (``_read_band``); errors name the file ``what``."""
    re, im = _read_band(path, _FIELD_HEADER, 3, scene, what)
    return _complex(re, im)
