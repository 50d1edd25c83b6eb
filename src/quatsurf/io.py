"""File formats: OBJ meshes, CSV node fields, deterministic JSON reports.

Everything here is plain text and reproducible: fixed float formatting,
sorted JSON keys, no timestamps, so identical inputs give byte-identical
artifacts.
"""

import contextlib
import hashlib
import json
import os
import warnings

import numpy as np

from .charts import GridChart

FLOAT_FMT = "%.17g"
# rows formatted per write by the OBJ and CSV writers
_CHUNK = 4096


class ConfigError(ValueError):
    """Invalid run configuration, unreadable input file, unusable
    output directory or unwritable artifact (exit code 1 on the command
    line)."""


def _write_rows(fh, fmt, table):
    """Write each row of a 2-D table as fmt % row, _CHUNK rows per write,
    so no more than one chunk of text exists at a time."""
    for start in range(0, len(table), _CHUNK):
        block = table[start:start + _CHUNK]
        fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


@contextlib.contextmanager
def _open_for_write(path):
    """Text file opened for writing; an OSError (unwritable path, a
    directory in the way, a full disk) becomes a ConfigError naming it."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError("cannot write %s: %s"
                          % (path, exc.strerror or exc)) from exc


def write_obj(path, positions, comment=None):
    """Write an (ny, nx, 3) position grid as a triangulated OBJ mesh.

    Vertices are emitted row-major (node (j, i) is vertex j*nx + i + 1);
    each grid cell becomes two triangles, 2 (nx-1)(ny-1) faces total.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 3 or pos.shape[2] != 3:
        raise ValueError("positions must be (ny, nx, 3)")
    ny, nx = pos.shape[:2]
    # vertex number a of each cell's (j, i) corner; two triangles per cell
    a = (np.arange(ny - 1)[:, None] * nx + np.arange(1, nx)).ravel()
    faces = np.stack([a, a + 1, a + nx + 1, a, a + nx + 1, a + nx],
                     axis=1).reshape(-1, 3)
    with _open_for_write(path) as fh:
        if comment:
            fh.write("# " + comment + "\n")
        _write_rows(fh, "v " + " ".join([FLOAT_FMT] * 3) + "\n",
                    pos.reshape(-1, 3))
        _write_rows(fh, "f %d %d %d\n", faces)
    return path


def write_field_csv(path, grid, fields):
    """Write named per-node fields to CSV with x,y coordinate columns.

    fields: dict name -> (ny, nx) real array or (ny, nx, k) array whose
    components become name_0..name_{k-1}.  Rows are emitted row-major.
    """
    cols = ["x", "y"]
    data = []
    X, Y = grid.mesh()
    data.append(X.ravel())
    data.append(Y.ravel())
    for name in fields:
        arr = np.asarray(fields[name])
        if arr.shape[:2] != (grid.ny, grid.nx):
            raise ValueError("field %r does not match the grid" % name)
        if np.iscomplexobj(arr):
            raise ValueError("field %r is complex; write its real and "
                             "imaginary parts as two fields" % name)
        if arr.ndim == 2:
            cols.append(name)
            data.append(arr.ravel())
        elif arr.ndim == 3:
            for k in range(arr.shape[2]):
                cols.append("%s_%d" % (name, k))
                data.append(arr[..., k].ravel())
        else:
            raise ValueError("field %r has unsupported rank" % name)
    table = np.stack(data, axis=1)
    with _open_for_write(path) as fh:
        fh.write(",".join(cols) + "\n")
        _write_rows(fh, ",".join([FLOAT_FMT] * len(cols)) + "\n", table)
    return path


def _infer_grid(x, y):
    xs = np.unique(x)
    ys = np.unique(y)
    nx, ny = xs.size, ys.size
    if nx < 5 or ny < 5:
        raise ConfigError("CSV grid too small (need at least 5 x 5 nodes)")
    if nx * ny != x.size:
        raise ConfigError("CSV nodes do not form a full rectangular grid")
    for vals, name in ((xs, "x"), (ys, "y")):
        d = np.diff(vals)
        if np.any(np.abs(d - d[0]) > 1e-9 * max(abs(d[0]), 1e-30)):
            raise ConfigError("CSV %s coordinates are not uniformly spaced"
                              % name)
    grid = GridChart.from_bounds(float(xs[0]), float(xs[-1]), float(ys[0]),
                                 float(ys[-1]), nx, ny)
    return grid, np.searchsorted(ys, y), np.searchsorted(xs, x)


def _read_grid_csv(path, columns):
    """Read a node CSV with x, y and the named value columns into
    (grid, (ny, nx, len(columns)) values); every node must carry finite
    values."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            with warnings.catch_warnings():
                # a table without rows is reported below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read CSV %s: %s" % (path, exc)) from exc
    if rows.size == 0:
        raise ConfigError("CSV %s has no data rows" % path)
    missing = [c for c in ["x", "y"] + columns if c not in header]
    if missing:
        raise ConfigError("CSV %s is missing columns: %s"
                          % (path, ", ".join(missing)))
    if rows.shape[1] != len(header):
        raise ConfigError("CSV %s row width does not match its header"
                          % path)
    grid, jj, ii = _infer_grid(rows[:, header.index("x")],
                               rows[:, header.index("y")])
    values = np.full((grid.ny, grid.nx, len(columns)), np.nan)
    values[jj, ii] = rows[:, [header.index(c) for c in columns]]
    bad = ~np.isfinite(values).all(axis=-1)
    if bad.any():
        j, i = map(int, np.argwhere(bad)[0])
        raise ConfigError("CSV %s has a missing or non-finite value at "
                          "node (j=%d, i=%d)" % (path, j, i))
    return grid, values


def read_positions_csv(path):
    """Read x,y,px,py,pz node samples into (grid, (ny, nx, 3) positions)."""
    return _read_grid_csv(path, ["px", "py", "pz"])


def read_qdiff_csv(path):
    """Read x,y,re_phi,im_phi samples into (grid, complex (ny, nx) phi)."""
    grid, values = _read_grid_csv(path, ["re_phi", "im_phi"])
    return grid, values[..., 0] + 1j * values[..., 1]


def _jsonable(obj):
    """Round-trip-safe JSON payload: numpy scalars/arrays to Python,
    floats at full precision, non-finite to strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(obj[k]) for k in obj}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else repr(f)
    # bool before int: bool subclasses int and would serialize as 0/1
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    return obj


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, floats at full precision (the
    shortest decimal that reads back to the same double), newline."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def config_hash(config):
    """Short stable hash of a configuration mapping."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def write_report(path, report):
    text = canonical_json(report)
    with _open_for_write(path) as fh:
        fh.write(text)
    return path


def ensure_outdir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot use %s as output directory: %s"
                          % (path, exc.strerror or exc)) from exc
    return path
