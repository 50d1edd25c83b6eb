"""File formats: OBJ meshes, CSV node fields, deterministic JSON reports.

Everything here is plain text and reproducible: fixed float formatting,
sorted JSON keys, no timestamps, so identical inputs give byte-identical
artifacts.  OBJ/CSV %.17g text comes from exact scaled digits, or from %
where they do not decide it; the tests' per-float writers stay the reference.
"""

import contextlib
import functools
import json
import os
import warnings

import numpy as np

from .charts import GridChart

FLOAT_FMT = "%.17g"
# rows formatted per write by the OBJ and CSV writers
_CHUNK = 4096
_PIECE = 4096  # values per float kernel pass: its temporaries stay cached


class ConfigError(ValueError):
    """Invalid run configuration, unreadable input file, unusable
    output directory or unwritable artifact (exit code 1 on the command
    line)."""


def _word(text, at=0):  # little-endian uint64, text from byte `at` on
    return int.from_bytes(b"\0" * at + text.encode(), "little")


_EMIN, _EMAX, _KMIN = -292, 292, -277  # E laid out; least k = 16 - E
_MASKS = np.array([(1 << 8 * b) - 1 for b in range(9)], np.uint64)


@functools.cache  # built on the first write, not on import
def _kernel_tables():
    """5**k as double-doubles; per E, the "0.000" prefix, "e+XX" suffix,
    digits before the point (0: none), and per digit word the mask below
    the point and the "."; per 4-digit group, its ASCII and its length
    without trailing zeros."""
    p5, byexp = [], []
    for k in range(_KMIN, 18 - _EMIN):
        vn, vd = (5 ** k, 1) if k >= 0 else (1, 5 ** -k)
        num, den = (vn / vd).as_integer_ratio()  # int / int rounds right
        p5.append((num / den, (vn * den - num * vd) / (vd * den)))
    for e in range(_EMIN, _EMAX + 1):
        fixed = -4 <= e < 17
        before = e + 1 if fixed and e >= 0 else 0 if fixed else 1
        byexp.append([_word("0." + "0" * (-e - 1), 3) if before == 0 else 0,
                      0 if fixed else _word("e%+03d" % e, 2), before])
        for s in range(before, before - 17, -8):
            byexp[-1] += [_MASKS[min(max(s, 0), 8)],
                          46 << 8 * s if 0 <= s < 8 and before else 0]
    q = np.arange(10000)
    quad = sum(48 + q // 10 ** (3 - i) % 10 << 8 * i for i in range(4))
    upto = np.where(q > 0, 4 - sum(q % 10 ** i == 0 for i in (1, 2, 3)), -64)
    return (np.array(p5).T.copy(), list(np.array(byexp, np.uint64).T.copy()),
            quad.astype(np.uint64), upto.astype(np.int8))


def _scaled(a, e, p5):
    """D = round-half-even(a * 10**(16 - e)) >= 1e16 from Dekker's exact
    product p + t of ldexp(a, 16 - e) and 5**(16 - e), and which D are near
    ties an inexact 5**k leaves undecided (p > 2**53 is even)."""
    k = 16 - e
    m = np.ldexp(a, k.astype(np.int32))
    hi, lo = p5[0].take(k - _KMIN), p5[1].take(k - _KMIN)
    p = m * hi
    c, g = 134217729.0 * m, 134217729.0 * hi  # Veltkamp's 2**27 + 1
    m1, h1 = c - (c - m), g - (g - hi)
    m2, h2 = m - m1, hi - h1
    t = (((m1 * h1 - p) + m1 * h2 + m2 * h1) + m2 * h2) + m * lo
    r = np.rint(t)
    return (p.astype(np.int64) + r.astype(np.int64),
            (lo != 0) & (np.abs(np.abs(t - r) - 0.5) < 1e-9))


def _digit_words(a):
    """%.17g of 1e-290 <= a <= 1e290 as 4 uint64 words each (the text at
    bytes 3-30, every other byte 0), and which a are undecided ties."""
    p5, byexp, quad, upto = _kernel_tables()
    # log10 can miss by an ulp next to a power of ten, so E starts low by
    # one there and goes up where D reaches 1e17 (which a carry does too)
    e = np.floor(np.log10(a) - 1e-12).astype(np.int64)
    d, unsure = _scaled(a, e, p5)
    high = d >= 10 ** 17
    e += high
    d[high], unsure[high] = _scaled(a[high], e[high], p5)
    r = d // 10
    d16, hi8 = d - 10 * r, r // 100000000
    lo8 = r - hi8 * 100000000
    q0, q2 = hi8 // 10000, lo8 // 10000
    q1, q3 = hi8 - q0 * 10000, lo8 - q2 * 10000
    pre, suf, before, *shift = (tab.take(e - _EMIN) for tab in byexp)
    shown = np.maximum(before.astype(np.int64), np.where(d16 != 0, 17, np.max(
        [upto.take(q) + 4 * i for i, q in enumerate((q0, q1, q2, q3))], 0)))
    cut = shown + (shown > before)  # digit and point bytes shown
    # d0-d7, d8-d15, d16: from the point on, each byte moves up by one
    words, carry = [pre], np.uint64(0)
    for w, digits in enumerate((quad.take(q0) | quad.take(q1) << 32,
                                quad.take(q2) | quad.take(q3) << 32,
                                d16.astype(np.uint64) + 48)):
        below, dot = shift[2 * w:2 * w + 2]
        up = digits & ~below
        words.append(((digits & below) | up << 8 | carry | dot)
                     & _MASKS.take(np.clip(cut - 8 * w, 0, 8)))
        carry = up >> 56
    words[3] |= suf
    return np.stack(words, axis=1), unsure


def _percent(text, values):
    """text % the values, row-major: the float kernel's fallback."""
    return text % tuple(values.ravel().tolist())


def _format_floats(fmt, block):
    """fmt % the rows of a float64 block (FLOAT_FMT fields, <= 2 bytes before
    each and 1 after the last), byte for byte; one _percent call splices
    in the text of the values left undecided."""
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-290) & (a <= 1e290)
    fallback = ~fast & (a != 0)
    if fallback.all():
        return _percent(fmt * len(block), x)
    words = np.zeros((x.size, 4), np.uint64)
    words[a == 0, 1] = ord("0")
    sel = np.flatnonzero(fast)
    for s in np.split(sel, range(_PIECE, sel.size, _PIECE)):
        words[s], unsure = _digit_words(a[s])
        fallback[s[unsure]] = True
    words[fallback] = 0
    parts = [_word(s) for s in fmt.split(FLOAT_FMT)]
    words[:, 0] |= np.tile(np.array(parts[:-1], np.uint64), len(block))
    words[:, 0] |= np.where(fallback, np.uint64(_word(FLOAT_FMT, 2)),
                            np.signbit(x) * np.uint64(_word("-", 2)))
    words[len(parts) - 2::len(parts) - 1, 3] |= np.uint64(parts[-1] << 56)
    text = words.tobytes().translate(None, b"\0").decode("ascii")
    return _percent(text, x[fallback])


def _write_rows(fh, fmt, table):
    """Write each row of a 2-D table as fmt % row, _CHUNK rows per write,
    so no more than one chunk of text exists at a time."""
    for start in range(0, len(table), _CHUNK):
        block = table[start:start + _CHUNK]
        fh.write(_format_floats(fmt, block) if table.dtype == np.float64
                 else _percent(fmt * len(block), block))


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
            fh.write("".join("# %s\n" % c for c in comment.splitlines()))
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
    import hashlib  # here, not at the top: it costs every import ~3 ms
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
