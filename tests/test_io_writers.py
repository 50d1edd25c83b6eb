"""OBJ and CSV writers against per-float reference implementations.

The references format one float at a time with FLOAT_FMT; the chunked
bulk writers in quatsurf.io must give the same bytes for any input.
Needs hypothesis (the ``test`` extra).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import quatsurf.io
from quatsurf import GridChart
from quatsurf.io import FLOAT_FMT, write_field_csv, write_obj


def oracle_write_obj(path, positions, comment=None):
    """Reference OBJ writer: one %-format per float, one line per string."""
    pos = np.asarray(positions, dtype=np.float64)
    ny, nx = pos.shape[:2]
    lines = []
    if comment:
        lines.append("# " + comment)
    for j in range(ny):
        for i in range(nx):
            lines.append("v " + " ".join(FLOAT_FMT % c for c in pos[j, i]))
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i + 1
            b = a + 1
            c = a + nx + 1
            d = a + nx
            lines.append("f %d %d %d" % (a, b, c))
            lines.append("f %d %d %d" % (a, c, d))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def oracle_write_field_csv(path, grid, fields):
    """Reference CSV writer: one %-format per float, one write per row."""
    cols = ["x", "y"]
    X, Y = grid.mesh()
    data = [X.ravel(), Y.ravel()]
    for name in fields:
        arr = np.asarray(fields[name])
        if arr.ndim == 2:
            cols.append(name)
            data.append(arr.ravel())
        else:
            for k in range(arr.shape[2]):
                cols.append("%s_%d" % (name, k))
                data.append(arr[..., k].ravel())
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in range(grid.ny * grid.nx):
            fh.write(",".join(FLOAT_FMT % col[r] for col in data) + "\n")


# values whose text form is easy to get wrong
SPECIALS = (-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
            2.2250738585072014e-308 / 3, 1e308, -1e308, 0.1, 1.0 / 3)
DTYPES = (np.float64, np.float32, np.int64)
WRITERS = settings(max_examples=60, deadline=None, database=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


def values(dtype, shape):
    elements = hnp.from_dtype(np.dtype(dtype))
    if dtype is np.float64:
        elements = st.one_of(st.sampled_from(SPECIALS), elements)
    return hnp.arrays(dtype, shape, elements=elements)


def chunk_for(rows, offset):
    """A chunk size that leaves rows at chunk + offset (at least 1 row)."""
    return max(rows - offset, 1)


def same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


@pytest.mark.parametrize("offset", [-1, 0, 1])
@WRITERS
@given(st.data(), st.integers(1, 7), st.integers(1, 7),
       st.sampled_from(DTYPES),
       st.sampled_from([None, "", "generated surface: 100% %d cylinder"]))
def test_write_obj_matches_oracle(offset, tmp_path, data, ny, nx, dtype,
                                  comment):
    pos = data.draw(values(dtype, (ny, nx, 3)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quatsurf.io, "_CHUNK", chunk_for(ny * nx, offset))
        write_obj(tmp_path / "new.obj", pos, comment=comment)
    oracle_write_obj(tmp_path / "old.obj", pos, comment=comment)
    assert same_bytes(tmp_path / "new.obj", tmp_path / "old.obj")


@pytest.mark.parametrize("offset", [-1, 0, 1])
@WRITERS
@given(st.data(), st.integers(5, 8), st.integers(5, 8),
       st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
def test_write_field_csv_matches_oracle(offset, tmp_path, data, ny, nx, x0,
                                        h):
    grid = GridChart(nx, ny, h, 0.5 * h, x0, -x0)
    fields = {}
    for name in data.draw(st.lists(st.sampled_from(["h", "t", "re_phi"]),
                                   min_size=1, max_size=3, unique=True)):
        k = data.draw(st.sampled_from([None, 1, 3]))
        shape = (ny, nx) if k is None else (ny, nx, k)
        fields[name] = data.draw(values(data.draw(st.sampled_from(DTYPES)),
                                        shape))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quatsurf.io, "_CHUNK", chunk_for(ny * nx, offset))
        write_field_csv(tmp_path / "new.csv", grid, fields)
    oracle_write_field_csv(tmp_path / "old.csv", grid, fields)
    assert same_bytes(tmp_path / "new.csv", tmp_path / "old.csv")


def test_writers_match_oracle_across_default_chunks(tmp_path):
    """More rows than one default chunk holds, with a real surface."""
    grid = GridChart(70, 65, 0.1, 0.05, -3.0, 1.0)
    X, Y = grid.mesh()
    pos = np.stack([np.cos(X) * Y, np.sin(X) * Y, X * Y], axis=-1)
    assert grid.nx * grid.ny > quatsurf.io._CHUNK
    write_obj(tmp_path / "new.obj", pos, comment="chunked")
    oracle_write_obj(tmp_path / "old.obj", pos, comment="chunked")
    assert same_bytes(tmp_path / "new.obj", tmp_path / "old.obj")
    fields = {"p": pos, "u": X - Y}
    write_field_csv(tmp_path / "new.csv", grid, fields)
    oracle_write_field_csv(tmp_path / "old.csv", grid, fields)
    assert same_bytes(tmp_path / "new.csv", tmp_path / "old.csv")
