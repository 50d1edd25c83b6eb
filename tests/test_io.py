"""Artifact formats: OBJ meshes, CSV grids, canonical JSON reports."""

import json

import numpy as np
import pytest

from quatsurf import GridChart
from quatsurf.generators import CATALOG, make_surface
from quatsurf.io import (canonical_json, config_hash, ensure_outdir,
                         read_positions_csv, read_qdiff_csv, write_field_csv,
                         write_obj, write_report)


def small_grid():
    return GridChart(5, 6, 0.25, 0.5, -0.5, -1.25)


def test_write_obj_counts_and_indexing(tmp_path):
    grid = small_grid()
    X, Y = grid.mesh()
    pos = np.stack([X, Y, X * Y], axis=-1)
    path = write_obj(tmp_path / "m.obj", pos, comment="unit patch")
    text = path.read_text() if hasattr(path, "read_text") else open(
        path).read()
    lines = text.strip().split("\n")
    assert lines[0] == "# unit patch"
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 5 * 6
    assert len(faces) == 2 * 4 * 5
    # node (j=0, i=1) is the second vertex
    vx = [float(t) for t in verts[1].split()[1:]]
    assert vx == pytest.approx([X[0, 1], Y[0, 1], X[0, 1] * Y[0, 1]])
    # faces are 1-indexed and stay inside the vertex list
    idx = np.array([[int(t) for t in f.split()[1:]] for f in faces])
    assert idx.min() == 1
    assert idx.max() == 5 * 6
    # first cell: (a, a+1, a+nx+1) with a = 1
    assert list(idx[0]) == [1, 2, 7]


def test_write_obj_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError, match=r"\(ny, nx, 3\)"):
        write_obj(tmp_path / "bad.obj", np.zeros((4, 4)))


def assert_positions_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(11)
    pos = rng.standard_normal((grid.ny, grid.nx, 3))
    path = tmp_path / "p.csv"
    write_field_csv(path, grid, {"px": pos[..., 0], "py": pos[..., 1],
                                 "pz": pos[..., 2]})
    grid2, pos2 = read_positions_csv(path)
    # %.17g round-trips doubles exactly
    assert np.array_equal(pos2, pos)
    assert grid2.spec() == grid.spec()


def test_positions_csv_roundtrip_exact(tmp_path):
    assert_positions_roundtrip(tmp_path, small_grid())


@pytest.mark.parametrize("n", [21, 33, 65])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_grid_csv_roundtrip_exact(tmp_path, name, n):
    # a generator's grid reads back bit for bit, spacing and origin too,
    # so the exact grid comparison accepts a file written on it
    assert_positions_roundtrip(tmp_path, make_surface(name, n).imm.grid)


def test_vector_field_columns(tmp_path):
    grid = small_grid()
    field = np.zeros((grid.ny, grid.nx, 2))
    field[..., 1] = 7.0
    path = tmp_path / "v.csv"
    write_field_csv(path, grid, {"t": field})
    header = open(path).readline().strip().split(",")
    assert header == ["x", "y", "t_0", "t_1"]


def test_field_csv_rejects_mismatched_grid(tmp_path):
    grid = small_grid()
    with pytest.raises(ValueError, match="does not match"):
        write_field_csv(tmp_path / "w.csv", grid,
                        {"h": np.zeros((3, 3))})


def test_field_csv_rejects_complex_field(tmp_path):
    grid = small_grid()
    with pytest.raises(ValueError, match="is complex"):
        write_field_csv(tmp_path / "c.csv", grid,
                        {"phi": np.zeros((6, 5), dtype=complex)})


def test_field_csv_rejects_a_rank_4_field(tmp_path):
    with pytest.raises(ValueError, match="^field 't' has unsupported rank$"):
        write_field_csv(tmp_path / "t.csv", small_grid(),
                        {"t": np.zeros((6, 5, 2, 2))})


def test_qdiff_csv_roundtrip(tmp_path):
    grid = small_grid()
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((grid.ny, grid.nx)) \
        + 1j * rng.standard_normal((grid.ny, grid.nx))
    path = tmp_path / "q.csv"
    write_field_csv(path, grid, {"re_phi": phi.real, "im_phi": phi.imag})
    grid2, phi2 = read_qdiff_csv(path)
    assert np.array_equal(phi2, phi)
    assert grid2.spec() == grid.spec()


def test_read_rejects_small_grid(tmp_path):
    path = tmp_path / "s.csv"
    with open(path, "w") as fh:
        fh.write("x,y,px,py,pz\n")
        for j in range(6):
            for i in range(4):
                fh.write("%g,%g,0,0,0\n" % (0.25 * i, 0.5 * j))
    with pytest.raises(ValueError, match="too small"):
        read_positions_csv(path)


def test_read_rejects_partial_grid(tmp_path):
    grid = small_grid()
    path = tmp_path / "h.csv"
    write_field_csv(path, grid, {"px": np.zeros((6, 5)),
                                 "py": np.zeros((6, 5)),
                                 "pz": np.zeros((6, 5))})
    lines = open(path).read().strip().split("\n")
    open(path, "w").write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="rectangular"):
        read_positions_csv(path)


def test_read_rejects_nonuniform_spacing(tmp_path):
    path = tmp_path / "n.csv"
    xs = [0.0, 1.0, 2.0, 3.0, 4.7]
    ys = [0.0, 1.0, 2.0, 3.0, 4.0]
    with open(path, "w") as fh:
        fh.write("x,y,px,py,pz\n")
        for y in ys:
            for x in xs:
                fh.write("%g,%g,0,0,0\n" % (x, y))
    with pytest.raises(ValueError, match="uniformly spaced"):
        read_positions_csv(path)


def test_read_rejects_missing_columns(tmp_path):
    path = tmp_path / "m.csv"
    with open(path, "w") as fh:
        fh.write("x,y,px\n")
        fh.write("0,0,1\n")
    with pytest.raises(ValueError, match="missing columns"):
        read_positions_csv(path)


def test_canonical_json_is_deterministic():
    a = {"b": np.float64(1.0), "a": np.float64(2.5),
         "c": [np.int64(3), np.bool_(True)]}
    b = {"c": [3, True], "a": 2.5, "b": 1.0}
    assert canonical_json(a) == canonical_json(b)
    text = canonical_json(a)
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 2.5, "b": 1.0, "c": [3, True]}


def test_canonical_json_special_values():
    text = canonical_json({"bad": float("nan"), "inf": float("inf"),
                           "z": 1.5 - 2.0j})
    data = json.loads(text)
    assert data["bad"] == "nan"
    assert data["inf"] == "inf"
    assert data["z"] == {"re": 1.5, "im": -2.0}


def test_canonical_json_keeps_every_bit():
    v = 0.1234567890123456
    assert json.loads(canonical_json({"v": v}))["v"] == v
    # values one ulp apart hash differently
    assert config_hash({"v": v}) != config_hash({"v": np.nextafter(v, 1)})
    assert config_hash({"v": 0.1}) != config_hash({"v": 0.2})


def test_canonical_json_zero_dimensional_arrays(tmp_path):
    zero_d = {"f": np.array(2.5), "b": np.array(True), "i": np.array(3),
              "nan": np.array(np.nan)}
    text = canonical_json({"f": 2.5, "b": True, "i": 3, "nan": float("nan")})
    assert canonical_json(zero_d) == text
    assert config_hash(zero_d) == config_hash(json.loads(text))
    path = write_report(str(tmp_path / "r.json"), zero_d)
    assert open(path).read() == text


def test_config_hash_order_independent():
    h1 = config_hash({"alpha": 1, "beta": [2, 3]})
    h2 = config_hash({"beta": [2, 3], "alpha": 1})
    assert h1 == h2
    assert len(h1) == 16
    assert all(c in "0123456789abcdef" for c in h1)


def test_write_report_and_outdir(tmp_path):
    out = ensure_outdir(tmp_path / "nested" / "dir")
    ensure_outdir(out)
    path = write_report(str(out) + "/r.json", {"x": np.arange(3)})
    assert json.load(open(path)) == {"x": [0, 1, 2]}
