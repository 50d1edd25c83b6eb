"""The float kernel behind the OBJ and CSV writers, against FLOAT_FMT %.

quatsurf.io lays out the %.17g text of float64 tables in numpy and hands
only the values it does not decide to its % fallback; these tests hold
its bytes to per-row % formatting, check which values take the fast path,
and cover the OBJ comment lines and what ``import quatsurf`` loads.
"""

import io
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import quatsurf
import quatsurf.io
from quatsurf import GridChart
from quatsurf.cli import main
from quatsurf.io import FLOAT_FMT, write_field_csv, write_obj

CSV7 = ",".join([FLOAT_FMT] * 7) + "\n"
OBJ3 = "v " + " ".join([FLOAT_FMT] * 3) + "\n"
TINY = 2.2250738585072014e-308  # least normal double
# ties a * 10**(16 - E) = n + 1/2 where 5**(16 - E) is not a double
# (E = -7, -8), which the kernel leaves to the fallback
INEXACT_TIES = ([m * 2.0 ** -24 for m in range(3, 16, 2)]
                + [m * 2.0 ** -25 for m in (1, 3)])
SPECIALS = ([0.0, -0.0, float("nan"), float("inf"), -float("inf"),
             5e-324, -5e-324, TINY / 3, TINY, -TINY, np.nextafter(TINY, 1),
             1.7976931348623157e308, -1.7976931348623157e308, 1e-290, 1e290,
             np.nextafter(1e-290, 0), np.nextafter(1e290, np.inf),
             # exact ties, decided half to even
             1000000000000000.25, 1000000000000000.75, 2.5, 0.125,
             # the carry to 1e17 and the notation switches
             9.9999999999999999e16, 99999999999999984.0,
             9.9999999999999995e-05, 1e-4, 1e-5, 1e16, 1e17, 1e-6,
             123.0, 100.0, 0.1, 1.0 / 3, 1.5, -2.0]
            + INEXACT_TIES)


def assert_writes_as_percent(fmt, values):
    """_write_rows gives fmt % row for every row of values in fmt's layout
    (padded with zeros to whole rows)."""
    values = np.asarray(values, np.float64).ravel()
    cols = fmt.count("%")
    table = np.concatenate([values, np.zeros(-values.size % cols)])
    table = table.reshape(-1, cols)
    out = io.StringIO()
    quatsurf.io._write_rows(out, fmt, table)
    want = (fmt * len(table)) % tuple(table.ravel().tolist())
    if out.getvalue() != want:
        lines = zip(out.getvalue().splitlines(), want.splitlines())
        pytest.fail("kernel != %%: %s" % [p for p in lines if p[0] != p[1]][:5])


def test_kernel_matches_percent_on_random_bit_patterns():
    bits = np.random.default_rng(20261022).integers(
        0, 2 ** 64, 10 ** 6, dtype=np.uint64, endpoint=False)
    assert_writes_as_percent(CSV7, bits.view(np.float64))


def test_kernel_matches_percent_at_powers_of_ten():
    p10 = np.array([float("1e%d" % k) for k in range(-300, 301)])
    near = [p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf)]
    assert_writes_as_percent(OBJ3, np.concatenate(near + [-p10]))


@pytest.mark.parametrize("fmt", [CSV7, OBJ3, FLOAT_FMT + "\n"],
                         ids=["csv", "obj", "bare"])
def test_kernel_matches_percent_on_specials(fmt):
    assert_writes_as_percent(fmt, SPECIALS)
    assert_writes_as_percent(fmt, [-v for v in SPECIALS])


def fallback_values(write):
    """The floats the kernel hands to its % fallback while write runs."""
    with mock.patch.object(quatsurf.io, "_percent",
                           wraps=quatsurf.io._percent) as fallback:
        write()
    return [v for call in fallback.call_args_list
            if call.args[1].dtype == np.float64
            for v in call.args[1].ravel().tolist()]


def test_decided_values_never_reach_the_fallback(tmp_path):
    grid = GridChart(70, 65, 0.1, 0.05, -3.0, 1.0)  # more than one chunk
    X, Y = grid.mesh()
    rng = np.random.default_rng(7)
    ordinary = rng.standard_normal(X.shape) * 10.0 ** rng.integers(
        -200, 200, X.shape)
    fields = {"zero": np.zeros_like(X), "minus_zero": -np.zeros_like(X),
              "grid": np.stack([X, Y], axis=-1), "ordinary": ordinary,
              "unit": np.sin(X) * np.cos(Y)}
    assert fallback_values(
        lambda: write_field_csv(tmp_path / "f.csv", grid, fields)) == []
    pos = np.stack([X, Y, ordinary], axis=-1)
    assert fallback_values(
        lambda: write_obj(tmp_path / "m.obj", pos, comment="c")) == []


def test_undecided_values_reach_the_fallback_in_order(tmp_path):
    odd = [float("nan"), float("inf"), 5e-324, 1e-300, -1e300] + INEXACT_TIES
    values = np.array([1.0, 0.0] + odd + [0.5] * (-len(odd) % 3 + 1))
    got = fallback_values(
        lambda: write_obj(tmp_path / "m.obj", values.reshape(1, -1, 3)))
    assert np.array_equal(got, odd, equal_nan=True)


def test_every_comment_line_is_a_comment(tmp_path):
    pos = np.zeros((2, 2, 3))
    write_obj(tmp_path / "m.obj", pos, comment="a\nv 9 9 9\r\nb")
    lines = (tmp_path / "m.obj").read_text().splitlines()
    assert lines[:4] == ["# a", "# v 9 9 9", "# b", "v 0 0 0"]


def test_dual_of_a_file_with_a_newline_in_its_name(tmp_path):
    # dual --input names its OBJ comment after the input's base name
    gen = str(tmp_path / "gen")
    assert main(["generate", "--generator", "cylinder", "--n", "33",
                 "--outdir", gen]) == 0
    src = os.path.join(tmp_path, "v 9 9 9\nodd.csv")
    os.rename(os.path.join(gen, "cylinder_fields.csv"), src)
    out = str(tmp_path / "dual")
    assert main(["dual", "--input", src, "--q", "1", "--outdir", out]) == 0
    with open(os.path.join(out, "v 9 9 9\nodd_dual.obj")) as fh:
        lines = fh.read().splitlines()
    assert lines[:2] == ["# dual surface of v 9 9 9", "# odd"]
    assert sum(line.startswith("v ") for line in lines) == 33 * 33
    assert all(line[:2] in ("# ", "v ", "f ") for line in lines)


def test_import_loads_neither_hashlib_nor_fractions():
    src = os.path.dirname(os.path.dirname(quatsurf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, quatsurf\n"
            "print(sorted({'hashlib', 'fractions'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
