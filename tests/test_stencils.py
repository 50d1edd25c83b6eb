"""The single finite-difference stencil against written-out stencils.

deriv_x computes its four one-sided edge columns in one pass, and deriv_y
is deriv_x on the axis-swapped view; every node still goes through the
same floating-point operations as the explicit column-by-column and
row-by-row stencils below, so the comparisons are exact, signed zeros
included.  Needs hypothesis (the ``test`` extra).
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from quatsurf.charts import deriv_x, deriv_y
from quatsurf.quaternions import _qempty


def deriv_x_explicit(field, hx):
    """4th-order d/dx along axis 1, written out column by column."""
    if np.iscomplexobj(field):
        return (deriv_x_explicit(field.real, hx)
                + 1j * deriv_x_explicit(field.imag, hx))
    f = np.asarray(field, dtype=np.float64)
    d = np.empty_like(f)
    d[:, 2:-2] = (f[:, :-4] - 8 * f[:, 1:-3] + 8 * f[:, 3:-1]
                  - f[:, 4:]) / (12 * hx)
    d[:, 0] = (-25 * f[:, 0] + 48 * f[:, 1] - 36 * f[:, 2]
               + 16 * f[:, 3] - 3 * f[:, 4]) / (12 * hx)
    d[:, 1] = (-3 * f[:, 0] - 10 * f[:, 1] + 18 * f[:, 2]
               - 6 * f[:, 3] + f[:, 4]) / (12 * hx)
    d[:, -2] = (3 * f[:, -1] + 10 * f[:, -2] - 18 * f[:, -3]
                + 6 * f[:, -4] - f[:, -5]) / (12 * hx)
    d[:, -1] = (25 * f[:, -1] - 48 * f[:, -2] + 36 * f[:, -3]
                - 16 * f[:, -4] + 3 * f[:, -5]) / (12 * hx)
    return d


def deriv_y_explicit(field, hy):
    """4th-order d/dy along axis 0, written out row by row."""
    if np.iscomplexobj(field):
        return (deriv_y_explicit(field.real, hy)
                + 1j * deriv_y_explicit(field.imag, hy))
    f = np.asarray(field, dtype=np.float64)
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * hy)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3]
            - 3 * f[4]) / (12 * hy)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * hy)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4]
             - f[-5]) / (12 * hy)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4]
             + 3 * f[-5]) / (12 * hy)
    return d


STENCIL = settings(max_examples=80, deadline=None, database=None)
FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
COMPLEX = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                             allow_infinity=False)
# (ny, nx) or (ny, nx, k) with ny, nx >= 5, the stencil's minimum
SHAPES = st.tuples(st.integers(5, 12), st.integers(5, 12)).flatmap(
    lambda s: st.one_of(st.just(s),
                        st.integers(1, 4).map(lambda k: s + (k,))))


@STENCIL
@given(st.data(), SHAPES, st.sampled_from([np.float64, np.complex128]),
       st.floats(1e-3, 10.0))
def test_deriv_y_matches_the_explicit_stencil(data, shape, dtype, hy):
    elements = FLOATS if dtype is np.float64 else COMPLEX
    field = data.draw(hnp.arrays(dtype, shape, elements=elements))
    got = deriv_y(field, hy)
    want = deriv_y_explicit(field, hy)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.flags.c_contiguous


# signed zeros and exact cancellations are where a reordered sum or a
# sign folded the wrong way would show
SIGNED = st.one_of(FLOATS, st.sampled_from([0.0, -0.0, 1.0, -1.0]))
COMPLEX_SIGNED = st.builds(complex, SIGNED, SIGNED)
# (ny, nx, ...) with ny >= 1 (a march row is (1, nx, 4)) and nx >= 5
X_SHAPES = st.tuples(st.integers(1, 9), st.integers(5, 12)).flatmap(
    lambda s: st.one_of(st.just(s),
                        st.integers(1, 4).map(lambda k: s + (k,))))
LAYOUTS = ["real", "complex", "planar", "row"]


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    for part in ((got.real, want.real), (got.imag, want.imag)) \
            if np.iscomplexobj(got) else ((got, want),):
        assert np.array_equal(np.signbit(part[0]), np.signbit(part[1]))


@STENCIL
@given(st.data(), st.sampled_from(LAYOUTS), X_SHAPES, st.floats(1e-3, 10.0))
def test_deriv_x_matches_the_explicit_stencil(data, layout, shape, hx):
    if layout == "complex":
        field = data.draw(hnp.arrays(np.complex128, shape,
                                     elements=COMPLEX_SIGNED))
    elif layout in ("planar", "row"):
        # quaternion fields as the library stores them: four contiguous
        # component planes behind the (..., 4) view
        ny = 1 if layout == "row" else shape[0]
        values = data.draw(hnp.arrays(np.float64, (ny, shape[1], 4),
                                      elements=SIGNED))
        field = _qempty((ny, shape[1]))
        field[...] = values
    else:
        field = data.draw(hnp.arrays(np.float64, shape, elements=SIGNED))
    got = deriv_x(field, hx)
    assert_bitwise_equal(got, deriv_x_explicit(field, hx))
    assert np.array_equal(got, deriv_x(np.ascontiguousarray(field), hx))
