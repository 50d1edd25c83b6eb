"""The single finite-difference stencil against the written-out d/dy it
replaces.

deriv_y is deriv_x on the axis-swapped view, so every node goes through
the same floating-point operations as the explicit axis-0 stencil below
and the comparison is exact.  Needs hypothesis (the ``test`` extra).
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from quatsurf.charts import deriv_y


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
