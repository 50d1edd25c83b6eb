"""The component-wise Hamilton-product kernels against the sum/cross
formulation they replace, and the quaternion algebra they implement.

The kernels keep the old floating-point operation order, so the
comparisons are exact (np.array_equal, under which -0.0 == 0.0).
Needs hypothesis (the ``test`` extra).
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from quatsurf.charts import GridChart, deriv_x, deriv_y, raw_frame
from quatsurf.quaternions import (from_vec, qconj, qdot, qmul, qnorm,
                                  qnormsq)


def qmul_sum_cross(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, av = a[..., 0], a[..., 1:]
    bw, bv = b[..., 0], b[..., 1:]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = aw * bw - np.sum(av * bv, axis=-1)
    out[..., 1:] = (aw[..., None] * bv + bw[..., None] * av
                    + np.cross(av, bv))
    return out


def qnormsq_sum(q):
    return np.sum(np.square(np.asarray(q, dtype=np.float64)), axis=-1)


def qdot_sum(a, b):
    return np.sum(np.asarray(a) * np.asarray(b), axis=-1)


def frame_cross_norm(grid, f):
    fx = deriv_x(f, grid.hx)
    fy = deriv_y(f, grid.hy)
    cross = np.cross(fx[..., 1:], fy[..., 1:])
    crossnorm = np.linalg.norm(cross, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        N = from_vec(cross / crossnorm[..., None])
    return N, crossnorm


FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# Components for the algebra tests: |q|^2 of a product of tiny
# quaternions underflows however it is ordered, so stay clear of it.
SMALL = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6))
KERNELS = settings(max_examples=60, deadline=None, database=None)


def quats(shape, elements=FLOATS):
    return hnp.arrays(np.float64, tuple(shape) + (4,), elements=elements)


@KERNELS
@given(st.data(), hnp.mutually_broadcastable_shapes(num_shapes=2,
                                                    max_dims=3, max_side=5))
def test_kernels_bitwise_equal_sum_cross_form(data, shapes):
    sa, sb = shapes.input_shapes
    a = data.draw(quats(sa))
    b = data.draw(quats(sb))
    assert np.array_equal(qmul(a, b), qmul_sum_cross(a, b))
    assert np.array_equal(qnormsq(a), qnormsq_sum(a))
    assert np.array_equal(qdot(a, b), qdot_sum(a, b))


@KERNELS
@given(st.data(), st.integers(1, 6), st.integers(1, 6))
def test_kernels_bitwise_equal_on_named_broadcasts(data, m, n):
    pairs = (((4,), (m, n, 4)), ((m, n, 4), (4,)),
             ((m, 1, 4), (1, n, 4)), ((1, n, 4), (m, 1, 4)))
    for sa, sb in pairs:
        a = data.draw(quats(sa[:-1]))
        b = data.draw(quats(sb[:-1]))
        assert np.array_equal(qmul(a, b), qmul_sum_cross(a, b))
        assert np.array_equal(qdot(a, b), qdot_sum(a, b))


@KERNELS
@given(hnp.arrays(np.int64, (3, 4), elements=st.integers(-50, 50)),
       hnp.arrays(np.int64, (3, 4), elements=st.integers(-50, 50)))
def test_kernels_bitwise_equal_on_int_and_list_input(a, b):
    for x, y in ((a, b), (a.tolist(), b.tolist()), (a[0].tolist(), b)):
        assert np.array_equal(qmul(x, y), qmul_sum_cross(x, y))
        assert np.array_equal(qnormsq(x), qnormsq_sum(x))
        assert np.array_equal(qdot(x, y), qdot_sum(x, y))
    assert qmul(a.tolist(), b).dtype == np.float64


@KERNELS
@given(st.integers(5, 8), st.integers(5, 8),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_raw_frame_bitwise_equal_cross_norm_form(nx, ny, seed, flat):
    grid = GridChart(nx, ny, 0.1, 0.2)
    f = from_vec(np.random.default_rng(seed).standard_normal((ny, nx, 3)))
    if flat:
        # a planar patch: the cross product vanishes at some nodes
        f[..., 3] = 0.0
        f[:, :2, 1:] = 0.0
    _, _, N, _, _, crossnorm = raw_frame(grid, f)
    N_old, crossnorm_old = frame_cross_norm(grid, f)
    assert np.array_equal(crossnorm, crossnorm_old)
    assert np.array_equal(N, N_old, equal_nan=True)


@KERNELS
@given(quats((5,), SMALL), quats((5,), SMALL), quats((5,), SMALL))
def test_hamilton_product_algebra(a, b, c):
    scale = qnorm(a) * qnorm(b) * qnorm(c)
    assert np.all(qnorm(qmul(qmul(a, b), c) - qmul(a, qmul(b, c)))
                  <= 1e-13 * scale)
    ab = qmul(a, b)
    assert np.all(np.abs(qnorm(ab) - qnorm(a) * qnorm(b))
                  <= 1e-13 * qnorm(a) * qnorm(b))
    assert np.all(qnorm(qconj(ab) - qmul(qconj(b), qconj(a)))
                  <= 1e-13 * qnorm(a) * qnorm(b))
