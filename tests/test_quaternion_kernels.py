"""The component-wise Hamilton-product kernels against the sum/cross
formulation they replace, and the quaternion algebra they implement.

The kernels keep the old floating-point operation order, so the
comparisons are exact (np.array_equal, under which -0.0 == 0.0).  The
fused spin kernel regroups the sandwich product conj(lam) v lam, so it
is held to a rounding tolerance instead.  Needs hypothesis (the
``test`` extra).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import quatsurf as qs
from quatsurf.bonnet import _spin_transform
from quatsurf.charts import (_EDGE_COLUMNS, _EDGE_NODES, GridChart, deriv_x,
                             deriv_y, raw_frame, weingarten_split)
from quatsurf.duality import _mean_curvature
from quatsurf.quaternions import (QForm, from_vec, qconj, qdot, qmul, qnorm,
                                  qnormsq, quat, split_conformal)


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


def planar(a):
    """A copy of a (..., 4) array laid out as four contiguous planes."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


# Components of the rotated vectors: a relative bound means nothing for
# products that fall into the subnormal range, so stay clear of it.
VECTOR = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


@KERNELS
@given(st.data(), st.integers(5, 9), st.integers(1, 6), st.booleans(),
       st.booleans())
def test_fused_spin_kernel_matches_the_sandwich_product(data, ny, nx,
                                                        lam_planar,
                                                        v_planar):
    # lam of magnitude 1e-3 .. 1e3 in any direction; v imaginary; a row
    # band sliced out of full fields, as cauchy.reconstruct passes it
    logmag = data.draw(hnp.arrays(np.float64, (ny, nx),
                                  elements=st.floats(-3.0, 3.0)))
    direction = data.draw(quats((ny, nx), st.floats(0.1, 1.0)
                                | st.floats(-1.0, -0.1)))
    lam = direction * (10.0 ** logmag / qnorm(direction))[..., None]
    fx, fy = (from_vec(data.draw(hnp.arrays(np.float64, (ny, nx, 3),
                                            elements=VECTOR)))
              for _ in range(2))
    if lam_planar:
        lam = planar(lam)
    if not v_planar:
        fx, fy = np.ascontiguousarray(fx), np.ascontiguousarray(fy)
    lo = data.draw(st.integers(0, ny - 1))
    band = slice(lo, data.draw(st.integers(lo, ny - 1)) + 1)
    form = _spin_transform(lam[band], fx[band], fy[band])
    for got, v in ((form.ax, fx[band]), (form.ay, fy[band])):
        want = qmul(qconj(lam[band]), qmul(v, lam[band]))
        bound = 1e-14 * qnormsq(lam[band]) * qnorm(v)
        assert np.all(qnorm(got - want) <= bound)
        assert np.all(got[..., 0] == 0.0)


MATES_SURFACES = [("sphere", {}), ("cylinder", {}), ("catenoid", {}),
                  ("enneper", {"order": 2}), ("unduloid", {})]


def half_H(Nx, Ny, fx, fy):
    """H as the mean of the normal curvatures -<Nx, fx>/|fx|^2 and
    -<Ny, fy>/|fy|^2, written out per node with qdot."""
    return 0.5 * (-qdot(Nx, fx) / qdot(fx, fx) - qdot(Ny, fy) / qdot(fy, fy))


@pytest.mark.parametrize("name, params", MATES_SURFACES)
def test_weingarten_split_matches_the_split_conformal_route(name, params):
    imm = qs.make_surface(name, n=33, rotation=0.3, **params).imm
    Nx = deriv_x(imm.N, imm.grid.hx)
    Ny = deriv_y(imm.N, imm.grid.hy)
    _, omega = split_conformal(QForm(Nx, Ny), imm.N)
    II11 = -qdot(Nx, imm.fx)
    II22 = -qdot(Ny, imm.fy)
    II12 = -0.5 * (qdot(Nx, imm.fy) + qdot(Ny, imm.fx))
    curv = weingarten_split(imm)
    assert np.array_equal(curv.H, half_H(Nx, Ny, imm.fx, imm.fy))
    assert np.array_equal(curv.omega.ax, omega.ax)
    assert np.array_equal(curv.omega.ay, omega.ay)
    assert np.array_equal(curv.II[..., 0, 0], II11)
    assert np.array_equal(curv.II[..., 1, 1], II22)
    assert np.array_equal(curv.II[..., 0, 1], II12)
    assert np.array_equal(curv.hopf_qd, 0.25 * (II11 - II22) - 0.5j * II12)


@pytest.mark.parametrize("name, params", [
    ("catenoid", {}), ("enneper", {"order": 2}),
    ("cylinder", {"rotation": 0.7})])
def test_dual_mean_curvature_matches_the_split_conformal_route(name,
                                                              params):
    gen = qs.make_surface(name, n=33, **params)
    grid = gen.imm.grid
    fstar = qs.integrate_dual(gen.imm, gen.q_known).fstar
    fx, fy, N, nfx, nfy, crossnorm = raw_frame(grid, fstar)
    ok = crossnorm > 1e-12 * float(np.max(nfx * nfy))
    N = np.where(ok[..., None], N, quat(0.0, 0.0, 0.0, 1.0))
    H = half_H(deriv_x(N, grid.hx), deriv_y(N, grid.hy), fx, fy)
    reads_bad = np.array([[(~ok[j, stencil_nodes(grid.nx, i)]).any()
                           or (~ok[stencil_nodes(grid.ny, j), i]).any()
                           for i in range(grid.nx)] for j in range(grid.ny)])
    want = np.where(reads_bad, np.nan, H)
    got = _mean_curvature(grid, fstar)
    assert np.array_equal(got, want, equal_nan=True)
    # the enneper dual branches at the centre, which the mask covers
    assert np.isnan(got).any() == (name == "enneper")


def stencil_nodes(n, c):
    """Indices H at index c of an n-node axis reads: the one-sided
    stencil's _EDGE_NODES on the two edge nodes of each side, else the
    node itself and the centred stencil's offsets +-1, +-2."""
    edge = dict(zip(_EDGE_COLUMNS % n, _EDGE_NODES.T % n))
    return edge[c] if c in edge else c + np.arange(-2, 3)
