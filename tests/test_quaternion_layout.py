"""Quaternion fields are stored as four contiguous component planes behind
the (..., 4) view, and every kernel gives the same bits for any layout.

The layout is a matter of memory order only: the kernels evaluate the
same expressions, so interleaved and planar inputs are compared exactly
(np.array_equal).  Needs hypothesis (the ``test`` extra).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import quatsurf as qs
from quatsurf.charts import GridChart, deriv_x, deriv_y
from quatsurf.duality import integrate_form
from quatsurf.quaternions import (QForm, qconj, qdot, qinv, qiszero, qmul,
                                  qnormsq, split_value)


def planar(a):
    """A copy of a (..., 4) array laid out as four contiguous planes."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


def is_planar(a):
    return all(a[..., c].flags.c_contiguous for c in range(4))


def quaternion_fields(obj, seen=None):
    """Every (ny, nx, 4) array reachable from obj's attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        if obj.ndim == 3 and obj.shape[-1] == 4:
            yield obj
        return
    if isinstance(obj, QForm):
        yield from quaternion_fields(obj.ax, seen)
        yield from quaternion_fields(obj.ay, seen)
        return
    children = obj.values() if isinstance(obj, dict) else \
        getattr(obj, "__dict__", {}).values()
    for child in children:
        yield from quaternion_fields(child, seen)


@pytest.mark.parametrize("name", ["sphere", "cylinder", "catenoid",
                                  "enneper", "unduloid"])
def test_pipeline_fields_are_component_planar(surf, dual_of, name):
    gen = surf(name)
    dual = dual_of(name)
    results = {"make_surface": gen,
               "weingarten_split": qs.weingarten_split(gen.imm),
               "integrate_dual": dual,
               "bonnet_pair": qs.bonnet_pair(gen.imm, dual, 0.7)}
    for stage, result in results.items():
        fields = list(quaternion_fields(result))
        assert fields, stage
        assert all(is_planar(a) for a in fields), stage


FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
LAYOUT = settings(max_examples=60, deadline=None, database=None)
LAYOUTS = st.sampled_from([np.asarray, planar])


def quats(shape):
    return hnp.arrays(np.float64, tuple(shape) + (4,), elements=FLOATS)


# Leading shapes of two broadcast operands: a (4,) constant against a
# field in either order, or any mutually broadcastable pair with sides
# up to 5.
FIELD = hnp.array_shapes(min_dims=1, max_dims=3, max_side=5)
PAIRS = st.one_of(
    FIELD.map(lambda s: ((), s)),
    FIELD.map(lambda s: (s, ())),
    hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=5)
    .map(lambda b: b.input_shapes))


def qinv_past_range(q):
    """qinv with its overflow past the float range silenced: a subnormal
    draw has an inverse beyond it (test_qinv_past_the_float_range)."""
    with np.errstate(over="ignore"):
        return qinv(q)


def same(got, want):
    if isinstance(want, tuple):
        return all(same(g, w) for g, w in zip(got, want))
    return np.array_equal(got, want)


@LAYOUT
@given(st.data(), PAIRS, LAYOUTS, LAYOUTS)
def test_pointwise_kernels_ignore_the_layout(data, shapes, la, lb):
    a = data.draw(quats(shapes[0]))
    b = data.draw(quats(shapes[1]))
    assume(not np.any(qiszero(a)))
    for fn, args in ((qmul, (a, b)), (qdot, (a, b)), (split_value, (a, b)),
                     (qconj, (a,)), (qinv_past_range, (a,)),
                     (qnormsq, (a,))):
        laid = (la(args[0]),) + tuple(lb(x) for x in args[1:])
        assert same(fn(*laid), fn(*args)), fn.__name__
    assert is_planar(qmul(la(a), lb(b)))


@pytest.mark.parametrize("layout", [np.asarray, planar])
def test_qinv_past_the_float_range(layout):
    # 1 / 2.2e-311 exceeds the largest double: qinv warns and returns inf
    q = layout(np.array([[2.2e-311, 0.0, 0.0, 0.0]]))
    with pytest.warns(RuntimeWarning, match="overflow"):
        inv = qinv(q)
    assert np.isposinf(inv[..., 0]).all()
    assert (inv[..., 1:] == 0.0).all()


@LAYOUT
@given(st.data(), st.integers(5, 9), st.integers(5, 9), LAYOUTS, LAYOUTS)
def test_stencil_and_integrator_ignore_the_layout(data, ny, nx, lx, ly):
    ax = data.draw(quats((ny, nx)))
    ay = data.draw(quats((ny, nx)))
    grid = GridChart(nx, ny, 0.1, 0.2)
    assert np.array_equal(deriv_x(lx(ax), grid.hx), deriv_x(ax, grid.hx))
    assert np.array_equal(deriv_y(ly(ay), grid.hy), deriv_y(ay, grid.hy))
    assert same(integrate_form(grid, QForm(lx(ax), ly(ay))),
                integrate_form(grid, QForm(ax, ay)))
