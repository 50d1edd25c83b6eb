"""Quadratic differentials: CR residuals, zeros, foliations, row tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import quatsurf as qs
from quatsurf.charts import GridChart, interior, rms
from quatsurf.quaddiff import (QuadDifferential, _group_minima, cr_residual,
                               check_holomorphic, form_from_qdiff,
                               noncharacteristic, qdiff_from_form,
                               stretch_directions, zero_locus)


def centered_grid(n=33, half=1.0):
    h = 2.0 * half / (n - 1)
    return GridChart(nx=n, ny=n, hx=h, hy=h, x0=-half, y0=-half)


def test_constant_and_sampled_constructors():
    g = centered_grid(9)
    q = QuadDifferential.coerce(g, 2.0 - 1.0j)
    assert q.phi.shape == (9, 9)
    assert np.all(q.phi == 2.0 - 1.0j)
    assert q.max_abs() == pytest.approx(abs(2.0 - 1.0j))
    q2 = QuadDifferential.from_function(g, lambda z: z ** 2)
    assert q2.phi[4, 4] == pytest.approx(0.0)
    assert q2.phi[4, 8] == pytest.approx(1.0)   # z = 1
    assert q2.phi[8, 4] == pytest.approx(-1.0)  # z = i


def test_coerce_scalar_field_and_instance():
    g = centered_grid(9)
    q = QuadDifferential.coerce(g, 1j)
    assert q.phi.shape == (9, 9) and np.all(q.phi == 1j)
    assert QuadDifferential.coerce(g, q) is q
    field = (1.0 + 2.0j) * np.arange(81.0).reshape(9, 9)
    assert np.array_equal(QuadDifferential.coerce(g, field).phi, field)
    with pytest.raises(ValueError, match="shape"):
        QuadDifferential.coerce(g, np.ones((9, 8)))


def test_cr_residual_separates_holomorphic_from_not():
    g = centered_grid(33)
    holo = QuadDifferential.from_function(g, lambda z: z ** 3 - 2 * z)
    anti = QuadDifferential.from_function(g, lambda z: np.conj(z))
    # cubic polynomial: the stencils differentiate it exactly
    assert np.max(cr_residual(holo)) < 1e-12
    assert np.max(cr_residual(anti)) == pytest.approx(1.0)
    assert check_holomorphic(holo) < 1e-12
    with pytest.raises(ValueError, match="not holomorphic"):
        check_holomorphic(anti)


def test_zero_locus_winding_multiplicities():
    g = centered_grid(33)
    for m in (1, 2, 3):
        q = QuadDifferential.from_function(g, lambda z, m=m: z ** m)
        nodes, mults, isolated = zero_locus(q)
        assert nodes == [(16, 16)]
        assert mults == [m]
        assert isolated
    # near the boundary the radius-2 loop leaves the chart: one row in,
    # the radius-1 loop still winds; on the boundary row no loop fits
    for node, mult in (((1, 16), 1), ((0, 16), 0)):
        z0 = g.xs[node[1]] + 1j * g.ys[node[0]]
        q = QuadDifferential.from_function(g, lambda z, z0=z0: z - z0)
        assert zero_locus(q) == ([node], [mult], True)
    none = QuadDifferential.from_function(g, lambda z: z + 10.0)
    nodes, mults, isolated = zero_locus(none)
    assert nodes == []
    with pytest.raises(ValueError, match="trivial"):
        zero_locus(QuadDifferential.coerce(g, 0.0))


def test_zero_locus_flags_non_isolated_zeros():
    g = centered_grid(33)
    phi = np.ones((33, 33), dtype=complex)
    phi[:, :16] = 0.0  # half the chart vanishes
    _, _, isolated = zero_locus(QuadDifferential(g, phi))
    assert not isolated


def test_zero_locus_ties_go_to_the_first_node_in_row_major_order():
    g = centered_grid(9)
    phi = np.ones((9, 9), dtype=complex)
    phi[5, 5] = 1e-12
    phi[5, 6] = phi[6, 4] = 0.0  # one group, two exact zeros
    nodes, _, isolated = zero_locus(QuadDifferential(g, phi))
    assert nodes == [(5, 6)]
    assert isolated


def ndimage_group_minima(mask, mag):
    """_group_minima's (nodes, largest) from scipy's 8-connected labels."""
    labels, count = ndimage.label(mask, structure=np.ones((3, 3)))
    nodes, largest = [], 0
    for label in range(1, count + 1):
        members = np.flatnonzero(labels == label)
        # argmin takes the first of equal values, in row-major order
        nodes.append(members[np.argmin(mag.flat[members])])
        largest = max(largest, members.size)
    rows, cols = np.unravel_index(np.sort(np.array(nodes, dtype=int)),
                                  mask.shape)
    return np.column_stack([rows, cols]), largest


def assert_groups_match_ndimage(mask, mag=None):
    mag = np.zeros(mask.shape) if mag is None else mag
    nodes, largest = _group_minima(mask, mag)
    want_nodes, want_largest = ndimage_group_minima(mask, mag)
    assert nodes.tolist() == want_nodes.tolist()
    assert largest == want_largest


@settings(max_examples=50, deadline=None, database=None)
@given(data=st.data())
def test_grouping_matches_ndimage_label(data):
    ny, nx = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    density = data.draw(st.floats(0.0, 1.0))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((ny, nx)) < density
    # few distinct magnitudes, so that ties are common
    assert_groups_match_ndimage(mask, rng.integers(0, 3, (ny, nx)) * 1.0)


def spiral(n):
    """A one-node-wide square spiral walked inwards from (0, 0), one
    empty node between its turns: a single 8-connected group."""
    mask = np.zeros((n, n), dtype=bool)
    j = i = 0
    dj, di = 0, 1
    mask[0, 0] = True
    turns = 0
    while turns < 2:
        nj, ni = j + dj, i + di
        ahead = (nj + dj, ni + di)
        inside = 0 <= ahead[0] < n and 0 <= ahead[1] < n
        if 0 <= nj < n and 0 <= ni < n and not mask[nj, ni] \
                and not (inside and mask[ahead]):
            j, i = nj, ni
            mask[j, i] = True
            turns = 0
        else:
            dj, di = di, -dj
            turns += 1
    return mask


def u_shape():
    mask = np.zeros((7, 9), dtype=bool)
    mask[:, 0] = mask[:, -1] = mask[-1, :] = True
    return mask


@pytest.mark.parametrize("mask", [
    np.ones((1, 9), dtype=bool),
    np.arange(9)[None, :] % 3 != 1,
    np.ones((9, 1), dtype=bool),
    np.arange(9)[:, None] % 3 != 1,
    np.ones((6, 8), dtype=bool),
    np.eye(8, dtype=bool),
    np.fliplr(np.eye(8, dtype=bool)),
    u_shape(),
    u_shape()[::-1],
    spiral(15),
], ids=["row", "row-runs", "column", "column-runs", "all", "diagonal",
        "anti-diagonal", "u", "cap", "spiral"])
def test_grouping_of_shapes_that_take_several_passes(mask):
    assert_groups_match_ndimage(mask)
    # a magnitude that falls along the mask's row-major order puts each
    # group's minimum on its last node
    assert_groups_match_ndimage(mask, -np.arange(mask.size, dtype=float)
                                .reshape(mask.shape))


def test_stretch_directions_convention():
    g = centered_grid(9)
    horiz, vert = stretch_directions(QuadDifferential.coerce(g, 1.0))
    assert np.allclose(horiz, 0.0)
    assert np.allclose(vert, np.pi / 2)
    horiz, _ = stretch_directions(QuadDifferential.coerce(g, -1.0))
    assert np.allclose(horiz, np.pi / 2)
    # phi = i: horizontal at -pi/4 mod pi
    horiz, _ = stretch_directions(QuadDifferential.coerce(g, 1.0j))
    assert np.allclose(horiz, 0.75 * np.pi)
    # zeros are masked
    q = QuadDifferential.from_function(g, lambda z: z)
    horiz, _ = stretch_directions(q)
    assert np.isnan(horiz[4, 4])
    assert np.isfinite(horiz[0, 0])


def test_noncharacteristic_margin():
    g = centered_grid(33)
    # phi = i: stretch lines at 45 deg to the row, maximal margin
    ok, margin = noncharacteristic(QuadDifferential.coerce(g, 1.0j), 16)
    assert ok
    assert margin == pytest.approx(45.0, abs=1e-9)
    # phi = 1: the row is itself a stretch line
    ok, margin = noncharacteristic(QuadDifferential.coerce(g, 1.0), 16)
    assert not ok
    assert margin == pytest.approx(0.0, abs=1e-9)
    # phi = -1: the row is the orthogonal stretch line, still characteristic
    ok, margin = noncharacteristic(QuadDifferential.coerce(g, -1.0), 16)
    assert not ok


def test_noncharacteristic_names_the_first_zero_on_the_row():
    # phi = z (z - 1/2) vanishes at nodes (j=4, i=4) and (j=4, i=6)
    q = QuadDifferential.from_function(centered_grid(9),
                                       lambda z: z * (z - 0.5))
    with pytest.raises(ValueError, match=r"zero locus of the differential "
                       r"at node \(j=4, i=4\)$"):
        noncharacteristic(q, 4)
    # the row below misses both zeros: it gets a margin, not an error
    assert np.isfinite(noncharacteristic(q, 3)[1])


@settings(max_examples=100, deadline=None, database=None)
@given(theta=st.floats(-4.0, 4.0), row=st.integers(0, 8))
def test_constant_differential_margin_is_the_distance_to_its_cross(theta,
                                                                   row):
    g = centered_grid(9)
    q = QuadDifferential.coerce(g, np.exp(1j * theta))
    _, margin = noncharacteristic(q, row)
    # the stretch lines of e^{i theta} sit at -theta/2 and -theta/2 + pi/2;
    # the row direction 0 is m from one of them and pi/2 - m from the other
    m = np.mod(-theta / 2, np.pi / 2)
    assert margin == pytest.approx(np.degrees(min(m, np.pi / 2 - m)),
                                   abs=1e-9)


def test_form_qdiff_roundtrip(surf):
    imm = surf("cylinder", 33).imm
    q = QuadDifferential.coerce(imm.grid, 0.3 - 0.8j)
    tau = form_from_qdiff(imm, q)
    back = qdiff_from_form(imm, tau)
    assert np.max(np.abs(back.phi - q.phi)) < 1e-10


def test_form_from_qdiff_is_anticonformal_and_tangential(surf):
    imm = surf("catenoid", 33).imm
    tau = form_from_qdiff(imm, QuadDifferential.coerce(imm.grid, 1.0))
    from quatsurf.quaternions import qmul, star
    # star(tau) = -N tau characterizes anti-conformal forms
    resid = (qs.star(tau) + tau.lmul(imm.N)).norm()
    assert np.max(resid) < 1e-10
    # tangential: values anticommute with N
    anti = qmul(imm.N, tau.ax) + qmul(tau.ax, imm.N)
    assert np.max(np.abs(anti)) < 1e-10


def test_non_finite_phi_is_refused():
    grid = centered_grid(9)
    phi = np.ones((9, 9), dtype=complex)
    phi[4, 4] = np.nan
    with pytest.raises(ValueError, match="^phi must be finite$"):
        QuadDifferential(grid, phi)


def test_qdiff_from_form_refuses_a_form_off_the_hopf_type(surf):
    imm = surf("cylinder", 33).imm
    # df is conformal, not anti-conformal
    with pytest.raises(ValueError, match="^form is not anti-conformal for "
                       "this immersion$"):
        qdiff_from_form(imm, qs.QForm(imm.fx, imm.fy))
    # tau(d/dy) = -N tau(d/dx) is anti-conformal, but tau(d/dx) = 1 is real
    one = np.zeros_like(imm.N)
    one[..., 0] = 1.0
    with pytest.raises(ValueError, match="^form is not tangential for "
                       "this immersion$"):
        qdiff_from_form(imm, qs.QForm(one, -imm.N))
