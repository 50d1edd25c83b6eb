"""Quadratic differentials: CR residuals, zeros, foliations, curve tests."""

import numpy as np
import pytest

import quatsurf as qs
from quatsurf.charts import GridChart, interior, rms
from quatsurf.quaddiff import (ChartCurve, QuadDifferential, cr_residual,
                               check_holomorphic, form_from_qdiff,
                               noncharacteristic, qdiff_from_form,
                               stretch_directions, zero_locus)


def centered_grid(n=33, half=1.0):
    h = 2.0 * half / (n - 1)
    return GridChart(nx=n, ny=n, hx=h, hy=h, x0=-half, y0=-half)


def test_constant_and_sampled_constructors():
    g = centered_grid(9)
    q = QuadDifferential.constant(g, 2.0 - 1.0j)
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
    none = QuadDifferential.from_function(g, lambda z: z + 10.0)
    nodes, mults, isolated = zero_locus(none)
    assert nodes == []
    with pytest.raises(ValueError, match="trivial"):
        zero_locus(QuadDifferential.constant(g, 0.0))


def test_zero_locus_flags_non_isolated_zeros():
    g = centered_grid(33)
    phi = np.ones((33, 33), dtype=complex)
    phi[:, :16] = 0.0  # half the chart vanishes
    _, _, isolated = zero_locus(QuadDifferential(g, phi))
    assert not isolated


def test_stretch_directions_convention():
    g = centered_grid(9)
    horiz, vert = stretch_directions(QuadDifferential.constant(g, 1.0))
    assert np.allclose(horiz, 0.0)
    assert np.allclose(vert, np.pi / 2)
    horiz, _ = stretch_directions(QuadDifferential.constant(g, -1.0))
    assert np.allclose(horiz, np.pi / 2)
    # phi = i: horizontal at -pi/4 mod pi
    horiz, _ = stretch_directions(QuadDifferential.constant(g, 1.0j))
    assert np.allclose(horiz, 0.75 * np.pi)
    # zeros are masked
    q = QuadDifferential.from_function(g, lambda z: z)
    horiz, _ = stretch_directions(q)
    assert np.isnan(horiz[4, 4])
    assert np.isfinite(horiz[0, 0])


def test_chart_curve_grid_row():
    g = centered_grid(9)
    curve = ChartCurve.grid_row(g, 3)
    assert curve.points.shape == (9, 2)
    assert np.allclose(curve.points[:, 1], g.ys[3])
    assert np.allclose(curve.points[:, 0], g.xs)
    # unit tangents along +x
    assert np.allclose(curve.tangents, [1.0, 0.0])


def test_noncharacteristic_margin():
    g = centered_grid(33)
    row = ChartCurve.grid_row(g, 16)
    # phi = i: stretch lines at 45 deg to the row, maximal margin
    ok, margin = noncharacteristic(row, QuadDifferential.constant(g, 1.0j))
    assert ok
    assert margin == pytest.approx(45.0, abs=1e-9)
    # phi = 1: the row is itself a stretch line
    ok, margin = noncharacteristic(row, QuadDifferential.constant(g, 1.0))
    assert not ok
    assert margin == pytest.approx(0.0, abs=1e-9)
    # phi = -1: the row is the orthogonal stretch line, still characteristic
    ok, margin = noncharacteristic(row, QuadDifferential.constant(g, -1.0))
    assert not ok


def test_form_qdiff_roundtrip(surf):
    imm = surf("cylinder", 33).imm
    q = QuadDifferential.constant(imm.grid, 0.3 - 0.8j)
    tau = form_from_qdiff(imm, q)
    back = qdiff_from_form(imm, tau)
    assert np.max(np.abs(back.phi - q.phi)) < 1e-10


def test_form_from_qdiff_is_anticonformal_and_tangential(surf):
    imm = surf("catenoid", 33).imm
    tau = form_from_qdiff(imm, QuadDifferential.constant(imm.grid, 1.0))
    from quatsurf.quaternions import qmul, star
    # star(tau) = -N tau characterizes anti-conformal forms
    resid = (qs.star(tau) + tau.lmul(imm.N)).norm()
    assert np.max(resid) < 1e-10
    # tangential: values anticommute with N
    anti = qmul(imm.N, tau.ax) + qmul(tau.ax, imm.N)
    assert np.max(np.abs(anti)) < 1e-10
