"""Chart grids, stencils, immersion validation, and the curvature split."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quatsurf as qs
from quatsurf.charts import (GridChart, build_immersion, closedness_residual,
                             deriv_x, deriv_y, field_stats, interior,
                             relate_hopf, rms, tangentiality_residual,
                             umbilics, weingarten_residual, weingarten_split)
from quatsurf.quaternions import QForm, qconj, qmul, qnorm, from_vec, to_vec

RNG = np.random.default_rng(42)


def test_grid_chart_axes_and_spec():
    g = GridChart(nx=9, ny=5, hx=0.25, hy=0.5, x0=-1.0, y0=2.0)
    assert np.allclose(g.xs, -1.0 + 0.25 * np.arange(9))
    assert np.allclose(g.ys, 2.0 + 0.5 * np.arange(5))
    X, Y = g.mesh()
    assert X.shape == (5, 9)
    assert Y.shape == (5, 9)
    assert X[0, 3] == pytest.approx(-0.25)
    assert Y[2, 0] == pytest.approx(3.0)
    spec = g.spec()
    assert spec == {"nx": 9, "ny": 5, "hx": 0.25, "hy": 0.5,
                    "x0": -1.0, "y0": 2.0}


def test_derivatives_exact_on_quartics():
    g = GridChart(nx=17, ny=13, hx=0.1, hy=0.2, x0=-0.5, y0=-1.0)
    X, Y = g.mesh()
    f = X ** 4 - 2 * X ** 2 * Y + Y ** 3
    fx = 4 * X ** 3 - 4 * X * Y
    fy = -2 * X ** 2 + 3 * Y ** 2
    assert np.max(np.abs(deriv_x(f, g.hx) - fx)) < 1e-11
    assert np.max(np.abs(deriv_y(f, g.hy) - fy)) < 1e-11


def test_complex_derivatives_match_the_part_by_part_split():
    g = GridChart(nx=17, ny=13, hx=0.1, hy=0.2, x0=-0.5, y0=-1.0)
    X, Y = g.mesh()
    w = np.exp((0.7 + 1.3j) * (X + 1j * Y)) + 1j * RNG.standard_normal(X.shape)
    assert np.array_equal(deriv_x(w, g.hx),
                          deriv_x(w.real, g.hx) + 1j * deriv_x(w.imag, g.hx))
    assert np.array_equal(deriv_y(w, g.hy),
                          deriv_y(w.real, g.hy) + 1j * deriv_y(w.imag, g.hy))


@pytest.mark.parametrize("bad", [{"hx": np.nan}, {"hy": np.inf},
                                 {"x0": np.nan}, {"y0": -np.inf}])
def test_grid_chart_rejects_non_finite_geometry(bad):
    spec = {"nx": 9, "ny": 9, "hx": 0.1, "hy": 0.1, "x0": 0.0, "y0": 0.0}
    spec.update(bad)
    with pytest.raises(ValueError, match="finite"):
        GridChart(**spec)


@pytest.mark.parametrize("bad, message", [
    ({"nx": 4}, "grid needs nx, ny >= 5 for the stencils"),
    ({"hx": 0.0}, "grid spacings must be positive"),
    ({"hy": -0.1}, "grid spacings must be positive"),
])
def test_grid_chart_refuses_few_nodes_and_non_positive_spacing(bad, message):
    spec = {"nx": 9, "ny": 9, "hx": 0.1, "hy": 0.1}
    spec.update(bad)
    with pytest.raises(ValueError, match="^%s$" % message):
        GridChart(**spec)


def test_from_bounds_refuses_one_node_as_the_grid_does():
    # one node would make the spacing a zero division
    with pytest.raises(ValueError,
                       match="^grid needs nx, ny >= 5 for the stencils$"):
        GridChart.from_bounds(0, 1, 0, 1, 1, 9)


def test_derivative_convergence_is_fourth_order():
    errs = []
    for n in (33, 65):
        g = GridChart(nx=n, ny=n, hx=2.0 / (n - 1), hy=2.0 / (n - 1),
                      x0=-1.0, y0=-1.0)
        X, _ = g.mesh()
        err = np.abs(deriv_x(np.sin(3.0 * X), g.hx) - 3.0 * np.cos(3.0 * X))
        errs.append(np.max(err))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.8


def test_interior_trims_two_rings():
    a = np.arange(81.0).reshape(9, 9)
    t = interior(a)
    assert t.shape == (5, 5)
    assert t[0, 0] == a[2, 2]
    assert t[-1, -1] == a[6, 6]


def test_rms_and_field_stats():
    a = np.full((9, 9), 3.0)
    assert rms(a) == pytest.approx(3.0)
    a[0, 0] = 1000.0
    stats = field_stats(a)  # interior by default: spike excluded
    assert stats["mean"] == pytest.approx(3.0)
    assert stats["std"] == pytest.approx(0.0)
    full = field_stats(a, interior_only=False)
    assert full["max"] == pytest.approx(1000.0)
    a[4, 4] = np.nan  # non-finite nodes are skipped unless all are
    assert field_stats(a) == {"mean": 3.0, "std": 0.0, "min": 3.0,
                              "max": 3.0}
    assert np.isnan(field_stats(np.full((9, 9), np.nan))["mean"])


def test_build_immersion_rejects_bad_input():
    g = GridChart(nx=9, ny=9, hx=0.1, hy=0.1, x0=0.0, y0=0.0)
    X, Y = g.mesh()
    plane = np.stack([X, Y, np.zeros_like(X)], axis=-1)
    build_immersion(g, plane)  # flat chart is conformal

    bad = plane.copy()
    bad[4, 4, 2] = np.nan
    with pytest.raises(ValueError):
        build_immersion(g, bad)

    # anisotropic stretch breaks |fx| = |fy|
    squeezed = np.stack([2.0 * X, Y, np.zeros_like(X)], axis=-1)
    with pytest.raises(ValueError, match="not conformal"):
        build_immersion(g, squeezed)

    collapsed = np.zeros_like(plane)
    with pytest.raises(ValueError):
        build_immersion(g, collapsed)

    # positions only: imaginary quaternions are not a second sample form
    quats = np.concatenate([np.zeros_like(X)[..., None], plane], axis=-1)
    with pytest.raises(ValueError, match=r"\(ny, nx, 3\)"):
        build_immersion(g, quats)


def test_conformality_residual_is_interior_max(surf):
    imm = surf("cylinder", 33).imm
    inner = interior(imm.conformality_field)
    assert imm.conformality_residual == pytest.approx(float(np.max(inner)))


def test_weingarten_on_known_surfaces(surf):
    # stereographic sphere: H = 1 everywhere (discretization-limited)
    sph = surf("sphere", 33).imm
    H = weingarten_split(sph).H
    assert np.max(np.abs(interior(H) - 1.0)) < 1e-3
    assert abs(float(np.mean(interior(H))) - 1.0) < 5e-5

    # unit cylinder: H = 1/2
    cyl = surf("cylinder", 33).imm
    curv = weingarten_split(cyl)
    assert np.max(np.abs(interior(curv.H) - 0.5)) < 1e-4
    assert abs(float(np.mean(interior(curv.H))) - 0.5) < 1e-5

    # catenoid: minimal
    cat = surf("catenoid", 33).imm
    Hc = weingarten_split(cat).H
    assert np.max(np.abs(interior(Hc))) < 1e-4


def test_weingarten_residuals_small(surf):
    imm = surf("cylinder", 33).imm
    curv = weingarten_split(imm)
    _, wrel = weingarten_residual(imm, curv)
    _, trel = tangentiality_residual(imm, curv)
    _, hrel = relate_hopf(imm, curv)
    assert wrel < 1e-4
    assert trel < 1e-4
    assert hrel < 1e-3


def test_second_fundamental_form_is_symmetric(surf):
    curv = weingarten_split(surf("unduloid", 33).imm)
    assert np.max(np.abs(curv.II[..., 0, 1] - curv.II[..., 1, 0])) < 1e-12


@settings(max_examples=25, deadline=None, database=None)
@given(rot=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
           lambda r: np.linalg.norm(r) > 0.1),
       shift=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       scale=st.floats(0.25, 4.0))
def test_rigid_motion_invariance(surf, rot, shift, scale):
    """A rotation, translation and homothety by s leaves H s, hopf_qd / s,
    II / s and the umbilics unchanged and rotates the normal."""
    rot = np.asarray(rot) / np.linalg.norm(rot)
    for name in ("sphere", "cylinder", "catenoid", "enneper", "unduloid"):
        imm = surf(name, 33).imm
        moved = scale * to_vec(qmul(qmul(rot, from_vec(imm.positions)),
                                    qconj(rot))) + np.asarray(shift)
        imm2 = build_immersion(imm.grid, moved)
        c1 = weingarten_split(imm)
        c2 = weingarten_split(imm2)
        # II and hopf_qd against the umbilic scale max|II|, H against the
        # largest principal curvature, since H is noise on minimal charts
        two = np.max(np.abs(c1.II))
        kappa = np.max(np.abs(c1.II) / np.exp(2 * imm.u)[..., None, None])
        assert np.max(np.abs(c2.H * scale - c1.H)) < 1e-9 * kappa, name
        assert np.max(np.abs(c2.hopf_qd / scale - c1.hopf_qd)) < 1e-9 * two, \
            name
        assert np.max(np.abs(c2.II / scale - c1.II)) < 1e-9 * two, name
        assert umbilics(c1) == umbilics(c2), name
        back = to_vec(qmul(qmul(rot, imm.N), qconj(rot)))
        assert np.max(np.abs(back - to_vec(imm2.N))) < 1e-9, name


def test_umbilics_counts(surf):
    # totally umbilic chart: every node qualifies
    sph = qs.make_surface("sphere", n=33, extent=0.1)
    assert len(umbilics(weingarten_split(sph.imm))) == 33 * 33
    # flat chart: II = 0, so again every node
    g = GridChart(nx=17, ny=17, hx=1 / 16, hy=1 / 16)
    X, Y = g.mesh()
    plane = build_immersion(g, np.stack([X, Y, np.zeros_like(X)], axis=-1))
    assert len(umbilics(weingarten_split(plane))) == 17 * 17
    # cylinder: none
    assert umbilics(weingarten_split(surf("cylinder", 33).imm)) == []
    # second-order branched chart: exactly the center node
    enn = surf("enneper", 65).imm
    assert umbilics(weingarten_split(enn)) == [(32, 32)]


def test_closedness_residual_discriminates():
    g = GridChart(nx=33, ny=33, hx=1 / 16, hy=1 / 16, x0=-1.0, y0=-1.0)
    X, Y = g.mesh()
    # gradient of the vector potential (x^2 y, x^3 + y^2, x y): closed,
    # and polynomial degree is low enough for the stencils to be exact
    ax = from_vec(np.stack([2 * X * Y, 3 * X ** 2, Y], axis=-1))
    ay = from_vec(np.stack([X ** 2, 2 * Y, X], axis=-1))
    _, rel_closed = closedness_residual(g, QForm(ax, ay))
    assert rel_closed < 1e-10

    # swap components: d(y dx) has constant nonzero exterior derivative
    bx = from_vec(np.stack([Y, np.zeros_like(X), np.zeros_like(X)], axis=-1))
    by = from_vec(np.zeros(X.shape + (3,)))
    _, rel_open = closedness_residual(g, QForm(bx, by))
    assert rel_open > 0.5


def test_normal_is_unit_and_orthogonal(surf):
    imm = surf("catenoid", 33).imm
    assert np.max(np.abs(qnorm(imm.N) - 1.0)) < 1e-9
    assert np.max(np.abs(imm.N[..., 0])) < 1e-12
    dot_x = np.abs(np.sum(imm.N[..., 1:] * imm.fx[..., 1:], axis=-1))
    scale = np.exp(2.0 * imm.u)
    assert np.max(dot_x / scale) < 1e-3
