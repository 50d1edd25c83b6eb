"""Dual-surface integration, duality identities, and pair classification."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quatsurf as qs
from quatsurf.charts import GridChart, build_immersion, interior, rms
from quatsurf.duality import integrate_form
from quatsurf.quaternions import QForm, from_vec, qnorm


def test_integrate_form_recovers_potential():
    n = 33
    h = 2.0 / (n - 1)
    g = GridChart(nx=n, ny=n, hx=h, hy=h, x0=-1.0, y0=-1.0)
    X, Y = g.mesh()
    # exact differential of (x^2 y, y^3, x + y)
    ax = from_vec(np.stack([2 * X * Y, np.zeros_like(X), np.ones_like(X)],
                           axis=-1))
    ay = from_vec(np.stack([X ** 2, 3 * Y ** 2, np.ones_like(X)], axis=-1))
    primitive, deviation = integrate_form(g, QForm(ax, ay))
    want = np.stack([X ** 2 * Y, Y ** 3, X + Y], axis=-1)
    want -= want[0, 0]
    got = primitive[..., 1:]
    assert deviation < 1e-12
    assert np.max(np.abs(got - want)) < 1e-10


def test_integrate_form_basepoint_and_routing():
    n = 17
    g = GridChart(nx=n, ny=n, hx=0.1, hy=0.1, x0=0.0, y0=0.0)
    X, Y = g.mesh()
    ax = from_vec(np.stack([np.ones_like(X)] * 3, axis=-1))
    ay = from_vec(np.stack([np.zeros_like(X)] * 3, axis=-1))
    prim, deviation = integrate_form(g, QForm(ax, ay), basepoint=(5, 7))
    assert np.max(np.abs(prim[5, 7])) < 1e-14
    # the form is closed, so the transposed routing through the hub
    # agrees, and moving the basepoint shifts the primitive by a constant
    assert deviation < 1e-12
    prim2, _ = integrate_form(g, QForm(ax, ay))
    assert np.max(qnorm(prim - prim2 + prim2[5, 7])) < 1e-12


def test_integrate_dual_cylinder(surf, dual_of):
    gen = surf("cylinder", 33)
    dual = dual_of("cylinder", 33)
    assert dual.closedness_rel < 1e-3
    assert dual.path_deviation < 1e-3
    assert dual.branch_nodes == []
    assert dual.pole_nodes == []
    # known dual: unit cylinder again, up to translation
    got = dual.positions - dual.positions.reshape(-1, 3).mean(axis=0)
    want = gen.dual_known - gen.dual_known.reshape(-1, 3).mean(axis=0)
    assert rms(np.linalg.norm(got - want, axis=-1)) < 1e-3


def test_dual_normals_flip(surf, dual_of):
    gen = surf("cylinder", 65)
    istar = dual_of("cylinder", 65).as_immersion()
    resid = qnorm(istar.N + gen.imm.N)
    assert rms(interior(resid)) < 1e-6


def test_verify_duality_residuals(surf, dual_of):
    gen = surf("catenoid", 33)
    dual = dual_of("catenoid", 33)
    curv = qs.weingarten_split(gen.imm)
    rep = qs.verify_duality(gen.imm, dual, curv)
    assert rep["classical_rel"] < 5e-3
    assert rep["wedge_rel"] < 5e-3
    assert rep["real_multiple_rel"] < 5e-3
    assert rep["fitted_vs_Hstar_rms"] < 5e-3


def test_not_isothermic_for_wrong_differential(surf):
    gen = surf("catenoid", 33)
    with pytest.raises(ValueError, match="not isothermic"):
        qs.integrate_dual(gen.imm, 1.0j)
    with pytest.raises(ValueError, match="trivial"):
        qs.integrate_dual(gen.imm, 0.0)


def test_branch_point_detection(surf, dual_of):
    dual = dual_of("enneper", 65)
    assert dual.branch_nodes == [(32, 32)]
    assert dual.branch_mults == [1]
    # the branched dual is not an immersion on this chart
    with pytest.raises(ValueError):
        dual.as_immersion()


def test_dual_mean_curvature_is_nan_where_an_edge_stencil_reads_a_branch():
    # the sphere's dual for q = z e^{0.7i} on a chart whose zero of q
    # sits on node (16, 4): the one-sided stencils of columns 0 and 1
    # read it, and H* there used to be finite (-24.8 and 8.4) and lift
    # classical_rel to 2.9e-2
    g = GridChart(nx=33, ny=33, hx=0.03, hy=0.03, x0=-4 * 0.03, y0=-0.48)
    X, Y = g.mesh()
    den = 1.0 + X ** 2 + Y ** 2
    imm = build_immersion(g, np.stack(
        [2 * X / den, 2 * Y / den, (X ** 2 + Y ** 2 - 1) / den], axis=-1))
    q = qs.QuadDifferential.from_function(g, lambda z: z * np.exp(0.7j))
    dual = qs.integrate_dual(imm, q)
    assert dual.branch_nodes == [(16, 4)]
    assert np.isnan(dual.Hstar[16, 0:2]).all()
    report = qs.verify_duality(imm, dual, qs.weingarten_split(imm))
    assert report["classical_rel"] < 1e-3


def test_classify_christoffel(surf, dual_of):
    cyl = surf("cylinder", 33)
    cat = surf("catenoid", 33)
    rng = np.random.default_rng(7)
    shift = rng.standard_normal(3)
    scaled = build_immersion(cyl.imm.grid, 2.0 * cyl.imm.positions + shift)
    dstar = dual_of("cylinder", 33).as_immersion()
    assert qs.classify_christoffel(cyl.imm, scaled) == "scaling"
    assert qs.classify_christoffel(cyl.imm, dstar) == "dual_pair"
    assert qs.classify_christoffel(cyl.imm, cat.imm) == "unrelated"


@pytest.fixture(scope="module")
def three_grids(surf, dual_of):
    """The immersion, differential, dual, curvature and mates of the
    cylinder at n = 33 and at n = 35, and of the sphere at n = 33, whose
    33 x 33 chart has another spacing and origin than the cylinder's."""
    found = []
    for name, n in (("cylinder", 33), ("cylinder", 35), ("sphere", 33)):
        gen = surf(name, n)
        dual = dual_of(name, n)
        found.append(SimpleNamespace(
            imm=gen.imm, q=gen.q_known, dual=dual,
            curv=qs.weingarten_split(gen.imm),
            pair=qs.bonnet_pair(gen.imm, dual, 0.7)))
    return found


# each entry with one operand from another grid and the rest from the
# cylinder at n = 33
GRID_MISMATCHES = {
    "integrate_dual": lambda a, b: qs.integrate_dual(a.imm, b.q),
    "form_from_qdiff": lambda a, b: qs.form_from_qdiff(a.imm, b.q),
    "CauchyProblem": lambda a, b: qs.CauchyProblem(a.imm, b.q, 16),
    "classify_christoffel": lambda a, b: qs.classify_christoffel(a.imm, b.imm),
    "verify_duality": lambda a, b: qs.verify_duality(a.imm, b.dual, a.curv),
    "bonnet_pair": lambda a, b: qs.bonnet_pair(a.imm, b.dual, 0.7),
    "shape_distortion_check_dual":
        lambda a, b: qs.shape_distortion_check(a.imm, b.dual, a.pair),
    "shape_distortion_check_pair":
        lambda a, b: qs.shape_distortion_check(a.imm, a.dual, b.pair),
    "umbilic_branch_correspondence":
        lambda a, b: qs.umbilic_branch_correspondence(a.pair, b.dual),
}


@pytest.mark.parametrize("entry", sorted(GRID_MISMATCHES))
def test_operands_on_two_grids_are_refused(three_grids, entry):
    cylinder, cylinder_35, sphere = three_grids
    with pytest.raises(ValueError,
                       match="immersions must share one grid: 33x33 and "
                             "35x35"):
        GRID_MISMATCHES[entry](cylinder, cylinder_35)
    # the same node counts: spacing and origin decide, at full precision
    with pytest.raises(ValueError,
                       match=re.escape(
                           "immersions must share one grid: spacing "
                           "(0.19634954084936207, 0.0625) origin (0.0, -1.0)"
                           " and spacing (0.0375, 0.0375) origin "
                           "(-0.6, -0.6)")):
        GRID_MISMATCHES[entry](cylinder, sphere)


def test_dual_of_dual_returns_to_start(surf, dual_of):
    gen = surf("cylinder", 65)
    istar = dual_of("cylinder", 65).as_immersion()
    dd = qs.integrate_dual(istar, gen.q_known)
    sim = qs.similarity_distance(dd.positions, gen.imm.positions)
    assert sim < 1e-4


@settings(max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(["cylinder", "sphere", "unduloid"]),
       rotation=st.floats(0.0, np.pi, exclude_max=True))
def test_dual_of_dual_returns_to_start_under_a_chart_rotation(name, rotation):
    # below verify's dual_roundtrip threshold 1e-3; the worst of 15
    # rotations per surface was 2.5e-4 (cylinder).  The catenoid is left
    # out: its rotated Gauss-map dual fails chart_tol at n=33 and n=65
    gen = qs.make_surface(name, n=33, rotation=rotation)
    istar = qs.integrate_dual(gen.imm, gen.q_known).as_immersion()
    dd = qs.integrate_dual(istar, gen.q_known)
    assert qs.similarity_distance(dd.positions, gen.imm.positions) < 1e-3


def test_grid_mismatch_rejected(surf):
    gen = surf("cylinder", 33)
    other = GridChart(nx=9, ny=9, hx=0.1, hy=0.1, x0=0.0, y0=0.0)
    wrong = qs.QuadDifferential.coerce(other, 1.0)
    with pytest.raises(ValueError):
        qs.integrate_dual(gen.imm, wrong)
