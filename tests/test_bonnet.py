"""Spin transforms, mate construction, and the distortion diagnostics."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import quatsurf as qs
from quatsurf import (build_immersion, from_real, interior, qnorm, qnormsq,
                      to_vec)
from quatsurf.bonnet import SpinField, _spin_frame, spin_form, spin_integrate


def test_spin_form_constant_scale(surf):
    g = surf("cylinder")
    lam = np.broadcast_to(from_real(2.0), g.imm.f.shape).copy()
    form = spin_form(g.imm, lam)
    assert np.allclose(form.ax, 4.0 * g.imm.fx, atol=1e-14)
    assert np.allclose(form.ay, 4.0 * g.imm.fy, atol=1e-14)


def test_spin_integrate_constant_is_homothety(surf):
    g = surf("cylinder")
    lam = np.broadcast_to(from_real(2.0), g.imm.f.shape).copy()
    new, rep = spin_integrate(g.imm, lam)
    base = g.imm.positions - g.imm.positions[0, 0]
    got = new.positions - new.positions[0, 0]
    scale = np.abs(base).max()
    assert np.abs(got - 4.0 * base).max() < 1e-3 * scale
    # new.fx re-differentiates the integrated positions, so the metric
    # identity holds at stencil order, not rounding level
    assert rep["metric_identity_rel"] < 1e-3
    assert rep["path_deviation"] < 1e-10


def test_spin_integrate_rejects_vanishing(surf):
    g = surf("cylinder")
    lam = np.broadcast_to(from_real(1.0), g.imm.f.shape).copy()
    lam[5, 5] = 0.0
    with pytest.raises(ValueError, match="vanishes"):
        spin_integrate(g.imm, lam)


def _spin_with_nan_at_5_5(g):
    lam = np.broadcast_to(from_real(1.0), g.imm.f.shape).copy()
    lam[5, 5] = np.nan
    return lam


def test_spin_field_names_a_non_finite_node(surf):
    g = surf("cylinder")
    with pytest.raises(ValueError, match=r"non-finite at node \(j=5, i=5\)"):
        SpinField(g.imm.grid, _spin_with_nan_at_5_5(g))


def test_spin_integrate_names_a_non_finite_node(surf):
    # the node of lam, not of the positions integrated from it
    g = surf("cylinder")
    with pytest.raises(ValueError, match=r"non-finite at node \(j=5, i=5\)"):
        spin_integrate(g.imm, _spin_with_nan_at_5_5(g))


def test_spin_checks_accept_a_tiny_nonzero_node(surf):
    # |lam|^2 underflows to 0 at this node, yet lam does not vanish there
    g = surf("cylinder")
    lam = np.broadcast_to(from_real(1.0), g.imm.f.shape).copy()
    lam[5, 5] = [1e-200, 1e-200, 0.0, 0.0]
    assert qnormsq(lam[5, 5]) == 0.0
    SpinField(g.imm.grid, lam)
    # the jump to ~0 at one node is not closed, but it is not "vanishing"
    with pytest.raises(ValueError, match="not closed"):
        spin_integrate(g.imm, lam)


def test_spin_field_band_validation(surf):
    g = surf("cylinder")
    ny, nx = g.imm.grid.ny, g.imm.grid.nx
    lam = np.broadcast_to(from_real(1.0), (ny, nx, 4)).copy()

    full = SpinField(g.imm.grid, lam)
    assert full.band_rows() == (0, ny - 1)

    # NaN outside the declared band is legal; inside it is not
    banded = lam.copy()
    banded[:10] = np.nan
    banded[21:] = np.nan
    sf = SpinField(g.imm.grid, banded, row_span=(10, 20))
    assert sf.band_rows() == (10, 20)
    bad = banded.copy()
    bad[15, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        SpinField(g.imm.grid, bad, row_span=(10, 20))

    zeroed = lam.copy()
    zeroed[12, 7] = 0.0
    with pytest.raises(ValueError, match=r"\(j=12, i=7\)"):
        SpinField(g.imm.grid, zeroed, row_span=(10, 20))

    with pytest.raises(ValueError,
                       match="^spin field shape does not match the grid$"):
        SpinField(g.imm.grid, lam[:, 1:])


def test_bonnet_pair_cylinder(surf, dual_of):
    g = surf("cylinder")
    dual = dual_of("cylinder")
    pair = qs.bonnet_pair(g.imm, dual, eps=1.0)

    # |lam+| = |lam-| makes the induced metrics identical in exact
    # arithmetic; the forms are algebraic so this is rounding-level
    assert pair.metric_rel < 1e-12

    dH = np.abs(interior(pair.Hplus) - interior(pair.Hminus)).max()
    assert dH < 1e-2

    diam = g.imm.diameter()
    assert pair.congruence_rms > 1e-3 * diam
    assert pair.normal_recovery_rel < 1e-4

    for side in ("plus", "minus"):
        rep = pair.reports[side]
        assert rep["closedness_rel"] < 5e-3
        assert rep["metric_identity_rel"] < 1e-3


def test_bonnet_pair_fields_match_the_public_entry_points(surf, dual_of):
    # spin_integrate and _spin_frame, called on their own, give the same
    # bits as the fields bonnet_pair stores; a pair that shares one spin
    # form per sign between them must keep this.  The pair keeps only the
    # mates' positions, and build_immersion rebuilds each mate's frame
    # from them bit for bit.
    g = surf("catenoid")
    dual = dual_of("catenoid")
    pair = qs.bonnet_pair(g.imm, dual, eps=0.8)
    for side, lam, f, curv in (
            ("plus", dual.fstar + from_real(0.8), pair.fplus, pair.curv_plus),
            ("minus", dual.fstar - from_real(0.8), pair.fminus,
             pair.curv_minus)):
        new, rep = spin_integrate(g.imm, lam)
        assert np.array_equal(f, new.f)
        assert rep == pair.reports[side]
        rebuilt = build_immersion(g.imm.grid, to_vec(f))
        for name in ("f", "fx", "fy", "N", "u", "conformality_field"):
            assert np.array_equal(getattr(rebuilt, name), getattr(new, name))
        assert rebuilt.conformality_residual == new.conformality_residual
        frame = _spin_frame(g.imm, lam)
        split = qs.weingarten_split(frame)
        assert np.array_equal(split.II, curv.II)
        assert np.array_equal(split.H, curv.H)


def _traced(fn):
    """(result, bytes held after fn, traced peak) of one call of fn."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def test_bonnet_pair_memory_budget(surf, dual_of):
    # in units of one (n, n, 4) float64 field: held is what the returned
    # pair keeps (two mates' positions of 1, two trimmed curvature
    # records of 1.75, H+, H- and D); the peak is reached in the second
    # sign's H split of its integrated mate.  Bounds are the measured
    # 6.5 and 17.0 plus 10%.
    g = surf("catenoid", 129)
    dual = dual_of("catenoid", 129)
    qs.bonnet_pair(g.imm, dual, eps=0.8)  # imports and caches settle
    _, held, peak = _traced(lambda: qs.bonnet_pair(g.imm, dual, eps=0.8))
    field = g.imm.f.nbytes
    assert peak <= 19 * field
    assert held <= 7.2 * field


def _mates_pipeline(n):
    gen = qs.make_surface("catenoid", n=n, rotation=0.7)
    curv = qs.weingarten_split(gen.imm)
    dual = qs.integrate_dual(gen.imm, gen.q_known)
    qs.verify_duality(gen.imm, dual, curv)
    pair = qs.bonnet_pair(gen.imm, dual, eps=0.9)
    qs.shape_distortion_check(gen.imm, dual, pair)
    return qs.umbilic_branch_correspondence(pair, dual)


def test_mates_pipeline_memory_budget():
    # the whole pipeline from make_surface to the correspondence, in
    # units of one (n, n, 4) float64 field; its peak is bonnet_pair's,
    # on top of the surface, its split and its dual (measured 31.8)
    n = 129
    _mates_pipeline(n)  # imports and caches settle
    _, _, peak = _traced(lambda: _mates_pipeline(n))
    assert peak <= 35 * (n * n * 4 * 8)


def test_bonnet_pair_rejects_bad_eps(surf, dual_of):
    g = surf("cylinder")
    dual = dual_of("cylinder")
    with pytest.raises(ValueError, match="positive"):
        qs.bonnet_pair(g.imm, dual, eps=0.0)
    with pytest.raises(ValueError, match="positive"):
        qs.bonnet_pair(g.imm, dual, eps=-1.0)
    for eps in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            qs.bonnet_pair(g.imm, dual, eps=eps)
    with pytest.raises(ValueError, match="^eps on the singular sphere: "
                       "the spin factor vanishes at a node$"):
        qs.bonnet_pair(g.imm, dual, eps=1e-14)


def test_distortion_pairs_with_rotated_dual(surf, dual_of):
    g = surf("cylinder")
    dual = dual_of("cylinder")
    pair = qs.bonnet_pair(g.imm, dual, eps=1.0)
    _, rel = qs.shape_distortion_check(g.imm, dual, pair)
    assert rel < 5e-3
    assert pair.D_cr_rel < 5e-3


def test_dual_and_mates_follow_a_rigid_motion():
    """Moving the surface by p -> p R^T + t moves its dual by R and
    leaves the mates' figures unchanged, on a randomly rotated chart."""
    rng = np.random.default_rng(6)
    for name in ("sphere", "cylinder", "catenoid", "enneper", "unduloid"):
        gen = qs.make_surface(name, n=33, rotation=rng.uniform(0, np.pi))
        R = Rotation.random(random_state=rng).as_matrix()
        moved = qs.build_immersion(gen.imm.grid, gen.imm.positions @ R.T
                                   + rng.normal(size=3))
        figures = []
        for imm in (gen.imm, moved):
            dual = qs.integrate_dual(imm, gen.q_known)
            pair = qs.bonnet_pair(imm, dual, eps=0.7)
            figures.append((dual.positions, pair.congruence_rms,
                            pair.metric_rel,
                            qs.shape_distortion_check(imm, dual, pair)[1]))
        (dual, cong, metric, dist), (dual2, cong2, metric2, dist2) = figures
        assert np.abs(dual2 - dual @ R.T).max() < 1e-12 * np.abs(dual).max(), \
            name
        assert abs(cong2 - cong) < 1e-12 * cong, name
        # metric_rel and the distortion figure are already relative to
        # their identity's scale, and both are residuals near 0
        assert abs(metric2 - metric) < 1e-12, name
        assert abs(dist2 - dist) < 1e-12, name


def test_umbilic_branch_correspondence(surf, dual_of):
    g = surf("enneper", 65)
    dual = dual_of("enneper", 65)
    pair = qs.bonnet_pair(g.imm, dual, eps=1.0)
    corr = qs.umbilic_branch_correspondence(pair, dual, tol=1e-6)
    center = [(32, 32)]
    assert corr["umbilics_plus"] == center
    assert corr["umbilics_minus"] == center
    assert corr["distortion_zeros"] == center
    assert corr["branch_nodes"] == center
    assert corr["all_match"] is True


def test_correspondence_groups_the_umbilics(surf, dual_of):
    # at a loose tol each mate's umbilic test holds a patch of nodes
    # around the branch point; grouped as the zeros of D are, it is one
    g = surf("enneper")
    dual = dual_of("enneper")
    pair = qs.bonnet_pair(g.imm, dual, eps=1.0)
    assert len(qs.umbilics(pair.curv_plus, tol=5e-2)) > 1
    corr = qs.umbilic_branch_correspondence(pair, dual, tol=5e-2)
    center = [(16, 16)]
    assert corr["umbilics_plus"] == center
    assert corr["umbilics_minus"] == center
    assert corr["distortion_zeros"] == center
    assert corr["branch_nodes"] == center
    assert corr["all_match"] is True


def test_curvature_difference_concentrates_at_umbilic(surf, dual_of):
    # away from the branch point the mates genuinely disagree in H
    g = surf("unduloid")
    dual = dual_of("unduloid")
    pair = qs.bonnet_pair(g.imm, dual, eps=1.0)
    for H in (pair.Hplus, pair.Hminus):
        hi = interior(H)
        assert hi.std() / abs(hi.mean()) > 1e-3


def test_cmc_eps_manufactured_recovery(surf, dual_of):
    g = surf("cylinder")
    dual = dual_of("cylinder")
    c0, eps0 = 0.7, 1.0
    s = qnormsq(dual.fstar)
    Hman = c0 * (s + eps0 ** 2)
    got = qs.cmc_eps_uniqueness(g.imm, dual, H_field=Hman)
    assert got == pytest.approx(eps0, abs=1e-10)


def test_cmc_eps_cmc_input_gives_none(surf, dual_of):
    g = surf("cylinder", 65)
    dual = dual_of("cylinder", 65)
    assert qs.cmc_eps_uniqueness(g.imm, dual) is None


def test_cmc_eps_minimal_input_raises(surf, dual_of):
    g = surf("catenoid")
    dual = dual_of("catenoid")
    with pytest.raises(ValueError, match="vanishes identically"):
        qs.cmc_eps_uniqueness(g.imm, dual)
