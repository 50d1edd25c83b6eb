"""Spin transforms, mate construction, and the distortion diagnostics."""

import tracemalloc

import numpy as np
import pytest

import quatsurf as qs
from quatsurf import interior, qnorm, qnormsq, from_real
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
    # form per sign between them must keep this
    g = surf("catenoid")
    dual = dual_of("catenoid")
    pair = qs.bonnet_pair(g.imm, dual, eps=0.8)
    for side, lam, mate, curv in (
            ("plus", dual.fstar + from_real(0.8), pair.fplus, pair.curv_plus),
            ("minus", dual.fstar - from_real(0.8), pair.fminus,
             pair.curv_minus)):
        new, rep = spin_integrate(g.imm, lam)
        assert np.array_equal(new.f, mate.f)
        assert np.array_equal(new.N, mate.N)
        assert rep == pair.reports[side]
        frame = _spin_frame(g.imm, lam)
        split = qs.weingarten_split(frame)
        assert np.array_equal(split.II, curv.II)
        assert np.array_equal(split.H, curv.H)


def test_bonnet_pair_memory_budget(surf, dual_of):
    # in units of one (n, n, 4) float64 field: held is what the returned
    # pair keeps (two mates of 4.5, two trimmed curvature records of
    # 1.75, H+, H- and D); the peak is reached in the second sign's
    # frame split
    g = surf("catenoid", 129)
    dual = dual_of("catenoid", 129)
    qs.bonnet_pair(g.imm, dual, eps=0.8)  # imports and caches settle
    tracemalloc.start()
    try:
        pair = qs.bonnet_pair(g.imm, dual, eps=0.8)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    field = g.imm.f.nbytes
    assert peak <= 26 * field
    assert held <= 14 * field


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


def test_distortion_pairs_with_rotated_dual(surf, dual_of):
    g = surf("cylinder")
    dual = dual_of("cylinder")
    pair = qs.bonnet_pair(g.imm, dual, eps=1.0)
    _, rel = qs.shape_distortion_check(g.imm, dual, pair)
    assert rel < 5e-3
    assert pair.D_cr_rel < 5e-3


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
