"""Spin transforms and Bonnet mates.

A nonvanishing quaternion field lam deforms an immersion through
df~ = conj(lam) df lam; the deformation is integrable when
Im(conj(lam) df ^ dlam) vanishes.  Shifting a dual surface by a real
constant, lam = fstar +- eps, produces a pair of mates with identical
induced metric and (in the limit) identical mean curvature but
different shape; the difference of their second fundamental forms
carries a holomorphic quadratic differential whose zeros are the
mates' umbilics and the dual's branch points.
"""

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .quaternions import (QForm, _qempty, _split_rows, from_real, qdot,
                          qiszero, qnorm, qnormsq, star, to_vec)
# Not called here since the spin kernel was fused: the benchmark's tracer
# test (perfbench/tests/test_harness.py) checks its wrapper replaces this
# `from .quaternions import` binding, so the name stays bound.
from .quaternions import qmul  # noqa: F401
from .charts import (_CHART_TOL, _UMBILIC_TOL, CurvatureData,
                     _relative, _same_grid, _symmetric_tensor, _umbilic_mask,
                     build_immersion, deriv_x, deriv_y, floored_relative,
                     form_rms, interior, rms, weingarten_split)
from .quaddiff import (QuadDifferential, _group_minima, form_from_qdiff,
                       zero_locus)
from .duality import _CLOSED_TOL, _integrate_closed
from .align import congruence_distance

# relative misfit of dH = c d|fstar|^2, and spread of the recovered
# eps^2, that cmc_eps_uniqueness accepts
_CMC_FIT_TOL = 1e-3


class SpinField:
    """A per-node nonvanishing quaternion field, optionally restricted
    to a band of rows (row_span inclusive) when produced by a marching
    solver."""

    def __init__(self, grid, lam, row_span=None):
        lam = np.asarray(lam, dtype=np.float64)
        if lam.shape != (grid.ny, grid.nx, 4):
            raise ValueError("spin field shape does not match the grid")
        self.grid = grid
        self.lam = lam
        self.row_span = row_span
        lo, hi = self.band_rows()
        band = lam[lo:hi + 1]
        for bad, what in ((~np.isfinite(band).all(axis=-1), "is non-finite"),
                          (qiszero(band), "vanishes")):
            if bad.any():
                j, i = map(int, np.argwhere(bad)[0])
                raise ValueError("spin field %s at node (j=%d, i=%d)"
                                 % (what, j + lo, i))

    def band_rows(self):
        if self.row_span is None:
            return 0, self.grid.ny - 1
        return self.row_span


def _spin_rotation(lam):
    """(..., 10) planes R with Im(conj(lam) v lam) = M Im(v) per node:
    planes 0-8 hold the 3x3 rows M of |lam|^2 times the rotation by
    conj(lam), row by row, and plane 9 holds |lam|^2.  Built from lam's
    ten pairwise products (mixed ones doubled, which is exact)."""
    lam = np.asarray(lam, dtype=np.float64)
    return _split_rows(_spin_rotation_rows, _qempty(lam.shape[:-1], 10),
                       (lam,))


def _spin_rotation_rows(R, lam):
    # each product is dropped once the entries that read it are written,
    # so R and at most seven product planes are alive at once
    w, x, y, z = lam[..., 0], lam[..., 1], lam[..., 2], lam[..., 3]
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    s, t = ww + xx, yy + zz
    np.add(s, t, out=R[..., 9])
    np.subtract(s, t, out=R[..., 0])
    del s, t
    u, v = np.subtract(ww, xx, out=ww), np.subtract(yy, zz, out=yy)
    del xx, zz
    np.add(u, v, out=R[..., 4])
    np.subtract(u, v, out=R[..., 8])
    del u, v, ww, yy
    wx, wy, wz = 2.0 * w * x, 2.0 * w * y, 2.0 * w * z
    xy, xz, yz = 2.0 * x * y, 2.0 * x * z, 2.0 * y * z
    np.add(xy, wz, out=R[..., 1])
    np.subtract(xz, wy, out=R[..., 2])
    np.subtract(xy, wz, out=R[..., 3])
    np.add(yz, wx, out=R[..., 5])
    np.add(xz, wy, out=R[..., 6])
    np.subtract(yz, wx, out=R[..., 7])
    return R


def _rotate(R, v):
    """conj(lam) v lam = |lam|^2 Re(v) + M Im(v), for R =
    _spin_rotation(lam)."""
    v = np.asarray(v, dtype=np.float64)
    out = _qempty(np.broadcast_shapes(R.shape[:-1], v.shape[:-1]))
    return _split_rows(_rotate_rows, out, (R, v))


def _rotate_rows(out, R, v):
    np.multiply(R[..., 9], v[..., 0], out=out[..., 0])
    for k in range(1, 4):
        o = out[..., k]
        np.multiply(R[..., 3 * k - 3], v[..., 1], out=o)
        o += R[..., 3 * k - 2] * v[..., 2]
        o += R[..., 3 * k - 1] * v[..., 3]
    return out


def _spin_transform(lam, fx, fy):
    """conj(lam) (fx, fy) lam as a one-form, with lam's rotation built
    once for both components."""
    R = _spin_rotation(lam)
    return QForm(_rotate(R, fx), _rotate(R, fy))


def spin_form(imm, lam):
    """The transformed differential conj(lam) df lam as a one-form."""
    return _spin_transform(lam, imm.fx, imm.fy)


def _integrate_spin(grid, form, base, closed_tol, chart_tol,
                    basepoint=(0, 0)):
    """Integrate a spin-transformed differential to an immersion taking
    the value base at basepoint.  Returns (immersion, closedness_rel,
    path_deviation)."""
    prim, rel, path_dev = _integrate_closed(
        grid, form, closed_tol, "spin transform is not closed: residual",
        basepoint)
    new = build_immersion(grid, to_vec(prim + base), chart_tol=chart_tol)
    return new, rel, path_dev


def spin_integrate(imm, lam, closed_tol=_CLOSED_TOL, chart_tol=_CHART_TOL):
    """Integrate the spin-transformed differential to a new immersion.

    Validates lam as a SpinField, checks closedness, integrates from the
    lower-left node with value f there, validates the result as a
    conformal chart, and verifies the induced-metric identity
    I~ = |lam|^4 I.  Returns (immersion, report).
    """
    lam = SpinField(imm.grid, lam).lam
    new, rel, path_dev = _integrate_spin(imm.grid, spin_form(imm, lam),
                                         imm.f[0, 0], closed_tol, chart_tol)
    want = qnormsq(lam)[..., None, None] ** 2 * _metric_tensor(imm.df)
    report = {
        "closedness_rel": rel,
        "path_deviation": path_dev,
        "metric_identity_rel": _relative(rms(want - _metric_tensor(new.df)),
                                         rms(want)),
    }
    return new, report


def _metric_tensor(form):
    return _symmetric_tensor(qnormsq(form.ax), qdot(form.ax, form.ay),
                             qnormsq(form.ay))


@dataclass(eq=False)
class BonnetPair:
    """The two mates and their comparison diagnostics.

    fplus/fminus hold the mates' imaginary-quaternion positions, shape
    (ny, nx, 4), as DualResult.fstar holds the dual's; their frames are
    dropped once read, and build_immersion(grid, to_vec(pair.fplus))
    rebuilds a mate's frame with the same bits.

    metric_rel compares the induced metrics of the two transform forms
    (exact algebra, so it tests the |lam+| = |lam-| identity, not the
    integrator); Hplus/Hminus come from finite differences on the
    integrated mates and agree only at discretization order.
    curv_plus/curv_minus (and D, which is built from them) use the
    algebraic spin frames instead of the integrated positions, which
    avoids compounding path-integration noise under differentiation;
    they keep H, II and hopf_qd, with omega and dN set to None.
    normal_recovery_rel is the larger over the two mates of
    rms |mate.N - frame.N|: the integrated mate's normal against the
    frame's lam^-1 N lam.
    """

    eps: float
    fplus: np.ndarray
    fminus: np.ndarray
    Hplus: np.ndarray
    Hminus: np.ndarray
    D: QuadDifferential
    curv_plus: CurvatureData
    curv_minus: CurvatureData
    metric_rel: float
    D_cr_rel: float
    congruence_rms: float
    normal_recovery_rel: float
    reports: dict


def bonnet_pair(imm, dual, eps, closed_tol=_CLOSED_TOL,
                chart_tol=_CHART_TOL):
    """Build the mates for lam = fstar +- eps, with fstar the positions
    of the DualResult dual, and compare them."""
    _same_grid(imm.grid, dual.grid)
    eps = float(eps)
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    fstar = dual.fstar
    signs = (eps, -eps)
    floor = 1e-12 * (eps + rms(qnorm(fstar)))
    if min(qnorm(fstar + from_real(s)).min() for s in signs) < floor:
        raise ValueError("eps on the singular sphere: the spin factor "
                         "vanishes at a node")

    mates, H, metric, curv, reports = [], [], [], [], []
    rec = 0.0
    for s in signs:
        lam = fstar + from_real(s)
        mate, report = spin_integrate(imm, lam, closed_tol, chart_tol)
        # H from the integrated mate: an end-to-end check that
        # integration and curvature extraction commute at
        # discretization order.
        H.append(weingarten_split(mate).H)
        # II and umbilics from the algebraic spin frame: the frame is
        # exact in lam and the background, so D is two derivative levels
        # cleaner than anything extracted from re-differentiated
        # integrals.  lam, the frame, omega and dN are dropped once
        # read, and of the mate only its positions are kept, so at most
        # one sign's intermediates are alive at a time.
        frame = _spin_frame(imm, lam)
        del lam
        rec = max(rec, rms(qnorm(mate.N - frame.N)))
        mates.append(mate.f)
        del mate
        curv.append(replace(weingarten_split(frame), omega=None, dN=None))
        metric.append(_metric_tensor(frame.df))
        del frame
        reports.append(report)

    # Coefficient of the (second fundamental form) difference against
    # dz^2 with this chart orientation; sign chosen so that the pairing
    # with 4 eps star(df*) below holds with a plus sign.
    dII = curv[0].II - curv[1].II
    Dphi = 0.5 * (dII[..., 1, 1] - dII[..., 0, 0]) + 1j * dII[..., 0, 1]
    D = QuadDifferential(imm.grid, Dphi)
    gx = deriv_x(Dphi, imm.grid.hx)
    gy = deriv_y(Dphi, imm.grid.hy)
    cr = 0.5 * np.abs(gx + 1j * gy)  # the CR defect of D
    # D carries one-sided-stencil noise in the outer two rings (it is
    # built from the mates' differentiated frames); its CR test applies
    # one more derivative, so four rings must be discarded before the
    # statistic means anything.
    def trim(a):
        return interior(interior(a))

    gscale = rms(np.sqrt(np.abs(trim(gx)) ** 2 + np.abs(trim(gy)) ** 2))
    D_cr_rel = floored_relative(imm.grid, rms(trim(cr)), gscale,
                                rms(np.abs(Dphi)))

    cong = congruence_distance(to_vec(mates[0]), to_vec(mates[1]))
    metric_rel = _relative(rms(metric[0] - metric[1]), rms(metric[0]))
    return BonnetPair(eps, *mates, *H, D, *curv, metric_rel, D_cr_rel, cong,
                      rec, {"plus": reports[0], "minus": reports[1]})


def shape_distortion_check(imm, dual, pair):
    """Residual of the identity pairing the shape distortion with the
    rotated dual differential: df applied to D against 4 eps star(df*).
    Returns (per-node field, relative RMS)."""
    _same_grid(imm.grid, dual.grid)
    lhs = form_from_qdiff(imm, pair.D)
    rhs = star(dual.tau) * (4.0 * pair.eps)
    resid = lhs - rhs
    return resid.norm(), _relative(form_rms(resid), form_rms(rhs))


def _umbilic_groups(curv, tol):
    """The umbilic nodes grouped as zero_locus groups zeros: one node,
    the smallest |hopf_qd|, per 8-connected group."""
    nodes, _ = _group_minima(_umbilic_mask(curv, tol), np.abs(curv.hopf_qd))
    return set(map(tuple, nodes.tolist()))


def umbilic_branch_correspondence(pair, dual, tol=_UMBILIC_TOL):
    """Compare the umbilics of the mates, the zeros of the shape
    distortion, and the branch nodes of the dual, each grouped to one
    node per 8-connected group."""
    _same_grid(pair.D.grid, dual.grid)
    umb_p = _umbilic_groups(pair.curv_plus, tol)
    umb_m = _umbilic_groups(pair.curv_minus, tol)
    try:
        znodes, zmults, _ = zero_locus(pair.D, tol=tol)
        dzeros = set(znodes)
    except ValueError:
        dzeros = set()
    branch = set(tuple(n) for n in dual.branch_nodes)
    sets = {"umbilics_plus": umb_p, "umbilics_minus": umb_m,
            "distortion_zeros": dzeros, "branch_nodes": branch}
    out = {name: sorted(s) for name, s in sets.items()}
    out["all_match"] = all(s == branch for s in sets.values())
    return out


def _spin_frame(imm, lam):
    """Algebraic frame of the transformed immersion (no integration):
    fx~ = conj(lam) fx lam, N~ = lam^-1 N lam = M N / |lam|^2; it
    carries what weingarten_split and the metric read (grid, fx, fy, N,
    df)."""
    df = spin_form(imm, lam)
    # R a second time: df~ comes from spin_form, which builds its own
    R = _spin_rotation(lam)
    N = _rotate(R, imm.N)
    N /= R[..., 9:]
    return SimpleNamespace(grid=imm.grid, fx=df.ax, fy=df.ay, df=df, N=N)


def cmc_eps_uniqueness(imm, dual, H_field=None):
    """Solve dH = c d|fstar|^2 in least squares and recover the unique
    eps = sqrt(H/c - |fstar|^2) when the relation holds with a positive
    constant; returns None when the data admit no such eps (including
    every CMC input, where H varies by less than 1e-6 relative, so
    c = 0).  The fit must hold to _CMC_FIT_TOL.  Rejects minimal
    surfaces: with H = 0 the construction has no epsilon to determine.
    """
    grid = imm.grid
    if H_field is None:
        H_field = weingarten_split(imm).H
    H = np.asarray(H_field, dtype=np.float64)
    s = qnormsq(dual.fstar)

    # minimal test against a curvature scale, not machine zero: H of a
    # sampled minimal surface is pure stencil noise (~1e-6 at n=65)
    curvscale = rms(qnorm(deriv_x(imm.N, grid.hx))
                    + qnorm(deriv_y(imm.N, grid.hy))) \
        / max(rms(qnorm(imm.fx)), 1e-300)
    if rms(H) < 1e-4 * max(curvscale, 1e-300):
        raise ValueError("mean curvature vanishes identically: epsilon "
                         "determination needs a non-minimal surface")

    mean_H = float(np.mean(interior(H)))
    if mean_H != 0.0 and float(np.std(interior(H))) / abs(mean_H) < 1e-6:
        return None
    Hx = interior(deriv_x(H, grid.hx))
    Hy = interior(deriv_y(H, grid.hy))
    sx = interior(deriv_x(s, grid.hx))
    sy = interior(deriv_y(s, grid.hy))

    dH = np.sqrt(np.mean(Hx ** 2 + Hy ** 2))
    if dH == 0.0:
        return None
    ds2 = np.sum(sx ** 2 + sy ** 2)
    if ds2 <= 0:
        return None
    c = float(np.sum(Hx * sx + Hy * sy) / ds2)
    misfit = np.sqrt(np.mean((Hx - c * sx) ** 2 + (Hy - c * sy) ** 2)) / dH
    if misfit > _CMC_FIT_TOL or c <= 0:
        return None
    eps2 = H / c - s
    m = float(np.mean(interior(eps2)))
    if m <= 0:
        return None
    if float(np.std(interior(eps2))) > _CMC_FIT_TOL * max(m, rms(s)):
        return None
    return float(np.sqrt(m))
