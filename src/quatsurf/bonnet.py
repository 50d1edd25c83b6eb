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

from dataclasses import dataclass

import numpy as np

from .quaternions import (QForm, from_real, from_vec, qconj, qdot, qinv,
                          qmul, qnorm, qnormsq, star)
from .charts import (ChartImmersion, CurvatureData, build_immersion,
                     closedness_residual, deriv_x, deriv_y, floored_relative,
                     form_rms, interior, rms, umbilics, weingarten_split)
from .quaddiff import (QuadDifferential, cr_residual, form_from_qdiff,
                       qdiff_from_form, zero_locus)
from .duality import DualResult, integrate_form
from .align import congruence_distance


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
        if not np.isfinite(band).all():
            raise ValueError("non-finite spin value inside the band")
        mags = qnorm(band)
        if mags.min() <= 0.0:
            j, i = map(int, np.argwhere(mags == 0.0)[0])
            raise ValueError("spin field vanishes at node (j=%d, i=%d)"
                             % (j + lo, i))

    def band_rows(self):
        if self.row_span is None:
            return 0, self.grid.ny - 1
        return self.row_span


def _unwrap(lam):
    if isinstance(lam, SpinField):
        return lam.lam
    return np.asarray(lam, dtype=np.float64)


def spin_form(imm, lam):
    """The transformed differential conj(lam) df lam as a one-form."""
    lam = _unwrap(lam)
    lc = qconj(lam)
    return QForm(qmul(lc, qmul(imm.fx, lam)), qmul(lc, qmul(imm.fy, lam)))


def spin_closedness(imm, lam):
    """Per-node norm of Im(conj(lam)(fx lam_y - fy lam_x)).

    This is half the exterior derivative of conj(lam) df lam, so zero
    means the transformed differential integrates to a surface.
    """
    lam = _unwrap(lam)
    if qnorm(lam).min() == 0.0:
        raise ValueError("spin field vanishes on the chart")
    lam_x = deriv_x(lam, imm.grid.hx)
    lam_y = deriv_y(lam, imm.grid.hy)
    mix = qmul(qconj(lam), qmul(imm.fx, lam_y) - qmul(imm.fy, lam_x))
    mix[..., 0] = 0.0
    return qnorm(mix)


def spin_integrate(imm, lam, basepoint=(0, 0), closed_tol=5e-3,
                   chart_tol=1e-3):
    """Integrate the spin-transformed differential to a new immersion.

    Checks closedness first, integrates from the basepoint with value
    f(basepoint), validates the result as a conformal chart, and
    verifies the induced-metric identity I~ = |lam|^4 I.  Returns
    (immersion, report).
    """
    lam = _unwrap(lam)
    if qnorm(lam).min() == 0.0:
        raise ValueError("spin field vanishes on the chart")
    form = spin_form(imm, lam)
    _, rel = closedness_residual(imm.grid, form)
    if rel > closed_tol:
        raise ValueError(
            "spin transform is not closed: residual %.3e > %.3e"
            % (rel, closed_tol))

    prim, path_dev = integrate_form(imm.grid, form, basepoint)
    ftilde = prim + imm.f[basepoint[0], basepoint[1]]
    new = build_immersion(imm.grid, ftilde, chart_tol=chart_tol)

    lam4 = qnormsq(lam) ** 2
    pE, pF, pG = lam4 * qnormsq(imm.fx), lam4 * qdot(imm.fx, imm.fy), \
        lam4 * qnormsq(imm.fy)
    dE = qnormsq(new.fx) - pE
    dF = qdot(new.fx, new.fy) - pF
    dG = qnormsq(new.fy) - pG
    num = np.sqrt(np.mean(dE ** 2 + 2 * dF ** 2 + dG ** 2))
    den = np.sqrt(np.mean(pE ** 2 + 2 * pF ** 2 + pG ** 2))
    report = {
        "closedness_rel": rel,
        "path_deviation": path_dev,
        "metric_identity_rel": float(num / den) if den > 0 else 0.0,
    }
    return new, report


def _metric_tensor(form):
    E = qnormsq(form.ax)
    F = qdot(form.ax, form.ay)
    G = qnormsq(form.ay)
    I = np.empty(E.shape + (2, 2))
    I[..., 0, 0] = E
    I[..., 0, 1] = F
    I[..., 1, 0] = F
    I[..., 1, 1] = G
    return I


@dataclass(eq=False)
class BonnetPair:
    """The two mates and their comparison diagnostics.

    Iplus/Iminus are evaluated from the transform forms (exact algebra,
    so their agreement tests the |lam+| = |lam-| identity, not the
    integrator); Hplus/Hminus come from finite differences on the
    integrated mates and agree only at discretization order.
    curv_plus/curv_minus (and D, which is built from them) use the
    algebraic spin frames instead of the integrated positions, which
    avoids compounding path-integration noise under differentiation.
    """

    eps: float
    fplus: ChartImmersion
    fminus: ChartImmersion
    Hplus: np.ndarray
    Hminus: np.ndarray
    Iplus: np.ndarray
    Iminus: np.ndarray
    D: QuadDifferential
    lam_plus: np.ndarray
    lam_minus: np.ndarray
    form_plus: QForm
    form_minus: QForm
    curv_plus: CurvatureData
    curv_minus: CurvatureData
    metric_rel: float
    D_cr_rel: float
    congruence_rms: float
    normal_recovery_rel: float
    reports: dict


def _dual_positions(dual):
    if isinstance(dual, DualResult):
        return dual.fstar
    arr = np.asarray(dual, dtype=np.float64)
    return from_vec(arr) if arr.shape[-1] == 3 else arr


def bonnet_pair(imm, dual, eps, basepoint=(0, 0), closed_tol=5e-3,
                chart_tol=1e-3):
    """Build the mates for lam = fstar +- eps and compare them."""
    eps = float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    fstar = _dual_positions(dual)
    lam_p = fstar + from_real(eps)
    lam_m = fstar - from_real(eps)
    floor = 1e-12 * (eps + rms(qnorm(fstar)))
    if min(qnorm(lam_p).min(), qnorm(lam_m).min()) < floor:
        raise ValueError("eps on the singular sphere: the spin factor "
                         "vanishes at a node")

    fp, rep_p = spin_integrate(imm, lam_p, basepoint, closed_tol, chart_tol)
    fm, rep_m = spin_integrate(imm, lam_m, basepoint, closed_tol, chart_tol)

    # H from the integrated mates: an end-to-end check that integration
    # and curvature extraction commute at discretization order.
    Hp = weingarten_split(fp).H
    Hm = weingarten_split(fm).H

    # II and umbilics from the algebraic spin frames: the frames are
    # exact in lam and the background, so D is two derivative levels
    # cleaner than anything extracted from re-differentiated integrals.
    # Each frame is dropped after its split (only its df is kept), so
    # at most one frame's fields are alive at a time.
    frame = _spin_frame(imm, lam_p)
    form_p, curv_p = frame.df, weingarten_split(frame)
    del frame
    frame = _spin_frame(imm, lam_m)
    form_m, curv_m = frame.df, weingarten_split(frame)
    del frame

    Ip = _metric_tensor(form_p)
    Im_ = _metric_tensor(form_m)
    dI = Ip - Im_
    den = np.sqrt(np.mean(Ip ** 2))
    metric_rel = float(np.sqrt(np.mean(dI ** 2)) / den)

    # Coefficient of the (second fundamental form) difference against
    # dz^2 with this chart orientation; sign chosen so that the pairing
    # with 4 eps star(df*) below holds with a plus sign.
    dII = curv_p.II - curv_m.II
    Dphi = 0.5 * (dII[..., 1, 1] - dII[..., 0, 0]) + 1j * dII[..., 0, 1]
    D = QuadDifferential(imm.grid, Dphi)
    cr = cr_residual(D)
    gx = deriv_x(Dphi, imm.grid.hx)
    gy = deriv_y(Dphi, imm.grid.hy)
    # D carries one-sided-stencil noise in the outer two rings (it is
    # built from the mates' differentiated frames); its CR test applies
    # one more derivative, so four rings must be discarded before the
    # statistic means anything.
    def trim(a):
        return interior(interior(a))

    gscale = rms(np.sqrt(np.abs(trim(gx)) ** 2 + np.abs(trim(gy)) ** 2))
    D_cr_rel = floored_relative(imm.grid, rms(trim(cr)), gscale,
                                rms(np.abs(Dphi)))

    cong = congruence_distance(fp.positions, fm.positions)

    rec = 0.0
    for lam, mate in ((lam_p, fp), (lam_m, fm)):
        back = qmul(lam, qmul(mate.N, qinv(lam)))
        rec = max(rec, rms(qnorm(back - imm.N)))

    return BonnetPair(eps, fp, fm, Hp, Hm, Ip, Im_, D,
                      lam_p, lam_m, form_p, form_m, curv_p, curv_m,
                      metric_rel, D_cr_rel, cong, rec,
                      {"plus": rep_p, "minus": rep_m})


def shape_distortion_check(imm, dual, pair):
    """Residual of the identity pairing the shape distortion with the
    rotated dual differential: df applied to D against 4 eps star(df*).
    Returns (per-node field, relative RMS)."""
    lhs = form_from_qdiff(imm, pair.D)
    rhs = star(dual.tau) * (4.0 * pair.eps)
    resid = lhs - rhs
    rel = form_rms(resid) / form_rms(rhs)
    return resid.norm(), rel


def umbilic_branch_correspondence(pair, dual, tol=1e-6):
    """Compare the umbilic nodes of the mates, the zero nodes of the
    shape distortion, and the branch nodes of the dual."""
    umb_p = set(umbilics(pair.curv_plus, tol))
    umb_m = set(umbilics(pair.curv_minus, tol))
    try:
        znodes, zmults, _ = zero_locus(pair.D, tol=tol)
        dzeros = set(znodes)
    except ValueError:
        dzeros = set()
    branch = set(tuple(n) for n in dual.branch_nodes)
    sets = {"umbilics_plus": umb_p, "umbilics_minus": umb_m,
            "distortion_zeros": dzeros, "branch_nodes": branch}
    names = list(sets)
    all_match = all(sets[a] == sets[b]
                    for a in names for b in names)
    return {
        "umbilics_plus": sorted(umb_p),
        "umbilics_minus": sorted(umb_m),
        "distortion_zeros": sorted(dzeros),
        "branch_nodes": sorted(branch),
        "all_match": bool(all_match),
    }


def _spin_frame(imm, lam):
    """Algebraic frame of the transformed immersion (no integration):
    fx~ = conj(lam) fx lam, N~ = lam^-1 N lam, e^{u~} = |lam|^2 e^u."""
    lam = _unwrap(lam)
    df = spin_form(imm, lam)
    Nt = qmul(qinv(lam), qmul(imm.N, lam))
    ut = imm.u + np.log(qnormsq(lam))
    zero = np.zeros_like(imm.u)
    return ChartImmersion(imm.grid, np.zeros_like(imm.f), df.ax, df.ay, Nt,
                          ut, zero)


def gauge_check(imm, lam, tau_tilde, tol=1e-3):
    """Conjugation consistency of the form/differential pairing under a
    spin transform.

    Reads tau_tilde as a differential with respect to the transformed
    frame, re-expresses that differential as a form with respect to the
    original immersion, and compares against lam tau_tilde conj(lam).
    Pointwise algebra: the residual is at rounding level whenever
    tau_tilde is anti-conformal and tangential for the transformed
    frame.  Returns (per-node field, relative RMS).
    """
    lam = _unwrap(lam)
    frame_t = _spin_frame(imm, lam)
    phi_t = qdiff_from_form(frame_t, tau_tilde, tol=tol)
    lhs = form_from_qdiff(imm, phi_t)
    rhs = QForm(qmul(lam, qmul(tau_tilde.ax, qconj(lam))),
                qmul(lam, qmul(tau_tilde.ay, qconj(lam))))
    resid = lhs - rhs
    rel = form_rms(resid) / form_rms(rhs)
    return resid.norm(), rel


def cmc_eps_uniqueness(imm, dual, H_field=None, fstar=None, fit_tol=1e-3,
                       cmc_tol=1e-6):
    """Solve dH = c d|fstar|^2 in least squares and recover the unique
    eps = sqrt(H/c - |fstar|^2) when the relation holds with a positive
    constant; returns None when the data admit no such eps (including
    every CMC input, where c = 0).  Rejects minimal surfaces: with
    H = 0 the construction has no epsilon to determine.
    """
    grid = imm.grid if imm is not None else dual.grid
    if H_field is None:
        H_field = weingarten_split(imm).H
    H = np.asarray(H_field, dtype=np.float64)
    if fstar is None:
        fstar = _dual_positions(dual)
    s = qnormsq(np.asarray(fstar, dtype=np.float64))

    # minimal test against a curvature scale, not machine zero: H of a
    # sampled minimal surface is pure stencil noise (~1e-6 at n=65)
    if imm is not None:
        curvscale = rms(qnorm(deriv_x(imm.N, grid.hx))
                        + qnorm(deriv_y(imm.N, grid.hy))) \
            / max(rms(qnorm(imm.fx)), 1e-300)
    else:
        curvscale = 1.0
    if rms(H) < 1e-4 * max(curvscale, 1e-300):
        raise ValueError("mean curvature vanishes identically: epsilon "
                         "determination needs a non-minimal surface")

    sl = (slice(2, -2), slice(2, -2))
    mean_H = float(np.mean(H[sl]))
    if mean_H != 0.0 and float(np.std(H[sl])) / abs(mean_H) < cmc_tol:
        return None
    Hx = deriv_x(H, grid.hx)[sl]
    Hy = deriv_y(H, grid.hy)[sl]
    sx = deriv_x(s, grid.hx)[sl]
    sy = deriv_y(s, grid.hy)[sl]

    dH = np.sqrt(np.mean(Hx ** 2 + Hy ** 2))
    if dH == 0.0:
        return None
    ds2 = np.sum(sx ** 2 + sy ** 2)
    if ds2 <= 0:
        return None
    c = float(np.sum(Hx * sx + Hy * sy) / ds2)
    misfit = np.sqrt(np.mean((Hx - c * sx) ** 2 + (Hy - c * sy) ** 2)) / dH
    if misfit > fit_tol or c <= 0:
        return None
    eps2 = H / c - s
    m = float(np.mean(eps2[sl]))
    if m <= 0:
        return None
    if float(np.std(eps2[sl])) > fit_tol * max(m, rms(s)):
        return None
    return float(np.sqrt(m))
