"""Christoffel dualization: integrate df* = df\\q, verify the duality
identities, and classify pairs of immersions.

Charts are rectangles (simply connected), so closedness of the
reconstructed form is the only obstruction to integrating it.  Path
integrals use an endpoint-corrected trapezoid rule (Euler-Maclaurin
h^2/12 correction with 4th-order endpoint derivatives), which keeps
path-independence deviations at the same order as the stencils.
"""

from dataclasses import dataclass

import numpy as np

from .charts import (_CHART_TOL, GridChart, _deriv_x_rows, _mean_curvature_x,
                     _relative, _root_mean, _same_grid, build_immersion,
                     closedness_residual, deriv_x, deriv_y, form_rms,
                     raw_frame, rms)
from .quaddiff import (QuadDifferential, _hopf_defects, _zero_scale,
                       form_from_qdiff, zero_locus)
from .quaternions import (QForm, _qdot_rows, _qempty, _split_rows,
                          _wedge_rows, from_real, qdot, qinv, qmul, quat,
                          to_vec)

# default tolerance of the closedness gate; classify_christoffel's fixed one
_CLOSED_TOL = 5e-3
_CLASSIFY_TOL = 1e-3


def _cumint_x(g, hx):
    """Cumulative integral along axis 1 from column 0, corrected trapezoid."""
    return _split_rows(_cumint_x_rows, np.empty_like(g), (g,), hx)


def _cumint_x_rows(T, g, hx):
    """_cumint_x of a float64 field into T, row by row; the sums run
    along the rows, so each row is summed whole in either case."""
    T[:, 0] = 0.0
    np.cumsum(0.5 * hx * (g[:, :-1] + g[:, 1:]), axis=1, out=T[:, 1:])
    gp = _deriv_x_rows(np.empty_like(g), g, hx)
    T -= (hx * hx / 12.0) * (gp - gp[:, :1])
    return T


def _cumint_y(g, hy):
    """Cumulative integral along axis 0 from row 0: the _cumint_x rule
    applied to the axis-swapped view."""
    return _cumint_x(np.swapaxes(g, 0, 1), hy).swapaxes(0, 1)


def integrate_form(grid, form, basepoint=(0, 0)):
    """Path-integrate a closed one-form, zeroed at a basepoint node.

    Paths are routed through the chart center, where the stencils are
    centered and the form is most accurate: center row across, then
    up/down the column.  The primitive is shifted to vanish at basepoint
    (j0, i0).  Also returns the maximum deviation against the transposed
    (column-then-row) routing, which is the path-independence diagnostic.
    """
    j0, i0 = basepoint
    jr, ir = grid.ny // 2, grid.nx // 2
    Ax = _cumint_x(form.ax, grid.hx)
    By = _cumint_y(form.ay, grid.hy)
    # the row-first routing at the basepoint, in the routing's own order
    base = (Ax[jr:jr + 1, i0:i0 + 1] - Ax[jr:jr + 1, ir:ir + 1]) \
        + (By[j0:j0 + 1, i0:i0 + 1] - By[jr:jr + 1, i0:i0 + 1])
    shape = Ax.shape[:-1]
    primitive, gap = _split_rows(_routing_rows,
                                 (_qempty(shape), np.empty(shape)), (Ax, By),
                                 Ax[jr:jr + 1], By[jr:jr + 1], ir, base)
    return primitive, float(np.max(gap))


def _routing_rows(out, Ax, By, Ax_center, By_center, ir, base):
    """integrate_form's primitive and |row-first - column-first| per
    node into out, from the cumulative integrals' rows and their center
    row."""
    primitive, gap = out
    row_first = (Ax_center - Ax_center[:, ir:ir + 1]) + (By - By_center)
    col_first = (By[:, ir:ir + 1] - By_center[:, ir:ir + 1]) \
        + (Ax - Ax[:, ir:ir + 1])
    np.subtract(row_first, col_first, out=col_first)
    np.sqrt(_qdot_rows(gap, col_first, col_first), out=gap)
    np.subtract(row_first, base, out=primitive)


def _integrate_closed(grid, form, closed_tol, failure, basepoint=(0, 0)):
    """Gate a one-form on its closedness, then integrate it from basepoint.

    Raises ValueError("<failure> <residual> > <closed_tol>") when the
    relative closedness residual exceeds closed_tol.  Returns
    (primitive, closedness_rel, path_deviation).
    """
    _, rel = closedness_residual(grid, form)
    if rel > closed_tol:
        raise ValueError("%s %.3e > %.3e" % (failure, rel, closed_tol))
    primitive, deviation = integrate_form(grid, form, basepoint)
    return primitive, rel, deviation


def _mean_curvature(grid, f):
    """Mean curvature of a position array from the d/dx component of
    the conformal part of dN; NaN where the frame degenerates and where
    any derivative stencil reads such a node, the one-sided edge
    stencils (four nodes deep) included."""
    fx, _, N, nfx, nfy, crossnorm = raw_frame(grid, f)
    ok = crossnorm > 1e-12 * float(np.max(nfx * nfy))
    # a unit placeholder normal at degenerate nodes, which passes the
    # unit-N validation of the split
    N = np.where(ok[..., None], N, quat(0.0, 0.0, 0.0, 1.0))
    H = _mean_curvature_x(N, deriv_x(N, grid.hx), deriv_y(N, grid.hy), fx)
    if not ok.all():
        # the stencils carry a NaN marker to every node that reads it
        marker = np.where(ok, 0.0, np.nan)
        marker += deriv_x(marker, grid.hx) + deriv_y(marker, grid.hy)
        H[np.isnan(marker)] = np.nan
    return H


@dataclass(eq=False)
class DualResult:
    """Output of integrate_dual: the dual surface and its diagnostics."""

    grid: GridChart
    fstar: np.ndarray
    tau: QForm
    closedness_rel: float
    path_deviation: float
    branch_nodes: list
    branch_mults: list
    pole_nodes: list
    Hstar: np.ndarray

    @property
    def positions(self):
        return to_vec(self.fstar)

    def as_immersion(self, chart_tol=_CHART_TOL):
        """Build a validated immersion from the dual positions (fails on
        charts where the dual branches)."""
        return build_immersion(self.grid, self.positions, chart_tol=chart_tol)


def integrate_dual(imm, q, closed_tol=_CLOSED_TOL):
    """Integrate the dual surface from a holomorphic differential.

    Reconstructs tau = df\\q, measures its closedness, and integrates
    from the lower-left node.  Fails on the zero differential and on
    charts where tau is measurably non-closed (the immersion is not
    isothermic for this q).  Branch nodes are the zeros of q below
    1e-6 max|phi|; pole nodes are where |tau| exceeds 25 times its
    median.
    """
    q = QuadDifferential.coerce(imm.grid, q)
    _zero_scale(q)  # raises on the zero differential
    tau = form_from_qdiff(imm, q)
    fstar, closedness_rel, path_dev = _integrate_closed(
        imm.grid, tau, closed_tol,
        "not isothermic for this q: closedness residual")

    branch_nodes, branch_mults, _ = zero_locus(q, tol=1e-6)

    taumag = tau.norm()
    med = float(np.median(taumag))
    blowup = taumag > 25.0 * med if med > 0 else np.zeros_like(taumag, bool)
    pole_nodes = [(int(j), int(i)) for j, i in np.argwhere(blowup)]

    Hstar = _mean_curvature(imm.grid, fstar)
    return DualResult(imm.grid, fstar, tau, closedness_rel, path_dev,
                      branch_nodes, branch_mults, pole_nodes, Hstar)


def verify_duality(imm, dual, curv):
    """Residual report for the duality identities.

    (a) classical: dN - H* df* + H df, with df* taken as the
        reconstructed form and H* the measured mean curvature of the
        integrated dual;
    (b) wedge: df* ^ omega - omega ^ df*;
    (c) real multiple: omega - a df* with the pointwise least-squares
        real coefficient a, which is also cross-checked against H*.
    Returns a dict of relative residuals and the fitted-coefficient
    comparison (all chart-RMS normalized).
    """
    _same_grid(imm.grid, dual.grid)
    tau, omega, dN = dual.tau, curv.omega, curv.dN
    shape = tau.ax.shape[:-1]
    ok, fit, resid_a, dN_sq, wedge_gap, wedge_1, resid_c_sq, omega_sq, \
        a_gap = _split_rows(
            _duality_rows,
            (np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
            + tuple(np.empty(shape) for _ in range(7)),
            (dN.ax, dN.ay, tau.ax, tau.ay, omega.ax, omega.ay, imm.fx, imm.fy,
             curv.H, dual.Hstar))
    # (a) and the comparison with H* skip the nodes where H* is NaN, the
    # fit of (c) the nodes where df* vanishes (the dual's branch points)
    rel_a = _relative(rms(resid_a[ok]), _root_mean(dN_sq))
    rel_b = _relative(rms(wedge_gap), rms(wedge_1))
    rel_c = _relative(_root_mean(resid_c_sq[fit]), _root_mean(omega_sq))
    return {
        "classical_rel": rel_a,
        "wedge_rel": rel_b,
        "real_multiple_rel": rel_c,
        "fitted_vs_Hstar_rms": float(np.sqrt(np.mean(a_gap[ok] ** 2))),
    }


def _duality_rows(out, dNx, dNy, tx, ty, ox, oy, fx, fy, H, Hs):
    """verify_duality's per-node fields into out: where H* is finite,
    where df* is nonzero, |(a)|, |dN|^2, |(b)|, |df* ^ omega|, |(c)|^2,
    |omega|^2 and |a - H*|; (c) and a are NaN where df* vanishes."""
    ok, fit, resid_a, dN_sq, wedge_gap, wedge_1, resid_c_sq, omega_sq, \
        a_gap = out
    np.isfinite(Hs, out=ok)
    t = np.empty(ok.shape)

    # (a): |dN - H* df* + H df|, as QForm arithmetic orders it
    rx = dNx - tx * Hs[..., None]
    rx += fx * H[..., None]
    ry = dNy - ty * Hs[..., None]
    ry += fy * H[..., None]
    _qdot_rows(resid_a, rx, rx)
    resid_a += _qdot_rows(t, ry, ry)
    np.sqrt(resid_a, out=resid_a)
    _qdot_rows(dN_sq, dNx, dNx)
    dN_sq += _qdot_rows(t, dNy, dNy)
    del rx, ry

    # (b): wedge(df*, omega) - wedge(omega, df*)
    w1 = _wedge_rows(_qempty(ok.shape), tx, ty, ox, oy)
    w2 = _wedge_rows(_qempty(ok.shape), ox, oy, tx, ty)
    np.sqrt(_qdot_rows(wedge_1, w1, w1), out=wedge_1)
    np.subtract(w1, w2, out=w2)
    np.sqrt(_qdot_rows(wedge_gap, w2, w2), out=wedge_gap)
    del w1, w2

    # (c): omega - a df* with a the least-squares real coefficient
    num = _qdot_rows(np.empty(ok.shape), ox, tx)
    num += _qdot_rows(t, oy, ty)
    den = _qdot_rows(np.empty(ok.shape), tx, tx)
    den += _qdot_rows(t, ty, ty)
    np.greater(den, 0, out=fit)
    a = np.full(ok.shape, np.nan)
    np.divide(num, den, out=a, where=fit)
    del num, den
    rc = ox - a[..., None] * tx
    _qdot_rows(resid_c_sq, rc, rc)
    np.subtract(oy, np.multiply(a[..., None], ty, out=rc), out=rc)
    resid_c_sq += _qdot_rows(t, rc, rc)
    _qdot_rows(omega_sq, ox, ox)
    omega_sq += _qdot_rows(t, oy, oy)
    np.abs(np.subtract(a, Hs, out=a), out=a_gap)


def classify_christoffel(immA, immB):
    """Classify a pair of immersions on one grid.

    Returns "dual_pair" when dfB is anti-conformal tangential with
    respect to A's normal, "scaling" when dfB is a constant real
    multiple of dfA, and "unrelated" otherwise (including whenever the
    tangent planes fail to be parallel); each test holds to the fixed
    _CLASSIFY_TOL.
    """
    _same_grid(immA.grid, immB.grid)
    dot = np.abs(np.sum(to_vec(immA.N) * to_vec(immB.N), axis=-1))
    if float(np.max(1.0 - dot)) > 100 * _CLASSIFY_TOL:
        return "unrelated"

    dfB = immB.df
    if max(_hopf_defects(dfB, immA.N)) < _CLASSIFY_TOL:
        return "dual_pair"

    # dfB = (a + b N) dfA with a + i b fitted pointwise
    g = qmul(dfB.ax, qinv(immA.fx))
    a = g[..., 0]
    b = qdot(g, immA.N)
    coeff = from_real(a) + b[..., None] * immA.N
    pred = QForm(qmul(coeff, immA.fx), qmul(coeff, immA.fy))
    misfit = _relative(form_rms(dfB - pred), form_rms(dfB))
    # the bound on the fit's spread and imaginary part, at a's size
    bound = _CLASSIFY_TOL * max(1.0, float(np.mean(np.abs(a))))
    if misfit < _CLASSIFY_TOL and float(np.std(a)) < bound and rms(b) < bound:
        return "scaling"
    return "unrelated"
