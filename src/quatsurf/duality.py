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
                     _relative, _same_grid, build_immersion,
                     closedness_residual, deriv_x, deriv_y, form_rms,
                     raw_frame, rms)
from .quaddiff import (QuadDifferential, _hopf_defects, _zero_scale,
                       form_from_qdiff, zero_locus)
from .quaternions import (QForm, _split_rows, from_real, qdot, qinv, qmul,
                          qnorm, qnormsq, quat, to_vec, wedge)

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
    row_first = (Ax[jr:jr + 1] - Ax[jr:jr + 1, ir:ir + 1]) \
        + (By - By[jr:jr + 1])
    col_first = (By[:, ir:ir + 1] - By[jr:jr + 1, ir:ir + 1]) \
        + (Ax - Ax[:, ir:ir + 1])
    deviation = float(np.max(qnorm(row_first - col_first)))
    primitive = row_first - row_first[j0:j0 + 1, i0:i0 + 1]
    return primitive, deviation


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
    the conformal part of dN, NaN where the frame degenerates."""
    fx, _, N, nfx, nfy, crossnorm = raw_frame(grid, f)
    ok = crossnorm > 1e-12 * float(np.max(nfx * nfy))
    # a unit placeholder normal at degenerate nodes, which passes the
    # unit-N validation of the split
    N = np.where(ok[..., None], N, quat(0.0, 0.0, 0.0, 1.0))
    H, _ = _mean_curvature_x(N, deriv_x(N, grid.hx), deriv_y(N, grid.hy), fx)
    # nodes whose stencil touched a degenerate node are unreliable
    bad = ~ok
    for _ in range(2):
        p = np.pad(bad, 1)
        bad = (p[1:-1, 1:-1] | p[:-2, 1:-1] | p[2:, 1:-1] | p[1:-1, :-2]
               | p[1:-1, 2:])
    return np.where(bad, np.nan, H)


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
    tau = dual.tau
    dN = curv.dN
    Hs = dual.Hstar
    ok = np.isfinite(Hs)

    resid_a = dN - tau * Hs[..., None] + imm.df * curv.H[..., None]
    rel_a = _relative(rms(resid_a.norm()[ok]), form_rms(dN))

    W1 = wedge(tau, curv.omega)
    W2 = wedge(curv.omega, tau)
    rel_b = _relative(rms(qnorm(W1 - W2)), rms(qnorm(W1)))

    # a is undefined where df* vanishes (the dual's branch points), so
    # the fit skips those nodes, as (a) skips nodes where H* is NaN
    num = qdot(curv.omega.ax, tau.ax) + qdot(curv.omega.ay, tau.ay)
    den = qnormsq(tau.ax) + qnormsq(tau.ay)
    fit = den > 0
    a_fit = np.full(den.shape, np.nan)
    a_fit[fit] = num[fit] / den[fit]
    a = a_fit[fit][:, None]
    resid_c = QForm(curv.omega.ax[fit] - a * tau.ax[fit],
                    curv.omega.ay[fit] - a * tau.ay[fit])
    rel_c = _relative(form_rms(resid_c), form_rms(curv.omega))

    diff = np.abs(a_fit - Hs)[ok]
    return {
        "classical_rel": rel_a,
        "wedge_rel": rel_b,
        "real_multiple_rel": rel_c,
        "fitted_vs_Hstar_rms": float(np.sqrt(np.mean(diff ** 2))),
    }


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
