"""Row-marching solver for the conformal deformation Cauchy problem.

Given a background conformal immersion, a holomorphic quadratic
differential q, and a grid-row initial curve, the solver marches a
quaternion spin field lam away from the row so that the deformed
differential conj(lam) df lam stays closed and the deformed immersion
stays compatible with q.  With lam = 1 on the curve the deformed
surface agrees with the background along it.

At each node the four real components of the row-normal derivative
lam_y solve a 4x4 linear system:

  rows 1-3:  Im(conj(lam)(fx lam_y - fy lam_x)) = 0        (closedness)
  row 4:     Re(Im(lam_x lam^-1 tau_y - lam_y lam^-1 tau_x) N)
             + (omega ^ tau - tau ^ omega)/4 = 0            (q row)

where tau is the form of q through the background frame and omega is
the anti-conformal part of dN.  The system degenerates exactly when
the conormal of the row aligns with a principal stretch direction of
q, which is what the symbol machinery below quantifies.
"""

from dataclasses import dataclass

import numpy as np

from .quaternions import (QForm, qconj, qinv, qmul, qnorm, qnormsq, to_vec,
                          value_tangential, wedge)
from .charts import (GridChart, build_immersion, closedness_residual,
                     deriv_x, deriv_y, floored_relative, form_rms, rms,
                     weingarten_split)
from .quaddiff import (ChartCurve, QuadDifferential, _line_angle_distance,
                       form_from_qdiff, noncharacteristic,
                       stretch_directions)
from .duality import integrate_form
from .bonnet import SpinField


def left_matrix(q):
    """(..., 4, 4) matrix of alpha -> q alpha."""
    w, x, y, z = (q[..., k] for k in range(4))
    M = np.empty(q.shape[:-1] + (4, 4))
    M[..., 0, 0], M[..., 0, 1], M[..., 0, 2], M[..., 0, 3] = w, -x, -y, -z
    M[..., 1, 0], M[..., 1, 1], M[..., 1, 2], M[..., 1, 3] = x, w, -z, y
    M[..., 2, 0], M[..., 2, 1], M[..., 2, 2], M[..., 2, 3] = y, z, w, -x
    M[..., 3, 0], M[..., 3, 1], M[..., 3, 2], M[..., 3, 3] = z, -y, x, w
    return M


def right_matrix(q):
    """(..., 4, 4) matrix of alpha -> alpha q."""
    w, x, y, z = (q[..., k] for k in range(4))
    M = np.empty(q.shape[:-1] + (4, 4))
    M[..., 0, 0], M[..., 0, 1], M[..., 0, 2], M[..., 0, 3] = w, -x, -y, -z
    M[..., 1, 0], M[..., 1, 1], M[..., 1, 2], M[..., 1, 3] = x, w, z, -y
    M[..., 2, 0], M[..., 2, 1], M[..., 2, 2], M[..., 2, 3] = y, -z, w, x
    M[..., 3, 0], M[..., 3, 1], M[..., 3, 2], M[..., 3, 3] = z, y, -x, w
    return M


@dataclass(eq=False)
class SymbolMap:
    """The principal symbol at one node and covector: the linear map
    alpha -> Re(Im(alpha B) N) + Im(A alpha) on quaternions, with
    A = xi2 fx - xi1 fy and B = xi1 tau_y - xi2 tau_x (both tangential).
    """

    matrix: np.ndarray
    A: np.ndarray
    B: np.ndarray
    xi: tuple
    normalization: float

    def det(self):
        return float(np.linalg.det(self.matrix))

    def normalized_det(self):
        return self.det() / self.normalization

    def kernel_dim(self, tol=1e-8):
        s = np.linalg.svd(self.matrix, compute_uv=False)
        top = s[0] if s[0] > 0 else 1.0
        return int(np.sum(s < tol * top))


def symbol(imm, tau, node, xi):
    """Principal symbol at a grid node for covector xi = (xi1, xi2)."""
    j, i = node
    xi1, xi2 = float(xi[0]), float(xi[1])
    A = xi2 * imm.fx[j, i] - xi1 * imm.fy[j, i]
    B = xi1 * tau.ay[j, i] - xi2 * tau.ax[j, i]
    N = imm.N[j, i]
    M = np.zeros((4, 4))
    M[1:4, :] = left_matrix(A)[1:4, :]
    M[0, :] = -N[1:] @ right_matrix(B)[1:4, :]
    e2u = float(np.exp(2.0 * imm.u[j, i]))
    taumag = np.sqrt(float(qnormsq(tau.ax[j, i]) + qnormsq(tau.ay[j, i])) / 2)
    phimag = taumag * float(np.exp(imm.u[j, i]))
    ximag4 = (xi1 ** 2 + xi2 ** 2) ** 2
    normalization = e2u * phimag * ximag4
    if normalization == 0.0:
        normalization = 1.0
    return SymbolMap(M, A, B, (xi1, xi2), normalization)


def symbol_det_profile(imm, tau, node, n_angles=720):
    """Normalized symbol determinant over covector angles in [0, 2 pi)."""
    angles = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    dets = np.array([symbol(imm, tau, node,
                            (np.cos(t), np.sin(t))).normalized_det()
                     for t in angles])
    return angles, dets


def characteristic_angles(imm, tau, node, n_angles=720, refine_iters=50):
    """Angles in [0, 2 pi) where the symbol determinant vanishes,
    located by sign change and bisection."""
    angles, dets = symbol_det_profile(imm, tau, node, n_angles)
    zeros = []

    def det_at(t):
        return symbol(imm, tau, node, (np.cos(t), np.sin(t))).normalized_det()

    for k in range(n_angles):
        a, b = angles[k], angles[(k + 1) % n_angles] \
            if k + 1 < n_angles else 2 * np.pi
        da, db = dets[k], dets[(k + 1) % n_angles]
        if da == 0.0:
            zeros.append(a)
            continue
        if da * db < 0:
            lo, hi, dlo = a, b, da
            for _ in range(refine_iters):
                mid = 0.5 * (lo + hi)
                dm = det_at(mid)
                if dm == 0.0:
                    lo = hi = mid
                    break
                if dlo * dm < 0:
                    hi = mid
                else:
                    lo, dlo = mid, dm
            zeros.append(0.5 * (lo + hi))
    return sorted(z % (2 * np.pi) for z in zeros)


class CauchyProblem:
    """Background immersion + differential + grid-row initial curve."""

    def __init__(self, background, q, row, min_margin_deg=5.0,
                 zero_tol=1e-8):
        self.imm = background
        q = QuadDifferential.coerce(background.grid, q)
        self.q = q
        self.row = int(row)
        self.curve = ChartCurve.grid_row(background.grid, self.row)
        self.tau = form_from_qdiff(background, q)
        self.min_margin_deg = float(min_margin_deg)
        ok, margin = noncharacteristic(self.curve, q, imm=background,
                                       zero_tol=zero_tol,
                                       min_margin_deg=min_margin_deg)
        self.margin_deg = margin
        self.margin_ok = ok


def check_wellposed(prob, det_tol=0.01):
    """Well-posedness of marching off the initial row.

    Evaluates the normalized symbol determinant for the row conormal
    xi = (0, 1) at every curve node and the angular margin between the
    curve and the stretch foliations; raises on a characteristic curve.
    """
    dets = [abs(symbol(prob.imm, prob.tau, (prob.row, i),
                       (0.0, 1.0)).normalized_det())
            for i in range(prob.imm.grid.nx)]
    min_det = float(np.min(dets))
    report = {
        "row": prob.row,
        "min_normalized_det": min_det,
        "angular_margin_deg": prob.margin_deg,
        "det_tol": det_tol,
        "min_margin_deg": prob.min_margin_deg,
    }
    if not prob.margin_ok or min_det < det_tol:
        raise ValueError(
            "characteristic initial curve: margin %.2f deg "
            "(need >= %.2f), min normalized |det| %.3e (need >= %.3e)"
            % (prob.margin_deg, prob.min_margin_deg, min_det, det_tol))
    return report


def _row_fields(prob):
    """Precompute per-row background data used by the march."""
    imm = prob.imm
    omega = weingarten_split(imm).omega
    wz = (wedge(omega, prob.tau) - wedge(prob.tau, omega))[..., 0]
    return {"fx": imm.fx, "fy": imm.fy, "N": to_vec(imm.N),
            "taux": prob.tau.ax, "tauy": prob.tau.ay, "wz": wz}


def _solve_row(lam, j, fields, grid, cond_limit):
    """lam_y on row j from the 4x4 systems; lam is the (nx, 4) row."""
    lam_x = deriv_x(lam[None], grid.hx)[0]
    lc = qconj(lam)
    lai = qinv(lam)
    fx, fy = fields["fx"][j], fields["fy"][j]
    Nv = fields["N"][j]
    taux, tauy = fields["taux"][j], fields["tauy"][j]
    wz = fields["wz"][j]

    M = np.zeros((lam.shape[0], 4, 4))
    M[:, 0:3, :] = left_matrix(qmul(lc, fx))[:, 1:4, :]
    M[:, 3, :] = -np.einsum("nk,nkc->nc", Nv,
                            right_matrix(qmul(lai, taux))[:, 1:4, :])

    b = np.zeros((lam.shape[0], 4))
    b[:, 0:3] = qmul(lc, qmul(fy, lam_x))[:, 1:4]
    cross = qmul(lam_x, qmul(lai, tauy))
    b[:, 3] = wz / 4.0 - np.einsum("nk,nk->n", Nv, cross[:, 1:4])

    conds = np.linalg.cond(M)
    worst = int(np.argmax(conds))
    if conds[worst] > cond_limit:
        raise RuntimeError(
            "march aborted: system condition %.3e exceeds %.1e at node "
            "(j=%d, i=%d); the march is approaching a characteristic "
            "direction" % (float(conds[worst]), cond_limit, j, worst))
    return np.linalg.solve(M, b[..., None])[..., 0]


def march_solve(prob, steps, h_march=None, lam0=None, cond_limit=1e8,
                collapse_tol=1e-6):
    """March the spin field away from the initial row (both directions).

    steps counts rows marched per side; the result is a SpinField whose
    band spans the reached rows, with lam equal to the initial data on
    the curve row exactly.  Uses an explicit predictor-corrector step in
    the march direction and 4th-order differences along rows.
    """
    check_wellposed(prob)
    grid = prob.imm.grid
    if h_march is not None and not np.isclose(h_march, grid.hy):
        raise ValueError("march step must equal the grid row spacing "
                         "(background fields live on grid rows)")
    fields = _row_fields(prob)

    lam = np.full((grid.ny, grid.nx, 4), np.nan)
    if lam0 is None:
        row0 = np.zeros((grid.nx, 4))
        row0[:, 0] = 1.0
    else:
        row0 = np.asarray(lam0, dtype=np.float64)
        if row0.shape != (grid.nx, 4):
            raise ValueError("initial spin row must be (nx, 4)")
        if qnorm(row0).min() <= 0:
            raise ValueError("initial spin row vanishes at a node")
    lam[prob.row] = row0
    ref_mag = float(qnorm(row0).min())

    j_lo = j_hi = prob.row
    for direction in (+1, -1):
        h = direction * grid.hy
        j = prob.row
        for _ in range(int(steps)):
            jn = j + direction
            if jn < 0 or jn >= grid.ny:
                break
            k1 = _solve_row(lam[j], j, fields, grid, cond_limit)
            pred = lam[j] + h * k1
            k2 = _solve_row(pred, jn, fields, grid, cond_limit)
            lam[jn] = lam[j] + 0.5 * h * (k1 + k2)
            low = float(qnorm(lam[jn]).min())
            if low < collapse_tol * ref_mag:
                raise RuntimeError(
                    "march aborted: |lambda| collapsed to %.3e of its "
                    "initial size at row j=%d" % (low / ref_mag, jn))
            j = jn
            j_lo = min(j_lo, j)
            j_hi = max(j_hi, j)

    return SpinField(grid, lam, row_span=(j_lo, j_hi))


def reconstruct(prob, spin, basepoint=None, closed_tol=5e-3,
                chart_tol=1e-3):
    """Integrate the deformed differential over the marched band.

    Returns (immersion on the band sub-grid, report) where the report
    carries (a) the match of the new differential to the background one
    along the initial curve, (b) the closedness residual of the
    transformed differential, and (c) the two components (tangential /
    normal) of the compatibility residual d(df~ \\ q).
    """
    grid = prob.imm.grid
    j_lo, j_hi = spin.band_rows()
    nrows = j_hi - j_lo + 1
    if nrows < 5:
        raise ValueError("marched band too thin to differentiate "
                         "(need at least 5 rows, have %d)" % nrows)
    band = slice(j_lo, j_hi + 1)
    lam_b = spin.lam[band]
    fx_b = prob.imm.fx[band]
    fy_b = prob.imm.fy[band]
    sub = GridChart(grid.nx, nrows, grid.hx, grid.hy, grid.x0,
                    grid.y0 + j_lo * grid.hy)

    lc = qconj(lam_b)
    form = QForm(qmul(lc, qmul(fx_b, lam_b)), qmul(lc, qmul(fy_b, lam_b)))
    closed_field, closed_rel = closedness_residual(sub, form)
    if closed_rel > closed_tol:
        raise ValueError("transformed differential is not closed: "
                         "residual %.3e > %.3e" % (closed_rel, closed_tol))

    if basepoint is None:
        basepoint = (prob.row, 0)
    jb, ib = int(basepoint[0]), int(basepoint[1])
    if not (j_lo <= jb <= j_hi):
        raise ValueError("basepoint row outside the marched band")
    prim, path_dev = integrate_form(sub, form, basepoint=(jb - j_lo, ib))
    ftilde = prim + prob.imm.f[jb, ib]
    new = build_immersion(sub, ftilde, chart_tol=chart_tol)

    jc = prob.row - j_lo
    dnum = np.sqrt(qnormsq(new.fx[jc] - prob.imm.fx[prob.row])
                   + qnormsq(new.fy[jc] - prob.imm.fy[prob.row]))
    dden = rms(np.sqrt(qnormsq(prob.imm.fx[prob.row])
                       + qnormsq(prob.imm.fy[prob.row])))
    curve_match = rms(dnum) / dden if dden > 0 else 0.0

    q_band = QuadDifferential(sub, prob.q.phi[band])
    tau_t = form_from_qdiff(new, q_band)
    dtx = deriv_y(tau_t.ax, sub.hy)
    dty = deriv_x(tau_t.ay, sub.hx)
    dtau = dty - dtx
    tscale = rms(np.sqrt(qnormsq(dtx) + qnormsq(dty)))
    tau_mag = form_rms(tau_t)
    tang = value_tangential(dtau, new.N)
    perp = dtau - tang
    q_res_tang = floored_relative(sub, rms(qnorm(tang)), tscale, tau_mag)
    q_res_norm = floored_relative(sub, rms(qnorm(perp)), tscale, tau_mag)

    report = {
        "rows": (j_lo, j_hi),
        "curve_match_rel": float(curve_match),
        "closedness_rel": float(closed_rel),
        "q_residual_tangential_rel": float(q_res_tang),
        "q_residual_normal_rel": float(q_res_norm),
        "path_deviation": float(path_dev),
        "basepoint": (jb, ib),
    }
    return new, report


def build_background(imm, q, row, mu_row, steps, **march_kwargs):
    """Extend initial-curve data conj(mu) df mu off the curve into an
    honest conformal immersion.

    Marches the same first-order system with initial spin mu instead of
    1 and integrates the result, so the output is a genuine conformal
    immersion whose differential matches the prescribed one along the
    curve.  Returns (immersion on the band, spin field, report).
    """
    prob = CauchyProblem(imm, q, row)
    spin = march_solve(prob, steps, lam0=mu_row, **march_kwargs)
    new, report = reconstruct(prob, spin)
    return new, spin, report


def stretch_alignment(q, node, char_angles):
    """Angle errors (degrees) of characteristic covector angles against
    the stretch directions of q at the node, line-to-line."""
    horiz, vert = stretch_directions(q)
    j, i = node
    targets = [horiz[j, i], vert[j, i]]
    errs = []
    for t in char_angles:
        d = min(_line_angle_distance(t, s) for s in targets)
        errs.append(np.degrees(d))
    return errs
