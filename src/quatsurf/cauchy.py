"""Row-marching solver for the conformal deformation Cauchy problem.

Given a background conformal immersion, a holomorphic quadratic
differential q, and an initial grid row, the solver marches a
quaternion spin field lam away from the row so that the deformed
differential conj(lam) df lam stays closed and the deformed immersion
stays compatible with q.  With lam = 1 on the row the deformed
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

import operator
from dataclasses import dataclass

import numpy as np

from .quaternions import (_qempty, qconj, qinv, qmul, qnorm, qnormsq,
                          split_value, to_vec)
from .charts import (_CHART_TOL, GridChart, _relative, deriv_x, deriv_y,
                     floored_relative, form_rms, rms, weingarten_split)
from .quaddiff import (_MIN_MARGIN_DEG, QuadDifferential,
                       _line_angle_distance, form_from_qdiff,
                       noncharacteristic, stretch_directions)
from .duality import _CLOSED_TOL
from .bonnet import SpinField, _integrate_spin, _spin_transform

# largest condition number of a row's 4x4 systems the march accepts
_COND_LIMIT = 1e8
# fewest rows of a marched band that reconstruct can differentiate
_MIN_BAND_ROWS = 5
# the reference angles characteristic_angles chooses its pencil's s from
_REFERENCE_ANGLES = np.arange(4) * (np.pi / 4)


# The Hamilton product's table on the basis (1, i, j, k), taken from
# qmul once: _PRODUCTS[a, b] = e_a e_b.  Both multiplication matrices
# are q contracted with it; every entry is one signed component of q.
_BASIS = np.eye(4)
_PRODUCTS = qmul(_BASIS[:, None, :], _BASIS[None, :, :])
_LEFT = _PRODUCTS.transpose(0, 2, 1).reshape(4, 16)   # q e_k = q_a e_a e_k
_RIGHT = _PRODUCTS.transpose(1, 2, 0).reshape(4, 16)  # e_k q = q_a e_k e_a


def _left_matrix(q):
    """(..., 4, 4) matrix of alpha -> q alpha."""
    q = np.asarray(q, dtype=np.float64)
    return (q @ _LEFT).reshape(q.shape[:-1] + (4, 4))


def _right_matrix(q):
    """(..., 4, 4) matrix of alpha -> alpha q."""
    q = np.asarray(q, dtype=np.float64)
    return (q @ _RIGHT).reshape(q.shape[:-1] + (4, 4))


def _system(A, B, N):
    """(..., 4, 4) matrix of alpha -> (Im(A alpha), -<N, Im(alpha B)>)
    for quaternions A, B and normals N given as (..., 3) vectors."""
    M = np.empty(np.broadcast_shapes(A.shape, B.shape)[:-1] + (4, 4))
    M[..., 0:3, :] = _left_matrix(A)[..., 1:4, :]
    M[..., 3, :] = -np.einsum("...k,...kc->...c", N,
                              _right_matrix(B)[..., 1:4, :])
    return M


@dataclass(eq=False)
class SymbolMap:
    """The principal symbol for a covector xi: the linear map
    alpha -> (Im(df(v) alpha), -<N, Im(alpha tau(v))>) on quaternions,
    v = (xi2, -xi1), at one node or a stack of nodes."""

    matrix: np.ndarray
    normalization: np.ndarray

    def normalized_det(self):
        return np.linalg.det(self.matrix) / self.normalization


def symbol(imm, tau, node, xi):
    """Principal symbol at node = (j, i) for covector xi = (xi1, xi2);
    node indexes the grid arrays, so a slice or index arrays in it give
    the symbols of those nodes as one stack."""
    node = tuple(node)
    xi1, xi2 = float(xi[0]), float(xi[1])
    M = _system(xi2 * imm.fx[node] - xi1 * imm.fy[node],
                xi2 * tau.ax[node] - xi1 * tau.ay[node], to_vec(imm.N[node]))
    u = imm.u[node]
    taumag = np.sqrt((qnormsq(tau.ax[node]) + qnormsq(tau.ay[node])) / 2)
    normalization = (np.exp(2.0 * u) * (taumag * np.exp(u))
                     * (xi1 ** 2 + xi2 ** 2) ** 2)
    return SymbolMap(M, np.where(normalization == 0.0, 1.0, normalization))


def characteristic_angles(imm, tau, node):
    """Sorted angles t in [0, 2 pi) where the symbol at the covector
    (cos t, sin t) is singular.

    With P1, P2 the symbols at xi = (1, 0), (0, 1), the symbol at
    t = s + phi is cos(phi) A + sin(phi) B for A = cos(s) P1 + sin(s) P2,
    B = cos(s) P2 - sin(s) P1, so each real eigenvalue mu of A^-1 B gives
    the line t = s + atan2(1, -mu), t + pi.  The reference angle s is the
    one of 0, pi/4, pi/2, 3 pi/4 whose A has the largest |det|.  Refused
    with ValueError: a node where the differential vanishes, and one
    where all four A have det exactly 0 (a symbol singular for every
    covector, so no angle is characteristic).
    """
    j, i = node
    if not (np.any(tau.ax[j, i]) or np.any(tau.ay[j, i])):
        raise ValueError("the symbol pencil is singular at node (j=%d, i=%d):"
                         " the differential vanishes there" % (j, i))
    P1 = symbol(imm, tau, (j, i), (1.0, 0.0)).matrix
    P2 = symbol(imm, tau, (j, i), (0.0, 1.0)).matrix
    c, s = np.cos(_REFERENCE_ANGLES), np.sin(_REFERENCE_ANGLES)
    A = c[:, None, None] * P1 + s[:, None, None] * P2
    dets = np.abs(np.linalg.det(A))
    k = int(np.argmax(dets))
    if dets[k] == 0.0:
        raise ValueError("the symbol pencil is singular at node (j=%d, i=%d):"
                         " the symbol is singular for every covector"
                         % (j, i))
    mu = np.linalg.eigvals(np.linalg.solve(A[k], c[k] * P2 - s[k] * P1))
    real = mu.imag == 0
    t = _REFERENCE_ANGLES[k] + np.arctan2(1.0, -mu.real[real])
    t = np.concatenate([t, t + np.pi]) % (2 * np.pi)
    # a root just below 0 rounds to 2 pi under the modulo
    return sorted(np.where(t < 2 * np.pi, t, 0.0))


def _integer(value, name):
    """value as an int: integer types only (operator.index), not bool."""
    if isinstance(value, bool):
        raise TypeError("%s must be an integer, not bool" % name)
    return operator.index(value)


class CauchyProblem:
    """Background immersion + differential + initial grid row, with the
    row's stretch margin (margin_ok, margin_deg): its one test."""

    def __init__(self, background, q, row):
        self.imm = background
        q = QuadDifferential.coerce(background.grid, q)
        self.q = q
        self.row = _integer(row, "row")
        self.tau = form_from_qdiff(background, q)
        self.margin_ok, self.margin_deg = noncharacteristic(q, self.row)


def check_wellposed(prob):
    """Raise on a characteristic initial row (stretch margin below
    _MIN_MARGIN_DEG), else report the margin and the least normalized
    symbol determinant over the row for xi = (0, 1), which is |sin 2 theta|
    (|fx| / |fy|)^(3/2), theta the row's angle to the horizontal foliation:
    the margin times the local stretch, a health figure, not a test."""
    if not prob.margin_ok:
        raise ValueError("characteristic initial curve: margin %.2f deg "
                         "(need >= %.2f)" % (prob.margin_deg, _MIN_MARGIN_DEG))
    dets = symbol(prob.imm, prob.tau, (prob.row, slice(None)),
                  (0.0, 1.0)).normalized_det()
    return {
        "row": prob.row,
        "min_normalized_det": float(np.min(np.abs(dets))),
        "angular_margin_deg": prob.margin_deg,
        "min_margin_deg": _MIN_MARGIN_DEG,
    }


def _march_span(row, steps, ny):
    """(first, last) row a march of steps rows per side off row reaches."""
    return max(row - steps, 0), min(row + steps, ny - 1)


def _certified(M):
    """True when every 4x4 system of the stack M provably clears
    _COND_LIMIT, by a bound at most _COND_LIMIT / 2 (a factor 2 for
    rounding).  Scaled to |M|_F = 1 no singular value exceeds 1, so
    cond_2(M) <= 1 / |det|.  A NaN (zero or non-finite system) or
    smaller determinant is not a verdict; the caller then takes the
    exact condition number."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm = np.sqrt(np.einsum("...ij,...ij->...", M, M))[..., None, None]
        det = np.abs(np.linalg.det(M / norm))
    # NaN compares False, so a NaN determinant is not certified either
    return bool(np.all(det >= 2 / _COND_LIMIT))


def _qmul_real(a, b):
    """qmul(a, b)[..., 0] bit for bit: Re(a b) in qmul's operation order."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return aw * bw - ((ax * bx + ay * by) + az * bz)


def _stack(*qs):
    """Quaternion arrays as one stack over four contiguous planes."""
    out = _qempty((len(qs),) + qs[0].shape[:-1])
    for k, q in enumerate(qs):
        out[k] = q
    return out


def _solve_rows(lams, js, prob, wz):
    """lam_y on rows js from the 4x4 systems; lams is the (m, nx, 4)
    stack of those rows and wz the grid's (omega ^ tau - tau ^ omega)
    real part."""
    imm = prob.imm
    lam_x = deriv_x(lams, imm.grid.hx)
    lc = qconj(lams)
    lai = qinv(lams)
    Nv = to_vec(imm.N[js])
    # the six products in two stacked calls: fy lam_x and lai tau first,
    # then lc fx, lc (fy lam_x) and lam_x (lai tau_y)
    p = qmul(_stack(imm.fy[js], lai, lai),
             _stack(lam_x, prob.tau.ax[js], prob.tau.ay[js]))
    r = qmul(_stack(lc, lc, lam_x), _stack(imm.fx[js], p[0], p[2]))

    M = _system(r[0], p[1], Nv)
    b = np.zeros(lams.shape)
    b[..., 0:3] = r[1][..., 1:4]
    b[..., 3] = wz[js] / 4.0 - np.einsum("...k,...k->...", Nv,
                                         r[2][..., 1:4])

    if not _certified(M):
        for j, Mj in zip(js, M):
            conds = np.linalg.cond(Mj)
            worst = int(np.argmax(conds))
            if conds[worst] > _COND_LIMIT:
                raise RuntimeError(
                    "march aborted: system condition %.3e exceeds %.1e at "
                    "node (j=%d, i=%d); the march is approaching a "
                    "characteristic direction"
                    % (float(conds[worst]), _COND_LIMIT, j, worst))
    return np.linalg.solve(M, b[..., None])[..., 0]


def march_solve(prob, steps, lam0=None):
    """March the spin field away from the initial row (both directions).

    steps counts rows marched per side; the result is a SpinField whose
    band spans the reached rows, with lam equal to the initial data on
    the initial row exactly.  Uses an explicit predictor-corrector step of
    one grid row in the march direction and 4th-order differences along
    rows.  Both directions march together, each predictor and each
    corrector one stacked solve of both rows (the step-0 predictor,
    the same for both, once).  lam0 is checked as a SpinField row:
    finite and nonzero at every node.  The march aborts where a row
    system's condition number exceeds _COND_LIMIT (taken by SVD for
    each stack the determinant certificate of _certified leaves open)
    or min |lam| on a row falls below 1e-6 of its initial value; the
    abort reported is the one a march of the whole upward side first,
    then the downward side, meets.
    """
    n = _integer(steps, "steps")
    if n < 0:
        raise ValueError("steps must be >= 0, got %d" % n)
    check_wellposed(prob)
    grid = prob.imm.grid
    omega = weingarten_split(prob.imm).omega
    # Re(a b) == Re(b a) bit for bit: wz is twice Re(omega ^ tau) exactly
    wz = 2.0 * (_qmul_real(omega.ax, prob.tau.ay)
                - _qmul_real(omega.ay, prob.tau.ax))

    lam = np.full((grid.ny, grid.nx, 4), np.nan)
    if lam0 is None:
        lam[prob.row] = (1.0, 0.0, 0.0, 0.0)
    else:
        row0 = np.asarray(lam0, dtype=np.float64)
        if row0.shape != (grid.nx, 4):
            raise ValueError("initial spin row must be (nx, 4)")
        lam[prob.row] = row0
        SpinField(grid, lam, row_span=(prob.row, prob.row))
    ref_mag = float(qnorm(lam[prob.row]).min())

    def march(sides):
        d = np.array(sides)
        j = np.full(len(d), prob.row)
        for step in range(n):
            keep = (j + d >= 0) & (j + d < grid.ny)
            d, j = d[keep], j[keep]
            if not len(d):
                break
            h = (d * grid.hy)[:, None, None]
            # the step-0 predictor is the same for both sides: one solve
            s = 1 if step == 0 else len(j)
            k1 = _solve_rows(lam[j[:s]], j[:s], prob, wz)
            k2 = _solve_rows(lam[j] + h * k1, j + d, prob, wz)
            j = j + d
            lam[j] = lam[j - d] + 0.5 * h * (k1 + k2)
            low = qnorm(lam[j]).min(axis=-1)
            if np.any(low < 1e-6 * ref_mag):
                raise RuntimeError(
                    "march aborted: |lambda| collapsed to %.3e of its "
                    "initial size at row j=%d"
                    % (low.min() / ref_mag, j[np.argmin(low)]))

    try:
        # a floating-point event that would warn raises here instead
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            march((1, -1))
    except Exception:
        # one side at a time: what is raised or warned is then what a
        # march of the upward side before the downward side meets
        march((1,))
        march((-1,))
    return SpinField(grid, lam, row_span=_march_span(prob.row, n, grid.ny))


def reconstruct(prob, spin, closed_tol=_CLOSED_TOL, chart_tol=_CHART_TOL):
    """Integrate the deformed differential over the marched band, from
    the first node of the initial row.

    Returns (immersion on the band sub-grid, report) where the report
    carries (a) the match of the new differential to the background one
    along the initial row, (b) the closedness residual of the
    transformed differential, and (c) the two components (tangential /
    normal) of the compatibility residual d(df~ \\ q).
    """
    grid = prob.imm.grid
    j_lo, j_hi = spin.band_rows()
    nrows = j_hi - j_lo + 1
    if nrows < _MIN_BAND_ROWS:
        raise ValueError("marched band too thin to differentiate (need at "
                         "least %d rows, have %d)" % (_MIN_BAND_ROWS, nrows))
    band = slice(j_lo, j_hi + 1)
    sub = GridChart(grid.nx, nrows, grid.hx, grid.hy, grid.x0,
                    grid.y0 + j_lo * grid.hy)
    form = _spin_transform(spin.lam[band], prob.imm.fx[band],
                           prob.imm.fy[band])

    jc = prob.row - j_lo
    new, closed_rel, path_dev = _integrate_spin(
        sub, form, prob.imm.f[prob.row, 0], closed_tol, chart_tol,
        basepoint=(jc, 0))

    dnum = np.sqrt(qnormsq(new.fx[jc] - prob.imm.fx[prob.row])
                   + qnormsq(new.fy[jc] - prob.imm.fy[prob.row]))
    dden = rms(np.sqrt(qnormsq(prob.imm.fx[prob.row])
                       + qnormsq(prob.imm.fy[prob.row])))
    curve_match = _relative(rms(dnum), dden)

    q_band = QuadDifferential(sub, prob.q.phi[band])
    tau_t = form_from_qdiff(new, q_band)
    dtx = deriv_y(tau_t.ax, sub.hy)
    dty = deriv_x(tau_t.ay, sub.hx)
    dtau = dty - dtx
    tscale = rms(np.sqrt(qnormsq(dtx) + qnormsq(dty)))
    tau_mag = form_rms(tau_t)
    tang, perp = split_value(dtau, new.N)
    q_res_tang = floored_relative(sub, rms(qnorm(tang)), tscale, tau_mag)
    q_res_norm = floored_relative(sub, rms(qnorm(perp)), tscale, tau_mag)

    report = {
        "rows": (j_lo, j_hi),
        "curve_match_rel": float(curve_match),
        "closedness_rel": float(closed_rel),
        "q_residual_tangential_rel": float(q_res_tang),
        "q_residual_normal_rel": float(q_res_norm),
        "path_deviation": float(path_dev),
    }
    return new, report


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
