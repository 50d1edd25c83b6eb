"""Complex quadratic differentials on a chart and the frame correspondence.

A quadratic differential is stored as its complex coefficient field phi
over the grid (the dz^2 coefficient in the chart coordinate z = x + iy).
This module provides the holomorphy residual, zero locus with winding
multiplicities, principal stretch foliations, the non-characteristic
curve test, and the two-way correspondence between coefficients and
anti-conformal tangential one-forms through an immersion's frame.
"""

import numpy as np

from .charts import deriv_x, deriv_y
from .quaternions import (QForm, anticonformal_defect, qdot, qinv, qmul,
                          qnormsq, value_transversal)


class QuadDifferential:
    """Coefficient field of a quadratic differential on a grid chart."""

    def __init__(self, grid, phi, pole_mask=None):
        phi = np.asarray(phi, dtype=np.complex128)
        if phi.shape != (grid.ny, grid.nx):
            raise ValueError("phi shape does not match the grid")
        self.grid = grid
        self.phi = phi
        self.pole_mask = (np.zeros(phi.shape, dtype=bool)
                          if pole_mask is None else np.asarray(pole_mask, bool))
        if not np.isfinite(phi[~self.pole_mask]).all():
            raise ValueError("phi must be finite away from flagged poles")

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full((grid.ny, grid.nx), value, dtype=np.complex128))

    @classmethod
    def coerce(cls, grid, q):
        """Pass an instance through unchanged; broadcast a complex scalar
        to the grid or wrap a complex (ny, nx) field."""
        if isinstance(q, cls):
            return q
        phi = np.asarray(q, dtype=np.complex128)
        if phi.ndim == 0:
            phi = np.full((grid.ny, grid.nx), phi)
        return cls(grid, phi)

    @classmethod
    def from_function(cls, grid, fn):
        """Sample fn(z) on the chart, z = x + i y."""
        X, Y = grid.mesh()
        return cls(grid, fn(X + 1j * Y))

    def max_abs(self):
        return float(np.max(np.abs(self.phi[~self.pole_mask])))


class ChartCurve:
    """Ordered chart points with tangent vectors, both in chart units."""

    def __init__(self, points, tangents):
        points = np.asarray(points, dtype=np.float64)
        tangents = np.asarray(tangents, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2 or points.shape != tangents.shape:
            raise ValueError("points and tangents must both be (k, 2)")
        if np.any(np.linalg.norm(np.diff(points, axis=0), axis=1) == 0.0):
            raise ValueError("consecutive curve points must be distinct")
        if np.any(np.linalg.norm(tangents, axis=1) == 0.0):
            raise ValueError("curve tangents must not vanish")
        self.points = points
        self.tangents = tangents

    @classmethod
    def grid_row(cls, grid, j):
        """The grid row y = y0 + j hy, oriented along +x."""
        if not 0 <= j < grid.ny:
            raise ValueError("row index out of range")
        pts = np.column_stack([grid.xs, np.full(grid.nx, grid.ys[j])])
        tans = np.tile([1.0, 0.0], (grid.nx, 1))
        return cls(pts, tans)


def cr_residual(q):
    """Holomorphy defect |d phi/dx + i d phi/dy| / 2 per node (the
    conjugate-coordinate derivative), by finite differences."""
    px = deriv_x(q.phi, q.grid.hx)
    py = deriv_y(q.phi, q.grid.hy)
    return 0.5 * np.abs(px + 1j * py)


def check_holomorphic(q, tol=1e-4):
    """Validate that the CR residual stays under tol * max|phi|."""
    worst = float(np.max(cr_residual(q)))
    bound = tol * q.max_abs()
    if worst > bound:
        raise ValueError(
            "differential is not holomorphic: CR residual %.3e > %.3e"
            % (worst, bound))
    return worst


def _winding(phi, j, i, radius=1):
    """Discrete winding number of arg phi on the node loop around (j, i)."""
    ny, nx = phi.shape
    lo_j, hi_j = j - radius, j + radius
    lo_i, hi_i = i - radius, i + radius
    if lo_j < 0 or lo_i < 0 or hi_j >= ny or hi_i >= nx:
        return None  # loop would leave the chart
    loop = []
    loop += [phi[lo_j, c] for c in range(lo_i, hi_i + 1)]
    loop += [phi[r, hi_i] for r in range(lo_j + 1, hi_j + 1)]
    loop += [phi[hi_j, c] for c in range(hi_i - 1, lo_i - 1, -1)]
    loop += [phi[r, lo_i] for r in range(hi_j - 1, lo_j, -1)]
    loop.append(loop[0])
    args = np.angle(np.asarray(loop))
    dargs = np.mod(np.diff(args) + np.pi, 2 * np.pi) - np.pi
    return int(np.round(np.sum(dargs) / (2 * np.pi)))


def zero_locus(q, tol=1e-8):
    """Nodes with |phi| < tol * max|phi|, with winding multiplicities.

    Returns (nodes, multiplicities, isolated_flag).  Adjacent below-tol
    nodes are grouped into one zero (reported at the smallest |phi|);
    a group larger than a 3x3 block flags non-isolation.  Raises on the
    zero differential, which carries no information.
    """
    phi = q.phi
    scale = float(np.max(np.abs(phi)))
    if scale == 0.0:
        raise ValueError("trivial differential")
    mask = np.abs(phi) < tol * scale
    hits = np.argwhere(mask)
    isolated = True
    groups = []
    seen = np.zeros(phi.shape, dtype=bool)
    for j, i in hits:
        if seen[j, i]:
            continue
        stack, members = [(j, i)], []
        seen[j, i] = True
        while stack:
            cj, ci = stack.pop()
            members.append((cj, ci))
            for dj in (-1, 0, 1):
                for di in (-1, 0, 1):
                    nj, ni = cj + dj, ci + di
                    if (0 <= nj < phi.shape[0] and 0 <= ni < phi.shape[1]
                            and mask[nj, ni] and not seen[nj, ni]):
                        seen[nj, ni] = True
                        stack.append((nj, ni))
        if len(members) > 9:
            isolated = False
        members.sort(key=lambda t: abs(phi[t]))
        groups.append(members[0])
    groups.sort()
    radius_needed = 2  # loop must clear the below-tol cluster
    mults = []
    for j, i in groups:
        w = _winding(phi, j, i, radius=radius_needed)
        if w is None:
            w = _winding(phi, j, i, radius=1)
        mults.append(w if w is not None else 0)
    nodes = [(int(j), int(i)) for j, i in groups]
    return nodes, mults, isolated


def stretch_directions(q, tol=1e-8):
    """Principal stretch foliations: angle fields (radians, mod pi).

    horizontal: directions where phi e^{2 i theta} is real positive;
    vertical: the orthogonal field.  Zero nodes (|phi| < tol max|phi|)
    are masked with NaN; evaluating a single zero node raises instead.
    """
    phi = q.phi
    scale = float(np.max(np.abs(phi)))
    if scale == 0.0:
        raise ValueError("trivial differential")
    horizontal = np.mod(-0.5 * np.angle(phi), np.pi)
    zeros = np.abs(phi) < tol * scale
    if zeros.all():
        raise ValueError("stretch directions undefined on the zero locus")
    horizontal = np.where(zeros, np.nan, horizontal)
    vertical = np.mod(horizontal + 0.5 * np.pi, np.pi)
    return horizontal, vertical


def _line_angle_distance(a, b):
    """Distance between two line directions, in [0, pi/2]."""
    d = np.mod(a - b, np.pi)
    return np.minimum(d, np.pi - d)


def _bilinear(field, grid, points):
    """Sample a complex/real node field at chart points (k, 2)."""
    x = (points[:, 0] - grid.x0) / grid.hx
    y = (points[:, 1] - grid.y0) / grid.hy
    i0 = np.clip(np.floor(x).astype(int), 0, grid.nx - 2)
    j0 = np.clip(np.floor(y).astype(int), 0, grid.ny - 2)
    tx = np.clip(x - i0, 0.0, 1.0)
    ty = np.clip(y - j0, 0.0, 1.0)
    f = np.asarray(field)
    return ((1 - tx) * (1 - ty) * f[j0, i0] + tx * (1 - ty) * f[j0, i0 + 1]
            + (1 - tx) * ty * f[j0 + 1, i0] + tx * ty * f[j0 + 1, i0 + 1])


def noncharacteristic(curve, q, imm=None, zero_tol=1e-8, min_margin_deg=5.0):
    """Test transversality of a chart curve to both stretch foliations.

    Returns (ok, margin_deg): margin is the minimum angle (degrees)
    between the curve tangent and either stretch field over all samples;
    ok requires margin >= min_margin_deg.  Curves touching the zero
    locus are rejected (the foliations degenerate there).
    """
    phi = q.phi
    scale = float(np.max(np.abs(phi)))
    if scale == 0.0:
        raise ValueError("trivial differential")
    vals = _bilinear(phi, q.grid, curve.points)
    if np.any(np.abs(vals) < zero_tol * scale):
        raise ValueError("curve touches the zero locus of the differential")
    horiz = np.mod(-0.5 * np.angle(vals), np.pi)
    tangent = np.mod(np.arctan2(curve.tangents[:, 1], curve.tangents[:, 0]), np.pi)
    d_h = _line_angle_distance(tangent, horiz)
    d_v = _line_angle_distance(tangent, np.mod(horiz + 0.5 * np.pi, np.pi))
    margin = float(np.degrees(np.min(np.minimum(d_h, d_v))))
    return margin >= min_margin_deg, margin


def form_from_qdiff(imm, q):
    """Reconstruct the anti-conformal tangential one-form with complex
    coefficient phi through the frame of imm.

    tau(d/dx) = fx^{-1} (Re phi + Im phi N), tau(d/dy) = -N tau(d/dx).
    Accepts a QuadDifferential or a bare complex field/scalar.
    """
    phi = QuadDifferential.coerce(imm.grid, q).phi
    a = np.ascontiguousarray(phi.real)[..., None]
    b = np.ascontiguousarray(phi.imag)[..., None]
    fxinv = qinv(imm.fx)
    val = a * np.array([1.0, 0, 0, 0]) + b * imm.N
    tx = qmul(fxinv, val)
    ty = -qmul(imm.N, tx)
    return QForm(tx, ty)


def qdiff_from_form(imm, tau, tol=1e-3):
    """Project an anti-conformal tangential one-form back to its complex
    coefficient: phi = normal-plane coordinates of fx tau(d/dx).

    Validates anti-conformality and tangentiality of tau (relative
    residuals under tol) before projecting; the product fx tau(d/dx)
    then lies in span(1, N) and phi = (real part) + i (N component).
    """
    scale = float(np.sqrt(np.mean(qnormsq(tau.ax) + qnormsq(tau.ay))))
    if scale == 0.0:
        return QuadDifferential(imm.grid, np.zeros((imm.grid.ny, imm.grid.nx)))
    anti = anticonformal_defect(tau, imm.N).norm()
    if float(np.sqrt(np.mean(anti ** 2))) > tol * scale:
        raise ValueError("form is not anti-conformal for this immersion")
    perp = QForm(value_transversal(tau.ax, imm.N),
                 value_transversal(tau.ay, imm.N)).norm()
    if float(np.sqrt(np.mean(perp ** 2))) > tol * scale:
        raise ValueError("form is not tangential for this immersion")
    prod = qmul(imm.fx, tau.ax)
    a = prod[..., 0]
    b = qdot(prod, imm.N)
    return QuadDifferential(imm.grid, a + 1j * b)
