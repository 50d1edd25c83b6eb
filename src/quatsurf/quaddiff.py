"""Complex quadratic differentials on a chart and the frame correspondence.

A quadratic differential is stored as its complex coefficient field phi
over the grid (the dz^2 coefficient in the chart coordinate z = x + iy).
This module provides the holomorphy residual, zero locus with winding
multiplicities, principal stretch foliations, the non-characteristic
test of a grid row, and the two-way correspondence between coefficients
and anti-conformal tangential one-forms through an immersion's frame.
"""

import numpy as np

from .charts import _relative, _same_grid, deriv_x, deriv_y, form_rms, rms
from .quaternions import (QForm, _qempty, _qinv_rows, _qmul_rows,
                          _split_rows, anticonformal_defect, qdot, qmul,
                          split_tangential)

# least angle (degrees) a non-characteristic row keeps from both
# stretch foliations
_MIN_MARGIN_DEG = 5.0
# relative anti-conformality/tangentiality residual qdiff_from_form accepts
_FORM_TOL = 1e-3
# |phi| under this fraction of max|phi| is a zero of the differential
_ZERO_TOL = 1e-8
# closed node loop of radius 2 around (0, 0) as (dj, di) steps, walked
# counterclockwise from the corner (-2, -2); clipped to radius 1 it
# walks the radius-1 loop (corners repeated), to radius 0 a point
_SIDE = np.arange(-2, 2)
_LOOP = np.stack([np.r_[np.full(4, -2), _SIDE, np.full(4, 2), -_SIDE, -2],
                  np.r_[_SIDE, np.full(4, 2), -_SIDE, np.full(4, -2), -2]],
                 axis=-1)


class QuadDifferential:
    """Coefficient field of a quadratic differential on a grid chart."""

    def __init__(self, grid, phi):
        phi = np.asarray(phi, dtype=np.complex128)
        if phi.shape != (grid.ny, grid.nx):
            raise ValueError("phi shape does not match the grid")
        if not np.isfinite(phi).all():
            raise ValueError("phi must be finite")
        self.grid = grid
        self.phi = phi

    @classmethod
    def coerce(cls, grid, q):
        """Pass an instance on the grid through unchanged; broadcast a
        complex scalar to the grid or wrap a complex (ny, nx) field."""
        if isinstance(q, cls):
            _same_grid(grid, q.grid)
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
        return float(np.max(np.abs(self.phi)))


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


def _zero_scale(q):
    """max|phi|, the scale of every zero test; raises on the zero
    differential, which carries no information."""
    scale = q.max_abs()
    if scale == 0.0:
        raise ValueError("trivial differential")
    return scale


def _group_minima(mask, mag):
    """One node per 8-connected group of mask: the group's smallest mag,
    ties to the first node in row-major order.  Returns the nodes as a
    row-major sorted (k, 2) array and the size of the largest group.
    Labelling: each hit links to its E, SE, S and SW hits; every hit takes
    the least label over its links, then its label's label (pointer
    jumping), until no label changes."""
    if not mask.any():
        return np.empty((0, 2), dtype=int), 0
    hits = np.flatnonzero(mask)
    index = np.full(np.add(mask.shape, 2), -1)
    rows, cols = np.unravel_index(hits, mask.shape)
    index[rows + 1, cols + 1] = np.arange(hits.size)
    links = []
    for dj, di in ((0, 1), (1, 1), (1, 0), (1, -1)):
        there = index[rows + 1 + dj, cols + 1 + di]
        links.append((np.flatnonzero(there >= 0), there[there >= 0]))
    groups, new = None, np.arange(hits.size)
    while not np.array_equal(new, groups):
        groups, new = new, new.copy()
        # a hit has at most one link each way per direction, so neither
        # index array repeats; a hit on both ends keeps the lesser label
        for here, there in links:
            low = np.minimum(new[here], new[there])
            new[here] = low
            new[there] = np.minimum(new[there], low)
        new = new[new]
    # a stable sort, so that ties resolve alike on every platform
    order = np.lexsort((mag.flat[hits], groups))
    first = order[np.r_[True, np.diff(groups[order]) != 0]]
    nodes = np.column_stack(np.unravel_index(np.sort(hits[first]),
                                             mask.shape))
    return nodes, int(np.bincount(groups).max())


def zero_locus(q, tol=_ZERO_TOL):
    """Nodes with |phi| < tol * max|phi|, with winding multiplicities.

    Returns (nodes, multiplicities, isolated_flag).  8-adjacent below-tol
    nodes are grouped into one zero (reported at the smallest |phi|) by
    min-label propagation in numpy; a group larger than a 3x3 block flags
    non-isolation.  Multiplicity is the winding of arg phi on the node
    loop of radius 2 around the zero (radius 1 where that leaves the
    chart, 0 on the boundary).
    Raises on the zero differential.
    """
    mag = np.abs(q.phi)
    nodes, largest = _group_minima(mag < tol * _zero_scale(q), mag)
    isolated = largest <= 9
    # the loop clipped to the largest radius (at most 2) left on the chart
    room = np.minimum(nodes, np.subtract(mag.shape, 1) - nodes).min(axis=1)
    r = np.minimum(room, 2)[:, None, None]
    at = nodes[:, None, :] + np.clip(_LOOP, -r, r)
    args = np.angle(q.phi[at[..., 0], at[..., 1]])
    dargs = np.mod(np.diff(args, axis=1) + np.pi, 2 * np.pi) - np.pi
    mults = np.round(np.sum(dargs, axis=1) / (2 * np.pi)).astype(int)
    return list(map(tuple, nodes.tolist())), mults.tolist(), isolated


def stretch_directions(q):
    """Principal stretch foliations: angle fields (radians, mod pi).

    horizontal: directions where phi e^{2 i theta} is real positive;
    vertical: the orthogonal field.  Zero nodes (|phi| < 1e-8 max|phi|)
    are masked with NaN; the zero differential raises.
    """
    phi = q.phi
    horizontal = np.mod(-0.5 * np.angle(phi), np.pi)
    zeros = np.abs(phi) < _ZERO_TOL * _zero_scale(q)
    horizontal = np.where(zeros, np.nan, horizontal)
    vertical = np.mod(horizontal + 0.5 * np.pi, np.pi)
    return horizontal, vertical


def _line_angle_distance(a, b):
    """Distance between two line directions, in [0, pi/2]."""
    d = np.mod(a - b, np.pi)
    return np.minimum(d, np.pi - d)


def noncharacteristic(q, row):
    """Transversality of the grid row j = row (direction +x) to both
    stretch foliations: (ok, margin_deg), margin the least angle over
    the row's nodes, ok when margin >= _MIN_MARGIN_DEG.  A row touching
    the zero locus (|phi| < 1e-8 max|phi|), where the foliations
    degenerate, is rejected, naming its first zero node."""
    if not 0 <= row < q.grid.ny:
        raise ValueError("row index out of range")
    vals = q.phi[row]
    zeros = np.flatnonzero(np.abs(vals) < _ZERO_TOL * _zero_scale(q))
    if zeros.size:
        raise ValueError("curve touches the zero locus of the differential "
                         "at node (j=%d, i=%d)" % (row, zeros[0]))
    horiz = np.mod(-0.5 * np.angle(vals), np.pi)
    d_h = _line_angle_distance(0.0, horiz)
    d_v = _line_angle_distance(0.0, np.mod(horiz + 0.5 * np.pi, np.pi))
    margin = float(np.degrees(np.min(np.minimum(d_h, d_v))))
    return margin >= _MIN_MARGIN_DEG, margin


def form_from_qdiff(imm, q):
    """Reconstruct the anti-conformal tangential one-form with complex
    coefficient phi through the frame of imm.

    tau(d/dx) = fx^{-1} (Re phi + Im phi N), tau(d/dy) = -N tau(d/dx).
    Accepts a QuadDifferential or a bare complex field/scalar.
    """
    phi = QuadDifferential.coerce(imm.grid, q).phi
    shape = phi.shape
    return QForm(*_split_rows(_hopf_form_rows, (_qempty(shape), _qempty(shape)),
                              (phi, imm.fx, imm.N)))


def _hopf_form_rows(out, phi, fx, N):
    """form_from_qdiff's (tau(d/dx), tau(d/dy)) into out."""
    tx, ty = out
    a = np.ascontiguousarray(phi.real)[..., None]
    b = np.ascontiguousarray(phi.imag)[..., None]
    val = a * np.array([1.0, 0, 0, 0]) + b * N
    _qmul_rows(tx, _qinv_rows(_qempty(fx.shape[:-1]), fx), val)
    del val
    np.negative(_qmul_rows(ty, N, tx), out=ty)


def _hopf_defects(tau, N):
    """Chart-RMS anti-conformal and transversal parts of a one-form
    against the normal N, each relative to the form's RMS: both vanish
    exactly when tau is a Hopf-type (anti-conformal tangential) form."""
    scale = form_rms(tau)
    anti = rms(anticonformal_defect(tau, N).norm())
    perp = rms(split_tangential(tau, N)[1].norm())
    return _relative(anti, scale), _relative(perp, scale)


def qdiff_from_form(imm, tau):
    """Project an anti-conformal tangential one-form back to its complex
    coefficient: phi = normal-plane coordinates of fx tau(d/dx).

    Validates anti-conformality and tangentiality of tau (relative
    residuals under _FORM_TOL) before projecting; the product fx tau(d/dx)
    then lies in span(1, N) and phi = (real part) + i (N component).
    """
    anti, perp = _hopf_defects(tau, imm.N)
    if anti > _FORM_TOL:
        raise ValueError("form is not anti-conformal for this immersion")
    if perp > _FORM_TOL:
        raise ValueError("form is not tangential for this immersion")
    prod = qmul(imm.fx, tau.ax)
    a = prod[..., 0]
    b = qdot(prod, imm.N)
    return QuadDifferential(imm.grid, a + 1j * b)
