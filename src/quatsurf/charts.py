"""Sampled conformal immersions on rectangular isothermal charts.

A chart is a uniform (ny, nx) grid over [x0, x0+(nx-1)hx] x [y0, ...].
All per-node fields are stored row-major with shape (ny, nx, ...), row
index j along y and column index i along x.  Frames come from 4th order
finite differences: centered stencils in the interior, one-sided at the
two boundary rows/columns on each side.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .quaternions import (QForm, _check_unit, _qdot_rows, _qempty, _qmul_rows,
                          _split_rows, _unit_rows, anticonformal_defect,
                          from_vec, qdot, qnorm, qnormsq, split_tangential,
                          to_vec)

# default tolerances of build_immersion's chart test and of umbilics
_CHART_TOL = 1e-3
_UMBILIC_TOL = 1e-6


def _integer(value, name):
    """value as an int: integer types only (operator.index), not bool."""
    if isinstance(value, bool):
        raise TypeError("%s must be an integer, not bool" % name)
    return operator.index(value)


class GridChart:
    """Uniform rectangular grid: node (j, i) sits at (x0 + i hx, y0 + j hy)."""

    def __init__(self, nx, ny, hx, hy, x0=0.0, y0=0.0):
        self.nx, self.ny = _integer(nx, "nx"), _integer(ny, "ny")
        if self.nx < 5 or self.ny < 5:
            raise ValueError("grid needs nx, ny >= 5 for the stencils")
        if not np.isfinite([hx, hy, x0, y0]).all():
            raise ValueError("grid spacings and origin must be finite")
        if hx <= 0 or hy <= 0:
            raise ValueError("grid spacings must be positive")
        self.hx = float(hx)
        self.hy = float(hy)
        self.x0 = float(x0)
        self.y0 = float(y0)

    @classmethod
    def from_bounds(cls, x0, x1, y0, y1, nx, ny):
        # max(): a count below 2 meets the node count check, not 1 / 0
        return cls(nx, ny, (x1 - x0) / max(nx - 1, 1),
                   (y1 - y0) / max(ny - 1, 1), x0, y0)

    @property
    def xs(self):
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def ys(self):
        return self.y0 + self.hy * np.arange(self.ny)

    def mesh(self):
        return np.meshgrid(self.xs, self.ys)

    def spec(self):
        """Plain-dict description for reports."""
        return {"nx": self.nx, "ny": self.ny, "hx": self.hx, "hy": self.hy,
                "x0": self.x0, "y0": self.y0}

    def __repr__(self):
        return ("GridChart(nx=%d, ny=%d, hx=%r, hy=%r, x0=%r, y0=%r)"
                % (self.nx, self.ny, self.hx, self.hy, self.x0, self.y0))


def _same_grid(grid, other):
    """Refuse operands sampled on grids of different node counts, spacing
    or origin; the message gives spacing and origin at full precision,
    since two grids can differ past the digits ``%g`` prints."""
    if (grid.ny, grid.nx) != (other.ny, other.nx):
        raise ValueError("immersions must share one grid: %dx%d and %dx%d"
                         % (grid.ny, grid.nx, other.ny, other.nx))
    placed = [(g.hx, g.hy, g.x0, g.y0) for g in (grid, other)]
    if placed[0] != placed[1]:
        raise ValueError("immersions must share one grid: spacing (%r, %r) "
                         "origin (%r, %r) and spacing (%r, %r) origin "
                         "(%r, %r)" % (*placed[0], *placed[1]))


# The one-sided stencils of the two edge columns on each side, taken in
# one pass: term k of edge column c is _EDGE_COEFFS[k, c] times the node
# _EDGE_NODES[k, c], for the columns _EDGE_COLUMNS.  Each sign is folded
# into its coefficient (a - 36 f is bitwise a + (-36) f) and the terms add
# left to right, so every column sums as its written-out stencil does.
_EDGE_COLUMNS = np.array([0, 1, -2, -1])
_EDGE_NODES = np.array([[0, 1, 2, 3, 4], [0, 1, 2, 3, 4],
                        [-1, -2, -3, -4, -5], [-1, -2, -3, -4, -5]]).T
_EDGE_COEFFS = np.array([[-25, 48, -36, 16, -3], [-3, -10, 18, -6, 1],
                         [3, 10, -18, 6, -1], [25, -48, 36, -16, 3]],
                        dtype=np.float64).T


def deriv_x(field, hx):
    """4th-order d/dx along axis 1 of an (ny, nx, ...) field.  Complex
    fields go part by part: complex division by 12 h rounds differently."""
    if np.iscomplexobj(field):
        return deriv_x(field.real, hx) + 1j * deriv_x(field.imag, hx)
    f = np.asarray(field, dtype=np.float64)
    return _split_rows(_deriv_x_rows, np.empty_like(f), (f,), hx)


def _deriv_x_rows(d, f, hx):
    """deriv_x of a float64 field into d, row by row."""
    terms = f[:, _EDGE_NODES]
    terms *= _EDGE_COEFFS.reshape(_EDGE_COEFFS.shape + (1,) * (f.ndim - 2))
    edge = terms[:, 0] + terms[:, 1]
    for k in range(2, len(_EDGE_NODES)):
        edge += terms[:, k]
    edge /= 12 * hx
    d[:, _EDGE_COLUMNS] = edge
    # edges first, freed before the interior's large temporaries: on large
    # fields, edge buffers kept alive through them measured slower
    del terms, edge
    d[:, 2:-2] = (f[:, :-4] - 8 * f[:, 1:-3] + 8 * f[:, 3:-1] - f[:, 4:]) / (12 * hx)
    return d


def deriv_y(field, hy):
    """4th-order d/dy along axis 0: the deriv_x stencil applied to the
    axis-swapped view, complex fields included."""
    return deriv_x(np.swapaxes(field, 0, 1), hy).swapaxes(0, 1)


def interior(field):
    """Restrict a chart field to nodes served by centered stencils.

    One-sided boundary stencils carry ~6x larger error constants, so
    summary statistics are taken over this interior by default.
    """
    return np.asarray(field)[2:-2, 2:-2]


def rms(values):
    """Root-mean-square over all entries."""
    return _root_mean(np.square(np.asarray(values, dtype=np.float64)))


def _root_mean(squares):
    """sqrt(mean(squares)): rms of the values these squares come from."""
    return float(np.sqrt(np.mean(squares)))


def form_rms(form):
    """Chart RMS norm of a one-form: sqrt(mean(|ax|^2 + |ay|^2))."""
    return _root_mean(qnormsq(form.ax) + qnormsq(form.ay))


def _relative(num, den):
    """num / den, or 0 where the scale den vanishes (a flat chart's
    dN, say): the one rule for every relative residual."""
    return num / den if den > 0 else 0.0


def floored_relative(grid, residual, dscale, magnitude):
    """residual / max(dscale, magnitude / chart length), or 0 when both
    vanish.

    The floor matters for fields with constant components, where the
    raw derivative scale is pure rounding error and a ratio against it
    would be meaningless.
    """
    length = max((grid.nx - 1) * grid.hx, (grid.ny - 1) * grid.hy)
    return _relative(residual, max(dscale, magnitude / length))


def closedness_residual(grid, form):
    """Exterior-derivative residual of a one-form: (field, relative).

    field = |d(form)(dx, dy)| per node.  The relative value is measured
    over interior nodes only (re-differentiating across the switch from
    centered to one-sided stencils inflates the outer two rings by 1/h)
    against the larger of the cross-derivative magnitude and the form
    magnitude divided by the chart length (see floored_relative).
    """
    d_yx = deriv_y(form.ax, grid.hy)
    d_xy = deriv_x(form.ay, grid.hx)
    field = qnorm(d_xy - d_yx)
    dscale = rms(np.sqrt(qnormsq(interior(d_yx)) + qnormsq(interior(d_xy))))
    rel = floored_relative(grid, rms(interior(field)), dscale,
                           form_rms(form))
    return field, rel


def field_stats(field, interior_only=True):
    """Mean/std/min/max of a scalar chart field (interior nodes by default)
    over its finite nodes, e.g. a dual's H away from branch points."""
    a = interior(field) if interior_only else np.asarray(field)
    finite = np.isfinite(a)
    if finite.any() and not finite.all():
        a = a[finite]
    return {"mean": float(np.mean(a)), "std": float(np.std(a)),
            "min": float(np.min(a)), "max": float(np.max(a))}


class ChartImmersion:
    """A conformal immersion sampled on a chart, with its derived frame.

    Fields: f (imaginary quaternion positions), fx, fy (first derivatives),
    N (unit normal fx x fy / |fx x fy|), u (log conformal factor with
    e^u = sqrt(|fx| |fy|)), and the conformality residual
    max(| |fx|-|fy| |, |<fx, fy>|) / e^{2u} reported pointwise and as a
    max over interior nodes (the outer two rings use one-sided stencils
    whose error constants would otherwise dominate the figure).
    """

    def __init__(self, grid, f, fx, fy, N, u, conformality_field):
        self.grid = grid
        self.f = f
        self.fx = fx
        self.fy = fy
        self.N = N
        self.u = u
        self.conformality_field = conformality_field
        self.conformality_residual = float(np.max(interior(conformality_field)))

    @property
    def df(self):
        return QForm(self.fx, self.fy)

    @property
    def positions(self):
        return to_vec(self.f)

    def diameter(self):
        p = self.positions.reshape(-1, 3)
        return float(np.linalg.norm(p.max(axis=0) - p.min(axis=0)))


def raw_frame(grid, f):
    """Frame of quaternion positions f with no validation.

    Returns (fx, fy, N, |fx|, |fy|, |fx x fy|); N is non-finite where
    fx x fy vanishes.  The cross product and its norm are written out
    in the operation order of np.cross and np.linalg.norm, so they are
    bit-identical to them (tested).
    """
    fx = deriv_x(f, grid.hx)
    fy = deriv_y(f, grid.hy)
    shape = fx.shape[:-1]
    frame = _split_rows(_frame_rows, (np.empty_like(fx), np.empty(shape),
                                      np.empty(shape), np.empty(shape)),
                        (fx, fy))
    return (fx, fy) + frame


def _frame_rows(out, fx, fy):
    """raw_frame's (N, |fx|, |fy|, |fx x fy|) into out."""
    N, nfx, nfy, crossnorm = out
    ax, ay, az = fx[..., 1], fx[..., 2], fx[..., 3]
    bx, by, bz = fy[..., 1], fy[..., 2], fy[..., 3]
    cx = ay * bz - az * by
    cy = az * bx - ax * bz
    cz = ax * by - ay * bx
    np.sqrt((cx * cx + cy * cy) + cz * cz, out=crossnorm)
    N[..., 0] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(cx, crossnorm, out=N[..., 1])
        np.divide(cy, crossnorm, out=N[..., 2])
        np.divide(cz, crossnorm, out=N[..., 3])
    np.sqrt(_qdot_rows(nfx, fx, fx), out=nfx)
    np.sqrt(_qdot_rows(nfy, fy, fy), out=nfy)


def build_immersion(grid, samples, chart_tol=_CHART_TOL):
    """Differentiate (ny, nx, 3) position samples, validate conformality.

    Rejects non-finite input, degenerate frames |fx x fy| < 1e-8 e^{2u},
    and charts whose interior conformality residual exceeds chart_tol.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (grid.ny, grid.nx, 3):
        raise ValueError("samples must be (ny, nx, 3) positions on the grid")
    f = from_vec(samples)

    bad = ~np.isfinite(samples).all(axis=-1)
    if bad.any():
        j, i = map(int, np.argwhere(bad)[0])
        raise ValueError("non-finite sample at node (j=%d, i=%d)" % (j, i))

    fx, fy, N, nfx, nfy, crossnorm = raw_frame(grid, f)
    e2u = nfx * nfy

    # e2u == 0 means a vanishing partial; the relative test below would
    # pass it (0 < 0 is false), so catch it explicitly
    degen = (e2u == 0.0) | (crossnorm < 1e-8 * e2u)
    if degen.any():
        j, i = map(int, np.argwhere(degen)[0])
        raise ValueError("degenerate frame at node (j=%d, i=%d)" % (j, i))

    conf = np.maximum(np.abs(nfx - nfy), np.abs(qdot(fx, fy))) / e2u
    inner = interior(conf)
    worst = float(np.max(inner))
    if worst > chart_tol:
        j, i = map(int, np.argwhere(inner == worst)[0] + 2)
        raise ValueError(
            "chart is not conformal: residual %.3e > %.3e at node (j=%d, i=%d)"
            % (worst, chart_tol, j, i))

    u = 0.5 * np.log(e2u)
    return ChartImmersion(grid, f, fx, fy, N, u, conf)


@dataclass(eq=False)
class CurvatureData:
    """Curvature extraction results: mean curvature H, the anti-conformal
    tangential one-form omega from the normal's derivative, the second
    fundamental form II, and the complex coefficient hopf_qd of its
    trace-free (2,0) part in the chart coordinate."""

    H: np.ndarray
    omega: QForm
    II: np.ndarray
    hopf_qd: np.ndarray
    dN: QForm


def _symmetric_tensor(a11, a12, a22):
    """Per-node symmetric 2x2 tensors [[a11, a12], [a12, a22]]."""
    T = np.empty(a11.shape + (2, 2))
    T[..., 0, 0] = a11
    T[..., 0, 1] = T[..., 1, 0] = a12
    T[..., 1, 1] = a22
    return T


def _mean_curvature_rows(out, N, Nx, Ny, fx):
    """(H, N Ny, unit) into out, with -H df the conformal part of
    dN = (Nx, Ny) and unit the _unit_rows of N.

    H is read off that part's d/dx component (Nx - N Ny)/2, in the
    operation order of split_conformal's kc.ax; the d/dy component is
    not built.  N Ny is kept for weingarten_split to build omega in.
    """
    H, nny, unit = out
    _unit_rows(unit, N)
    _qmul_rows(nny, N, Ny)
    kc = Nx - nny
    kc *= 0.5
    np.negative(_qdot_rows(H, kc, fx), out=H)
    del kc
    H /= _qdot_rows(np.empty_like(H), fx, fx)


def _mean_curvature_x(N, Nx, Ny, fx):
    """H of _mean_curvature_rows, with N validated as split_conformal
    validates it."""
    shape = N.shape[:-1]
    H, _, unit = _split_rows(
        _mean_curvature_rows,
        (np.empty(shape), _qempty(shape), np.empty((shape[0], 2))),
        (N, Nx, Ny, fx))
    _check_unit(*np.max(unit, axis=0))
    return H


def weingarten_split(imm):
    """Split dN = -H df + omega and extract II and its (2,0) coefficient.

    H is defined by the conformal part of dN being -H df; omega is the
    anti-conformal remainder ((Nx + N Ny)/2, (Ny - N Nx)/2), the ka of
    split_conformal in its operation order.  II(X, Y) = -<dN(X), df(Y)>
    symmetrized; hopf_qd = (II11 - II22)/4 - (i/2) II12.  Reads only
    imm.grid, imm.fx, imm.fy and imm.N.
    """
    N = imm.N
    Nx = deriv_x(N, imm.grid.hx)
    Ny = deriv_y(N, imm.grid.hy)
    shape = N.shape[:-1]
    H, wx, wy, II, hopf_qd, unit = _split_rows(
        _weingarten_rows,
        (np.empty(shape), _qempty(shape), _qempty(shape),
         np.empty(shape + (2, 2)), np.empty(shape, dtype=np.complex128),
         np.empty((shape[0], 2))),
        (N, Nx, Ny, imm.fx, imm.fy))
    _check_unit(*np.max(unit, axis=0))
    return CurvatureData(H, QForm(wx, wy), II, hopf_qd, QForm(Nx, Ny))


def _weingarten_rows(out, N, Nx, Ny, fx, fy):
    """weingarten_split's (H, omega.ax, omega.ay, II, hopf_qd, unit)
    into out."""
    H, wx, wy, II, hopf_qd, unit = out
    _mean_curvature_rows((H, wx, unit), N, Nx, Ny, fx)
    wx += Nx
    wx *= 0.5
    _qmul_rows(wy, N, Nx)
    np.subtract(Ny, wy, out=wy)
    wy *= 0.5

    II11, II12, II22 = II[..., 0, 0], II[..., 0, 1], II[..., 1, 1]
    np.negative(_qdot_rows(II11, Nx, fx), out=II11)
    np.negative(_qdot_rows(II22, Ny, fy), out=II22)
    _qdot_rows(II12, Nx, fy)
    II12 += _qdot_rows(np.empty_like(H), Ny, fx)
    II12 *= -0.5
    II[..., 1, 0] = II12
    np.subtract(0.25 * (II11 - II22), 0.5j * II12, out=hopf_qd)


def weingarten_residual(imm, curv):
    """Pointwise |dN + H df - omega| and its chart-RMS relative to |dN|."""
    resid = curv.dN + imm.df * curv.H[..., None] - curv.omega
    return resid.norm(), _relative(form_rms(resid), form_rms(curv.dN))


def anticonformality_residual(imm, curv):
    """Chart-RMS of anticonformal_defect(w, N) relative to |dN| for the
    Hopf form w.

    The projector output curv.omega satisfies the identity exactly by
    construction (machine precision), so the residual is evaluated on
    the Weingarten remainder w = dN + H df, whose defect against
    anti-conformality is a genuine discretization-order quantity.
    Normalizing by |dN| rather than |w| keeps the figure meaningful on
    totally umbilic charts, where w itself shrinks to rounding noise.
    """
    w = curv.dN + imm.df * curv.H[..., None]
    num = anticonformal_defect(w, imm.N)
    return num.norm(), _relative(form_rms(num), form_rms(curv.dN))


def tangentiality_residual(imm, curv):
    """Chart-RMS of the transversal part of dN, relative to |dN|."""
    _, perp = split_tangential(curv.dN, imm.N)
    return perp.norm(), _relative(form_rms(perp), form_rms(curv.dN))


def relate_hopf(imm, curv):
    """Residual of the frame identity tying omega to the II coefficient.

    Reconstructs the anti-conformal tangential form with complex
    coefficient 2 * hopf_qd through the frame and compares with omega.
    Returns the pointwise residual field and the chart-RMS relative value.
    """
    from .quaddiff import form_from_qdiff
    recon = form_from_qdiff(imm, 2.0 * curv.hopf_qd)
    resid = curv.omega - recon
    return resid.norm(), _relative(form_rms(resid), form_rms(curv.omega))


def _umbilic_mask(curv, tol):
    """The nodes umbilics lists, as a boolean chart field."""
    return np.abs(curv.hopf_qd) <= tol * float(np.max(np.abs(curv.II)))


def umbilics(curv, tol=_UMBILIC_TOL):
    """Nodes where |hopf_qd| <= tol * (chart max |II| entry).

    Returns a sorted list of (j, i) index pairs; empty when the surface
    has no umbilic on the chart at this tolerance, every node on a flat
    chart (II = 0), as on a totally umbilic one.
    """
    return list(map(tuple, np.argwhere(_umbilic_mask(curv, tol)).tolist()))

