"""Sampled conformal immersions on rectangular isothermal charts.

A chart is a uniform (ny, nx) grid over [x0, x0+(nx-1)hx] x [y0, ...].
All per-node fields are stored row-major with shape (ny, nx, ...), row
index j along y and column index i along x.  Frames come from 4th order
finite differences: centered stencils in the interior, one-sided at the
two boundary rows/columns on each side.
"""

from dataclasses import dataclass

import numpy as np

from .quaternions import (QForm, anticonformal_defect, check_unit_imaginary,
                          from_vec, qdot, qmul, qnorm, qnormsq,
                          split_tangential, to_vec)


class GridChart:
    """Uniform rectangular grid: node (j, i) sits at (x0 + i hx, y0 + j hy)."""

    def __init__(self, nx, ny, hx, hy, x0=0.0, y0=0.0):
        if nx < 5 or ny < 5:
            raise ValueError("grid needs nx, ny >= 5 for the stencils")
        if not np.isfinite([hx, hy, x0, y0]).all():
            raise ValueError("grid spacings and origin must be finite")
        if hx <= 0 or hy <= 0:
            raise ValueError("grid spacings must be positive")
        self.nx = int(nx)
        self.ny = int(ny)
        self.hx = float(hx)
        self.hy = float(hy)
        self.x0 = float(x0)
        self.y0 = float(y0)

    @classmethod
    def from_bounds(cls, x0, x1, y0, y1, nx, ny):
        return cls(nx, ny, (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1), x0, y0)

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
        return ("GridChart(nx=%d, ny=%d, hx=%g, hy=%g, x0=%g, y0=%g)"
                % (self.nx, self.ny, self.hx, self.hy, self.x0, self.y0))


def deriv_x(field, hx):
    """4th-order d/dx along axis 1 of an (ny, nx, ...) field.  Complex
    fields go part by part: complex division by 12 h rounds differently."""
    if np.iscomplexobj(field):
        return deriv_x(field.real, hx) + 1j * deriv_x(field.imag, hx)
    f = np.asarray(field, dtype=np.float64)
    d = np.empty_like(f)
    d[:, 2:-2] = (f[:, :-4] - 8 * f[:, 1:-3] + 8 * f[:, 3:-1] - f[:, 4:]) / (12 * hx)
    d[:, 0] = (-25 * f[:, 0] + 48 * f[:, 1] - 36 * f[:, 2]
               + 16 * f[:, 3] - 3 * f[:, 4]) / (12 * hx)
    d[:, 1] = (-3 * f[:, 0] - 10 * f[:, 1] + 18 * f[:, 2]
               - 6 * f[:, 3] + f[:, 4]) / (12 * hx)
    d[:, -2] = (3 * f[:, -1] + 10 * f[:, -2] - 18 * f[:, -3]
                + 6 * f[:, -4] - f[:, -5]) / (12 * hx)
    d[:, -1] = (25 * f[:, -1] - 48 * f[:, -2] + 36 * f[:, -3]
                - 16 * f[:, -4] + 3 * f[:, -5]) / (12 * hx)
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
    return float(np.sqrt(np.mean(np.square(np.asarray(values, dtype=np.float64)))))


def form_rms(form):
    """Chart RMS norm of a one-form: sqrt(mean(|ax|^2 + |ay|^2))."""
    return float(np.sqrt(np.mean(qnormsq(form.ax) + qnormsq(form.ay))))


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
    ax, ay, az = fx[..., 1], fx[..., 2], fx[..., 3]
    bx, by, bz = fy[..., 1], fy[..., 2], fy[..., 3]
    cx = ay * bz - az * by
    cy = az * bx - ax * bz
    cz = ax * by - ay * bx
    crossnorm = np.sqrt((cx * cx + cy * cy) + cz * cz)
    N = np.empty_like(fx)
    N[..., 0] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(cx, crossnorm, out=N[..., 1])
        np.divide(cy, crossnorm, out=N[..., 2])
        np.divide(cz, crossnorm, out=N[..., 3])
    return fx, fy, N, qnorm(fx), qnorm(fy), crossnorm


def build_immersion(grid, samples, chart_tol=1e-3):
    """Differentiate position samples and validate conformality.

    samples: (ny, nx, 3) positions, or (ny, nx, 4) imaginary quaternions.
    Rejects non-finite input, degenerate frames |fx x fy| < 1e-8 e^{2u},
    and charts whose interior conformality residual exceeds chart_tol.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[:2] != (grid.ny, grid.nx):
        raise ValueError("sample array shape does not match the grid")
    if samples.shape[2:] == (3,):
        f = from_vec(samples)
    elif samples.shape[2:] == (4,):
        f = from_vec(samples[..., 1:])
    else:
        raise ValueError("samples must be (ny, nx, 3) or (ny, nx, 4)")

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
        j, i = map(int, np.argwhere(conf == worst)[0])
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


def _mean_curvature_x(N, Nx, Ny, fx):
    """(H, N Ny) with -H df the conformal part of dN = (Nx, Ny).

    H is read off that part's d/dx component (Nx - N Ny)/2, in the
    operation order of split_conformal's kc.ax; the d/dy component is
    not built.  N is validated as split_conformal validates it.  N Ny
    is returned for weingarten_split to build omega in.
    """
    check_unit_imaginary(N)
    nny = qmul(N, Ny)
    kc = Nx - nny
    kc *= 0.5
    return -qdot(kc, fx) / qnormsq(fx), nny


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
    H, wx = _mean_curvature_x(N, Nx, Ny, imm.fx)
    wx += Nx
    wx *= 0.5
    wy = qmul(N, Nx)
    np.subtract(Ny, wy, out=wy)
    wy *= 0.5

    II11 = -qdot(Nx, imm.fx)
    II22 = -qdot(Ny, imm.fy)
    II12 = -0.5 * (qdot(Nx, imm.fy) + qdot(Ny, imm.fx))
    II = _symmetric_tensor(II11, II12, II22)
    hopf_qd = 0.25 * (II11 - II22) - 0.5j * II12
    return CurvatureData(H, QForm(wx, wy), II, hopf_qd, QForm(Nx, Ny))


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


def umbilics(curv, tol=1e-6):
    """Nodes where |hopf_qd| <= tol * (chart max |II| entry).

    Returns a sorted list of (j, i) index pairs; empty when the surface
    has no umbilic on the chart at this tolerance, every node on a flat
    chart (II = 0), as on a totally umbilic one.
    """
    hits = np.argwhere(_umbilic_mask(curv, tol))
    return [(int(j), int(i)) for j, i in hits]

