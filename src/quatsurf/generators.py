"""Analytic test surfaces sampled in isothermal coordinates.

Every generator returns a GeneratorResult carrying the validated
immersion, the canonical holomorphic differential the surface is
isothermic for (when one is shipped), and, for the rotationally
symmetric families, the closed-form dual surface.

Normal orientations (all documented against the frame normal
N = fx x fy / |fx x fy|):
  sphere      N = -f (inward), H = +1
  cylinder    inward, H = +1/(2 radius)
  catenoid    away from the axis at the waist, H = 0
  enneper     Gauss map of the Weierstrass data, H = 0
  unduloid    inward, H = +1/(neck + bulge)
  ellipsoid   inward, H > 0

The optional rotation parameter precomposes the chart with a rotation
by that angle (z = e^{i rot} z~), which multiplies the canonical
differential coefficient by e^{2 i rot}; this is how non-axis-aligned
stretch foliations are produced for the Cauchy-problem tests.
"""

from dataclasses import dataclass

import numpy as np

from .charts import _CHART_TOL, ChartImmersion, GridChart, build_immersion
from .quaddiff import QuadDifferential

# chart spans (x0, x1, y0, y1) of the generators with no extent parameter
_SPANS = {"cylinder": (0.0, 2.0 * np.pi, -1.0, 1.0),
          "catenoid": (0.0, 2.0 * np.pi, -1.0, 1.0),
          "unduloid": (0.0, 1.6, -0.8, 0.8),
          "ellipsoid_of_revolution": (0.0, 2.0 * np.pi, -2.0, 2.0)}


@dataclass(eq=False)
class GeneratorResult:
    name: str
    imm: ChartImmersion
    q_known: QuadDifferential | None = None
    dual_known: np.ndarray | None = None


def _chart(n, span, rotation):
    """n x n grid over span (x0, x1, y0, y1), rotated: (grid, X, Y)."""
    grid = GridChart.from_bounds(*span, n, n)
    X, Y = grid.mesh()
    ca, sa = np.cos(rotation), np.sin(rotation)
    return grid, ca * X - sa * Y, sa * X + ca * Y


def _result(name, grid, pos, chart_tol, phi, dual=None):
    """Validate the stacked positions as an immersion and wrap phi (a
    scalar or a chart field) and the stacked dual."""
    imm = build_immersion(grid, np.stack(pos, axis=-1), chart_tol=chart_tol)
    return GeneratorResult(name, imm, QuadDifferential.coerce(grid, phi),
                           None if dual is None else np.stack(dual, axis=-1))


def sphere(n=65, extent=0.6, rotation=0.0, chart_tol=_CHART_TOL):
    """Unit sphere on a stereographic chart [-extent, extent]^2.

    f = (2x, 2y, x^2 + y^2 - 1)/(1 + x^2 + y^2); the frame normal is
    N = -f (inward) and H = +1.  Isothermic for every holomorphic
    differential; the canonical choice shipped here is phi = 1.
    """
    grid, X, Y = _chart(n, (-extent, extent, -extent, extent), rotation)
    den = 1.0 + X ** 2 + Y ** 2
    return _result("sphere", grid, [2 * X / den, 2 * Y / den,
                                    (X ** 2 + Y ** 2 - 1) / den],
                   chart_tol, np.exp(2j * rotation))


def cylinder(n=65, radius=1.0, rotation=0.0, chart_tol=_CHART_TOL):
    """Circular cylinder f = radius (cos x, sin x, -y), inward normal,
    H = +1/(2 radius), u = log radius.  Isothermic for phi = 1; the
    closed-form dual is (-cos x, -sin x, -y)/radius.
    """
    grid, X, Y = _chart(n, _SPANS["cylinder"], rotation)
    r = float(radius)
    return _result("cylinder", grid,
                   [r * np.cos(X), r * np.sin(X), -r * Y], chart_tol,
                   np.exp(2j * rotation),
                   [-np.cos(X) / r, -np.sin(X) / r, -Y / r])


def catenoid(n=65, rotation=0.0, chart_tol=_CHART_TOL):
    """Catenoid f = (cosh y cos x, cosh y sin x, y), minimal (H = 0).

    The frame normal is (cos x, sin x, -sinh y)/cosh y, pointing away
    from the axis at the waist.  The shipped differential phi = -1 is
    the one whose dual is the Gauss map (a round unit sphere).
    """
    grid, X, Y = _chart(n, _SPANS["catenoid"], rotation)
    ch = np.cosh(Y)
    return _result("catenoid", grid, [ch * np.cos(X), ch * np.sin(X), Y],
                   chart_tol, -np.exp(2j * rotation),
                   [np.cos(X) / ch, np.sin(X) / ch, -np.sinh(Y) / ch])


def enneper(n=65, order=2, extent=1.0, rotation=0.0, chart_tol=_CHART_TOL):
    """Enneper-type minimal surface of the given order m >= 1.

    Weierstrass data g = z^m with height differential z^m dz:
    f = (Re(z - z^{2m+1}/(2m+1))/2, -Im(z + z^{2m+1}/(2m+1))/2,
         Re(z^{m+1})/(m+1)), conformal factor e^u = (1 + |z|^{2m})/2.
    The Hopf coefficient is -(m/2) z^{m-1}: constant for m = 1
    (umbilic-free classic Enneper), vanishing exactly at the origin
    for m >= 2.  Shipped differential phi = -m z^{m-1} (twice the Hopf
    coefficient), whose dual is the Gauss map, branched at 0 for m >= 2.
    """
    m = int(order)
    if m != order:
        raise ValueError("order must be an integer, got %r" % (order,))
    if m < 1:
        raise ValueError("order must be >= 1")
    grid, X, Y = _chart(n, (-extent, extent, -extent, extent), rotation)
    z = X + 1j * Y
    k = 2 * m + 1
    g = z ** m
    gd = 1.0 + np.abs(g) ** 2
    return _result("enneper", grid,
                   [0.5 * np.real(z - z ** k / k),
                    -0.5 * np.imag(z + z ** k / k),
                    np.real(z ** (m + 1)) / (m + 1)],
                   chart_tol, -m * z ** (m - 1) * np.exp(2j * rotation),
                   [2 * np.real(g) / gd, 2 * np.imag(g) / gd,
                    (np.abs(g) ** 2 - 1) / gd])


def _two_sided_profile(rhs, s0, y, name):
    """States (len(s0),) + y.shape of the profile ODE integrated from
    y = 0: forward for y >= 0, backward for y < 0.  A side the chart
    does not reach is not integrated."""
    # imported on first use, so that import quatsurf loads no scipy
    from scipy.integrate import solve_ivp
    s0 = np.asarray(s0, dtype=float)
    out = np.empty(s0.shape + y.shape)
    for side, end in ((y >= 0, y.max()), (y < 0, y.min())):
        if not side.any():
            continue
        if end == 0.0:
            out[:, side] = s0[:, None]
            continue
        sol = solve_ivp(rhs, (0.0, float(end)), s0, method="DOP853",
                        rtol=1e-13, atol=1e-14, dense_output=True)
        if not sol.success:
            raise RuntimeError("%s profile integration failed" % name)
        out[:, side] = sol.sol(y[side])
    return out


def _delaunay_profile(neck, bulge, y):
    """Delaunay unduloid profile in isothermal coordinates, at y.

    States (r, z, w): r' = r cos(psi), z' = r sin(psi),
    psi' = 2 H r - sin(psi) with H = 1/(neck + bulge), plus the dual
    height w' = -sin(psi)/r.  First integral: r sin(psi) - H r^2 =
    neck bulge H.  Starts at the neck: r = neck, psi = pi/2.
    """
    H = 1.0 / (neck + bulge)
    s0 = [neck, 0.0, np.pi / 2, 0.0]  # (r, z, psi, w)

    def rhs_full(_, s):
        r, psi = s[0], s[2]
        return [r * np.cos(psi), r * np.sin(psi), 2 * H * r - np.sin(psi),
                -np.sin(psi) / r]

    return _two_sided_profile(rhs_full, s0, y, "unduloid")


def unduloid(n=65, neck=0.5, bulge=1.0, rotation=0.0, chart_tol=_CHART_TOL):
    """Delaunay unduloid, constant mean curvature H = 1/(neck + bulge).

    f = (r(y) cos x, r(y) sin x, -z(y)) with the conformal profile ODE;
    inward normal.  Isothermic for phi = 1 with rotational dual
    (-cos x / r, -sin x / r, w(y)).  neck = bulge degenerates to the
    cylinder of that radius.
    """
    if not 0 < neck <= bulge:
        raise ValueError("need 0 < neck <= bulge")
    grid, X, Y = _chart(n, _SPANS["unduloid"], rotation)
    r, z, _, w = _delaunay_profile(neck, bulge, Y)
    return _result("unduloid", grid, [r * np.cos(X), r * np.sin(X), -z],
                   chart_tol, np.exp(2j * rotation),
                   [-np.cos(X) / r, -np.sin(X) / r, w])


def ellipsoid_of_revolution(n=65, a=1.0, c=2.0, rotation=0.0,
                            chart_tol=_CHART_TOL):
    """Ellipsoid of revolution (equatorial radius a, polar radius c) in
    isothermal latitude coordinates.

    f = (a cos(theta) cos x, -a cos(theta) sin x, c sin(theta)) with
    d theta/dy = a cos(theta)/sqrt(a^2 sin^2 + c^2 cos^2); the poles sit
    at y = +-infinity, so any finite chart stops short of them.  Inward
    normal.  Isothermic for phi = 1; the rotational dual
    (-cos x, sin x, 0)/(a cos theta) + (0, 0, w) blows up toward the
    poles (the dual's two ends).  A rotated chart needs n >= 65 to pass
    the default chart_tol: at n=33, 13 of 30 rotations in [0, pi) miss it.
    """
    grid, X, Y = _chart(n, _SPANS["ellipsoid_of_revolution"], rotation)

    def rhs(_, s):
        th = s[0]
        ct, st = np.cos(th), np.sin(th)
        thp = a * ct / np.hypot(a * st, c * ct)
        return [thp, c * thp * ct / (a * a * ct * ct)]

    theta, w = _two_sided_profile(rhs, [0.0, 0.0], Y, "ellipsoid")
    kappa = np.cos(theta)
    return _result("ellipsoid_of_revolution", grid,
                   [a * kappa * np.cos(X), -a * kappa * np.sin(X),
                    c * np.sin(theta)],
                   chart_tol, np.exp(2j * rotation),
                   [-np.cos(X) / (a * kappa), np.sin(X) / (a * kappa), w])


CATALOG = {
    "sphere": sphere,
    "cylinder": cylinder,
    "catenoid": catenoid,
    "enneper": enneper,
    "unduloid": unduloid,
    "ellipsoid_of_revolution": ellipsoid_of_revolution,
}


def make_surface(name, n=65, **params):
    """Dispatch into the generator catalog by name."""
    if name not in CATALOG:
        raise ValueError("unknown generator %r (have: %s)"
                         % (name, ", ".join(sorted(CATALOG))))
    return CATALOG[name](n=n, **params)
