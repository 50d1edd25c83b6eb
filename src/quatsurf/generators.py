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
from scipy.integrate import solve_ivp

from .charts import ChartImmersion, GridChart, build_immersion
from .quaddiff import QuadDifferential

TWO_PI = 2.0 * np.pi


@dataclass(eq=False)
class GeneratorResult:
    name: str
    params: dict
    imm: ChartImmersion
    q_known: QuadDifferential | None = None
    dual_known: np.ndarray | None = None
    note: str = ""


def _rotated_coords(grid, rotation):
    Xc, Yc = grid.mesh()
    if rotation == 0.0:
        return Xc, Yc
    ca, sa = np.cos(rotation), np.sin(rotation)
    return ca * Xc - sa * Yc, sa * Xc + ca * Yc


def _phase(rotation):
    return np.exp(2j * rotation)


def sphere(n=65, extent=0.6, rotation=0.0, chart_tol=1e-3):
    """Unit sphere on a stereographic chart [-extent, extent]^2.

    f = (2x, 2y, x^2 + y^2 - 1)/(1 + x^2 + y^2); the frame normal is
    N = -f (inward) and H = +1.  Isothermic for every holomorphic
    differential; the canonical choice shipped here is phi = 1.
    """
    grid = GridChart.from_bounds(-extent, extent, -extent, extent, n, n)
    X, Y = _rotated_coords(grid, rotation)
    den = 1.0 + X ** 2 + Y ** 2
    pos = np.stack([2 * X / den, 2 * Y / den, (X ** 2 + Y ** 2 - 1) / den],
                   axis=-1)
    imm = build_immersion(grid, pos, chart_tol=chart_tol)
    q = QuadDifferential.constant(grid, _phase(rotation))
    return GeneratorResult(
        "sphere", {"n": n, "extent": extent, "rotation": rotation},
        imm, q_known=q, note="normal inward (N = -f), H = +1")


def cylinder(n=65, radius=1.0, x_span=(0.0, TWO_PI), y_span=(-1.0, 1.0),
             rotation=0.0, chart_tol=1e-3):
    """Circular cylinder f = radius (cos x, sin x, -y), inward normal,
    H = +1/(2 radius), u = log radius.  Isothermic for phi = 1; the
    closed-form dual is (-cos x, -sin x, -y)/radius.
    """
    grid = GridChart.from_bounds(x_span[0], x_span[1], y_span[0], y_span[1],
                                 n, n)
    X, Y = _rotated_coords(grid, rotation)
    r = float(radius)
    pos = np.stack([r * np.cos(X), r * np.sin(X), -r * Y], axis=-1)
    imm = build_immersion(grid, pos, chart_tol=chart_tol)
    q = QuadDifferential.constant(grid, _phase(rotation))
    dual = np.stack([-np.cos(X) / r, -np.sin(X) / r, -Y / r], axis=-1)
    return GeneratorResult(
        "cylinder",
        {"n": n, "radius": radius, "x_span": list(x_span),
         "y_span": list(y_span), "rotation": rotation},
        imm, q_known=q, dual_known=dual,
        note="normal inward, H = 1/(2 radius)")


def catenoid(n=65, x_span=(0.0, TWO_PI), y_span=(-1.0, 1.0), rotation=0.0,
             chart_tol=1e-3):
    """Catenoid f = (cosh y cos x, cosh y sin x, y), minimal (H = 0).

    The frame normal is (cos x, sin x, -sinh y)/cosh y, pointing away
    from the axis at the waist.  The shipped differential phi = -1 is
    the one whose dual is the Gauss map (a round unit sphere).
    """
    grid = GridChart.from_bounds(x_span[0], x_span[1], y_span[0], y_span[1],
                                 n, n)
    X, Y = _rotated_coords(grid, rotation)
    ch = np.cosh(Y)
    pos = np.stack([ch * np.cos(X), ch * np.sin(X), Y], axis=-1)
    imm = build_immersion(grid, pos, chart_tol=chart_tol)
    q = QuadDifferential.constant(grid, -_phase(rotation))
    dual = np.stack([np.cos(X) / ch, np.sin(X) / ch, -np.sinh(Y) / ch],
                    axis=-1)
    return GeneratorResult(
        "catenoid",
        {"n": n, "x_span": list(x_span), "y_span": list(y_span),
         "rotation": rotation},
        imm, q_known=q, dual_known=dual,
        note="normal away from the axis at the waist, H = 0; dual = Gauss map")


def enneper(n=65, order=2, extent=1.0, rotation=0.0, chart_tol=1e-3):
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
    if m < 1:
        raise ValueError("order must be >= 1")
    grid = GridChart.from_bounds(-extent, extent, -extent, extent, n, n)
    X, Y = _rotated_coords(grid, rotation)
    z = X + 1j * Y
    k = 2 * m + 1
    f1 = 0.5 * np.real(z - z ** k / k)
    f2 = -0.5 * np.imag(z + z ** k / k)
    f3 = np.real(z ** (m + 1)) / (m + 1)
    pos = np.stack([f1, f2, f3], axis=-1)
    imm = build_immersion(grid, pos, chart_tol=chart_tol)
    q = QuadDifferential(grid, -m * z ** (m - 1) * _phase(rotation))
    g = z ** m
    gd = 1.0 + np.abs(g) ** 2
    dual = np.stack([2 * np.real(g) / gd, 2 * np.imag(g) / gd,
                     (np.abs(g) ** 2 - 1) / gd], axis=-1)
    return GeneratorResult(
        "enneper",
        {"n": n, "order": order, "extent": extent, "rotation": rotation},
        imm, q_known=q, dual_known=dual,
        note="minimal, H = 0; dual = Gauss map, branch at origin for order >= 2")


def _two_sided_profile(rhs, s0, y_lo, y_hi, name):
    """Integrate the profile ODE from y = 0 to y_hi and to y_lo.

    Returns evaluate(y) -> states (len(s0),) + y.shape, taken from the
    forward solution for y >= 0 and the backward one for y < 0.
    """
    s0 = np.asarray(s0, dtype=float)
    sols = {}
    for end, key in ((y_hi, "fwd"), (y_lo, "bwd")):
        if end == 0.0:
            sols[key] = None
            continue
        sols[key] = solve_ivp(rhs, (0.0, end), s0, method="DOP853",
                              rtol=1e-13, atol=1e-14, dense_output=True)
        if not sols[key].success:
            raise RuntimeError("%s profile integration failed" % name)

    def evaluate(y):
        y = np.asarray(y, dtype=float)
        out = np.empty(s0.shape + y.shape)
        pos = y >= 0
        if pos.any():
            if sols["fwd"] is None:
                out[:, pos] = s0[:, None]
            else:
                out[:, pos] = sols["fwd"].sol(y[pos])
        if (~pos).any():
            out[:, ~pos] = sols["bwd"].sol(y[~pos])
        return out

    return evaluate


def _delaunay_profile(neck, bulge, y_lo, y_hi):
    """Delaunay unduloid profile in isothermal coordinates.

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

    return _two_sided_profile(rhs_full, s0, y_lo, y_hi, "unduloid"), H


def unduloid(n=65, neck=0.5, bulge=1.0, x_span=(0.0, 1.6),
             y_span=(-0.8, 0.8), rotation=0.0, chart_tol=1e-3):
    """Delaunay unduloid, constant mean curvature H = 1/(neck + bulge).

    f = (r(y) cos x, r(y) sin x, -z(y)) with the conformal profile ODE;
    inward normal.  Isothermic for phi = 1 with rotational dual
    (-cos x / r, -sin x / r, w(y)).  neck = bulge degenerates to the
    cylinder of that radius.
    """
    if not 0 < neck <= bulge:
        raise ValueError("need 0 < neck <= bulge")
    grid = GridChart.from_bounds(x_span[0], x_span[1], y_span[0], y_span[1],
                                 n, n)
    X, Y = _rotated_coords(grid, rotation)
    profile, H = _delaunay_profile(neck, bulge, float(Y.min()), float(Y.max()))
    r, z, _, w = profile(Y)
    pos = np.stack([r * np.cos(X), r * np.sin(X), -z], axis=-1)
    imm = build_immersion(grid, pos, chart_tol=chart_tol)
    q = QuadDifferential.constant(grid, _phase(rotation))
    dual = np.stack([-np.cos(X) / r, -np.sin(X) / r, w], axis=-1)
    return GeneratorResult(
        "unduloid",
        {"n": n, "neck": neck, "bulge": bulge, "x_span": list(x_span),
         "y_span": list(y_span), "rotation": rotation},
        imm, q_known=q, dual_known=dual,
        note="normal inward, CMC H = 1/(neck + bulge)")


def ellipsoid_of_revolution(n=65, a=1.0, c=2.0, x_span=(0.0, TWO_PI),
                            y_span=(-2.0, 2.0), rotation=0.0, chart_tol=1e-3):
    """Ellipsoid of revolution (equatorial radius a, polar radius c) in
    isothermal latitude coordinates.

    f = (a cos(theta) cos x, -a cos(theta) sin x, c sin(theta)) with
    d theta/dy = a cos(theta)/sqrt(a^2 sin^2 + c^2 cos^2); the poles sit
    at y = +-infinity, so any finite chart stops short of them.  Inward
    normal.  Isothermic for phi = 1; the rotational dual
    (-cos x, sin x, 0)/(a cos theta) + (0, 0, w) blows up toward the
    poles (the dual's two ends).
    """
    grid = GridChart.from_bounds(x_span[0], x_span[1], y_span[0], y_span[1],
                                 n, n)
    X, Y = _rotated_coords(grid, rotation)

    def rhs(_, s):
        th = s[0]
        ct, st = np.cos(th), np.sin(th)
        thp = a * ct / np.hypot(a * st, c * ct)
        return [thp, c * thp * ct / (a * a * ct * ct)]

    profile = _two_sided_profile(rhs, [0.0, 0.0], float(Y.min()),
                                 float(Y.max()), "ellipsoid")
    theta, w = profile(Y)
    kappa = np.cos(theta)
    pos = np.stack([a * kappa * np.cos(X), -a * kappa * np.sin(X),
                    c * np.sin(theta)], axis=-1)
    imm = build_immersion(grid, pos, chart_tol=chart_tol)
    q = QuadDifferential.constant(grid, _phase(rotation))
    dual = np.stack([-np.cos(X) / (a * kappa), np.sin(X) / (a * kappa), w],
                    axis=-1)
    return GeneratorResult(
        "ellipsoid_of_revolution",
        {"n": n, "a": a, "c": c, "x_span": list(x_span),
         "y_span": list(y_span), "rotation": rotation},
        imm, q_known=q, dual_known=dual,
        note="normal inward; dual has two ends toward the poles")


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
