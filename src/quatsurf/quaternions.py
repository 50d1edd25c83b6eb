"""Quaternion arrays and the pointwise one-form calculus used by every module.

Quaternions are stored as float arrays with shape (..., 4), components
ordered (w, x, y, z).  The imaginary part (x, y, z) doubles as an R^3
vector, so surface positions, frames and normals all live in the same
representation.  Everything here is exact pointwise algebra; there are
no grids and no tolerances except for unit-normal validation.
"""

import numpy as np

QUAT_DTYPE = np.float64

# largest |Re N| and | |N|^2 - 1 | a normal field may show
_NORMAL_TOL = 1e-9


def quat(w=0.0, x=0.0, y=0.0, z=0.0):
    """Build a single quaternion from scalar components."""
    return np.array([w, x, y, z], dtype=QUAT_DTYPE)


def from_vec(v):
    """Embed R^3 vectors (..., 3) as imaginary quaternions (..., 4)."""
    v = np.asarray(v, dtype=QUAT_DTYPE)
    out = np.zeros(v.shape[:-1] + (4,), dtype=QUAT_DTYPE)
    out[..., 1:] = v
    return out


def to_vec(q):
    """Project quaternions onto their imaginary part, shape (..., 3)."""
    return np.asarray(q)[..., 1:]


def from_real(a):
    """Embed real scalars (...,) as real quaternions (..., 4)."""
    a = np.asarray(a, dtype=QUAT_DTYPE)
    out = np.zeros(a.shape + (4,), dtype=QUAT_DTYPE)
    out[..., 0] = a
    return out


def qmul(a, b):
    """Quaternion product, broadcasting over leading axes.

    Written component by component in the operation order of the
    sum/cross form aw bw - av.bv, aw bv + bw av + av x bv, so results
    are bit-identical to it (the tests hold both forms equal with ==,
    which does not tell -0.0 from 0.0; the sum form's sign of an exact
    zero varied with the array size anyway):
    w = aw bw - ((ax bx + ay by) + az bz) and
    x = (aw bx + bw ax) + (ay bz - az by), cyclically for y and z.
    """
    a = np.asarray(a, dtype=QUAT_DTYPE)
    b = np.asarray(b, dtype=QUAT_DTYPE)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=QUAT_DTYPE)
    out[..., 0] = aw * bw - ((ax * bx + ay * by) + az * bz)
    out[..., 1] = (aw * bx + bw * ax) + (ay * bz - az * by)
    out[..., 2] = (aw * by + bw * ay) + (az * bx - ax * bz)
    out[..., 3] = (aw * bz + bw * az) + (ax * by - ay * bx)
    return out


def qconj(q):
    q = np.asarray(q, dtype=QUAT_DTYPE)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def qnormsq(q):
    """|q|^2 as ((w w + x x) + y y) + z z: the order of a sum over the
    last axis, so bit-identical to np.sum(q**2, axis=-1) (tested)."""
    q = np.asarray(q, dtype=QUAT_DTYPE)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return ((w * w + x * x) + y * y) + z * z


def qnorm(q):
    return np.sqrt(qnormsq(q))


def qiszero(q):
    """True where all four components are zero.  |q|^2 underflows to 0
    for nonzero q with components below about 1e-162, so it cannot tell."""
    return np.all(np.asarray(q) == 0.0, axis=-1)


def qinv(q):
    q = np.asarray(q, dtype=QUAT_DTYPE)
    n2 = qnormsq(q)
    small = n2 == 0.0
    if not np.any(small):
        return qconj(q) / n2[..., None]
    if np.any(qiszero(q[small])):
        raise ZeroDivisionError("quaternion inverse of zero")
    # |q|^2 underflowed: invert q / s, with s the largest |component|
    s = np.where(small, np.max(np.abs(q), axis=-1), 1.0)[..., None]
    p = q / s
    return qconj(p) / (qnormsq(p)[..., None] * s)


def qdot(a, b):
    """Euclidean inner product of the 4-component representations, in
    the order of qnormsq (and of np.sum(a*b, axis=-1))."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (((a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])
             + a[..., 2] * b[..., 2]) + a[..., 3] * b[..., 3])


def check_unit_imaginary(N):
    """Validate a unit imaginary quaternion field (a normal field)."""
    N = np.asarray(N)
    if np.max(np.abs(N[..., 0])) > _NORMAL_TOL:
        raise ValueError("normal field has a real part")
    if np.max(np.abs(qnormsq(N) - 1.0)) > _NORMAL_TOL:
        raise ValueError("normal field is not unit length")
    return N


# ---------------------------------------------------------------------------
# one-form values

class QForm:
    """Value of a quaternion-valued one-form on a chart: (ax, ay) are the
    evaluations on the coordinate fields d/dx and d/dy.  ax, ay are
    (..., 4) arrays over the chart nodes."""

    __slots__ = ("ax", "ay")

    def __init__(self, ax, ay):
        self.ax = np.asarray(ax, dtype=QUAT_DTYPE)
        self.ay = np.asarray(ay, dtype=QUAT_DTYPE)

    def __add__(self, other):
        return QForm(self.ax + other.ax, self.ay + other.ay)

    def __sub__(self, other):
        return QForm(self.ax - other.ax, self.ay - other.ay)

    def __mul__(self, c):
        return QForm(self.ax * c, self.ay * c)

    __rmul__ = __mul__

    def __neg__(self):
        return QForm(-self.ax, -self.ay)

    def norm(self):
        """Pointwise magnitude sqrt(|ax|^2 + |ay|^2)."""
        return np.sqrt(qnormsq(self.ax) + qnormsq(self.ay))

    def lmul(self, q):
        """Left multiply both components by a quaternion field."""
        return QForm(qmul(q, self.ax), qmul(q, self.ay))


def star(form):
    """Hodge star through the chart rotation d/dx -> d/dy, d/dy -> -d/dx."""
    return QForm(form.ay, -form.ax)


def split_conformal(form, N):
    """Split a one-form into its conformal and anti-conformal parts.

    The conformal part kc satisfies star(kc) = N kc, the anti-conformal
    part ka satisfies star(ka) = -N ka, and kc + ka = form.  These are
    the unique linear projectors with those properties:
    kc = (form - N star(form))/2, ka = (form + N star(form))/2.
    """
    check_unit_imaginary(N)
    ns = star(form).lmul(N)
    kc = 0.5 * (form - ns)
    ka = 0.5 * (form + ns)
    return kc, ka


def anticonformal_defect(form, N):
    """star(form) + N form, which vanishes exactly when form is
    anti-conformal; its norm is twice that of the conformal part."""
    return star(form) + form.lmul(N)


def value_tangential(q, N):
    """Tangential part of a quaternion value: (q + N q N)/2.

    Tangential values anticommute with N; real and N-aligned parts
    commute with N and land in the complement.
    """
    nqn = qmul(N, qmul(q, N))
    return 0.5 * (q + nqn)


def value_transversal(q, N):
    """Complementary part (q - N q N)/2, commuting with N."""
    nqn = qmul(N, qmul(q, N))
    return 0.5 * (q - nqn)


def split_tangential(form, N):
    """Split a one-form into tangential and transversal parts w.r.t. N."""
    check_unit_imaginary(N)
    tang = QForm(value_tangential(form.ax, N), value_tangential(form.ay, N))
    perp = QForm(value_transversal(form.ax, N), value_transversal(form.ay, N))
    return tang, perp


def wedge(alpha, beta):
    """Two-form value (alpha ^ beta)(d/dx, d/dy) with quaternion products.

    Order matters: alpha(d/dx) beta(d/dy) - alpha(d/dy) beta(d/dx).
    """
    return qmul(alpha.ax, beta.ay) - qmul(alpha.ay, beta.ax)
