"""Quaternion arrays and the pointwise one-form calculus used by every module.

Quaternions are float arrays with shape (..., 4), components ordered
(w, x, y, z), stored as four contiguous component planes behind that
view (ufuncs and empty_like keep the layout of their inputs).  Input of
any layout is accepted; np.ascontiguousarray gives an interleaved copy.
The imaginary part (x, y, z) doubles as an R^3 vector, so surface
positions, frames and normals all live in the same representation.
Everything here is exact pointwise algebra; there are no grids and no
tolerances except for unit-normal validation.

The whole-grid kernels (qmul, qnormsq, qdot and wedge here; deriv_x,
the spin rotation, _rotate and the cumulative integral elsewhere) and
the pointwise tails of weingarten_split, raw_frame, form_from_qdiff,
integrate_form and verify_duality fill their output through
_split_rows, the one place that decides: rows split over two threads
when every operand is an (ny, nx) or (ny, nx, k) field on the output's
grid, the smallest holds _SPLIT_SIZE values or more, the call is not
inside a half, and the process may use two CPUs.  A fill calls only the
private row kernels (_qmul_rows and the like), never a public function.
"""

import contextvars
import os
import threading

import numpy as np

QUAT_DTYPE = np.float64

# largest |Re N| and | |N|^2 - 1 | a normal field may show
_NORMAL_TOL = 1e-9

# Rows split over two threads when every operand is an (ny, nx) or
# (ny, nx, k) field on the output's grid, the smallest holds this many
# values or more, the call is not inside a half, and the process may use
# two CPUs: quaternion fields from 2**16 nodes, real fields from 2**18.
# Below it qnormsq and qdot lose to the hand-off (CHANGES.md has the table).
_SPLIT_SIZE = 1 << 18

_split_lock = threading.Lock()
_split_state = threading.local()
_split_pool = None  # (pid, ThreadPoolExecutor(1)), started by the first split


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _fill_half(fill, out, rows, args):
    _split_state.inside = True
    try:
        fill(out, *rows, *args)
    finally:
        _split_state.inside = False


def _grid_of(out):
    return (out[0] if isinstance(out, tuple) else out).shape[:2]


def _cut(out, rows, s):
    """out and rows restricted to the rows s, out as one array or a tuple."""
    out = tuple(o[s] for o in out) if isinstance(out, tuple) else out[s]
    return out, tuple(r[s] for r in rows)


def _split_rows(fill, out, rows, *args):
    """fill(out, *rows, *args); returns out.

    out is one array or a tuple of arrays, each with the grid's rows on
    axis 0 (a per-row array included); the first gives the grid, and a
    fill handed a tuple fills each of its arrays.  Rows split over two
    threads when every operand is an (ny, nx) or (ny, nx, k) field on
    that grid, the smallest holds _SPLIT_SIZE values or more, the call
    is not inside a half, and the process may use two CPUs.  This thread
    fills the lower half of every output and one worker thread the upper
    half.  fill computes each element from the same expression whatever
    rows it is handed, so the result is the same bits as one inline
    call; args pass whole to both halves.  The worker runs in a copy of
    the caller's context, so np.errstate holds there too; an exception
    from either half reaches the caller once both are done.
    """
    global _split_pool
    # rows[0]'s size first: a small call pays one comparison
    if (rows[0].size < _SPLIT_SIZE or getattr(_split_state, "inside", False)
            or any(r.ndim not in (2, 3) or r.shape[:2] != _grid_of(out)
                   or r.size < _SPLIT_SIZE for r in rows)
            or _cpu_count() < 2):
        fill(out, *rows, *args)
        return out
    with _split_lock:
        # a forked child inherits the pool but not its thread
        if _split_pool is None or _split_pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            _split_pool = (os.getpid(), ThreadPoolExecutor(1))
        pool = _split_pool[1]
    h = _grid_of(out)[0] // 2
    upper = pool.submit(contextvars.copy_context().run, _fill_half, fill,
                        *_cut(out, rows, slice(h, None)), args)
    try:
        _fill_half(fill, *_cut(out, rows, slice(None, h)), args)
    except BaseException:
        upper.exception()  # the worker still writes into out: wait for it
        raise
    upper.result()
    return out


def _qempty(shape, planes=4):
    """Uninitialised (*shape, planes) view over that many contiguous
    (*shape) planes."""
    return np.empty((planes,) + shape, dtype=QUAT_DTYPE).transpose(
        tuple(range(1, len(shape) + 1)) + (0,))


def _check_quaternions(*qs):
    for q in qs:
        if q.shape[-1:] != (4,):
            raise ValueError("quaternion array of shape %s: the last axis "
                             "must have length 4" % (q.shape,))


def quat(w=0.0, x=0.0, y=0.0, z=0.0):
    """Build a single quaternion from scalar components."""
    return np.array([w, x, y, z], dtype=QUAT_DTYPE)


def from_vec(v):
    """Embed R^3 vectors (..., 3) as imaginary quaternions (..., 4)."""
    v = np.asarray(v, dtype=QUAT_DTYPE)
    out = _qempty(v.shape[:-1])
    out[..., 0] = 0.0
    out[..., 1:] = v
    return out


def to_vec(q):
    """Project quaternions onto their imaginary part, shape (..., 3)."""
    return np.asarray(q)[..., 1:]


def from_real(a):
    """Embed real scalars (...,) as real quaternions (..., 4)."""
    a = np.asarray(a, dtype=QUAT_DTYPE)
    out = _qempty(a.shape)
    out[..., 0] = a
    out[..., 1:] = 0.0
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
    _check_quaternions(a, b)
    shape = a.shape if a.shape == b.shape else np.broadcast(a, b).shape
    return _split_rows(_qmul_rows, _qempty(shape[:-1]), (a, b))


def _qmul_re(a, b):
    """Re(a b) = qmul(a, b)[..., 0], in qmul's operation order."""
    w = a[..., 0] * b[..., 0]
    w -= ((a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2])
          + a[..., 3] * b[..., 3])
    return w


def _qmul_rows(out, a, b):
    """qmul of two float64 quaternion arrays into out."""
    # one live plane fewer: on large fields, keeping w or writing the
    # components through out= measured slower than these copies
    out[..., 0] = _qmul_re(a, b)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out[..., 1] = (aw * bx + bw * ax) + (ay * bz - az * by)
    out[..., 2] = (aw * by + bw * ay) + (az * bx - ax * bz)
    out[..., 3] = (aw * bz + bw * az) + (ax * by - ay * bx)
    return out


def qconj(q):
    q = np.asarray(q, dtype=QUAT_DTYPE)
    out = q.copy(order="K")
    out[..., 1:] *= -1.0
    return out


def qnormsq(q):
    """|q|^2 as ((w w + x x) + y y) + z z: the order of a sum over the
    last axis, so bit-identical to np.sum(q**2, axis=-1) (tested)."""
    q = np.asarray(q, dtype=QUAT_DTYPE)
    _check_quaternions(q)
    out = _split_rows(_qdot_rows, np.empty(q.shape[:-1]), (q, q))
    # np.add's scalar for one quaternion, else out itself: numpy reuses
    # a temporary in place only when it owns its data, as views do not
    return out if out.ndim else out[()]


def qnorm(q):
    return np.sqrt(qnormsq(q))


def qiszero(q):
    """True where all four components are zero.  |q|^2 underflows to 0
    for nonzero q with components below about 1e-162, so it cannot tell."""
    return np.all(np.asarray(q) == 0.0, axis=-1)


def qinv(q):
    q = np.asarray(q, dtype=QUAT_DTYPE)
    _check_quaternions(q)
    return _qinv_rows(_qempty(q.shape[:-1]), q)


def _qinv_rows(out, q):
    """qinv of a float64 quaternion array into out: conj(q) / |q|^2,
    each component as qconj's q * -1.0 divided by |q|^2.  Each element
    reads only its own quaternion, whatever rows are handed in."""
    n2 = np.empty(q.shape[:-1])
    _qdot_rows(n2, q, q)
    small = n2 == 0.0
    if np.any(small):
        if np.any(np.all(q[small] == 0.0, axis=-1)):
            raise ZeroDivisionError("quaternion inverse of zero")
        # |q|^2 underflowed: invert q / s, with s the largest |component|
        # (s = 1 elsewhere, where q / s and |q / s|^2 s are exact)
        s = np.where(small, np.max(np.abs(q), axis=-1), 1.0)
        q = q / s[..., None]
        _qdot_rows(n2, q, q)
        n2 *= s
    np.divide(q[..., 0], n2, out=out[..., 0])
    for k in range(1, 4):
        np.multiply(q[..., k], -1.0, out=out[..., k])
        out[..., k] /= n2
    return out


def qdot(a, b):
    """Euclidean inner product of the 4-component representations, in
    the order of qnormsq (and of np.sum(a*b, axis=-1))."""
    a = np.asarray(a)
    b = np.asarray(b)
    _check_quaternions(a, b)
    shape = a.shape if a.shape == b.shape else np.broadcast(a, b).shape
    out = np.empty(shape[:-1], dtype=np.result_type(a, b))
    _split_rows(_qdot_rows, out, (a, b))
    return out if out.ndim else out[()]  # as in qnormsq


def _qdot_rows(out, a, b):
    return np.add((a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])
                  + a[..., 2] * b[..., 2], a[..., 3] * b[..., 3], out=out)


def check_unit_imaginary(N):
    """Validate a unit imaginary quaternion field (a normal field)."""
    N = np.asarray(N)
    _check_unit(np.max(np.abs(N[..., 0])), np.max(np.abs(qnormsq(N) - 1.0)))
    return N


def _check_unit(real_max, norm_max):
    """The test of check_unit_imaginary on the largest |Re N| and
    | |N|^2 - 1 | of a normal field."""
    if not np.isfinite(real_max) or not np.isfinite(norm_max):
        raise ValueError("normal field is not finite")
    if real_max > _NORMAL_TOL:
        raise ValueError("normal field has a real part")
    if norm_max > _NORMAL_TOL:
        raise ValueError("normal field is not unit length")


def _unit_rows(out, N):
    """Each row's largest |Re N| and | |N|^2 - 1 | into the (rows, 2)
    out; the largest over the rows is exact, so _check_unit on the
    column maxima of out is check_unit_imaginary(N)."""
    np.max(np.abs(N[..., 0]), axis=1, out=out[:, 0])
    dev = np.empty(N.shape[:-1])
    _qdot_rows(dev, N, N)
    dev -= 1.0
    np.abs(dev, out=dev)
    np.max(dev, axis=1, out=out[:, 1])


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


def split_value(q, N):
    """Tangential and transversal parts of a quaternion value:
    (q + N q N)/2 and (q - N q N)/2.

    Tangential values anticommute with N; real and N-aligned parts
    commute with N and land in the transversal part.
    """
    nqn = qmul(N, qmul(q, N))
    return 0.5 * (q + nqn), 0.5 * (q - nqn)


def split_tangential(form, N):
    """Split a one-form into tangential and transversal parts w.r.t. N."""
    check_unit_imaginary(N)
    tx, px = split_value(form.ax, N)
    ty, py = split_value(form.ay, N)
    return QForm(tx, ty), QForm(px, py)


def wedge(alpha, beta):
    """Two-form value (alpha ^ beta)(d/dx, d/dy) with quaternion products.

    Order matters: alpha(d/dx) beta(d/dy) - alpha(d/dy) beta(d/dx).
    """
    rows = (alpha.ax, alpha.ay, beta.ax, beta.ay)
    _check_quaternions(*rows)
    shape = np.broadcast_shapes(*(r.shape for r in rows))
    return _split_rows(_wedge_rows, _qempty(shape[:-1]), rows)


def _wedge_rows(out, ax, ay, bx, by):
    """wedge of the forms (ax, ay) and (bx, by) into out."""
    _qmul_rows(out, ax, by)
    out -= _qmul_rows(_qempty(out.shape[:-1]), ay, bx)
    return out
