"""Point-cloud alignment used by the congruence and scaling checks."""

import numpy as np


def _flatten_points(p):
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError("expected points with a trailing axis of length 3")
    # a C copy: the sums below then run in one order for every layout
    return np.ascontiguousarray(p.reshape(-1, 3))


def rigid_align(source, target, allow_scale=False):
    """Best rotation R (det +1), translation t and optional scale s with
    s R source + t ~ target in least squares.  Returns (R, t, s, rms).
    """
    P = _flatten_points(source)
    Q = _flatten_points(target)
    if P.shape != Q.shape:
        raise ValueError("point sets differ in size")
    mp = P.mean(axis=0)
    mq = Q.mean(axis=0)
    Pc = P - mp
    Qc = Q - mq
    C = Pc.T @ Qc / P.shape[0]
    U, S, Vt = np.linalg.svd(C)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    if allow_scale:
        var = (Pc ** 2).sum() / P.shape[0]
        s = (S * np.diag(D)).sum() / var if var > 0 else 1.0
    else:
        s = 1.0
    t = mq - s * R @ mp
    res = s * (R @ Pc.T).T - Qc
    rms = float(np.sqrt((res ** 2).sum(axis=1).mean()))
    return R, t, s, rms


def congruence_distance(source, target):
    """RMS distance after the best rigid motion (no scaling)."""
    return rigid_align(source, target, allow_scale=False)[3]


def similarity_distance(source, target):
    """RMS distance after the best similarity (rotation + scale +
    translation), reported relative to the target's centered RMS size."""
    _, _, _, rms = rigid_align(source, target, allow_scale=True)
    Q = _flatten_points(target)
    size = float(np.sqrt(((Q - Q.mean(axis=0)) ** 2).sum(axis=1).mean()))
    return rms / size if size > 0 else rms
