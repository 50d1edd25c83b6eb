"""Characteristic angles from the symbol pencil against a sign-change scan.

characteristic_angles takes the real generalized eigenvalues of the
pencil (P1, -P2), M(xi) = xi1 P1 + xi2 P2.  The oracle below is the scan
it replaced: 720 covector angles, then bisection on each sign change of
the normalized determinant.  Needs hypothesis (the ``test`` extra).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import quatsurf as qs
from quatsurf.cauchy import characteristic_angles, symbol
from quatsurf.quaddiff import form_from_qdiff

N = 17


def scan_angles(imm, tau, node, n_angles=720, refine_iters=50):
    """Angles in [0, 2 pi) where the symbol determinant vanishes,
    located by sign change and bisection."""

    def det_at(t):
        return symbol(imm, tau, node, (np.cos(t), np.sin(t))).normalized_det()

    angles = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    dets = np.array([det_at(t) for t in angles])
    zeros = []
    for k in range(n_angles):
        a, b = angles[k], angles[(k + 1) % n_angles] \
            if k + 1 < n_angles else 2 * np.pi
        da, db = dets[k], dets[(k + 1) % n_angles]
        if da == 0.0:
            zeros.append(a)
            continue
        if da * db < 0:
            lo, hi, dlo = a, b, da
            for _ in range(refine_iters):
                mid = 0.5 * (lo + hi)
                dm = det_at(mid)
                if dm == 0.0:
                    lo = hi = mid
                    break
                if dlo * dm < 0:
                    hi = mid
                else:
                    lo, dlo = mid, dm
            zeros.append(0.5 * (lo + hi))
    return sorted(z % (2 * np.pi) for z in zeros)


def circular_gap(a, b):
    return np.abs((np.asarray(a) - np.asarray(b) + np.pi) % (2 * np.pi)
                  - np.pi)


@st.composite
def surface_nodes(draw):
    name = draw(st.sampled_from(["cylinder", "catenoid", "unduloid",
                                 "sphere"]))
    rotation = draw(st.floats(0.0, np.pi))
    gen = qs.make_surface(name, n=N, rotation=rotation)
    q = 1j if name == "sphere" else gen.q_known
    node = (draw(st.integers(2, N - 3)), draw(st.integers(2, N - 3)))
    return gen.imm, form_from_qdiff(gen.imm, q), node


@settings(max_examples=25, deadline=None)
@given(surface_nodes())
def test_pencil_angles_match_the_scan(case):
    imm, tau, node = case
    found = characteristic_angles(imm, tau, node)
    want = scan_angles(imm, tau, node)
    assert len(found) == len(want) == 4
    assert all(0.0 <= t < 2 * np.pi for t in found)
    for t in found:
        assert circular_gap(t, want).min() <= 1e-12
        s = symbol(imm, tau, node, (np.cos(t), np.sin(t)))
        assert abs(s.normalized_det()) <= 1e-10
