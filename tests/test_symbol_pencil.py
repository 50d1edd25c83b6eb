"""Characteristic angles from the symbol pencil against a sign-change scan.

characteristic_angles takes the real generalized eigenvalues of the
pencil (P1, -P2), M(xi) = xi1 P1 + xi2 P2.  The oracle below is the scan
it replaced: 720 covector angles, then bisection on each sign change of
the normalized determinant.  Needs hypothesis (the ``test`` extra).
"""

import numpy as np
import pytest
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


# a rotated chart of each catalog surface that passes the default chart_tol
ROTATED = [("sphere", 0.4), ("cylinder", 0.5), ("catenoid", 0.3),
           ("unduloid", 0.7), ("enneper", 0.2),
           ("ellipsoid_of_revolution", 0.3)]


@pytest.mark.parametrize("n, bound", [(33, 1e-3), (65, 1e-4)])
def test_row_symbol_determinant_is_the_sine_of_twice_the_stretch_angle(
        n, bound, surf):
    # the characteristic covectors sit on the stretch cross: for the row
    # conormal (0, 1), |det| = |sin 2 theta| to fourth order, theta the
    # row's angle to the horizontal foliation (undefined at a zero of q)
    for name, rotation in ROTATED:
        gen = surf(name, n, rotation=rotation)
        tau = form_from_qdiff(gen.imm, gen.q_known)
        det = symbol(gen.imm, tau, (slice(None), slice(None)),
                     (0.0, 1.0)).normalized_det()
        theta, _ = qs.stretch_directions(gen.q_known)
        dev = np.abs(np.abs(det) - np.abs(np.sin(2 * theta)))
        assert np.max(dev[~np.isnan(theta)]) < bound, name
