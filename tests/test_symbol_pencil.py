"""Characteristic angles from the symbol pencil against two oracles.

characteristic_angles solves the pencil M(xi) = xi1 P1 + xi2 P2 rotated
to a reference angle s: the real eigenvalues of A^-1 B, with
A = M(cos s, sin s) and B = M(-sin s, cos s).  One oracle is the scan it
replaced first: 720 covector angles, then bisection on each sign change
of the normalized determinant.  The other is the QZ solve it replaced
next: the real generalized eigenvalues of the pencil (P1, -P2) from
scipy.linalg.  Needs hypothesis (the ``test`` extra).
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import quatsurf as qs
from quatsurf.cauchy import characteristic_angles, symbol
from quatsurf.generators import CATALOG
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


def cylinder_node(q):
    """The chart-axis cylinder at one node, where q = 1 puts the stretch
    cross on the axes (P1 and P2 singular) and q = 1j on the diagonals
    (the pi/4 reference angles' A singular)."""
    gen = qs.make_surface("cylinder", n=N)
    return gen.imm, form_from_qdiff(gen.imm, q), (8, 8)


@settings(max_examples=25, deadline=None)
@given(surface_nodes())
@example(cylinder_node(1.0))
@example(cylinder_node(1j))
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
    # row's angle to the horizontal foliation (undefined at a zero of q),
    # and exactly |sin 2 theta| (|fx| / |fy|)^(3/2): the stretch margin
    # alone decides whether a row is characteristic
    for name, rotation in ROTATED:
        gen = surf(name, n, rotation=rotation)
        tau = form_from_qdiff(gen.imm, gen.q_known)
        det = symbol(gen.imm, tau, (slice(None), slice(None)),
                     (0.0, 1.0)).normalized_det()
        theta, _ = qs.stretch_directions(gen.q_known)
        defined = ~np.isnan(theta)
        dev = np.abs(np.abs(det) - np.abs(np.sin(2 * theta)))
        assert np.max(dev[defined]) < bound, name
        exact = np.abs(np.sin(2 * theta)) \
            * (qs.qnorm(gen.imm.fx) / qs.qnorm(gen.imm.fy)) ** 1.5
        rel = np.abs(np.abs(det) - exact)[defined] / exact[defined]
        assert np.max(rel) < 1e-10, name


def qz_angles(imm, tau, node):
    """The angles from the real generalized eigenvalues alpha / beta of
    the pencil (P1, -P2) by QZ: the line t = atan2(alpha, beta), t + pi."""
    P1 = symbol(imm, tau, node, (1.0, 0.0)).matrix
    P2 = symbol(imm, tau, node, (0.0, 1.0)).matrix
    alpha, beta = scipy.linalg.eigvals(P1, -P2, homogeneous_eigvals=True)
    real = alpha.imag == 0
    t = np.arctan2(alpha.real[real], beta.real[real])
    return np.concatenate([t, t + np.pi]) % (2 * np.pi)


@pytest.mark.parametrize("q, cross", [(1.0, 0.0), (1j, np.pi / 4)])
def test_axis_aligned_stretch_cross(q, cross):
    # the stretch cross lies on two of the four reference angles, whose A
    # is singular (exactly for q = 1, to the discretization for q = 1j):
    # the solve takes one of the other two, and with q = 1 the angles are
    # the chart axes exactly
    imm, tau, node = cylinder_node(q)
    lines = cross + np.arange(4) * (np.pi / 2)
    dets = np.array([abs(symbol(imm, tau, node, (np.cos(t), np.sin(t)))
                         .normalized_det()) for t in lines[:2]])
    assert np.all(dets < (1e-12 if q == 1.0 else 1e-3))
    found = characteristic_angles(imm, tau, node)
    assert len(found) == 4
    assert circular_gap(found, qz_angles(imm, tau, node)[:, None]) \
        .min(axis=0).max() <= 1e-12
    assert circular_gap(found, lines).max() <= (1e-12 if q == 1.0 else 1e-3)


@pytest.mark.parametrize("seed, name", enumerate(sorted(CATALOG)))
def test_pencil_angles_match_qz(seed, name):
    # rotations 0, pi/4, pi/2 and two drawn ones; the known differential,
    # 1, 1j and a drawn unit constant; a 5 x 5 lattice of nodes with the
    # corners and edges.  The ellipsoid misses the default chart_tol at
    # some of these rotations; the pencil needs no conformal chart.
    rng = np.random.default_rng(seed)
    rotations = [0.0, np.pi / 4, np.pi / 2, *rng.uniform(0.0, np.pi, 2)]
    lattice = range(0, 33, 8)
    nodes = 0
    for rotation in rotations:
        gen = qs.make_surface(name, n=33, rotation=rotation, chart_tol=1e-2)
        alpha = rng.uniform(0.0, 2 * np.pi)
        for q in (gen.q_known, 1.0, 1j, np.exp(1j * alpha)):
            tau = form_from_qdiff(gen.imm, q)
            for node in ((j, i) for j in lattice for i in lattice):
                if not (np.any(tau.ax[node]) or np.any(tau.ay[node])):
                    # a zero of q, which QZ has no refusal for
                    with pytest.raises(ValueError, match="vanishes"):
                        characteristic_angles(gen.imm, tau, node)
                    continue
                found = characteristic_angles(gen.imm, tau, node)
                want = qz_angles(gen.imm, tau, node)
                assert len(found) == len(want) == 4, (rotation, q, node)
                gap = circular_gap(np.asarray(found)[:, None], want[None, :])
                assert gap.min(axis=1).max() <= 1e-12, (rotation, q, node)
                assert gap.min(axis=0).max() <= 1e-12, (rotation, q, node)
                nodes += 1
    # every node but Enneper's branch point, once per rotation
    assert nodes >= 5 * 4 * 25 - 5


def test_pencil_singular_for_every_covector_is_refused():
    # a real tau at Enneper's branch point, where the frame is the chart
    # axes exactly: Im(df(v) alpha) and <N, Im(alpha tau(v))> both vanish
    # on alpha = df(v) for every v, so every A has det exactly 0 (QZ
    # returns four real eigenvalues there, eight meaningless angles)
    gen = qs.make_surface("enneper", n=33)
    tau = form_from_qdiff(gen.imm, gen.q_known)
    tau.ax[16, 16] = (1.0, 0.0, 0.0, 0.0)
    tau.ay[16, 16] = (0.5, 0.0, 0.0, 0.0)
    assert len(qz_angles(gen.imm, tau, (16, 16))) == 8
    with pytest.raises(ValueError, match=r"^the symbol pencil is singular at "
                       r"node \(j=16, i=16\): the symbol is singular for "
                       r"every covector$"):
        characteristic_angles(gen.imm, tau, (16, 16))
