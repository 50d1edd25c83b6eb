"""Point-cloud registration used by the congruence diagnostics."""

import numpy as np
import pytest

from quatsurf.align import (congruence_distance, rigid_align,
                            similarity_distance)

RNG = np.random.default_rng(2718)


def _rotation(axis, angle):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


def test_rigid_align_recovers_motion():
    pts = RNG.standard_normal((200, 3))
    R_true = _rotation([1.0, 2.0, -0.5], 0.9)
    t_true = np.array([0.3, -1.1, 2.0])
    moved = pts @ R_true.T + t_true
    R, t, s, rms = rigid_align(pts, moved)
    assert rms < 1e-12
    assert s == pytest.approx(1.0)
    assert np.max(np.abs(R - R_true)) < 1e-12
    assert np.max(np.abs(t - t_true)) < 1e-12
    assert np.linalg.det(R) == pytest.approx(1.0)


def test_rigid_align_with_scale():
    pts = RNG.standard_normal((150, 3))
    moved = 2.5 * pts @ _rotation([0, 0, 1], 0.4).T - 1.0
    # without scale freedom the fit is poor, with it the fit is exact
    _, _, _, rms_rigid = rigid_align(pts, moved, allow_scale=False)
    R, t, s, rms_sim = rigid_align(pts, moved, allow_scale=True)
    assert rms_rigid > 0.1
    assert rms_sim < 1e-12
    assert s == pytest.approx(2.5)


def test_distances_on_grids():
    grid_pts = RNG.standard_normal((11, 11, 3))
    moved = grid_pts @ _rotation([1, 1, 1], 1.2).T + 5.0
    assert congruence_distance(grid_pts, moved) < 1e-12
    scaled = 3.0 * grid_pts
    assert congruence_distance(grid_pts, scaled) > 0.1
    assert similarity_distance(grid_pts, scaled) < 1e-12


def test_distance_does_not_depend_on_the_memory_layout():
    # the positions of a component-planar quaternion field, as the
    # library stores them, against a C copy of the same points
    rng = np.random.default_rng(5)
    p, q = (np.moveaxis(rng.standard_normal((4, 129, 129)), 0, -1)[..., 1:]
            for _ in range(2))
    assert congruence_distance(p, q) == congruence_distance(
        np.ascontiguousarray(p), np.ascontiguousarray(q))


def test_rotation_stays_proper_under_reflection():
    pts = RNG.standard_normal((100, 3))
    reflected = pts.copy()
    reflected[:, 0] *= -1.0
    R, _, _, rms = rigid_align(pts, reflected)
    # a reflection cannot be matched by a proper rotation
    assert np.linalg.det(R) == pytest.approx(1.0)
    assert rms > 0.1


def test_shape_mismatch_rejected():
    a = RNG.standard_normal((10, 3))
    b = RNG.standard_normal((11, 3))
    with pytest.raises(ValueError):
        rigid_align(a, b)


def test_points_need_a_trailing_axis_of_3():
    with pytest.raises(ValueError, match="^expected points with a trailing "
                       "axis of length 3$"):
        rigid_align(np.zeros((5, 2)), np.zeros((5, 2)))
