from __future__ import annotations

import numpy as np
import pytest

from dexretarget.assets import robot_path
from dexretarget.errors import DataError
from dexretarget.kinematics import load_robot
from dexretarget.transforms import (
    RigidTransform,
    axis_angle_matrix,
    matrix_to_quat,
    quat_from_rpy,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    quat_to_rotvec,
)

from helpers import almost_equal, compose, inverse


def random_quat(rng):
    return quat_normalize(rng.normal(size=4))


def test_quat_matrix_round_trip_covers_large_angles():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = random_quat(rng)
        again = matrix_to_quat(quat_to_matrix(q))
        assert np.abs(again - q).max() < 1e-12  # both canonicalized to w >= 0


def test_matrix_to_quat_near_pi_branches():
    # Half-turns about each axis exercise every Shepperd branch.
    for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])):
        for angle in (np.pi, np.pi - 1e-7, -np.pi + 1e-7):
            m = axis_angle_matrix(axis, angle)
            q = matrix_to_quat(m)
            assert np.abs(quat_to_matrix(q) - m).max() < 1e-9


def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = random_quat(rng), random_quat(rng)
        lhs = quat_to_matrix(quat_normalize(quat_multiply(a, b)))
        rhs = quat_to_matrix(a) @ quat_to_matrix(b)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_rpy_matches_fixed_axis_composition():
    # Random angles and the bundled robots' link origins. The stacked call
    # gives each triple's quaternion bitwise, also normalized again (as a
    # tree's origins are).
    rng = np.random.default_rng(2)
    angles = np.concatenate([rng.uniform(-np.pi, np.pi, size=(50, 3))]
                            + [load_robot(robot_path(name)).origin_rpy for name in ("allegro", "schunk", "adroit")])
    stacked = quat_from_rpy(*angles.T)
    assert stacked.shape == (len(angles), 4)
    for (roll, pitch, yaw), q in zip(angles, stacked):
        np.testing.assert_array_equal(q, quat_from_rpy(roll, pitch, yaw))
        np.testing.assert_array_equal(quat_normalize(q), quat_normalize(quat_from_rpy(roll, pitch, yaw)))
        got = quat_to_matrix(quat_from_rpy(roll, pitch, yaw))
        expected = (
            axis_angle_matrix(np.array([0, 0, 1.0]), yaw)
            @ axis_angle_matrix(np.array([0, 1.0, 0]), pitch)
            @ axis_angle_matrix(np.array([1.0, 0, 0]), roll)
        )
        assert np.abs(got - expected).max() < 1e-12


def test_rotvec_log_inverts_rodrigues():
    rng = np.random.default_rng(3)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-3.0, 3.0)
        q = matrix_to_quat(axis_angle_matrix(axis, angle))
        rotvec = quat_to_rotvec(q)
        # same rotation modulo sign of the (axis, angle) pair
        assert np.abs(axis_angle_matrix(rotvec / max(np.linalg.norm(rotvec), 1e-300),
                                        np.linalg.norm(rotvec)) - quat_to_matrix(q)).max() < 1e-9


def test_rotvec_small_angle_limit():
    q = quat_normalize(np.array([1.0, 1e-13, -2e-13, 5e-14]))
    rotvec = quat_to_rotvec(q)
    assert np.abs(rotvec - 2 * q[1:]).max() < 1e-15


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(30):
        t = RigidTransform(random_quat(rng), rng.normal(size=3))
        ident = compose(t, inverse(t))
        assert almost_equal(ident, RigidTransform(), tol=1e-12)


def test_apply_matches_matrix_action():
    rng = np.random.default_rng(5)
    t = RigidTransform(random_quat(rng), rng.normal(size=3))
    pts = rng.normal(size=(7, 3))
    expected = pts @ t.matrix().T + t.translation
    assert np.abs(t.apply(pts) - expected).max() < 1e-15
    assert t.apply(pts[0]) == pytest.approx(expected[0], abs=1e-15)


def test_canonicalization_flips_negative_w():
    t = RigidTransform(np.array([-0.5, 0.5, 0.5, 0.5]), np.zeros(3))
    assert t.rotation[0] > 0


def test_degenerate_quaternion_rejected():
    with pytest.raises(DataError):
        RigidTransform(np.zeros(4), np.zeros(3))
    with pytest.raises(DataError):
        RigidTransform(np.array([np.nan, 0, 0, 1]), np.zeros(3))
    with pytest.raises(DataError):
        RigidTransform(np.array([1.0, 0, 0, 0]), np.array([np.inf, 0, 0]))
