"""Frame-batched kinematics, dynamics and wrist solving.

A (B, n) stack of joint vectors must give exactly what B single-frame calls
give: each row goes through the same arithmetic.
"""
from __future__ import annotations

import numpy as np
import pytest

from dexretarget.assets import robot_path
from dexretarget.dynamics import DynamicsInput, inverse_dynamics, mass_matrix
from dexretarget.errors import DataError, DescriptionError
from dexretarget.handgen import HandShapeParams, build_custom_hand
from dexretarget.kinematics import (
    forward_kinematics,
    keypoint_jacobians,
    link_poses,
    load_robot,
)
from dexretarget.poseio import solve_wrist, solve_wrists
from dexretarget.transforms import (
    RigidTransform,
    axis_angle_matrix,
    quat_conjugate,
    quat_from_rpy,
    quat_multiply,
    quat_normalize,
    quat_to_rotvec,
)

ROBOTS = ("allegro", "schunk", "adroit")
BATCH = 5


def make_tree(name: str):
    if name == "custom":
        return build_custom_hand(HandShapeParams(np.random.default_rng(3).normal(size=10)))
    return load_robot(robot_path(name))


@pytest.fixture(scope="module", params=ROBOTS + ("custom",))
def tree(request):
    return make_tree(request.param)


@pytest.fixture(scope="module", params=ROBOTS)
def robot(request):
    return make_tree(request.param)


def joint_stack(tree, rng, batch=BATCH):
    lower, upper = tree.joint_limits()
    return rng.uniform(lower, upper, size=(batch, tree.num_actuated))


def test_link_poses_stack_equals_single_frames(tree):
    qs = joint_stack(tree, np.random.default_rng(0))
    rot, pos = link_poses(tree, qs)
    assert rot.shape == (BATCH, len(tree.links), 3, 3)
    assert pos.shape == (BATCH, len(tree.links), 3)
    for b, q in enumerate(qs):
        r, p = link_poses(tree, q)
        np.testing.assert_array_equal(rot[b], r)
        np.testing.assert_array_equal(pos[b], p)


def test_forward_kinematics_stack_equals_single_frames(tree):
    qs = joint_stack(tree, np.random.default_rng(1))
    stacked = forward_kinematics(tree, qs)
    assert list(stacked) == list(tree.keypoint_names)
    for b, q in enumerate(qs):
        for name, point in forward_kinematics(tree, q).items():
            assert point.shape == (3,)
            np.testing.assert_array_equal(stacked[name][b], point)


def test_keypoint_jacobians_stack_equals_single_frames(tree):
    qs = joint_stack(tree, np.random.default_rng(2))
    names = tree.keypoint_names[::-1]
    positions, jacobians = keypoint_jacobians(tree, qs, names)
    for b, q in enumerate(qs):
        pos1, jac1 = keypoint_jacobians(tree, q, names)
        for name in names:
            assert jac1[name].shape == (3, tree.num_actuated)
            assert jacobians[name].shape == (BATCH, 3, tree.num_actuated)
            np.testing.assert_array_equal(positions[name][b], pos1[name])
            np.testing.assert_array_equal(jacobians[name][b], jac1[name])


def test_jacobian_columns_off_the_keypoint_chain_are_zero(tree):
    q = joint_stack(tree, np.random.default_rng(4), batch=1)[0]
    _, jacobians = keypoint_jacobians(tree, q, tree.keypoint_names)
    for k, kp in enumerate(tree.keypoints):
        chain = set()
        link = kp.link
        while link is not None:
            chain.add(link)
            link = tree.links[tree._index[link]].parent
        off_chain = [j for j, child in enumerate(tree.actuated_joints) if child not in chain]
        assert np.all(jacobians[kp.name][:, off_chain] == 0.0)


def test_stacked_inverse_dynamics_equals_per_row_calls(robot):
    rng = np.random.default_rng(5)
    q = joint_stack(robot, rng)
    qd = rng.normal(size=q.shape)
    qdd = rng.normal(scale=10.0, size=q.shape)
    gravity = np.array([0.3, -0.2, -9.0])
    tau = inverse_dynamics(robot, DynamicsInput(q, qd, qdd, gravity))
    assert tau.shape == q.shape
    for t in range(BATCH):
        row = inverse_dynamics(robot, DynamicsInput(q[t], qd[t], qdd[t], gravity))
        np.testing.assert_array_equal(tau[t], row)


def test_mass_matrix_symmetric_and_equal_to_rnea_columns(robot):
    q = joint_stack(robot, np.random.default_rng(6), batch=1)[0]
    m = mass_matrix(robot, q)
    n = robot.num_actuated
    assert m.shape == (n, n)
    np.testing.assert_allclose(m, m.T, rtol=0, atol=1e-12 * np.abs(m).max())
    zeros = np.zeros(n)
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        column = inverse_dynamics(robot, DynamicsInput(q, zeros, unit, gravity=np.zeros(3)))
        np.testing.assert_array_equal(m[:, j], column)


@pytest.mark.parametrize("shape", ["trailing", "ndim3", "scalar"])
def test_bad_joint_shapes_rejected(tree, shape):
    n = tree.num_actuated
    q = {"trailing": np.zeros((BATCH, n + 1)), "ndim3": np.zeros((2, BATCH, n)), "scalar": np.float64(0.0)}[shape]
    with pytest.raises(DescriptionError):
        link_poses(tree, q)
    with pytest.raises(DescriptionError):
        forward_kinematics(tree, q)
    with pytest.raises(DescriptionError):
        keypoint_jacobians(tree, q, tree.keypoint_names)


def test_non_finite_row_rejected(tree):
    qs = joint_stack(tree, np.random.default_rng(7))
    qs[3, 1] = np.nan
    with pytest.raises(DescriptionError, match="non-finite"):
        forward_kinematics(tree, qs)
    with pytest.raises(DescriptionError, match="non-finite"):
        keypoint_jacobians(tree, qs, tree.keypoint_names)


def test_inverse_dynamics_rejects_bad_stacks(robot):
    n = robot.num_actuated
    zeros = np.zeros((BATCH, n))
    bad = zeros.copy()
    bad[2, 0] = np.inf
    with pytest.raises(DataError, match="qd"):
        DynamicsInput(zeros, bad, zeros)
    with pytest.raises(DataError, match="equal shapes"):
        DynamicsInput(zeros, zeros[:, :-1], zeros)
    with pytest.raises(DescriptionError):
        inverse_dynamics(robot, DynamicsInput(zeros[:, :-1], zeros[:, :-1], zeros[:, :-1]))
    cube = np.zeros((2, BATCH, n))
    with pytest.raises(DescriptionError):
        inverse_dynamics(robot, DynamicsInput(cube, cube, cube))


def test_single_frame_entry_points_reject_stacks(robot):
    with pytest.raises(DescriptionError):
        mass_matrix(robot, np.zeros((2, robot.num_actuated)))


def test_tree_caches_are_read_only(tree):
    arrays = [v for v in vars(tree).values() if isinstance(v, np.ndarray)]
    arrays += [a for level in tree._levels for a in level]
    assert len(arrays) >= 9
    for arr in arrays:
        assert arr.flags.writeable is False


def test_axis_angle_matrix_broadcasts_like_single_calls():
    rng = np.random.default_rng(8)
    axes = rng.normal(size=(4, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(-3, 3, size=(2, 4))
    stacked = axis_angle_matrix(axes, angles)
    assert stacked.shape == (2, 4, 3, 3)
    for i in range(2):
        for j in range(4):
            np.testing.assert_array_equal(stacked[i, j], axis_angle_matrix(axes[j], angles[i, j]))


def test_quaternion_helpers_broadcast_like_single_calls():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(6, 4))
    a[0] = [-1e-13, 1.0, 0.0, 0.0]
    b[1] = [1.0, 1e-14, 0.0, 0.0]
    norm_a, prod = quat_normalize(a), quat_multiply(a, quat_conjugate(b))
    rotvec = quat_to_rotvec(b)
    for i in range(6):
        np.testing.assert_array_equal(norm_a[i], quat_normalize(a[i]))
        np.testing.assert_array_equal(prod[i], quat_multiply(a[i], quat_conjugate(b[i])))
        np.testing.assert_array_equal(rotvec[i], quat_to_rotvec(b[i]))
    with pytest.raises(DataError, match="degenerate"):
        quat_normalize(np.stack([a[0], np.zeros(4)]))


def test_solve_wrists_matches_single_solves_and_flags_bad_frames():
    rng = np.random.default_rng(10)
    names = [f"p{i}" for i in range(5)]
    canonical, observed = {n: [] for n in names}, []
    for _ in range(6):
        pts = {n: rng.uniform(-0.1, 0.1, size=3) for n in names}
        truth = RigidTransform(quat_from_rpy(*rng.uniform(-np.pi, np.pi, 3)), rng.uniform(-1, 1, 3))
        for n in names:
            canonical[n].append(pts[n])
        observed.append({n: truth.apply(v) + rng.normal(scale=1e-3, size=3) for n, v in pts.items()})
    for i, n in enumerate(names):  # frame 2 collinear
        canonical[n][2] = np.array([0.02 * i, 0.0, 0.0])
        observed[2][n] = np.array([0.02 * i, 0.0, 0.0])
    observed[4] = {n: observed[4][n] for n in names[:2]}  # frame 4: two shared points
    canonical = {n: np.array(v) for n, v in canonical.items()}

    results, residuals = solve_wrists(canonical, observed)
    for b in range(6):
        single = {n: v[b] for n, v in canonical.items()}
        if b in (2, 4):
            assert isinstance(results[b], DataError)
            assert np.isnan(residuals[b])
            with pytest.raises(DataError, match=str(results[b])):
                solve_wrist(single, observed[b])
            continue
        transform, residual = solve_wrist(single, observed[b])
        np.testing.assert_array_equal(results[b].rotation, transform.rotation)
        np.testing.assert_array_equal(results[b].translation, transform.translation)
        assert residuals[b] == residual
    assert "collinear" in str(results[2])
    assert "at least 3" in str(results[4])
