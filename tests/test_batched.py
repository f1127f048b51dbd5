"""Frame-batched kinematics, dynamics and wrist solving.

A (B, n) stack of joint vectors must give exactly what B single-frame calls
give: each row goes through the same arithmetic.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from dexretarget.assets import robot_path
from dexretarget.dynamics import DynamicsInput, inverse_dynamics, mass_matrix
from dexretarget.errors import DataError, DescriptionError
from dexretarget.handgen import HandShapeParams, build_custom_hand
from dexretarget.kinematics import _joint_rotations, _link_poses, forward_kinematics, keypoint_jacobians, load_robot
from dexretarget.poseio import solve_wrists
from dexretarget.transforms import (
    RigidTransform,
    axis_angle_matrix,
    quat_conjugate,
    quat_from_rpy,
    quat_multiply,
    quat_normalize,
    quat_to_rotvec,
)

from helpers import cross_product_jacobians, random_chain_doc, rotation_origin_fk

ROBOTS = ("allegro", "schunk", "adroit")
BATCH = 5


def make_tree(name: str):
    if name == "custom":
        return build_custom_hand(HandShapeParams(np.random.default_rng(3).normal(size=10)))
    if name == "layout":
        return layout_tree()
    return load_robot(robot_path(name))


@pytest.fixture(scope="module", params=ROBOTS + ("custom", "layout"))
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
    frames = _link_poses(tree, qs)
    assert frames.shape == (BATCH, len(tree.link_ids), 4, 4)
    rot, pos = frames[..., :3, :3], frames[..., :3, 3]
    assert np.all(frames[..., 3, :] == [0.0, 0.0, 0.0, 1.0])
    for b in range(BATCH):
        single = _link_poses(tree, qs[b : b + 1])
        np.testing.assert_array_equal(rot[b], single[0, :, :3, :3])
        np.testing.assert_array_equal(pos[b], single[0, :, :3, 3])


@pytest.mark.parametrize("source", ROBOTS + (4, 7, 12))
def test_frame_kernels_match_rotation_origin_kernels(source):
    # The 4x4 frames and the transposed Jacobian against the reference
    # rotation-and-origin FK and cross-product Jacobians, on the bundled
    # robots and on random chains of 4, 7 and 12 joints: the rotations
    # associate differently, so they agree to rounding, not bitwise.
    if source in ROBOTS:
        tree = make_tree(source)
    else:
        tree = load_robot(random_chain_doc(np.random.default_rng(source), source))
    qs = joint_stack(tree, np.random.default_rng(13), batch=20)
    frames = _link_poses(tree, qs)
    rot, pos = rotation_origin_fk(tree, qs)
    np.testing.assert_allclose(frames[..., :3, :3], rot, rtol=0, atol=1e-12)
    np.testing.assert_allclose(frames[..., :3, 3], pos, rtol=0, atol=1e-12)
    names = tree.keypoint_names
    positions, jacobians = keypoint_jacobians(tree, qs, names)
    points, jacs = cross_product_jacobians(tree, qs, names)
    for k, name in enumerate(names):
        np.testing.assert_allclose(positions[name], points[:, k], rtol=0, atol=1e-12)
        np.testing.assert_allclose(jacobians[name], jacs[:, k], rtol=0, atol=1e-12)


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
    for name, link in zip(tree.keypoint_names, tree.keypoint_links):
        chain = set()
        while link is not None:
            chain.add(link)
            link = tree.link_parents[tree.link_ids.index(link)]
        off_chain = [j for j, child in enumerate(tree.actuated_joints) if child not in chain]
        assert np.all(jacobians[name][:, off_chain] == 0.0)


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


def layout_tree():
    """A tree whose levels mix every case of the slot layout.

    Depth 1: four links on the shared root. Depth 2: four plain chains.
    Depth 3: chain `b` has ended and `c` branches in two. Depth 4: two
    links whose parents sit in adjacent slots. Depth 5: one chain goes on.
    The description lists links and joints in neither slot nor depth order
    (the root's children come as a, c, d, b), and `b2` hangs on a fixed joint.
    """
    rng = np.random.default_rng(11)
    parents = {"a1": "base", "b1": "base", "c1": "base", "d1": "base",
               "a2": "a1", "b2": "b1", "c2": "c1", "d2": "d1",
               "a3": "a2", "c3": "c2", "c3x": "c2", "d3": "d2",
               "a4": "a3", "c4": "c3x", "a5": "a4"}
    order = ["d3", "a1", "c3x", "b2", "a5", "c1", "a3", "d1", "c4", "b1", "a2", "d2", "c2", "a4", "c3"]
    links = [{"id": "base", "parent": None, "origin_xyz": [0.1, -0.05, 0.2], "origin_rpy": [0.3, -0.2, 0.5]}]
    joints = []
    for lid in order:
        rpy = rng.uniform(-1.0, 1.0, size=3)
        links.append({"id": lid, "parent": parents[lid], "origin_xyz": rng.uniform(-0.1, 0.1, 3).tolist(),
                      "origin_rpy": rpy.tolist()})
        axis = rng.normal(size=3)
        if lid == "b2":
            joints.append({"child_link": lid, "type": "fixed"})
        else:
            joints.append({"child_link": lid, "type": "revolute", "axis": (axis / np.linalg.norm(axis)).tolist(),
                           "limit_lower": -2.0, "limit_upper": 2.0})
    joints.reverse()
    keypoints = [{"name": f"{lid}_tip", "link": lid, "offset": rng.uniform(-0.05, 0.05, 3).tolist()}
                 for lid in ("a5", "b2", "c3x", "c4", "d3")]
    return load_robot({"name": "layout", "links": links, "joints": joints, "keypoints": keypoints})


def per_link_fk(tree, q):
    """Each link's world frame from its parent's, one link at a time, in
    topological order: parent_frame @ [[origin_rot @ turn, t], [0, 1]], each
    origin a RigidTransform of the link's own origin_rpy and origin_xyz."""
    frames = np.empty((len(q), len(tree.link_ids), 4, 4))
    column = {child: j for j, child in enumerate(tree.actuated_joints)}
    done = set()
    while len(done) < len(tree.link_ids):
        for i, (lid, parent) in enumerate(zip(tree.link_ids, tree.link_parents)):
            if i in done or (parent is not None and tree.link_ids.index(parent) not in done):
                continue
            origin = RigidTransform(quat_from_rpy(*tree.origin_rpy[i]), tree.origin_xyz[i])
            local = np.zeros((len(q), 4, 4))
            local[:, :3, 3] = origin.translation
            local[:, 3, 3] = 1.0
            if parent is None:
                local[:, :3, :3] = origin.matrix()
                frames[:, i] = local
            else:
                turn = (axis_angle_matrix(tree.joint_axes[column[lid]], q[:, column[lid]])
                        if lid in column else np.broadcast_to(np.eye(3), (len(q), 3, 3)))
                local[:, :3, :3] = origin.matrix() @ turn
                frames[:, i] = frames[:, tree.link_ids.index(parent)] @ local
            done.add(i)
    return frames


def test_slot_layout_levels():
    tree = layout_tree()
    levels = tree._levels
    assert [(lv.links.start, lv.links.stop) for lv in levels] == [(1, 5), (5, 9), (9, 13), (13, 15), (15, 16)]
    kinds = [lv.parents if isinstance(lv.parents, slice) else tuple(lv.parents) for lv in levels]
    assert kinds == [slice(0, 1), slice(1, 5), (5, 6, 6, 7), slice(9, 11), slice(13, 14)]
    ids = [tree.link_ids[i] for i in tree._order]
    assert ids == ["base", "a1", "c1", "d1", "b1", "a2", "c2", "d2", "b2",
                   "a3", "c3x", "c3", "d3", "a4", "c4", "a5"]
    for s, i in enumerate(tree._order[1:], start=1):
        assert ids[tree._parent_slots[s]] == tree.link_parents[i]


def assert_fk_is_per_link_fk_bitwise(tree, q):
    expected = per_link_fk(tree, q)
    frames = _link_poses(tree, q)  # slot s holds link tree._order[s]
    assert frames.tobytes() == expected[:, tree._order].tobytes()
    points = forward_kinematics(tree, q)
    for name, link, offset in zip(tree.keypoint_names, tree.keypoint_links, tree.keypoint_offsets):
        point = (expected[:, tree.link_ids.index(link)] @ np.append(offset, 1.0)[:, None])[..., :3, 0]
        assert points[name].tobytes() == point.tobytes()


@pytest.mark.parametrize("batch", [1, 7])
def test_slot_layout_fk_equals_per_link_fk_bitwise(batch):
    tree = layout_tree()
    assert_fk_is_per_link_fk_bitwise(tree, joint_stack(tree, np.random.default_rng(12), batch=batch))


def with_fixed_joint(robot: str):
    """A bundled robot (none has a fixed joint) with a link on a fixed joint
    inserted mid-chain: between its first keypoint's link and that link's
    parent, at a tilted origin, so that a revolute joint hangs below it."""
    doc = json.loads(robot_path(robot).read_text())
    link = doc["keypoints"][0]["link"]
    entry = next(raw for raw in doc["links"] if raw["id"] == link)
    doc["links"].append({"id": "fixed_mid", "parent": entry["parent"], "origin_xyz": [0.01, -0.02, 0.03],
                         "origin_rpy": [0.4, -0.3, 0.2]})
    entry["parent"] = "fixed_mid"
    doc["joints"].append({"child_link": "fixed_mid", "type": "fixed"})
    return load_robot(doc)


def fixed_only_tree():
    """Two links on one fixed joint: a tree with no revolute joint at all."""
    return load_robot({"name": "rigid", "links": [
        {"id": "base", "parent": None, "origin_xyz": [0.1, 0.0, 0.0], "origin_rpy": [0.1, 0.2, 0.3]},
        {"id": "tip", "parent": "base", "origin_xyz": [0.0, 0.2, 0.0], "origin_rpy": [-0.5, 0.0, 0.7]}],
        "joints": [{"child_link": "tip", "type": "fixed"}],
        "keypoints": [{"name": "tip", "link": "tip", "offset": [0.0, 0.0, 0.05]}]})


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("source", ROBOTS + ("schunk+fixed", "adroit+fixed", "fixed only"))
def test_robot_fk_equals_per_link_fk_bitwise(source, batch):
    # The bundled robots, and two of them with a fixed joint, whose angle is
    # its gathered column times its 0 entry in _joint_turns.
    if source == "fixed only":
        tree = fixed_only_tree()
    elif source.endswith("+fixed"):
        tree = with_fixed_joint(source.split("+")[0])
    else:
        tree = make_tree(source)
    assert (source in ROBOTS) == (len(tree.link_ids) - 1 == tree.num_actuated)
    assert_fk_is_per_link_fk_bitwise(tree, joint_stack(tree, np.random.default_rng(13), batch=batch))


@pytest.mark.parametrize("make", [layout_tree, lambda: with_fixed_joint("schunk"), fixed_only_tree])
def test_fixed_joint_rotation_is_exactly_identity(make):
    tree = make()
    fixed = tree._joint_turns == 0.0
    assert fixed.any() and np.array_equal(tree._joint_turns, (~fixed).astype(float))
    q = joint_stack(tree, np.random.default_rng(14), batch=7)
    q[:3] = -q[:3]  # angles of both signs in the gathered column
    rotations = _joint_rotations(tree, q)[:, fixed]
    assert rotations.tobytes() == np.broadcast_to(np.eye(3), rotations.shape).tobytes()


def test_tree_caches_are_read_only(tree):
    arrays = [v for v in vars(tree).values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 14
    assert tree._frame_template.shape == (len(tree.link_ids), 4, 4)
    assert tree._axis_columns.shape == (tree.num_actuated, 3, 1)
    assert tree._kp_offsets.shape == (len(tree.keypoint_names), 4, 1)
    for level in tree._levels:
        assert isinstance(level.links, slice)
        if not isinstance(level.parents, slice):
            arrays.append(level.parents)
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
    canonical, observed = np.zeros((8, 5, 3)), np.zeros((8, 5, 3))
    mask = np.ones((8, 5), dtype=bool)
    for b in range(8):
        canonical[b] = rng.uniform(-0.1, 0.1, size=(5, 3))
        truth = RigidTransform(quat_from_rpy(*rng.uniform(-np.pi, np.pi, 3)), rng.uniform(-1, 1, 3))
        observed[b] = [truth.apply(v) + rng.normal(scale=1e-3, size=3) for v in canonical[b]]
    canonical[2] = observed[2] = [[0.02 * i, 0.0, 0.0] for i in range(5)]  # frame 2 collinear
    mask[4, 2:] = False  # frame 4: two observed points
    # Frames 6 and 7 observe four points and are both collinear: a group
    # whose stack of good rows is empty.
    mask[6:, 4] = False
    for b in (6, 7):
        observed[b, :4] = [[0.0, 0.03 * i, 0.0] for i in range(4)]
        canonical[b, :4] = [[0.0, 0.0, 0.01 * i] for i in range(4)]

    rotation, translation, residual, errors = solve_wrists(canonical, observed, mask)
    assert rotation.shape == (8, 4) and translation.shape == (8, 3) and residual.shape == (8,)
    assert sorted(errors) == [2, 4, 6, 7]
    for b in range(8):
        single = solve_wrists(canonical[b : b + 1], observed[b : b + 1], mask[b : b + 1])
        assert single[3] == ({0: errors[b]} if b in errors else {})
        if b in errors:
            assert np.isnan(rotation[b]).all() and np.isnan(translation[b]).all()
            assert np.isnan(residual[b])
        for stacked, alone in zip((rotation, translation, residual), single[:3]):
            np.testing.assert_array_equal(stacked[b], alone[0])
    assert "collinear" in errors[2] and "collinear" in errors[6] and "collinear" in errors[7]
    assert "at least 3" in errors[4]
