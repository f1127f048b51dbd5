"""Shared fixtures-by-hand: random chains, independent FK oracles, the grouped wrist solve and
the reference toy relocate batch."""
from __future__ import annotations

import numpy as np

from dexretarget.dapg.env import (
    DT,
    GRASP_RADIUS,
    HORIZON,
    JOINT_LIMIT,
    LINK_LENGTHS,
    MAX_JOINT_SPEED,
    SUCCESS_RADIUS,
    tip_position,
)
from dexretarget.kinematics import KinematicTree, _joint_rotations, load_robot
from dexretarget.poseio import CONDITIONING_TOL
from dexretarget.transforms import RigidTransform, matrix_to_quat, quat_conjugate, quat_multiply, quat_to_matrix


def planar_two_link_doc(l1: float = 1.0, l2: float = 1.0) -> dict:
    """Two z-revolute links in the x-y plane with a tip keypoint."""
    return {
        "name": "planar2",
        "links": [
            {"id": "base", "parent": None, "origin_xyz": [0, 0, 0], "origin_rpy": [0, 0, 0]},
            {"id": "l1", "parent": "base", "origin_xyz": [0, 0, 0], "origin_rpy": [0, 0, 0]},
            {"id": "l2", "parent": "l1", "origin_xyz": [l1, 0, 0], "origin_rpy": [0, 0, 0]},
        ],
        "joints": [
            {"child_link": "l1", "type": "revolute", "axis": [0, 0, 1],
             "limit_lower": -3.14, "limit_upper": 3.14, "damping": 0.0},
            {"child_link": "l2", "type": "revolute", "axis": [0, 0, 1],
             "limit_lower": -3.14, "limit_upper": 3.14, "damping": 0.0},
        ],
        "inertials": [
            {"link": "base", "mass": 0.0, "com": [0, 0, 0], "inertia_6": [0, 0, 0, 0, 0, 0]},
            {"link": "l1", "mass": 1.0, "com": [l1 / 2, 0, 0],
             "inertia_6": [1e-4, 0, 0, 1e-4, 0, 1e-4]},
            {"link": "l2", "mass": 1.0, "com": [l2 / 2, 0, 0],
             "inertia_6": [1e-4, 0, 0, 1e-4, 0, 1e-4]},
        ],
        "keypoints": [{"name": "tip", "link": "l2", "offset": [l2, 0, 0]}],
    }


def random_chain_doc(rng: np.random.Generator, n_joints: int, name: str = "chain") -> dict:
    """Serial chain with random origins, axes and inertial data."""
    links = [{"id": "base", "parent": None, "origin_xyz": [0, 0, 0], "origin_rpy": [0, 0, 0]}]
    joints = []
    inertials = [
        {"link": "base", "mass": 0.0, "com": [0, 0, 0], "inertia_6": [0, 0, 0, 0, 0, 0]}
    ]
    parent = "base"
    for i in range(n_joints):
        lid = f"l{i}"
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        links.append(
            {
                "id": lid,
                "parent": parent,
                "origin_xyz": list(rng.uniform(-0.3, 0.3, size=3)),
                "origin_rpy": list(rng.uniform(-1.0, 1.0, size=3)),
            }
        )
        joints.append(
            {
                "child_link": lid,
                "type": "revolute",
                "axis": [float(a) for a in axis],
                "limit_lower": -2.5,
                "limit_upper": 2.5,
                "damping": 0.0,
            }
        )
        a = rng.normal(size=(3, 3)) * 0.05
        inertia = a @ a.T + np.eye(3) * 1e-4
        inertials.append(
            {
                "link": lid,
                "mass": float(rng.uniform(0.2, 1.5)),
                "com": list(rng.uniform(-0.1, 0.1, size=3)),
                "inertia_6": [
                    float(inertia[0, 0]), float(inertia[0, 1]), float(inertia[0, 2]),
                    float(inertia[1, 1]), float(inertia[1, 2]), float(inertia[2, 2]),
                ],
            }
        )
        parent = lid
    keypoints = [{"name": "tip", "link": parent, "offset": list(rng.uniform(-0.2, 0.2, size=3))}]
    return {
        "name": name,
        "links": links,
        "joints": joints,
        "inertials": inertials,
        "keypoints": keypoints,
    }


def arm_tree() -> KinematicTree:
    """The toy relocate arm as a kinematics chain: the reference for its closed-form tip."""
    starts = (0.0, *LINK_LENGTHS[:-1])  # each link starts where its parent ends
    links = [{"id": "base", "parent": None}] + [
        {"id": f"seg{i}", "parent": f"seg{i - 1}" if i else "base", "origin_xyz": [x, 0, 0]}
        for i, x in enumerate(starts)]
    joints = [{"child_link": f"seg{i}", "axis": [0, 0, 1], "limit_lower": -JOINT_LIMIT,
               "limit_upper": JOINT_LIMIT} for i in range(len(starts))]
    tip = {"name": "tip", "link": links[-1]["id"], "offset": [LINK_LENGTHS[-1], 0, 0]}
    return load_robot({"name": "toy-relocate-arm", "links": links, "joints": joints, "keypoints": [tip]})


# --- reference toy relocate: a per-episode spawn loop and the step arithmetic ---

def reference_spawn(rng: np.random.Generator, min_separation: float = 0.3):
    """One episode's initial joints, object and target from scalar `uniform`
    draws, and the number of target tries it took (at most 100; the last stands)."""
    q = rng.uniform(-0.1, 0.4, size=3)
    radius = rng.uniform(0.5, 0.95)
    angle = rng.uniform(-0.85, 0.85)
    obj = radius * np.array([np.cos(angle), np.sin(angle)])
    for tries in range(1, 101):
        radius_t = rng.uniform(0.5, 0.95)
        angle_t = rng.uniform(-0.85, 0.85)
        tgt = radius_t * np.array([np.cos(angle_t), np.sin(angle_t)])
        if np.linalg.norm(tgt - obj) >= min_separation:
            break
    return q, obj, tgt, tries


class ReferenceRelocate:
    """The lockstep toy relocate batch as a per-episode spawn loop with
    np.clip, np.sum and np.linalg.norm, on env.tip_position: the reference
    for BatchedRelocate."""

    def __init__(self, seeds):
        spawns = [reference_spawn(np.random.default_rng(seed)) for seed in seeds]
        self.q, self.obj, self.tgt, self.tries = (np.stack(column) for column in zip(*spawns))
        self.tip = tip_position(self.q)
        self.grasped = np.zeros(len(spawns), dtype=bool)
        self._steps = 0

    @property
    def done(self) -> bool:
        return self._steps >= HORIZON

    def observe(self) -> np.ndarray:
        return np.concatenate([self.q, self.tip, self.obj, self.tgt], axis=-1)

    def step(self, actions: np.ndarray) -> np.ndarray:
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        a = np.clip(actions, -MAX_JOINT_SPEED, MAX_JOINT_SPEED)
        self.q = np.clip(self.q + a * DT, -JOINT_LIMIT, JOINT_LIMIT)
        self.tip = tip = tip_position(self.q)
        tip_obj = np.sqrt(np.sum((tip - self.obj) ** 2, axis=1))
        self.grasped |= tip_obj < GRASP_RADIUS
        self.obj = np.where(self.grasped[:, None], tip, self.obj)
        obj_tgt = np.sqrt(np.sum((self.obj - self.tgt) ** 2, axis=1))
        rewards = np.where(self.grasped, -obj_tgt + (obj_tgt < SUCCESS_RADIUS), -tip_obj)
        self._steps += 1
        return rewards

    @property
    def successes(self) -> np.ndarray:
        obj_tgt = np.sqrt(np.sum((self.obj - self.tgt) ** 2, axis=1))
        return self.grasped & (obj_tgt < SUCCESS_RADIUS)


# --- rigid-transform algebra, used only to state expectations ---------------

def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """a after b: the transform x -> a(b(x))."""
    return RigidTransform(quat_multiply(a.rotation, b.rotation), a.apply(b.translation))


def inverse(a: RigidTransform) -> RigidTransform:
    qc = quat_conjugate(a.rotation)
    return RigidTransform(qc, -(quat_to_matrix(qc) @ a.translation))


def almost_equal(a: RigidTransform, b: RigidTransform, tol: float = 1e-9) -> bool:
    return bool(np.allclose(a.rotation, b.rotation, atol=tol) and np.allclose(a.translation, b.translation, atol=tol))


# --- reference kernels: rotation-and-origin FK and cross-product Jacobians ---

def rotation_origin_fk(tree: KinematicTree, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World rotations (B, n_links, 3, 3) and origins (B, n_links, 3), in slot
    order, for a (B, n) stack: each level from its parents as
    pos = rot_p @ origin_trans + pos_p and rot = (rot_p @ origin_rot) @ joint."""
    joint = _joint_rotations(tree, q)  # slot s holds joint s - 1
    rot = np.empty((len(q), len(tree.link_ids), 3, 3))
    pos = np.empty(rot.shape[:-1])
    rot[:, 0] = tree._origin_rot[0]
    pos[:, 0] = tree._origin_trans[0]
    for links, parents in tree._levels:
        rot_p = rot[:, parents]
        pos[:, links] = (rot_p @ tree._origin_trans[links, :, None])[..., 0] + pos[:, parents]
        rot[:, links] = (rot_p @ tree._origin_rot[links]) @ joint[:, links.start - 1:links.stop - 1]
    return rot, pos


def cross_product_jacobians(tree: KinematicTree, q: np.ndarray, names) -> tuple[np.ndarray, np.ndarray]:
    """Keypoint positions (B, K, 3) and Jacobians (B, K, 3, N) of `names` from
    rotation_origin_fk: column j of keypoint k is axis_j x (point_k - origin_j),
    zero where joint j is off the keypoint's chain."""
    rot, pos = rotation_origin_fk(tree, q)
    rows = [tree.keypoint_names.index(name) for name in names]
    slots, offsets = tree._kp_slots[rows], tree._kp_offsets[rows, :3]
    points = (rot[:, slots] @ offsets)[..., 0] + pos[:, slots]
    axes = (rot[:, tree._joint_slots] @ tree.joint_axes[:, :, None])[..., 0]  # (B, N, 3)
    arms = points[:, :, None, :] - pos[:, None, tree._joint_slots]              # (B, K, N, 3)
    cols = np.cross(axes[:, None], arms)                                        # (B, K, N, 3)
    mask = tree._kp_joint_mask[rows]
    return points, np.where(mask[None, :, None, :], cols.swapaxes(-1, -2), 0.0)


# --- independent oracle: naive 4x4 homogeneous-matrix forward kinematics ----

def _rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def _rodrigues(axis, angle):
    axis = np.asarray(axis, dtype=float)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def _homogeneous(rot, trans):
    h = np.eye(4)
    h[:3, :3] = rot
    h[:3, 3] = trans
    return h


def naive_link_pose(doc: dict, q: np.ndarray, link_id: str) -> tuple[np.ndarray, np.ndarray]:
    """World rotation and origin of one link via chained 4x4 matrices."""
    links = {l["id"]: l for l in doc["links"]}
    joints = {j["child_link"]: j for j in doc["joints"]}
    actuated = [j["child_link"] for j in doc["joints"] if j["type"] == "revolute"]

    path = []
    lid = link_id
    while lid is not None:
        path.append(lid)
        lid = links[lid].get("parent")
    path.reverse()

    t = np.eye(4)
    for lid in path:
        link = links[lid]
        roll, pitch, yaw = link.get("origin_rpy", (0, 0, 0))
        rot = _rz(yaw) @ _ry(pitch) @ _rx(roll)
        t = t @ _homogeneous(rot, link.get("origin_xyz", (0, 0, 0)))
        joint = joints.get(lid)
        if joint is not None and joint["type"] == "revolute":
            angle = q[actuated.index(lid)]
            t = t @ _homogeneous(_rodrigues(joint["axis"], angle), np.zeros(3))
    return t[:3, :3], t[:3, 3]


def naive_fk(doc: dict, q: np.ndarray, keypoint: str) -> np.ndarray:
    """Multiply 4x4 matrices from the root down to the named keypoint."""
    kp = next(k for k in doc["keypoints"] if k["name"] == keypoint)
    rot, pos = naive_link_pose(doc, q, kp["link"])
    return rot @ np.asarray(kp["offset"], dtype=float) + pos


# --- independent oracle: finite-difference Lagrangian inverse dynamics ------

def _oracle_energy(doc: dict, q: np.ndarray, qd: np.ndarray, gravity: np.ndarray,
                   s: float = 1e-5) -> float:
    """Kinetic plus potential energy via finite differences of link poses."""
    kinetic = 0.0
    potential = 0.0
    for inert in doc.get("inertials", []):
        mass = inert["mass"]
        com = np.asarray(inert["com"], dtype=float)
        ixx, ixy, ixz, iyy, iyz, izz = inert["inertia_6"]
        inertia = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])

        rot0, pos0 = naive_link_pose(doc, q, inert["link"])
        rot_p, pos_p = naive_link_pose(doc, q + s * qd, inert["link"])
        rot_m, pos_m = naive_link_pose(doc, q - s * qd, inert["link"])
        v_com = ((pos_p + rot_p @ com) - (pos_m + rot_m @ com)) / (2 * s)
        omega_hat = ((rot_p - rot_m) / (2 * s)) @ rot0.T
        omega = np.array([omega_hat[2, 1], omega_hat[0, 2], omega_hat[1, 0]])

        inertia_world = rot0 @ inertia @ rot0.T
        kinetic += 0.5 * mass * v_com @ v_com + 0.5 * omega @ inertia_world @ omega
        potential += -mass * gravity @ (pos0 + rot0 @ com)
    return kinetic - potential  # the Lagrangian L = T - V


def lagrangian_torque_oracle(doc: dict, q, qd, qdd, gravity,
                             h_v: float = 1e-3, h_t: float = 1e-4, h_q: float = 1e-4) -> np.ndarray:
    """tau_k = d/dt(dL/dqd_k) - dL/dq_k, everything by central differences."""
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    qdd = np.asarray(qdd, dtype=float)
    n = len(q)

    def momentum(qq, qqd, k):
        e = np.zeros(n)
        e[k] = h_v
        return (_oracle_energy(doc, qq, qqd + e, gravity) - _oracle_energy(doc, qq, qqd - e, gravity)) / (2 * h_v)

    tau = np.zeros(n)
    for k in range(n):
        dp_dt = (
            momentum(q + h_t * qd, qd + h_t * qdd, k) - momentum(q - h_t * qd, qd - h_t * qdd, k)
        ) / (2 * h_t)
        e = np.zeros(n)
        e[k] = h_q
        dl_dq = (_oracle_energy(doc, q + e, qd, gravity) - _oracle_energy(doc, q - e, qd, gravity)) / (2 * h_q)
        tau[k] = dp_dt - dl_dq
    return tau


def grouped_solve_wrists(canonical: np.ndarray, observed: np.ndarray, mask: np.ndarray):
    """Reference wrist solve: frames grouped by mask row, one stacked
    Procrustes per group over its observed columns (gathered with np.ix_).
    Same contract as poseio.solve_wrists."""
    rotation, translation = np.full((len(mask), 4), np.nan), np.full((len(mask), 3), np.nan)
    residual = np.full(len(mask), np.nan)
    errors: dict[int, str] = {}
    patterns, group = np.unique(mask, axis=0, return_inverse=True)
    for g, pattern in enumerate(patterns):
        rows, cols = np.flatnonzero(group == g), np.flatnonzero(pattern)
        if len(cols) < 3:
            errors.update(dict.fromkeys(rows.tolist(), f"need at least 3 shared keypoints, got {len(cols)}"))
            continue
        at = np.ix_(rows, cols)
        src, dst = canonical[at], observed[at]
        src_mean, dst_mean = src.mean(axis=1), dst.mean(axis=1)
        cross = np.swapaxes(src - src_mean[:, None], 1, 2) @ (dst - dst_mean[:, None])
        u, s, vt = np.linalg.svd(cross)
        collinear = s[:, 1] <= CONDITIONING_TOL * np.maximum(s[:, 0], 1e-300)
        v, ut = np.swapaxes(vt, 1, 2), np.swapaxes(u, 1, 2)
        diag = np.ones((len(v), 1, 3))
        diag[:, 0, 2] = np.sign(np.linalg.det(v @ ut))
        rot = (v * diag) @ ut
        trans = dst_mean - (rot @ src_mean[..., None])[..., 0]
        moved = src @ np.swapaxes(rot, 1, 2) + trans[:, None]
        res = np.sqrt(np.mean(np.sum((moved - dst) ** 2, axis=2), axis=1))
        errors.update(dict.fromkeys(rows[collinear].tolist(),
                                    "keypoint configuration is collinear; wrist rotation is ambiguous"))
        good = ~collinear
        rotation[rows[good]] = matrix_to_quat(rot[good])
        translation[rows[good]] = trans[good]
        residual[rows[good]] = res[good]
    return rotation, translation, residual, errors
