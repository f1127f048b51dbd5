"""Rigid-body inverse dynamics and trajectory-to-action computation.

Torques come from the recursive Newton-Euler algorithm over the tree, with
gravity folded in through a fictitious base acceleration and per-joint viscous
damping added when the description declares it. Action computation follows
the order: low-pass filter the joint trajectory, differentiate the filtered
signal, then evaluate inverse dynamics on it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import low_pass_trajectory
from .errors import DataError
from .kinematics import KinematicTree, _joint_rotations
from .transforms import cross

GRAVITY = np.array([0.0, 0.0, -9.81])

TORQUE = "torque"
POSITION = "position"


@dataclass(frozen=True)
class DynamicsInput:
    """One motion state (n,) each, or a stack of T states (T, n) each."""

    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY.copy())

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        qd = np.asarray(self.qd, dtype=float)
        qdd = np.asarray(self.qdd, dtype=float)
        g = np.asarray(self.gravity, dtype=float)
        if not (q.shape == qd.shape == qdd.shape):
            raise DataError("q, qd, qdd must have equal shapes")
        for arr, label in ((q, "q"), (qd, "qd"), (qdd, "qdd"), (g, "gravity")):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"{label} contains non-finite values")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qd", qd)
        object.__setattr__(self, "qdd", qdd)
        object.__setattr__(self, "gravity", g)


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (m @ v[..., None])[..., 0]


def inverse_dynamics(tree: KinematicTree, inp: DynamicsInput) -> np.ndarray:
    """Joint torques (N*m) for the motion state via recursive Newton-Euler.

    A stacked (T, n) input gives (T, n) torques from one pass over the tree,
    vectorised over the T states.
    """
    q = tree.check_q(inp.q)
    if tree._no_inertial is not None:
        raise DataError(f"link '{tree._no_inertial}' has no inertial data")
    single = q.ndim == 1
    q = np.atleast_2d(q)
    qd, qdd = np.atleast_2d(inp.qd), np.atleast_2d(inp.qdd)
    # Everything per link runs in the tree's slot order (root = slot 0).
    n_links = len(tree.link_ids)
    joints = tree._joint_slots
    mass, com, inertia = tree._mass, tree._com, tree._inertia
    off = tree._origin_trans  # joint origin in the parent frame

    # Per-link joint axis and rates; zero for fixed joints and the root.
    axis = np.zeros((n_links, 3))
    axis[joints] = tree.joint_axes
    qd_l = np.zeros(q.shape[:1] + (n_links, 1))
    qdd_l = np.zeros_like(qd_l)
    qd_l[:, joints, 0] = qd
    qdd_l[:, joints, 0] = qdd
    # child <- parent rotation of every link; the root's joint is the identity
    joint = np.empty(q.shape[:1] + (n_links, 3, 3))
    joint[:, 0] = np.eye(3)
    joint[:, 1:] = _joint_rotations(tree, q)
    rot_cp = np.swapaxes(tree._origin_rot @ joint, -1, -2)

    w = np.empty(qd_l.shape[:2] + (3,))
    wd = np.empty_like(w)
    a = np.empty_like(w)

    def forward(links, w_par, wd_par, a_par):
        r, o = rot_cp[:, links], off[links]
        w_in = _matvec(r, w_par)
        a[:, links] = _matvec(r, a_par + cross(wd_par, o) + cross(w_par, cross(w_par, o)))
        spin = qd_l[:, links] * axis[links]
        w[:, links] = w_in + spin
        wd[:, links] = _matvec(r, wd_par) + qdd_l[:, links] * axis[links] + cross(w_in, spin)

    # The root's parent is at rest; gravity enters as a base acceleration.
    rest = np.zeros(q.shape[:1] + (1, 3))
    forward(slice(0, 1), rest, rest, rest - inp.gravity)
    for links, parents, *_ in tree._levels:
        forward(links, w[:, parents], wd[:, parents], a[:, parents])

    a_com = a + cross(wd, com) + cross(w, cross(w, com))
    f = mass * a_com
    nt = _matvec(inertia, wd) + cross(w, _matvec(inertia, w)) + cross(com, f)
    for links, *_ in reversed(tree._levels):
        r_pc = np.swapaxes(rot_cp[:, links], -1, -2)
        fc = _matvec(r_pc, f[:, links])
        nc = _matvec(r_pc, nt[:, links]) + cross(off[links], fc)
        # Siblings add into a shared parent one by one, in slot order.
        parents = tree._parent_slots[links]
        np.add.at(f, (slice(None), parents), fc)
        np.add.at(nt, (slice(None), parents), nc)

    tau = np.vecdot(nt[:, joints], tree.joint_axes) + tree.joint_damping * qd
    return tau[0] if single else tau


def mass_matrix(tree: KinematicTree, q: np.ndarray) -> np.ndarray:
    """Joint-space inertia matrix: RNEA with zero velocity and gravity, once
    per column of the identity acceleration, all in one stacked call."""
    q = tree.check_q(q, batch=False)
    n = tree.num_actuated
    zeros = np.zeros((n, n))
    tau = inverse_dynamics(tree, DynamicsInput(np.tile(q, (n, 1)), zeros, np.eye(n), gravity=np.zeros(3)))
    return tau.T


def differentiate_trajectory(qtraj: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Velocities and accelerations of a uniformly sampled trajectory.

    Central differences at interior samples, second-order one-sided stencils
    at the ends (exact for quadratics everywhere).
    """
    q = np.asarray(qtraj, dtype=float)
    flat = q.ndim == 1
    if flat:
        q = q[:, None]
    if q.shape[0] < 3:
        raise DataError("trajectory differentiation needs at least 3 frames")
    if dt <= 0:
        raise DataError("dt must be positive")

    qd = np.empty_like(q)
    qd[1:-1] = (q[2:] - q[:-2]) / (2 * dt)
    qd[0] = (-3 * q[0] + 4 * q[1] - q[2]) / (2 * dt)
    qd[-1] = (3 * q[-1] - 4 * q[-2] + q[-3]) / (2 * dt)

    qdd = np.empty_like(q)
    qdd[1:-1] = (q[2:] - 2 * q[1:-1] + q[:-2]) / dt**2
    if q.shape[0] >= 4:
        qdd[0] = (2 * q[0] - 5 * q[1] + 4 * q[2] - q[3]) / dt**2
        qdd[-1] = (2 * q[-1] - 5 * q[-2] + 4 * q[-3] - q[-4]) / dt**2
    else:
        qdd[0] = qdd[1]
        qdd[-1] = qdd[1]
    if flat:
        return qd[:, 0], qdd[:, 0]
    return qd, qdd


def compute_actions(
    tree: KinematicTree,
    qtraj: np.ndarray,
    dt: float,
    gamma: float,
    mode: str,
    gravity: np.ndarray = GRAVITY,
) -> np.ndarray:
    """(T, n) actions for a (T, n) joint trajectory, one row per frame.

    Position mode returns the low-pass filtered trajectory itself (the PD
    setpoints); torque mode returns RNEA torques on the filtered,
    differentiated signal.
    """
    if mode not in (TORQUE, POSITION):
        raise DataError(f"unknown action mode '{mode}'")
    q = np.asarray(qtraj, dtype=float)
    if q.ndim != 2 or q.shape[1] != tree.num_actuated:
        raise DataError("trajectory must be (T, num_actuated)")
    filtered = low_pass_trajectory(q, gamma)
    if mode == POSITION:
        return filtered
    qd, qdd = differentiate_trajectory(filtered, dt)
    return inverse_dynamics(tree, DynamicsInput(filtered, qd, qdd, gravity))
