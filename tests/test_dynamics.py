from __future__ import annotations

import numpy as np
import pytest

from dexretarget.control import low_pass_trajectory
from dexretarget.dynamics import (
    DynamicsInput,
    compute_actions,
    differentiate_trajectory,
    inverse_dynamics,
    mass_matrix,
)
from dexretarget.errors import DataError
from dexretarget.kinematics import load_robot

from helpers import lagrangian_torque_oracle, random_chain_doc


def pendulum_doc(mass=1.0, length=0.5, damping=0.0) -> dict:
    """Point mass on a massless rod, hanging along -z, swinging about +y."""
    return {
        "name": "pendulum",
        "links": [
            {"id": "base", "parent": None, "origin_xyz": [0, 0, 0], "origin_rpy": [0, 0, 0]},
            {"id": "bob", "parent": "base", "origin_xyz": [0, 0, 0], "origin_rpy": [0, 0, 0]},
        ],
        "joints": [
            {"child_link": "bob", "type": "revolute", "axis": [0, 1, 0],
             "limit_lower": -6.3, "limit_upper": 6.3, "damping": damping},
        ],
        "inertials": [
            {"link": "base", "mass": 0.0, "com": [0, 0, 0], "inertia_6": [0, 0, 0, 0, 0, 0]},
            {"link": "bob", "mass": mass, "com": [0, 0, -length],
             "inertia_6": [0, 0, 0, 0, 0, 0]},
        ],
        "keypoints": [{"name": "bob_tip", "link": "bob", "offset": [0, 0, -length]}],
    }


def pendulum_torque(theta, theta_dd, mass=1.0, length=0.5, g=9.81):
    return mass * length**2 * theta_dd + mass * g * length * np.sin(theta)


def test_zero_motion_zero_gravity_gives_zero_torque():
    rng = np.random.default_rng(0)
    tree = load_robot(random_chain_doc(rng, 4))
    q = rng.uniform(-1, 1, size=4)
    tau = inverse_dynamics(tree, DynamicsInput(q, np.zeros(4), np.zeros(4), gravity=np.zeros(3)))
    assert tau == pytest.approx(np.zeros(4), abs=1e-14)


def test_pendulum_horizontal_holding_torque():
    tree = load_robot(pendulum_doc())
    tau = inverse_dynamics(tree, DynamicsInput(np.array([np.pi / 2]), np.zeros(1), np.zeros(1)))
    assert tau[0] == pytest.approx(4.905, abs=1e-9)


def test_pendulum_matches_analytic_over_sweep():
    tree = load_robot(pendulum_doc())
    rng = np.random.default_rng(1)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        theta_dd = rng.uniform(-5, 5)
        tau = inverse_dynamics(
            tree, DynamicsInput(np.array([theta]), np.zeros(1), np.array([theta_dd]))
        )
        assert tau[0] == pytest.approx(pendulum_torque(theta, theta_dd), abs=1e-10)


def test_damping_term_added_when_declared():
    tree = load_robot(pendulum_doc(damping=0.7))
    qd = np.array([2.5])
    tau = inverse_dynamics(tree, DynamicsInput(np.array([0.0]), qd, np.zeros(1), gravity=np.zeros(3)))
    # hanging at rest angle, zero gravity: only Coriolis (zero for 1 dof) and damping
    assert tau[0] == pytest.approx(0.7 * 2.5, abs=1e-12)


def test_rnea_matches_lagrangian_oracle_on_random_chains():
    rng = np.random.default_rng(42)
    for trial in range(20):
        doc = random_chain_doc(rng, 3)
        tree = load_robot(doc)
        q = rng.uniform(-1.5, 1.5, size=3)
        qd = rng.uniform(-1.0, 1.0, size=3)
        qdd = rng.uniform(-2.0, 2.0, size=3)
        gravity = np.array([0.0, 0.0, -9.81])
        tau = inverse_dynamics(tree, DynamicsInput(q, qd, qdd, gravity))
        ref = lagrangian_torque_oracle(doc, q, qd, qdd, gravity)
        scale = max(np.abs(ref).max(), 1e-3)
        assert np.abs(tau - ref).max() / scale < 1e-4


def test_rnea_linear_in_acceleration():
    rng = np.random.default_rng(5)
    tree = load_robot(random_chain_doc(rng, 4))
    q = rng.uniform(-1, 1, size=4)
    qd = rng.uniform(-1, 1, size=4)
    a1, a2 = rng.normal(size=4), rng.normal(size=4)

    def tau(qdd):
        return inverse_dynamics(tree, DynamicsInput(q, qd, qdd))

    base = tau(np.zeros(4))
    lhs = tau(a1 + a2) - base
    rhs = (tau(a1) - base) + (tau(a2) - base)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_mass_matrix_symmetric_positive_definite():
    rng = np.random.default_rng(8)
    for _ in range(5):
        tree = load_robot(random_chain_doc(rng, 4))
        q = rng.uniform(-1.5, 1.5, size=4)
        m = mass_matrix(tree, q)
        assert np.abs(m - m.T).max() < 1e-9
        assert np.linalg.eigvalsh(m).min() > 0


def test_gravity_scaling_is_linear():
    rng = np.random.default_rng(13)
    tree = load_robot(random_chain_doc(rng, 3))
    q = rng.uniform(-1, 1, size=3)
    g = np.array([0.0, 0.0, -9.81])
    tau1 = inverse_dynamics(tree, DynamicsInput(q, np.zeros(3), np.zeros(3), gravity=g))
    tau3 = inverse_dynamics(tree, DynamicsInput(q, np.zeros(3), np.zeros(3), gravity=3 * g))
    assert tau3 == pytest.approx(3 * tau1, rel=1e-12, abs=1e-12)


def test_energy_consistency_second_order_in_dt():
    rng = np.random.default_rng(21)
    doc = random_chain_doc(rng, 2)
    tree = load_robot(doc)
    gravity = np.array([0.0, 0.0, -9.81])
    amp = np.array([0.6, -0.4])
    freq = np.array([1.1, 0.7])

    def epsilon(dt):
        ts = np.arange(0.0, 0.5, dt)
        work = 0.0
        taus, qds = [], []
        for t in ts:
            q = amp * np.sin(freq * t)
            qd = amp * freq * np.cos(freq * t)
            qdd = -amp * freq**2 * np.sin(freq * t)
            taus.append(inverse_dynamics(tree, DynamicsInput(q, qd, qdd, gravity)))
            qds.append(qd)
        power = np.array([tau @ qd for tau, qd in zip(taus, qds)])
        work = np.trapezoid(power, dx=dt)

        def energy(t):
            # kinetic via the mass matrix plus gravity potential from FK
            q = amp * np.sin(freq * t)
            qd = amp * freq * np.cos(freq * t)
            kin = 0.5 * qd @ mass_matrix(tree, q) @ qd
            from dexretarget.kinematics import link_poses

            rot, pos = link_poses(tree, q)
            pot = 0.0
            for i, link in enumerate(tree.links):
                inert = tree.inertials[link.id]
                pot -= inert.mass * gravity @ (pos[i] + rot[i] @ inert.com)
            return kin + pot

        return abs(work - (energy(ts[-1]) - energy(ts[0])))

    e1, e2 = epsilon(1e-3), epsilon(5e-4)
    assert e2 <= e1 / 3.0 or e1 < 1e-10  # trapezoid integration is O(dt^2)


def test_differentiate_linear_ramp():
    v = np.array([0.5, -1.0, 2.0])
    traj = np.arange(10)[:, None] * v[None, :] * 0.01
    qd, qdd = differentiate_trajectory(traj, 0.01)
    assert qd == pytest.approx(np.tile(v, (10, 1)), abs=1e-12)
    assert qdd[1:-1] == pytest.approx(np.zeros((8, 3)), abs=1e-9)


def test_differentiate_quadratic_exact_acceleration():
    a = 3.7
    dt = 0.02
    ts = np.arange(12) * dt
    traj = 0.5 * a * ts**2
    qd, qdd = differentiate_trajectory(traj, dt)
    assert qdd == pytest.approx(np.full(12, a), rel=1e-9)  # ends are 2nd order too
    assert qd == pytest.approx(a * ts, abs=1e-9)


def test_differentiate_constant_trajectory():
    traj = np.tile(np.array([1.0, 2.0]), (7, 1))
    qd, qdd = differentiate_trajectory(traj, 0.1)
    assert np.all(qd == 0.0)
    assert np.all(qdd == 0.0)


def test_differentiate_needs_three_frames():
    with pytest.raises(DataError):
        differentiate_trajectory(np.zeros((2, 1)), 0.1)


def test_actions_static_zero_gravity():
    rng = np.random.default_rng(3)
    tree = load_robot(random_chain_doc(rng, 3))
    q = rng.uniform(-1, 1, size=3)
    traj = np.tile(q, (15, 1))
    torques = compute_actions(tree, traj, 0.01, gamma=1.0, mode="torque", gravity=np.zeros(3))
    targets = compute_actions(tree, traj, 0.01, gamma=1.0, mode="position", gravity=np.zeros(3))
    assert np.abs(torques).max() < 1e-12
    assert np.abs(targets - q).max() < 1e-15


def test_actions_pendulum_swing_matches_analytic():
    tree = load_robot(pendulum_doc())
    dt = 1e-3
    ts = np.arange(0.0, 1.0, dt)
    theta = 0.5 * np.sin(2 * np.pi * ts)
    got = compute_actions(tree, theta[:, None], dt, gamma=1.0, mode="torque")[:, 0]
    expected = pendulum_torque(theta, -0.5 * (2 * np.pi) ** 2 * np.sin(2 * np.pi * ts))
    assert np.abs(got - expected).max() < 1e-3


@pytest.mark.parametrize("mode", ["torque", "position"])
def test_actions_length_matches_input(mode):
    rng = np.random.default_rng(6)
    tree = load_robot(random_chain_doc(rng, 2))
    traj = rng.normal(scale=0.2, size=(9, 2))
    actions = compute_actions(tree, traj, 0.05, gamma=0.6, mode=mode)
    assert isinstance(actions, np.ndarray)
    assert actions.shape == (9, 2)
    assert np.all(np.isfinite(actions))
    if mode == "position":
        assert np.array_equal(actions, low_pass_trajectory(traj, 0.6))


def test_actions_reject_unknown_mode():
    tree = load_robot(pendulum_doc())
    with pytest.raises(DataError, match="unknown action mode 'both'"):
        compute_actions(tree, np.zeros((5, 1)), 0.05, gamma=0.6, mode="both")


def test_missing_inertials_rejected():
    doc = pendulum_doc()
    doc["inertials"] = doc["inertials"][:1]
    tree = load_robot(doc)
    with pytest.raises(DataError, match="bob"):
        inverse_dynamics(tree, DynamicsInput(np.zeros(1), np.zeros(1), np.zeros(1)))
