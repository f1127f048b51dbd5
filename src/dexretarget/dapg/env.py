"""Contact-free toy relocate environment on a planar 3-DoF arm.

The arm is a kinematics-module chain whose tip can pick up a point object:
once the tip comes within the grasp radius the object rides the tip. Reward
is negative tip-to-object distance before the grasp, then negative
object-to-target distance plus a unit success bonus. Episodes run a fixed
horizon with randomized object and target positions per reset.
"""
from __future__ import annotations

import numpy as np

from ..demopipe import Demonstration
from ..errors import DataError
from ..kinematics import KinematicTree, load_robot

HORIZON = 100
DT = 0.05
GRASP_RADIUS = 0.05
SUCCESS_RADIUS = 0.1
MAX_JOINT_SPEED = 2.0
LINK_LENGTHS = (0.5, 0.4, 0.3)
JOINT_LIMIT = 2.9

STATE_LAYOUT = (("joints", 3), ("tip", 2), ("object", 2), ("target", 2))
ACTION_LAYOUT = (("joint_velocity", 3),)
OBS_DIM = 9
ACT_DIM = 3


def arm_tree() -> KinematicTree:
    """The planar 3-link chain backing the environment."""
    links = [{"id": "base", "parent": None, "origin_xyz": [0, 0, 0], "origin_rpy": [0, 0, 0]}]
    joints = []
    parent = "base"
    offset = [0.0, 0.0, 0.0]
    for i, length in enumerate(LINK_LENGTHS):
        lid = f"seg{i}"
        links.append({"id": lid, "parent": parent, "origin_xyz": offset, "origin_rpy": [0, 0, 0]})
        joints.append(
            {"child_link": lid, "type": "revolute", "axis": [0, 0, 1],
             "limit_lower": -JOINT_LIMIT, "limit_upper": JOINT_LIMIT, "damping": 0.0}
        )
        parent = lid
        offset = [length, 0.0, 0.0]
    return load_robot(
        {
            "name": "toy-relocate-arm",
            "links": links,
            "joints": joints,
            "inertials": [
                {"link": l["id"], "mass": 0.1, "com": [0, 0, 0], "inertia_6": [1e-4, 0, 0, 1e-4, 0, 1e-4]}
                for l in links
            ],
            "keypoints": [{"name": "tip", "link": parent, "offset": offset}],
        }
    )


def tip_position(q: np.ndarray) -> np.ndarray:
    """Planar tip position; q may be (3,) or (N, 3)."""
    q = np.asarray(q, dtype=float)
    a1 = q[..., 0]
    a2 = q[..., 0] + q[..., 1]
    a3 = a2 + q[..., 2]
    x = LINK_LENGTHS[0] * np.cos(a1) + LINK_LENGTHS[1] * np.cos(a2) + LINK_LENGTHS[2] * np.cos(a3)
    y = LINK_LENGTHS[0] * np.sin(a1) + LINK_LENGTHS[1] * np.sin(a2) + LINK_LENGTHS[2] * np.sin(a3)
    return np.stack([x, y], axis=-1)


def tip_jacobian(q: np.ndarray) -> np.ndarray:
    """2x3 planar Jacobian of the tip."""
    q = np.asarray(q, dtype=float)
    a1 = q[0]
    a2 = q[0] + q[1]
    a3 = a2 + q[2]
    l1, l2, l3 = LINK_LENGTHS
    s = np.array([l1 * np.sin(a1) + l2 * np.sin(a2) + l3 * np.sin(a3),
                  l2 * np.sin(a2) + l3 * np.sin(a3),
                  l3 * np.sin(a3)])
    c = np.array([l1 * np.cos(a1) + l2 * np.cos(a2) + l3 * np.cos(a3),
                  l2 * np.cos(a2) + l3 * np.cos(a3),
                  l3 * np.cos(a3)])
    return np.stack([-s, c])


def _spawn(rng: np.random.Generator):
    """Initial joints plus object and target positions for one episode."""
    q = rng.uniform(-0.1, 0.4, size=3)
    radius = rng.uniform(0.5, 0.95)
    angle = rng.uniform(-0.85, 0.85)
    obj = radius * np.array([np.cos(angle), np.sin(angle)])
    for _ in range(100):
        radius_t = rng.uniform(0.5, 0.95)
        angle_t = rng.uniform(-0.85, 0.85)
        tgt = radius_t * np.array([np.cos(angle_t), np.sin(angle_t)])
        if np.linalg.norm(tgt - obj) >= 0.3:
            break
    return q, obj, tgt


def _observation(q, tip, obj, tgt):
    return np.concatenate([q, tip, obj, tgt], axis=-1)


class ToyRelocateEnv:
    """Single-episode reset/step view over a one-episode BatchedRelocate."""

    horizon = HORIZON
    dt = DT
    obs_dim = OBS_DIM
    act_dim = ACT_DIM

    def __init__(self):
        self._episode: BatchedRelocate | None = None

    def reset(self, seed: int) -> np.ndarray:
        self._episode = BatchedRelocate([seed])
        return self._episode.observe()[0]

    def step(self, action: np.ndarray):
        if self._episode is None:
            raise RuntimeError("step() called before reset()")
        action = np.asarray(action, dtype=float)
        if action.shape != (ACT_DIM,):
            raise DataError(f"action must have shape ({ACT_DIM},)")
        reward = self._episode.step(action[None])[0]
        return self._episode.observe()[0], float(reward), self._episode.done

    @property
    def success(self) -> bool:
        return bool(self._episode.successes[0])


class BatchedRelocate:
    """Lockstep batch of episodes: the one implementation of the step rules."""

    def __init__(self, seeds):
        self.n = len(seeds)
        qs, objs, tgts = [], [], []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            q, obj, tgt = _spawn(rng)
            qs.append(q)
            objs.append(obj)
            tgts.append(tgt)
        self.q = np.stack(qs)
        self.obj = np.stack(objs)
        self.tgt = np.stack(tgts)
        self.grasped = np.zeros(self.n, dtype=bool)
        self._steps = 0

    @property
    def done(self) -> bool:
        """Every episode of the batch has run the full horizon."""
        return self._steps >= HORIZON

    def observe(self) -> np.ndarray:
        return _observation(self.q, tip_position(self.q), self.obj, self.tgt)

    def step(self, actions: np.ndarray) -> np.ndarray:
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        a = np.clip(actions, -MAX_JOINT_SPEED, MAX_JOINT_SPEED)
        self.q = np.clip(self.q + a * DT, -JOINT_LIMIT, JOINT_LIMIT)
        tip = tip_position(self.q)
        tip_obj = np.sqrt(np.sum((tip - self.obj) ** 2, axis=1))
        self.grasped |= tip_obj < GRASP_RADIUS
        self.obj = np.where(self.grasped[:, None], tip, self.obj)
        obj_tgt = np.sqrt(np.sum((self.obj - self.tgt) ** 2, axis=1))
        rewards = np.where(
            self.grasped,
            -obj_tgt + (obj_tgt < SUCCESS_RADIUS),
            -np.sqrt(np.sum((tip - self.obj) ** 2, axis=1)),
        )
        self._steps += 1
        return rewards

    @property
    def successes(self) -> np.ndarray:
        obj_tgt = np.sqrt(np.sum((self.obj - self.tgt) ** 2, axis=1))
        return self.grasped & (obj_tgt < SUCCESS_RADIUS)


def scripted_expert_action(obs: np.ndarray, gain: float = 6.0) -> np.ndarray:
    """Resolved-rate controller: reach the object, then carry it to the target."""
    q, tip, obj, tgt = obs[:3], obs[3:5], obs[5:7], obs[7:9]
    goal = tgt if np.linalg.norm(tip - obj) < GRASP_RADIUS * 0.9 else obj
    jac = tip_jacobian(q)
    # damped least-squares to stay stable near singular stretches
    jjt = jac @ jac.T + 1e-4 * np.eye(2)
    qd = jac.T @ np.linalg.solve(jjt, gain * (goal - tip))
    return np.clip(qd, -MAX_JOINT_SPEED, MAX_JOINT_SPEED)


def run_expert_episode(env: ToyRelocateEnv, seed: int, action_noise: float = 0.0):
    """One expert rollout; returns (states, actions, rewards, success).

    With action_noise > 0 the executed commands are perturbed while the
    recorded action stays the expert's feedback response to the perturbed
    state, so cloning the data teaches recovery behavior.
    """
    rng = np.random.default_rng(seed)
    obs = env.reset(seed)
    states = [obs]
    actions = []
    rewards = []
    done = False
    while not done:
        action = scripted_expert_action(obs)
        executed = action
        if action_noise > 0.0:
            executed = action + rng.normal(scale=action_noise, size=ACT_DIM)
        obs, reward, done = env.step(executed)
        states.append(obs)
        actions.append(action)
        rewards.append(reward)
    return np.stack(states), np.stack(actions), np.array(rewards), env.success


def demos_from_expert(n: int, seed: int = 0, action_noise: float = 0.3) -> list[Demonstration]:
    """Successful expert episodes packaged as dexdemo demonstrations.

    The default execution noise widens the demonstrated state distribution,
    which makes the data far more clonable than noise-free rollouts.
    """
    env = ToyRelocateEnv()
    demos = []
    episode_seed = int(seed)
    attempts = 0
    while len(demos) < n and attempts < 20 * n:
        attempts += 1
        states, actions, rewards, success = run_expert_episode(env, episode_seed, action_noise)
        episode_seed += 1
        if not success:
            continue
        demos.append(
            Demonstration(
                robot="toy-relocate",
                task="relocate",
                dt=DT,
                state_layout=STATE_LAYOUT,
                action_layout=ACTION_LAYOUT,
                states=states,
                actions=actions,
                provenance={"source": "scripted-expert", "seed": episode_seed - 1,
                            "return": float(rewards.sum())},
            )
        )
    if len(demos) < n:
        raise DataError(f"expert produced only {len(demos)}/{n} successful episodes")
    return demos
