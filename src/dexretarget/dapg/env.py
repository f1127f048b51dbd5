"""Contact-free toy relocate environment on a planar 3-DoF arm.

The arm is a chain of three z-axis revolute links whose tip can pick up a
point object: once the tip comes within the grasp radius the object rides
the tip. Reward is negative tip-to-object distance before the grasp, then
negative object-to-target distance plus a unit success bonus. Episodes run a
fixed horizon with randomized object and target positions per reset.
"""
from __future__ import annotations

import numpy as np

from ..demopipe import Demonstration
from ..errors import DataError

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
EXPERT_GAIN = 6.0
ACTION_NOISE = 0.3  # std of the expert's execution noise
MIN_SEPARATION = 0.3  # least object-to-target distance at a reset
SPAWN_TRIES = 100  # target draws per reset, at most


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distances of two (N, 2) arrays."""
    d = a - b
    return np.sqrt(np.add.reduce(d * d, axis=1))


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
    """Planar tip Jacobian: (2, 3) for q of shape (3,), (N, 2, 3) for (N, 3)."""
    q = np.asarray(q, dtype=float)
    a1 = q[..., 0]
    a2 = q[..., 0] + q[..., 1]
    a3 = a2 + q[..., 2]
    l1, l2, l3 = LINK_LENGTHS
    s = np.stack([l1 * np.sin(a1) + l2 * np.sin(a2) + l3 * np.sin(a3),
                  l2 * np.sin(a2) + l3 * np.sin(a3),
                  l3 * np.sin(a3)], axis=-1)
    c = np.stack([l1 * np.cos(a1) + l2 * np.cos(a2) + l3 * np.cos(a3),
                  l2 * np.cos(a2) + l3 * np.cos(a3),
                  l3 * np.cos(a3)], axis=-1)
    return np.stack([-s, c], axis=-2)


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """`Generator.uniform(low, high)` of the standard uniforms u, bit for bit."""
    return low + (high - low) * u


def _place(radius_u: np.ndarray, angle_u: np.ndarray) -> np.ndarray:
    """(N, 2) points in the reachable sector from the standard uniforms of
    their radii and angles."""
    radius, angle = _uniform(radius_u, 0.5, 0.95), _uniform(angle_u, -0.85, 0.85)
    return radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)


def _separation(tgt: np.ndarray, obj: np.ndarray) -> np.ndarray:
    """Row-wise distances, with the dot kernel of `np.linalg.norm` on one vector."""
    d = tgt - obj
    return np.sqrt(np.vecdot(d, d))


def _spawn(seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial joints plus object and target positions, one row per seed.

    Episode i draws from its own default_rng(seeds[i]): 3 joint angles, the
    object's radius and angle, then a target radius and angle until the target
    lies at least MIN_SEPARATION from the object, at most SPAWN_TRIES times;
    the last try stands. The first 7 uniforms of every episode come from one
    `random(7)` call and only the episodes that still need a target draw again,
    2 uniforms per try, so each generator yields the values that scalar
    `uniform` calls would and the rows are those of a per-episode loop.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    u = np.array([rng.random(7) for rng in rngs])
    q = _uniform(u[:, :3], -0.1, 0.4)
    obj = _place(u[:, 3], u[:, 4])
    tgt = _place(u[:, 5], u[:, 6])
    retry = np.flatnonzero(_separation(tgt, obj) < MIN_SEPARATION)
    for _ in range(SPAWN_TRIES - 1):
        if not retry.size:
            break
        u = np.array([rngs[i].random(2) for i in retry])
        tgt[retry] = _place(u[:, 0], u[:, 1])
        retry = retry[_separation(tgt[retry], obj[retry]) < MIN_SEPARATION]
    return q, obj, tgt


class BatchedRelocate:
    """Lockstep batch of episodes: the one implementation of the step rules."""

    def __init__(self, seeds):
        self.q, self.obj, self.tgt = _spawn(seeds)
        self.tip = tip_position(self.q)
        self.grasped = np.zeros(len(self.q), dtype=bool)
        self._steps = 0

    @property
    def done(self) -> bool:
        """Every episode of the batch has run the full horizon."""
        return self._steps >= HORIZON

    def observe(self) -> np.ndarray:
        return np.concatenate([self.q, self.tip, self.obj, self.tgt], axis=-1)

    def step(self, actions: np.ndarray) -> np.ndarray:
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        # np.clip's bits, without its Python wrapper
        a = np.minimum(np.maximum(actions, -MAX_JOINT_SPEED), MAX_JOINT_SPEED)
        self.q = np.minimum(np.maximum(self.q + a * DT, -JOINT_LIMIT), JOINT_LIMIT)
        self.tip = tip = tip_position(self.q)
        tip_obj = _distance(tip, self.obj)
        self.grasped |= tip_obj < GRASP_RADIUS
        # Only an episode that is still not grasping keeps its object, so its
        # tip_obj is still the tip-to-object distance.
        self.obj = np.where(self.grasped[:, None], tip, self.obj)
        obj_tgt = _distance(self.obj, self.tgt)
        rewards = np.where(self.grasped, -obj_tgt + (obj_tgt < SUCCESS_RADIUS), -tip_obj)
        self._steps += 1
        return rewards

    @property
    def successes(self) -> np.ndarray:
        return self.grasped & (_distance(self.obj, self.tgt) < SUCCESS_RADIUS)


def scripted_expert_action(obs: np.ndarray) -> np.ndarray:
    """Resolved-rate controller: reach the object, then carry it to the target.

    `obs` is one observation (9,) or a stack (N, 9); the action has shape (3,)
    or (N, 3).
    """
    obs = np.asarray(obs, dtype=float)
    q, tip, obj, tgt = obs[..., :3], obs[..., 3:5], obs[..., 5:7], obs[..., 7:9]
    carrying = np.linalg.norm(tip - obj, axis=-1) < GRASP_RADIUS * 0.9
    goal = np.where(carrying[..., None], tgt, obj)
    jac = tip_jacobian(q)
    jac_t = np.swapaxes(jac, -1, -2)
    # damped least-squares to stay stable near singular stretches
    jjt = jac @ jac_t + 1e-4 * np.eye(2)
    rate = np.linalg.solve(jjt, (EXPERT_GAIN * (goal - tip))[..., None])
    qd = (jac_t @ rate)[..., 0]
    return np.clip(qd, -MAX_JOINT_SPEED, MAX_JOINT_SPEED)


def demos_from_expert(n: int, seed: int = 0) -> list[Demonstration]:
    """Successful expert episodes packaged as dexdemo demonstrations.

    Episode seeds run seed, seed + 1, ...; the first n successful ones are
    kept, in seed order, out of at most 20 * n attempts. Each round steps the
    next n - found episodes in lockstep. The executed commands carry Gaussian
    noise from the episode's own default_rng(seed) while the recorded action
    stays the expert's feedback response to the perturbed state: the wider
    state distribution makes the data far more clonable than noise-free
    rollouts, and cloning it teaches recovery behavior. Each episode's noise
    for the whole horizon is one draw of its generator. A count below 1 is a
    DataError.
    """
    if n < 1:
        raise DataError(f"need at least 1 expert demonstration, got {n}")
    demos = []
    attempts = 0
    while len(demos) < n and attempts < 20 * n:
        first = int(seed) + attempts
        seeds = range(first, first + min(n - len(demos), 20 * n - attempts))
        attempts += len(seeds)
        noise = np.stack([np.random.default_rng(s).normal(scale=ACTION_NOISE, size=(HORIZON, ACT_DIM))
                          for s in seeds], axis=1)
        env = BatchedRelocate(seeds)
        states = [env.observe()]
        actions, rewards = [], []
        for step_noise in noise:
            action = scripted_expert_action(states[-1])
            rewards.append(env.step(action + step_noise))
            states.append(env.observe())
            actions.append(action)
        states, actions, rewards = np.stack(states, axis=1), np.stack(actions, axis=1), np.stack(rewards, axis=1)
        for i in np.flatnonzero(env.successes):
            demos.append(
                Demonstration(
                    robot="toy-relocate",
                    task="relocate",
                    dt=DT,
                    state_layout=STATE_LAYOUT,
                    action_layout=ACTION_LAYOUT,
                    states=states[i],
                    actions=actions[i],
                    provenance={"source": "scripted-expert", "seed": seeds[i],
                                "return": float(rewards[i].sum())},
                )
            )
    if len(demos) < n:
        raise DataError(f"expert produced only {len(demos)}/{n} successful episodes")
    return demos
