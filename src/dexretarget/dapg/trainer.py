"""Demo-augmented policy gradient training on the toy relocate task.

The parameter gradient is

    g = sum_batch grad(ln pi(a|s)) * A
      + lambda0 * lambda1^k * max_batch(A) * sum_demo grad(ln pi(a|s))

with Monte-Carlo advantages A = return - value baseline. The value function
is refit by regression after each iteration; training uses plain gradient
ascent on g (Adam-scaled) rather than a trust-region step.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np

from ..demopipe import Demonstration
from ..errors import DataError, NumericalError, check_number_fields
from .env import ACT_DIM, HORIZON, OBS_DIM, BatchedRelocate
from .nets import Adam, GaussianPolicy, ValueFunction

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DapgConfig:
    lambda0: float = 0.1        # chosen, not from any published source
    lambda1: float = 0.99       # chosen, not from any published source
    learning_rate: float = 5e-3
    value_learning_rate: float = 1e-2
    batch_trajectories: int = 200
    iterations: int = 150
    discount: float = 0.99
    seed: int = 0
    bc_epochs: int = 50
    bc_learning_rate: float = 1e-2
    value_epochs: int = 5
    hidden: tuple[int, ...] = (32, 32)
    log_std_init: float = -0.5
    checkpoint_every: int = 0

    def __post_init__(self):
        check_number_fields(
            self,
            reals=("lambda0", "lambda1", "learning_rate", "value_learning_rate", "discount",
                   "bc_learning_rate", "log_std_init"),
            integers=("batch_trajectories", "iterations", "seed", "bc_epochs", "value_epochs",
                      "checkpoint_every"),
        )
        if not all(isinstance(w, Integral) and not isinstance(w, bool) and w > 0 for w in self.hidden):
            raise DataError(f"hidden layer widths must be positive integers, got {self.hidden!r}")
        if not (0.0 <= self.lambda0 <= 1.0 and 0.0 <= self.lambda1 < 1.0):
            raise DataError("need 0 <= lambda0 <= 1 and 0 <= lambda1 < 1")
        if self.learning_rate <= 0:
            raise DataError("learning rate must be positive")
        if not 0.0 <= self.discount <= 1.0:
            raise DataError("discount must be in [0, 1]")


@dataclass
class Batch:
    """On-policy samples from one iteration, flattened over trajectories."""

    states: np.ndarray          # (N*T, obs)
    actions: np.ndarray         # (N*T, act)
    returns: np.ndarray         # (N*T,) discounted reward-to-go
    episode_returns: np.ndarray  # (N,) undiscounted
    successes: np.ndarray       # (N,) bool


@dataclass
class LearningCurve:
    iterations: list[int] = field(default_factory=list)
    mean_return: list[float] = field(default_factory=list)
    success_rate: list[float] = field(default_factory=list)
    demo_weight: list[float] = field(default_factory=list)

    def add(self, k, ret, success, weight):
        self.iterations.append(int(k))
        self.mean_return.append(float(ret))
        self.success_rate.append(float(success))
        self.demo_weight.append(float(weight))

    def to_table(self) -> str:
        lines = ["iteration,mean_return,success_rate,demo_weight"]
        for row in zip(self.iterations, self.mean_return, self.success_rate, self.demo_weight):
            lines.append("%d,%r,%r,%r" % row)
        return "\n".join(lines) + "\n"

    @property
    def auc(self) -> float:
        """Area under the mean-return curve (iteration-unit spacing)."""
        return float(np.trapezoid(self.mean_return))


def rollout_batch(
    policy: GaussianPolicy, n: int, rng: np.random.Generator, discount: float
) -> Batch:
    """n on-policy episodes stepped in lockstep."""
    seeds = rng.integers(0, 2**63 - 1, size=n)
    envs = BatchedRelocate(seeds)
    obs = envs.observe()
    all_states = np.empty((HORIZON, n, OBS_DIM))
    all_actions = np.empty((HORIZON, n, ACT_DIM))
    all_rewards = np.empty((HORIZON, n))
    for t in range(HORIZON):
        actions = policy.sample(obs, rng)
        all_states[t] = obs
        all_actions[t] = actions
        all_rewards[t] = envs.step(actions)
        obs = envs.observe()
    return Batch(
        states=all_states.reshape(HORIZON * n, OBS_DIM),
        actions=all_actions.reshape(HORIZON * n, ACT_DIM),
        returns=discounted_to_go(all_rewards, discount).reshape(HORIZON * n),
        episode_returns=all_rewards.sum(axis=0),
        successes=envs.successes.copy(),
    )


def discounted_to_go(rewards: np.ndarray, discount: float) -> np.ndarray:
    """Reward-to-go along axis 0 of a (T, ...) reward array."""
    out = np.empty_like(rewards)
    acc = np.zeros_like(rewards[0])
    for t in range(rewards.shape[0] - 1, -1, -1):
        acc = rewards[t] + discount * acc
        out[t] = acc
    return out


def compute_advantages(batch: Batch, value_fn: ValueFunction) -> np.ndarray:
    """Monte-Carlo advantages: empirical return minus the value baseline."""
    if batch.states.shape[0] == 0:
        raise DataError("empty batch")
    return batch.returns - value_fn.predict(batch.states)


def dapg_gradient(
    policy: GaussianPolicy,
    batch: Batch,
    advantages: np.ndarray,
    demo_states: np.ndarray | None,
    demo_actions: np.ndarray | None,
    lambda0: float,
    lambda1: float,
    k: int,
    clamp_demo_weight: bool = True,
) -> tuple[np.ndarray, float]:
    """The augmented gradient and the demo-term weight actually applied."""
    g = policy.weighted_logp_grad(batch.states, batch.actions, advantages)
    if lambda0 == 0.0 or demo_states is None or demo_states.shape[0] == 0:
        return g, 0.0
    if demo_states.shape[1] != batch.states.shape[1] or demo_actions.shape[1] != batch.actions.shape[1]:
        raise DataError("demo and batch dimensions disagree")
    max_adv = float(advantages.max())
    if clamp_demo_weight:
        max_adv = max(max_adv, 0.0)
    weight = lambda0 * lambda1**k * max_adv
    if weight != 0.0:
        g = g + policy.weighted_logp_grad(
            demo_states, demo_actions, np.full(demo_states.shape[0], weight)
        )
    return g, weight


def demo_arrays(demos: list[Demonstration]) -> tuple[np.ndarray, np.ndarray]:
    """Stack (state, action) pairs from toy-relocate demonstrations."""
    states, actions = [], []
    for demo in demos:
        if sum(w for _, w in demo.state_layout) != OBS_DIM:
            raise DataError(f"demonstration state width is not {OBS_DIM}")
        if sum(w for _, w in demo.action_layout) != ACT_DIM:
            raise DataError(f"demonstration action width is not {ACT_DIM}")
        states.append(demo.states[:-1])
        actions.append(demo.actions)
    return np.concatenate(states), np.concatenate(actions)


def bc_pretrain(
    policy: GaussianPolicy,
    demo_states: np.ndarray,
    demo_actions: np.ndarray,
    epochs: int,
    learning_rate: float,
    batch_size: int = 128,
    seed: int = 0,
) -> list[float]:
    """Behavior cloning: minibatch Adam epochs on the demo log likelihood."""
    n = demo_states.shape[0]
    adam = Adam(policy.num_params, learning_rate)
    rng = np.random.default_rng(seed)
    nll_per_epoch = []
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            grad = policy.weighted_logp_grad(
                demo_states[idx], demo_actions[idx], np.full(idx.size, 1.0 / idx.size)
            )
            policy.set_flat(policy.get_flat() + adam.step(grad))
        nll_per_epoch.append(float(-np.mean(policy.log_prob(demo_states, demo_actions))))
    return nll_per_epoch


def fit_value(
    value_fn: ValueFunction,
    states: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    adam: Adam,
    rng: np.random.Generator,
    batch_size: int = 2048,
) -> float:
    loss = float("nan")
    n = states.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, grad = value_fn.mse_and_grad(states[idx], targets[idx])
            value_fn.set_flat(value_fn.get_flat() - adam.step(grad))
    return loss


def train(
    demos: list[Demonstration] | None,
    config: DapgConfig,
    out_dir: str | Path | None = None,
) -> tuple[GaussianPolicy, LearningCurve]:
    """Run DAPG (demos given) or pure policy-gradient RL (demos None/empty).

    Deterministic for a fixed config: the learning curve reproduces bitwise.
    """
    rng = np.random.default_rng(config.seed)
    policy = GaussianPolicy(
        OBS_DIM, ACT_DIM, hidden=config.hidden, seed=config.seed, log_std_init=config.log_std_init
    )
    value_fn = ValueFunction(OBS_DIM, hidden=config.hidden, seed=config.seed + 1)
    value_adam = Adam(value_fn.get_flat().size, config.value_learning_rate)
    policy_adam = Adam(policy.num_params, config.learning_rate)

    if demos:
        demo_states, demo_actions = demo_arrays(demos)
        if config.bc_epochs > 0:
            nll = bc_pretrain(
                policy, demo_states, demo_actions, config.bc_epochs,
                config.bc_learning_rate, seed=config.seed,
            )
            log.info("behavior cloning: NLL %.4f -> %.4f", nll[0], nll[-1])
    else:
        demo_states = demo_actions = None

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    curve = LearningCurve()
    n_samples = config.batch_trajectories * HORIZON
    for k in range(config.iterations):
        batch = rollout_batch(policy, config.batch_trajectories, rng, config.discount)
        advantages = compute_advantages(batch, value_fn)
        grad, weight = dapg_gradient(
            policy, batch, advantages, demo_states, demo_actions,
            config.lambda0 if demos else 0.0, config.lambda1, k,
        )
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient at iteration {k}")
        policy.set_flat(policy.get_flat() + policy_adam.step(grad / n_samples))
        if not np.all(np.isfinite(policy.get_flat())):
            raise NumericalError(f"non-finite policy parameters at iteration {k}")
        fit_value(value_fn, batch.states, batch.returns, config.value_epochs, value_adam, rng)

        curve.add(k, batch.episode_returns.mean(), batch.successes.mean(), weight)
        if out_dir is not None and config.checkpoint_every > 0 and (k + 1) % config.checkpoint_every == 0:
            np.savez(out_dir / f"checkpoint_{k + 1:04d}.npz", params=policy.get_flat())
        if k % 10 == 0:
            log.debug(
                "iter %d: return %.2f success %.2f demo weight %.3g",
                k, curve.mean_return[-1], curve.success_rate[-1], weight,
            )

    if out_dir is not None:
        (out_dir / "curve.csv").write_text(curve.to_table())
        np.savez(out_dir / "policy.npz", params=policy.get_flat())
    return policy, curve
