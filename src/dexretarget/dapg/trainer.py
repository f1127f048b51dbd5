"""Demo-augmented policy gradient training on the toy relocate task.

The parameter gradient is

    g = sum_batch grad(ln pi(a|s)) * A
      + lambda0 * lambda1^k * max_batch(A) * sum_demo grad(ln pi(a|s))

with Monte-Carlo advantages A = return - value baseline. The value function
is refit by regression after each iteration but the last, whose fit no later
iteration would read; training uses plain gradient ascent on g (Adam-scaled)
rather than a trust-region step.

Every network pass over a whole batch or demo set runs in consecutive blocks
of PASS_BLOCK rows, so that each block's activations stay in the L2 cache and
no pass allocates more than a block's worth: the value baseline of
`compute_advantages` and the demo NLL of `bc_pretrain` are written block by
block into one array, and both terms of `dapg_gradient` add up the blocks'
gradients in block order. Each block is one call of the unchanged network
passes, whose bits follow the one-pass formulas that `tests/test_dapg.py`
keeps as a reference; a gradient over more than one block differs from the
one-pass gradient only in the order of summation, and a batch of at most one
block gives the one-pass bits. The value fit keeps its VALUE_BATCH_SIZE-row
minibatches, each gathered from the batch by index, with no shuffled copy of
the batch. An iteration holds no array that it will not read again: the
batch's actions and the advantages are released before the value fit, and
its states and returns after it.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np

from ..demopipe import Demonstration
from ..errors import DataError, NumericalError, atomic_write_text, check_number_fields, is_number, must_be
from .env import ACT_DIM, HORIZON, OBS_DIM, BatchedRelocate
from .nets import Adam, GaussianPolicy, ValueFunction

log = logging.getLogger(__name__)

BC_BATCH_SIZE = 128
VALUE_BATCH_SIZE = 2048
# Rows per block of a pass over a whole batch or demo set: 128 KB per 32-wide
# activation, which measured faster than 256, 1024 or 2048 rows.
PASS_BLOCK = 512


def _row_blocks(n: int) -> list[slice]:
    """Consecutive PASS_BLOCK-row slices covering n rows, in order."""
    return [slice(start, start + PASS_BLOCK) for start in range(0, n, PASS_BLOCK)]


def _by_blocks(fn, *arrays) -> np.ndarray:
    """fn over consecutive row blocks of the arrays, written into one (rows,) array."""
    out = np.empty(arrays[0].shape[0])
    for rows in _row_blocks(out.size):
        out[rows] = fn(*(a[rows] for a in arrays))
    return out


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
        for name in ("batch_trajectories", "iterations"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("seed", "bc_epochs", "value_epochs", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("learning_rate", "value_learning_rate", "bc_learning_rate"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")
        if isinstance(self.hidden, list):  # as a JSON config gives it
            object.__setattr__(self, "hidden", tuple(self.hidden))
        if not (isinstance(self.hidden, tuple) and all(is_number(w, Integral) and w > 0 for w in self.hidden)):
            raise DataError(must_be("hidden layer widths", "positive integers", self.hidden))
        if not (0.0 <= self.lambda0 <= 1.0 and 0.0 <= self.lambda1 < 1.0):
            raise DataError("need 0 <= lambda0 <= 1 and 0 <= lambda1 < 1")
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
    """n on-policy episodes stepped in lockstep.

    Each step's observations, actions and rewards are written straight into
    the batch's (HORIZON, n, ...) arrays.
    """
    envs = BatchedRelocate(rng.integers(0, 2**63 - 1, size=n))
    states = np.empty((HORIZON, n, OBS_DIM))
    actions = np.empty((HORIZON, n, ACT_DIM))
    rewards = np.empty((HORIZON, n))
    for t in range(HORIZON):
        states[t] = envs.observe()
        actions[t] = policy.sample(states[t], rng)
        rewards[t] = envs.step(actions[t])
    return Batch(
        states=states.reshape(HORIZON * n, OBS_DIM),
        actions=actions.reshape(HORIZON * n, ACT_DIM),
        returns=discounted_to_go(rewards, discount).reshape(HORIZON * n),
        episode_returns=rewards.sum(axis=0),
        successes=envs.successes,
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
    if batch.returns.shape != (batch.states.shape[0],):
        raise DataError("batch dimensions disagree")
    return batch.returns - _by_blocks(value_fn.predict, batch.states)


def _logp_grad(policy: GaussianPolicy, states, actions, weights) -> np.ndarray:
    """weighted_logp_grad over the rows block by block, summed in block order."""
    if actions.shape[0] != states.shape[0] or weights.shape != (states.shape[0],):
        raise DataError("batch dimensions disagree")
    blocks = _row_blocks(states.shape[0]) or [slice(None)]
    g = policy.weighted_logp_grad(states[blocks[0]], actions[blocks[0]], weights[blocks[0]])
    for rows in blocks[1:]:
        g += policy.weighted_logp_grad(states[rows], actions[rows], weights[rows])
    return g


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
    g = _logp_grad(policy, batch.states, batch.actions, advantages)
    if lambda0 == 0.0 or demo_states is None or demo_states.shape[0] == 0:
        return g, 0.0
    if demo_states.shape[1] != batch.states.shape[1] or demo_actions.shape[1] != batch.actions.shape[1]:
        raise DataError("demo and batch dimensions disagree")
    max_adv = float(advantages.max())
    if clamp_demo_weight:
        max_adv = max(max_adv, 0.0)
    weight = lambda0 * lambda1**k * max_adv
    if weight != 0.0:
        g = g + _logp_grad(policy, demo_states, demo_actions, np.full(demo_states.shape[0], weight))
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
    if not any(len(a) for a in actions):
        raise DataError("demonstrations hold no (state, action) pair")
    return np.concatenate(states), np.concatenate(actions)


def bc_pretrain(
    policy: GaussianPolicy,
    demo_states: np.ndarray,
    demo_actions: np.ndarray,
    epochs: int,
    learning_rate: float,
    seed: int = 0,
) -> list[float]:
    """Behavior cloning: minibatch Adam epochs on the demo log likelihood.

    Returns the mean demo NLL as [before the first epoch, after the last]."""
    n = demo_states.shape[0]
    adam = Adam(policy.num_params, learning_rate)
    rng = np.random.default_rng(seed)
    nll_before = float(-np.mean(_by_blocks(policy.log_prob, demo_states, demo_actions)))
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, BC_BATCH_SIZE):
            idx = order[start : start + BC_BATCH_SIZE]
            grad = policy.weighted_logp_grad(
                demo_states[idx], demo_actions[idx], np.full(idx.size, 1.0 / idx.size)
            )
            policy.set_flat(policy.params + adam.step(grad))
    return [nll_before, float(-np.mean(_by_blocks(policy.log_prob, demo_states, demo_actions)))]


def fit_value(
    value_fn: ValueFunction,
    states: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    adam: Adam,
    rng: np.random.Generator,
) -> float:
    """Minibatch Adam epochs on the value network's squared error, updating
    its parameter vector in place; the last minibatch's loss.

    Each epoch draws one permutation of the rows, and each minibatch gathers
    its rows from `states` and `targets` by index, so no shuffled copy of the
    whole batch is made."""
    loss = float("nan")
    n = states.shape[0]
    if targets.shape != (n,):
        raise DataError("batch dimensions disagree")
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, VALUE_BATCH_SIZE):
            idx = order[start : start + VALUE_BATCH_SIZE]
            loss, grad = value_fn.mse_and_grad(states.take(idx, axis=0), targets.take(idx))
            value_fn.params -= adam.step(grad)
    return loss


def train(
    demos: list[Demonstration] | None,
    config: DapgConfig,
    out_dir: str | Path | None = None,
) -> tuple[GaussianPolicy, LearningCurve]:
    """Run DAPG (demos given) or pure policy-gradient RL (demos None/empty).

    Deterministic for a fixed config at a fixed BLAS thread count: the
    learning curve and the parameters then reproduce bitwise. Under another
    thread count the BLAS may sum matrix products in another order, so they
    can differ in the last bits and drift apart from there.
    """
    rng = np.random.default_rng(config.seed)
    policy = GaussianPolicy(
        OBS_DIM, ACT_DIM, hidden=config.hidden, seed=config.seed, log_std_init=config.log_std_init
    )
    value_fn = ValueFunction(OBS_DIM, hidden=config.hidden, seed=config.seed + 1)
    value_adam = Adam(value_fn.params.size, config.value_learning_rate)
    policy_adam = Adam(policy.num_params, config.learning_rate)

    if demos:
        demo_states, demo_actions = demo_arrays(demos)
        if config.bc_epochs > 0:
            nll = bc_pretrain(
                policy, demo_states, demo_actions, config.bc_epochs,
                config.bc_learning_rate, seed=config.seed,
            )
            log.info("behavior cloning: demo NLL %.4f before, %.4f after", *nll)
    else:
        demo_states = demo_actions = None

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    curve = LearningCurve()
    n_samples = config.batch_trajectories * HORIZON
    for k in range(config.iterations):
        batch = rollout_batch(policy, config.batch_trajectories, rng, config.discount)
        grad, weight = dapg_gradient(
            policy, batch, compute_advantages(batch, value_fn), demo_states, demo_actions,
            config.lambda0 if demos else 0.0, config.lambda1, k,
        )
        curve.add(k, batch.episode_returns.mean(), batch.successes.mean(), weight)
        # The value fit reads only the states and returns: the actions and the
        # advantages are released before it runs, and these two after it.
        states, returns = batch.states, batch.returns
        del batch
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient at iteration {k}")
        params = policy.params + policy_adam.step(grad / n_samples)
        if not np.all(np.isfinite(params)):
            raise NumericalError(f"non-finite policy parameters at iteration {k}")
        policy.set_flat(params)
        if k + 1 < config.iterations:
            fit_value(value_fn, states, returns, config.value_epochs, value_adam, rng)
        del states, returns

        if out_dir is not None and config.checkpoint_every > 0 and (k + 1) % config.checkpoint_every == 0:
            atomic_write_text(out_dir / f"checkpoint_{k + 1:04d}.npz", {"params": policy.get_flat()})
        if k % 10 == 0:
            log.debug(
                "iter %d: return %.2f success %.2f demo weight %.3g",
                k, curve.mean_return[-1], curve.success_rate[-1], weight,
            )

    if out_dir is not None:
        atomic_write_text(out_dir / "curve.csv", curve.to_table())
        atomic_write_text(out_dir / "policy.npz", {"params": policy.get_flat()})
    return policy, curve
