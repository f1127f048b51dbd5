from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import dexretarget
from dexretarget.dapg import (
    DapgConfig,
    GaussianPolicy,
    ValueFunction,
    bc_pretrain,
    compute_advantages,
    dapg_gradient,
    demos_from_expert,
    train,
)
from dexretarget.dapg.env import (
    HORIZON,
    BatchedRelocate,
    scripted_expert_action,
    tip_jacobian,
    tip_position,
)
from dexretarget.dapg.nets import LOG2PI, Adam, _Mlp
from dexretarget.dapg.trainer import (
    PASS_BLOCK,
    VALUE_BATCH_SIZE,
    Batch,
    demo_arrays,
    discounted_to_go,
    fit_value,
    rollout_batch,
)
from dexretarget.demopipe import read_demo, write_demo
from dexretarget.errors import DataError
from dexretarget.kinematics import forward_kinematics

from helpers import arm_tree


# --- environment ------------------------------------------------------------

def run_to_horizon(env: BatchedRelocate, policy) -> list[np.ndarray]:
    """Step every episode of env with policy(observations) until the horizon; returns the rewards."""
    rewards = []
    while not env.done:
        rewards.append(env.step(policy(env.observe())))
    return rewards


def test_zero_actions_never_move_the_object():
    env = BatchedRelocate([4])
    obj0 = env.observe()[0, 5:7].copy()
    run_to_horizon(env, lambda obs: np.zeros((1, 3)))
    assert np.array_equal(env.observe()[0, 5:7], obj0)
    assert not env.successes[0]


def test_scripted_expert_succeeds():
    env = BatchedRelocate(range(100))
    run_to_horizon(env, scripted_expert_action)
    assert env.successes.sum() >= 95


def test_reward_per_step_bounded_by_one():
    rng = np.random.default_rng(0)
    rewards = run_to_horizon(BatchedRelocate(range(5)), lambda obs: rng.uniform(-2, 2, size=(5, 3)))
    assert np.max(rewards) <= 1.0


def test_step_after_done_raises():
    batch = BatchedRelocate([1, 2])
    for _ in range(HORIZON):
        assert not batch.done
        batch.step(np.zeros((2, 3)))
    assert batch.done
    with pytest.raises(RuntimeError):
        batch.step(np.zeros((2, 3)))


def test_env_tip_matches_kinematics_chain():
    tree = arm_tree()
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = rng.uniform(-2.5, 2.5, size=3)
        kin = forward_kinematics(tree, q)["tip"]
        assert tip_position(q) == pytest.approx(kin[:2], abs=1e-12)
        assert kin[2] == pytest.approx(0.0, abs=1e-15)


def test_batched_env_matches_single_env_bitwise():
    seeds = [5, 17, 254]
    batch = BatchedRelocate(seeds)
    singles = [BatchedRelocate([seed]) for seed in seeds]
    assert np.array_equal(batch.observe(), np.concatenate([env.observe() for env in singles]))
    rng = np.random.default_rng(3)
    for _ in range(100):
        actions = rng.uniform(-2.5, 2.5, size=(3, 3))
        rewards = batch.step(actions)
        for i, env in enumerate(singles):
            assert env.step(actions[i:i + 1])[0] == rewards[i]
            assert np.array_equal(env.observe()[0], batch.observe()[i])
    for i, env in enumerate(singles):
        assert env.successes[0] == batch.successes[i]


def test_scripted_expert_stack_matches_single_observations_bitwise():
    obs = BatchedRelocate(range(6)).observe()
    stacked = scripted_expert_action(obs)
    for i, row in enumerate(obs):
        assert scripted_expert_action(row).tobytes() == stacked[i].tobytes()
        assert tip_jacobian(row[:3]).tobytes() == tip_jacobian(obs[:, :3])[i].tobytes()


def test_reset_reproducible_from_seed():
    assert np.array_equal(BatchedRelocate([123]).observe(), BatchedRelocate([123]).observe())


def expert_fingerprint(demo):
    return demo.states.tobytes(), demo.actions.tobytes(), demo.provenance


def fail_expert_episodes(monkeypatch, fails) -> list[list[int]]:
    """Make every episode whose seed satisfies fails(seed) unsuccessful; returns the seeds of each batch run."""
    batches = []
    real_init, real_successes = BatchedRelocate.__init__, BatchedRelocate.successes

    def init(self, seeds):
        batches.append(list(seeds))
        self.failing = np.array([fails(s) for s in seeds], dtype=bool)
        real_init(self, seeds)

    monkeypatch.setattr(BatchedRelocate, "__init__", init)
    monkeypatch.setattr(BatchedRelocate, "successes",
                        property(lambda self: real_successes.fget(self) & ~self.failing))
    return batches


def test_expert_demos_are_a_prefix_of_a_longer_run():
    for seed in (0, 41):
        shorter = demos_from_expert(5, seed=seed)
        longer = demos_from_expert(8, seed=seed)
        assert [expert_fingerprint(d) for d in shorter] == [expert_fingerprint(d) for d in longer[:5]]


def test_expert_keeps_the_first_successful_seeds_in_order(monkeypatch):
    expected = [expert_fingerprint(demos_from_expert(1, seed=s)[0]) for s in (4, 6, 8, 10)]
    batches = fail_expert_episodes(monkeypatch, lambda s: s % 2 == 1)
    assert [expert_fingerprint(d) for d in demos_from_expert(4, seed=3)] == expected
    assert batches == [[3, 4, 5, 6], [7, 8], [9], [10]]


def test_expert_gives_up_at_the_attempt_cap(monkeypatch):
    batches = fail_expert_episodes(monkeypatch, lambda s: True)
    with pytest.raises(DataError, match="expert produced only 0/3 successful episodes"):
        demos_from_expert(3, seed=7)
    assert [s for seeds in batches for s in seeds] == list(range(7, 7 + 20 * 3))


# --- advantages -------------------------------------------------------------

def make_batch(rng, n=4, horizon=5, constant_reward=None):
    states = rng.normal(size=(horizon * n, 9))
    actions = rng.normal(size=(horizon * n, 3))
    if constant_reward is None:
        rewards = rng.normal(size=(horizon, n))
    else:
        rewards = np.full((horizon, n), constant_reward)
    returns = discounted_to_go(rewards, 0.9).reshape(-1)
    return Batch(states, actions, returns, rewards.sum(axis=0), np.zeros(n, dtype=bool)), rewards


class _ExactValue:
    def __init__(self, table):
        self.table = table

    def predict(self, states):
        return self.table


def test_constant_rewards_with_exact_fit_give_zero_advantage():
    rng = np.random.default_rng(7)
    batch, _ = make_batch(rng, constant_reward=0.5)
    adv = compute_advantages(batch, _ExactValue(batch.returns.copy()))
    assert adv == pytest.approx(np.zeros_like(adv), abs=1e-12)


def test_zero_value_gives_discounted_returns():
    rng = np.random.default_rng(8)
    batch, _ = make_batch(rng)
    adv = compute_advantages(batch, _ExactValue(np.zeros_like(batch.returns)))
    assert np.array_equal(adv, batch.returns)


def test_discount_zero_gives_immediate_reward_minus_value():
    rng = np.random.default_rng(9)
    rewards = rng.normal(size=(6, 3))
    returns = discounted_to_go(rewards, 0.0)
    assert np.array_equal(returns, rewards)
    value = ValueFunction(9, seed=2)
    states = rng.normal(size=(18, 9))
    batch = Batch(states, rng.normal(size=(18, 3)), returns.reshape(-1),
                  rewards.sum(axis=0), np.zeros(3, dtype=bool))
    adv = compute_advantages(batch, value)
    assert adv == pytest.approx(rewards.reshape(-1) - value.predict(states), abs=1e-12)


def test_empty_batch_rejected():
    empty = Batch(np.zeros((0, 9)), np.zeros((0, 3)), np.zeros(0), np.zeros(0), np.zeros(0, bool))
    with pytest.raises(DataError):
        compute_advantages(empty, ValueFunction(9))


def test_advantages_reject_returns_of_another_length():
    rng = np.random.default_rng(10)
    batch, _ = make_batch(rng, n=10, horizon=5)
    with pytest.raises(DataError, match="batch dimensions disagree"):
        compute_advantages(replace(batch, returns=np.array([1.0])), ValueFunction(9))


# --- augmented gradient -----------------------------------------------------

@pytest.fixture
def tiny_setup():
    rng = np.random.default_rng(11)
    policy = GaussianPolicy(2, 1, hidden=(), seed=3)
    states = rng.normal(size=(3, 2))
    actions = rng.normal(size=(3, 1))
    advantages = rng.normal(size=3)
    batch = Batch(states, actions, advantages * 0.0, np.zeros(1), np.zeros(1, bool))
    demo_s = rng.normal(size=(4, 2))
    demo_a = rng.normal(size=(4, 1))
    return policy, batch, advantages, demo_s, demo_a


def test_lambda0_zero_equals_vanilla_gradient_bitwise(tiny_setup):
    policy, batch, adv, demo_s, demo_a = tiny_setup
    g, weight = dapg_gradient(policy, batch, adv, demo_s, demo_a, 0.0, 0.99, 7)
    vanilla = policy.weighted_logp_grad(batch.states, batch.actions, adv)
    assert np.array_equal(g, vanilla)
    assert weight == 0.0


def test_demo_weight_geometric_decay_exact_for_dyadic_lambda1(tiny_setup):
    policy, batch, adv, demo_s, demo_a = tiny_setup
    weights = []
    for k in range(6):
        _, w = dapg_gradient(policy, batch, adv, demo_s, demo_a, 0.25, 0.5, k,
                             clamp_demo_weight=False)
        weights.append(w)
    for a, b in zip(weights, weights[1:]):
        assert b / a == 0.5  # exact in binary floating point


def test_demo_weight_decay_monotone_for_default_lambda1(tiny_setup):
    policy, batch, adv, demo_s, demo_a = tiny_setup
    weights = [
        dapg_gradient(policy, batch, adv, demo_s, demo_a, 0.1, 0.99, k, clamp_demo_weight=False)[1]
        for k in range(150)
    ]
    mags = np.abs(weights)
    assert all(a >= b for a, b in zip(mags, mags[1:]))
    ratios = np.array(weights[1:]) / np.array(weights[:-1])
    assert ratios == pytest.approx(np.full(149, 0.99), rel=1e-14)


def test_gradient_matches_finite_differences_of_surrogate(tiny_setup):
    policy, batch, adv, demo_s, demo_a = tiny_setup
    g, weight = dapg_gradient(policy, batch, adv, demo_s, demo_a, 0.3, 0.9, 5,
                              clamp_demo_weight=False)

    def surrogate(theta):
        saved = policy.get_flat()
        policy.set_flat(theta)
        value = float(np.sum(policy.log_prob(batch.states, batch.actions) * adv))
        value += weight * float(np.sum(policy.log_prob(demo_s, demo_a)))
        policy.set_flat(saved)
        return value

    theta0 = policy.get_flat()
    fd = np.zeros_like(theta0)
    h = 1e-6
    for j in range(theta0.size):
        tp, tm = theta0.copy(), theta0.copy()
        tp[j] += h
        tm[j] -= h
        fd[j] = (surrogate(tp) - surrogate(tm)) / (2 * h)
    assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-5


def test_negative_batch_advantage_clamps_demo_weight(tiny_setup):
    policy, batch, _, demo_s, demo_a = tiny_setup
    negative = np.array([-3.0, -1.0, -2.0])
    g_clamped, w_clamped = dapg_gradient(policy, batch, negative, demo_s, demo_a, 0.5, 0.9, 0)
    assert w_clamped == 0.0
    assert np.array_equal(g_clamped, policy.weighted_logp_grad(batch.states, batch.actions, negative))
    _, w_literal = dapg_gradient(policy, batch, negative, demo_s, demo_a, 0.5, 0.9, 0,
                                 clamp_demo_weight=False)
    assert w_literal == 0.5 * (-1.0)


def test_dimension_mismatch_rejected(tiny_setup):
    policy, batch, adv, _, _ = tiny_setup
    with pytest.raises(DataError):
        dapg_gradient(policy, batch, adv, np.zeros((4, 5)), np.zeros((4, 1)), 0.1, 0.9, 0)


# --- network passes against their out-of-place reference formulas -----------

def ref_layers(flat, sizes):
    """Views of `flat`: weight matrices, bias vectors, then the entries after them."""
    shapes = list(zip(sizes, sizes[1:]))
    parts = np.split(flat, np.cumsum([fan_in * fan_out for fan_in, fan_out in shapes] + list(sizes[1:])))
    return [w.reshape(shape) for w, shape in zip(parts, shapes)], parts[len(shapes) : -1], parts[-1]


def ref_forward(net, x):
    acts = [x]
    h = x
    weights, biases, _ = ref_layers(net.params, net.sizes)
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if k != last:
            h = np.tanh(h)
        acts.append(h)
    return h, acts


def ref_backward(net, acts, grad_out):
    grad = np.empty_like(net.params)
    gw, gb, extra = ref_layers(grad, net.sizes)
    weights, _, _ = ref_layers(net.params, net.sizes)
    delta = grad_out
    for k in range(len(gw) - 1, -1, -1):
        np.matmul(acts[k].T, delta, out=gw[k])
        delta.sum(axis=0, out=gb[k])
        if k > 0:
            delta = (delta @ weights[k].T) * (1.0 - acts[k] ** 2)
    return grad, extra


def ref_weighted_logp_grad(policy, states, actions, weights):
    mu, acts = ref_forward(policy, states)
    var = np.exp(2.0 * policy.log_std)
    diff = actions - mu
    grad, grad_log_std = ref_backward(policy, acts, weights[:, None] * diff / var)
    np.sum(weights[:, None] * (diff**2 / var - 1.0), axis=0, out=grad_log_std)
    return grad


def ref_log_prob(policy, states, actions):
    mu, _ = ref_forward(policy, np.atleast_2d(states))
    sigma = np.exp(policy.log_std)
    z = (np.atleast_2d(actions) - mu) / sigma
    return -0.5 * np.sum(z**2 + 2.0 * policy.log_std + LOG2PI, axis=1)


def ref_predict(value_fn, states):
    return ref_forward(value_fn, np.atleast_2d(states))[0][:, 0]


def ref_mse_and_grad(value_fn, states, targets):
    pred, acts = ref_forward(value_fn, states)
    err = pred[:, 0] - targets
    grad, _ = ref_backward(value_fn, acts, (2.0 / err.size) * err[:, None])
    return float(np.mean(err**2)), grad


def ref_fit_value(value_fn, states, targets, epochs, adam, rng):
    loss = float("nan")
    n = states.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, VALUE_BATCH_SIZE):
            idx = order[start : start + VALUE_BATCH_SIZE]
            loss, grad = value_fn.mse_and_grad(states[idx], targets[idx])
            value_fn.params -= adam.step(grad)
    return loss


@pytest.mark.parametrize("hidden", [(32, 32), (16,), (8, 8, 8)])
@pytest.mark.parametrize("rows", [1, 128, 2048, 20000])
def test_passes_match_reference_bitwise(rows, hidden):
    rng = np.random.default_rng(rows + len(hidden))
    policy = GaussianPolicy(9, 3, hidden=hidden, seed=4)
    policy.log_std[...] = rng.uniform(-1.0, 0.5, size=3)
    value_fn = ValueFunction(9, hidden=hidden, seed=5)
    for net in (policy, value_fn):
        net.biases[0][...] = rng.normal(size=net.biases[0].shape)
    states = rng.normal(size=(rows, 9))
    actions = rng.normal(size=(rows, 3))
    weights = rng.normal(size=rows)
    targets = rng.normal(size=rows)
    inputs = [a.copy() for a in (states, actions, weights, targets)]

    for net in (policy, value_fn):
        out, acts = net.forward(states)
        ref_out, ref_acts = ref_forward(net, states)
        assert np.array_equal(out, ref_out)
        assert all(np.array_equal(a, b) for a, b in zip(acts, ref_acts))
        grad_out = rng.normal(size=out.shape)
        grad, extra = net.backward(acts, grad_out)
        ref_grad, _ = ref_backward(net, ref_acts, grad_out)
        assert np.array_equal(grad[: grad.size - extra.size], ref_grad[: grad.size - extra.size])
    assert np.array_equal(policy.weighted_logp_grad(states, actions, weights),
                          ref_weighted_logp_grad(policy, states, actions, weights))
    assert np.array_equal(policy.log_prob(states, actions), ref_log_prob(policy, states, actions))
    assert np.array_equal(value_fn.predict(states), ref_predict(value_fn, states))
    loss, grad = value_fn.mse_and_grad(states, targets)
    ref_loss, ref_grad = ref_mse_and_grad(value_fn, states, targets)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, (states, actions, weights, targets)))


def fit_both(value_fn, ref, states, targets, monkeypatch):
    """fit_value on value_fn, then ref_fit_value on ref through the reference
    passes; returns both losses and both Adams."""
    adam, ref_adam = Adam(value_fn.params.size, 1e-2), Adam(ref.params.size, 1e-2)
    loss = fit_value(value_fn, states, targets, 3, adam, np.random.default_rng(5))
    monkeypatch.setattr(ValueFunction, "mse_and_grad", ref_mse_and_grad)
    ref_loss = ref_fit_value(ref, states, targets, 3, ref_adam, np.random.default_rng(5))
    return loss, ref_loss, adam, ref_adam


@pytest.mark.parametrize("hidden", [(32, 32), (16,), (8, 8, 8)])
@pytest.mark.parametrize("rows", [1, 100, 4096, 5000])
def test_value_fit_matches_reference_bitwise(rows, hidden, monkeypatch):
    # 5000 rows end each epoch with a 904-row minibatch.
    rng = np.random.default_rng(rows + 10 * len(hidden))
    value_fn, ref = ValueFunction(9, hidden=hidden, seed=2), ValueFunction(9, hidden=hidden, seed=2)
    value_fn.biases[0][...] = ref.biases[0][...] = rng.normal(size=hidden[0])
    states, targets = rng.normal(size=(rows, 9)), rng.normal(size=rows)
    inputs = states.copy(), targets.copy()
    adam, ref_adam = Adam(value_fn.params.size, 1e-2), Adam(ref.params.size, 1e-2)
    loss = fit_value(value_fn, states, targets, 3, adam, np.random.default_rng(5))
    monkeypatch.setattr(ValueFunction, "mse_and_grad", ref_mse_and_grad)
    ref_loss = ref_fit_value(ref, states, targets, 3, ref_adam, np.random.default_rng(5))
    assert loss == ref_loss
    assert value_fn.params.tobytes() == ref.params.tobytes()
    assert adam.m.tobytes() == ref_adam.m.tobytes()
    assert adam.v.tobytes() == ref_adam.v.tobytes()
    assert states.tobytes() == inputs[0].tobytes() and targets.tobytes() == inputs[1].tobytes()


@pytest.mark.parametrize("targets", [80, 30])
def test_value_fit_rejects_targets_of_another_length(targets):
    rng = np.random.default_rng(33)
    value_fn = ValueFunction(9, seed=1)
    before = value_fn.params.copy()
    with pytest.raises(DataError, match="batch dimensions disagree"):
        fit_value(value_fn, rng.normal(size=(50, 9)), rng.normal(size=targets), 2,
                  Adam(value_fn.params.size, 1e-2), rng)
    assert value_fn.params.tobytes() == before.tobytes()


@pytest.mark.parametrize("hidden", [(32, 32), (16,), (8, 8, 8)])
def test_backward_releases_only_the_hidden_activations(hidden):
    rng = np.random.default_rng(34)
    states = rng.normal(size=(64, 9))
    for net in (GaussianPolicy(9, 3, hidden=hidden, seed=1), ValueFunction(9, hidden=hidden, seed=1)):
        out, acts = net.forward(states)
        kept_states, kept_out = states.copy(), out.copy()
        grad_out = rng.normal(size=out.shape)
        given = grad_out.copy()
        net.backward(acts, grad_out)
        assert acts[0] is states and acts[-1] is out
        assert acts[1:-1] == [None] * len(hidden)
        assert states.tobytes() == kept_states.tobytes()
        assert out.tobytes() == kept_out.tobytes()
        assert grad_out.tobytes() == given.tobytes()


# --- passes over a whole batch run in row blocks ----------------------------

def block_slices(n):
    return [slice(start, start + PASS_BLOCK) for start in range(0, n, PASS_BLOCK)]


@pytest.fixture
def multi_block_setup():
    """A batch of 2.5 blocks and a demo set of 1.5 blocks, with positive advantages."""
    rng = np.random.default_rng(21)
    policy = GaussianPolicy(9, 3, seed=6)
    policy.log_std[...] = rng.uniform(-1.0, 0.5, size=3)
    n = 5 * PASS_BLOCK // 2
    batch = Batch(rng.normal(size=(n, 9)), rng.normal(size=(n, 3)), rng.normal(size=n),
                  np.zeros(1), np.zeros(1, bool))
    advantages = rng.uniform(0.1, 2.0, size=n)
    demo_s = rng.normal(size=(3 * PASS_BLOCK // 2, 9))
    demo_a = rng.normal(size=(3 * PASS_BLOCK // 2, 3))
    return policy, batch, advantages, demo_s, demo_a


def block_ordered_sum(policy, states, actions, weights):
    blocks = block_slices(states.shape[0])
    total = policy.weighted_logp_grad(states[blocks[0]], actions[blocks[0]], weights[blocks[0]])
    for rows in blocks[1:]:
        total = total + policy.weighted_logp_grad(states[rows], actions[rows], weights[rows])
    return total


def test_gradient_is_the_block_ordered_sum(multi_block_setup):
    policy, batch, adv, demo_s, demo_a = multi_block_setup
    g, weight = dapg_gradient(policy, batch, adv, demo_s, demo_a, 0.1, 0.99, 2)
    assert weight == 0.1 * 0.99**2 * adv.max()
    demo_w = np.full(demo_s.shape[0], weight)
    blocked = (block_ordered_sum(policy, batch.states, batch.actions, adv)
               + block_ordered_sum(policy, demo_s, demo_a, demo_w))
    assert g.tobytes() == blocked.tobytes()
    one_pass = (policy.weighted_logp_grad(batch.states, batch.actions, adv)
                + policy.weighted_logp_grad(demo_s, demo_a, demo_w))
    assert np.abs(g - one_pass).max() <= 1e-12 * np.abs(one_pass).max()


def test_gradient_rejects_mismatched_rows_within_a_block(multi_block_setup):
    policy, batch, adv, _, _ = multi_block_setup
    short = replace(batch, states=batch.states[:PASS_BLOCK], actions=batch.actions[:PASS_BLOCK])
    with pytest.raises(DataError, match="batch dimensions disagree"):
        dapg_gradient(policy, short, adv, None, None, 0.0, 0.99, 0)


def test_advantages_are_the_blockwise_predictions():
    rng = np.random.default_rng(22)
    batch, _ = make_batch(rng, n=7, horizon=PASS_BLOCK // 2)
    value_fn = ValueFunction(9, seed=3)
    value_fn.biases[0][...] = rng.normal(size=value_fn.biases[0].shape)
    adv = compute_advantages(batch, value_fn)
    blockwise = np.concatenate([value_fn.predict(batch.states[rows]) for rows in block_slices(adv.size)])
    assert len(block_slices(adv.size)) == 4
    assert adv.tobytes() == (batch.returns - blockwise).tobytes()
    one_pass = batch.returns - value_fn.predict(batch.states)
    assert np.abs(adv - one_pass).max() <= 1e-12 * np.abs(one_pass).max()


def test_no_training_pass_spans_more_than_a_block(expert_demos, monkeypatch):
    rows = []
    real_forward = _Mlp.forward

    def forward(self, x):
        rows.append(x.shape[0])
        return real_forward(self, x)

    monkeypatch.setattr(_Mlp, "forward", forward)
    # 2500-row batches: more than a value minibatch, so only blocking keeps the passes small.
    config = DapgConfig(iterations=2, batch_trajectories=25, bc_epochs=1, value_epochs=1)
    assert config.batch_trajectories * HORIZON > max(PASS_BLOCK, VALUE_BATCH_SIZE)
    assert sum(d.actions.shape[0] for d in expert_demos) > PASS_BLOCK
    train(expert_demos, config)
    assert max(rows) == max(PASS_BLOCK, VALUE_BATCH_SIZE)


def traced_peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_batch_passes_allocate_a_few_blocks_not_the_batch():
    # In one pass over this batch the gradient peaks at about 21.5 MB and the
    # advantages at 10.4 MB; in blocks, each stays under 1 MB.
    rng = np.random.default_rng(23)
    batch, _ = make_batch(rng, n=200, horizon=HORIZON)
    policy, value_fn = GaussianPolicy(9, 3, seed=0), ValueFunction(9, seed=1)
    adv = np.abs(rng.normal(size=batch.returns.size))
    demo_s, demo_a = rng.normal(size=(2500, 9)), rng.normal(size=(2500, 3))
    assert traced_peak_mb(dapg_gradient, policy, batch, adv, demo_s, demo_a, 0.1, 0.99, 0) < 4.0
    assert traced_peak_mb(compute_advantages, batch, value_fn) < 4.0


def test_value_fit_gathers_minibatches_without_copying_the_batch():
    # A shuffled copy of this 20000-row batch is 1.6 MB: with it, two epochs
    # peak at about 4.0 MB; gathering each minibatch by index, at 2.0 MB.
    rng = np.random.default_rng(24)
    value_fn = ValueFunction(9, seed=1)
    states, targets = rng.normal(size=(20000, 9)), rng.normal(size=20000)
    adam = Adam(value_fn.params.size, 1e-2)
    assert traced_peak_mb(fit_value, value_fn, states, targets, 2, adam, rng) < 3.0


# --- score-function identity ------------------------------------------------

def test_score_function_mean_within_three_standard_errors():
    policy = GaussianPolicy(9, 3, seed=5)
    rng = np.random.default_rng(42)
    batch = rollout_batch(policy, 30, rng, discount=0.99)
    n = batch.states.shape[0]
    proj = np.random.default_rng(7).normal(size=policy.num_params)
    proj /= np.linalg.norm(proj)
    samples = np.array(
        [
            proj @ policy.weighted_logp_grad(batch.states[i : i + 1], batch.actions[i : i + 1], np.ones(1))
            for i in range(0, n, 4)
        ]
    )
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean()) <= 3 * se


# --- behavior cloning and training ------------------------------------------

@pytest.fixture(scope="module")
def expert_demos():
    return demos_from_expert(10, seed=0)


def test_bc_reduces_demo_nll(expert_demos):
    states, actions = demo_arrays(expert_demos)
    policy = GaussianPolicy(9, 3, seed=0)
    untrained = float(-np.mean(GaussianPolicy(9, 3, seed=0).log_prob(states, actions)))
    nll = bc_pretrain(policy, states, actions, epochs=10, learning_rate=1e-2, seed=0)
    assert len(nll) == 2
    assert nll[0] == untrained
    assert nll[1] < nll[0]


def test_expert_demo_files_round_trip(expert_demos, tmp_path):
    path = tmp_path / "demo_000.jsonl"
    write_demo(expert_demos[0], path)
    again = read_demo(path)
    states, actions = demo_arrays([again])
    assert states.shape == (100, 9)
    assert actions.shape == (100, 3)
    assert np.array_equal(states, expert_demos[0].states[:-1])


def test_demo_arrays_rejects_wrong_layout(expert_demos):
    bad = replace(
        expert_demos[0],
        state_layout=(("joints", 3), ("tip", 2), ("object", 2), ("target", 2), ("extra", 1)),
        states=np.zeros((101, 10)),
    )
    with pytest.raises(DataError):
        demo_arrays([bad])


def test_demos_without_transitions_rejected(expert_demos):
    single_state = replace(expert_demos[0], states=expert_demos[0].states[:1],
                           actions=expert_demos[0].actions[:0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for demos in ([single_state, single_state], []):
            with pytest.raises(DataError, match="no \\(state, action\\) pair"):
                demo_arrays(demos)
        with pytest.raises(DataError, match="no \\(state, action\\) pair"):
            train([single_state], DapgConfig(iterations=1, batch_trajectories=2))
    states, _ = demo_arrays([single_state, expert_demos[1]])
    assert states.shape == (100, 9)


def test_train_pure_rl_returns_curve():
    config = DapgConfig(iterations=3, batch_trajectories=10, seed=1, bc_epochs=0)
    policy, curve = train(None, config)
    assert len(curve.mean_return) == 3
    assert np.all(np.isfinite(curve.mean_return))
    assert curve.demo_weight == [0.0, 0.0, 0.0]


def test_fixed_seed_reproduces_curve_bitwise(expert_demos):
    config = DapgConfig(iterations=3, batch_trajectories=10, seed=7, bc_epochs=2)
    _, a = train(expert_demos, config)
    _, b = train(expert_demos, config)
    assert a.mean_return == b.mean_return
    assert a.success_rate == b.success_rate
    assert a.demo_weight == b.demo_weight


def test_train_matches_reference_passes_bitwise(expert_demos, monkeypatch):
    import dexretarget.dapg.trainer as trainer_mod

    config = DapgConfig(iterations=3, batch_trajectories=16, bc_epochs=3)
    fits = []
    real_fit = trainer_mod.fit_value
    monkeypatch.setattr(trainer_mod, "fit_value", lambda *args: fits.append(real_fit(*args)))
    policy, curve = train(expert_demos, config)
    assert len(fits) == config.iterations - 1

    monkeypatch.setattr(trainer_mod, "fit_value", ref_fit_value)
    monkeypatch.setattr(_Mlp, "forward", ref_forward)
    monkeypatch.setattr(_Mlp, "backward", ref_backward)
    monkeypatch.setattr(GaussianPolicy, "weighted_logp_grad", ref_weighted_logp_grad)
    monkeypatch.setattr(GaussianPolicy, "log_prob", ref_log_prob)
    monkeypatch.setattr(ValueFunction, "predict", ref_predict)
    monkeypatch.setattr(ValueFunction, "mse_and_grad", ref_mse_and_grad)
    ref_policy, ref_curve = train(expert_demos, config)
    assert curve.to_table() == ref_curve.to_table()
    assert policy.params.tobytes() == ref_policy.params.tobytes()


def test_lambda0_zero_dapg_without_bc_is_pure_rl(expert_demos):
    config = DapgConfig(iterations=3, batch_trajectories=10, seed=3, bc_epochs=0, lambda0=0.0)
    _, with_demos = train(expert_demos, config)
    _, without = train(None, config)
    assert with_demos.mean_return == without.mean_return
    assert with_demos.demo_weight == without.demo_weight


def test_train_writes_curve_and_checkpoints(expert_demos, tmp_path):
    config = DapgConfig(iterations=4, batch_trajectories=5, seed=0, bc_epochs=1, checkpoint_every=2)
    train(expert_demos, config, out_dir=tmp_path)
    assert (tmp_path / "curve.csv").exists()
    assert (tmp_path / "policy.npz").exists()
    assert (tmp_path / "checkpoint_0002.npz").exists()
    assert (tmp_path / "checkpoint_0004.npz").exists()
    header = (tmp_path / "curve.csv").read_text().splitlines()[0]
    assert header == "iteration,mean_return,success_rate,demo_weight"


_TRAIN_SMALL = """
import sys
from dexretarget.dapg import DapgConfig, demos_from_expert, train
policy, curve = train(demos_from_expert(10, seed=0), DapgConfig(iterations=4))
sys.stdout.write(curve.to_table() + policy.params.tobytes().hex())
"""


def _numpy_blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return ""


@pytest.mark.skipif("openblas" not in _numpy_blas_name(),
                    reason="numpy's BLAS is not OpenBLAS, which OPENBLAS_NUM_THREADS sets")
def test_curves_do_not_depend_on_blas_threads():
    """A 4-iteration train of 200-trajectory batches, in child processes with
    one and with two OpenBLAS threads, gives the same curve table and the same
    parameter bytes."""
    src = os.path.dirname(os.path.dirname(dexretarget.__file__))
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _TRAIN_SMALL], env=env, check=True,
                              capture_output=True, text=True, timeout=300)
        table, _, params = done.stdout.rpartition("\n")
        outputs[threads] = table, params
    assert outputs["1"][0].count("\n") == 4  # the header and 4 rows
    assert outputs["1"][0] == outputs["2"][0]
    assert outputs["1"][1] == outputs["2"][1]


def test_training_holds_no_dead_batch_arrays(expert_demos):
    # A 20000-row batch holds 1.44 MB of states, 0.48 MB of actions and
    # 0.16 MB each of returns and advantages. This train peaks about 3.8 MB
    # above its start; holding the actions through the value fit, or the
    # states and returns through the next rollout, adds about 0.6 MB.
    assert traced_peak_mb(train, expert_demos, DapgConfig(iterations=3, bc_epochs=1)) < 4.3


def test_dapg_outranks_rl_at_small_scale(expert_demos):
    # Scaled-down ordering check; the full-budget comparison runs in the
    # acceptance suite.
    config = DapgConfig(iterations=20, batch_trajectories=40, seed=0)
    _, rl = train(None, config)
    _, dapg = train(expert_demos, config)
    assert dapg.auc > rl.auc


def test_config_validation():
    with pytest.raises(DataError):
        DapgConfig(lambda1=1.0)
    with pytest.raises(DataError):
        DapgConfig(learning_rate=0.0)
    with pytest.raises(DataError):
        DapgConfig(lambda0=1.5)


@pytest.mark.parametrize("field, value, message", [
    ("bc_epochs", -3, "bc_epochs must be nonnegative, got -3"),
    ("value_epochs", -1, "value_epochs must be nonnegative, got -1"),
    ("checkpoint_every", -2, "checkpoint_every must be nonnegative, got -2"),
    ("seed", -1, "seed must be nonnegative, got -1"),
    ("learning_rate", 0.0, "learning_rate must be positive, got 0.0"),
    ("value_learning_rate", -1.0, "value_learning_rate must be positive, got -1.0"),
    ("value_learning_rate", 0.0, "value_learning_rate must be positive, got 0.0"),
    ("bc_learning_rate", 0.0, "bc_learning_rate must be positive, got 0.0"),
])
def test_config_rejects_out_of_range_counts_and_rates(field, value, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        DapgConfig(**{field: value})


def test_config_accepts_zero_epochs_and_no_checkpoints():
    config = DapgConfig(bc_epochs=0, value_epochs=0, checkpoint_every=0)
    assert (config.bc_epochs, config.value_epochs, config.checkpoint_every) == (0, 0, 0)


def test_policy_rejects_non_finite_parameters():
    policy = GaussianPolicy(4, 2, seed=0)
    before = policy.get_flat()
    bad = policy.get_flat()
    bad[3] = np.nan
    with pytest.raises(DataError, match="not finite"):
        policy.set_flat(bad)
    with pytest.raises(DataError, match="shape"):
        policy.set_flat(before[:-1])
    assert policy.get_flat().tobytes() == before.tobytes()
    assert np.all(np.isfinite(policy.mean(np.zeros(4))))


def test_nan_rollout_aborts_with_iteration_index(monkeypatch):
    import dexretarget.dapg.trainer as trainer_mod
    from dexretarget.errors import NumericalError

    real = trainer_mod.rollout_batch
    calls = {"n": 0}

    def poisoned(policy, n, rng, discount):
        batch = real(policy, n, rng, discount)
        if calls["n"] == 2:
            batch.returns = batch.returns * np.nan
        calls["n"] += 1
        return batch

    monkeypatch.setattr(trainer_mod, "rollout_batch", poisoned)
    config = DapgConfig(iterations=5, batch_trajectories=5, seed=0, bc_epochs=0)
    with pytest.raises(NumericalError, match="iteration 2"):
        train(None, config)


def test_diverged_policy_update_exits_3_with_iteration_index(monkeypatch, tmp_path, capsys):
    import json

    from dexretarget.cli import main
    from dexretarget.dapg.env import ACT_DIM, OBS_DIM
    from dexretarget.dapg.nets import Adam

    # The third policy update diverges; the value function's steps stay real.
    policy_size = GaussianPolicy(OBS_DIM, ACT_DIM).num_params
    real_step = Adam.step

    def diverging(self, grad):
        step = real_step(self, grad)
        return step * np.inf if self.m.size == policy_size and self.t == 3 else step

    monkeypatch.setattr(Adam, "step", diverging)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"iterations": 5, "batch_trajectories": 5, "bc_epochs": 0}))
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: non-finite policy parameters at iteration 2" in err
    assert "Traceback" not in err
