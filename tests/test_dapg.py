from __future__ import annotations

import numpy as np
import pytest

from dexretarget.dapg import (
    DapgConfig,
    GaussianPolicy,
    ToyRelocateEnv,
    ValueFunction,
    bc_pretrain,
    compute_advantages,
    dapg_gradient,
    demos_from_expert,
    train,
)
from dexretarget.dapg.env import HORIZON, BatchedRelocate, arm_tree, run_expert_episode, tip_position
from dexretarget.dapg.trainer import Batch, demo_arrays, discounted_to_go, rollout_batch
from dexretarget.demopipe import read_demo, write_demo
from dexretarget.errors import DataError
from dexretarget.kinematics import forward_kinematics


# --- environment ------------------------------------------------------------

def test_zero_actions_never_move_the_object():
    env = ToyRelocateEnv()
    obs = env.reset(seed=4)
    obj0 = obs[5:7].copy()
    done = False
    while not done:
        obs, reward, done = env.step(np.zeros(3))
    assert np.array_equal(obs[5:7], obj0)
    assert not env.success


def test_scripted_expert_succeeds():
    env = ToyRelocateEnv()
    successes = sum(run_expert_episode(env, seed)[3] for seed in range(100))
    assert successes >= 95


def test_reward_per_step_bounded_by_one():
    env = ToyRelocateEnv()
    rng = np.random.default_rng(0)
    for seed in range(5):
        obs = env.reset(seed)
        done = False
        while not done:
            _, reward, done = env.step(rng.uniform(-2, 2, size=3))
            assert reward <= 1.0


def test_step_after_done_raises():
    env = ToyRelocateEnv()
    env.reset(seed=0)
    for _ in range(env.horizon):
        _, _, done = env.step(np.zeros(3))
    assert done
    with pytest.raises(RuntimeError):
        env.step(np.zeros(3))


def test_step_before_reset_and_past_horizon_raise():
    with pytest.raises(RuntimeError):
        ToyRelocateEnv().step(np.zeros(3))
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
    singles = [ToyRelocateEnv() for _ in seeds]
    obs_single = np.stack([env.reset(seed) for env, seed in zip(singles, seeds)])
    assert np.array_equal(batch.observe(), obs_single)
    rng = np.random.default_rng(3)
    for _ in range(100):
        actions = rng.uniform(-2.5, 2.5, size=(3, 3))
        rewards = batch.step(actions)
        for i, env in enumerate(singles):
            obs, reward, _ = env.step(actions[i])
            assert reward == rewards[i]
            assert np.array_equal(obs, batch.observe()[i])
    for i, env in enumerate(singles):
        assert env.success == batch.successes[i]


def test_reset_reproducible_from_seed():
    env = ToyRelocateEnv()
    a = env.reset(seed=123)
    b = env.reset(seed=123)
    assert np.array_equal(a, b)


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
    nll = bc_pretrain(policy, states, actions, epochs=10, learning_rate=1e-2, seed=0)
    assert nll[-1] < nll[0]


def test_expert_demo_files_round_trip(expert_demos, tmp_path):
    path = tmp_path / "demo_000.jsonl"
    write_demo(expert_demos[0], path)
    again = read_demo(path)
    states, actions = demo_arrays([again])
    assert states.shape == (100, 9)
    assert actions.shape == (100, 3)
    assert np.array_equal(states, expert_demos[0].states[:-1])


def test_demo_arrays_rejects_wrong_layout(expert_demos):
    from dataclasses import replace

    bad = replace(
        expert_demos[0],
        state_layout=(("joints", 3), ("tip", 2), ("object", 2), ("target", 2), ("extra", 1)),
        states=np.zeros((101, 10)),
    )
    with pytest.raises(DataError):
        demo_arrays([bad])


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


def test_policy_rejects_non_finite_parameters():
    policy = GaussianPolicy(4, 2, seed=0)
    bad = policy.get_flat()
    bad[3] = np.nan
    with pytest.raises(DataError):
        policy.set_flat(bad)


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
