"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines as they complete. Criterion 7 trains six policies and
dominates the runtime (a few minutes on a desktop CPU).
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from dexretarget.assets import asset_path, robot_path, sample_stream_path
from dexretarget.cli import main as cli_main
from dexretarget.control import ConfidenceModel, PDGains, confidence, pd_torque
from dexretarget.dapg import DapgConfig, GaussianPolicy, dapg_gradient, demos_from_expert, train
from dexretarget.dapg.trainer import Batch
from dexretarget.demopipe import PipelineConfig, read_demo, translate, write_demo
from dexretarget.dynamics import DynamicsInput, inverse_dynamics, mass_matrix
from dexretarget.handgen import HandShapeParams, build_custom_hand
from dexretarget.kinematics import (
    dump_robot,
    forward_kinematics,
    keypoint_jacobian,
    load_robot,
)
from dexretarget.poseio import HandPoseStream, read_stream, write_stream
from dexretarget.retarget import (
    KeypointMap,
    RetargetProblem,
    SolverSettings,
    retarget_frame,
    retarget_gradient,
    retarget_objective,
    retarget_trajectory,
)

from helpers import lagrangian_torque_oracle, naive_fk, random_chain_doc
from test_dynamics import pendulum_doc


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {criterion}: {name}{suffix}")
    assert ok, f"criterion {criterion} failed: {name} {suffix}"


def test_criterion_1_morphology_fidelity():
    started = time.perf_counter()
    dof = {name: load_robot(robot_path(name)).num_actuated for name in ("schunk", "adroit", "allegro")}
    custom = build_custom_hand(HandShapeParams.zeros()).num_actuated
    elapsed = time.perf_counter() - started
    ok = dof == {"schunk": 20, "adroit": 22, "allegro": 16} and custom == 45 and elapsed < 1.0
    report(1, "morphology fidelity", ok, f"dof={dof}, custom={custom}, {elapsed:.2f}s")


def test_criterion_2_kinematics_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_jac = 0.0
    worst_fk = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        doc = random_chain_doc(rng, n)
        tree = load_robot(doc)
        q = rng.uniform(-2.0, 2.0, size=n)

        jac = keypoint_jacobian(tree, q, "tip")
        fd = np.zeros((3, n))
        h = 1e-6
        for j in range(n):
            qp, qm = q.copy(), q.copy()
            qp[j] += h
            qm[j] -= h
            fd[:, j] = (forward_kinematics(tree, qp)["tip"] - forward_kinematics(tree, qm)["tip"]) / (2 * h)
        worst_jac = max(worst_jac, np.abs(jac - fd).max() / max(np.abs(fd).max(), 1.0))
        worst_fk = max(
            worst_fk,
            float(np.linalg.norm(forward_kinematics(tree, q)["tip"] - naive_fk(doc, q, "tip"))),
        )
    elapsed = time.perf_counter() - started
    ok = worst_jac <= 1e-5 and worst_fk <= 1e-10 and elapsed < 10.0
    report(2, "kinematics suite", ok,
           f"jacobian rel {worst_jac:.2e}, fk {worst_fk:.2e} m, {elapsed:.1f}s")


def test_criterion_3_dynamics_suite():
    started = time.perf_counter()
    pendulum = load_robot(pendulum_doc())
    tau = inverse_dynamics(pendulum, DynamicsInput(np.array([np.pi / 2]), np.zeros(1), np.zeros(1)))
    pendulum_err = abs(tau[0] - 4.905)

    rng = np.random.default_rng(303)
    worst_rnea = 0.0
    worst_sym = 0.0
    for _ in range(20):
        doc = random_chain_doc(rng, 3)
        tree = load_robot(doc)
        q = rng.uniform(-1.5, 1.5, size=3)
        qd = rng.uniform(-1.0, 1.0, size=3)
        qdd = rng.uniform(-2.0, 2.0, size=3)
        gravity = np.array([0.0, 0.0, -9.81])
        got = inverse_dynamics(tree, DynamicsInput(q, qd, qdd, gravity))
        ref = lagrangian_torque_oracle(doc, q, qd, qdd, gravity)
        worst_rnea = max(worst_rnea, np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-3))
        m = mass_matrix(tree, q)
        worst_sym = max(worst_sym, np.abs(m - m.T).max())
    elapsed = time.perf_counter() - started
    ok = pendulum_err <= 1e-9 and worst_rnea <= 1e-4 and worst_sym <= 1e-9 and elapsed < 30.0
    report(3, "dynamics suite", ok,
           f"pendulum {pendulum_err:.1e}, rnea rel {worst_rnea:.1e}, sym {worst_sym:.1e}, {elapsed:.1f}s")


def test_criterion_4_retargeting_suite():
    started = time.perf_counter()
    stream = read_stream(sample_stream_path())
    assert len(stream.frames) == 200
    hand = build_custom_hand(HandShapeParams.zeros())

    # Self-retargeting fidelity in meters wants alpha 0 (no smoothness bias)
    # and a deep gradient tolerance.
    self_problem = RetargetProblem(
        source=hand,
        target=hand,
        keypoint_map=KeypointMap.identity(hand.keypoint_names),
        alpha=0.0,
        settings=SolverSettings(grad_tol=1e-10),
    )
    source_traj = stream.pose_matrix()
    results = retarget_trajectory(self_problem, source_traj, q0=np.zeros(45))
    max_residual = max(r.residual for r in results)

    descent_ok = True
    bounds_ok = True
    lower, upper = hand.joint_limits()
    q_prev = np.zeros(45)
    for t, result in enumerate(results):
        warm = retarget_objective(self_problem, q_prev, source_traj[t], q_prev)
        descent_ok &= result.objective <= warm
        bounds_ok &= bool(np.all(result.q >= lower - 1e-12) and np.all(result.q <= upper + 1e-12))
        q_prev = result.q

    # Analytic gradient vs central differences on random cross-morphology
    # problems.
    allegro = load_robot(robot_path("allegro"))
    cross = RetargetProblem(
        source=hand,
        target=allegro,
        keypoint_map=KeypointMap(
            tuple((f"{f}_tip", f"{f}_tip") for f in ("thumb", "index", "middle", "ring"))
        ),
        alpha=0.01,
    )
    rng = np.random.default_rng(404)
    lo, hi = allegro.joint_limits()
    worst_grad = 0.0
    for _ in range(5):
        q_source = rng.uniform(-0.5, 0.5, size=45)
        q = rng.uniform(lo + 0.05, hi - 0.05)
        q_prev = rng.uniform(lo + 0.05, hi - 0.05)
        grad = retarget_gradient(cross, q, q_source, q_prev)
        fd = np.zeros_like(grad)
        h = 1e-6
        for j in range(len(q)):
            qp, qm = q.copy(), q.copy()
            qp[j] += h
            qm[j] -= h
            fd[j] = (
                retarget_objective(cross, qp, q_source, q_prev)
                - retarget_objective(cross, qm, q_source, q_prev)
            ) / (2 * h)
        worst_grad = max(worst_grad, np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-9))

    # Mean per-frame wall time on the 16-dof Allegro with default settings.
    cross_default = RetargetProblem(
        source=hand,
        target=allegro,
        keypoint_map=cross.keypoint_map,
        alpha=4e-3,
    )
    q_prev = np.clip(np.zeros(16), lo, hi)
    t0 = time.perf_counter()
    for t in range(200):
        q_prev = retarget_frame(cross_default, source_traj[t], q_prev).q
    per_frame_ms = (time.perf_counter() - t0) / 200 * 1000

    elapsed = time.perf_counter() - started
    ok = (
        max_residual < 1e-6
        and descent_ok
        and bounds_ok
        and worst_grad <= 1e-5
        and per_frame_ms <= 100.0
        and elapsed < 120.0
    )
    report(4, "retargeting suite", ok,
           f"residual {max_residual:.2e} m, descent {descent_ok}, bounds {bounds_ok}, "
           f"grad rel {worst_grad:.1e}, {per_frame_ms:.1f} ms/frame, {elapsed:.0f}s")


def test_criterion_5_end_to_end_translation(tmp_path):
    started = time.perf_counter()
    stream_file = sample_stream_path()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main(["translate-all", "--stream", str(stream_file),
                         "--configs", str(asset_path("configs")), "--out", str(out)])
        assert code == 0

    widths = {}
    identical = True
    for name in ("schunk", "adroit", "allegro"):
        demo = read_demo(out_a / f"{name}.demo")
        widths[name] = demo.actions.shape[1]
        identical &= (out_a / f"{name}.demo").read_bytes() == (out_b / f"{name}.demo").read_bytes()
    elapsed = time.perf_counter() - started
    ok = widths == {"schunk": 26, "adroit": 28, "allegro": 22} and identical and elapsed < 180.0
    report(5, "end-to-end translation", ok,
           f"widths {widths}, byte-identical {identical}, {elapsed:.0f}s")


def test_criterion_6_confidence_pd():
    model = ConfidenceModel(s0=np.linspace(-1, 1, 10), sigma_diag=np.full(10, 0.09))
    peak = confidence(model, model.s0)
    s = model.s0.copy()
    s[7] += 2 * np.sqrt(model.sigma_diag[7])  # Mahalanobis distance 2
    at_two = confidence(model, s)

    gains = PDGains(kp=np.array([2.0]), kd=np.array([0.1]))
    u = pd_torque(0.5, gains, np.array([0.3]), np.array([-1.0]))
    expected = 0.5 * 2.0 * 0.3 + 0.1 * (-1.0)

    ok = peak == 1.0 and abs(at_two - np.exp(-2.0)) <= 1e-12 and u[0] == expected
    report(6, "confidence PD", ok,
           f"peak {peak}, |p(d=2)-e^-2| {abs(at_two - np.exp(-2.0)):.1e}, u {u[0]!r}")


@pytest.mark.slow
def test_criterion_7_dapg_suite():
    started = time.perf_counter()

    # Gradient identities on a fixed batch.
    rng = np.random.default_rng(505)
    policy = GaussianPolicy(2, 1, hidden=(), seed=3)
    states = rng.normal(size=(4, 2))
    actions = rng.normal(size=(4, 1))
    advantages = rng.normal(size=4)
    batch = Batch(states, actions, advantages * 0.0, np.zeros(1), np.zeros(1, bool))
    demo_s = rng.normal(size=(5, 2))
    demo_a = rng.normal(size=(5, 1))

    g0, w0 = dapg_gradient(policy, batch, advantages, demo_s, demo_a, 0.0, 0.99, 4)
    vanilla_ok = np.array_equal(g0, policy.weighted_logp_grad(states, actions, advantages)) and w0 == 0.0

    # Exact geometric decay checked with a dyadic lambda1 (binary floats
    # cannot express an exact ratio for 0.99); the default decays within
    # 1e-15 relative.
    weights_dyadic = [
        dapg_gradient(policy, batch, advantages, demo_s, demo_a, 0.5, 0.5, k,
                      clamp_demo_weight=False)[1]
        for k in range(8)
    ]
    ratio_exact = all(b / a == 0.5 for a, b in zip(weights_dyadic, weights_dyadic[1:]))
    weights_default = [
        dapg_gradient(policy, batch, advantages, demo_s, demo_a, 0.1, 0.99, k,
                      clamp_demo_weight=False)[1]
        for k in range(8)
    ]
    ratio_default = max(abs(b / a - 0.99) for a, b in zip(weights_default, weights_default[1:]))

    g, w = dapg_gradient(policy, batch, advantages, demo_s, demo_a, 0.3, 0.9, 5,
                         clamp_demo_weight=False)

    def surrogate(theta):
        saved = policy.get_flat()
        policy.set_flat(theta)
        value = float(np.sum(policy.log_prob(states, actions) * advantages))
        value += w * float(np.sum(policy.log_prob(demo_s, demo_a)))
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
    fd_rel = np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12)

    # Paired training runs: 3 seeds, 150 iterations, 200 trajectories per
    # iteration, 50 scripted-expert demonstrations.
    demos = demos_from_expert(50, seed=0)
    margins = []
    auc_ok = True
    for seed in (0, 1, 2):
        config = DapgConfig(iterations=150, batch_trajectories=200, seed=seed)
        _, rl = train(None, config)
        _, dapg = train(demos, config)
        auc_ok &= dapg.auc > rl.auc
        margins.append(dapg.success_rate[-1] - rl.success_rate[-1])
        print(f"  seed {seed}: DAPG success {dapg.success_rate[-1]:.2f} AUC {dapg.auc:.0f} | "
              f"RL success {rl.success_rate[-1]:.2f} AUC {rl.auc:.0f}")
    margin_ok = all(m >= 0.15 for m in margins)

    elapsed = time.perf_counter() - started
    ok = (
        vanilla_ok
        and ratio_exact
        and ratio_default <= 1e-15
        and fd_rel <= 1e-5
        and auc_ok
        and margin_ok
        and elapsed < 1800.0
    )
    report(7, "DAPG suite", ok,
           f"vanilla {vanilla_ok}, decay exact {ratio_exact} (default dev {ratio_default:.1e}), "
           f"fd rel {fd_rel:.1e}, auc {auc_ok}, margins {[round(m, 2) for m in margins]}, "
           f"{elapsed:.0f}s")


def test_criterion_8_format_round_trips(tmp_path):
    # Stream: canonical byte round trip.
    stream_path = tmp_path / "stream.jsonl"
    stream = read_stream(sample_stream_path())
    write_stream(stream, stream_path)
    first = stream_path.read_bytes()
    write_stream(read_stream(stream_path), stream_path)
    stream_ok = stream_path.read_bytes() == first

    # Robot description: canonical byte round trip of every bundled model.
    robot_ok = True
    for name in ("schunk", "adroit", "allegro", "pendulum"):
        text = robot_path(name).read_text()
        robot_ok &= dump_robot(load_robot(robot_path(name))) == text

    # Demonstration: field-for-field round trip.
    short = HandPoseStream(stream.frames[:40], stream.rate_hz)
    demo = translate(short, PipelineConfig.from_file(asset_path("configs/allegro.json")))
    demo_path = tmp_path / "demo.jsonl"
    write_demo(demo, demo_path)
    again = read_demo(demo_path)
    demo_ok = (
        again.robot == demo.robot
        and again.dt == demo.dt
        and np.array_equal(again.states, demo.states)
        and np.array_equal(again.actions, demo.actions)
        and again.provenance == demo.provenance
    )

    # Malformed fixtures: documented error classes and CLI exit codes.
    bad_stream = tmp_path / "bad_stream.jsonl"
    bad_stream.write_text(first.decode().replace("dexstream/1", "dexstream/9", 1))
    config = {
        "robot": str(robot_path("allegro")),
        "keypoint_map": str(asset_path("maps/custom_to_allegro.map")),
    }
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config))
    code_bad_stream = cli_main(["translate", "--stream", str(bad_stream),
                                "--config", str(config_path), "--out", str(tmp_path / "o.demo")])
    code_missing = cli_main(["translate", "--stream", str(tmp_path / "missing.jsonl"),
                             "--config", str(config_path), "--out", str(tmp_path / "o.demo")])

    bad_demo = tmp_path / "bad.demo"
    write_demo(demo, bad_demo)
    lines = bad_demo.read_text().splitlines()
    bad_demo.write_text("\n".join(lines[:-1]) + "\n")  # states/actions now inconsistent
    try:
        read_demo(bad_demo)
        demo_error_ok = False
    except Exception as exc:
        from dexretarget.errors import DemoFormatError

        demo_error_ok = isinstance(exc, DemoFormatError)

    ok = (
        stream_ok
        and robot_ok
        and demo_ok
        and code_bad_stream == 2
        and code_missing == 1
        and demo_error_ok
    )
    report(8, "format round trips", ok,
           f"stream {stream_ok}, robot {robot_ok}, demo {demo_ok}, "
           f"exit codes ({code_bad_stream},{code_missing}), demo error {demo_error_ok}")
