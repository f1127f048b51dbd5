from __future__ import annotations

import hashlib

import numpy as np
import pytest

from dexretarget.assets import config_path, robot_path, sample_stream_path
from dexretarget.demopipe import (
    Demonstration,
    PipelineConfig,
    read_demo,
    translate,
    translate_all,
    write_demo,
)
from dexretarget.errors import DataError, DemoFormatError
from dexretarget.handgen import HandShapeParams, build_custom_hand
from dexretarget.kinematics import write_robot
from dexretarget.poseio import read_stream
from dexretarget.retarget import KeypointMap, write_keypoint_map


@pytest.fixture(scope="module")
def sample_stream():
    return read_stream(sample_stream_path())


@pytest.fixture(scope="module")
def short_stream(sample_stream):
    from dexretarget.poseio import HandPoseStream

    return HandPoseStream(sample_stream.frames[:40], sample_stream.rate_hz)


def make_config(robot_name: str, **overrides) -> PipelineConfig:
    defaults = dict(
        robot=robot_path(robot_name),
        keypoint_map=None,
        alpha=0.004,
        cutoff_hz=5.0,
        calibration_frames=30,
        action_mode="position",
        task="relocate",
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def test_translate_allegro_action_width(short_stream):
    demo = translate(short_stream, make_config("allegro"))
    assert demo.robot == "allegro"
    assert demo.actions.shape[1] == 6 + 16
    assert dict(demo.action_layout)["palm_velocity"] == 6
    assert dict(demo.action_layout)["finger_position_target"] == 16
    assert demo.states.shape[0] == demo.actions.shape[0] + 1


def test_translate_is_deterministic(short_stream, tmp_path):
    config = make_config("allegro")
    a, b = tmp_path / "a.demo", tmp_path / "b.demo"
    write_demo(translate(short_stream, config), a)
    write_demo(translate(short_stream, config), b)
    assert a.read_bytes() == b.read_bytes()


def test_translate_all_three_robots(short_stream):
    configs = {name: make_config(name) for name in ("schunk", "adroit", "allegro")}
    demos, errors = translate_all(short_stream, configs)
    assert errors == {}
    assert demos["schunk"].actions.shape[1] == 6 + 20
    assert demos["adroit"].actions.shape[1] == 6 + 22
    assert demos["allegro"].actions.shape[1] == 6 + 16


def test_translate_all_shares_palm_track(short_stream):
    configs = {name: make_config(name) for name in ("schunk", "allegro")}
    demos, _ = translate_all(short_stream, configs)
    palm_a = demos["schunk"].actions[:, :6]
    palm_b = demos["allegro"].actions[:, :6]
    assert np.array_equal(palm_a, palm_b)


def test_translate_all_isolates_failures(short_stream, tmp_path):
    bad = tmp_path / "broken.robot"
    bad.write_text("{ not json")
    configs = {
        "allegro": make_config("allegro"),
        "broken": make_config("allegro", robot=bad),
    }
    demos, errors = translate_all(short_stream, configs)
    assert "allegro" in demos
    assert "broken" in errors
    assert demos["allegro"].actions.shape[1] == 22


def test_self_translation_returns_filtered_source(tmp_path):
    # Identity retargeting onto the customized hand itself: position targets
    # must equal the filtered source pose. A rest-pose stream keeps every
    # anatomical joint observable (no null-space drift from fingertip-only
    # correspondences), so the check is exact in joint space.
    from dexretarget.control import low_pass_trajectory
    from dexretarget.poseio import HandPoseFrame, HandPoseStream

    shape = HandShapeParams.zeros()
    hand = build_custom_hand(shape)
    hand_path = tmp_path / "custom.robot"
    write_robot(hand, hand_path)
    map_path = tmp_path / "identity.map"
    write_keypoint_map(KeypointMap.identity(hand.keypoint_names), map_path)

    frames = tuple(
        HandPoseFrame(i * 0.04, np.zeros(45), shape, None) for i in range(40)
    )
    stream = HandPoseStream(frames, 25.0)
    config = PipelineConfig(
        robot=hand_path,
        keypoint_map=map_path,
        alpha=0.0,
        cutoff_hz=5.0,
        calibration_frames=30,
        grad_tol=1e-10,
    )
    demo = translate(stream, config)
    targets = demo.actions[:, 6:]
    expected = low_pass_trajectory(stream.pose_matrix(), config_gamma(config, stream.dt))[:-1]
    assert np.abs(targets - expected).max() < 1e-6


def config_gamma(config: PipelineConfig, dt: float) -> float:
    from dexretarget.control import gamma_from_cutoff

    return config.gamma if config.gamma is not None else gamma_from_cutoff(config.cutoff_hz, dt)


def test_bundled_config_files_load():
    for name in ("schunk", "adroit", "allegro"):
        config = PipelineConfig.from_file(config_path(name))
        assert config.action_mode == "position"
        assert config.alpha == 0.004


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"robot": "x.robot", "workers": 4}')
    with pytest.raises(DataError, match="workers"):
        PipelineConfig.from_file(path)
    path.write_text('{"robot": "x.robot", "kp": 2.0, "kd": 0.1}')  # removed PD gains
    with pytest.raises(DataError, match="unknown config keys: \\['kd', 'kp'\\]"):
        PipelineConfig.from_file(path)


def test_demo_round_trip(short_stream, tmp_path):
    demo = translate(short_stream, make_config("allegro"))
    path = tmp_path / "demo.jsonl"
    write_demo(demo, path)
    again = read_demo(path)
    assert again.robot == demo.robot
    assert again.task == demo.task
    assert again.dt == demo.dt
    assert again.state_layout == demo.state_layout
    assert again.action_layout == demo.action_layout
    assert np.array_equal(again.states, demo.states)
    assert np.array_equal(again.actions, demo.actions)
    assert again.provenance == demo.provenance


def test_demo_write_read_write_is_byte_stable(short_stream, tmp_path):
    demo = translate(short_stream, make_config("allegro"))
    path = tmp_path / "demo.jsonl"
    write_demo(demo, path)
    first = path.read_bytes()
    write_demo(read_demo(path), path)
    assert path.read_bytes() == first


def test_demo_rejects_inconsistent_counts(short_stream, tmp_path):
    demo = translate(short_stream, make_config("allegro"))
    path = tmp_path / "demo.jsonl"
    write_demo(demo, path)
    lines = path.read_text().splitlines()
    del lines[1]  # drop one state+action record: counts stay consistent...
    path.write_text("\n".join(lines) + "\n")
    read_demo(path)  # still one action per transition

    # ...but dropping only the final, action-less record breaks the convention
    write_demo(demo, path)
    lines = path.read_text().splitlines()
    del lines[-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DemoFormatError, match="len\\(states\\)"):
        read_demo(path)


def test_demo_version_header_enforced(short_stream, tmp_path):
    demo = translate(short_stream, make_config("allegro"))
    path = tmp_path / "demo.jsonl"
    write_demo(demo, path)
    path.write_text(path.read_text().replace("dexdemo/1", "dexdemo/2", 1))
    with pytest.raises(DemoFormatError, match="dexdemo"):
        read_demo(path)


def test_finger_targets_respect_limits(short_stream):
    from dexretarget.kinematics import load_robot

    demo = translate(short_stream, make_config("allegro"))
    tree = load_robot(robot_path("allegro"))
    lower, upper = tree.joint_limits()
    targets = demo.actions[:, 6:]
    assert np.all(targets >= lower - 1e-9)
    assert np.all(targets <= upper + 1e-9)


def test_provenance_hashes_present(short_stream):
    demo = translate(short_stream, make_config("allegro"))
    assert len(demo.provenance["stream_sha256"]) == 64
    assert len(demo.provenance["config_sha256"]) == 64
    assert demo.provenance["object_fields"] == "zero-filled"


def test_provenance_counts_gauss_newton_iterations(short_stream, monkeypatch):
    import dexretarget.demopipe as demopipe

    solved = []
    real = demopipe.retarget_trajectory

    def recording(*args):
        solved.append(real(*args))
        return solved[-1]

    monkeypatch.setattr(demopipe, "retarget_trajectory", recording)
    demo = translate(short_stream, make_config("allegro"))
    assert demo.provenance["gn_iterations"] == sum(r.iterations for r in solved[0]) > 0


def test_translate_all_serializes_the_stream_once(sample_stream, monkeypatch):
    from dexretarget import poseio
    from dexretarget.poseio import HandPoseStream

    stream = HandPoseStream(sample_stream.frames[:40], sample_stream.rate_hz)
    calls = []
    real = poseio.stream_to_text

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(poseio, "stream_to_text", counting)
    demos, errors = translate_all(stream, {n: make_config(n) for n in ("schunk", "adroit", "allegro")})
    assert errors == {} and len(calls) == 1
    digest = hashlib.sha256(real(stream).encode()).hexdigest()
    assert {d.provenance["stream_sha256"] for d in demos.values()} == {digest}


def test_nonfinite_source_frame_is_named_by_the_retarget_stage(sample_stream):
    from dataclasses import replace

    from dexretarget.poseio import HandPoseStream

    frames = [replace(f, pose=f.pose.copy()) for f in sample_stream.frames[:40]]
    # Frames reject non-finite poses when built; changing the array afterwards
    # reaches the retarget stage's own check of the whole trajectory.
    frames[17].pose[3] = np.nan
    with pytest.raises(DataError, match="^retarget stage: frame 17: .*non-finite"):
        translate(HandPoseStream(tuple(frames), sample_stream.rate_hz), make_config("allegro"))


def test_demonstration_validates_shapes():
    with pytest.raises(DemoFormatError):
        Demonstration(
            robot="x",
            task="t",
            dt=0.04,
            state_layout=(("joints", 2),),
            action_layout=(("u", 2),),
            states=np.zeros((5, 2)),
            actions=np.zeros((5, 2)),  # must be 4
        )


def make_wrist_stream(n=24, rate=25.0, velocity=(0.1, 0.0, 0.0), yaw_rate=0.5, metadata=None):
    """Synthetic stream whose observed keypoints follow a known wrist motion."""
    from dexretarget.kinematics import forward_kinematics
    from dexretarget.poseio import HandPoseFrame, HandPoseStream
    from dexretarget.transforms import RigidTransform, quat_from_rpy

    shape = HandShapeParams.zeros()
    hand = build_custom_hand(shape)
    pose = np.zeros(45)
    canonical = forward_kinematics(hand, pose)
    frames = []
    for i in range(n):
        t = i / rate
        wrist = RigidTransform(
            quat_from_rpy(0.0, 0.0, yaw_rate * t),
            np.asarray(velocity) * t + np.array([0.0, 0.0, 0.4]),
        )
        kp = {name: wrist.apply(p) for name, p in canonical.items()}
        frames.append(HandPoseFrame(t, pose, shape, kp))
    return HandPoseStream(tuple(frames), rate, metadata=metadata or {})


def test_palm_velocity_commands_recover_known_wrist_motion():
    stream = make_wrist_stream(velocity=(0.1, -0.05, 0.02), yaw_rate=0.5)
    demo = translate(stream, make_config("allegro"))
    palm_vel = demo.actions[:, :6]
    expected = np.concatenate([[0.1, -0.05, 0.02], [0.0, 0.0, 0.5]])
    assert np.abs(palm_vel - expected).max() < 1e-7


def test_wrist_failure_names_the_first_bad_frame():
    from dataclasses import replace

    from dexretarget.poseio import HandPoseStream

    stream = make_wrist_stream(n=12)
    frames = list(stream.frames)
    names = sorted(frames[0].observed_keypoints)
    line = {n: np.array([0.02 * i, 0.0, 0.0]) for i, n in enumerate(names)}
    frames[9] = replace(frames[9], observed_keypoints={n: frames[9].observed_keypoints[n] for n in names[:2]})
    frames[5] = replace(frames[5], observed_keypoints=line)
    frames[2] = replace(frames[2], observed_keypoints=None)  # no keypoints: identity wrist
    bad = HandPoseStream(tuple(frames), stream.rate_hz)
    with pytest.raises(DataError, match="wrist solve failed at frame 5: .*collinear"):
        translate(bad, make_config("allegro"))
    frames[5] = stream.frames[5]
    with pytest.raises(DataError, match="wrist solve failed at frame 9: need at least 3"):
        translate(HandPoseStream(tuple(frames), stream.rate_hz), make_config("allegro"))


def test_object_metadata_passes_through_to_states():
    object_pose = [0.9238795325112867, 0.0, 0.0, 0.3826834323650898, 0.2, -0.1, 0.05]
    target_position = [0.4, 0.1, 0.0]
    stream = make_wrist_stream(
        metadata={"object_pose": object_pose, "target_position": target_position}
    )
    demo = translate(stream, make_config("allegro"))
    assert demo.provenance["object_fields"] == "stream"
    widths = dict(demo.state_layout)
    start = widths["joints"] + widths["palm_pose"] + widths["palm_velocity"]
    assert demo.states[0, start : start + 7] == pytest.approx(object_pose)
    assert demo.states[-1, start + 7 : start + 10] == pytest.approx(target_position)


def test_torque_action_mode_emits_torques(short_stream):
    demo = translate(short_stream, make_config("allegro", action_mode="torque"))
    assert dict(demo.action_layout) == {"palm_velocity": 6, "finger_torque": 16}
    torques = demo.actions[:, 6:]
    assert np.all(np.isfinite(torques))
    # gravity loading on a moving hand produces nonzero torques
    assert np.abs(torques).max() > 1e-4

    position_demo = translate(short_stream, make_config("allegro", action_mode="position"))
    assert not np.array_equal(torques, position_demo.actions[:, 6:])


def test_both_action_mode_rejected():
    with pytest.raises(DataError, match="unknown action mode 'both'"):
        make_config("allegro", action_mode="both")


def test_both_action_mode_flag_is_usage_error(tmp_path, capsys):
    from dexretarget.cli import main

    code = main(["translate", "--stream", "s.jsonl", "--config", "c.json",
                 "--out", str(tmp_path / "o.demo"), "--action-mode", "both"])
    assert code == 1
    assert "invalid choice: 'both'" in capsys.readouterr().err


def test_tree_and_problem_share_safely_across_threads():
    # KinematicTree is immutable and retarget problems hold no mutable state:
    # concurrent solves must agree bitwise with the serial result.
    import concurrent.futures

    from dexretarget.kinematics import forward_kinematics
    from dexretarget.retarget import KeypointMap, RetargetProblem, retarget_frame

    hand = build_custom_hand(HandShapeParams.zeros())
    problem = RetargetProblem(hand, hand, KeypointMap.identity(hand.keypoint_names), alpha=0.0)
    rng = np.random.default_rng(0)
    sources = [rng.uniform(-0.3, 0.4, size=45) for _ in range(8)]

    serial = [retarget_frame(problem, q, np.zeros(45)).q for q in sources]
    serial_fk = [forward_kinematics(hand, q)["index_tip"] for q in sources]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda q: retarget_frame(problem, q, np.zeros(45)).q, sources))
        threaded_fk = list(pool.map(lambda q: forward_kinematics(hand, q)["index_tip"], sources))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)
    for a, b in zip(serial_fk, threaded_fk):
        assert np.array_equal(a, b)
