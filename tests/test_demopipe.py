from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import dexretarget
from dexretarget import demopipe, handgen, kinematics, poseio
from dexretarget.assets import config_path, robot_path, sample_stream_path
from dexretarget.cli import main
from dexretarget.control import gamma_from_cutoff, low_pass_trajectory
from dexretarget.dapg import demos_from_expert
from dexretarget.demopipe import (
    Demonstration,
    PipelineConfig,
    read_demo,
    translate,
    translate_all,
    translate_timed,
    write_demo,
)
from dexretarget.errors import DataError, DemoFormatError, StreamFormatError
from dexretarget.handgen import HandShapeParams, build_custom_hand
from dexretarget.kinematics import forward_kinematics, load_robot, write_robot
from dexretarget.poseio import HandPoseFrame, HandPoseStream, read_stream, write_stream
from dexretarget.retarget import KeypointMap, RetargetProblem, retarget_frame, write_keypoint_map
from dexretarget.transforms import RigidTransform, quat_from_rpy


@pytest.fixture(scope="module")
def sample_stream():
    return read_stream(sample_stream_path())


@pytest.fixture(scope="module")
def short_stream(sample_stream):
    return HandPoseStream(sample_stream.frames[:40], sample_stream.rate_hz)


def make_config(robot_name: str, **overrides) -> PipelineConfig:
    defaults = dict(
        robot=robot_path(robot_name),
        keypoint_map=None,
        alpha=0.004,
        cutoff_hz=5.0,
        action_mode="position",
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
    results, errors = translate_all(short_stream, configs)
    assert errors == {}
    assert results["schunk"][0].actions.shape[1] == 6 + 20
    assert results["adroit"][0].actions.shape[1] == 6 + 22
    assert results["allegro"][0].actions.shape[1] == 6 + 16


def test_translate_all_shares_palm_track(short_stream):
    configs = {name: make_config(name) for name in ("schunk", "allegro")}
    results, _ = translate_all(short_stream, configs)
    palm_a = results["schunk"][0].actions[:, :6]
    palm_b = results["allegro"][0].actions[:, :6]
    assert np.array_equal(palm_a, palm_b)


def test_translate_all_isolates_failures(short_stream, tmp_path):
    bad = tmp_path / "broken.robot"
    bad.write_text("{ not json")
    configs = {
        "allegro": make_config("allegro"),
        "broken": make_config("allegro", robot=bad),
    }
    results, errors = translate_all(short_stream, configs)
    assert "allegro" in results
    assert "broken" in errors
    assert results["allegro"][0].actions.shape[1] == 22


def test_self_translation_returns_filtered_source(tmp_path):
    # Identity retargeting onto the customized hand itself: position targets
    # must equal the filtered source pose. A rest-pose stream keeps every
    # anatomical joint observable (no null-space drift from fingertip-only
    # correspondences), so the check is exact in joint space.
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
        grad_tol=1e-10,
    )
    demo = translate(stream, config)
    targets = demo.actions[:, 6:]
    expected = low_pass_trajectory(stream.pose_matrix(), gamma_from_cutoff(config.cutoff_hz, stream.dt))[:-1]
    assert np.abs(targets - expected).max() < 1e-6


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
    # Removed settings: gamma is derived from cutoff_hz, the others are constants.
    for key, value in (("gamma", 0.5), ("calibration_frames", 30), ("template", "t.json"), ("task", "relocate")):
        path.write_text(json.dumps({"robot": "x.robot", key: value}))
        with pytest.raises(DataError, match=f"unknown config keys: \\['{key}'\\]"):
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


def test_demo_rejects_a_misplaced_action(short_stream, tmp_path):
    """Counts that agree do not make actions sit right: an action missing
    from record 5 but present on the last record would shift every later
    action by one step."""
    demo = translate(short_stream, make_config("allegro"))
    path = tmp_path / "demo.jsonl"
    write_demo(demo, path)
    header, *records = path.read_text().splitlines()
    fifth, last = json.loads(records[5]), json.loads(records[-1])
    last["action"] = fifth.pop("action")
    records[5], records[-1] = json.dumps(fifth), json.dumps(last)
    path.write_text("\n".join([header, *records]) + "\n")
    with pytest.raises(DemoFormatError, match="^record 5 has no action; every record but the last needs one$"):
        read_demo(path)


def test_demo_version_header_enforced(short_stream, tmp_path):
    demo = translate(short_stream, make_config("allegro"))
    path = tmp_path / "demo.jsonl"
    write_demo(demo, path)
    path.write_text(path.read_text().replace("dexdemo/1", "dexdemo/2", 1))
    with pytest.raises(DemoFormatError, match="dexdemo"):
        read_demo(path)


@pytest.mark.parametrize("field, value, element", [
    ("state_layout", [["joints", "3"], ["tip", 2], ["object", 2], ["target", 2]], "state_layout[0]"),
    ("state_layout", [["joints", 3], ["tip", 2.9], ["object", 2], ["target", 2]], "state_layout[1]"),
    ("state_layout", [["joints", 3], ["tip", 2], ["object", True], ["target", 3]], "state_layout[2]"),
    ("state_layout", [["joints", 3], ["tip", 2], ["object", 2], [2, 2]], "state_layout[3]"),
    ("state_layout", [["joints", 12], ["tip", -3]], "state_layout[1]"),
    ("action_layout", [["joint_velocity", 3, 0]], "action_layout[0]"),
    ("action_layout", {"joint_velocity": 3}, "action_layout"),
    ("dt", "0.05", "dt"),
    ("dt", True, "dt"),
    ("dt", 10**400, "dt must be a number"),
    ("dt", float("nan"), "dt must be positive"),
], ids=["width-string", "width-fraction", "width-bool", "name-number", "width-negative",
        "pair-of-three", "layout-object", "dt-string", "dt-bool", "dt-overflow", "dt-nan"])
def test_demo_header_numbers_are_strict(tmp_path, field, value, element):
    path = tmp_path / "expert.demo"
    write_demo(demos_from_expert(1, seed=0)[0], path)
    header, records = path.read_text().split("\n", 1)
    path.write_text(json.dumps({**json.loads(header), field: value}) + "\n" + records)
    with pytest.raises(DemoFormatError, match=f"^{re.escape(element)}") as info:
        read_demo(path)
    assert len(str(info.value)) <= 120  # an oversized value is shown by its ends


def test_oversized_config_number_is_named_and_shown_short():
    with pytest.raises(DataError, match=r"^max_iterations must be an integer, got 1000.*\.\.\..*401 characters") as info:
        PipelineConfig(robot="x.robot", max_iterations=10**400)
    assert len(str(info.value)) <= 120


def test_demo_null_provenance_reads_as_empty(tmp_path):
    path = tmp_path / "expert.demo"
    write_demo(demos_from_expert(1, seed=0)[0], path)
    header, records = path.read_text().split("\n", 1)
    path.write_text(json.dumps({**json.loads(header), "provenance": None}) + "\n" + records)
    assert read_demo(path).provenance == {}


def test_finger_targets_respect_limits(short_stream):
    demo = translate(short_stream, make_config("allegro"))
    tree = load_robot(robot_path("allegro"))
    lower, upper = tree.joint_limits()
    targets = demo.actions[:, 6:]
    assert np.all(targets >= lower - 1e-9)
    assert np.all(targets <= upper + 1e-9)


@pytest.mark.parametrize(
    "field, value",
    [("max_iterations", 0), ("max_iterations", -3), ("grad_tol", -1.0), ("grad_tol", 0.0),
     ("grad_tol", float("inf")), ("alpha", float("inf")), ("alpha", float("nan")), ("alpha", -1.0),
     ("cutoff_hz", 0.0), ("cutoff_hz", float("nan"))],
)
def test_config_rejects_out_of_range_values_when_built(field, value):
    # Rejected before any stage runs, naming the field.
    with pytest.raises(DataError, match=field):
        make_config("allegro", **{field: value})


def test_provenance_hashes_present(short_stream):
    demo = translate(short_stream, make_config("allegro"))
    assert len(demo.provenance["stream_sha256"]) == 64
    assert len(demo.provenance["config_sha256"]) == 64
    assert demo.provenance["object_fields"] == "zero-filled"


def test_provenance_counts_gauss_newton_iterations(short_stream, monkeypatch):
    solved = []
    real = demopipe.retarget_keypoints

    def recording(*args):
        solved.append(real(*args))
        return solved[-1]

    monkeypatch.setattr(demopipe, "retarget_keypoints", recording)
    demo = translate(short_stream, make_config("allegro"))
    assert demo.provenance["gn_iterations"] == sum(r.iterations for r in solved[0]) > 0
    assert demo.provenance["gn_probes"] == sum(r.probes for r in solved[0]) >= demo.provenance["gn_iterations"]


def test_one_customized_hand_fk_per_translate(short_stream, monkeypatch):
    assert all(frame.observed_keypoints for frame in short_stream.frames)
    calls = []
    real = kinematics._link_poses

    def counting(tree, q):
        calls.append((tree.name, q.shape))
        return real(tree, q)

    monkeypatch.setattr(kinematics, "_link_poses", counting)
    demo = translate(short_stream, make_config("allegro"))
    # The same poses give the retarget stage its source keypoints and the
    # wrist solve its canonical keypoints.
    assert [c for c in calls if c[0] == "customized"] == [("customized", (40, 45))]
    assert all(name == "allegro" for name, _ in calls[1:])
    assert np.any(demo.states[:, 16:20] != [1.0, 0.0, 0.0, 0.0])


def test_translate_all_serializes_the_stream_once(sample_stream, monkeypatch):
    stream = HandPoseStream(sample_stream.frames[:40], sample_stream.rate_hz)
    calls = []
    real = poseio.stream_to_text

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(poseio, "stream_to_text", counting)
    results, errors = translate_all(stream, {n: make_config(n) for n in ("schunk", "adroit", "allegro")})
    assert errors == {} and len(calls) == 1
    digest = hashlib.sha256(real(stream).encode()).hexdigest()
    assert {d.provenance["stream_sha256"] for d, _ in results.values()} == {digest}


def test_stream_io_and_translation_build_no_frame_records(short_stream, tmp_path, monkeypatch):
    built = []
    real = HandPoseFrame.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(HandPoseFrame, "__init__", counting)
    write_stream(short_stream, tmp_path / "short.jsonl")
    stream = read_stream(tmp_path / "short.jsonl")
    assert len(stream.frames) == 40
    results, errors = translate_all(stream, {n: make_config(n) for n in ("schunk", "adroit", "allegro")})
    assert errors == {} and len(results) == 3
    assert built == []
    # The counter sees the records that the frames view builds on demand.
    assert stream.frames[-1].timestamp == stream.t[-1] and len(built) == 1
    assert len(stream.frames[2:5]) == 3 and len(built) == 4


def _count_stream_stage_calls(monkeypatch) -> dict[str, int]:
    """Count the stream stage's expensive calls: the customized hand's build,
    its FK and the wrist solve."""
    counts = {"build_custom_hand": 0, "hand_fk": 0, "solve_wrists": 0}

    def counting(name, fn, count=lambda *args: True):
        def wrapper(*args):
            counts[name] += bool(count(*args))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(demopipe, "build_custom_hand", counting("build_custom_hand", demopipe.build_custom_hand))
    monkeypatch.setattr(demopipe, "solve_wrists", counting("solve_wrists", demopipe.solve_wrists))
    monkeypatch.setattr(kinematics, "_link_poses", counting(
        "hand_fk", kinematics._link_poses, lambda tree, q: tree.name == "customized"))
    return counts


def test_translate_all_builds_the_stream_stage_once(short_stream, monkeypatch):
    counts = _count_stream_stage_calls(monkeypatch)
    results, errors = translate_all(short_stream, {n: make_config(n) for n in ("schunk", "adroit", "allegro")})
    assert errors == {} and len(results) == 3
    assert counts == {"build_custom_hand": 1, "hand_fk": 1, "solve_wrists": 1}


def test_a_failed_stream_stage_is_tried_and_reported_for_each_robot(monkeypatch):
    stream = make_wrist_stream(n=12)
    frames = list(stream.frames)
    line = {n: np.array([0.02 * i, 0.0, 0.0]) for i, n in enumerate(sorted(frames[5].observed_keypoints))}
    frames[5] = replace(frames[5], observed_keypoints=line)  # collinear: the wrist solve fails
    counts = _count_stream_stage_calls(monkeypatch)
    results, errors = translate_all(HandPoseStream(tuple(frames), stream.rate_hz),
                                    {n: make_config(n) for n in ("schunk", "allegro")})
    assert results == {} and list(errors) == ["schunk", "allegro"]
    assert all(str(exc).startswith("wrist solve failed at frame 5") for exc in errors.values())
    assert counts["solve_wrists"] == 2


def test_stream_stages_read_the_default_template_once_per_process(short_stream, monkeypatch):
    handgen.default_template()  # the process's one read, unless an earlier test made it
    reads = []
    real = handgen.read_text

    def counting(path, *args):
        reads.append(path)
        return real(path, *args)

    monkeypatch.setattr(handgen, "read_text", counting)
    for _ in range(2):
        demopipe._StreamStage.build(short_stream)
    assert reads == []


@pytest.mark.parametrize("mode", ["position", "torque"])
def test_translate_all_equals_translate(short_stream, mode):
    configs = {n: make_config(n, action_mode=mode) for n in ("schunk", "adroit", "allegro")}
    results, errors = translate_all(short_stream, configs)
    assert errors == {}
    for name, (demo, timings) in results.items():
        alone = translate(short_stream, configs[name])
        assert demo.states.tobytes() == alone.states.tobytes()
        assert demo.actions.tobytes() == alone.actions.tobytes()
        assert demo.provenance == alone.provenance
        assert (demo.state_layout, demo.action_layout) == (alone.state_layout, alone.action_layout)
        assert set(timings) == {"calibrate_and_build", "retarget", "actions", "wrist_and_assembly"}


@pytest.mark.parametrize("robot", ["missing.robot", "bad.robot"])
def test_translate_timed_raises_what_translate_all_reports(short_stream, tmp_path, robot):
    (tmp_path / "bad.robot").write_text('{"name": "x", "links": [1]}')
    config = make_config("allegro", robot=tmp_path / robot)
    _, errors = translate_all(short_stream, {"one": config})
    with pytest.raises(Exception) as info:
        translate_timed(short_stream, config)
    assert type(info.value) is type(errors["one"]) and str(info.value) == str(errors["one"])


def test_nonfinite_source_frame_is_named_when_the_stream_is_built(sample_stream):
    frames = [replace(f, pose=f.pose.copy()) for f in sample_stream.frames[:40]]
    # Frame records are not checked; the stream checks every pose column once.
    frames[17].pose[3] = np.nan
    with pytest.raises(StreamFormatError, match="^frame 17: pose must be 45 finite numbers$"):
        HandPoseStream(tuple(frames), sample_stream.rate_hz)


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


DEMO_FIELDS = dict(robot="x", task="t", dt=0.04, state_layout=(("joints", 2),), action_layout=(("u", 2),),
                   states=np.zeros((5, 2)), actions=np.zeros((4, 2)))


@pytest.mark.parametrize("field, value, message", [
    ("states", np.where(np.eye(5, 2) == 1, np.nan, 0.0), "states must be finite"),
    ("actions", np.full((4, 2), np.inf), "actions must be finite"),
    ("state_layout", (("joints", 3), ("tip", -1)), r"state_layout\[1\] must be a \[name, width\] pair"),
    ("action_layout", [["u", 2, 0]], r"action_layout\[0\] must be"),
    ("action_layout", {"u": 2}, "action_layout must be a list"),
    ("robot", 7, "robot and task must be strings"),
    ("task", None, "robot and task must be strings"),
    ("provenance", [], "robot and task must be strings and provenance a JSON object"),
    ("dt", "0.04", "dt must be a number"),
    ("dt", float("inf"), "dt must be positive"),
    ("states", np.zeros(5), "states must be a 2-D array"),
    ("states", [["a", "b"]] * 5, "states must be an array of numbers"),
], ids=["state-nan", "action-inf", "width-negative", "pair-of-three", "layout-object", "robot-number",
        "task-null", "provenance-list", "dt-string", "dt-inf", "states-1d", "states-strings"])
def test_demonstration_rejects_what_its_file_cannot_hold(field, value, message):
    with pytest.raises(DemoFormatError, match=f"^{message}"):
        Demonstration(**{**DEMO_FIELDS, field: value})


# Dicts that a JSON round trip does not give back equal: NaN reads back as a
# new NaN, an integer key as a string, a tuple as a list; an array cannot be written.
NOT_JSON = [{"x": float("nan")}, {1: "a"}, {"x": (1, 2)}, {"x": np.zeros(2)}]
NOT_JSON_IDS = ["nan", "int-key", "tuple", "array"]


@pytest.mark.parametrize("provenance", NOT_JSON, ids=NOT_JSON_IDS)
def test_demonstration_provenance_must_read_back_unchanged(provenance):
    with pytest.raises(DemoFormatError, match="^provenance must be a JSON object that reads back unchanged"):
        Demonstration(**DEMO_FIELDS, provenance=provenance)


def test_demonstration_stores_layouts_as_tuples_of_ints():
    demo = Demonstration(**{**DEMO_FIELDS, "state_layout": [["joints", np.int64(2)]], "dt": 1})
    assert demo.state_layout == (("joints", 2),) and type(demo.state_layout[0][1]) is int
    assert demo.dt == 1.0 and type(demo.dt) is float


def make_wrist_stream(n=24, rate=25.0, velocity=(0.1, 0.0, 0.0), yaw_rate=0.5, metadata=None):
    """Synthetic stream whose observed keypoints follow a known wrist motion."""
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
    code = main(["translate", "--stream", "s.jsonl", "--config", "c.json",
                 "--out", str(tmp_path / "o.demo"), "--action-mode", "both"])
    assert code == 1
    assert "invalid choice: 'both'" in capsys.readouterr().err


def test_tree_and_problem_share_safely_across_threads():
    # KinematicTree is immutable and retarget problems hold no mutable state:
    # concurrent solves must agree bitwise with the serial result.
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


@pytest.mark.parametrize("mode", ["position", "torque"])
def test_shared_trees_give_the_same_demo_bytes(sample_stream, mode, tmp_path):
    """Demos built on trees reused from the caches equal demos built on fresh ones."""
    for robot in ("allegro", "schunk", "adroit"):
        config = replace(PipelineConfig.from_file(config_path(robot)), action_mode=mode)
        kinematics._load_text.cache_clear()
        handgen._custom_hand.cache_clear()
        write_demo(translate(sample_stream, config), tmp_path / "cold.demo")
        hits = kinematics._load_text.cache_info().hits, handgen._custom_hand.cache_info().hits
        write_demo(translate(sample_stream, config), tmp_path / "warm.demo")
        assert kinematics._load_text.cache_info().hits == hits[0] + 1
        assert handgen._custom_hand.cache_info().hits == hits[1] + 1
        assert (tmp_path / "warm.demo").read_bytes() == (tmp_path / "cold.demo").read_bytes()


_TRANSLATE_SAMPLE = """
import sys
from dexretarget.assets import config_path, sample_stream_path
from dexretarget.demopipe import PipelineConfig, translate_all, write_demo
from dexretarget.poseio import read_stream
configs = {robot: PipelineConfig.from_file(config_path(robot)) for robot in ("allegro", "schunk", "adroit")}
results, errors = translate_all(read_stream(sample_stream_path()), configs)
assert not errors, errors
for robot, (demo, _) in results.items():
    write_demo(demo, f"{sys.argv[1]}/{robot}.demo")
"""


def _masked_demo_text(path) -> str:
    header, *records = path.read_text().splitlines()
    header = json.loads(header)
    header["provenance"]["config_sha256"] = None
    return "\n".join([json.dumps(header, sort_keys=True), *records])


def test_demo_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The sample stream's demos for the three robots, translated in child
    processes with one and with two OpenBLAS threads, are byte-identical
    (config_sha256 aside)."""
    src = os.path.dirname(os.path.dirname(dexretarget.__file__))
    texts = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", _TRANSLATE_SAMPLE, str(out)], env=env, check=True, timeout=300)
        texts[threads] = {path.name: _masked_demo_text(path) for path in sorted(out.iterdir())}
    assert sorted(texts["1"]) == ["adroit.demo", "allegro.demo", "schunk.demo"]
    assert texts["1"] == texts["2"]
