"""End-to-end demonstration translation.

translate() turns one recorded hand-pose stream into a robot demonstration. A
stream stage calibrates the shape, builds the customized hand, runs its FK and
finite-differences the wrist transform recovered from the observed keypoints
into palm velocity commands; a robot stage retargets onto the target robot,
computes actions (filtered position targets or torques) and assembles them.

Demonstration files are line-delimited JSON (`dexdemo/1`): a header with the
layouts, then one record per step. The convention is one action per
transition, so a demonstration always has len(states) == len(actions) + 1.
Demonstration's constructor is the one place that decides what a
demonstration is; read_demo keeps only the file framing and hands the
header values to it.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np

from . import kinematics
from .control import gamma_from_cutoff
from .dynamics import POSITION, TORQUE, compute_actions
from .errors import (DataError, DemoFormatError, NumericalError, atomic_write_text, check_json_object,
                     check_number_fields, float_rows, is_number, must_be, parse_object, read_records, read_text)
from .handgen import build_custom_hand
from .kinematics import KinematicTree, load_robot
from .poseio import HandPoseStream, calibrate, solve_wrists
from .retarget import (
    DEFAULT_ALPHA,
    KeypointMap,
    RetargetProblem,
    SolverSettings,
    read_keypoint_map,
    retarget_keypoints,
)
from .transforms import quat_conjugate, quat_multiply, quat_to_rotvec

log = logging.getLogger(__name__)

DEMO_FORMAT = "dexdemo/1"
DEFAULT_CUTOFF_HZ = 5.0  # chosen, not from any published source
PALM_VELOCITY_WIDTH = 6
CALIBRATION_FRAMES = 30  # leading frames that calibrate a stream without a stored s0
TASK = "relocate"        # the task of every demonstration: its state layout is relocate's


def read_config_object(path: str | Path, cls, what: str) -> dict:
    """The JSON object of a config file whose keys must be fields of dataclass
    `cls`, read by the input policy of errors.read_text and parse_object;
    unknown keys raise DataError."""
    doc = parse_object(read_text(path, DataError, what), DataError, what)
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    return doc


@dataclass(frozen=True)
class PipelineConfig:
    robot: str | Path                     # target robot description path
    keypoint_map: str | Path | None = None  # defaults to shared fingertip names
    alpha: float = DEFAULT_ALPHA
    cutoff_hz: float = DEFAULT_CUTOFF_HZ  # sets the filter factor, gamma_from_cutoff(cutoff_hz, dt)
    action_mode: str = POSITION
    grad_tol: float = SolverSettings.grad_tol
    max_iterations: int = SolverSettings.max_iterations

    def __post_init__(self):
        check_number_fields(self, reals=("alpha", "cutoff_hz"))
        if self.action_mode not in (TORQUE, POSITION):
            raise DataError(f"unknown action mode '{self.action_mode}'")
        if self.alpha < 0:
            raise DataError(f"alpha must be nonnegative, got {self.alpha!r}")
        if self.cutoff_hz <= 0:
            raise DataError(f"cutoff_hz must be positive, got {self.cutoff_hz!r}")
        SolverSettings(max_iterations=self.max_iterations, grad_tol=self.grad_tol)  # checks the solver fields

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        base = Path(path).parent
        doc = read_config_object(path, cls, "pipeline config")
        for key in ("robot", "keypoint_map"):
            value = doc.get(key)
            if value is None and key != "robot":
                continue
            if not isinstance(value, str):
                raise DataError(must_be(key, "a path", value))
            if value:
                doc[key] = str(base / value)  # an absolute value stays as it is
        return cls(**doc)

    def canonical_json(self) -> str:
        doc = {k: (str(v) if isinstance(v, Path) else v) for k, v in self.__dict__.items()}
        return json.dumps(doc, sort_keys=True)


def _layout(layout, key: str) -> tuple[tuple[str, int], ...]:
    """A layout as a tuple of (name, width) pairs: a list or tuple of pairs
    of a string and a non-negative integer."""
    if not isinstance(layout, (list, tuple)):
        raise DemoFormatError(f"{key} must be a list of [name, width] pairs")
    for i, entry in enumerate(layout):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and isinstance(entry[0], str)
                and is_number(entry[1], Integral) and entry[1] >= 0):
            raise DemoFormatError(must_be(f"{key}[{i}]", "a [name, width] pair with a width >= 0", entry))
    return tuple((name, int(width)) for name, width in layout)


def _width(layout, key: str) -> int:
    return sum(width for _, width in _layout(layout, key))


def _rows(rows, width: int, kind: str) -> np.ndarray:
    """`rows` as a (T, width) array of finite floats."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DemoFormatError(f"{kind}s must be an array of numbers") from exc
    if arr.ndim != 2:
        raise DemoFormatError(f"{kind}s must be a 2-D array, got shape {arr.shape}")
    if arr.shape[1] != width:
        raise DemoFormatError(f"{kind} width does not match {kind}_layout")
    if not np.isfinite(arr).all():
        raise DemoFormatError(f"{kind}s must be finite")
    return arr


@dataclass(frozen=True)
class Demonstration:
    """One demonstration. Its constructor is the one check of what a
    demonstration is, so what it accepts, write_demo writes and read_demo
    reads back: `robot` and `task` are strings, `dt` is a finite positive
    number, each layout is (name, width) pairs of a string and a
    non-negative integer (lists are taken and stored as tuples), `states`
    and `actions` are finite 2-D arrays of their layout's total width,
    there is one more state than actions, and `provenance` is a JSON object
    that reads back unchanged (errors.check_json_object)."""

    robot: str
    task: str
    dt: float
    state_layout: tuple[tuple[str, int], ...]
    action_layout: tuple[tuple[str, int], ...]
    states: np.ndarray   # (T, state_width)
    actions: np.ndarray  # (T - 1, action_width)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.robot, str) and isinstance(self.task, str) and isinstance(self.provenance, dict)):
            raise DemoFormatError("robot and task must be strings and provenance a JSON object")
        check_json_object(self.provenance, DemoFormatError, "provenance")
        if not is_number(self.dt):
            raise DemoFormatError(must_be("dt", "a number", self.dt))
        if not 0 < self.dt < math.inf:  # NaN fails too
            raise DemoFormatError("dt must be positive and finite")
        state_layout = _layout(self.state_layout, "state_layout")
        action_layout = _layout(self.action_layout, "action_layout")
        states = _rows(self.states, sum(w for _, w in state_layout), "state")
        actions = _rows(self.actions, sum(w for _, w in action_layout), "action")
        if len(states) != len(actions) + 1:
            raise DemoFormatError(f"expected len(states) == len(actions) + 1, got {len(states)} vs {len(actions)}")
        vars(self).update(dt=float(self.dt), state_layout=state_layout, action_layout=action_layout,
                          states=states, actions=actions)


def _wrist_trajectory(
    stream: HandPoseStream, names: tuple[str, ...], keypoints: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame wrist rotation (T, 4) and translation (T, 3) from observed
    keypoints, given the customized hand's (T, K, 3) keypoints `names` at
    the stream's poses; frames without keypoints get the identity."""
    shared = [j for j, name in enumerate(stream.keypoint_names) if name in names]
    canonical = keypoints[:, [names.index(stream.keypoint_names[j]) for j in shared]]
    rotation, translation, _, errors = solve_wrists(canonical, stream.kp[:, shared], stream.kp_mask[:, shared])
    seen = stream.kp_mask.any(axis=1)
    failed = min((b for b in errors if seen[b]), default=None)
    if failed is not None:
        raise DataError(f"wrist solve failed at frame {failed}: {errors[failed]}")
    rotation[~seen], translation[~seen] = [1.0, 0.0, 0.0, 0.0], 0.0
    return rotation, translation


def _palm_velocities(rotation: np.ndarray, translation: np.ndarray, dt: float) -> np.ndarray:
    """(T-1, 6) linear + angular velocity commands between frames."""
    linear = (translation[1:] - translation[:-1]) / dt
    rel = quat_multiply(rotation[1:], quat_conjugate(rotation[:-1]))
    return np.concatenate([linear, quat_to_rotvec(rel) / dt], axis=1)


def translate(stream: HandPoseStream, config: PipelineConfig) -> Demonstration:
    """Translate one pose stream into a demonstration for one robot."""
    return translate_timed(stream, config)[0]


def translate_timed(
    stream: HandPoseStream, config: PipelineConfig
) -> tuple[Demonstration, dict[str, float]]:
    """translate() plus wall-clock seconds per pipeline stage: translate_all
    on one config, whose failure is raised as it is."""
    results, errors = translate_all(stream, {config.robot: config})
    if errors:
        raise errors[config.robot]
    return results[config.robot]


def translate_all(
    stream: HandPoseStream, configs: dict[str, PipelineConfig]
) -> tuple[dict[str, tuple[Demonstration, dict[str, float]]], dict[str, Exception]]:
    """Each robot's demonstration and wall-clock seconds per pipeline stage;
    failures stay isolated.

    The robots share one stream stage; its seconds count in the first
    robot's timings. A stage that fails to build is tried again for the next
    robot, so each robot reports its own failure.
    """
    stage = None
    results, errors = {}, {}
    for name, config in configs.items():
        t0 = time.perf_counter()
        try:
            if stage is None:
                stage = _StreamStage.build(stream)
            results[name] = _robot_stage(stage, config, t0)
        except Exception as exc:  # noqa: BLE001 - per-robot isolation is the contract
            # Logged, not warned: the caller gets the exception in `errors`.
            log.info("translation for '%s' failed: %s", name, exc)
            errors[name] = exc
    return results, errors


@dataclass(frozen=True)
class _StreamStage:
    """The robot-independent part of a translation, built once per stream."""

    hand: KinematicTree
    keypoints: np.ndarray      # (T, K, 3) the hand's keypoints over the stream: its one FK
    palm_velocity: np.ndarray  # (T-1, 6)
    states: np.ndarray         # (T, 23): palm_pose, palm_velocity, object_pose, target_position
    dt: float
    provenance: dict           # stream_sha256 and object_fields

    @classmethod
    def build(cls, stream: HandPoseStream) -> "_StreamStage":
        # Shape calibration: stored stream calibration wins over recomputation.
        s0 = stream.s0 if stream.s0 is not None else calibrate(stream.shape[:CALIBRATION_FRAMES])[0]
        hand = build_custom_hand(s0)
        # The customized hand's one FK, on the stream's checked (T, 45) poses.
        # It gives every robot's retarget its source keypoints and the wrist
        # solve its canonical keypoints.
        keypoints = kinematics._keypoints(hand, stream.pose)
        rotation, translation = _wrist_trajectory(stream, hand.keypoint_names, keypoints)
        palm_vel = _palm_velocities(rotation, translation, stream.dt)

        n_frames = len(stream.t)
        object_pose = np.asarray(stream.metadata.get("object_pose", [1, 0, 0, 0, 0, 0, 0]), dtype=float)
        target_position = np.asarray(stream.metadata.get("target_position", [0, 0, 0]), dtype=float)
        # The last state repeats the last palm velocity: there is no next frame.
        states = np.concatenate([
            rotation, translation, palm_vel[np.minimum(np.arange(n_frames), n_frames - 2)],
            np.broadcast_to(object_pose, (n_frames, 7)), np.broadcast_to(target_position, (n_frames, 3)),
        ], axis=1)
        provenance = {
            "stream_sha256": stream.sha256,
            "object_fields": "stream" if "object_pose" in stream.metadata else "zero-filled",
        }
        return cls(hand, keypoints, palm_vel, states, stream.dt, provenance)


def _robot_stage(
    stage: _StreamStage, config: PipelineConfig, t0: float
) -> tuple[Demonstration, dict[str, float]]:
    """One robot's demonstration from a stream stage; stage seconds count from t0."""
    timings: dict[str, float] = {}
    target = load_robot(config.robot)
    timings["calibrate_and_build"] = time.perf_counter() - t0
    t0 = time.perf_counter()

    if config.keypoint_map:
        keypoint_map = read_keypoint_map(config.keypoint_map)
    else:
        shared = [n for n in stage.hand.keypoint_names if n in target.keypoint_names]
        keypoint_map = KeypointMap.identity(shared)

    settings = SolverSettings(max_iterations=config.max_iterations, grad_tol=config.grad_tol)
    problem = RetargetProblem(stage.hand, target, keypoint_map, config.alpha, settings)
    lower, upper = target.joint_limits()
    q0 = np.clip(np.zeros(target.num_actuated), lower, upper)
    try:
        results = retarget_keypoints(problem, stage.keypoints[:, problem._source_rows], q0)
    except (DataError, NumericalError) as exc:
        raise type(exc)(f"retarget stage: {exc}") from exc
    q_traj = np.stack([r.q for r in results])
    timings["retarget"] = time.perf_counter() - t0
    t0 = time.perf_counter()

    try:
        finger_track = compute_actions(target, q_traj, stage.dt, gamma_from_cutoff(config.cutoff_hz, stage.dt),
                                       mode=config.action_mode)
    except (DataError, NumericalError) as exc:
        raise type(exc)(f"action stage: {exc}") from exc
    timings["actions"] = time.perf_counter() - t0
    t0 = time.perf_counter()

    finger_width = target.num_actuated
    finger_field = "finger_torque" if config.action_mode == TORQUE else "finger_position_target"
    state_layout = (("joints", finger_width), ("palm_pose", 7), ("palm_velocity", 6),
                    ("object_pose", 7), ("target_position", 3))
    action_layout = (("palm_velocity", PALM_VELOCITY_WIDTH), (finger_field, finger_width))
    states = np.concatenate([q_traj, stage.states], axis=1)
    actions = np.concatenate([stage.palm_velocity, finger_track[:-1]], axis=1)

    mean_residual = float(np.mean([r.residual for r in results]))
    unconverged = int(sum(not r.converged for r in results))
    provenance = {
        **stage.provenance,
        "config_sha256": hashlib.sha256(config.canonical_json().encode()).hexdigest(),
        "mean_keypoint_residual": mean_residual,
        "unconverged_frames": unconverged,
        "gn_iterations": int(sum(r.iterations for r in results)),
        "gn_probes": int(sum(r.probes for r in results)),
    }
    timings["wrist_and_assembly"] = time.perf_counter() - t0
    log.info(
        "translated %d frames onto '%s': mean residual %.4g m, %d unconverged",
        len(states), target.name, mean_residual, unconverged,
    )
    demo = Demonstration(robot=target.name, task=TASK, dt=stage.dt, state_layout=state_layout,
                         action_layout=action_layout, states=states, actions=actions, provenance=provenance)
    return demo, timings


# ---------------------------------------------------------------------------
# Demonstration file I/O
# ---------------------------------------------------------------------------

def write_demo(demo: Demonstration, path: str | Path):
    """Atomic write: the file appears complete or not at all."""
    header = {
        "format": DEMO_FORMAT,
        "robot": demo.robot,
        "task": demo.task,
        "dt": demo.dt,
        "state_layout": [[n, w] for n, w in demo.state_layout],
        "action_layout": [[n, w] for n, w in demo.action_layout],
        "provenance": demo.provenance,
    }
    lines = [json.dumps(header, sort_keys=True)]
    actions = demo.actions.tolist()
    for t, state in enumerate(demo.states.tolist()):
        rec = {"i": t, "state": state}
        if t < len(actions):
            rec["action"] = actions[t]
        lines.append(json.dumps(rec, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_demo(path: str | Path) -> Demonstration:
    """Read a demonstration file; the header values go to the Demonstration
    constructor, which checks them. Rows are read at their layouts' widths,
    each named by its record; every record but the last needs an action."""
    header, records = read_records(path, DEMO_FORMAT, DemoFormatError, "demonstration", "record")
    try:
        robot, task, dt = header["robot"], header["task"], header["dt"]
        state_layout, action_layout = header["state_layout"], header["action_layout"]
    except KeyError as exc:
        raise DemoFormatError(f"demonstration header missing {exc}") from exc
    last = max(records, default=None)
    for i, rec in records.items():
        if "state" not in rec:
            raise DemoFormatError(f"record {i} has no state")
        if "action" not in rec and i != last:
            raise DemoFormatError(f"record {i} has no action; every record but the last needs one")
    acted = [i for i, rec in records.items() if "action" in rec]
    return Demonstration(
        robot=robot,
        task=task,
        dt=dt,
        state_layout=state_layout,
        action_layout=action_layout,
        states=float_rows([rec["state"] for rec in records.values()], _width(state_layout, "state_layout"),
                          DemoFormatError, (f"record {i}: state" for i in records)),
        actions=float_rows([records[i]["action"] for i in acted], _width(action_layout, "action_layout"),
                           DemoFormatError, (f"record {i}: action" for i in acted)),
        provenance={} if header.get("provenance") is None else header["provenance"],
    )
