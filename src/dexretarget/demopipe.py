"""End-to-end demonstration translation.

translate() turns one recorded hand-pose stream into a robot demonstration:
calibrate the shape, build the customized hand, retarget its joint trajectory
onto the target robot, compute actions (filtered position targets or
torques), and derive palm velocity commands by finite-differencing the wrist
transform recovered from the observed keypoints.

Demonstration files are line-delimited JSON (`dexdemo/1`): a header with the
layouts, then one record per step. The convention is one action per
transition, so a demonstration always has len(states) == len(actions) + 1.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .control import gamma_from_cutoff
from .dynamics import POSITION, TORQUE, compute_actions
from .errors import DataError, DemoFormatError, NumericalError, check_number_fields
from .handgen import build_custom_hand, default_template, load_template
from .kinematics import KinematicTree, forward_kinematics, load_robot
from .poseio import HandPoseStream, calibrate, solve_wrists
from .retarget import (
    DEFAULT_ALPHA,
    KeypointMap,
    RetargetProblem,
    SolverSettings,
    read_keypoint_map,
    retarget_trajectory,
)
from .transforms import quat_conjugate, quat_multiply, quat_to_rotvec

log = logging.getLogger(__name__)

DEMO_FORMAT = "dexdemo/1"
DEFAULT_CUTOFF_HZ = 5.0  # chosen, not from any published source
PALM_VELOCITY_WIDTH = 6


@dataclass(frozen=True)
class PipelineConfig:
    robot: str | Path                     # target robot description path
    keypoint_map: str | Path | None = None  # defaults to shared fingertip names
    alpha: float = DEFAULT_ALPHA
    gamma: float | None = None            # filter factor; derived from cutoff if None
    cutoff_hz: float = DEFAULT_CUTOFF_HZ
    calibration_frames: int = 30
    action_mode: str = POSITION
    task: str = "relocate"
    grad_tol: float = 1e-6
    max_iterations: int = 100
    template: str | Path | None = None    # customized-hand template override

    def __post_init__(self):
        check_number_fields(
            self,
            reals=("alpha", "cutoff_hz", "grad_tol") + (("gamma",) if self.gamma is not None else ()),
            integers=("calibration_frames", "max_iterations"),
        )
        if self.action_mode not in (TORQUE, POSITION):
            raise DataError(f"unknown action mode '{self.action_mode}'")
        if self.alpha < 0:
            raise DataError("alpha must be nonnegative")
        if self.calibration_frames < 10:
            raise DataError("calibration needs at least 10 frames")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        base = Path(path).parent
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read pipeline config: {exc}") from exc
        if not isinstance(doc, dict):
            raise DataError("pipeline config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        for key in ("robot", "keypoint_map", "template"):
            if doc.get(key):
                if not isinstance(doc[key], str):
                    raise DataError(f"{key} must be a path, got {doc[key]!r}")
                doc[key] = str((base / doc[key]) if not Path(doc[key]).is_absolute() else Path(doc[key]))
        return cls(**doc)

    def canonical_json(self) -> str:
        doc = {k: (str(v) if isinstance(v, Path) else v) for k, v in self.__dict__.items()}
        return json.dumps(doc, sort_keys=True)


@dataclass(frozen=True)
class Demonstration:
    robot: str
    task: str
    dt: float
    state_layout: tuple[tuple[str, int], ...]
    action_layout: tuple[tuple[str, int], ...]
    states: np.ndarray   # (T, state_width)
    actions: np.ndarray  # (T - 1, action_width)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        actions = np.asarray(self.actions, dtype=float)
        if self.dt <= 0:
            raise DemoFormatError("dt must be positive")
        if states.shape[0] != actions.shape[0] + 1:
            raise DemoFormatError(
                f"expected len(states) == len(actions) + 1, got {states.shape[0]} vs {actions.shape[0]}"
            )
        if states.shape[1] != sum(w for _, w in self.state_layout):
            raise DemoFormatError("state width does not match state_layout")
        if actions.shape[1] != sum(w for _, w in self.action_layout):
            raise DemoFormatError("action width does not match action_layout")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _wrist_trajectory(stream: HandPoseStream, hand: KinematicTree) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame wrist rotation (T, 4) and translation (T, 3) from observed
    keypoints; frames without keypoints get the identity."""
    frames = stream.frames
    rotation = np.tile([1.0, 0.0, 0.0, 0.0], (len(frames), 1))
    translation = np.zeros((len(frames), 3))
    seen = [i for i, frame in enumerate(frames) if frame.observed_keypoints]
    if not seen:
        return rotation, translation
    canonical = forward_kinematics(hand, stream.pose_matrix()[seen])
    results, _ = solve_wrists(canonical, [frames[i].observed_keypoints for i in seen])
    for i, result in zip(seen, results):
        if isinstance(result, DataError):
            raise DataError(f"wrist solve failed at frame {i}: {result}") from result
        rotation[i] = result.rotation
        translation[i] = result.translation
    return rotation, translation


def _palm_velocities(rotation: np.ndarray, translation: np.ndarray, dt: float) -> np.ndarray:
    """(T-1, 6) linear + angular velocity commands between frames."""
    linear = (translation[1:] - translation[:-1]) / dt
    rel = quat_multiply(rotation[1:], quat_conjugate(rotation[:-1]))
    return np.concatenate([linear, quat_to_rotvec(rel) / dt], axis=1)


def translate(stream: HandPoseStream, config: PipelineConfig) -> Demonstration:
    """Translate one pose stream into a demonstration for one robot."""
    demo, _ = translate_timed(stream, config)
    return demo


def translate_timed(
    stream: HandPoseStream, config: PipelineConfig
) -> tuple[Demonstration, dict[str, float]]:
    """translate() plus wall-clock seconds per pipeline stage."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    target = load_robot(config.robot)
    dt = stream.dt

    # Shape calibration: stored stream calibration wins over recomputation.
    if stream.s0 is not None:
        s0 = stream.s0
    else:
        k = min(config.calibration_frames, len(stream.frames))
        s0, _ = calibrate(stream.frames[:k])

    template = load_template(config.template) if config.template else default_template()
    hand = build_custom_hand(s0, template)
    timings["calibrate_and_build"] = time.perf_counter() - t0
    t0 = time.perf_counter()

    if config.keypoint_map:
        keypoint_map = read_keypoint_map(config.keypoint_map)
    else:
        shared = [n for n in hand.keypoint_names if n in target.keypoint_names]
        keypoint_map = KeypointMap(tuple((n, n) for n in shared))

    problem = RetargetProblem(
        source=hand,
        target=target,
        keypoint_map=keypoint_map,
        alpha=config.alpha,
        settings=SolverSettings(max_iterations=config.max_iterations, grad_tol=config.grad_tol),
    )
    lower, upper = target.joint_limits()
    q0 = np.clip(np.zeros(target.num_actuated), lower, upper)
    source_traj = stream.pose_matrix()
    try:
        results = retarget_trajectory(problem, source_traj, q0)
    except (DataError, NumericalError) as exc:
        raise type(exc)(f"retarget stage: {exc}") from exc
    q_traj = np.stack([r.q for r in results])
    timings["retarget"] = time.perf_counter() - t0
    t0 = time.perf_counter()

    gamma = config.gamma if config.gamma is not None else gamma_from_cutoff(config.cutoff_hz, dt)
    try:
        finger_track = compute_actions(target, q_traj, dt, gamma, mode=config.action_mode)
    except (DataError, NumericalError) as exc:
        raise type(exc)(f"action stage: {exc}") from exc
    timings["actions"] = time.perf_counter() - t0
    t0 = time.perf_counter()

    wrist_rotation, wrist_translation = _wrist_trajectory(stream, hand)
    palm_vel = _palm_velocities(wrist_rotation, wrist_translation, dt)

    finger_width = target.num_actuated
    finger_field = "finger_torque" if config.action_mode == TORQUE else "finger_position_target"

    n_frames = len(stream.frames)
    object_pose = np.asarray(stream.metadata.get("object_pose", [1, 0, 0, 0, 0, 0, 0]), dtype=float)
    target_position = np.asarray(stream.metadata.get("target_position", [0, 0, 0]), dtype=float)

    state_layout = (
        ("joints", finger_width),
        ("palm_pose", 7),
        ("palm_velocity", 6),
        ("object_pose", 7),
        ("target_position", 3),
    )
    action_layout = (("palm_velocity", PALM_VELOCITY_WIDTH), (finger_field, finger_width))

    # The last state repeats the last palm velocity: there is no next frame.
    states = np.concatenate(
        [
            q_traj,
            wrist_rotation,
            wrist_translation,
            palm_vel[np.minimum(np.arange(n_frames), n_frames - 2)],
            np.broadcast_to(object_pose, (n_frames, 7)),
            np.broadcast_to(target_position, (n_frames, 3)),
        ],
        axis=1,
    )
    actions = np.concatenate([palm_vel, finger_track[:-1]], axis=1)

    mean_residual = float(np.mean([r.residual for r in results]))
    unconverged = int(sum(not r.converged for r in results))
    provenance = {
        "stream_sha256": stream.sha256,
        "config_sha256": _sha256(config.canonical_json()),
        "mean_keypoint_residual": mean_residual,
        "unconverged_frames": unconverged,
        "gn_iterations": int(sum(r.iterations for r in results)),
        "object_fields": "stream" if "object_pose" in stream.metadata else "zero-filled",
    }
    timings["wrist_and_assembly"] = time.perf_counter() - t0
    log.info(
        "translated %d frames onto '%s': mean residual %.4g m, %d unconverged",
        n_frames, target.name, mean_residual, unconverged,
    )
    demo = Demonstration(
        robot=target.name,
        task=config.task,
        dt=dt,
        state_layout=state_layout,
        action_layout=action_layout,
        states=states,
        actions=actions,
        provenance=provenance,
    )
    return demo, timings


def translate_all(
    stream: HandPoseStream, configs: dict[str, PipelineConfig]
) -> tuple[dict[str, Demonstration], dict[str, Exception]]:
    """Translate one stream for several robots; failures stay isolated."""
    demos: dict[str, Demonstration] = {}
    errors: dict[str, Exception] = {}
    for name, config in configs.items():
        try:
            demos[name] = translate(stream, config)
        except Exception as exc:  # noqa: BLE001 - per-robot isolation is the contract
            log.warning("translation for '%s' failed: %s", name, exc)
            errors[name] = exc
    return demos, errors


# ---------------------------------------------------------------------------
# Demonstration file I/O
# ---------------------------------------------------------------------------

def atomic_write_text(path: str | Path, text: str):
    """Write through a sibling temporary file so the file appears complete or not at all."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


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
    for t in range(demo.states.shape[0]):
        rec = {"i": t, "state": [float(v) for v in demo.states[t]]}
        if t < demo.actions.shape[0]:
            rec["action"] = [float(v) for v in demo.actions[t]]
        lines.append(json.dumps(rec, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_demo(path: str | Path) -> Demonstration:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise DemoFormatError("empty demonstration file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DemoFormatError(f"bad demonstration header: {exc}") from exc
    if header.get("format") != DEMO_FORMAT:
        raise DemoFormatError(
            f"unsupported demo format {header.get('format')!r}, expected {DEMO_FORMAT!r}"
        )
    states, actions = [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            states.append(rec["state"])
            if "action" in rec:
                actions.append(rec["action"])
        except (json.JSONDecodeError, KeyError) as exc:
            raise DemoFormatError(f"bad demonstration record: {exc}") from exc
    try:
        return Demonstration(
            robot=header["robot"],
            task=header["task"],
            dt=float(header["dt"]),
            state_layout=tuple((n, int(w)) for n, w in header["state_layout"]),
            action_layout=tuple((n, int(w)) for n, w in header["action_layout"]),
            states=np.asarray(states, dtype=float),
            actions=np.asarray(actions, dtype=float) if actions else np.zeros((0, sum(w for _, w in header["action_layout"]))),
            provenance=header.get("provenance", {}),
        )
    except KeyError as exc:
        raise DemoFormatError(f"demonstration header missing {exc}") from exc
