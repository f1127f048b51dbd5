"""Seeded benchmark inputs: hand-pose streams and scripted-expert demos.

Streams follow the recipe of the bundled sample stream (per-finger curls and
a drifting wrist, with camera-frame keypoints taken from the operator's
customized hand) but make variable the properties the pipeline's cost
depends on:

- stream length (one cold start per stream, then warm starts);
- motion speed, which sets how far the solution moves between frames and so
  the Gauss-Newton iteration count;
- the operator's hand shape, shared by several streams or distinct per stream
  (short-stream operators come in antithetic pairs, see `short_streams`);
- a stored `s0` in the header versus calibration from the stream's frames.

Everything is drawn from `numpy.random.default_rng(seed)`, so one seed gives
byte-identical files. Start phases and short-stream lengths follow a
golden-ratio sequence from a seeded offset, so every seed covers the motion
cycle and the length range about evenly; averages over a run then depend
little on the seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dexretarget.dapg import demos_from_expert
from dexretarget.demopipe import write_demo
from dexretarget.handgen import HandShapeParams, build_custom_hand
from dexretarget.kinematics import forward_kinematics
from dexretarget.poseio import HandPoseFrame, HandPoseStream, write_stream
from dexretarget.transforms import RigidTransform, quat_from_rpy

RATE_HZ = 25.0
BASE_CURL_HZ = 0.25
GOLDEN = 0.6180339887498949
BASE_CURL_AMP = np.array([0.35, 0.50, 0.55, 0.50, 0.40])


@dataclass(frozen=True)
class Operator:
    """One simulated person: hand shape, curl depth and motion speed."""

    beta: np.ndarray      # 10 shape coefficients
    curl_amp: np.ndarray  # per-finger flexion amplitude, rad
    speed: float          # multiplies every motion frequency


def make_operator(rng: np.random.Generator, speed: float) -> Operator:
    beta = np.round(rng.normal(0.0, 0.3, size=10), 6)
    curl_amp = BASE_CURL_AMP * rng.uniform(0.85, 1.15, size=5)
    return Operator(beta=beta, curl_amp=curl_amp, speed=float(speed))


def _spread(offset: float, i: int) -> float:
    """i-th point in [0, 1) of a low-discrepancy sequence starting at offset."""
    return (offset + i * GOLDEN) % 1.0


def synth_stream(op: Operator, n_frames: int, rng: np.random.Generator,
                 store_s0: bool, phase0: float) -> HandPoseStream:
    """One capture of `op`, starting at `phase0` (rad) of the motion cycle."""
    hand = build_custom_hand(HandShapeParams(op.beta))
    shape_phase = rng.uniform(0.0, 2 * np.pi)
    wrist_offset = rng.uniform(-0.05, 0.05, size=3)
    curl_hz = BASE_CURL_HZ * op.speed
    frames = []
    for i in range(n_frames):
        t = i / RATE_HZ
        phase = 2 * np.pi * curl_hz * t + phase0
        pose = np.zeros(45)
        for f in range(5):
            curl = op.curl_amp[f] * 0.5 * (1 - np.cos(phase + 0.3 * f))
            for seg in range(3):
                pose[f * 9 + seg * 3 + 1] = curl  # flexion (y) of each anatomical joint
            pose[f * 9 + 2] = 0.1 * np.sin(phase * 0.5 + f)  # proximal spread
        pose = np.round(pose, 9)
        shape = np.round(op.beta + 0.02 * np.sin(0.7 * t + shape_phase + np.arange(10)), 9)
        w = op.speed * t
        wrist = RigidTransform(
            quat_from_rpy(0.15 * np.sin(0.4 * w + phase0), 0.1 * np.sin(0.3 * w + 1.0), 0.02 * w),
            wrist_offset + np.array([0.05 * np.sin(0.5 * w), 0.02 * w, 0.4 + 0.03 * np.cos(0.5 * w)]),
        )
        kp = {name: np.round(wrist.apply(p), 9) for name, p in forward_kinematics(hand, pose).items()}
        frames.append(HandPoseFrame(round(t, 9), pose, HandShapeParams(shape), kp))
    s0 = HandShapeParams(op.beta) if store_s0 else None
    return HandPoseStream(tuple(frames), RATE_HZ, s0=s0)


def long_streams(seed: int, count: int, n_frames: int) -> list[HandPoseStream]:
    """`count` distinct operators, one long stream each, calibrated from frames.

    Speeds alternate between 1x and 2x the base curl rate, so any prefix of
    the list has the same mix of slow and fast motion whatever the seed; a
    200-frame stream then spans whole curl cycles (2 or 4).
    """
    rng = np.random.default_rng([seed, 1])
    offset = rng.uniform()
    streams = []
    for i in range(count):
        op = make_operator(rng, (1.0, 2.0)[i % 2])
        streams.append(synth_stream(op, n_frames, rng, store_s0=False,
                                    phase0=2 * np.pi * _spread(offset, i)))
    return streams


def short_streams(seed: int, count: int, operators: int,
                  min_frames: int = 10, max_frames: int = 30) -> list[HandPoseStream]:
    """`count` short streams from a few operators, each with its stored s0.

    Operators come in antithetic pairs: the second of a pair mirrors the
    first's draws about their mean (hand shape -beta, curl depth reflected
    about the base depth), so the average hand of a run, and with it the
    mean keypoint residual, depends little on the seed.
    """
    rng = np.random.default_rng([seed, 2])
    speeds = np.linspace(0.8, 1.6, operators)
    ops = []
    for k, speed in enumerate(speeds):
        if k % 2 == 0:
            ops.append(make_operator(rng, speed))
        else:
            first = ops[-1]
            ops.append(Operator(-first.beta, 2 * BASE_CURL_AMP - first.curl_amp, float(speed)))
    phase_offset, length_offset = rng.uniform(size=2)
    streams = []
    for i in range(count):
        n_frames = min_frames + int((max_frames - min_frames + 1) * _spread(length_offset, i))
        streams.append(synth_stream(ops[i % operators], n_frames, rng, store_s0=True,
                                    phase0=2 * np.pi * _spread(phase_offset, i)))
    return streams


def write_streams(streams: list[HandPoseStream], out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, stream in enumerate(streams):
        path = out_dir / f"stream_{i:03d}.jsonl"
        write_stream(stream, path)
        paths.append(path)
    return paths


def write_expert_demos(seed: int, count: int, out_dir: Path) -> list[Path]:
    """Scripted-expert episodes, as `dexretarget expert` writes them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    # Episode seeds run consecutively from the start seed; spacing start
    # seeds apart keeps the demo sets of neighbouring benchmark seeds disjoint.
    for i, demo in enumerate(demos_from_expert(count, seed=10_000 * seed)):
        path = out_dir / f"expert_{i:03d}.jsonl"
        write_demo(demo, path)
        paths.append(path)
    return paths
