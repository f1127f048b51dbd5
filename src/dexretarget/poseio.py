"""Hand-pose stream ingestion and wrist-transform solving.

Stream files are line-delimited JSON (`dexstream/1`): a header object with
`format` and `rate_hz`, then one record per frame with fields `t`, `pose`
(45 angles), `shape` (10 coefficients) and optionally `kp` (named camera-frame
points). The header may also carry the task's `object_pose` (7 numbers) and
`target_position` (3 numbers). Files written by write_stream are canonical:
reading and re-writing them reproduces the bytes exactly.
"""
from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, StreamFormatError, atomic_write_text, finite_number, float_rows, read_records
from .handgen import HandShapeParams
from .transforms import matrix_to_quat

FORMAT_VERSION = "dexstream/1"
POSE_DIM = 45
SHAPE_DIM = 10
VARIANCE_FLOOR = 1e-6
CONDITIONING_TOL = 1e-8  # second-to-first singular value ratio below which keypoints are collinear
# Known header fields of a stream and their number of entries: the object's
# pose (w, x, y, z quaternion, then position) and the task's target position.
HEADER_FIELDS = {"object_pose": 7, "target_position": 3}


@dataclass(frozen=True)
class HandPoseFrame:
    """One timestamped detector sample."""

    timestamp: float
    pose: np.ndarray                     # 45 angles, customized-hand order
    shape: HandShapeParams
    observed_keypoints: dict[str, np.ndarray] | None = None

    def __post_init__(self):
        pose = np.asarray(self.pose, dtype=float)
        if pose.shape != (POSE_DIM,) or not np.isfinite(pose).all():
            raise StreamFormatError(f"pose must be {POSE_DIM} finite angles")
        object.__setattr__(self, "pose", pose)
        if self.observed_keypoints is not None:
            kp = {k: np.asarray(v, dtype=float) for k, v in self.observed_keypoints.items()}
            for name, v in kp.items():
                if v.shape != (3,) or not np.isfinite(v).all():
                    raise StreamFormatError(f"keypoint '{name}' must be a finite 3-vector")
            object.__setattr__(self, "observed_keypoints", kp)


@dataclass(frozen=True)
class HandPoseStream:
    """A timestamped frame sequence at a nominal rate, with its header fields.

    Checked when built: at least two frames, a positive finite rate, finite
    and strictly increasing timestamps, a positive `sigma`, and each of the
    HEADER_FIELDS present in `metadata` as that many finite numbers.
    """

    frames: tuple[HandPoseFrame, ...]
    rate_hz: float
    s0: HandShapeParams | None = None
    sigma: np.ndarray | None = None      # 10 positive diagonal entries
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.frames) < 2:
            raise StreamFormatError("stream needs at least 2 frames")
        object.__setattr__(self, "rate_hz", finite_number(self.rate_hz, StreamFormatError, "rate_hz"))
        if self.rate_hz <= 0:
            raise StreamFormatError("rate_hz must be positive")
        times = float_rows([[frame.timestamp for frame in self.frames]], len(self.frames),
                           StreamFormatError, ["timestamps"])[0]
        unordered = np.flatnonzero(times[1:] <= times[:-1])
        if unordered.size:
            raise StreamFormatError(f"timestamps not strictly increasing at frame {unordered[0] + 1}")
        for key, width in HEADER_FIELDS.items():
            if key in self.metadata:
                float_rows([self.metadata[key]], width, StreamFormatError, [key])
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=float)
            if sigma.shape != (SHAPE_DIM,) or not np.all(sigma > 0):
                raise StreamFormatError("sigma must be 10 positive entries")
            object.__setattr__(self, "sigma", sigma)

    @property
    def dt(self) -> float:
        return 1.0 / self.rate_hz

    def pose_matrix(self) -> np.ndarray:
        return np.stack([f.pose for f in self.frames])

    @functools.cached_property
    def sha256(self) -> str:
        """Hex SHA-256 of the canonical `dexstream/1` text, serialized once per stream."""
        return hashlib.sha256(stream_to_text(self).encode()).hexdigest()


def calibrate(frames) -> tuple[HandShapeParams, np.ndarray]:
    """Per-coordinate mean and floored population variance of frame shapes.

    Pass the first K frames of a stream; K must be at least 10.
    """
    frames = list(frames)
    if len(frames) < 10:
        raise DataError(f"calibration needs at least 10 frames, got {len(frames)}")
    shapes = np.stack([f.shape.beta for f in frames])
    s0 = shapes.mean(axis=0)
    var = shapes.var(axis=0)  # population variance (n divisor)
    return HandShapeParams(s0), np.maximum(var, VARIANCE_FLOOR)


# ---------------------------------------------------------------------------
# Stream file I/O
# ---------------------------------------------------------------------------

def _dump_line(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


def read_stream(path: str | Path) -> HandPoseStream:
    header, records = read_records(path, FORMAT_VERSION, StreamFormatError, "stream", "frame")
    if "rate_hz" not in header:
        raise StreamFormatError("stream header missing rate_hz")
    s0, sigma = (float_rows([header[key]], SHAPE_DIM, StreamFormatError, [key])[0] if header.get(key) is not None
                 else None for key in ("s0", "sigma"))
    for i, rec in records.items():
        missing = [key for key in ("t", "pose", "shape") if key not in rec]
        if missing:
            raise StreamFormatError(f"frame {i} missing field {missing[0]!r}")
        if rec.get("kp") is not None and not isinstance(rec["kp"], dict):
            raise StreamFormatError(f"frame {i}: kp must be a JSON object")
    times = [finite_number(rec["t"], StreamFormatError, f"frame {i}: t") for i, rec in records.items()]

    def column(key: str, width: int) -> np.ndarray:
        return float_rows([rec[key] for rec in records.values()], width, StreamFormatError,
                          (f"frame {i}: {key}" for i in records))

    poses, shapes = column("pose", POSE_DIM), column("shape", SHAPE_DIM)
    kps = [rec.get("kp") or {} for rec in records.values()]
    points = iter(float_rows([v for kp in kps for v in kp.values()], 3, StreamFormatError,
                             (f"frame {i}: keypoint '{name}'" for i, kp in zip(records, kps) for name in kp)))
    frames = tuple(
        HandPoseFrame(timestamp=t, pose=pose, shape=HandShapeParams(shape),
                      observed_keypoints={name: next(points) for name in kp} if kp else None)
        for t, pose, shape, kp in zip(times, poses, shapes, kps)
    )
    if s0 is not None:
        s0 = HandShapeParams(s0)
    metadata = {k: v for k, v in header.items() if k not in ("format", "rate_hz", "s0", "sigma")}
    return HandPoseStream(frames=frames, rate_hz=header["rate_hz"], s0=s0, sigma=sigma, metadata=metadata)


def stream_to_text(stream: HandPoseStream) -> str:
    """Canonical serialization; read + re-serialize is byte-stable."""
    header = {"format": FORMAT_VERSION, "rate_hz": stream.rate_hz}
    if stream.s0 is not None:
        header["s0"] = [float(v) for v in stream.s0.beta]
    if stream.sigma is not None:
        header["sigma"] = [float(v) for v in stream.sigma]
    header.update(stream.metadata)
    out = [_dump_line(header)]
    for frame in stream.frames:
        rec = {
            "t": float(frame.timestamp),
            "pose": [float(v) for v in frame.pose],
            "shape": [float(v) for v in frame.shape.beta],
        }
        if frame.observed_keypoints is not None:
            rec["kp"] = {k: [float(x) for x in v] for k, v in sorted(frame.observed_keypoints.items())}
        out.append(_dump_line(rec))
    return "\n".join(out) + "\n"


def write_stream(stream: HandPoseStream, path: str | Path):
    atomic_write_text(path, stream_to_text(stream))


# ---------------------------------------------------------------------------
# Wrist solving: 3D-3D rigid alignment (orthogonal Procrustes)
# ---------------------------------------------------------------------------

def _align(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rotations, translations, RMS residuals and collinearity flags aligning
    each (K, 3) point set of a (B, K, 3) stack onto its observed counterpart,
    with one stacked SVD."""
    src_mean = src.mean(axis=1)
    dst_mean = dst.mean(axis=1)
    cross = np.swapaxes(src - src_mean[:, None], 1, 2) @ (dst - dst_mean[:, None])
    u, s, vt = np.linalg.svd(cross)
    # Points spanning a plane give rank 2; a line gives rank 1, which leaves
    # the rotation about that line free.
    collinear = s[:, 1] <= CONDITIONING_TOL * np.maximum(s[:, 0], 1e-300)
    v, ut = np.swapaxes(vt, 1, 2), np.swapaxes(u, 1, 2)
    # v @ diag(1, 1, d) @ u.T with d = +-1 gives a proper rotation.
    diag = np.ones((len(v), 1, 3))
    diag[:, 0, 2] = np.sign(np.linalg.det(v @ ut))
    rot = (v * diag) @ ut
    trans = dst_mean - (rot @ src_mean[..., None])[..., 0]
    moved = src @ np.swapaxes(rot, 1, 2) + trans[:, None]
    residual = np.sqrt(np.mean(np.sum((moved - dst) ** 2, axis=2), axis=1))
    return rot, trans, residual, collinear


def solve_wrists(
    canonical_keypoints: dict[str, np.ndarray],
    observed_keypoints: list[dict[str, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
    """Least-squares rigid transforms T_b with T_b(canonical_b) ~ observed_b
    for B frames.

    `canonical_keypoints` maps each name to its (B, 3) positions, one row per
    frame; `observed_keypoints` holds the B frames' observations.
    Correspondences are matched by shared name, and a frame needs at least 3
    non-collinear points. Frames that share the same keypoint names are
    solved with one stacked SVD. Returns the (B, 4) proper-rotation
    quaternions, (B, 3) translations and (B,) RMS residuals in meters, and a
    {frame: message} map of the frames rejected; their rows are NaN.
    """
    n_frames = len(observed_keypoints)
    rotation, translation = np.full((n_frames, 4), np.nan), np.full((n_frames, 3), np.nan)
    residual = np.full(n_frames, np.nan)
    errors: dict[int, str] = {}
    groups: dict[tuple[str, ...], list[int]] = {}
    for b, observed in enumerate(observed_keypoints):
        names = tuple(sorted(set(canonical_keypoints) & set(observed)))
        groups.setdefault(names, []).append(b)
    for names, rows in groups.items():
        if len(names) < 3:
            errors.update(dict.fromkeys(rows, f"need at least 3 shared keypoints, got {len(names)}"))
            continue
        src = np.stack([np.asarray(canonical_keypoints[n], dtype=float)[rows] for n in names], axis=1)
        dst = np.array([[observed_keypoints[b][n] for n in names] for b in rows], dtype=float)
        rot, trans, res, collinear = _align(src, dst)
        rows = np.array(rows)
        errors.update(dict.fromkeys(rows[collinear].tolist(),
                                    "keypoint configuration is collinear; wrist rotation is ambiguous"))
        good = ~collinear
        rotation[rows[good]] = matrix_to_quat(rot[good])
        translation[rows[good]] = trans[good]
        residual[rows[good]] = res[good]
    return rotation, translation, residual, errors
