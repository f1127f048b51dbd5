"""Hand-pose stream ingestion and wrist-transform solving.

Stream files are line-delimited JSON (`dexstream/1`): a header object with
`format` and `rate_hz`, then one record per frame with fields `t`, `pose`
(45 angles), `shape` (10 coefficients) and optionally `kp` (named camera-frame
points). The header may also carry the task's `object_pose` (7 numbers) and
`target_position` (3 numbers). Files written by write_stream are canonical:
reading and re-writing them reproduces the bytes exactly.

A HandPoseStream holds read-only columns: `t` (T,), `pose` (T, 45), `shape`
(T, 10) clamped to +-BETA_CLAMP when built, the sorted `keypoint_names` (K)
observed in any frame, their points `kp` (T, K, 3) (zero where unobserved)
and the (T, K) mask `kp_mask`. `frames` is a view that builds HandPoseFrame
records on demand. calibrate takes (K, 10) shape rows; solve_wrists aligns
(B, K, 3) canonical and observed stacks over a (B, K) mask in one pass.
"""
from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DataError, StreamFormatError, atomic_write_text, check_json_object, finite_number, float_rows,
                     read_records)
from .handgen import BETA_CLAMP, SHAPE_DIM, HandShapeParams
from .transforms import matrix_to_quat

FORMAT_VERSION = "dexstream/1"
POSE_DIM = 45
VARIANCE_FLOOR = 1e-6
CONDITIONING_TOL = 1e-8  # second-to-first singular value ratio below which keypoints are collinear
# Known header fields of a stream and their number of entries: the object's
# pose (w, x, y, z quaternion, then position) and the task's target position.
HEADER_FIELDS = {"object_pose": 7, "target_position": 3}
# Header keys the stream writes itself; no metadata key may take their place.
RESERVED_KEYS = ("format", "rate_hz", "s0", "sigma")


@dataclass(frozen=True)
class HandPoseFrame:
    """One timestamped detector sample: a plain record that HandPoseStream checks."""

    timestamp: float
    pose: np.ndarray                     # 45 angles, customized-hand order
    shape: HandShapeParams
    observed_keypoints: dict[str, np.ndarray] | None = None


def _listed(value):
    """An array as nested lists, which float_rows' number rule takes."""
    return value.tolist() if isinstance(value, np.ndarray) else value


class HandPoseStream:
    """A timestamped frame sequence at a nominal rate and its header fields, as
    read-only columns, built from HandPoseFrame records or (read_stream) file
    records. _check validates both: what it accepts, write_stream writes and
    read_stream reads back."""

    def __init__(self, frames: Sequence[HandPoseFrame], rate_hz: float, s0: HandShapeParams | None = None,
                 sigma: np.ndarray | None = None, metadata: dict | None = None):
        records = [{"t": f.timestamp, "pose": _listed(f.pose), "shape": _listed(f.shape.beta),
                    "kp": {n: _listed(v) for n, v in (f.observed_keypoints or {}).items()}} for f in frames]
        self._check(dict(enumerate(records)), rate_hz, s0, sigma, metadata)

    @classmethod
    def _from_records(cls, *args) -> HandPoseStream:
        (stream := cls.__new__(cls))._check(*args)
        return stream

    def _check(self, records: dict[int, dict], rate_hz, s0, sigma, metadata):
        """Check frame records {i: {t, pose, shape, kp}} (frame i named by key i;
        a missing field counts as null) and the header; store them as columns.
        `s0` is None, a HandShapeParams or (as a file holds it) a list of 10
        numbers; `metadata` must read back unchanged (errors.check_json_object)."""
        if len(records) < 2:
            raise StreamFormatError("stream needs at least 2 frames")
        rate_hz = finite_number(rate_hz, StreamFormatError, "rate_hz")
        if rate_hz <= 0:
            raise StreamFormatError("rate_hz must be positive")
        index, rows = list(records), records.values()
        t = np.array([finite_number(rec.get("t"), StreamFormatError, f"frame {i}: t") for i, rec in records.items()])
        unordered = np.flatnonzero(t[1:] <= t[:-1])
        if unordered.size:
            raise StreamFormatError(f"timestamps not strictly increasing at frame {index[unordered[0] + 1]}")

        def column(key: str, width: int) -> np.ndarray:
            return float_rows([rec.get(key) for rec in rows], width, StreamFormatError,
                              (f"frame {i}: {key}" for i in index))

        pose, shape = column("pose", POSE_DIM), np.clip(column("shape", SHAPE_DIM), -BETA_CLAMP, BETA_CLAMP)
        kps = [{} if rec.get("kp") is None else rec["kp"] for rec in rows]
        for i, kp in zip(index, kps):
            if not (isinstance(kp, dict) and all(isinstance(name, str) for name in kp)):
                raise StreamFormatError(f"frame {i}: kp must be an object of named points")
        names = tuple(sorted(set().union(*kps)))
        points = float_rows([v for kp in kps for v in kp.values()], 3, StreamFormatError,
                            (f"frame {i}: keypoint '{name}'" for i, kp in zip(index, kps) for name in kp))
        at = ([b for b, kp in enumerate(kps) for _ in kp], [names.index(name) for kp in kps for name in kp])
        kp_points, kp_mask = np.zeros((len(t), len(names), 3)), np.zeros((len(t), len(names)), dtype=bool)
        kp_points[at], kp_mask[at] = points, True
        if not (s0 is None or isinstance(s0, HandShapeParams)):
            s0 = HandShapeParams(float_rows([s0], SHAPE_DIM, StreamFormatError, ["s0"])[0])
        if sigma is not None:
            sigma = float_rows([_listed(sigma)], SHAPE_DIM, StreamFormatError, ["sigma"])[0]
            if not np.all(sigma > 0):
                raise StreamFormatError("sigma must be 10 positive entries")
        metadata = dict(metadata or {})
        if clash := [key for key in RESERVED_KEYS if key in metadata]:
            raise StreamFormatError(f"metadata key {clash[0]!r} is a stream header field")
        for key, width in HEADER_FIELDS.items():
            if key in metadata:
                float_rows([metadata[key]], width, StreamFormatError, [key])
        check_json_object(metadata, StreamFormatError, "metadata")
        for array in (t, pose, shape, kp_points, kp_mask):
            array.flags.writeable = False
        vars(self).update(t=t, pose=pose, shape=shape, keypoint_names=names, kp=kp_points, kp_mask=kp_mask,
                          rate_hz=rate_hz, s0=s0, sigma=sigma, metadata=metadata)

    def __setattr__(self, name, value):
        raise AttributeError(f"HandPoseStream is read-only: cannot set {name!r}")

    @property
    def dt(self) -> float:
        return 1.0 / self.rate_hz

    @property
    def frames(self) -> _Frames:
        return _Frames(self)

    def pose_matrix(self) -> np.ndarray:
        """The read-only (T, 45) `pose` column."""
        return self.pose

    @functools.cached_property
    def sha256(self) -> str:
        """Hex SHA-256 of the canonical `dexstream/1` text, serialized once per stream."""
        return hashlib.sha256(stream_to_text(self).encode()).hexdigest()


@dataclass(frozen=True)
class _Frames(Sequence):
    """A stream's read-only frame sequence: an index builds one HandPoseFrame, a slice a tuple."""

    stream: HandPoseStream

    def __len__(self) -> int:
        return len(self.stream.t)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        s, i = self.stream, range(len(self))[index]
        kp = {name: s.kp[i, k] for k, name in enumerate(s.keypoint_names) if s.kp_mask[i, k]}
        return HandPoseFrame(float(s.t[i]), s.pose[i], HandShapeParams(s.shape[i]), kp or None)


def calibrate(shapes: np.ndarray) -> tuple[HandShapeParams, np.ndarray]:
    """Per-coordinate mean and floored population variance (n divisor) of
    K >= 10 shape rows (K, 10), such as the first K rows of a stream's `shape`."""
    if len(shapes) < 10:
        raise DataError(f"calibration needs at least 10 frames, got {len(shapes)}")
    return HandShapeParams(shapes.mean(axis=0)), np.maximum(shapes.var(axis=0), VARIANCE_FLOOR)


# ---------------------------------------------------------------------------
# Stream file I/O
# ---------------------------------------------------------------------------

def read_stream(path: str | Path) -> HandPoseStream:
    header, records = read_records(path, FORMAT_VERSION, StreamFormatError, "stream", "frame")
    metadata = {k: v for k, v in header.items() if k not in RESERVED_KEYS}
    return HandPoseStream._from_records(records, header.get("rate_hz"), header.get("s0"), header.get("sigma"),
                                        metadata)


def stream_to_text(stream: HandPoseStream) -> str:
    """Canonical serialization; read + re-serialize is byte-stable."""
    header = {"format": FORMAT_VERSION, "rate_hz": stream.rate_hz}
    if stream.s0 is not None:
        header["s0"] = stream.s0.beta.tolist()
    if stream.sigma is not None:
        header["sigma"] = stream.sigma.tolist()
    header.update(stream.metadata)
    out = [json.dumps(header)]
    for t, pose, shape, kp, seen in zip(stream.t.tolist(), stream.pose.tolist(), stream.shape.tolist(),
                                        stream.kp.tolist(), stream.kp_mask.tolist()):
        rec = {"t": t, "pose": pose, "shape": shape}
        if any(seen):
            rec["kp"] = {name: point for name, point, s in zip(stream.keypoint_names, kp, seen) if s}
        out.append(json.dumps(rec))
    return "\n".join(out) + "\n"


def write_stream(stream: HandPoseStream, path: str | Path):
    atomic_write_text(path, stream_to_text(stream))


# ---------------------------------------------------------------------------
# Wrist solving: 3D-3D rigid alignment (orthogonal Procrustes)
# ---------------------------------------------------------------------------

def _align(src: np.ndarray, dst: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rotations, translations, RMS residuals, observed-point counts and
    collinearity flags aligning each (K, 3) point set of a (B, K, 3) stack
    onto its observed counterpart with one stacked SVD. Points the (B, K)
    mask leaves out are zeroed, so every sum runs over a frame's observed
    points in column order."""
    count, seen = mask.sum(axis=1), mask[..., None]
    divisor = np.maximum(count, 1)  # keeps a frame without points finite; solve_wrists rejects it
    src, dst = np.where(seen, src, 0.0), np.where(seen, dst, 0.0)
    src_mean, dst_mean = src.sum(axis=1) / divisor[:, None], dst.sum(axis=1) / divisor[:, None]
    src_c, dst_c = (np.where(seen, x - mean[:, None], 0.0) for x, mean in ((src, src_mean), (dst, dst_mean)))
    cross = np.swapaxes(src_c, 1, 2) @ dst_c
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
    residual = np.sqrt(np.where(mask, np.sum((moved - dst) ** 2, axis=2), 0.0).sum(axis=1) / divisor)
    return rot, trans, residual, count, collinear


def solve_wrists(
    canonical: np.ndarray, observed: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
    """Least-squares rigid transforms T_b with T_b(canonical_b) ~ observed_b
    for B frames.

    `canonical` and `observed` are (B, K, 3) stacks of the same K keypoints,
    and the (B, K) `mask` marks the keypoints each frame observed; a frame
    needs at least 3 observed, non-collinear points. All frames are solved
    with one stacked SVD over their observed points in column order.
    Returns the (B, 4) proper-rotation quaternions, (B, 3) translations and
    (B,) RMS residuals in meters, and a {frame: message} map of the frames
    rejected; their rows are NaN.
    """
    rot, trans, res, count, collinear = _align(canonical, observed, mask)
    errors = {b: f"need at least 3 shared keypoints, got {n}" if n < 3 else
              "keypoint configuration is collinear; wrist rotation is ambiguous"
              for b, (n, bad) in enumerate(zip(count.tolist(), collinear.tolist())) if n < 3 or bad}
    good = (count >= 3) & ~collinear
    rotation = np.full((len(mask), 4), np.nan)
    rotation[good] = matrix_to_quat(rot[good])
    return rotation, np.where(good[:, None], trans, np.nan), np.where(good, res, np.nan), errors
