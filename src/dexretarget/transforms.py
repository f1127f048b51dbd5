"""Rigid transforms and the quaternion utilities used throughout.

Quaternions are stored (w, x, y, z) and canonicalized to w >= 0 so that equal
rotations compare equal. All rotations are right-handed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

_CONJUGATE_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Normalize to unit length and canonicalize the sign so w >= 0.

    Broadcasts over a (..., 4) stack.
    """
    q = np.asarray(q, dtype=float)
    n = np.sqrt(np.vecdot(q, q))[..., None]
    if n.size and not 1e-12 <= n.min() <= n.max() < np.inf:
        raise DataError(f"degenerate quaternion {q!r}")
    q = q / n
    return np.negative(q, out=q, where=q[..., :1] < 0.0)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product; broadcasts over (..., 4) stacks."""
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) * _CONJUGATE_SIGNS


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion; broadcasts (..., 4) to (..., 3, 3)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    rows = (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Shepperd's method; returns the canonical (w >= 0) quaternion.

    Broadcasts (..., 3, 3) to (..., 4). Each matrix takes the trace branch
    when its trace is positive, else the branch of its largest diagonal
    entry (the first on ties), and every branch's arithmetic is written out
    once, so a stacked row is bitwise a one-matrix call.
    """
    m = np.asarray(m, dtype=float)
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = np.moveaxis(m.reshape(m.shape[:-2] + (9,)), -1, 0)
    t = m00 + m11 + m22
    dx, dy, dz = m21 - m12, m02 - m20, m10 - m01
    sxy, sxz, syz = m01 + m10, m02 + m20, m12 + m21
    # Branch b leads with component b: 0.25 * s, where s = 2 * sqrt(radicand[b]);
    # its other three components are row b of the symmetric table over s.
    radicand = np.stack([t + 1.0, 1.0 + m00 - m11 - m22, 1.0 + m11 - m00 - m22, 1.0 + m22 - m00 - m11], axis=-1)
    zero = np.zeros_like(t)
    table = np.stack([
        np.stack(row, axis=-1)
        for row in ((zero, dx, dy, dz), (dx, zero, sxy, sxz), (dy, sxy, zero, syz), (dz, sxz, syz, zero))
    ], axis=-2)
    branch = np.where(t > 0, 0, 1 + np.argmax(np.diagonal(m, axis1=-2, axis2=-1), axis=-1))[..., None]
    s = np.sqrt(np.take_along_axis(radicand, branch, axis=-1)) * 2.0
    q = np.take_along_axis(table, branch[..., None], axis=-2)[..., 0, :] / s
    np.put_along_axis(q, branch, 0.25 * s, axis=-1)
    return quat_normalize(q)


def quat_from_rpy(roll, pitch, yaw) -> np.ndarray:
    """Fixed-axis XYZ (roll about x, then pitch about y, then yaw about z).

    Broadcasts: angles (...) give quaternions (..., 4).
    """
    cr, sr = np.cos(roll / 2), np.sin(roll / 2)
    cp, sp = np.cos(pitch / 2), np.sin(pitch / 2)
    cy, sy = np.cos(yaw / 2), np.sin(yaw / 2)
    q = np.stack(
        [
            cr * cp * cy + sr * sp * sy,
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
        ],
        axis=-1,
    )
    return quat_normalize(q)


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Rotation-vector (axis * angle) logarithm of a unit quaternion.

    Broadcasts over a (..., 4) stack.
    """
    q = quat_normalize(q)
    w = np.minimum(q[..., 0], 1.0)
    v = q[..., 1:]
    s = np.sqrt(np.vecdot(v, v))
    small = s < 1e-12  # small-angle limit: rotvec ~ 2 * vector part
    scale = np.where(small, 2.0, 2.0 * np.arctan2(s, w) / np.where(small, 1.0, s))
    return v * scale[..., None]


_NEXT = [1, 2, 0]
_PREV = [2, 0, 1]
# (a @ _SKEW_BASIS).reshape(3, 3) is the cross-product matrix [a]x.
_SKEW_BASIS = np.array(
    [
        [0, 0, 0, 0, 0, -1, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, -1, 0, 0],
        [0, -1, 0, 1, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)
_EYE3 = np.eye(3)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of broadcastable (..., 3) stacks.

    Same arithmetic as np.cross, without its per-call overhead on small stacks.
    """
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _axis_terms(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outer products a a^T and cross-product matrices [a]x (..., 3, 3) of axes (..., 3)."""
    outer = axis[..., :, None] * axis[..., None, :]
    skew = (axis @ _SKEW_BASIS).reshape(axis.shape[:-1] + (3, 3))
    return outer, skew


def _rodrigues(outer: np.ndarray, skew: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rotations from an axis's precomputed terms and angles shaped (..., 1, 1)."""
    c = np.cos(angle)
    s = np.sin(angle)
    # Summed in this order, each entry rounds exactly like the written-out
    # formula, e.g. c + x*x*(1-c) and x*y*(1-c) - z*s.
    return (outer * (1.0 - c) + c * _EYE3) + s * skew


def axis_angle_matrix(axis: np.ndarray, angle) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis.

    Broadcasts: axes (..., 3) and angles (...) give matrices (..., 3, 3).
    """
    axis = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return _rodrigues(*_axis_terms(axis), angle)


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (unit quaternion, w >= 0) plus translation in meters."""

    rotation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        q = quat_normalize(self.rotation)
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise DataError(f"invalid translation {self.translation!r}")
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)

    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or a stack of points (n, 3)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix().T + self.translation
