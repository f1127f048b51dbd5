"""Keypoint-matching motion retargeting between two hands.

Per frame we minimize, over the target joint vector q within its box limits,

    sum_i ||f_i_target(q) - f_i_source||^2 + alpha * ||q - q_prev||^2

where the f_i are forward-kinematics positions of mapped keypoint pairs and
q_prev is the previous frame's solution (warm start and smoothness anchor).
The solver is a projected damped Gauss-Newton descent: Levenberg-regularized
steps on the free coordinates (bound-pinned coordinates with an outward
gradient stay fixed each iteration), accepted under a monotone Armijo test
after projection onto the joint-limit box. It is deterministic and never
returns an iterate whose objective exceeds the warm start's.

Each point the solver visits costs one forward kinematics of the target (its
4x4 link frames) and one gather for the mapped keypoints, and one function
(_value) turns those keypoints and the joint step into the objective: for the
warm start, every probe and retarget_objective alike. The link frames
computed to probe a step are kept, and if the step is accepted the transposed
Jacobian Jt (N, 3K) at the new iterate is built from them and the gradient
2 Jt @ res + 2 alpha step from the probe's residuals; the probe's value is
the new objective. The normal matrix is Jt @ Jt.T. A trajectory's source
keypoints are the mapped rows of the source hand's keypoints, from one batched
forward kinematics, and each frame after the first starts from the previous
frame's final point, whose keypoints and Jacobian it reuses.

Exactness: on the bundled robots the solver takes the same decisions
(iterations, probes, accepted steps) with these kernels as with the
rotation-and-origin reference kernels in tests/helpers.py, and its joint
solutions agree with theirs to 1e-12. A rerun gives bitwise the same results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kinematics
from .errors import (DataError, DescriptionError, NumericalError, atomic_write_text, check_number_fields, must_be,
                     read_text)
from .kinematics import KinematicTree

DEFAULT_ALPHA = 4e-3
ARMIJO_C = 1e-4
MAX_DAMPING = 1e14  # a probe rejected past this damping stalls the solve


@dataclass(frozen=True)
class KeypointMap:
    """Ordered (source keypoint, target keypoint) name pairs, stored as
    tuples. A name must be one its file can hold: a non-empty string without
    '#', '->', a line break or surrounding whitespace."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.pairs:
            raise DataError("keypoint map is empty")
        for pair in self.pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise DataError(must_be("keypoint map entry", "a (source, target) pair", pair))
            for name in pair:
                if not (isinstance(name, str) and name.splitlines() == [name] and name.strip() == name
                        and "#" not in name and "->" not in name):
                    raise DataError(must_be("keypoint name", "a non-empty string without '#', '->', "
                                            "line breaks or surrounding whitespace", name))
        object.__setattr__(self, "pairs", tuple(map(tuple, self.pairs)))
        targets = [t for _, t in self.pairs]
        if len(set(targets)) != len(targets):
            raise DataError("keypoint map has duplicate targets")

    @classmethod
    def identity(cls, names) -> "KeypointMap":
        return cls(tuple((n, n) for n in names))


def read_keypoint_map(path: str | Path) -> KeypointMap:
    """Parse a map file: one 'source -> target' pair per line, '#' comments."""
    pairs = []
    for lineno, raw in enumerate(read_text(path, DataError, "keypoint map").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise DataError(f"{path}:{lineno}: expected 'source -> target'")
        src, dst = (part.strip() for part in line.split("->", 1))
        if not src or not dst:
            raise DataError(f"{path}:{lineno}: empty keypoint name")
        pairs.append((src, dst))
    return KeypointMap(tuple(pairs))


def write_keypoint_map(keypoint_map: KeypointMap, path: str | Path):
    lines = [f"{s} -> {t}" for s, t in keypoint_map.pairs]
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class SolverSettings:
    max_iterations: int = 100
    grad_tol: float = 1e-6       # infinity norm of the projected gradient step

    def __post_init__(self):
        check_number_fields(self, reals=("grad_tol",), integers=("max_iterations",))
        if self.grad_tol <= 0:
            raise DataError(f"grad_tol must be positive, got {self.grad_tol!r}")
        if self.max_iterations < 1:
            raise DataError(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass(frozen=True)
class RetargetProblem:
    source: KinematicTree
    target: KinematicTree
    keypoint_map: KeypointMap
    alpha: float = DEFAULT_ALPHA
    settings: SolverSettings = field(default_factory=SolverSettings)
    # Read-only caches, filled by __post_init__, in map order: the mapped
    # keypoints' rows on the source tree, their link slots and homogeneous
    # offsets (K, 4, 1) on the target, and the zero mask (N, 3K) of the
    # target's transposed Jacobian (kinematics._jacobian_zeros).
    _source_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _target_slots: np.ndarray = field(init=False, repr=False, compare=False)
    _target_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _jacobian_zeros: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_number_fields(self, reals=("alpha",))
        if self.alpha < 0:
            raise DataError(f"alpha must be nonnegative, got {self.alpha!r}")
        pairs = self.keypoint_map.pairs
        source_rows = np.array(kinematics._keypoint_rows(self.source, [s for s, _ in pairs]))
        target_rows = np.array(kinematics._keypoint_rows(self.target, [t for _, t in pairs]))
        caches = {
            "_source_rows": source_rows,
            "_target_slots": self.target._kp_slots[target_rows],
            "_target_offsets": self.target._kp_offsets[target_rows],
            "_jacobian_zeros": kinematics._jacobian_zeros(self.target, target_rows),
        }
        for name, arr in caches.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def source_points(self, q_source: np.ndarray) -> np.ndarray:
        """Mapped source keypoints: (K, 3) for one joint vector, (T, K, 3) for a (T, n) stack."""
        qb, single = kinematics._as_batch(self.source, q_source)
        points = kinematics._keypoints(self.source, qb)[:, self._source_rows]
        return points[0] if single else points


@dataclass(frozen=True)
class RetargetResult:
    q: np.ndarray
    residual: float          # RMS keypoint distance, meters
    objective: float
    iterations: int
    converged: bool
    probes: int              # objective probes: target FKs, not counting the warm start's


def _target_poses(problem: RetargetProblem, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Link frames (n_links, 4, 4) and mapped keypoints (K, 3) of the target
    at q: the one FK of a point, and one gather for its keypoints."""
    frames = kinematics._link_poses(problem.target, q[None])[0]
    return frames, kinematics._keypoint_positions(frames, problem._target_slots, problem._target_offsets)


def _point(problem: RetargetProblem, poses: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Mapped keypoints (K, 3) and transposed Jacobian (N, 3K) of a point from its poses."""
    frames, points = poses
    return points, kinematics._keypoint_jacobian_t(problem.target, frames, points, problem._jacobian_zeros)


def _value(
    problem: RetargetProblem, points: np.ndarray, targets: np.ndarray, q: np.ndarray, q_prev: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Objective value at a point from its keypoints (K, 3), without the Jacobian.

    Also returns what the point's gradient needs: the residual sum of
    squares, the keypoint residuals (3K,) and the step q - q_prev. Each
    keypoint's squared distance is the dot product diff[k] @ diff[k] (a
    stacked matmul of (1, 3) rows by (3, 1) columns makes the same dot call),
    and the distances are added in keypoint order.
    """
    diff = points - targets
    sq_sum = float(np.add.accumulate(np.matmul(diff[:, None], diff[:, :, None]).reshape(-1))[-1])
    step = q - q_prev
    value = sq_sum + problem.alpha * float(np.add.reduce(step * step))
    return value, sq_sum, diff.reshape(-1), step


def _gradient(problem: RetargetProblem, jac_t: np.ndarray, res: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Objective gradient from the transposed Jacobian (N, 3K), keypoint
    residuals (3K,) and step q - q_prev."""
    return 2.0 * (jac_t @ res) + 2.0 * problem.alpha * step


def _value_at(problem: RetargetProblem, q, q_source, q_prev) -> tuple:
    """Validate one source frame and the target joint vectors q and q_prev;
    the target's poses at q (_target_poses), then their _value."""
    targets = problem.source_points(problem.source.check_q(q_source, batch=False))
    q = problem.target.check_q(q, batch=False)
    q_prev = problem.target.check_q(q_prev, batch=False)
    poses = _target_poses(problem, q)
    return (poses, *_value(problem, poses[1], targets, q, q_prev))


def retarget_objective(problem: RetargetProblem, q, q_source, q_prev) -> float:
    """The per-frame objective value (used by tests and diagnostics)."""
    return _value_at(problem, q, q_source, q_prev)[1]


def retarget_gradient(problem: RetargetProblem, q, q_source, q_prev) -> np.ndarray:
    """Analytic gradient of the per-frame objective."""
    poses, _, _, res, step = _value_at(problem, q, q_source, q_prev)
    return _gradient(problem, _point(problem, poses)[1], res, step)


def retarget_frame(
    problem: RetargetProblem, q_source: np.ndarray, q_prev: np.ndarray
) -> RetargetResult:
    """Solve one frame of the retargeting objective from a warm start: the
    one-frame case of retarget_trajectory."""
    return retarget_trajectory(problem, np.asarray(q_source, dtype=float)[None], q_prev)[0]


def _solve(
    problem: RetargetProblem, targets: np.ndarray, q_prev: np.ndarray, bounds: np.ndarray,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[RetargetResult, tuple[np.ndarray, np.ndarray]]:
    """Damped GN from q_prev (inside the box); each point costs one target FK.

    The Levenberg damping, carried across iterations, falls threefold (to no
    less than 1e-12) on an accepted probe and rises tenfold on a rejected one
    (a singular system, a step that projects to nothing or a failed Armijo
    test); a rejection that lifts it past MAX_DAMPING ends the solve.

    `bounds` (2, N) stacks the target's lower and upper joint limits.
    `start`, if given, is the keypoints and Jacobian at q_prev (from _point),
    which then costs no FK. Returns the result and the same pair at its q.
    """
    cfg = problem.settings
    n = problem.target.num_actuated
    lower, upper = bounds

    def project(x):
        return np.minimum(np.maximum(x, lower), upper)

    x = q_prev.copy()
    point = start if start is not None else _point(problem, _target_poses(problem, x))
    f, sq_sum, res, step = _value(problem, point[0], targets, x, q_prev)
    g = _gradient(problem, point[1], res, step)
    if not math.isfinite(f):
        raise NumericalError("non-finite retargeting objective at warm start")

    lam = 1e-6  # adaptive Levenberg damping, carried across iterations
    converged = False
    iterations = probes = 0
    for iterations in range(1, cfg.max_iterations + 1):
        # Optimality measure: how far the projected gradient step moves us.
        if np.maximum.reduce(np.abs(project(x - g) - x)) <= cfg.grad_tol:
            converged = True
            iterations -= 1
            break

        # Coordinates pinned at a bound with the gradient pushing outward
        # stay fixed this iteration; solving the damped system on the free
        # subspace keeps the step from being clipped into uselessness. The
        # mask is built only when some coordinate sits on a bound.
        free = None
        if (x == bounds).any():
            pinned = ((x == lower) & (g > 0)) | ((x == upper) & (g < 0))
            if pinned.any():
                free = ~pinned
        jac_f, g_f = (point[1], g) if free is None else (point[1][free], g[free])
        nf = len(g_f)
        normal = jac_f @ jac_f.T  # (nf, nf); damped in place below
        undamped, damped = normal.diagonal().copy(), normal.reshape(-1)[::nf + 1]
        scale = max(1.0, float(undamped.sum()) / max(nf, 1))
        rhs = -0.5 * g_f

        # Damped Gauss-Newton probes under the damping rule above; an
        # accepted probe keeps its poses for the next Jacobian.
        accepted = None
        while True:
            np.add(undamped, problem.alpha + lam * scale, out=damped)
            try:
                d_f = np.linalg.solve(normal, rhs)
            except np.linalg.LinAlgError:
                d_f = np.zeros(nf)  # no step: rejected below
            if free is None:
                d = d_f
            else:
                d = np.zeros(n)
                d[free] = d_f
            cand = project(x + d)
            delta = cand - x
            size = np.maximum.reduce(np.abs(delta))
            # x is finite, so a non-finite candidate shows as a non-finite
            # step; it is a DescriptionError, as check_q would raise.
            if not math.isfinite(size):
                raise DescriptionError("joint vector contains non-finite entries")
            if size > 0.0:
                poses = _target_poses(problem, cand)
                probes += 1
                f_cand, sq_cand, res, step = _value(problem, poses[1], targets, cand, q_prev)
                if math.isfinite(f_cand) and f_cand <= f + ARMIJO_C * float(g @ delta):
                    accepted = (cand, f_cand, sq_cand, res, step, poses)
                    lam = max(lam / 3.0, 1e-12)
                    break
            lam *= 10.0
            if lam > MAX_DAMPING:
                break

        if accepted is None:
            break  # no acceptable descent step: numerical stationarity
        # The probe's value is the objective at the new iterate; only its
        # gradient needs the Jacobian.
        x, f, sq_sum, res, step, poses = accepted
        point = _point(problem, poses)
        g = _gradient(problem, point[1], res, step)

    rms = float(np.sqrt(sq_sum / len(targets)))
    result = RetargetResult(q=x, residual=rms, objective=f, iterations=iterations,
                            converged=converged, probes=probes)
    return result, point


def retarget_trajectory(
    problem: RetargetProblem, source_traj: np.ndarray, q0: np.ndarray
) -> list[RetargetResult]:
    """Retarget a whole (T, n) source trajectory, warm starting frame to frame.

    Every frame's source keypoints come from one batched FK up front.
    """
    if np.ndim(source_traj) != 2:
        raise DescriptionError(f"trajectory has shape {np.shape(source_traj)}, "
                               f"expected (T, {problem.source.num_actuated})")
    return retarget_keypoints(problem, problem.source_points(source_traj), q0)


def retarget_keypoints(
    problem: RetargetProblem, source_points: np.ndarray, q0: np.ndarray
) -> list[RetargetResult]:
    """retarget_trajectory for a trajectory given as its mapped source
    keypoints (T, K, 3), in keypoint-map order.

    A frame's warm start is the previous frame's final point, so that
    point's keypoints and Jacobian carry over instead of being computed again.
    """
    q0 = problem.target.check_q(q0, batch=False)
    bounds = np.array(problem.target.joint_limits())
    lower, upper = bounds
    if np.any(q0 < lower - 1e-9) or np.any(q0 > upper + 1e-9):
        raise DataError("initial guess lies outside the target joint limits")
    targets = np.asarray(source_points, dtype=float)
    if targets.ndim != 3 or targets.shape[1:] != (len(problem.keypoint_map.pairs), 3):
        raise DataError(f"source keypoints have shape {targets.shape}, expected "
                        f"(T, {len(problem.keypoint_map.pairs)}, 3)")
    if not np.all(np.isfinite(targets)):
        raise DataError("source keypoints contain non-finite values")

    results: list[RetargetResult] = []
    q_prev, point = np.clip(q0, lower, upper), None
    for t, frame_targets in enumerate(targets):
        try:
            result, point = _solve(problem, frame_targets, q_prev, bounds, point)
        except (DataError, NumericalError) as exc:
            raise type(exc)(f"frame {t}: {exc}") from exc
        results.append(result)
        q_prev = result.q
    return results
