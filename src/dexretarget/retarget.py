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
warm start, every probe and retarget_objective alike. An accepted probe's
link frames give the transposed Jacobian Jt (N, 3K) at the new iterate, and
its residuals the gradient 2 Jt @ res + 2 alpha step; its value is the new
objective. The normal matrix is Jt @ Jt.T; _linear_solve, the gufunc that
np.linalg.solve wraps, solves the damped system under _SOLVE_ERRSTATE, which
retarget_keypoints enters once per trajectory. A point takes tens of
microseconds, nearly all of it the fixed cost of some 80 NumPy calls on
arrays of 16-22 elements, so the loop saves calls: no solve wrapper, gathers
by take, and in kinematics a fixed joint's angle is its column times 0, not
an appended zero column. A trajectory's source keypoints are the mapped rows
of the source hand's keypoints, from one batched forward kinematics.
retarget_keypoints owns the whole trajectory's solve: each frame after the
first starts from the previous frame's final point, whose keypoints and
Jacobian it reuses as plain locals.

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


def _value(
    problem: RetargetProblem, points: np.ndarray, targets: np.ndarray, q: np.ndarray, q_prev: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Objective value at a point from its keypoints (K, 3), without the Jacobian.

    Also returns what the point's gradient needs: the residual sum of
    squares, the keypoint residuals (3K,) and the step q - q_prev. Each
    keypoint's squared distance is the dot product diff[k] @ diff[k] (a
    stacked vecdot makes the same dot call), and the distances are added in
    keypoint order.
    """
    diff = points - targets
    sq_sum = float(np.add.accumulate(np.vecdot(diff, diff))[-1])
    step = q - q_prev
    value = sq_sum + problem.alpha * float(np.add.reduce(step * step))
    return value, sq_sum, diff.reshape(-1), step


def _gradient(jac_t: np.ndarray, res: np.ndarray, step: np.ndarray, two_alpha: float) -> np.ndarray:
    """Objective gradient from the transposed Jacobian (N, 3K), keypoint
    residuals (3K,), step q - q_prev and 2 * alpha."""
    return 2.0 * (jac_t @ res) + two_alpha * step


def _value_at(problem: RetargetProblem, q, q_source, q_prev) -> tuple:
    """Validate one source frame and the target joint vectors q and q_prev;
    the target's link frames at q, then the _value of their keypoints."""
    targets = problem.source_points(problem.source.check_q(q_source, batch=False))
    q = problem.target.check_q(q, batch=False)
    q_prev = problem.target.check_q(q_prev, batch=False)
    frames = kinematics._link_poses(problem.target, q[None])[0]
    points = kinematics._keypoint_positions(frames, problem._target_slots, problem._target_offsets)
    return (frames, points, *_value(problem, points, targets, q, q_prev))


def retarget_objective(problem: RetargetProblem, q, q_source, q_prev) -> float:
    """The per-frame objective value (used by tests and diagnostics)."""
    return _value_at(problem, q, q_source, q_prev)[2]


def retarget_gradient(problem: RetargetProblem, q, q_source, q_prev) -> np.ndarray:
    """Analytic gradient of the per-frame objective."""
    frames, points, _, _, res, step = _value_at(problem, q, q_source, q_prev)
    jac_t = kinematics._keypoint_jacobian_t(problem.target, frames, points, problem._jacobian_zeros)
    return _gradient(jac_t, res, step, 2.0 * problem.alpha)


def retarget_frame(
    problem: RetargetProblem, q_source: np.ndarray, q_prev: np.ndarray
) -> RetargetResult:
    """Solve one frame of the retargeting objective from a warm start: the
    one-frame case of retarget_trajectory."""
    return retarget_trajectory(problem, np.asarray(q_source, dtype=float)[None], q_prev)[0]


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# np.linalg.solve's gufunc for one right-hand side; a singular matrix raises under _SOLVE_ERRSTATE.
_linear_solve = np.linalg._umath_linalg.solve1
_SOLVE_ERRSTATE = dict(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
_OUTWARD = np.array([[1.0], [-1.0]])  # the gradient's sign that pushes out of each row of the bounds


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

    Each frame is a damped GN from the previous frame's final point (frame 0
    from q0 clipped into the box), whose keypoints and Jacobian carry over;
    only the first warm start costs an FK, and every probe costs one. The
    Levenberg damping, carried across iterations, falls threefold (to no less
    than 1e-12) on an accepted probe and rises tenfold on a rejected one (a
    singular system, a step that projects to nothing or a failed Armijo
    test); a rejection that lifts it past MAX_DAMPING ends the frame.
    """
    q0 = problem.target.check_q(q0, batch=False)
    bounds = np.array(problem.target.joint_limits())  # (2, N): lower and upper limits
    lower, upper = bounds
    if np.any(q0 < lower - 1e-9) or np.any(q0 > upper + 1e-9):
        raise DataError("initial guess lies outside the target joint limits")
    targets = np.asarray(source_points, dtype=float)
    if targets.ndim != 3 or targets.shape[1:] != (len(problem.keypoint_map.pairs), 3):
        raise DataError(f"source keypoints have shape {targets.shape}, expected "
                        f"(T, {len(problem.keypoint_map.pairs)}, 3)")
    if not np.all(np.isfinite(targets)):
        raise DataError("source keypoints contain non-finite values")

    tree, slots, offsets = problem.target, problem._target_slots, problem._target_offsets
    zeros = problem._jacobian_zeros
    alpha, two_alpha, grad_tol = problem.alpha, 2.0 * problem.alpha, problem.settings.grad_tol
    results: list[RetargetResult] = []
    t = 0
    try:
        with np.errstate(**_SOLVE_ERRSTATE):
            x = np.clip(q0, lower, upper)
            frames = kinematics._link_poses(tree, x[None])[0]
            points = kinematics._keypoint_positions(frames, slots, offsets)
            jac_t = kinematics._keypoint_jacobian_t(tree, frames, points, zeros)
            for t, frame_targets in enumerate(targets):
                q_prev, x = x, x.copy()
                f, sq_sum, res, step = _value(problem, points, frame_targets, x, q_prev)
                g = _gradient(jac_t, res, step, two_alpha)
                if not math.isfinite(f):
                    raise NumericalError("non-finite retargeting objective at warm start")

                lam = 1e-6  # adaptive Levenberg damping, carried across iterations
                converged = False
                iterations = probes = 0
                for iterations in range(1, problem.settings.max_iterations + 1):
                    # Optimality measure: how far the projected gradient step moves us.
                    if np.maximum.reduce(np.abs(np.minimum(np.maximum(x - g, lower), upper) - x)) <= grad_tol:
                        converged = True
                        iterations -= 1
                        break

                    # Coordinates pinned at a bound with the gradient pushing
                    # outward stay fixed this iteration; solving the damped
                    # system on the free subspace keeps the step from being
                    # clipped into uselessness. The mask is built only when
                    # some coordinate sits on a bound.
                    free = None
                    on_bound = np.equal(x, bounds)
                    if np.logical_or.reduce(on_bound, axis=None):
                        pinned = on_bound & np.greater(g * _OUTWARD, 0.0)
                        if np.logical_or.reduce(pinned, axis=None):
                            free = ~np.logical_or.reduce(pinned)
                    jac_f, g_f = (jac_t, g) if free is None else (jac_t.compress(free, axis=0), g.compress(free))
                    nf = len(g_f)
                    normal = jac_f @ jac_f.T  # (nf, nf); damped in place below
                    damped = normal.reshape(-1)[::nf + 1]
                    undamped = damped.copy()
                    scale = max(1.0, float(np.add.reduce(undamped)) / max(nf, 1))
                    rhs = -0.5 * g_f

                    # Damped Gauss-Newton probes under the damping rule above,
                    # until one is accepted (it keeps its link frames for the
                    # next Jacobian) or the damping passes MAX_DAMPING.
                    while lam <= MAX_DAMPING:
                        np.add(undamped, alpha + lam * scale, out=damped)
                        try:
                            d = _linear_solve(normal, rhs)
                        except np.linalg.LinAlgError:
                            d = np.zeros(nf)  # no step: rejected below
                        if free is not None:
                            d_f, d = d, np.zeros(len(x))
                            d[free] = d_f
                        cand = np.minimum(np.maximum(x + d, lower), upper)
                        delta = cand - x
                        size = np.maximum.reduce(np.abs(delta))
                        # x is finite, so a non-finite candidate shows as a
                        # non-finite step; it is a DescriptionError, as
                        # check_q would raise.
                        if not math.isfinite(size):
                            raise DescriptionError("joint vector contains non-finite entries")
                        if size > 0.0:
                            frames = kinematics._link_poses(tree, cand[None])[0]
                            cand_points = kinematics._keypoint_positions(frames, slots, offsets)
                            probes += 1
                            f_cand, sq_cand, res, step = _value(problem, cand_points, frame_targets, cand, q_prev)
                            if math.isfinite(f_cand) and f_cand <= f + ARMIJO_C * float(g.dot(delta)):
                                lam = max(lam / 3.0, 1e-12)
                                break
                        lam *= 10.0
                    else:
                        break  # no acceptable descent step: numerical stationarity
                    # The probe's value is the objective at the new iterate;
                    # only its gradient needs the Jacobian.
                    x, f, sq_sum, points = cand, f_cand, sq_cand, cand_points
                    jac_t = kinematics._keypoint_jacobian_t(tree, frames, points, zeros)
                    g = _gradient(jac_t, res, step, two_alpha)

                results.append(RetargetResult(q=x, residual=math.sqrt(sq_sum / len(frame_targets)), objective=f,
                                              iterations=iterations, converged=converged, probes=probes))
    except (DataError, NumericalError) as exc:
        raise type(exc)(f"frame {t}: {exc}") from exc
    return results
