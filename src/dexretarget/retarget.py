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
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .kinematics import KinematicTree, forward_kinematics, keypoint_jacobians

log = logging.getLogger(__name__)

DEFAULT_ALPHA = 4e-3


@dataclass(frozen=True)
class KeypointMap:
    """Ordered (source keypoint, target keypoint) name pairs."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.pairs:
            raise DataError("keypoint map is empty")
        targets = [t for _, t in self.pairs]
        if len(set(targets)) != len(targets):
            raise DataError("keypoint map has duplicate targets")

    @classmethod
    def identity(cls, names) -> "KeypointMap":
        return cls(tuple((n, n) for n in names))

    def validate_against(self, source: KinematicTree, target: KinematicTree):
        for s, t in self.pairs:
            if s not in source.keypoint_names:
                raise DataError(f"source keypoint '{s}' not on tree '{source.name}'")
            if t not in target.keypoint_names:
                raise DataError(f"target keypoint '{t}' not on tree '{target.name}'")


def read_keypoint_map(path: str | Path) -> KeypointMap:
    """Parse a map file: one 'source -> target' pair per line, '#' comments."""
    pairs = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class SolverSettings:
    max_iterations: int = 100
    grad_tol: float = 1e-6       # infinity norm of the projected gradient step
    armijo_c: float = 1e-4
    max_backtracks: int = 40     # damping escalations per iteration


@dataclass(frozen=True)
class RetargetProblem:
    source: KinematicTree
    target: KinematicTree
    keypoint_map: KeypointMap
    alpha: float = DEFAULT_ALPHA
    settings: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if self.alpha < 0:
            raise DataError("alpha must be nonnegative")
        self.keypoint_map.validate_against(self.source, self.target)

    def source_points(self, q_source: np.ndarray) -> np.ndarray:
        kp = forward_kinematics(self.source, q_source)
        return np.stack([kp[s] for s, _ in self.keypoint_map.pairs])


@dataclass(frozen=True)
class RetargetResult:
    q: np.ndarray
    residual: float          # RMS keypoint distance, meters
    objective: float
    iterations: int
    converged: bool


def _evaluate(
    problem: RetargetProblem, q: np.ndarray, targets: np.ndarray, q_prev: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
    """Objective, gradient, stacked Jacobian and residual vector at q."""
    names = [t for _, t in problem.keypoint_map.pairs]
    positions, jacobians = keypoint_jacobians(problem.target, q, names)
    res = np.concatenate([positions[n] - targets[i] for i, n in enumerate(names)])
    jac = np.vstack([jacobians[n] for n in names])
    sq_sum = float(res @ res)
    value = sq_sum + problem.alpha * float(np.sum((q - q_prev) ** 2))
    grad = 2.0 * (jac.T @ res) + 2.0 * problem.alpha * (q - q_prev)
    rms = float(np.sqrt(sq_sum / len(names)))
    return value, grad, jac, res, rms


def _objective_only(
    problem: RetargetProblem, q: np.ndarray, targets: np.ndarray, q_prev: np.ndarray
) -> tuple[float, float]:
    """Objective value and RMS residual without the Jacobian (cheap probe)."""
    names = [t for _, t in problem.keypoint_map.pairs]
    kp = forward_kinematics(problem.target, q)
    sq_sum = 0.0
    for i, n in enumerate(names):
        diff = kp[n] - targets[i]
        sq_sum += float(diff @ diff)
    value = sq_sum + problem.alpha * float(np.sum((q - q_prev) ** 2))
    return value, float(np.sqrt(sq_sum / len(names)))


def _objective_and_gradient(
    problem: RetargetProblem, q: np.ndarray, targets: np.ndarray, q_prev: np.ndarray
) -> tuple[float, np.ndarray, float]:
    value, grad, _, _, rms = _evaluate(problem, q, targets, q_prev)
    return value, grad, rms


def retarget_objective(problem: RetargetProblem, q, q_source, q_prev) -> float:
    """The per-frame objective value (used by tests and diagnostics)."""
    targets = problem.source_points(np.asarray(q_source, dtype=float))
    value, _, _ = _objective_and_gradient(
        problem, np.asarray(q, dtype=float), targets, np.asarray(q_prev, dtype=float)
    )
    return value


def retarget_gradient(problem: RetargetProblem, q, q_source, q_prev) -> np.ndarray:
    """Analytic gradient of the per-frame objective."""
    targets = problem.source_points(np.asarray(q_source, dtype=float))
    _, grad, _ = _objective_and_gradient(
        problem, np.asarray(q, dtype=float), targets, np.asarray(q_prev, dtype=float)
    )
    return grad


def retarget_frame(
    problem: RetargetProblem, q_source: np.ndarray, q_prev: np.ndarray
) -> RetargetResult:
    """Solve one frame of the retargeting objective from a warm start."""
    q_source = problem.source.check_q(q_source, batch=False)
    q_prev = problem.target.check_q(q_prev, batch=False)
    lower, upper = problem.target.joint_limits()
    if np.any(q_prev < lower - 1e-9) or np.any(q_prev > upper + 1e-9):
        raise DataError("warm start lies outside the target joint limits")

    targets = problem.source_points(q_source)
    return _solve(problem, targets, np.clip(q_prev, lower, upper))


def _solve(problem: RetargetProblem, targets: np.ndarray, q_prev: np.ndarray) -> RetargetResult:
    cfg = problem.settings
    n = problem.target.num_actuated
    lower, upper = problem.target.joint_limits()

    def project(x):
        return np.clip(x, lower, upper)

    x = q_prev.copy()
    f, g, jac, _, rms = _evaluate(problem, x, targets, q_prev)
    if not np.isfinite(f):
        raise NumericalError("non-finite retargeting objective at warm start")

    lam = 1e-6  # adaptive Levenberg damping, carried across iterations
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        # Optimality measure: how far the projected gradient step moves us.
        if np.abs(project(x - g) - x).max() <= cfg.grad_tol:
            converged = True
            iterations -= 1
            break

        # Coordinates pinned at a bound with the gradient pushing outward
        # stay fixed this iteration; solving the damped system on the free
        # subspace keeps the step from being clipped into uselessness.
        free = ~(((x == lower) & (g > 0)) | ((x == upper) & (g < 0)))
        jac_f = jac[:, free]
        g_f = g[free]
        nf = int(free.sum())
        normal = jac_f.T @ jac_f
        scale = max(1.0, float(np.trace(normal)) / max(nf, 1))
        diag = np.diag_indices(nf)

        # Damped Gauss-Newton probes: a rejected step only costs one cheap
        # objective evaluation plus a reduced solve at a stiffer damping.
        accepted = None
        for _ in range(cfg.max_backtracks):
            normal_d = normal.copy()
            normal_d[diag] += problem.alpha + lam * scale
            try:
                d_f = np.linalg.solve(normal_d, -0.5 * g_f)
            except np.linalg.LinAlgError:
                lam = max(lam * 10.0, 1e-12)
                continue
            d = np.zeros(n)
            d[free] = d_f
            cand = project(x + d)
            delta = cand - x
            if np.abs(delta).max() == 0.0:
                lam *= 10.0
                if lam > 1e14:
                    break
                continue
            f_cand, rms_cand = _objective_only(problem, cand, targets, q_prev)
            if np.isfinite(f_cand) and f_cand <= f + cfg.armijo_c * float(g @ delta):
                accepted = (cand, f_cand, rms_cand)
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
            if lam > 1e14:
                break

        if accepted is None:
            # No acceptable descent step: numerical stationarity.
            converged = np.abs(project(x - g) - x).max() <= cfg.grad_tol
            break
        x, f, rms = accepted
        _, g, jac, _, _ = _evaluate(problem, x, targets, q_prev)
    else:
        iterations = cfg.max_iterations

    return RetargetResult(q=x, residual=rms, objective=f, iterations=iterations, converged=converged)


def retarget_trajectory(
    problem: RetargetProblem, source_traj: np.ndarray, q0: np.ndarray
) -> list[RetargetResult]:
    """Retarget a whole source trajectory, warm starting frame to frame."""
    q0 = problem.target.check_q(q0, batch=False)
    lower, upper = problem.target.joint_limits()
    if np.any(q0 < lower - 1e-9) or np.any(q0 > upper + 1e-9):
        raise DataError("initial guess lies outside the target joint limits")

    results: list[RetargetResult] = []
    q_prev = q0
    for t, q_source in enumerate(np.asarray(source_traj, dtype=float)):
        try:
            result = retarget_frame(problem, q_source, q_prev)
        except (DataError, NumericalError) as exc:
            raise type(exc)(f"frame {t}: {exc}") from exc
        results.append(result)
        q_prev = result.q
    log.debug(
        "retargeted %d frames onto '%s' (mean residual %.3g m)",
        len(results),
        problem.target.name,
        float(np.mean([r.residual for r in results])) if results else 0.0,
    )
    return results
