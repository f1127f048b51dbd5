from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from dexretarget import kinematics, retarget
from dexretarget.assets import asset_path, config_path, robot_path, sample_stream_path
from dexretarget.demopipe import PipelineConfig, translate
from dexretarget.errors import DataError, DescriptionError
from dexretarget.handgen import HandShapeParams, build_custom_hand
from dexretarget.kinematics import load_robot
from dexretarget.poseio import read_stream
from dexretarget.retarget import (
    KeypointMap,
    RetargetProblem,
    SolverSettings,
    read_keypoint_map,
    retarget_frame,
    retarget_gradient,
    retarget_keypoints,
    retarget_objective,
    retarget_trajectory,
    write_keypoint_map,
)

from gen_assets import allegro_doc
from helpers import planar_two_link_doc


@pytest.fixture(scope="module")
def custom_hand():
    return build_custom_hand(HandShapeParams.zeros())


@pytest.fixture(scope="module")
def self_problem(custom_hand):
    return RetargetProblem(
        source=custom_hand,
        target=custom_hand,
        keypoint_map=KeypointMap.identity(custom_hand.keypoint_names),
        alpha=0.0,
    )


def finger_doc(lengths, lo=0.0, hi=0.3):
    doc = planar_two_link_doc(*lengths)
    for joint in doc["joints"]:
        joint["limit_lower"], joint["limit_upper"] = lo, hi
    return doc


def random_pose(tree, rng, margin=0.0):
    lower, upper = tree.joint_limits()
    return rng.uniform(lower + margin, upper - margin)


def test_self_retarget_fixed_point(self_problem, custom_hand):
    rng = np.random.default_rng(0)
    q = rng.uniform(-0.4, 0.6, size=45)
    result = retarget_frame(self_problem, q, q_prev=q)
    assert result.residual < 1e-6
    assert np.abs(result.q - q).max() < 1e-6
    assert result.converged


def test_scaled_finger_matches_grid_search_oracle():
    source = load_robot(finger_doc((1.0, 1.0)))
    target = load_robot(finger_doc((2.0, 2.0)))
    problem = RetargetProblem(source, target, KeypointMap.identity(("tip",)), alpha=0.0)

    rest = np.zeros(2)
    result = retarget_frame(problem, rest, q_prev=rest)

    # Exhaustive grid over the feasible box at 1e-3 rad resolution, with an
    # independent analytic planar tip model.
    grid = np.arange(0.0, 0.3 + 1e-12, 1e-3)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    tip_x = 2 * np.cos(t1) + 2 * np.cos(t1 + t2)
    tip_y = 2 * np.sin(t1) + 2 * np.sin(t1 + t2)
    cost = (tip_x - 2.0) ** 2 + tip_y**2
    grid_min = cost.min()

    assert result.objective <= grid_min + 1e-6
    # The rest pose is optimal here; the residual is the rest-pose tip gap.
    assert result.residual == pytest.approx(2.0, abs=1e-9)
    assert result.q == pytest.approx(rest, abs=1e-9)


def test_huge_alpha_pins_solution_to_warm_start(self_problem, custom_hand):
    rng = np.random.default_rng(1)
    problem = RetargetProblem(
        source=custom_hand,
        target=custom_hand,
        keypoint_map=KeypointMap.identity(custom_hand.keypoint_names),
        alpha=1e9,
    )
    q_source = rng.uniform(-0.5, 0.5, size=45)
    q_prev = rng.uniform(-0.3, 0.3, size=45)
    result = retarget_frame(problem, q_source, q_prev)
    assert np.abs(result.q - q_prev).max() < 1e-4


def test_objective_never_exceeds_warm_start(custom_hand):
    rng = np.random.default_rng(2)
    problem = RetargetProblem(
        source=custom_hand,
        target=custom_hand,
        keypoint_map=KeypointMap.identity(custom_hand.keypoint_names),
    )
    for _ in range(10):
        q_source = rng.uniform(-0.6, 0.6, size=45)
        q_prev = rng.uniform(-0.4, 0.4, size=45)
        warm = retarget_objective(problem, q_prev, q_source, q_prev)
        result = retarget_frame(problem, q_source, q_prev)
        assert result.objective <= warm


def test_results_respect_joint_limits(custom_hand):
    rng = np.random.default_rng(3)
    target = load_robot(allegro_doc())
    problem = RetargetProblem(
        source=custom_hand,
        target=target,
        keypoint_map=KeypointMap(
            tuple((f"{f}_tip", f"{f}_tip") for f in ("thumb", "index", "middle", "ring"))
        ),
    )
    lower, upper = target.joint_limits()
    q_prev = np.clip(np.zeros(16), lower, upper)
    for _ in range(5):
        q_source = rng.uniform(-0.6, 0.8, size=45)
        result = retarget_frame(problem, q_source, q_prev)
        assert np.all(result.q >= lower - 1e-12)
        assert np.all(result.q <= upper + 1e-12)
        q_prev = result.q


def test_analytic_gradient_matches_finite_differences(custom_hand):
    rng = np.random.default_rng(4)
    target = load_robot(allegro_doc())
    problem = RetargetProblem(
        source=custom_hand,
        target=target,
        keypoint_map=KeypointMap(
            tuple((f"{f}_tip", f"{f}_tip") for f in ("thumb", "index", "middle", "ring"))
        ),
        alpha=0.01,
    )
    for _ in range(5):
        q_source = rng.uniform(-0.5, 0.5, size=45)
        q = random_pose(target, rng, margin=0.05)
        q_prev = random_pose(target, rng, margin=0.05)
        grad = retarget_gradient(problem, q, q_source, q_prev)
        fd = np.zeros_like(grad)
        h = 1e-6
        for j in range(len(q)):
            qp, qm = q.copy(), q.copy()
            qp[j] += h
            qm[j] -= h
            fd[j] = (
                retarget_objective(problem, qp, q_source, q_prev)
                - retarget_objective(problem, qm, q_source, q_prev)
            ) / (2 * h)
        denom = max(np.abs(fd).max(), 1e-9)
        assert np.abs(grad - fd).max() / denom < 1e-5


def test_objective_helpers_validate_q_prev(custom_hand):
    target = load_robot(allegro_doc())
    problem = RetargetProblem(
        source=custom_hand,
        target=target,
        keypoint_map=KeypointMap(tuple((f"{f}_tip", f"{f}_tip") for f in ("thumb", "index"))),
    )
    q = np.clip(np.zeros(16), *target.joint_limits())
    q_source = np.zeros(45)
    for helper in (retarget_objective, retarget_gradient):
        with pytest.raises(DescriptionError, match="shape"):
            helper(problem, q, q_source, np.zeros(15))
        with pytest.raises(DescriptionError, match="shape"):
            helper(problem, q, q_source[None], q)
        with pytest.raises(DescriptionError, match="non-finite"):
            helper(problem, q, q_source, np.full(16, np.nan))


def test_constant_source_trajectory_reaches_fixed_point(self_problem):
    rng = np.random.default_rng(5)
    q_const = rng.uniform(-0.3, 0.5, size=45)
    traj = np.tile(q_const, (6, 1))
    results = retarget_trajectory(self_problem, traj, q0=np.zeros(45))
    assert len(results) == 6
    for a, b in zip(results[1:-1], results[2:]):
        assert np.abs(a.q - b.q).max() < 1e-9


def test_trajectory_objectives_never_exceed_warm_start(custom_hand):
    rng = np.random.default_rng(6)
    target = load_robot(allegro_doc())
    problem = RetargetProblem(
        source=custom_hand,
        target=target,
        keypoint_map=KeypointMap(
            tuple((f"{f}_tip", f"{f}_tip") for f in ("thumb", "index", "middle", "ring"))
        ),
    )
    traj = rng.uniform(-0.2, 0.5, size=(10, 45))
    q0 = np.clip(np.zeros(16), *target.joint_limits())
    results = retarget_trajectory(problem, traj, q0)
    q_prev = q0
    for t, result in enumerate(results):
        warm = retarget_objective(problem, q_prev, traj[t], q_prev)
        assert result.objective <= warm
        assert np.isfinite(result.objective)
        q_prev = result.q


def test_smoothness_term_reduces_per_step_motion(custom_hand):
    target = load_robot(allegro_doc())
    keypoint_map = KeypointMap(
        tuple((f"{f}_tip", f"{f}_tip") for f in ("thumb", "index", "middle", "ring"))
    )
    ts = np.arange(40) / 25.0
    traj = np.zeros((40, 45))
    for f in range(5):
        curl = 0.5 * 0.5 * (1 - np.cos(2 * np.pi * 1.0 * ts))
        for seg in range(3):
            traj[:, f * 9 + seg * 3 + 1] = curl

    def max_step(alpha):
        problem = RetargetProblem(custom_hand, target, keypoint_map, alpha=alpha)
        results = retarget_trajectory(problem, traj, q0=np.clip(np.zeros(16), *target.joint_limits()))
        qs = np.stack([r.q for r in results])
        return np.abs(np.diff(qs, axis=0)).max()

    assert max_step(4e-3) <= max_step(0.0) + 1e-12


def test_unmapped_pinky_is_ignored_exactly(custom_hand):
    target = load_robot(allegro_doc())
    problem = RetargetProblem(
        source=custom_hand,
        target=target,
        keypoint_map=KeypointMap(
            tuple((f"{f}_tip", f"{f}_tip") for f in ("thumb", "index", "middle", "ring"))
        ),
    )
    rng = np.random.default_rng(7)
    q_source = rng.uniform(-0.4, 0.6, size=45)
    q = random_pose(target, rng, margin=0.05)
    q_prev = random_pose(target, rng, margin=0.05)

    base = retarget_objective(problem, q, q_source, q_prev)
    pinky = slice(36, 45)  # canonical order: thumb..pinky, 9 dof each
    for h in (1e-4, 1e-2, 0.3):
        moved = q_source.copy()
        moved[pinky] += h
        assert retarget_objective(problem, q, moved, q_prev) == base

    result = retarget_frame(problem, q_source, np.clip(np.zeros(16), *target.joint_limits()))
    assert result.converged or result.iterations == problem.settings.max_iterations


def test_more_iterations_never_worsen_the_result(self_problem, custom_hand):
    rng = np.random.default_rng(8)
    q_source = rng.uniform(-0.4, 0.5, size=45)
    q_prev = np.zeros(45)
    objectives = []
    for budget in (2, 5, 10, 25, 50, 100):
        problem = RetargetProblem(
            source=custom_hand,
            target=custom_hand,
            keypoint_map=KeypointMap.identity(custom_hand.keypoint_names),
            alpha=0.0,
            settings=SolverSettings(max_iterations=budget),
        )
        objectives.append(retarget_frame(problem, q_source, q_prev).objective)
    assert all(a >= b - 1e-15 for a, b in zip(objectives, objectives[1:]))


def test_map_file_round_trip(tmp_path):
    keypoint_map = KeypointMap((("thumb_tip", "thumb_tip"), ("index_tip", "middle_tip")))
    path = tmp_path / "pairs.map"
    write_keypoint_map(keypoint_map, path)
    assert read_keypoint_map(path) == keypoint_map


def test_map_rejects_duplicate_targets():
    with pytest.raises(DataError):
        KeypointMap((("a", "x"), ("b", "x")))


@pytest.mark.parametrize("name", ["a#b", " a", "", "a->b", 1, "a\nb", "a\u2028b", "a "],
                         ids=["comment", "leading-space", "empty", "arrow", "integer", "newline",
                              "line-separator", "trailing-space"])
def test_map_rejects_names_its_file_cannot_hold(name):
    for pair in ((name, "x"), ("x", name)):
        with pytest.raises(DataError, match="^keypoint name must be a non-empty string"):
            KeypointMap((pair,))


def test_map_stores_pairs_as_tuples(tmp_path):
    keypoint_map = KeypointMap([["a b", "c"], ("d", "e-f>")])
    assert keypoint_map.pairs == (("a b", "c"), ("d", "e-f>"))
    write_keypoint_map(keypoint_map, tmp_path / "pairs.map")
    assert read_keypoint_map(tmp_path / "pairs.map") == keypoint_map


def test_map_validates_names(custom_hand):
    target = load_robot(allegro_doc())
    with pytest.raises(DataError, match="pinky_tip"):
        RetargetProblem(
            source=custom_hand,
            target=target,
            keypoint_map=KeypointMap((("pinky_tip", "pinky_tip"),)),
        )


def test_map_names_the_tree_of_an_unknown_keypoint(custom_hand):
    target = load_robot(allegro_doc())
    with pytest.raises(DescriptionError, match=f"unknown keypoint on tree '{target.name}'.*pinky_tip"):
        RetargetProblem(custom_hand, target, KeypointMap((("index_tip", "pinky_tip"),)))
    with pytest.raises(DescriptionError, match=f"unknown keypoint on tree '{custom_hand.name}'.*wrist_tip"):
        RetargetProblem(custom_hand, target, KeypointMap((("wrist_tip", "index_tip"),)))


@pytest.mark.parametrize("fields, message", [
    ({"max_iterations": -1}, "max_iterations must be at least 1, got -1"),
    ({"max_iterations": 0}, "max_iterations must be at least 1, got 0"),
    ({"max_iterations": True}, "max_iterations must be an integer, got True"),
    ({"max_iterations": 2.0}, "max_iterations must be an integer, got 2.0"),
    ({"grad_tol": float("nan")}, "grad_tol must be a finite number, got nan"),
    ({"grad_tol": float("inf")}, "grad_tol must be a finite number, got inf"),
    ({"grad_tol": -1.0}, "grad_tol must be positive, got -1.0"),
    ({"grad_tol": 0.0}, "grad_tol must be positive, got 0.0"),
    ({"grad_tol": "1e-6"}, "grad_tol must be a finite number, got '1e-6'"),
])
def test_solver_settings_are_checked_when_built(fields, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        SolverSettings(**fields)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        PipelineConfig(robot="allegro.robot", **fields)


@pytest.mark.parametrize("alpha, message", [
    ("0.1", "alpha must be a finite number, got '0.1'"),
    (float("nan"), "alpha must be a finite number, got nan"),
    (float("inf"), "alpha must be a finite number, got inf"),
    (None, "alpha must be a finite number, got None"),
    (-1e-3, "alpha must be nonnegative, got -0.001"),
])
def test_retarget_problem_alpha_is_checked_when_built(custom_hand, alpha, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        RetargetProblem(custom_hand, custom_hand, KeypointMap.identity(("index_tip",)), alpha=alpha)


def test_warm_start_outside_bounds_rejected(custom_hand):
    target = load_robot(allegro_doc())
    problem = RetargetProblem(
        source=custom_hand,
        target=target,
        keypoint_map=KeypointMap((("index_tip", "index_tip"),)),
    )
    bad = np.full(16, 3.0)
    with pytest.raises(DataError):
        retarget_frame(problem, np.zeros(45), bad)
    # One frame at a time: a stack of source frames is not a joint vector.
    with pytest.raises(DescriptionError, match="shape"):
        retarget_frame(problem, np.zeros((2, 45)), np.clip(np.zeros(16), *target.joint_limits()))


def test_self_retarget_trajectory_tracks_source_keypoints(custom_hand):
    # Prefix of the shipped sample motion: smooth curls at 25 Hz. Deep
    # gradient tolerance because we assert task-space fidelity in meters.
    problem = RetargetProblem(
        source=custom_hand,
        target=custom_hand,
        keypoint_map=KeypointMap.identity(custom_hand.keypoint_names),
        alpha=0.0,
        settings=SolverSettings(grad_tol=1e-10),
    )
    ts = np.arange(50) / 25.0
    traj = np.zeros((50, 45))
    for f in range(5):
        curl = 0.5 * 0.5 * (1 - np.cos(2 * np.pi * 0.25 * ts + 0.3 * f))
        for seg in range(3):
            traj[:, f * 9 + seg * 3 + 1] = curl
        traj[:, f * 9 + 2] = 0.1 * np.sin(np.pi * 0.25 * ts + f)
    results = retarget_trajectory(problem, traj, q0=np.zeros(45))
    residuals = np.array([r.residual for r in results])
    assert residuals.max() < 1e-6


def bundled_problem(robot, source):
    return RetargetProblem(
        source=source,
        target=load_robot(robot_path(robot)),
        keypoint_map=read_keypoint_map(asset_path(f"maps/custom_to_{robot}.map")),
    )


@pytest.fixture(scope="module")
def sample_poses():
    return read_stream(sample_stream_path()).pose_matrix()[:40]


@pytest.mark.parametrize("robot", ["allegro", "schunk", "adroit"])
def test_trajectory_equals_chained_frames_bitwise(robot, custom_hand, sample_poses):
    problem = bundled_problem(robot, custom_hand)
    q0 = np.clip(np.zeros(problem.target.num_actuated), *problem.target.joint_limits())
    results = retarget_trajectory(problem, sample_poses, q0)
    q_prev = q0
    for t, result in enumerate(results):
        expected = retarget_frame(problem, sample_poses[t], q_prev)
        assert result.q.tobytes() == expected.q.tobytes(), t
        assert (result.residual, result.objective, result.iterations, result.converged) == (
            expected.residual, expected.objective, expected.iterations, expected.converged), t
        q_prev = expected.q


def test_one_target_fk_per_point_and_one_source_fk_per_trajectory(custom_hand, sample_poses, monkeypatch):
    problem = bundled_problem("allegro", custom_hand)
    q0 = np.clip(np.zeros(16), *problem.target.joint_limits())
    events = []
    real_poses, real_value = kinematics._link_poses, retarget._value

    def poses(tree, q):
        events.append(("fk", tree, np.array(q)))
        return real_poses(tree, q)

    def value(*args):
        events.append(("value",))
        return real_value(*args)

    monkeypatch.setattr(kinematics, "_link_poses", poses)
    monkeypatch.setattr(retarget, "_value", value)
    results = retarget_trajectory(problem, sample_poses, q0)

    source = [e[2] for e in events if e[0] == "fk" and e[1] is custom_hand]
    assert len(source) == 1 and np.array_equal(source[0], sample_poses)
    solve = [e for e in events if not (e[0] == "fk" and e[1] is custom_hand)]
    assert all(e[0] == "value" or e[1] is problem.target for e in solve)
    evaluated, a = [], 0
    for t, result in enumerate(results):
        # Frame 0 evaluates its warm start; every later frame starts from the
        # previous frame's final point and reuses its keypoints and Jacobian.
        # The warm start is valued once, then each objective probe costs one
        # target FK valued right after it, and accepted iterates reuse their
        # probe's poses. So a frame's events are split off by its probes.
        warm = 1 if t == 0 else 0
        frame = solve[a:a + warm + 1 + 2 * result.probes]
        a += len(frame)
        points = [e[2][0] for e in frame if e[0] == "fk"]
        kinds = [e[0] for e in frame]
        assert kinds == ["fk"] * warm + ["value"] + ["fk", "value"] * result.probes
        probes = sum(e[0] == "value" for e in frame) - 1
        assert len(points) == warm + probes
        assert len(points) == warm + result.probes
        if t == 0:
            assert np.array_equal(points[0], q0)
        assert len(points) >= warm + result.iterations
        evaluated += points
    assert a == len(solve)
    # No point is evaluated twice across the whole trajectory.
    assert len({q.tobytes() for q in evaluated}) == len(evaluated)


def test_solve_restores_the_callers_errstate(self_problem, monkeypatch):
    # The solver enters _SOLVE_ERRSTATE once per trajectory; the caller's
    # floating-point error handling is back after it returns and after it raises.
    def handler(err, flag):
        pass

    traj = np.full((3, 45), 0.2)
    with np.errstate(over="raise", divide="warn", under="ignore", invalid="ignore", call=handler):
        before = np.geterr(), np.geterrcall()
        retarget_trajectory(self_problem, traj, q0=np.zeros(45))
        assert (np.geterr(), np.geterrcall()) == before
        monkeypatch.setattr(retarget, "_linear_solve", lambda a, b: np.full_like(b, np.nan))
        with pytest.raises(DescriptionError, match="^frame 0: .*non-finite"):
            retarget_trajectory(self_problem, traj, q0=np.zeros(45))
        assert (np.geterr(), np.geterrcall()) == before


def test_a_frame_converged_at_its_warm_start_owns_its_q(self_problem):
    # A constant source: after the first frame, frames converge where they
    # start, yet each frame's q is its own array, not the previous frame's.
    results = retarget_trajectory(self_problem, np.full((4, 45), 0.2), q0=np.zeros(45))
    still = [t for t in range(1, 4) if results[t].iterations == 0 and results[t].converged]
    assert still
    for t in still:
        assert results[t].q.tobytes() == results[t - 1].q.tobytes()
    for t in range(1, 4):
        assert not np.shares_memory(results[t].q, results[t - 1].q)


@pytest.mark.parametrize("robot", ["allegro", "schunk", "adroit"])
def test_reported_objective_is_retarget_objective(robot, custom_hand, monkeypatch):
    # One function values every point, so the objective a frame reports is
    # bitwise retarget_objective at its q, which builds no Jacobian.
    problem = bundled_problem(robot, custom_hand)
    poses = read_stream(sample_stream_path()).pose_matrix()
    q_prev = np.clip(np.zeros(problem.target.num_actuated), *problem.target.joint_limits())
    results = retarget_trajectory(problem, poses, q_prev)
    jacobians, real_jacobian = [], kinematics._keypoint_jacobian_t

    def jacobian(*args):
        jacobians.append(args)
        return real_jacobian(*args)

    monkeypatch.setattr(kinematics, "_keypoint_jacobian_t", jacobian)
    mismatched = []
    for t, result in enumerate(results):
        if retarget_objective(problem, result.q, poses[t], q_prev) != result.objective:
            mismatched.append(t)
        q_prev = result.q
    assert (mismatched, len(jacobians)) == ([], 0)


# Gauss-Newton iterations and objective probes summed over the 200 frames of
# the bundled sample stream, recorded with the solver whose probe summed the
# keypoint distances in a Python loop. A change in how a probe's value or a
# gradient rounds, or in the step rules, moves these counts.
SAMPLE_STREAM_SOLVER_WORK = {"allegro": (655, 655), "schunk": (410, 410), "adroit": (389, 389)}


@pytest.mark.parametrize("robot, mode", [("allegro", "position"), ("schunk", "torque"), ("adroit", "position")])
def test_sample_stream_solver_work_is_unchanged(robot, mode):
    stream = read_stream(sample_stream_path())
    config = replace(PipelineConfig.from_file(config_path(robot)), action_mode=mode)
    demo = translate(stream, config)
    work = (demo.provenance["gn_iterations"], demo.provenance["gn_probes"])
    assert work == SAMPLE_STREAM_SOLVER_WORK[robot]


@pytest.mark.parametrize("robot", ["allegro", "schunk", "adroit"])
def test_reported_objective_rounds_as_a_keypoint_loop(robot, custom_hand, sample_poses):
    # A frame that took a step reports its last probe's value: each squared
    # keypoint distance is a 3-vector dot product, added in map order.
    problem = bundled_problem(robot, custom_hand)
    names = [t for _, t in problem.keypoint_map.pairs]
    q_prev = np.clip(np.zeros(problem.target.num_actuated), *problem.target.joint_limits())
    targets = problem.source_points(sample_poses)
    results = retarget_trajectory(problem, sample_poses, q_prev)
    stepped = 0
    for t, result in enumerate(results):
        if result.iterations:
            positions, _ = kinematics.keypoint_jacobians(problem.target, result.q, names)
            sq_sum = 0.0
            for k, name in enumerate(names):
                diff = positions[name] - targets[t, k]
                sq_sum += float(diff @ diff)
            value = sq_sum + problem.alpha * float(np.sum((result.q - q_prev) ** 2))
            assert (result.objective, result.residual) == (value, float(np.sqrt(sq_sum / len(names)))), t
            stepped += 1
        q_prev = result.q
    assert stepped > len(results) // 2


def test_retarget_keypoints_matches_trajectory_and_checks_points(custom_hand, sample_poses):
    problem = bundled_problem("allegro", custom_hand)
    q0 = np.clip(np.zeros(16), *problem.target.joint_limits())
    points = problem.source_points(sample_poses[:10])
    expected = retarget_trajectory(problem, sample_poses[:10], q0)
    results = retarget_keypoints(problem, points, q0)
    assert [r.q.tobytes() for r in results] == [r.q.tobytes() for r in expected]
    with pytest.raises(DataError, match="shape"):
        retarget_keypoints(problem, points[:, :-1], q0)
    bad = points.copy()
    bad[3, 0, 1] = np.inf
    with pytest.raises(DataError, match="non-finite"):
        retarget_keypoints(problem, bad, q0)
    with pytest.raises(DataError, match="initial guess"):
        retarget_keypoints(problem, points, q0 + 10.0)


def test_nonfinite_source_frame_is_named(self_problem):
    traj = np.zeros((6, 45))
    traj[4, 7] = np.nan
    with pytest.raises(DataError, match="^frame 4: .*non-finite"):
        retarget_trajectory(self_problem, traj, q0=np.zeros(45))
    with pytest.raises(DescriptionError, match="trajectory has shape"):
        retarget_trajectory(self_problem, traj[0], q0=np.zeros(45))


@pytest.mark.parametrize("n", [16, 20, 22])
def test_linear_solve_is_np_linalg_solve_bitwise(n):
    # The solver calls the gufunc behind np.linalg.solve directly, under its
    # own errstate; a numpy whose private gufunc changes fails here.
    rng = np.random.default_rng(n)
    for _ in range(20):
        jac_t = rng.normal(size=(n, 15))
        normal = jac_t @ jac_t.T
        normal.reshape(-1)[::n + 1] += rng.uniform(1e-12, 1.0)
        rhs = rng.normal(size=n)
        with np.errstate(**retarget._SOLVE_ERRSTATE):
            step = retarget._linear_solve(normal, rhs)
        assert step.tobytes() == np.linalg.solve(normal, rhs).tobytes()
    with np.errstate(**retarget._SOLVE_ERRSTATE), pytest.raises(np.linalg.LinAlgError):
        retarget._linear_solve(np.zeros((n, n)), np.ones(n))


def test_nonfinite_candidate_step_raises_not_rejects(self_problem, monkeypatch):
    monkeypatch.setattr(retarget, "_linear_solve", lambda a, b: np.full_like(b, np.nan))
    q_source = np.full(45, 0.2)
    with pytest.raises(DescriptionError, match="^frame 0: .*non-finite"):
        retarget_trajectory(self_problem, q_source[None], q0=np.zeros(45))


def test_singular_solves_stall_at_the_warm_start(self_problem, monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(retarget, "_linear_solve", singular)
    q_prev = np.zeros(45)
    result = retarget_frame(self_problem, np.full(45, 0.2), q_prev)
    assert np.array_equal(result.q, q_prev)
    assert (result.iterations, result.probes, result.converged) == (1, 0, False)


def test_rejected_probes_stall_at_the_damping_cap(self_problem, monkeypatch):
    value, calls = retarget._value, []

    def rejecting(*args):
        calls.append(args)
        out = value(*args)
        return out if len(calls) == 1 else (np.inf, *out[1:])  # only the warm start is finite

    monkeypatch.setattr(retarget, "_value", rejecting)
    q_prev = np.zeros(45)
    result = retarget_frame(self_problem, np.full(45, 0.2), q_prev)
    assert np.array_equal(result.q, q_prev)
    assert (result.iterations, result.probes, result.converged) == (1, 21, False)
