from __future__ import annotations

import numpy as np
import pytest

from dexretarget.errors import DataError, StreamFormatError
from dexretarget.handgen import HandShapeParams
from dexretarget.poseio import (
    HandPoseFrame,
    HandPoseStream,
    calibrate,
    read_stream,
    solve_wrists,
    write_stream,
)
from dexretarget.transforms import RigidTransform, quat_from_rpy

from helpers import almost_equal, compose, inverse


def make_frame(t, pose_fill=0.0, shape=None, kp=None):
    return HandPoseFrame(
        timestamp=t,
        pose=np.full(45, pose_fill),
        shape=HandShapeParams(shape if shape is not None else np.zeros(10)),
        observed_keypoints=kp,
    )


def make_stream(n=20, rate=25.0, **kwargs):
    frames = tuple(make_frame(i / rate, pose_fill=0.01 * i) for i in range(n))
    return HandPoseStream(frames=frames, rate_hz=rate, **kwargs)


# --- stream I/O -------------------------------------------------------------

def test_stream_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    frames = []
    for i in range(30):
        kp = {"thumb_tip": rng.normal(size=3), "index_tip": rng.normal(size=3)}
        frames.append(
            HandPoseFrame(i * 0.04, rng.normal(scale=0.3, size=45), HandShapeParams(rng.normal(size=10)), kp)
        )
    stream = HandPoseStream(tuple(frames), 25.0, s0=HandShapeParams.zeros(), sigma=np.full(10, 0.01))
    path = tmp_path / "s.jsonl"
    write_stream(stream, path)
    first = path.read_bytes()
    write_stream(read_stream(path), path)
    assert path.read_bytes() == first


def test_read_stream_reports_rate(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(make_stream(n=100, rate=25.0), path)
    stream = read_stream(path)
    assert stream.rate_hz == 25.0
    assert len(stream.frames) == 100


def test_null_kp_reads_as_no_keypoints(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(make_stream(n=5), path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-1] + ', "kp": null}'
    path.write_text("\n".join(lines) + "\n")
    assert read_stream(path).frames[1].observed_keypoints is None


def test_duplicate_timestamp_cites_frame_index(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(make_stream(n=10), path)
    lines = path.read_text().splitlines()
    lines[4] = lines[3]  # frame 3 gets frame 2's timestamp
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StreamFormatError, match="frame 3"):
        read_stream(path)


def test_wrong_pose_length_rejected(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(make_stream(n=5), path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"pose": [', '"pose": [9.9, ')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StreamFormatError):
        read_stream(path)


def test_bad_format_version_rejected(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(make_stream(n=5), path)
    text = path.read_text().replace("dexstream/1", "dexstream/9")
    path.write_text(text)
    with pytest.raises(StreamFormatError, match="dexstream"):
        read_stream(path)


def test_stream_needs_two_frames():
    with pytest.raises(StreamFormatError):
        HandPoseStream(frames=(make_frame(0.0),), rate_hz=25.0)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), "25", True])
def test_stream_rate_must_be_a_finite_number(rate):
    frames = (make_frame(0.0), make_frame(0.04))
    with pytest.raises(StreamFormatError, match="rate_hz must be a finite number"):
        HandPoseStream(frames=frames, rate_hz=rate)


def test_stream_rate_is_stored_as_a_float():
    assert make_stream(n=2, rate=25).rate_hz == 25.0
    assert type(make_stream(n=2, rate=25).rate_hz) is float


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_stream_timestamps_must_be_finite(bad, at):
    # A NaN compares false both ways, so a pairwise order test alone lets it
    # through, and write_stream then writes a file that read_stream rejects.
    times = [0.0, 0.04, 0.08]
    times[at] = bad
    with pytest.raises(StreamFormatError, match=f"^frame {at}: t must be a finite number"):
        HandPoseStream(tuple(make_frame(t) for t in times), 25.0)


@pytest.mark.parametrize("key, value", [
    ("object_pose", [float("nan"), 0, 0, 0, 0, 0, 0]),
    ("object_pose", [1, 2]),
    ("object_pose", "abc"),
    ("object_pose", None),
    ("object_pose", [1, 0, 0, 0, 0, 0, "0"]),
    ("target_position", [0.0, float("inf"), 0.0]),
    ("target_position", [0, 0, 0, 0]),
    ("target_position", {"x": 0}),
])
def test_stream_header_fields_are_checked_when_built(key, value):
    width = {"object_pose": 7, "target_position": 3}[key]
    with pytest.raises(StreamFormatError, match=f"^{key} must be {width} finite numbers$"):
        make_stream(n=3, metadata={key: value})


@pytest.mark.parametrize("kwargs, field", [
    ({"sigma": np.r_[np.full(9, 0.01), np.inf]}, "sigma"),
    ({"metadata": {"format": "x"}}, "'format'"),
    ({"metadata": {"rate_hz": 50.0}}, "'rate_hz'"),
    ({"metadata": {"s0": [0.0] * 10}}, "'s0'"),
    ({"metadata": {"sigma": [1.0] * 10}}, "'sigma'"),
], ids=["sigma-inf", "metadata-format", "metadata-rate_hz", "metadata-s0", "metadata-sigma"])
def test_stream_rejects_what_its_file_could_not_hold(kwargs, field):
    # Each would otherwise be written into a file that read_stream rejects.
    with pytest.raises(StreamFormatError, match=field):
        make_stream(n=3, **kwargs)


@pytest.mark.parametrize("metadata", [{"x": float("nan")}, {1: "a"}, {"x": (1, 2)}, {"x": np.zeros(2)}],
                         ids=["nan", "int-key", "tuple", "array"])
def test_stream_metadata_must_read_back_unchanged(metadata):
    # Each would otherwise be written as a header that reads back unequal,
    # or (the array) fail in the writer or in the stream's sha256.
    with pytest.raises(StreamFormatError, match="^metadata must be a JSON object that reads back unchanged"):
        make_stream(n=3, metadata=metadata)


def test_stream_s0_is_checked_as_the_file_checks_it(tmp_path):
    listed = make_stream(n=3, s0=[0.5] * 10)
    assert isinstance(listed.s0, HandShapeParams)
    np.testing.assert_array_equal(listed.s0.beta, np.full(10, 0.5))
    write_stream(listed, tmp_path / "s.jsonl")
    np.testing.assert_array_equal(read_stream(tmp_path / "s.jsonl").s0.beta, listed.s0.beta)
    for s0 in (np.zeros(10), "0000000000", [0.0] * 9, [0.0] * 9 + [float("nan")]):
        with pytest.raises(StreamFormatError, match="^s0 must be 10 finite numbers$"):
            make_stream(n=3, s0=s0)


def test_stream_holds_read_only_columns():
    kp = {"b": np.array([1.0, 2.0, 3.0]), "a": np.array([4.0, 5.0, 6.0])}
    frames = (make_frame(0.0, kp=kp), make_frame(0.04), make_frame(0.08, kp={"c": np.zeros(3)}))
    stream = HandPoseStream(frames, 25.0)
    assert stream.keypoint_names == ("a", "b", "c")
    assert stream.kp_mask.tolist() == [[True, True, False], [False, False, False], [False, False, True]]
    assert stream.kp[0].tolist() == [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]
    assert stream.t.shape == (3,) and stream.pose.shape == (3, 45) and stream.shape.shape == (3, 10)
    for column in (stream.t, stream.pose, stream.shape, stream.kp, stream.kp_mask):
        assert not column.flags.writeable
    with pytest.raises(AttributeError):
        stream.rate_hz = 30.0


def test_frames_view_builds_records_on_demand():
    frames = (make_frame(0.0, kp={"a": np.ones(3)}), make_frame(0.04), make_frame(0.08))
    view = HandPoseStream(frames, 25.0).frames
    assert len(view) == 3 and view[1].observed_keypoints is None
    assert view[0].observed_keypoints["a"].tolist() == [1.0, 1.0, 1.0]
    assert view[-1].timestamp == 0.08 and [f.timestamp for f in view[1:]] == [0.04, 0.08]
    assert isinstance(view[:2], tuple) and len(view[:2]) == 2
    with pytest.raises(IndexError):
        view[3]


def test_read_stream_clamps_shapes_once(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(make_stream(n=3), path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace('"shape": [0.0, 0.0', '"shape": [7.5, -6.0')
    path.write_text("\n".join(lines) + "\n")
    stream = read_stream(path)
    assert stream.shape[1, :3].tolist() == [5.0, -5.0, 0.0]
    assert stream.frames[1].shape.beta[:2].tolist() == [5.0, -5.0]
    write_stream(stream, path)
    assert '"shape": [5.0, -5.0' in path.read_text().splitlines()[2]


# --- calibration ------------------------------------------------------------

def test_calibrate_constant_shapes_hits_variance_floor():
    s = np.linspace(-0.5, 0.5, 10)
    s0, sigma = calibrate(np.tile(s, (12, 1)))
    assert s0.beta == pytest.approx(s, abs=1e-15)
    assert sigma == pytest.approx(np.full(10, 1e-6))


def test_calibrate_two_point_distribution_variance():
    d = np.linspace(0.1, 1.0, 10)
    s0, sigma = calibrate(np.array([((-1) ** i) * d for i in range(20)]))
    assert s0.beta == pytest.approx(np.zeros(10), abs=1e-12)
    assert sigma == pytest.approx(d**2, rel=1e-12)


def test_calibrate_requires_ten_frames():
    with pytest.raises(DataError):
        calibrate(np.zeros((3, 10)))


def test_calibrate_is_permutation_invariant():
    rng = np.random.default_rng(4)
    shapes = rng.normal(size=(15, 10))
    s0a, va = calibrate(shapes)
    s0b, vb = calibrate(shapes[rng.permutation(15)])
    assert s0a.beta == pytest.approx(s0b.beta, abs=1e-12)
    assert va == pytest.approx(vb, rel=1e-9)


# --- wrist solving ----------------------------------------------------------

def canonical_points(rng=None, n=5):
    rng = rng or np.random.default_rng(7)
    return {f"p{i}": rng.uniform(-0.1, 0.1, size=3) for i in range(n)}


def solve_one(canonical, observed):
    """solve_wrists on a one-frame stack of the keypoints both name: the
    transform (None if the frame is rejected), the RMS residual and the
    {frame: message} map."""
    names = sorted(set(canonical) & set(observed))
    rotation, translation, residual, errors = solve_wrists(
        np.array([[canonical[n] for n in names]], dtype=float).reshape(1, len(names), 3),
        np.array([[observed[n] for n in names]], dtype=float).reshape(1, len(names), 3),
        np.ones((1, len(names)), dtype=bool))
    return None if errors else RigidTransform(rotation[0], translation[0]), residual[0], errors


def test_identity_when_observed_equals_canonical():
    pts = canonical_points()
    transform, residual, _ = solve_one(pts, pts)
    assert residual == pytest.approx(0.0, abs=1e-12)
    assert almost_equal(transform, RigidTransform(), tol=1e-9)


def test_recovers_random_rigid_transform():
    rng = np.random.default_rng(11)
    for _ in range(25):
        pts = canonical_points(rng)
        truth = RigidTransform(quat_from_rpy(*rng.uniform(-np.pi, np.pi, 3)), rng.uniform(-1, 1, 3))
        observed = {k: truth.apply(v) for k, v in pts.items()}
        got, residual, _ = solve_one(pts, observed)
        assert residual < 1e-9
        assert np.abs(got.matrix() - truth.matrix()).max() < 1e-9
        assert got.translation == pytest.approx(truth.translation, abs=1e-9)
        assert np.linalg.det(got.matrix()) == pytest.approx(1.0, abs=1e-9)


def test_noisy_recovery_monte_carlo():
    sigma = 1e-3
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        pts = canonical_points(rng, n=5)
        truth = RigidTransform(quat_from_rpy(*rng.uniform(-np.pi, np.pi, 3)), rng.uniform(-0.5, 0.5, 3))
        observed = {k: truth.apply(v) + rng.normal(scale=sigma, size=3) for k, v in pts.items()}
        got, residual, _ = solve_one(pts, observed)
        if residual > 3 * sigma or np.linalg.norm(got.translation - truth.translation) > 5e-3:
            failures += 1
    assert failures == 0


def test_fewer_than_three_points_rejected():
    pts = canonical_points()
    two = {k: pts[k] for k in list(pts)[:2]}
    _, residual, errors = solve_one(two, two)
    assert errors == {0: "need at least 3 shared keypoints, got 2"} and np.isnan(residual)


def test_collinear_points_rejected():
    line = {f"p{i}": np.array([0.02 * i, 0.0, 0.0]) for i in range(5)}
    _, residual, errors = solve_one(line, line)
    assert list(errors) == [0] and "collinear" in errors[0] and np.isnan(residual)


def test_equivariance_under_common_pre_rotation():
    rng = np.random.default_rng(21)
    pts = canonical_points(rng)
    truth = RigidTransform(quat_from_rpy(0.3, -0.2, 0.8), np.array([0.1, 0.2, -0.3]))
    observed = {k: truth.apply(v) for k, v in pts.items()}
    g = RigidTransform(quat_from_rpy(*rng.uniform(-1, 1, 3)), rng.uniform(-1, 1, 3))

    moved_src = {k: g.apply(v) for k, v in pts.items()}
    moved_dst = {k: g.apply(v) for k, v in observed.items()}
    got, _, _ = solve_one(moved_src, moved_dst)
    conjugated = compose(compose(g, truth), inverse(g))
    assert np.abs(got.matrix() - conjugated.matrix()).max() < 1e-9
    assert got.translation == pytest.approx(conjugated.translation, abs=1e-9)


def test_returned_transform_is_a_local_cost_minimum():
    rng = np.random.default_rng(31)
    pts = canonical_points(rng)
    observed = {k: v + rng.normal(scale=5e-3, size=3) for k, v in pts.items()}
    got, _, _ = solve_one(pts, observed)

    def cost(transform):
        return sum(np.sum((transform.apply(v) - observed[k]) ** 2) for k, v in pts.items())

    base = cost(got)
    eps = 1e-5
    for _ in range(40):
        drot = rng.normal(scale=eps, size=3)
        dtrans = rng.normal(scale=eps, size=3)
        perturbed = compose(RigidTransform(quat_from_rpy(*drot), dtrans), got)
        assert cost(perturbed) >= base - 1e-15
