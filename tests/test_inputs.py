"""The input policy: every reader turns a malformed file into a DexError.

Each reader gets a valid file with one JSON value replaced by a value of
the wrong kind, the file with bytes that are not UTF-8, and a directory in
its place. Only DexError subclasses and FileNotFoundError may escape a
reader; through the CLI, nothing prints a traceback. Guards keep every
file read and write inside errors.py, where the policy lives, and a write
that fails at its last step leaves the file it replaces as it was.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from dexretarget.assets import asset_path, robot_path, sample_stream_path
from dexretarget.cli import main
from dexretarget.dapg import DapgConfig, demos_from_expert, train
from dexretarget.demopipe import Demonstration, PipelineConfig, read_config_object, read_demo, write_demo
from dexretarget.errors import DataError, DexError, atomic_write_text
from dexretarget.handgen import FINGERS, FingerSpec, HandShapeParams, HandTemplate, load_template
from dexretarget.kinematics import load_robot, tree_to_document, write_robot
from dexretarget.poseio import HandPoseFrame, HandPoseStream, read_stream, stream_to_text, write_stream
from dexretarget.retarget import KeypointMap, read_keypoint_map, write_keypoint_map

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src" / "dexretarget"
# The replacements: a numeric string, a boolean, null, empty containers, a
# nested list, an integer too large for a float, non-finite and negative numbers.
REPLACEMENTS = ["0.5", True, None, [], {}, [[1.0, 2.0]], 10**400, float("nan"), float("inf"), -1]
FUZZ = settings(max_examples=40, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


def _training_config(path):
    return DapgConfig(**read_config_object(path, DapgConfig, "training config"))


READERS = {
    "robot": load_robot,
    "template": load_template,
    "stream": read_stream,
    "demo": read_demo,
    "keypoint-map": read_keypoint_map,
    "pipeline-config": PipelineConfig.from_file,
    "training-config": _training_config,
}


def _stream_text(frames: int) -> str:
    stream = read_stream(sample_stream_path())
    return stream_to_text(HandPoseStream(stream.frames[:frames], stream.rate_hz))


def _demo_text(tmp_dir: Path) -> str:
    path = tmp_dir / "expert.demo"
    write_demo(demos_from_expert(1, seed=0)[0], path)
    return path.read_text()


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict[str, list]:
    """Each reader's valid file as a list of lines: JSON values, or raw text for the keypoint map."""
    tmp_dir = tmp_path_factory.mktemp("valid")
    documents = {
        "robot": robot_path("allegro").read_text(),
        "template": asset_path("hand_template.json").read_text(),
        "stream": _stream_text(12),
        "demo": _demo_text(tmp_dir),
        "pipeline-config": json.dumps({"robot": str(robot_path("allegro")),
                                       "keypoint_map": str(asset_path("maps/custom_to_allegro.map")),
                                       "alpha": 0.004, "action_mode": "position"}),
        "training-config": json.dumps({**asdict(DapgConfig()), "hidden": [4], "iterations": 1,
                                       "batch_trajectories": 2, "bc_epochs": 1, "value_epochs": 1}),
    }
    lines = {kind: [json.loads(line) for line in (text.splitlines() if kind in ("stream", "demo") else [text])]
             for kind, text in documents.items()}
    lines["keypoint-map"] = asset_path("maps/custom_to_allegro.map").read_text().splitlines()
    return lines


def _paths(value, prefix=()):
    """The key paths of value and of everything nested in it."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, prefix + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


def _write(path: Path, lines: list):
    path.write_text("\n".join(line if isinstance(line, str) else json.dumps(line) for line in lines) + "\n")


def _mutated(data, lines: list, kind: str) -> list:
    """lines with one JSON value, or for the keypoint map one line, replaced."""
    paths = [(i,) for i in range(len(lines))] if kind == "keypoint-map" else list(_paths(lines))[1:]
    path = data.draw(st.sampled_from(paths), label="path")
    return _replaced(lines, path, data.draw(st.sampled_from(REPLACEMENTS), label="value"))


@pytest.mark.parametrize("kind", READERS)
@FUZZ
@given(data=st.data())
def test_reader_raises_only_documented_errors(kind, data, valid, tmp_path):
    path = tmp_path / f"{kind}.input"
    _write(path, _mutated(data, valid[kind], kind))
    with contextlib.suppress(DexError, FileNotFoundError):
        READERS[kind](path)


@pytest.mark.parametrize("kind", READERS)
@pytest.mark.parametrize("damage", ["not-utf8", "directory"])
def test_unreadable_file_is_a_data_error(kind, damage, valid, tmp_path):
    path = tmp_path / f"{kind}.input"
    if damage == "directory":
        path.mkdir()
    else:
        _write(path, valid[kind])
        path.write_bytes(path.read_bytes() + "é".encode("latin-1"))
    with pytest.raises(DataError, match="cannot read"):
        READERS[kind](path)


@pytest.mark.parametrize("kind", READERS)
def test_valid_files_still_read(kind, valid, tmp_path):
    """The fuzz inputs start valid, so each error the fuzz sees comes from its one replacement."""
    path = tmp_path / f"{kind}.input"
    _write(path, valid[kind])
    READERS[kind](path)


def _cli_argv(kind: str, path: Path, valid: dict, tmp_path: Path) -> list[str]:
    """A quick command that reads the file `path` as input `kind`."""
    def written(name: str, kind: str) -> str:
        _write(tmp_path / name, valid[kind])
        return str(tmp_path / name)

    if kind == "robot":
        return ["fk", "--robot", str(path)]
    if kind == "template":
        (tmp_path / "shape.json").write_text(json.dumps({"beta": [0.0] * 10}))
        return ["gen-hand", "--shape", str(tmp_path / "shape.json"), "--template", str(path),
                "--out", str(tmp_path / "o.robot")]
    if kind in ("training-config", "demo"):
        argv = ["train", "--out", str(tmp_path / "run"),
                "--config", str(path) if kind == "training-config" else written("train.json", "training-config")]
        if kind == "demo":
            (tmp_path / "demos").mkdir(exist_ok=True)
            path.replace(tmp_path / "demos" / "bad.demo")
            argv += ["--demos", str(tmp_path / "demos")]
        return argv
    stream = str(path) if kind == "stream" else written("stream.jsonl", "stream")
    config = str(path) if kind == "pipeline-config" else written("config.json", "pipeline-config")
    if kind == "keypoint-map":
        config_doc = {**valid["pipeline-config"][0], "keypoint_map": str(path)}
        (tmp_path / "config.json").write_text(json.dumps(config_doc))
    return ["translate", "--stream", stream, "--config", config, "--out", str(tmp_path / "o.demo")]


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_cli_never_prints_a_traceback(data, valid, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    kind = data.draw(st.sampled_from(sorted(READERS)), label="kind")
    path = tmp_path / f"{kind}.input"
    damage = data.draw(st.sampled_from(["replace", "not-utf8", "directory"]), label="damage")
    if damage == "directory":
        path.mkdir()
    else:
        _write(path, _mutated(data, valid[kind], kind) if damage == "replace" else valid[kind])
        if damage == "not-utf8":
            path.write_bytes(b"\xff" + path.read_bytes())
    argv = _cli_argv(kind, path, valid, tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    # A replacement may leave the file valid (a pose angle of -1), which exits 0.
    assert code in ((0, 1, 2, 3) if damage == "replace" else (2,)), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_translate_to_an_unwritable_output_exits_1(tmp_path, capsys):
    (tmp_path / "stream.jsonl").write_text(_stream_text(12))
    out = tmp_path / "allegro.demo"
    out.mkdir()  # the output path is a directory
    code = main(["translate", "--stream", str(tmp_path / "stream.jsonl"),
                 "--config", str(asset_path("configs/allegro.json")), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "error: " in err and "Traceback" not in err


def test_translate_all_writes_the_robots_after_an_unwritable_output(tmp_path, capsys):
    # Configs run in name order: adroit, allegro, schunk. Allegro's output is
    # a directory; it is reported, and schunk is still translated and written.
    (tmp_path / "stream.jsonl").write_text(_stream_text(12))
    out_dir = tmp_path / "demos"
    (out_dir / "allegro.demo").mkdir(parents=True)
    code = main(["translate-all", "--stream", str(tmp_path / "stream.jsonl"),
                 "--configs", str(asset_path("configs")), "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "allegro: error: " in err and "Traceback" not in err
    assert [read_demo(out_dir / f"{name}.demo").robot for name in ("adroit", "schunk")] == ["adroit", "schunk"]
    assert (out_dir / "allegro.demo").is_dir()


def _calls(tree: ast.AST, methods: set[str], functions: set[tuple[str, str]]) -> list[str]:
    """Calls in a module of a method named in `methods` or a `module.function` in `functions`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, owner = node.func.attr, node.func.value
            if attr in methods or (isinstance(owner, ast.Name) and (owner.id, attr) in functions):
                found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
    return found


FILE_READS = ({"read_text"}, {("json", "load"), ("json", "loads")})
FILE_WRITES = ({"write_text", "write_bytes"}, {("np", "savez"), ("np", "savez_compressed"), ("os", "replace")})


def _check_only_errors_module_calls(calls):
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "errors.py" in modules and len(modules) > 10
    offenders = {str(p.relative_to(SRC)): _calls(ast.parse(p.read_text()), *calls)
                 for p in modules if p.name != "errors.py"}
    assert {name: found for name, found in offenders.items() if found} == {}
    assert _calls(ast.parse((SRC / "errors.py").read_text()), *calls)


def test_only_errors_module_reads_files():
    _check_only_errors_module_calls(FILE_READS)


def test_only_errors_module_writes_files():
    _check_only_errors_module_calls(FILE_WRITES)


def test_only_poseio_names_frame_records():
    """The pipeline works on a stream's columns: no module but poseio names
    HandPoseFrame or reads a `frames` attribute."""
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "poseio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if ((isinstance(node, ast.Name) and node.id == "HandPoseFrame")
                    or (isinstance(node, ast.alias) and node.name == "HandPoseFrame")
                    or (isinstance(node, ast.Attribute) and node.attr in ("HandPoseFrame", "frames"))):
                offenders.setdefault(str(path.relative_to(SRC)), []).append(node.lineno)
    assert offenders == {}


def test_only_kinematics_builds_trees():
    """A tree is built only from its description document: no module but
    kinematics constructs a KinematicTree."""
    builders = {"KinematicTree"}

    def calls(path: Path) -> list[int]:
        return [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) in builders]

    offenders = {str(path.relative_to(SRC)): calls(path) for path in sorted(SRC.rglob("*.py"))
                 if path != SRC / "kinematics.py"}
    assert {name: lines for name, lines in offenders.items() if lines} == {}
    assert calls(SRC / "kinematics.py")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_SHAPE = st.lists(_FINITE, min_size=10, max_size=10).map(lambda beta: HandShapeParams(np.array(beta)))
_KEYPOINTS = st.none() | st.dictionaries(st.sampled_from(["index_tip", "thumb_tip", "wrist", "é"]),
                                         st.lists(_FINITE, min_size=3, max_size=3).map(np.array))


@st.composite
def _streams(draw) -> HandPoseStream:
    """Streams of 2-6 frames whose keypoint name sets differ and have gaps."""
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=6))
    times = np.cumsum(steps) + draw(st.floats(min_value=-1e3, max_value=1e3))
    frames = [HandPoseFrame(float(t), np.array(draw(st.lists(_FINITE, min_size=45, max_size=45))), draw(_SHAPE),
                            draw(_KEYPOINTS)) for t in times]
    metadata = draw(st.fixed_dictionaries({}, optional={
        "object_pose": st.lists(_FINITE, min_size=7, max_size=7),
        "target_position": st.lists(_FINITE, min_size=3, max_size=3),
        "operator": st.text(max_size=8),
    }))
    return HandPoseStream(frames, draw(_POSITIVE), s0=draw(st.none() | _SHAPE),
                          sigma=draw(st.none() | st.lists(_POSITIVE, min_size=10, max_size=10)), metadata=metadata)


@FUZZ
@given(stream=_streams())
def test_accepted_streams_round_trip(stream, tmp_path):
    """Whatever HandPoseStream accepts, write_stream writes, read_stream reads
    back with equal columns, and a re-write reproduces byte for byte."""
    path = tmp_path / "s.jsonl"
    write_stream(stream, path)
    first = path.read_bytes()
    back = read_stream(path)
    for column in ("t", "pose", "shape", "kp", "kp_mask", "sigma"):
        np.testing.assert_array_equal(getattr(back, column), getattr(stream, column))
    assert back.keypoint_names == stream.keypoint_names
    assert (back.rate_hz, back.metadata) == (stream.rate_hz, stream.metadata)
    assert (back.s0 is None) == (stream.s0 is None)
    if stream.s0 is not None:
        np.testing.assert_array_equal(back.s0.beta, stream.s0.beta)
    write_stream(back, path)
    assert path.read_bytes() == first


# Values that a constructor must check: non-finite, negative, zero, huge,
# too large for a float, and a boolean.
_BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1e300, 10**400, True]
_UNIT = st.floats(min_value=-1.0, max_value=1.0)


def _vector(n: int):
    return st.lists(_UNIT, min_size=n, max_size=n)


def _leaf(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _with_flaw(data, doc):
    """doc, or doc with one of its numbers replaced by a bad one."""
    numbers = [path for path in _paths(doc) if path and isinstance(_leaf(doc, path), (int, float))]
    if not data.draw(st.booleans(), label="flawed"):
        return doc
    return _replaced(doc, data.draw(st.sampled_from(numbers), label="path"),
                     data.draw(st.sampled_from(_BAD_NUMBERS), label="value"))


@st.composite
def _robot_docs(draw) -> dict:
    """Chains of 1-4 joints in the style of helpers.random_chain_doc: random
    origins, unit or fixed joints, ordered limits, diagonal inertias."""
    links = [{"id": "base", "parent": None, "origin_xyz": draw(_vector(3)), "origin_rpy": draw(_vector(3))}]
    joints, inertials = [], []
    for i in range(draw(st.integers(1, 4))):
        lid = f"l{i}"
        links.append({"id": lid, "parent": links[-1]["id"], "origin_xyz": draw(_vector(3)),
                      "origin_rpy": draw(_vector(3))})
        lower, upper = sorted(draw(_vector(2)))
        joints.append({"child_link": lid, "type": "fixed"} if draw(st.booleans()) else
                      {"child_link": lid, "type": "revolute", "axis": draw(st.permutations([0.0, 0.0, 1.0])),
                       "limit_lower": lower, "limit_upper": upper, "damping": abs(draw(_UNIT))})
        ixx, iyy, izz = map(abs, draw(_vector(3)))
        inertials.append({"link": lid, "mass": abs(draw(_UNIT)), "com": draw(_vector(3)),
                          "inertia_6": [ixx, 0.0, 0.0, iyy, 0.0, izz]})
    keypoints = [{"name": "tip", "link": links[-1]["id"], "offset": draw(_vector(3))}]
    return {"name": "chain", "links": links, "joints": joints, "inertials": inertials, "keypoints": keypoints}


@FUZZ
@given(data=st.data())
def test_accepted_robot_documents_round_trip(data, tmp_path):
    """Whatever load_robot accepts, write_robot writes and load_robot reads back
    as the same tree, and a re-write reproduces byte for byte; whatever it
    rejects raises a DataError."""
    doc = _with_flaw(data, data.draw(_robot_docs(), label="doc"))
    try:
        tree = load_robot(doc)
    except DataError:
        return
    path = tmp_path / "chain.robot"
    write_robot(tree, path)
    first = path.read_bytes()
    back = load_robot(path)
    assert tree_to_document(back) == tree_to_document(tree)
    for key in ("_origin_rot", "_origin_trans", "joint_axes", "_kp_offsets"):
        assert getattr(back, key).tobytes() == getattr(tree, key).tobytes()
    write_robot(back, path)
    assert path.read_bytes() == first


@st.composite
def _demo_fields(draw) -> dict:
    def layout():
        return draw(st.lists(st.tuples(st.text(max_size=4), st.integers(0, 3)), min_size=1, max_size=3))

    def rows(n: int, layout):
        width = sum(w for _, w in layout)
        return np.array(draw(st.lists(_FINITE, min_size=n * width, max_size=n * width))).reshape(n, width)

    steps = draw(st.integers(1, 4))
    state_layout, action_layout = layout(), layout()
    provenance = draw(st.dictionaries(st.text(max_size=4), st.integers(-9, 9) | st.text(max_size=4) | _FINITE,
                                      max_size=3))
    return {"robot": draw(st.text(max_size=8)), "task": draw(st.text(max_size=8)),
            "dt": draw(st.floats(min_value=1e-6, max_value=1e3)), "state_layout": state_layout,
            "action_layout": action_layout, "states": rows(steps, state_layout),
            "actions": rows(steps - 1, action_layout), "provenance": provenance}


_BAD_DEMO_FIELDS = {
    "robot": st.sampled_from([7, None, b"x"]),
    "task": st.sampled_from([7, None, ["t"]]),
    "dt": st.sampled_from(_BAD_NUMBERS + ["0.1", None]),
    "state_layout": st.sampled_from([[["a", -1]], [["a", 1.5]], [["a", True]], [["a"]], [[1, 1]], {"a": 1}, "a"]),
    "action_layout": st.sampled_from([[["a", -1]], [["a", 2, 0]], None]),
    "states": st.sampled_from([np.full((2, 2), np.nan), np.zeros(3), np.full((1, 1), np.inf), [["a"]]]),
    "actions": st.sampled_from([np.full((1, 2), -np.inf), np.zeros((9, 9)), [[10**400]]]),
    "provenance": st.sampled_from([None, [], "p"]),
}


@FUZZ
@given(data=st.data())
def test_accepted_demonstrations_round_trip(data, tmp_path):
    """Whatever Demonstration accepts, write_demo writes and read_demo reads
    back equal, and a re-write reproduces byte for byte; whatever it rejects
    raises a DataError."""
    fields = data.draw(_demo_fields(), label="fields")
    flaw = data.draw(st.none() | st.sampled_from(sorted(_BAD_DEMO_FIELDS)), label="flaw")
    if flaw is not None:
        fields[flaw] = data.draw(_BAD_DEMO_FIELDS[flaw], label="value")
    try:
        demo = Demonstration(**fields)
    except DataError:
        return
    path = tmp_path / "d.demo"
    write_demo(demo, path)
    first = path.read_bytes()
    back = read_demo(path)
    for key in ("robot", "task", "dt", "state_layout", "action_layout", "provenance"):
        assert getattr(back, key) == getattr(demo, key)
    for key in ("states", "actions"):
        assert getattr(back, key).shape == getattr(demo, key).shape
        assert getattr(back, key).tobytes() == getattr(demo, key).tobytes()
    write_demo(back, path)
    assert path.read_bytes() == first


_MAP_NAMES = st.sampled_from(["a", "b", "c d", "é", "x-y>"])
# Names a map file cannot hold, and names built from their characters.
_BAD_MAP_NAMES = st.sampled_from(["a#b", " a", "", "a->b", 1, "a\nb", "a\u2028b", "b\t"])
_ANY_MAP_NAMES = _BAD_MAP_NAMES | st.text(alphabet="ab -#>\n\u2028", max_size=4)


@FUZZ
@given(data=st.data())
def test_accepted_keypoint_maps_round_trip(data, tmp_path):
    """Whatever KeypointMap accepts, write_keypoint_map writes and
    read_keypoint_map reads back equal, and a re-write reproduces byte for
    byte; whatever it rejects raises a DataError."""
    pairs = data.draw(st.lists(st.lists(_MAP_NAMES, min_size=2, max_size=2), max_size=4), label="pairs")
    if pairs and data.draw(st.booleans(), label="flawed"):
        pair = data.draw(st.sampled_from(pairs), label="pair")
        pair[data.draw(st.integers(0, 1), label="side")] = data.draw(_ANY_MAP_NAMES, label="name")
    try:
        keypoint_map = KeypointMap(tuple(pairs))
    except DataError:
        return
    path = tmp_path / "m.map"
    write_keypoint_map(keypoint_map, path)
    first = path.read_bytes()
    back = read_keypoint_map(path)
    assert back == keypoint_map
    write_keypoint_map(back, path)
    assert path.read_bytes() == first


@FUZZ
@given(data=st.data())
def test_template_constructors_raise_only_data_errors(data):
    """HandTemplate has no writer: whatever it and FingerSpec reject raises a DataError."""
    doc = _with_flaw(data, json.loads(asset_path("hand_template.json").read_text()))
    with contextlib.suppress(DataError):
        fingers = {name: FingerSpec(**doc["fingers"][name]) for name in FINGERS}
        HandTemplate(doc["palm_box"], fingers, doc["length_basis"])


def _train(path: Path):
    train(None, DapgConfig(iterations=1, batch_trajectories=2, bc_epochs=0, checkpoint_every=1), out_dir=path.parent)


# Each writer, keyed by the name of a file it writes.
WRITERS = {
    "sample.jsonl": lambda path: write_stream(read_stream(sample_stream_path()), path),
    "allegro.robot": lambda path: write_robot(load_robot(robot_path("allegro")), path),
    "allegro.map": lambda path: write_keypoint_map(read_keypoint_map(asset_path("maps/custom_to_allegro.map")), path),
    "expert.demo": lambda path: write_demo(demos_from_expert(1, seed=0)[0], path),
    "curve.csv": _train,
    "policy.npz": _train,
    "checkpoint_0001.npz": _train,
}


@pytest.mark.parametrize("name", list(WRITERS))
def test_failed_replace_leaves_the_old_file(tmp_path, monkeypatch, name):
    path = tmp_path / name
    path.write_bytes(b"old bytes")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == path:
            raise OSError("injected replace failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="injected"):
        WRITERS[name](path)
    assert path.read_bytes() == b"old bytes"
    assert not path.with_name(name + ".tmp").exists()
    monkeypatch.setattr(os, "replace", real_replace)
    WRITERS[name](path)
    assert path.read_bytes() != b"old bytes"


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    real_write = Path.write_bytes

    def partial_write(self, data):
        real_write(self, data[:3])
        raise OSError("injected write failure")

    monkeypatch.setattr(Path, "write_bytes", partial_write)
    with pytest.raises(OSError, match="injected"):
        atomic_write_text(tmp_path / "x.csv", "a,b,c\n")
    assert list(tmp_path.iterdir()) == []
