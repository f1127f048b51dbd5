from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from dexretarget.assets import asset_path, robot_path, sample_stream_path
from dexretarget.cli import main
from dexretarget.demopipe import read_demo
from dexretarget.kinematics import load_robot
from dexretarget.poseio import read_stream, write_stream

from helpers import planar_two_link_doc


@pytest.fixture()
def short_stream_file(tmp_path):
    from dexretarget.poseio import HandPoseStream

    stream = read_stream(sample_stream_path())
    short = HandPoseStream(stream.frames[:40], stream.rate_hz)
    path = tmp_path / "short.jsonl"
    write_stream(short, path)
    return path


@pytest.fixture()
def allegro_config_file(tmp_path):
    config = {
        "robot": str(robot_path("allegro")),
        "keypoint_map": str(asset_path("maps/custom_to_allegro.map")),
        "alpha": 0.004,
        "cutoff_hz": 5.0,
        "action_mode": "position",
    }
    path = tmp_path / "allegro.json"
    path.write_text(json.dumps(config))
    return path


def test_help_shows_exit_codes(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "exit codes: 0 success, 1 usage error" in out


@pytest.mark.parametrize("command", ["gen-hand", "translate", "translate-all", "train", "expert", "fk", "id"])
def test_subcommand_help_documents_exit_codes(command, capsys):
    assert main([command, "--help"]) == 0
    assert "exit codes:" in capsys.readouterr().out


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["gen-hand", "--out", "x.robot"]) == 1
    assert "usage" in capsys.readouterr().err


def test_gen_hand_zero_shape(tmp_path, capsys):
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"beta": [0.0] * 10}))
    out = tmp_path / "custom.robot"
    assert main(["gen-hand", "--shape", str(shape), "--out", str(out)]) == 0
    assert "45 actuated joints" in capsys.readouterr().err
    tree = load_robot(out)
    assert tree.num_actuated == 45


def test_gen_hand_output_usable_by_fk(tmp_path, capsys):
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"beta": [0.5] + [0.0] * 9}))
    out = tmp_path / "custom.robot"
    assert main(["gen-hand", "--shape", str(shape), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["fk", "--robot", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert {line.split()[0] for line in lines} == {
        "thumb_tip", "index_tip", "middle_tip", "ring_tip", "pinky_tip"
    }


def test_gen_hand_missing_file_exit_1(tmp_path, capsys):
    assert main(["gen-hand", "--shape", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1
    assert "--help" in capsys.readouterr().err


def test_gen_hand_bad_shape_exit_2(tmp_path, capsys):
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"beta": [0.0] * 4}))
    assert main(["gen-hand", "--shape", str(shape), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("entry", ["0.5", True, 10**400, None], ids=["numeric-string", "bool", "overflow", "null"])
def test_gen_hand_shape_entries_are_numbers(entry, tmp_path, capsys):
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"beta": [0.0] * 9 + [entry]}))
    out = tmp_path / "o.robot"
    assert main(["gen-hand", "--shape", str(shape), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error: beta must be 10 finite numbers" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("template, code", [
    ({"format": "dexhand-template/1"}, 2),
    ([1], 2),
    (None, 1),
], ids=["no-fingers", "not-object", "missing-file"])
def test_gen_hand_bad_template(template, code, tmp_path, capsys):
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"beta": [0.0] * 10}))
    path = tmp_path / "template.json"
    if template is not None:
        path.write_text(json.dumps(template))
    out = tmp_path / "o.robot"
    assert main(["gen-hand", "--shape", str(shape), "--template", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert ("data error" if code == 2 else "--help") in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("edit, element", [
    (lambda doc: doc.update(links=[1]), "links[0]"),
    (lambda doc: doc["joints"][0].update(limit_lower="abc"), "l1"),
    (lambda doc: doc["inertials"][1].update(inertia_6=5), "l1"),
    (lambda doc: doc["joints"][0].update(limit_lower="-1.5"), "l1"),
    (lambda doc: doc["joints"][1].update(damping=True), "l2"),
], ids=["link-not-object", "limit-string", "inertia-scalar", "limit-number-string", "damping-bool"])
def test_fk_malformed_robot_exit_2(edit, element, tmp_path, capsys):
    doc = planar_two_link_doc()
    edit(doc)
    path = tmp_path / "bad.robot"
    path.write_text(json.dumps(doc))
    assert main(["fk", "--robot", str(path)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"(element: {element})" in err
    assert "Traceback" not in err


def test_fk_bundled_allegro_at_zeros(capsys):
    assert main(["fk", "--robot", "allegro"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # allegro has no pinky keypoint


def test_id_pendulum_horizontal(capsys):
    assert main(["id", "--robot", "pendulum", "--q", repr(np.pi / 2)]) == 0
    torque = float(capsys.readouterr().out.strip())
    assert torque == pytest.approx(4.905, abs=1e-9)


def test_fk_wrong_vector_length_exit_2(capsys):
    assert main(["fk", "--robot", "allegro", "--q", "0.1,0.2"]) == 2


def test_translate_writes_demo_and_summary(short_stream_file, allegro_config_file, tmp_path, capsys):
    out = tmp_path / "allegro.demo"
    code = main(["translate", "--stream", str(short_stream_file),
                 "--config", str(allegro_config_file), "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "mean keypoint residual" in err
    assert "retarget=" in err
    demo = read_demo(out)
    assert demo.actions.shape[1] == 22


def test_translate_idempotent(short_stream_file, allegro_config_file, tmp_path):
    out = tmp_path / "a.demo"
    argv = ["translate", "--stream", str(short_stream_file),
            "--config", str(allegro_config_file), "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_translate_corrupt_stream_exit_2(allegro_config_file, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    good = read_stream(sample_stream_path())
    write_stream(good, bad)
    lines = bad.read_text().splitlines()
    lines[5] = lines[4]
    bad.write_text("\n".join(lines) + "\n")
    code = main(["translate", "--stream", str(bad),
                 "--config", str(allegro_config_file), "--out", str(tmp_path / "o.demo")])
    assert code == 2
    assert "frame 4" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("object_pose", "[NaN, 0, 0, 0, 0, 0, 0]"),
    ("object_pose", "[1, 2]"),
    ("object_pose", '"abc"'),
    ("target_position", "[0, Infinity, 0]"),
    ("target_position", "[0, 0]"),
])
def test_translate_bad_stream_header_field_exit_2(key, value, short_stream_file, allegro_config_file,
                                                  tmp_path, capsys):
    # Unchecked, a NaN would reach a demo that read_demo rejects, and a wrong
    # length or a string would end in a raw ValueError (exit 1).
    lines = short_stream_file.read_text().splitlines()
    lines[0] = lines[0][:-1] + f', "{key}": {value}}}'
    short_stream_file.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o.demo"
    code = main(["translate", "--stream", str(short_stream_file), "--config", str(allegro_config_file),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{key} must be" in err and "Traceback" not in err
    assert not out.exists()


def test_translate_flag_overrides_config(short_stream_file, allegro_config_file, tmp_path):
    out_a = tmp_path / "a.demo"
    out_b = tmp_path / "b.demo"
    base = ["translate", "--stream", str(short_stream_file), "--config", str(allegro_config_file)]
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + ["--out", str(out_b), "--alpha", "0.5"]) == 0
    a, b = read_demo(out_a), read_demo(out_b)
    assert not np.array_equal(a.actions, b.actions)
    assert a.provenance["config_sha256"] != b.provenance["config_sha256"]


def test_translate_all_bundled_configs(short_stream_file, tmp_path, capsys):
    configs = asset_path("configs")
    out_dir = tmp_path / "demos"
    code = main(["translate-all", "--stream", str(short_stream_file),
                 "--configs", str(configs), "--out", str(out_dir)])
    assert code == 0
    widths = {}
    for name in ("schunk", "adroit", "allegro"):
        demo = read_demo(out_dir / f"{name}.demo")
        widths[name] = demo.actions.shape[1]
    assert widths == {"schunk": 26, "adroit": 28, "allegro": 22}


@pytest.mark.parametrize(
    "bad_config, code",
    [
        ({"robot": "no_such.robot"}, 1),
        ({"robot": "broken.robot"}, 2),
        ({"robot": str(robot_path("allegro")), "max_iterations": 1, "grad_tol": 1e-30}, 3),
    ],
    ids=["missing-robot", "malformed-robot", "starved-solver"],
)
def test_translate_all_isolates_a_bad_config(bad_config, code, short_stream_file, tmp_path, capsys):
    # The bad config sorts first, so every bundled robot comes after it.
    configs = tmp_path / "configs"
    configs.mkdir()
    for config in asset_path("configs").glob("*.json"):
        doc = json.loads(config.read_text())
        doc.update({k: str((config.parent / doc[k]).resolve()) for k in ("robot", "keypoint_map")})
        (configs / config.name).write_text(json.dumps(doc))
    (configs / "broken.robot").write_text("{ not json")
    (configs / "a_bad.json").write_text(json.dumps(bad_config))
    out_dir = tmp_path / "demos"
    assert main(["translate-all", "--stream", str(short_stream_file),
                 "--configs", str(configs), "--out", str(out_dir)]) == code
    assert sorted(p.name for p in out_dir.iterdir()) == ["adroit.demo", "allegro.demo", "schunk.demo"]
    err = capsys.readouterr().err
    assert ("unconverged fraction" if code == 3 else "a_bad: ") in err
    assert "Traceback" not in err


def test_translate_all_labels_reports_by_config_name(short_stream_file, tmp_path, capsys):
    # Two configs for the same robot: each report must name its config.
    configs = tmp_path / "configs"
    configs.mkdir()
    allegro = json.loads(asset_path("configs/allegro.json").read_text())
    allegro.update({k: str((asset_path("configs") / allegro[k]).resolve()) for k in ("robot", "keypoint_map")})
    (configs / "allegro.json").write_text(json.dumps(allegro))
    (configs / "a_starved.json").write_text(json.dumps({**allegro, "max_iterations": 1, "grad_tol": 1e-30}))
    out_dir = tmp_path / "demos"
    assert main(["translate-all", "--stream", str(short_stream_file),
                 "--configs", str(configs), "--out", str(out_dir)]) == 3
    assert sorted(p.name for p in out_dir.iterdir()) == ["allegro.demo"]
    lines = capsys.readouterr().err.splitlines()
    starved = [line for line in lines if line.startswith("a_starved: ")]
    fine = [line for line in lines if line.startswith("allegro: ")]
    assert len(starved) == 3 and len(fine) == 2
    assert "exceeds --max-unconverged" in starved[2]
    assert not any("exceeds" in line for line in fine)
    assert f"wrote {out_dir / 'allegro.demo'}" in lines


def test_translate_out_creates_its_directory(short_stream_file, allegro_config_file, tmp_path):
    out = tmp_path / "nodir" / "deeper" / "a.demo"
    assert main(["translate", "--stream", str(short_stream_file),
                 "--config", str(allegro_config_file), "--out", str(out)]) == 0
    assert read_demo(out).actions.shape[1] == 22


def test_expert_then_train_both_modes(tmp_path, capsys):
    demo_dir = tmp_path / "demos"
    assert main(["expert", "--n", "4", "--out", str(demo_dir)]) == 0
    assert len(list(demo_dir.glob("expert_*.jsonl"))) == 4

    config = tmp_path / "train.json"
    config.write_text(json.dumps({"iterations": 2, "batch_trajectories": 5, "bc_epochs": 1}))
    rl_dir = tmp_path / "rl"
    dapg_dir = tmp_path / "dapg"
    assert main(["train", "--config", str(config), "--out", str(rl_dir)]) == 0
    assert main(["train", "--config", str(config), "--demos", str(demo_dir),
                 "--out", str(dapg_dir)]) == 0
    for out in (rl_dir, dapg_dir):
        table = (out / "curve.csv").read_text().splitlines()
        assert table[0] == "iteration,mean_return,success_rate,demo_weight"
        assert len(table) == 3


@pytest.mark.parametrize(
    "command, text",
    [
        ("train", "not json"),
        ("train", json.dumps({"learning_rate": "x"})),
        ("train", json.dumps([1, 2])),
        ("train", json.dumps({"clamp_demo_weight": False})),
        ("train", json.dumps({"batch_trajectories": 0})),
        ("train", json.dumps({"iterations": 0})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "alpha": "x"})),
        ("translate", json.dumps(["robot"])),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "max_iterations": 0})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "max_iterations": -3})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "grad_tol": -1})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "grad_tol": 0})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "grad_tol": float("nan")})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "alpha": float("inf")})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "alpha": float("nan")})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "cutoff_hz": 0})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "cutoff_hz": float("inf")})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "gamma": 1.5})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "gamma": 0})),
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "alpha": 10**400})),
        ("train", json.dumps({"learning_rate": 10**400})),
        ("train", json.dumps({"seed": -1})),
        ("train", json.dumps({"bc_epochs": -3})),
        ("train", json.dumps({"value_epochs": -1})),
        ("train", json.dumps({"value_learning_rate": -1.0})),
        ("train", json.dumps({"value_learning_rate": 0.0})),
        ("train", json.dumps({"bc_learning_rate": 0.0})),
        ("train", json.dumps({"checkpoint_every": -2})),
        ("translate", b"\xff\xfe{}"),
        ("train", b"{\"seed\": \xe9}"),
    ],
    ids=["train-not-json", "train-learning-rate-str", "train-not-object", "train-removed-key",
         "train-batch-trajectories-0", "train-iterations-0",
         "translate-alpha-str", "translate-not-object",
         "translate-max-iterations-0", "translate-max-iterations-negative", "translate-grad-tol-negative",
         "translate-grad-tol-0", "translate-grad-tol-nan", "translate-alpha-inf", "translate-alpha-nan",
         "translate-cutoff-0", "translate-cutoff-inf", "translate-gamma-1.5", "translate-gamma-0",
         "translate-alpha-overflow", "train-learning-rate-overflow", "train-seed-negative",
         "train-bc-epochs-negative", "train-value-epochs-negative", "train-value-learning-rate-negative",
         "train-value-learning-rate-0", "train-bc-learning-rate-0", "train-checkpoint-every-negative",
         "translate-not-utf8", "train-not-utf8"],
)
def test_bad_config_value_exit_2(command, text, short_stream_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
    if command == "train":
        argv = ["train", "--config", str(config), "--out", str(tmp_path / "out")]
    else:
        argv = ["translate", "--stream", str(short_stream_file), "--config", str(config),
                "--out", str(tmp_path / "o.demo")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "Traceback" not in err


def _edit_record(line: str, **fields) -> str:
    return json.dumps({**json.loads(line), **fields})


@pytest.mark.parametrize(
    "kind, line, edit",
    [
        ("stream", 0, lambda line: "[1, 2]"),
        ("stream", 3, lambda line: "[1, 2]"),
        ("stream", 3, lambda line: _edit_record(line, kp=[1, 2])),
        ("stream", 3, lambda line: _edit_record(line, pose="abc")),
        ("stream", 3, lambda line: _edit_record(line, t="abc")),
        ("demo", 2, lambda line: "[1, 2]"),
        ("demo", 0, lambda line: "[1, 2]"),
        ("demo", 0, lambda line: _edit_record(line, dt="abc")),
        ("demo", 0, lambda line: _edit_record(line, dt=True)),
        ("demo", 0, lambda line: _edit_record(line, state_layout=[["s", 8], ["b", True]])),
        ("stream", 3, lambda line: _edit_record(line, pose=[str(v) for v in json.loads(line)["pose"]])),
        ("stream", 3, lambda line: _edit_record(line, pose=[True] + json.loads(line)["pose"][1:])),
        ("stream", 3, lambda line: _edit_record(line, pose=[10**400] + json.loads(line)["pose"][1:])),
        ("stream", 3, lambda line: _edit_record(line, t=str(json.loads(line)["t"]))),
        ("stream", 3, lambda line: _edit_record(line, t=True)),
        ("demo", 2, lambda line: _edit_record(line, state=["1.5", True] + [0.0] * 7)),
        ("demo", 2, lambda line: _edit_record(line, action=["2", 0.0, 0.0])),
        ("demo", 2, lambda line: _edit_record(line, action=[False, 0.0, 0.0])),
        ("stream", None, lambda path: path.write_bytes(b"\xff" + path.read_bytes())),
        ("demo", None, lambda path: path.write_bytes(path.read_bytes().replace(b"0.0", b"0.\xb0", 1))),
        ("stream", None, lambda path: path.unlink() or path.mkdir()),
        ("demo", None, lambda path: path.unlink() or path.mkdir()),
    ],
    ids=["stream-header-list", "stream-record-list", "stream-kp-list", "stream-pose-str", "stream-t-str",
         "demo-record-list", "demo-header-list", "demo-dt-str", "demo-dt-bool", "demo-width-bool",
         "stream-pose-numeric-strings", "stream-pose-bool", "stream-pose-overflow", "stream-t-numeric-string",
         "stream-t-bool", "demo-state-str-bool", "demo-action-numeric-string", "demo-action-bool",
         "stream-not-utf8", "demo-not-utf8", "stream-directory", "demo-directory"],
)
def test_malformed_input_exit_2(kind, line, edit, short_stream_file, tmp_path, capsys):
    from dexretarget.demopipe import Demonstration, write_demo

    if kind == "stream":
        path = short_stream_file
        argv = ["translate", "--stream", str(path), "--config", str(asset_path("configs/allegro.json")),
                "--out", str(tmp_path / "o.demo")]
    else:
        path = tmp_path / "demos" / "bad.jsonl"
        path.parent.mkdir()
        write_demo(Demonstration("toy-relocate", "relocate", 0.05, (("s", 9),), (("a", 3),),
                                 np.zeros((3, 9)), np.zeros((2, 3))), path)
        argv = ["train", "--demos", str(path.parent), "--out", str(tmp_path / "out")]
    if line is None:  # the whole file
        edit(path)
    else:
        lines = path.read_text().splitlines()
        lines[line] = edit(lines[line])
        path.write_text("\n".join(lines) + "\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "Traceback" not in err
    if line is None:
        assert f"cannot read {'stream' if kind == 'stream' else 'demonstration'}" in err
    elif line > 0:
        assert ("frame 2" if kind == "stream" else "record 1") in err


@pytest.mark.parametrize("command", ["translate", "train", "fk", "keypoint-map", "gen-hand"])
def test_missing_config_file_exit_1(command, short_stream_file, tmp_path, capsys):
    def argv_for(path: str) -> list[str]:
        if command == "train":
            return ["train", "--config", path, "--out", str(tmp_path / "out")]
        if command == "fk":
            return ["fk", "--robot", path]
        if command == "gen-hand":
            return ["gen-hand", "--shape", path, "--out", str(tmp_path / "o.robot")]
        config = path
        if command == "keypoint-map":
            config = str(tmp_path / "config.json")
            Path(config).write_text(json.dumps({"robot": str(robot_path("allegro")), "keypoint_map": path}))
        return ["translate", "--stream", str(short_stream_file), "--config", config,
                "--out", str(tmp_path / "o.demo")]

    assert main(argv_for(str(tmp_path / "nope.json"))) == 1
    err = capsys.readouterr().err
    assert "nope.json" in err and "--help" in err
    assert "Traceback" not in err
    # A path that exists but cannot be read as a file is a data error.
    assert main(argv_for(str(tmp_path))) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and "Traceback" not in err


def test_train_rejects_unknown_env(tmp_path):
    assert main(["train", "--env", "warehouse", "--out", str(tmp_path)]) == 2


def test_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == 1


def test_translate_exit_3_when_solver_starved(short_stream_file, tmp_path, capsys):
    # One damped iteration at an unreachable tolerance leaves most frames
    # unconverged, which must trip the failure-fraction gate.
    config = {
        "robot": str(robot_path("allegro")),
        "keypoint_map": str(asset_path("maps/custom_to_allegro.map")),
        "max_iterations": 1,
        "grad_tol": 1e-30,
    }
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o.demo"
    code = main(["translate", "--stream", str(short_stream_file),
                 "--config", str(path), "--out", str(out)])
    assert code == 3
    assert not out.exists()  # no partial output on failure
    assert "unconverged fraction" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["translate", "translate-all"])
@pytest.mark.parametrize("flag", [["--gamma", "0.5"], ["--calibration-frames", "30"], ["--task", "relocate"]],
                         ids=["gamma", "calibration-frames", "task"])
def test_removed_translate_flags_are_usage_errors(command, flag, short_stream_file, allegro_config_file,
                                                  tmp_path, capsys):
    # The filter factor comes from cutoff_hz; calibration frames and task are constants.
    inputs = ["--config", str(allegro_config_file)] if command == "translate" else ["--configs", str(tmp_path)]
    out = tmp_path / "out"
    assert main([command, "--stream", str(short_stream_file), *inputs, "--out", str(out), *flag]) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(flag)}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("level", ["verbose", "BASIC_FORMAT", "10"])
@pytest.mark.parametrize("source", ["flag", "environment"])
def test_unknown_log_level_is_a_usage_error(level, source, monkeypatch, capsys):
    argv = ["fk", "--robot", "allegro"]
    if source == "flag":
        argv = ["--log-level", level] + argv
    else:
        monkeypatch.setenv("DEXRETARGET_LOG", level)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"error: unknown log level '{level.upper()}'" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""  # the command did not run


def test_log_level_names_are_case_insensitive(monkeypatch, capsys):
    monkeypatch.setenv("DEXRETARGET_LOG", "warning")
    assert main(["fk", "--robot", "allegro"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


@pytest.mark.parametrize("command", ["gen-hand", "expert", "train"])
def test_an_unwritable_output_gets_no_usage_hint(command, tmp_path, capsys):
    # gen-hand's output is an existing directory; expert's and train's output
    # directory is an existing file.
    out = tmp_path / "out"
    if command == "gen-hand":
        out.mkdir()
        (tmp_path / "shape.json").write_text(json.dumps({"beta": [0.0] * 10}))
        argv = ["gen-hand", "--shape", str(tmp_path / "shape.json"), "--out", str(out)]
    else:
        out.write_text("")
        argv = ["expert", "--n", "1", "--out", str(out)] if command == "expert" else ["train", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert "--help" not in err and "Traceback" not in err
