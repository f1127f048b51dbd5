from __future__ import annotations

import json

import numpy as np
import pytest

from dexretarget.assets import asset_path, robot_path, sample_stream_path
from dexretarget.cli import main
from dexretarget.demopipe import read_demo
from dexretarget.kinematics import load_robot
from dexretarget.poseio import read_stream, write_stream


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
        "calibration_frames": 30,
        "action_mode": "position",
        "task": "relocate",
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


def test_translate_flag_overrides_config(short_stream_file, allegro_config_file, tmp_path):
    out_a = tmp_path / "a.demo"
    out_b = tmp_path / "b.demo"
    base = ["translate", "--stream", str(short_stream_file), "--config", str(allegro_config_file)]
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + ["--out", str(out_b), "--gamma", "1.0"]) == 0
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
        ("translate", json.dumps({"robot": str(robot_path("allegro")), "alpha": "x"})),
        ("translate", json.dumps(["robot"])),
    ],
    ids=["train-not-json", "train-learning-rate-str", "train-not-object", "train-removed-key",
         "translate-alpha-str", "translate-not-object"],
)
def test_bad_config_value_exit_2(command, text, short_stream_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(text)
    if command == "train":
        argv = ["train", "--config", str(config), "--out", str(tmp_path / "out")]
    else:
        argv = ["translate", "--stream", str(short_stream_file), "--config", str(config),
                "--out", str(tmp_path / "o.demo")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "Traceback" not in err


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
