"""Command-line interface for the full pipeline.

Exit codes: 0 success, 1 usage error (bad flags, missing files), 2 data error
(malformed or inconsistent inputs), 3 numerical failure (solver
non-convergence beyond the allowed fraction, non-finite results). Machine
output goes to stdout or files; human-readable summaries go to stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import assets
from .dapg import DapgConfig, demos_from_expert, train
from .demopipe import PipelineConfig, atomic_write_text, read_demo, translate_timed, write_demo
from .dynamics import DynamicsInput, inverse_dynamics
from .errors import DataError, NumericalError
from .handgen import HandShapeParams, build_custom_hand, load_template
from .kinematics import dump_robot, forward_kinematics, load_robot
from .poseio import read_stream

log = logging.getLogger("dexretarget")

EXIT_CODES = "exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure"

USAGE_ERROR = 1
DATA_ERROR = 2
NUMERICAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _say(message: str):
    print(message, file=sys.stderr)


def _resolve_robot(spec: str) -> Path:
    path = Path(spec)
    if path.exists():
        return path
    try:
        return assets.robot_path(spec)
    except DataError:
        raise FileNotFoundError(f"no robot description '{spec}' (not a file, not bundled)")


def _parse_vector(text: str, n: int, what: str) -> np.ndarray:
    if text == "zeros":
        return np.zeros(n)
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise DataError(f"cannot parse {what} '{text}': {exc}") from exc
    if values.shape != (n,):
        raise DataError(f"{what} needs {n} comma-separated values, got {values.size}")
    return values


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_hand(args) -> int:
    try:
        doc = json.loads(Path(args.shape).read_text())
        beta = np.asarray(doc["beta"], dtype=float)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad shape file {args.shape}: {exc}") from exc
    shape = HandShapeParams(beta)
    template = load_template(args.template) if args.template else None
    tree = build_custom_hand(shape, template)
    atomic_write_text(args.out, dump_robot(tree))
    _say(f"wrote {args.out}: {tree.num_actuated} actuated joints, "
         f"{len(tree.keypoints)} fingertip keypoints")
    return 0


def _apply_overrides(config: PipelineConfig, args) -> PipelineConfig:
    overrides = {}
    for key in ("alpha", "gamma", "action_mode", "calibration_frames", "task"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return replace(config, **overrides) if overrides else config


def _translate_one(stream, config: PipelineConfig, out_path: Path, max_unconverged: float) -> int:
    demo, timings = translate_timed(stream, config)
    frames = len(stream.frames)
    unconverged = demo.provenance["unconverged_frames"]
    fraction = unconverged / frames
    stage_summary = "  ".join(f"{k}={v:.2f}s" for k, v in timings.items())
    _say(f"{demo.robot}: {stage_summary}")
    _say(f"{demo.robot}: mean keypoint residual "
         f"{demo.provenance['mean_keypoint_residual']:.4g} m, "
         f"{unconverged}/{frames} frames unconverged")
    if fraction > max_unconverged:
        _say(f"{demo.robot}: unconverged fraction {fraction:.1%} exceeds "
             f"--max-unconverged {max_unconverged:.1%}")
        return NUMERICAL_ERROR
    write_demo(demo, out_path)
    _say(f"wrote {out_path}")
    return 0


def cmd_translate(args) -> int:
    stream = read_stream(args.stream)
    config = _apply_overrides(PipelineConfig.from_file(args.config), args)
    return _translate_one(stream, config, Path(args.out), args.max_unconverged)


def cmd_translate_all(args) -> int:
    stream = read_stream(args.stream)
    config_files = sorted(Path(args.configs).glob("*.json"))
    if not config_files:
        raise DataError(f"no *.json configs in {args.configs}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for config_file in config_files:
        try:
            config = _apply_overrides(PipelineConfig.from_file(config_file), args)
            code = _translate_one(
                stream, config, out_dir / f"{config_file.stem}.demo", args.max_unconverged
            )
        except DataError as exc:
            _say(f"{config_file.stem}: data error: {exc}")
            code = DATA_ERROR
        except NumericalError as exc:
            _say(f"{config_file.stem}: numerical failure: {exc}")
            code = NUMERICAL_ERROR
        worst = max(worst, code)
    return worst


def cmd_train(args) -> int:
    if args.env != "toy-relocate":
        raise DataError(f"unknown environment '{args.env}'")
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise DataError(f"cannot parse training config: {exc}") from exc
        if not isinstance(doc, dict):
            raise DataError("training config must be a JSON object")
        known = set(DapgConfig.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise DataError(f"unknown training config keys: {sorted(unknown)}")
        if "hidden" in doc:
            if not isinstance(doc["hidden"], list):
                raise DataError("hidden must be a list of layer widths")
            doc["hidden"] = tuple(doc["hidden"])
    else:
        doc = {}
    if args.iterations is not None:
        doc["iterations"] = args.iterations
    if args.seed is not None:
        doc["seed"] = args.seed
    config = DapgConfig(**doc)

    demos = None
    if args.demos:
        demo_files = sorted(Path(args.demos).glob("*.jsonl")) + sorted(Path(args.demos).glob("*.demo"))
        if not demo_files:
            raise DataError(f"no demonstration files in {args.demos}")
        demos = [read_demo(f) for f in demo_files]
        _say(f"loaded {len(demos)} demonstrations")

    out_dir = Path(args.out)
    started = time.perf_counter()
    _, curve = train(demos, config, out_dir=out_dir)
    _say(f"trained {config.iterations} iterations in {time.perf_counter() - started:.0f}s: "
         f"final return {curve.mean_return[-1]:.2f}, "
         f"final success rate {curve.success_rate[-1]:.2f}")
    _say(f"wrote {out_dir / 'curve.csv'} and {out_dir / 'policy.npz'}")
    return 0


def cmd_expert(args) -> int:
    demos = demos_from_expert(args.n, seed=args.seed if args.seed is not None else 0)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, demo in enumerate(demos):
        write_demo(demo, out_dir / f"expert_{i:03d}.jsonl")
    _say(f"wrote {len(demos)} expert demonstrations to {out_dir}")
    return 0


def cmd_fk(args) -> int:
    tree = load_robot(_resolve_robot(args.robot))
    q = _parse_vector(args.q, tree.num_actuated, "--q")
    for name, position in forward_kinematics(tree, q).items():
        print(f"{name} {position[0]:.9f} {position[1]:.9f} {position[2]:.9f}")
    return 0


def cmd_id(args) -> int:
    tree = load_robot(_resolve_robot(args.robot))
    n = tree.num_actuated
    tau = inverse_dynamics(
        tree,
        DynamicsInput(
            q=_parse_vector(args.q, n, "--q"),
            qd=_parse_vector(args.qd, n, "--qd"),
            qdd=_parse_vector(args.qdd, n, "--qdd"),
        ),
    )
    print(" ".join(f"{v:.9f}" for v in tau))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="dexretarget", description=__doc__.strip().splitlines()[0],
                     epilog=EXIT_CODES)
    parser.add_argument("--log-level", default=None,
                        help="logging level (also via DEXRETARGET_LOG); default WARNING")
    parser.add_argument("--seed", type=int, default=None, help="seed for every random choice")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-hand", help="build a customized hand description from a shape file",
                       epilog=EXIT_CODES)
    p.add_argument("--shape", required=True, help="JSON file with a 10-entry 'beta' array")
    p.add_argument("--template", default=None, help="hand template file (default: bundled)")
    p.add_argument("--out", required=True, help="output robot description path")
    p.set_defaults(func=cmd_gen_hand)

    for name, func, multi in (("translate", cmd_translate, False),
                              ("translate-all", cmd_translate_all, True)):
        p = sub.add_parser(name, epilog=EXIT_CODES,
                           help="translate a pose stream into robot demonstrations"
                           if multi else "translate a pose stream for one robot")
        p.add_argument("--stream", required=True, help="dexstream/1 pose stream file")
        if multi:
            p.add_argument("--configs", required=True, help="directory of pipeline config *.json")
            p.add_argument("--out", required=True, help="output directory for *.demo files")
        else:
            p.add_argument("--config", required=True, help="pipeline config JSON")
            p.add_argument("--out", required=True, help="output demonstration path")
        p.add_argument("--alpha", type=float, default=None, help="override smoothness weight")
        p.add_argument("--gamma", type=float, default=None, help="override filter factor")
        p.add_argument("--action-mode", dest="action_mode", default=None,
                       choices=("torque", "position"), help="override action mode")
        p.add_argument("--calibration-frames", dest="calibration_frames", type=int, default=None)
        p.add_argument("--task", default=None, help="override task tag")
        p.add_argument("--max-unconverged", type=float, default=0.05,
                       help="allowed fraction of unconverged frames before exit 3")
        p.set_defaults(func=func)

    p = sub.add_parser("train", help="train DAPG or pure RL on the toy relocate task",
                       epilog=EXIT_CODES)
    p.add_argument("--env", default="toy-relocate", help="environment name")
    p.add_argument("--demos", default=None, help="directory of demonstration files (omit for pure RL)")
    p.add_argument("--config", default=None, help="training config JSON (DapgConfig fields)")
    p.add_argument("--iterations", type=int, default=None, help="override iteration count")
    p.add_argument("--out", required=True, help="output directory for curve.csv and policy.npz")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("expert", help="generate scripted-expert demonstrations", epilog=EXIT_CODES)
    p.add_argument("--n", type=int, required=True, help="number of demonstrations")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_expert)

    p = sub.add_parser("fk", help="print keypoint positions at a configuration", epilog=EXIT_CODES)
    p.add_argument("--robot", required=True, help="description path or bundled name")
    p.add_argument("--q", default="zeros", help="comma-separated joint angles (default zeros)")
    p.set_defaults(func=cmd_fk)

    p = sub.add_parser("id", help="print inverse-dynamics torques", epilog=EXIT_CODES)
    p.add_argument("--robot", required=True, help="description path or bundled name")
    p.add_argument("--q", default="zeros")
    p.add_argument("--qd", default="zeros")
    p.add_argument("--qdd", default="zeros")
    p.set_defaults(func=cmd_id)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a usage error
        return int(exc.code) if exc.code in (0, USAGE_ERROR) else USAGE_ERROR

    level = args.log_level or os.environ.get("DEXRETARGET_LOG", "WARNING")
    logging.basicConfig(level=getattr(logging, str(level).upper(), logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)

    try:
        return args.func(args)
    except FileNotFoundError as exc:
        _say(f"error: {exc}")
        _say(f"run 'dexretarget {args.command} --help' for usage")
        return USAGE_ERROR
    except DataError as exc:
        _say(f"data error: {exc}")
        return DATA_ERROR
    except NumericalError as exc:
        _say(f"numerical failure: {exc}")
        return NUMERICAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
