"""Command-line interface for the full pipeline.

Exit codes: 0 success, 1 usage error (bad flags, missing files, an output
that cannot be written), 2 data error (malformed or inconsistent inputs), 3
numerical failure (solver non-convergence beyond the allowed fraction,
non-finite results). Machine output goes to stdout or files; human-readable
summaries go to stderr.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import assets
from .dapg import DapgConfig, demos_from_expert, train
from .demopipe import (
    PipelineConfig,
    read_config_object,
    read_demo,
    translate_all,
    write_demo,
)
from .dynamics import DynamicsInput, inverse_dynamics
from .errors import DataError, NumericalError, atomic_write_text, float_rows, parse_object, read_text
from .handgen import SHAPE_DIM, HandShapeParams, build_custom_hand, load_template
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


def _exit_code(exc: Exception, who: str = "") -> int:
    """Report a failure on stderr and return its exit code; re-raise one that has none."""
    for kind, what, code in ((OSError, "error", USAGE_ERROR), (DataError, "data error", DATA_ERROR),
                             (NumericalError, "numerical failure", NUMERICAL_ERROR)):
        if isinstance(exc, kind):
            _say(f"{who}{what}: {exc}")
            return code
    raise exc


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
    doc = parse_object(read_text(args.shape, DataError, "shape file"), DataError, "shape file")
    if "beta" not in doc:
        raise DataError(f"shape file {args.shape} has no 'beta'")
    shape = HandShapeParams(float_rows([doc["beta"]], SHAPE_DIM, DataError, ["beta"])[0])
    template = load_template(args.template) if args.template else None
    tree = build_custom_hand(shape, template)
    try:
        atomic_write_text(args.out, dump_robot(tree))
    except OSError as exc:
        return _exit_code(exc)
    _say(f"wrote {args.out}: {tree.num_actuated} actuated joints, "
         f"{len(tree.keypoint_names)} fingertip keypoints")
    return 0


def _apply_overrides(config: PipelineConfig, args) -> PipelineConfig:
    return replace(config, **{key: getattr(args, key) for key in ("alpha", "action_mode")
                              if getattr(args, key) is not None})


def _report_and_write(label: str, demo, timings: dict[str, float], out_path: Path, max_unconverged: float) -> int:
    frames = demo.states.shape[0]
    unconverged = demo.provenance["unconverged_frames"]
    fraction = unconverged / frames
    _say(f"{label}: " + "  ".join(f"{k}={v:.2f}s" for k, v in timings.items()))
    _say(f"{label}: mean keypoint residual "
         f"{demo.provenance['mean_keypoint_residual']:.4g} m, "
         f"{unconverged}/{frames} frames unconverged")
    if fraction > max_unconverged:
        _say(f"{label}: unconverged fraction {fraction:.1%} exceeds "
             f"--max-unconverged {max_unconverged:.1%}")
        return NUMERICAL_ERROR
    try:
        write_demo(demo, out_path)
    except OSError as exc:
        return _exit_code(exc, f"{label}: ")
    _say(f"wrote {out_path}")
    return 0


def cmd_translate(args) -> int:
    stream = read_stream(args.stream)
    config = _apply_overrides(PipelineConfig.from_file(args.config), args)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    results, failed = translate_all(stream, {config.robot: config})
    if failed:
        raise failed[config.robot]
    demo, timings = results[config.robot]
    return _report_and_write(demo.robot, demo, timings, Path(args.out), args.max_unconverged)


def cmd_translate_all(args) -> int:
    """Every robot is translated and reported; the exit code is the worst robot's."""
    stream = read_stream(args.stream)
    config_files = sorted(Path(args.configs).glob("*.json"))
    if not config_files:
        raise DataError(f"no *.json configs in {args.configs}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    configs, errors = {}, {}
    for config_file in config_files:
        try:
            configs[config_file.stem] = _apply_overrides(PipelineConfig.from_file(config_file), args)
        except (FileNotFoundError, DataError) as exc:  # reported below with the translation failures
            errors[config_file.stem] = exc
    results, failed = translate_all(stream, configs)
    codes = [_report_and_write(name, *result, out_dir / f"{name}.demo", args.max_unconverged)
             for name, result in results.items()]
    return max(codes + [_exit_code(exc, f"{name}: ") for name, exc in {**errors, **failed}.items()])


def cmd_train(args) -> int:
    if args.env != "toy-relocate":
        raise DataError(f"unknown environment '{args.env}'")
    doc = read_config_object(args.config, DapgConfig, "training config") if args.config else {}
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
    try:
        _, curve = train(demos, config, out_dir=out_dir)  # it reads no file, so its OSError is an output's
    except OSError as exc:
        return _exit_code(exc)
    _say(f"trained {config.iterations} iterations in {time.perf_counter() - started:.0f}s: "
         f"final return {curve.mean_return[-1]:.2f}, "
         f"final success rate {curve.success_rate[-1]:.2f}")
    _say(f"wrote {out_dir / 'curve.csv'} and {out_dir / 'policy.npz'}")
    return 0


def cmd_expert(args) -> int:
    demos = demos_from_expert(args.n, seed=args.seed if args.seed is not None else 0)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, demo in enumerate(demos):
            write_demo(demo, out_dir / f"expert_{i:03d}.jsonl")
    except OSError as exc:
        return _exit_code(exc)
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

def _fraction(text: str) -> float:
    """A flag value in [0, 1]; NaN and anything outside are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a fraction in [0, 1], got {text!r}")
    return value


def _count(text: str) -> int:
    """A flag value that is an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


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
        p.add_argument("--action-mode", dest="action_mode", default=None,
                       choices=("torque", "position"), help="override action mode")
        p.add_argument("--max-unconverged", type=_fraction, default=0.05,
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
    p.add_argument("--n", type=_count, required=True, help="number of demonstrations")
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
        level = (args.log_level or os.environ.get("DEXRETARGET_LOG", "WARNING")).upper()
        if not isinstance(logging.getLevelName(level), int):  # a level name maps to its number
            parser.error(f"unknown log level '{level}' (DEBUG, INFO, WARNING, ERROR or CRITICAL)")
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a usage error
        return int(exc.code) if exc.code in (0, USAGE_ERROR) else USAGE_ERROR

    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)

    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - _exit_code re-raises what has no exit code
        code = _exit_code(exc)
        if code == USAGE_ERROR:
            _say(f"run 'dexretarget {args.command} --help' for usage")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
