"""Compact reference of the pipeline's outputs on fixed inputs.

The reference inputs do not depend on the benchmark seed: one 40-frame
stream in torque mode and two short streams with stored `s0` in position
mode, each translated for the three bundled robots, plus a three-iteration
DAPG run on four scripted-expert demos. For each demo the reference keeps the
per-column sums and sums of squares of states and actions; for DAPG it keeps
the learning curve. A later change may alter float bits but not behaviour:
every value must match within

    |got - ref| <= ATOL * rows + RTOL * |ref|

Regenerate the file only for an intended change of behaviour:

    python3 dexbench/reference.py --write
"""
from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 7
ATOL = 1e-6
RTOL = 1e-6
ROBOTS = ("allegro", "schunk", "adroit")


def _column_stats(values: np.ndarray) -> dict:
    return {"rows": int(values.shape[0]),
            "sum": [float(v) for v in values.sum(axis=0)],
            "sumsq": [float(v) for v in (values ** 2).sum(axis=0)]}


def demo_stats(demo) -> dict:
    return {"states": _column_stats(demo.states), "actions": _column_stats(demo.actions)}


def compute(work_dir: Path) -> dict:
    """Run the reference inputs through the same public calls as the benchmark."""
    import gen
    from dexretarget import assets, dapg
    from dexretarget.demopipe import PipelineConfig, read_demo, translate_timed, write_demo
    from dexretarget.poseio import read_stream

    out: dict = {"demos": {}, "dapg": {}}
    cases = (("torque", gen.long_streams(REFERENCE_SEED, 1, 40)),
             ("position", gen.short_streams(REFERENCE_SEED, 2, 2)))
    for mode, streams in cases:
        paths = gen.write_streams(streams, work_dir / mode)
        for path in paths:
            stream = read_stream(path)
            for robot in ROBOTS:
                config = replace(PipelineConfig.from_file(assets.config_path(robot)), action_mode=mode)
                demo, _ = translate_timed(stream, config)
                demo_path = path.with_suffix(f".{robot}.demo")
                write_demo(demo, demo_path)
                out["demos"][f"{mode}/{path.stem}/{robot}"] = demo_stats(read_demo(demo_path))

    demo_paths = gen.write_expert_demos(REFERENCE_SEED, 4, work_dir / "expert")
    demos = [read_demo(p) for p in demo_paths]
    for p, demo in zip(demo_paths, demos):
        out["demos"][f"expert/{p.stem}"] = demo_stats(demo)
    config = dapg.DapgConfig(iterations=3, batch_trajectories=16, bc_epochs=3)
    _, curve = dapg.train(demos, config)
    out["dapg"] = {"mean_return": curve.mean_return, "success_rate": curve.success_rate,
                   "demo_weight": curve.demo_weight}
    return out


def _close(got: float, ref: float, rows: int) -> bool:
    return abs(got - ref) <= ATOL * rows + RTOL * abs(ref)


def compare(got: dict, ref: dict) -> list[str]:
    """Descriptions of every value outside the tolerance (empty when all match)."""
    bad = []
    if set(got["demos"]) != set(ref["demos"]):
        bad.append(f"demo set differs: {sorted(set(got['demos']) ^ set(ref['demos']))}")
    for key in sorted(set(got["demos"]) & set(ref["demos"])):
        for part in ("states", "actions"):
            g, r = got["demos"][key][part], ref["demos"][key][part]
            if g["rows"] != r["rows"] or len(g["sum"]) != len(r["sum"]):
                bad.append(f"{key} {part}: shape differs")
                continue
            for stat in ("sum", "sumsq"):
                for col, (gv, rv) in enumerate(zip(g[stat], r[stat])):
                    if not _close(gv, rv, r["rows"]):
                        bad.append(f"{key} {part} column {col} {stat}: {gv!r} vs {rv!r}")
    for key, ref_curve in ref["dapg"].items():
        got_curve = got["dapg"].get(key, [])
        if len(got_curve) != len(ref_curve) or not all(
                _close(g, r, 1) for g, r in zip(got_curve, ref_curve)):
            bad.append(f"dapg {key}: {got_curve!r} vs {ref_curve!r}")
    return bad


def check(work_dir: Path) -> list[str]:
    if not REFERENCE_FILE.exists():
        return [f"missing reference file {REFERENCE_FILE.name}"]
    return compare(compute(work_dir), json.loads(REFERENCE_FILE.read_text()))


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        stats = compute(Path(tmp))
    REFERENCE_FILE.write_text(json.dumps(stats, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
