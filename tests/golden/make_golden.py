"""Regenerate the golden-output fixture that tests/test_golden.py compares against.

The fixture freezes the pipeline's behaviour so that internal rewrites may
change float bits but not results. It holds:

- demo states and actions on the bundled sample stream for allegro, schunk
  and adroit, in position and torque mode;
- customized-hand forward kinematics and keypoint Jacobians at seeded poses;
- inverse dynamics and the joint-space mass matrix at seeded states for each
  bundled robot.

Regenerate only for an intended change of behaviour, from the repo root:

    PYTHONPATH=src python tests/golden/make_golden.py
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from dexretarget import assets
from dexretarget.demopipe import PipelineConfig, translate
from dexretarget.dynamics import DynamicsInput, inverse_dynamics, mass_matrix
from dexretarget.handgen import HandShapeParams, build_custom_hand, default_template
from dexretarget.kinematics import forward_kinematics, keypoint_jacobians, load_robot
from dexretarget.poseio import read_stream

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.npz"
ROBOTS = ("allegro", "schunk", "adroit")
MODES = ("position", "torque")
SEED = 20220425
HAND_POSES = 6
DYNAMICS_STATES = 6
MASS_MATRIX_POSES = 3


def hand_cases(rng: np.random.Generator):
    """Seeded shape and poses of the customized hand."""
    shape = HandShapeParams(rng.normal(scale=1.0, size=10))
    hand = build_custom_hand(shape, default_template())
    lower, upper = hand.joint_limits()
    poses = rng.uniform(lower, upper, size=(HAND_POSES, hand.num_actuated))
    return shape.beta, hand, poses


def dynamics_cases(rng: np.random.Generator, tree):
    """Seeded (q, qd, qdd) states and mass-matrix poses within the joint limits."""
    lower, upper = tree.joint_limits()
    n = tree.num_actuated
    q = rng.uniform(lower, upper, size=(DYNAMICS_STATES, n))
    qd = rng.normal(scale=2.0, size=(DYNAMICS_STATES, n))
    qdd = rng.normal(scale=20.0, size=(DYNAMICS_STATES, n))
    q_mass = rng.uniform(lower, upper, size=(MASS_MATRIX_POSES, n))
    return q, qd, qdd, q_mass


def compute() -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    stream = read_stream(assets.sample_stream_path())
    for robot in ROBOTS:
        base = PipelineConfig.from_file(assets.config_path(robot))
        for mode in MODES:
            demo = translate(stream, replace(base, action_mode=mode))
            out[f"demo/{robot}/{mode}/states"] = demo.states
            out[f"demo/{robot}/{mode}/actions"] = demo.actions

    rng = np.random.default_rng(SEED)
    beta, hand, poses = hand_cases(rng)
    names = hand.keypoint_names
    out["hand/beta"] = beta
    out["hand/poses"] = poses
    out["hand/fk"] = np.stack([np.stack([forward_kinematics(hand, q)[k] for k in names]) for q in poses])
    jacs = []
    for q in poses:
        _, jac = keypoint_jacobians(hand, q, names)
        jacs.append(np.stack([jac[k] for k in names]))
    out["hand/jacobians"] = np.stack(jacs)

    for robot in ROBOTS:
        tree = load_robot(assets.robot_path(robot))
        q, qd, qdd, q_mass = dynamics_cases(rng, tree)
        out[f"rnea/{robot}/q"] = q
        out[f"rnea/{robot}/qd"] = qd
        out[f"rnea/{robot}/qdd"] = qdd
        out[f"rnea/{robot}/tau"] = np.stack(
            [inverse_dynamics(tree, DynamicsInput(*state)) for state in zip(q, qd, qdd)]
        )
        out[f"mass/{robot}/q"] = q_mass
        out[f"mass/{robot}/m"] = np.stack([mass_matrix(tree, qm) for qm in q_mass])
    return out


def main():
    np.savez_compressed(GOLDEN_FILE, **compute())
    print(f"wrote {GOLDEN_FILE} ({GOLDEN_FILE.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
