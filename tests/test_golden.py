"""Outputs stay within stated tolerances of the frozen golden fixture.

The fixture (tests/golden/golden.npz) was generated by
tests/golden/make_golden.py; this test reruns the same computations on the
current code. Tolerances: joint angles, states and non-torque actions 1e-9
absolute; torques and mass-matrix entries 1e-9 relative plus 1e-12
absolute; forward kinematics and Jacobians 1e-12 absolute; toy-relocate
states, actions, returns, observations and rewards 1e-9 absolute, and episode
successes exactly.
"""
from __future__ import annotations

import numpy as np
import pytest

from golden.make_golden import GOLDEN_FILE, compute
from dexretarget.demopipe import PALM_VELOCITY_WIDTH

ABS_TOL = 1e-9
TORQUE_RTOL = 1e-9
TORQUE_ATOL = 1e-12
KIN_TOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_FILE) as data:
        return {k: data[k] for k in data.files}


@pytest.fixture(scope="module")
def current():
    return compute()


def assert_torques_close(got, ref):
    err = np.abs(got - ref)
    bound = TORQUE_RTOL * np.abs(ref) + TORQUE_ATOL
    assert np.all(err <= bound), f"max excess {np.max(err - bound):.3g}"


def test_golden_covers_the_same_cases(golden, current):
    assert set(golden) == set(current)
    for key in golden:
        assert golden[key].shape == current[key].shape, key


@pytest.mark.parametrize("robot", ["allegro", "schunk", "adroit"])
@pytest.mark.parametrize("mode", ["position", "torque"])
def test_golden_demo(golden, current, robot, mode):
    prefix = f"demo/{robot}/{mode}"
    np.testing.assert_allclose(current[f"{prefix}/states"], golden[f"{prefix}/states"], rtol=0, atol=ABS_TOL)
    got, ref = current[f"{prefix}/actions"], golden[f"{prefix}/actions"]
    palm = slice(0, PALM_VELOCITY_WIDTH)
    fingers = slice(PALM_VELOCITY_WIDTH, None)
    np.testing.assert_allclose(got[:, palm], ref[:, palm], rtol=0, atol=ABS_TOL)
    if mode == "torque":
        assert_torques_close(got[:, fingers], ref[:, fingers])
    else:
        np.testing.assert_allclose(got[:, fingers], ref[:, fingers], rtol=0, atol=ABS_TOL)


def test_golden_hand_kinematics(golden, current):
    np.testing.assert_array_equal(current["hand/poses"], golden["hand/poses"])
    np.testing.assert_allclose(current["hand/fk"], golden["hand/fk"], rtol=0, atol=KIN_TOL)
    np.testing.assert_allclose(current["hand/jacobians"], golden["hand/jacobians"], rtol=0, atol=KIN_TOL)


@pytest.mark.parametrize("robot", ["allegro", "schunk", "adroit"])
def test_golden_dynamics(golden, current, robot):
    assert_torques_close(current[f"rnea/{robot}/tau"], golden[f"rnea/{robot}/tau"])
    assert_torques_close(current[f"mass/{robot}/m"], golden[f"mass/{robot}/m"])


def test_golden_expert_demos(golden, current):
    for key in ("expert/states", "expert/actions", "expert/returns"):
        np.testing.assert_allclose(current[key], golden[key], rtol=0, atol=ABS_TOL, err_msg=key)


def test_golden_relocate_rollout(golden, current):
    for key in ("relocate/observations", "relocate/rewards"):
        np.testing.assert_allclose(current[key], golden[key], rtol=0, atol=ABS_TOL, err_msg=key)
    np.testing.assert_array_equal(current["relocate/successes"], golden["relocate/successes"])
