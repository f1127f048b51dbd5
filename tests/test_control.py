from __future__ import annotations

import numpy as np
import pytest

from dexretarget.control import (
    ConfidenceModel,
    PDGains,
    confidence,
    gamma_from_cutoff,
    low_pass_trajectory,
    pd_torque,
)
from dexretarget.errors import DataError


@pytest.fixture
def model():
    return ConfidenceModel(s0=np.linspace(-1, 1, 10), sigma_diag=np.full(10, 0.04))


def test_confidence_is_one_at_calibrated_shape(model):
    assert confidence(model, model.s0) == 1.0


def test_confidence_at_mahalanobis_two(model):
    # single coordinate offset by two standard deviations -> d = 2
    s = model.s0.copy()
    s[3] += 2 * np.sqrt(model.sigma_diag[3])
    assert confidence(model, s) == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_confidence_strictly_decreases_with_offset(model):
    values = []
    for mag in [0.0, 0.05, 0.1, 0.4, 1.0]:
        s = model.s0.copy()
        s[0] += mag
        values.append(confidence(model, s))
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_confidence_positive_for_any_finite_shape(model):
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = confidence(model, model.s0 + rng.normal(scale=3.0, size=10))
        assert 0.0 < p <= 1.0


def test_pd_full_confidence_is_plain_pd():
    gains = PDGains(kp=np.array([2.0, 3.0]), kd=np.array([0.1, 0.2]))
    e = np.array([0.5, -0.5])
    de = np.array([1.0, 2.0])
    assert pd_torque(1.0, gains, e, de) == pytest.approx(gains.kp * e + gains.kd * de)


def test_pd_zero_confidence_zero_rate_is_silent():
    gains = PDGains(kp=np.array([5.0]), kd=np.array([0.3]))
    assert pd_torque(0.0, gains, np.array([1.2]), np.array([0.0])) == pytest.approx([0.0])


def test_pd_arithmetic_example():
    gains = PDGains(kp=np.array([2.0]), kd=np.array([0.1]))
    u = pd_torque(0.5, gains, np.array([0.3]), np.array([-1.0]))
    assert u[0] == 0.5 * 2.0 * 0.3 + 0.1 * (-1.0)
    assert u[0] == pytest.approx(0.2, abs=1e-15)


def test_pd_linearity_in_errors():
    rng = np.random.default_rng(5)
    gains = PDGains(kp=rng.uniform(0, 4, 6), kd=rng.uniform(0, 1, 6))
    e1, e2 = rng.normal(size=6), rng.normal(size=6)
    de = rng.normal(size=6)
    lhs = pd_torque(0.7, gains, e1 + e2, de)
    rhs = pd_torque(0.7, gains, e1, de) + pd_torque(0.7, gains, e2, np.zeros(6))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pd_softening_monotone_in_confidence():
    gains = PDGains(kp=np.array([2.0, 1.0]), kd=np.array([0.1, 0.1]))
    e = np.array([0.4, -0.2])
    norms = [np.linalg.norm(pd_torque(p, gains, e, np.zeros(2))) for p in np.linspace(0, 1, 11)]
    assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))


def test_pd_length_mismatch():
    gains = PDGains(kp=np.ones(3), kd=np.ones(3))
    with pytest.raises(DataError):
        pd_torque(1.0, gains, np.ones(2), np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_shapes_are_rejected(model, bad):
    s = model.s0.copy()
    s[2] = bad
    with pytest.raises(DataError, match="shape vector must be finite"):
        confidence(model, s)
    with pytest.raises(DataError, match="shape mean must be finite"):
        ConfidenceModel(s0=s, sigma_diag=model.sigma_diag)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.04])
def test_variances_must_be_finite_and_positive(model, bad):
    var = model.sigma_diag.copy()
    var[5] = bad
    with pytest.raises(DataError, match="variances must be finite and strictly positive"):
        ConfidenceModel(s0=model.s0, sigma_diag=var)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("which", ["kp", "kd"])
def test_pd_gains_must_be_finite_and_nonnegative(bad, which):
    gains = {"kp": np.array([2.0, 3.0]), "kd": np.array([0.1, 0.2])}
    gains[which][1] = bad
    with pytest.raises(DataError, match="PD gains must be finite and nonnegative"):
        PDGains(**gains)


def test_low_pass_dc_gain_is_one():
    out = low_pass_trajectory(np.tile([2.0, -1.0], (10, 1)), 0.3)
    assert out[-1] == pytest.approx([2.0, -1.0], abs=1e-15)


def test_low_pass_unit_step_geometric_recursion():
    out = low_pass_trajectory(np.array([[0.0], [1.0], [1.0], [1.0]]), 0.5)
    assert out[1:, 0] == pytest.approx([0.5, 0.75, 0.875])


def test_low_pass_gamma_one_is_identity():
    rng = np.random.default_rng(2)
    traj = rng.normal(size=(20, 4))
    assert np.array_equal(low_pass_trajectory(traj, 1.0), traj)


def test_low_pass_outputs_stay_in_input_hull():
    rng = np.random.default_rng(9)
    traj = rng.uniform(-2.0, 3.0, size=(200, 3))
    out = low_pass_trajectory(traj, 0.2)
    assert np.all(out <= traj.max(axis=0) + 1e-12)
    assert np.all(out >= traj.min(axis=0) - 1e-12)


def test_gamma_from_cutoff():
    dt = 0.04
    gamma = gamma_from_cutoff(5.0, dt)
    assert gamma == pytest.approx(1.0 - np.exp(-2 * np.pi * 5.0 * dt))
    assert 0.0 < gamma <= 1.0


def test_gamma_out_of_range_rejected():
    for gamma in (0.0, 1.5, float("nan")):
        with pytest.raises(DataError, match="gamma must be in"):
            low_pass_trajectory(np.zeros((3, 1)), gamma)
