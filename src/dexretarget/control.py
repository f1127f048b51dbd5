"""Confidence scoring, confidence-weighted PD control, low-pass filtering.

The confidence score is a normalized Gaussian kernel around a calibrated
shape: it equals 1 at the calibrated shape and decays with the Mahalanobis
distance of the current estimate. The PD law scales only the stiffness term
by that score; damping stays active at zero confidence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfidenceModel:
    s0: np.ndarray          # calibrated shape, 10 coefficients
    sigma_diag: np.ndarray  # per-coordinate variances, all finite and > 0

    def __post_init__(self):
        s0 = np.asarray(self.s0, dtype=float)
        var = np.asarray(self.sigma_diag, dtype=float)
        if s0.shape != var.shape:
            raise DataError("shape mean and variance lengths differ")
        if not np.all(np.isfinite(s0)):
            raise DataError("shape mean must be finite")
        if not np.all((var > 0) & (var < np.inf)):
            raise DataError("variances must be finite and strictly positive")
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "sigma_diag", var)


@dataclass(frozen=True)
class PDGains:
    kp: np.ndarray  # N*m/rad
    kd: np.ndarray  # N*m*s/rad

    def __post_init__(self):
        kp = np.asarray(self.kp, dtype=float)
        kd = np.asarray(self.kd, dtype=float)
        if kp.shape != kd.shape:
            raise DataError("kp and kd lengths differ")
        if not (np.all((kp >= 0) & (kp < np.inf)) and np.all((kd >= 0) & (kd < np.inf))):
            raise DataError("PD gains must be finite and nonnegative")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kd", kd)


def confidence(model: ConfidenceModel, s_t: np.ndarray) -> float:
    """Density around s0 normalized so confidence(s0) = 1; in (0, 1]."""
    s_t = np.asarray(s_t, dtype=float)
    if s_t.shape != model.s0.shape:
        raise DataError("shape vector length mismatch")
    if not np.all(np.isfinite(s_t)):
        raise DataError("shape vector must be finite")
    d2 = np.sum((s_t - model.s0) ** 2 / model.sigma_diag)
    # Floor at the smallest positive normal so the score stays > 0 even when
    # exp underflows for wildly off-calibration shapes.
    return float(max(np.exp(-0.5 * d2), np.finfo(float).tiny))


def pd_torque(p: float, gains: PDGains, e: np.ndarray, de: np.ndarray) -> np.ndarray:
    """u = p * kp . e + kd . de, elementwise; only stiffness is scaled."""
    e = np.asarray(e, dtype=float)
    de = np.asarray(de, dtype=float)
    if e.shape != gains.kp.shape or de.shape != gains.kd.shape:
        raise DataError("error vector length mismatch")
    return p * gains.kp * e + gains.kd * de


def gamma_from_cutoff(cutoff_hz: float, dt: float) -> float:
    """Smoothing factor of a first-order filter from a cutoff frequency."""
    if cutoff_hz <= 0 or dt <= 0:
        raise DataError("cutoff and dt must be positive")
    return 1.0 - float(np.exp(-2.0 * np.pi * cutoff_hz * dt))


def low_pass_trajectory(traj: np.ndarray, gamma: float) -> np.ndarray:
    """First-order filter y_t = gamma*x_t + (1-gamma)*y_{t-1} over a (T, n)
    trajectory, seeding the state with the first sample."""
    traj = np.asarray(traj, dtype=float)
    if traj.ndim != 2 or traj.shape[0] < 1:
        raise DataError("trajectory must be a nonempty (T, n) array")
    if not 0.0 < gamma <= 1.0:
        raise DataError(f"gamma must be in (0, 1], got {gamma}")
    gamma = float(gamma)
    out = np.empty(traj.shape)
    y = traj[0]
    for t, x in enumerate(traj):
        y = out[t] = gamma * x + (1.0 - gamma) * y
    return out
