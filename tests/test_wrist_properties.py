"""Property test: the one masked wrist solve is bitwise the grouped solve.

`poseio.solve_wrists` solves every frame in one stacked pass with the
unobserved points zeroed. `helpers.grouped_solve_wrists` gathers each mask
pattern's observed columns and solves the groups one by one. Both must give
the same bytes and the same rejections, whatever the masks, including
frames with fewer than 3 observed points and collinear or coincident ones.
"""
from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from dexretarget.poseio import solve_wrists
from dexretarget.transforms import RigidTransform, quat_from_rpy

from helpers import grouped_solve_wrists

FRAME_KINDS = ("rigid", "noisy", "collinear", "coincident", "rounded")


def _frame(rng: np.random.Generator, kind: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical and observed (k, 3) points of one frame of the given kind."""
    canonical = rng.uniform(-0.1, 0.1, size=(k, 3))
    if kind == "collinear":
        canonical = rng.uniform(-0.1, 0.1, size=(k, 1)) * rng.normal(size=3) + rng.normal(size=3)
    elif kind == "coincident":
        canonical = np.repeat(rng.uniform(-0.1, 0.1, size=(1, 3)), k, axis=0)
    elif kind == "rounded":  # few significant bits: sums that round exactly, zero entries
        canonical = np.round(canonical, 2)
    truth = RigidTransform(quat_from_rpy(*rng.uniform(-np.pi, np.pi, 3)), rng.uniform(-1, 1, 3))
    observed = np.array([truth.apply(v) for v in canonical]).reshape(k, 3)
    if kind == "noisy":
        observed += rng.normal(scale=1e-3, size=(k, 3))
    return canonical, observed


@st.composite
def wrist_problems(draw):
    b, k = draw(st.integers(0, 11)), draw(st.integers(0, 7))
    # A few row patterns shared by several frames, and free rows: groups of
    # one and of many, rows of 0 to k observed points.
    patterns = draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=1, max_size=3))
    rows = st.one_of(st.sampled_from(patterns), st.lists(st.booleans(), min_size=k, max_size=k))
    mask = np.array(draw(st.lists(rows, min_size=b, max_size=b)), dtype=bool).reshape(b, k)
    kinds = draw(st.lists(st.sampled_from(FRAME_KINDS), min_size=b, max_size=b))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    canonical, observed = np.zeros((b, k, 3)), np.zeros((b, k, 3))
    for i, kind in enumerate(kinds):
        canonical[i], observed[i] = _frame(rng, kind, k)
    # Unobserved points may hold anything; neither solve may read them.
    observed[~mask] = rng.normal(size=(int((~mask).sum()), 3))
    return canonical, observed, mask


@settings(max_examples=400, deadline=None, database=None)
@given(wrist_problems())
def test_masked_solve_is_bitwise_the_grouped_solve(problem):
    canonical, observed, mask = problem
    got, want = solve_wrists(canonical, observed, mask), grouped_solve_wrists(canonical, observed, mask)
    for a, b in zip(got[:3], want[:3]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got[3] == want[3]
