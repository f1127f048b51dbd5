"""Property tests: the quaternion <-> matrix conversions broadcast row by row.

A stacked row must be bitwise the one-row call, including rows next to each
Shepperd branch boundary (trace near 0, tied diagonal entries) and rotations
near 0 and pi.
"""
from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dexretarget.transforms import matrix_to_quat, quat_normalize, quat_to_matrix

# Quaternions on a branch boundary of matrix_to_quat, before perturbation.
BOUNDARIES = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],    # angle 0
        [0.0, 1.0, 0.0, 0.0],    # half-turns: each diagonal entry leads in turn
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.5, 0.5, 0.5, 0.5],    # trace exactly 0: trace branch against diagonal branches
        [0.5, -0.5, 0.5, -0.5],
        [0.0, 1.0, 1.0, 0.0],    # half-turns with tied diagonal entries
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 1.0, 1.0, 1.0],
    ]
)

unit_box = hnp.arrays(float, 4, elements=st.floats(-1.0, 1.0))
random_rows = unit_box.filter(lambda v: np.linalg.norm(v) > 1e-3)
boundary_rows = st.builds(
    lambda i, noise, k: BOUNDARIES[i] + noise * 10.0 ** -k,
    st.integers(0, len(BOUNDARIES) - 1), unit_box, st.integers(3, 17),
)
quat_stacks = st.lists(st.one_of(random_rows, boundary_rows), min_size=1, max_size=16).map(
    lambda rows: quat_normalize(np.array(rows))
)


@settings(max_examples=300, deadline=None, database=None)
@given(quat_stacks)
def test_stacked_conversions_equal_one_row_calls_and_round_trip(q):
    m = quat_to_matrix(q)
    back = matrix_to_quat(m)
    assert m.shape == (len(q), 3, 3) and back.shape == (len(q), 4)
    for i in range(len(q)):
        np.testing.assert_array_equal(m[i], quat_to_matrix(q[i]))
        np.testing.assert_array_equal(back[i], matrix_to_quat(m[i]))
    # Both sides are canonical (w >= 0); only a half-turn, whose w is zero
    # up to rounding, may come back as the other sign.
    same = np.abs(back - q).max(axis=1) <= 1e-12
    flipped = np.abs(back + q).max(axis=1) <= 1e-12
    assert np.all(same | (flipped & (np.abs(q[:, 0]) <= 1e-12)))
