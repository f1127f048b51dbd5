from __future__ import annotations

import json
import math

import numpy as np
import pytest

from dexretarget.assets import asset_path
from dexretarget.errors import DataError
from dexretarget.handgen import (
    FINGERS,
    HAND_CACHE_SIZE,
    FingerSpec,
    HandShapeParams,
    HandTemplate,
    build_custom_hand,
    default_template,
    load_template,
)
from dexretarget.kinematics import dump_robot, forward_kinematics, load_robot


def template_path():
    return asset_path("hand_template.json")


def test_default_template_validates():
    template = default_template()
    assert template.palm_box[0] > 0
    lengths = template.bone_lengths(HandShapeParams.zeros())
    assert np.all(lengths > 0)


def test_total_hand_length_matches_adult_male():
    template = default_template()
    middle = template.fingers["middle"].lengths.sum()
    assert middle == pytest.approx(0.095, abs=0.003)
    assert template.palm_box[0] + middle == pytest.approx(0.193, abs=0.005)


def test_zero_shape_reproduces_template_lengths():
    template = default_template()
    lengths = template.bone_lengths(HandShapeParams.zeros())
    expected = np.concatenate([template.fingers[f].lengths for f in FINGERS])
    assert np.array_equal(lengths, expected)


def test_custom_hand_has_45_dof_and_5_fingertips():
    tree = build_custom_hand(HandShapeParams.zeros())
    assert tree.num_actuated == 45
    assert set(tree.keypoint_names) == {f"{f}_tip" for f in FINGERS}


@pytest.mark.parametrize("seed", range(4))
def test_any_clamped_shape_keeps_structure(seed):
    rng = np.random.default_rng(seed)
    shape = HandShapeParams(rng.uniform(-8, 8, size=10))  # clamped to +/-5
    tree = build_custom_hand(shape)
    assert tree.num_actuated == 45
    assert len(tree.keypoint_names) == 5
    assert np.all(np.abs(shape.beta) <= 5.0)


def test_first_basis_vector_shifts_lengths_columnwise():
    template = default_template()
    e1 = np.zeros(10)
    e1[0] = 1.0
    lengths = template.bone_lengths(HandShapeParams(e1))
    expected = template.bone_lengths(HandShapeParams.zeros()) + template.length_basis[0]
    assert lengths == pytest.approx(expected, abs=1e-15)


def test_shape_linearity_of_length_offsets():
    template = default_template()
    rng = np.random.default_rng(1)
    b1, b2 = rng.uniform(-2, 2, size=10), rng.uniform(-2, 2, size=10)
    base = template.bone_lengths(HandShapeParams.zeros())
    d1 = template.bone_lengths(HandShapeParams(b1)) - base
    d2 = template.bone_lengths(HandShapeParams(b2)) - base
    both = template.bone_lengths(HandShapeParams(b1 + b2)) - base
    assert both == pytest.approx(d1 + d2, abs=1e-12)


def test_topology_independent_of_shape():
    rng = np.random.default_rng(2)
    a = build_custom_hand(HandShapeParams(rng.uniform(-3, 3, size=10)))
    b = build_custom_hand(HandShapeParams(rng.uniform(-3, 3, size=10)))
    assert a.link_ids == b.link_ids
    assert a.actuated_joints == b.actuated_joints
    assert list(zip(a.link_ids, a.link_parents)) == list(zip(b.link_ids, b.link_parents))


def test_distinct_shapes_give_distinct_fingertips():
    rng = np.random.default_rng(3)
    template = default_template()
    rest = np.zeros(45)
    for _ in range(10):
        b1 = rng.uniform(-2, 2, size=10)
        b2 = b1.copy()
        b2[int(rng.integers(0, 10))] += rng.uniform(0.5, 2.0)
        kp1 = forward_kinematics(build_custom_hand(HandShapeParams(b1), template), rest)
        kp2 = forward_kinematics(build_custom_hand(HandShapeParams(b2), template), rest)
        diff = max(np.linalg.norm(kp1[n] - kp2[n]) for n in kp1)
        assert diff > 1e-7


def test_geometry_annotations_cover_palm_and_bones():
    tree = build_custom_hand(HandShapeParams.zeros())
    kinds = [g["kind"] for g in tree.geometry]
    assert kinds.count("box") == 1
    assert kinds.count("capsule") == 15


def test_custom_hand_description_round_trips(tmp_path):
    tree = build_custom_hand(HandShapeParams.zeros())
    path = tmp_path / "hand.robot"
    path.write_text(dump_robot(tree))
    again = load_robot(path)
    assert again.num_actuated == 45
    q = np.zeros(45)
    for name in tree.keypoint_names:
        assert forward_kinematics(again, q)[name] == pytest.approx(
            forward_kinematics(tree, q)[name], abs=1e-12
        )
    assert len(again.geometry) == 16


def test_custom_hand_is_built_from_its_description_document():
    hand = build_custom_hand(HandShapeParams(np.linspace(-1.0, 1.0, 10)), name="hand-doc")
    doc = json.loads(dump_robot(hand))
    # The palm's origin_rpy is the document's [0, 0, 0], not angles recovered from its rotation.
    assert [math.copysign(1.0, v) for v in doc["links"][0]["origin_rpy"]] == [1.0, 1.0, 1.0]
    again = load_robot(doc)
    assert dump_robot(again) == dump_robot(hand)
    for key in ("_origin_rot", "_origin_trans", "joint_axes", "_kp_offsets", "_frame_template"):
        assert getattr(again, key).tobytes() == getattr(hand, key).tobytes()
    assert again.origin_rpy.tolist() == hand.origin_rpy.tolist()


def test_shape_params_reject_bad_input():
    with pytest.raises(DataError):
        HandShapeParams(np.zeros(9))
    with pytest.raises(DataError):
        HandShapeParams(np.array([np.nan] * 10))


def test_template_rejects_runaway_basis():
    template = default_template()
    basis = template.length_basis.copy()
    basis[0, :] = 0.02  # 5 * 0.02 = 0.1 > every bone length
    with pytest.raises(DataError, match="length basis too large"):
        HandTemplate(template.palm_box, template.fingers, basis)


def test_template_rebuilds_from_its_own_arrays():
    template = default_template()
    fingers = {name: FingerSpec(spec.base_xyz, spec.base_rpy, spec.lengths, spec.radii)
               for name, spec in template.fingers.items()}
    rebuilt = HandTemplate(template.palm_box, fingers, template.length_basis)
    assert np.array_equal(rebuilt.palm_box, template.palm_box)
    assert np.array_equal(rebuilt.length_basis, template.length_basis)
    for name, spec in rebuilt.fingers.items():
        for key in ("base_xyz", "base_rpy", "lengths", "radii"):
            assert np.array_equal(getattr(spec, key), getattr(template.fingers[name], key))


def test_default_template_is_shared_and_read_only():
    template = default_template()
    assert default_template() is template
    arrays = [template.palm_box, template.length_basis]
    arrays += [getattr(spec, key) for spec in template.fingers.values()
               for key in ("base_xyz", "base_rpy", "lengths", "radii")]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = 0.0
    with pytest.raises(TypeError):
        template.fingers["thumb"] = template.fingers["index"]


def test_equal_shapes_share_one_hand_per_template_and_name(tmp_path):
    beta = np.linspace(-1.0, 1.0, 10)
    hand = build_custom_hand(HandShapeParams(beta))
    assert build_custom_hand(HandShapeParams(beta.copy()), default_template()) is hand
    assert build_custom_hand(HandShapeParams(beta), name="other") is not hand
    assert build_custom_hand(HandShapeParams(beta + 0.1)) is not hand

    doc = json.loads(template_path().read_text())
    doc["palm_box"][0] += 0.01
    edited = tmp_path / "template.json"
    edited.write_text(json.dumps(doc))
    template = load_template(edited)
    wider = build_custom_hand(HandShapeParams(beta), template)
    assert wider is not hand
    assert dump_robot(wider) != dump_robot(hand)
    assert build_custom_hand(HandShapeParams(beta), template) is wider
    # Each load_template call gives a new template, so a new hand key.
    assert build_custom_hand(HandShapeParams(beta), load_template(edited)) is not wider


def test_hand_cache_evicts_the_least_recently_used():
    shapes = [HandShapeParams(np.full(10, 0.01 * i)) for i in range(HAND_CACHE_SIZE + 1)]
    first = build_custom_hand(shapes[0])
    for shape in shapes[1:]:
        build_custom_hand(shape)
    again = build_custom_hand(shapes[0])
    assert again is not first
    assert dump_robot(again) == dump_robot(first)


def _edited_template(edit) -> str:
    doc = json.loads(template_path().read_text())
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text, match", [
    ('{"format": "dexhand-template/1"}', "no 'fingers'"),
    ("[1]", "JSON object"),
    ("{not json", "cannot read"),
    (lambda: _edited_template(lambda doc: doc["palm_box"].__setitem__(0, "0.09")), "palm box"),
    (lambda: _edited_template(lambda doc: doc["fingers"]["ring"]["radii"].__setitem__(1, True)), "radii"),
    (lambda: _edited_template(lambda doc: doc["palm_box"].__setitem__(2, 10**400)), "palm box"),
], ids=["no-fingers", "not-object", "not-json", "palm-numeric-string", "radius-bool", "palm-overflow"])
def test_malformed_template_is_a_data_error(text, match, tmp_path):
    path = tmp_path / "template.json"
    path.write_text(text if isinstance(text, str) else text())
    with pytest.raises(DataError, match=match):
        load_template(path)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["fingers"]["index"].pop("radii"),
    lambda doc: doc["fingers"].update(index=[1, 2]),
    lambda doc: doc["fingers"]["ring"].update(lengths=[0.04, 0.03]),
    lambda doc: doc.update(palm_box=["a", "b", "c"]),
    lambda doc: doc.update(length_basis=[[0.0] * 15] * 9),
], ids=["missing-radii", "finger-list", "two-lengths", "palm-strings", "short-basis"])
def test_template_fields_are_checked(edit, tmp_path):
    doc = json.loads(template_path().read_text())
    edit(doc)
    path = tmp_path / "template.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_template(path)


def test_missing_template_file_is_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_template(tmp_path / "nope.json")
