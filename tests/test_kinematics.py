from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from dexretarget import kinematics
from dexretarget.assets import robot_path
from dexretarget.cli import main
from dexretarget.errors import DescriptionError
from dexretarget.handgen import HandShapeParams, build_custom_hand
from dexretarget.kinematics import (
    ROBOT_CACHE_SIZE,
    dump_robot,
    forward_kinematics,
    keypoint_jacobian,
    load_robot,
)

from helpers import naive_fk, planar_two_link_doc, random_chain_doc


def fd_jacobian(tree, q, name, h=1e-6):
    n = tree.num_actuated
    jac = np.zeros((3, n))
    for j in range(n):
        qp, qm = q.copy(), q.copy()
        qp[j] += h
        qm[j] -= h
        jac[:, j] = (forward_kinematics(tree, qp)[name] - forward_kinematics(tree, qm)[name]) / (2 * h)
    return jac


def robot_file(path, doc):
    """`path` holding description `doc`: a document, or its JSON text as it is."""
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def test_planar_chain_rest_pose():
    tree = load_robot(planar_two_link_doc())
    tip = forward_kinematics(tree, np.zeros(2))["tip"]
    assert tip == pytest.approx([2.0, 0.0, 0.0], abs=1e-15)


def test_planar_chain_quarter_turn():
    tree = load_robot(planar_two_link_doc())
    tip = forward_kinematics(tree, np.array([np.pi / 2, 0.0]))["tip"]
    assert tip == pytest.approx([0.0, 2.0, 0.0], abs=1e-15)


def test_planar_jacobian_matches_analytic_columns():
    tree = load_robot(planar_two_link_doc())
    jac = keypoint_jacobian(tree, np.zeros(2), "tip")
    # d/dtheta of (cos t1 + cos(t1+t2), sin t1 + sin(t1+t2)) at zero.
    assert jac[:, 0] == pytest.approx([0.0, 2.0, 0.0], abs=1e-15)
    assert jac[:, 1] == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


def test_fk_matches_naive_matrix_oracle():
    rng = np.random.default_rng(7)
    for trial in range(20):
        doc = random_chain_doc(rng, 5)
        tree = load_robot(doc)
        q = rng.uniform(-2.0, 2.0, size=5)
        got = forward_kinematics(tree, q)["tip"]
        expected = naive_fk(doc, q, "tip")
        assert np.linalg.norm(got - expected) < 1e-10


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        tree = load_robot(random_chain_doc(rng, n))
        q = rng.uniform(-2.0, 2.0, size=n)
        jac = keypoint_jacobian(tree, q, "tip")
        ref = fd_jacobian(tree, q, "tip")
        denom = max(np.abs(ref).max(), 1.0)
        assert np.abs(jac - ref).max() / denom < 1e-5


def test_jacobian_zero_for_keypoint_on_root():
    doc = planar_two_link_doc()
    doc["keypoints"].append({"name": "anchor", "link": "base", "offset": [0.1, 0.2, 0.3]})
    tree = load_robot(doc)
    jac = keypoint_jacobian(tree, np.array([0.3, -0.7]), "anchor")
    assert np.all(jac == 0.0)


def test_fk_is_deterministic_bitwise():
    rng = np.random.default_rng(3)
    doc = random_chain_doc(rng, 4)
    tree = load_robot(doc)
    q = rng.uniform(-1, 1, size=4)
    a = forward_kinematics(tree, q)["tip"]
    b = forward_kinematics(tree, q)["tip"]
    assert a.tobytes() == b.tobytes()


def test_jacobian_fk_consistency_observed_order():
    rng = np.random.default_rng(19)
    for trial in range(5):
        n = int(rng.integers(3, 6))
        tree = load_robot(random_chain_doc(rng, n))
        q = rng.uniform(-1.5, 1.5, size=n)
        delta = rng.normal(size=n)
        delta /= np.linalg.norm(delta)
        jac = keypoint_jacobian(tree, q, "tip")
        base = forward_kinematics(tree, q)["tip"]

        def err(h):
            moved = forward_kinematics(tree, q + h * delta)["tip"]
            return np.linalg.norm(moved - base - h * jac @ delta)

        e1, e2 = err(1e-3), err(1e-4)
        if e2 < 1e-14:  # both below noise floor, nothing to measure
            continue
        order = np.log10(e1 / e2)
        assert order >= 1.9


def test_root_translation_shifts_all_keypoints():
    rng = np.random.default_rng(23)
    doc = random_chain_doc(rng, 4)
    doc["keypoints"].append({"name": "mid", "link": "l1", "offset": [0.05, 0.0, 0.02]})
    shift = np.array([0.4, -0.2, 0.9])
    moved = copy.deepcopy(doc)
    moved["links"][0]["origin_xyz"] = list(shift)

    q = rng.uniform(-1, 1, size=4)
    base_kp = forward_kinematics(load_robot(doc), q)
    moved_kp = forward_kinematics(load_robot(moved), q)
    for name in base_kp:
        assert moved_kp[name] - base_kp[name] == pytest.approx(shift, abs=1e-12)


def test_loader_counts_actuated_joints():
    tree = load_robot(planar_two_link_doc())
    assert tree.num_actuated == 2
    assert tree.actuated_joints == ("l1", "l2")


def test_missing_parent_names_offending_link():
    doc = planar_two_link_doc()
    doc["links"][2]["parent"] = "nope"
    with pytest.raises(DescriptionError, match="l2"):
        load_robot(doc)


def test_description_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    doc = random_chain_doc(rng, 4)
    tree = load_robot(doc)
    text = dump_robot(tree)
    again = load_robot(robot_file(tmp_path / "chain.robot", text))
    q = rng.uniform(-1, 1, size=4)
    assert forward_kinematics(again, q)["tip"] == pytest.approx(
        forward_kinematics(tree, q)["tip"], abs=1e-12
    )
    assert dump_robot(again) == text


@pytest.mark.parametrize("corruption", range(7))
def test_validation_rejects_random_corruptions(corruption):
    rng = np.random.default_rng(100 + corruption)
    doc = random_chain_doc(rng, 4)

    if corruption == 0:  # non-unit axis
        doc["joints"][1]["axis"] = [0.5, 0.5, 0.5]
    elif corruption == 1:  # inverted limits
        doc["joints"][2]["limit_lower"], doc["joints"][2]["limit_upper"] = 1.0, -1.0
    elif corruption == 2:  # cycle
        doc["links"][1]["parent"] = "l3"
    elif corruption == 3:  # duplicate keypoint name
        doc["keypoints"].append(dict(doc["keypoints"][0]))
    elif corruption == 4:  # indefinite inertia tensor
        doc["inertials"][2]["inertia_6"] = [-1.0, 0, 0, 1.0, 0, 1.0]
    elif corruption == 5:  # second root
        doc["links"].append({"id": "stray", "parent": None, "origin_xyz": [0, 0, 0], "origin_rpy": [0, 0, 0]})
    elif corruption == 6:  # joint whose child link does not exist
        doc["joints"].append({"child_link": "ghost", "type": "revolute", "axis": [0, 0, 1],
                              "limit_lower": 0, "limit_upper": 0, "damping": 0})

    with pytest.raises(DescriptionError):
        load_robot(doc)


def test_fk_rejects_wrong_length():
    tree = load_robot(planar_two_link_doc())
    with pytest.raises(DescriptionError):
        forward_kinematics(tree, np.zeros(3))


def test_unknown_keypoint_raises():
    tree = load_robot(planar_two_link_doc())
    with pytest.raises(DescriptionError, match="nothere"):
        keypoint_jacobian(tree, np.zeros(2), "nothere")


def _malformed(edit):
    doc = planar_two_link_doc()
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, element", [
    ({"name": "x", "links": [1]}, "links[0]"),
    ({"name": "x", "links": "base"}, "links"),
    (_malformed(lambda d: d["links"][1].update(id=["l1"])), "links[1]"),
    (_malformed(lambda d: d["links"][2].update(parent=["l1"])), "l2"),
    (_malformed(lambda d: d["links"][1].update(origin_xyz="123")), "l1"),
    (_malformed(lambda d: d["joints"][0].update(limit_lower="abc")), "l1"),
    (_malformed(lambda d: d["joints"][1].update(damping=[0.1])), "l2"),
    (_malformed(lambda d: d["joints"].append(7)), "joints[2]"),
    (_malformed(lambda d: d["inertials"][1].update(inertia_6=5)), "l1"),
    (_malformed(lambda d: d["inertials"][2].update(mass="heavy")), "l2"),
    (_malformed(lambda d: d["keypoints"][0].update(link={"id": "l2"})), "tip"),
    (_malformed(lambda d: d.update(geometry=[{"link": "l1"}, "capsule"])), "geometry[1]"),
    (_malformed(lambda d: d["joints"][1].update(limit_upper=float("nan"))), "l2"),
    (_malformed(lambda d: d["joints"][0].update(damping=float("nan"))), "l1"),
    (_malformed(lambda d: d["links"][2].update(origin_xyz=["1", "0", "0"])), "l2"),
    (_malformed(lambda d: d["joints"][0].update(limit_lower="-1.5")), "l1"),
    (_malformed(lambda d: d["joints"][1].update(damping=True)), "l2"),
    (_malformed(lambda d: d["joints"][1].update(axis=[0, 0, True])), "l2"),
    (_malformed(lambda d: d["inertials"][1].update(mass=False)), "l1"),
    (_malformed(lambda d: d["keypoints"][0].update(offset=[1, 0, "0"])), "tip"),
    (_malformed(lambda d: d["joints"][0].update(limit_upper=10**400)), "l1"),
    (_malformed(lambda d: d["links"][1].update(origin_xyz=[10**400, 0, 0])), "l1"),
    (_malformed(lambda d: d["keypoints"][0].update(offset=[float("nan"), 0, 0])), "tip"),
    (_malformed(lambda d: d["joints"][1].update(axis=[0, 0, float("nan")])), "l2"),
    (_malformed(lambda d: d["joints"][0].update(limit_lower=float("-inf"))), "l1"),
    (_malformed(lambda d: d["inertials"][2].update(com=[0, float("nan"), 0])), "l2"),
], ids=["link-not-object", "links-not-list", "link-id-list", "parent-list", "origin-string",
        "limit-string", "damping-list", "joint-not-object", "inertia-scalar", "mass-string",
        "keypoint-link-object", "geometry-not-object", "limit-nan", "damping-nan",
        "origin-number-strings", "limit-number-string", "damping-bool", "axis-bool", "mass-bool",
        "offset-number-string", "limit-overflow", "origin-overflow", "offset-nan", "axis-nan",
        "limit-inf", "com-nan"])
def test_malformed_description_names_the_element(doc, element, tmp_path):
    with pytest.raises(DescriptionError) as info:
        load_robot(doc)
    assert info.value.element == element
    with pytest.raises(DescriptionError):  # the same through a file
        load_robot(robot_file(tmp_path / "bad.robot", doc))


@pytest.mark.parametrize("section, key", [
    ("joints", "limit_lower"), ("joints", "limit_upper"), ("joints", "damping"), ("inertials", "mass")])
@pytest.mark.parametrize("bad, shown", [("0.5", "'0.5'"), (True, "True"), (float("nan"), "nan"),
                                        (float("inf"), "inf"), (10**400, None)],
                         ids=["string", "bool", "nan", "inf", "overflow"])
def test_number_columns_name_the_first_bad_entry(section, key, bad, shown, tmp_path):
    # The scalar columns are checked in bulk; a fault in one entry still gets
    # finite_number's message, naming that entry's element (l2, the last).
    doc = planar_two_link_doc()
    doc[section][-1][key] = bad
    if shown is None:
        shown = f"{repr(bad)[:24]}...{repr(bad)[-8:]} ({len(repr(bad))} characters)"
    for source in (doc, robot_file(tmp_path / "bad.robot", doc)):
        with pytest.raises(DescriptionError) as info:
            load_robot(source)
        assert (str(info.value), info.value.element) == (
            f"{key} must be a finite number, got {shown} (element: l2)", "l2")
    doc[section][-2][key] = "first"  # an earlier fault is the one named
    with pytest.raises(DescriptionError) as info:
        load_robot(doc)
    assert info.value.element == "l1"


def test_equal_texts_share_one_tree_and_an_edit_is_seen(tmp_path):
    path = tmp_path / "planar.robot"
    path.write_text(json.dumps(planar_two_link_doc()))
    tree = load_robot(path)
    assert load_robot(path) is tree
    assert load_robot(str(path)) is tree
    assert load_robot(robot_file(tmp_path / "copy.robot", path.read_text())) is tree

    path.write_text(json.dumps(planar_two_link_doc(l1=2.0)))
    edited = load_robot(path)
    assert edited is not tree
    assert forward_kinematics(edited, np.zeros(2))["tip"] == pytest.approx([3.0, 0.0, 0.0], abs=1e-15)
    assert forward_kinematics(tree, np.zeros(2))["tip"] == pytest.approx([2.0, 0.0, 0.0], abs=1e-15)


def test_dict_sources_are_built_afresh():
    doc = planar_two_link_doc()
    assert load_robot(doc) is not load_robot(doc)


def test_a_path_that_begins_with_a_brace_is_read_as_a_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tree = load_robot(robot_file(tmp_path / "{x}.robot", planar_two_link_doc()))
    assert load_robot("{x}.robot") is tree
    assert load_robot(Path("{x}.robot")) is tree
    assert main(["fk", "--robot", "{x}.robot"]) == 0


def test_description_cache_evicts_the_least_recently_used(tmp_path):
    paths = [robot_file(tmp_path / f"r{i}.robot", planar_two_link_doc(l1=1.0 + i))
             for i in range(ROBOT_CACHE_SIZE + 1)]
    first = load_robot(paths[0])
    assert load_robot(paths[0]) is first
    for path in paths[1:]:
        load_robot(path)
    assert load_robot(paths[0]) is not first


def test_invalid_description_text_is_not_cached(tmp_path):
    path = robot_file(tmp_path / "bad.robot", _malformed(lambda d: d["links"][2].update(parent="nope")))
    before = kinematics._load_text.cache_info()
    for _ in range(2):
        with pytest.raises(DescriptionError, match="l2"):
            load_robot(path)
    after = kinematics._load_text.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)


# The description's array columns and the slot-order arrays; RNEA's _mass,
# _com and _inertia besides when every link has an inertial.
TREE_ARRAYS = {"origin_xyz", "origin_rpy", "joint_axes", "joint_lower", "joint_upper", "joint_damping", "masses",
               "coms", "inertias", "keypoint_offsets", "_order", "_parent_slots", "_origin_rot", "_origin_trans",
               "_frame_template", "_joint_cols", "_joint_turns", "_joint_outer", "_joint_skew", "_joint_slots",
               "_axis_columns", "_kp_slots", "_kp_offsets", "_kp_joint_mask"}


def tree_arrays(tree) -> dict[str, np.ndarray]:
    """Every array a tree holds, its traversal caches included, by name."""
    arrays = {key: v for key, v in vars(tree).items() if isinstance(v, np.ndarray)}
    arrays.update((f"_levels[{i}].parents", level.parents) for i, level in enumerate(tree._levels)
                  if not isinstance(level.parents, slice))
    return arrays


@pytest.mark.parametrize("source", ["allegro", "schunk", "adroit", "customized", "dict"])
def test_shared_trees_are_read_only(source):
    if source == "customized":
        tree = build_custom_hand(HandShapeParams.zeros())
    elif source == "dict":
        tree = load_robot(random_chain_doc(np.random.default_rng(5), 4))
    else:
        tree = load_robot(robot_path(source))
    arrays = tree_arrays(tree)
    assert TREE_ARRAYS <= set(arrays)
    assert ({"_mass", "_com", "_inertia"} <= set(arrays)) == (tree._no_inertial is None)
    for arr in arrays.values():
        with pytest.raises(ValueError):
            arr[...] = 0.0
    # Every other field is immutable: a string, a tuple or a read-only mapping.
    for key, value in vars(tree).items():
        assert value is None or isinstance(value, (np.ndarray, str, tuple, MappingProxyType)), key
    with pytest.raises(TypeError):
        tree._kp_row[tree.keypoint_names[0]] = 0
    with pytest.raises(TypeError):
        tree.link_ids[0] = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.joint_lower = np.zeros(tree.num_actuated)
    for entry in tree.geometry:
        with pytest.raises(TypeError):
            entry["kind"] = "box"


def test_read_only_tree_dumps_as_before():
    tree = build_custom_hand(HandShapeParams.zeros())
    doc = json.loads(dump_robot(tree))
    assert doc["geometry"][0] == {"link": "palm", "kind": "box", "size": list(tree.geometry[0]["size"])}
    assert dump_robot(load_robot(doc)) == dump_robot(tree)
