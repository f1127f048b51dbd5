"""Kinematic trees: description parsing, forward kinematics, Jacobians.

A tree is a rooted chain of links connected by revolute or fixed joints.
Each link carries a fixed origin transform expressed in its parent's frame;
a revolute joint then rotates the link about a unit axis given in the link's
own frame (right-handed, zero angle = description pose). Joint vectors are
plain float arrays ordered by the tree's canonical actuated ordering, which
is the order of appearance in the description's joint list.

A tree is columnar: each section of its description document is held as
read-only columns in description order, with no per-element records.
- links: link_ids, link_parents, origin_xyz (n_links, 3) and origin_rpy
  (n_links, 3), the angles as the document gave them;
- joints: joint_links (each joint's child link) and joint_types; the
  revolute joints, in actuated order, also have joint_axes (N, 3) and
  joint_lower, joint_upper and joint_damping (N,). A fixed joint's limits
  and damping are checked but not kept;
- inertials: inertial_links, masses (M,), coms (M, 3) and inertias
  (M, 3, 3), about the COM in the link frame;
- keypoints: keypoint_names, keypoint_links and keypoint_offsets (K, 3);
- geometry: read-only copies of the document's entries.

A tree is built only from its description document: load_robot checks each
vector column with one float_rows call (errors.py) and each number column in
bulk the same way, each naming the first failing element, then checks the
tree as array operations and builds it once, its slot-order arrays included.
So what load_robot accepts, write_robot writes from the columns and
load_robot reads back. Every other tree, the customized hand included
(handgen), is a document given to load_robot.

Forward kinematics works on homogeneous 4x4 link frames: _link_poses gives
every link's world frame (B, n_links, 4, 4), each depth level one product of
its parents' frames and its local frames [[origin_rot @ joint, origin_trans],
[0, 0, 0, 1]]. Keypoints are one gather of frames times homogeneous offsets,
and keypoint Jacobians are built transposed, one row per joint (N, 3K).
They agree to 1e-12 with the rotation-and-origin reference kernels in
tests/helpers.py (which associate each rotation as (rot_p @ origin_rot) @
joint); a rerun is bitwise the same.

Units are fixed globally: meters, radians, seconds, kilograms.
"""
from __future__ import annotations

import functools
import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import DescriptionError, atomic_write_text, finite_number, float_rows, parse_object, read_text
from .transforms import _SKEW_BASIS, _axis_terms, _rodrigues, quat_from_rpy, quat_normalize, quat_to_matrix

_AXIS_TOL = 1e-9
_FLOAT_MAX = sys.float_info.max
_PSD_TOL = -1e-9
# Distinct description texts whose trees load_robot keeps (a bundled robot
# and its text take about 70 KB).
ROBOT_CACHE_SIZE = 16

REVOLUTE = "revolute"
FIXED = "fixed"

# inertia_6 lists (ixx, ixy, ixz, iyy, iyz, izz): _TENSOR_FROM_6 picks its
# entries for the 3x3 tensor row by row, and _UPPER_ROWS, _UPPER_COLS are the
# tensor entries that it lists.
_TENSOR_FROM_6 = [0, 1, 2, 1, 3, 4, 2, 4, 5]
_UPPER_ROWS, _UPPER_COLS = [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]


class _Level(NamedTuple):
    """One tree depth of the slot layout.

    The level's links fill the slots `links`. `parents` is a slice of
    parent slots when it can be one: a single shared parent (a length-1
    slice that broadcasts) or a run of consecutive parents (a chain); it is
    an index array only where the level branches or skips a chain that has
    ended.
    """

    links: slice
    parents: slice | np.ndarray


@dataclass(frozen=True, eq=False, repr=False)
class KinematicTree:
    """Immutable articulated chain; safe to share across threads.

    Every array it holds is read-only, as is `_kp_row`, and each `geometry`
    entry is a read-only copy, so one tree can serve every caller that loads
    the same description. Built only by load_robot.
    """

    name: str
    # The description's columns, in description order.
    link_ids: tuple[str, ...]
    link_parents: tuple[str | None, ...]
    origin_xyz: np.ndarray        # (n_links, 3)
    origin_rpy: np.ndarray        # (n_links, 3)
    joint_links: tuple[str, ...]  # each joint's child link
    joint_types: tuple[str, ...]
    actuated_joints: tuple[str, ...]  # child links of the revolute joints, canonical order
    joint_axes: np.ndarray        # (N, 3), actuated order
    joint_lower: np.ndarray       # (N,)
    joint_upper: np.ndarray       # (N,)
    joint_damping: np.ndarray     # (N,)
    inertial_links: tuple[str, ...]
    masses: np.ndarray            # (M,)
    coms: np.ndarray              # (M, 3)
    inertias: np.ndarray          # (M, 3, 3)
    keypoint_names: tuple[str, ...]
    keypoint_links: tuple[str, ...]
    keypoint_offsets: np.ndarray  # (K, 3)
    geometry: tuple[Mapping, ...]
    # Slot-order arrays. Link poses are computed in slot order: the root is
    # slot 0, then the links level by level, each level ordered by its links'
    # parent slots (siblings in description order).
    _order: np.ndarray            # description index per slot
    _parent_slots: np.ndarray     # -1 for the root
    _origin_rot: np.ndarray       # (n_links, 3, 3)
    _origin_trans: np.ndarray     # (n_links, 3)
    # (n_links, 4, 4): the root's origin frame in slot 0; every other slot
    # holds its local frame's origin translation and [0, 0, 0, 1] row, and a
    # zero rotation block (each FK writes origin_rot @ joint there, in a copy).
    _frame_template: np.ndarray
    # Per non-root slot: the q column of its joint and that angle's 0/1 turn
    # (0 and 0 for a fixed joint), and its axis's Rodrigues terms (zero if fixed).
    _joint_cols: np.ndarray
    _joint_turns: np.ndarray
    _joint_outer: np.ndarray
    _joint_skew: np.ndarray
    _levels: tuple[_Level, ...]
    _joint_slots: np.ndarray      # slot per q column
    _axis_columns: np.ndarray     # (num_actuated, 3, 1)
    _kp_row: Mapping[str, int]
    _kp_slots: np.ndarray
    _kp_offsets: np.ndarray       # (K, 4, 1) homogeneous: [offset, 1]
    # [k, j]: joint column j lies on the root-to-keypoint-k chain.
    _kp_joint_mask: np.ndarray
    # RNEA's mass (n_links, 1), COM (n_links, 3) and inertia (n_links, 3, 3)
    # per slot; None when a link has no inertial, the first of which
    # _no_inertial names.
    _mass: np.ndarray | None
    _com: np.ndarray | None
    _inertia: np.ndarray | None
    _no_inertial: str | None

    def __post_init__(self):
        arrays = [v for v in vars(self).values() if isinstance(v, np.ndarray)]
        arrays += [level.parents for level in self._levels if not isinstance(level.parents, slice)]
        for array in arrays:
            array.flags.writeable = False

    def __repr__(self) -> str:
        return f"KinematicTree({self.name!r}, {len(self.link_ids)} links, {self.num_actuated} actuated joints)"

    @property
    def num_actuated(self) -> int:
        return len(self.actuated_joints)

    def joint_limits(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only lower and upper limit columns (N,), actuated order."""
        return self.joint_lower, self.joint_upper

    def check_q(self, q: np.ndarray, batch: bool = True) -> np.ndarray:
        """Validate one joint vector (n,) or, with `batch`, a stack of them (B, n).

        A stack's first non-finite frame is named by its index.
        """
        q = np.asarray(q, dtype=float)
        if q.ndim not in ((1, 2) if batch else (1,)) or q.shape[-1] != self.num_actuated:
            raise DescriptionError(
                f"joint vector has shape {q.shape}, tree '{self.name}' has "
                f"{self.num_actuated} actuated joints"
            )
        finite = np.isfinite(q).all(axis=-1)
        if not finite.all():
            frame = "" if q.ndim == 1 else f"frame {np.argmin(finite)}: "
            raise DescriptionError(f"{frame}joint vector contains non-finite entries")
        return q


def _frozen(value):
    """Read-only copy of a JSON value: objects become read-only mappings, lists tuples."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


def _plain(value):
    """The JSON value of a _frozen copy."""
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Description document I/O
# ---------------------------------------------------------------------------

def _entries(doc: dict, key: str) -> list[dict]:
    """The JSON objects listed under `key` (none when it is absent)."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise DescriptionError(f"{key} must be a list", element=key)
    for i, raw in enumerate(entries):
        if not isinstance(raw, dict):
            raise DescriptionError(f"{key} entry must be a JSON object", element=f"{key}[{i}]")
    return entries


def _name(raw: dict, key: str, element: str, required: bool = True) -> str | None:
    """The string under `key`; an absent or empty one raises if `required`, else gives None."""
    value = raw.get(key)
    if value is None or value == "":
        if required:
            raise DescriptionError(f"missing {key}", element=element)
        return None
    if not isinstance(value, str):
        raise DescriptionError(f"{key} must be a string", element=element)
    return value


def _vectors(entries: list[dict], key: str, width: int, elements, default=None) -> np.ndarray:
    """The `key` vectors of `entries` (zeros, or `default`, where absent) as
    one (len, width) array: one float_rows call, a bad row named by its element."""
    default = [0] * width if default is None else default
    return float_rows([raw.get(key, default) for raw in entries], width, DescriptionError, elements, key)


def _numbers(entries: list[dict], key: str, elements) -> np.ndarray:
    """The `key` numbers of `entries` (0 where absent); finite_number names the first bad one."""
    values = [raw.get(key, 0.0) for raw in entries]
    if set(map(type, values)) <= {int, float} and all(abs(v) <= _FLOAT_MAX for v in values):
        return np.array(values, dtype=float)
    return np.array([finite_number(value, functools.partial(DescriptionError, element=element), key)
                     for value, element in zip(values, elements)], dtype=float)


def _repeat(values) -> str | None:
    """The first value that appears a second time, if any."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


def _reject(flags, elements, message: str):
    """Raise DescriptionError(message) naming the first element whose flag is set."""
    flags = np.asarray(flags, dtype=bool)
    if flags.any():
        raise DescriptionError(message, element=elements[int(np.argmax(flags))])


def load_robot(source: str | Path | dict) -> KinematicTree:
    """Load and validate a robot description from a file path (`str` or `Path`) or a dict.

    A path is read on every call, so an edited file is never served stale.
    Equal texts then share one tree, built the first time: up to
    ROBOT_CACHE_SIZE texts, least recently used first out. A dict is built
    afresh on every call.
    """
    if isinstance(source, dict):
        return _tree_from_document(source)
    return _load_text(read_text(source, DescriptionError, "robot description"))


@functools.lru_cache(maxsize=ROBOT_CACHE_SIZE)
def _load_text(text: str) -> KinematicTree:
    return _tree_from_document(parse_object(text, DescriptionError, "robot description"))


def _tree_from_document(doc: dict) -> KinematicTree:
    """Read the document's sections into columns, check the tree and build it."""
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise DescriptionError("missing robot name")

    links = _entries(doc, "links")
    ids = tuple(_name(raw, "id", f"links[{i}]") for i, raw in enumerate(links))
    parents = tuple(_name(raw, "parent", lid, required=False) for raw, lid in zip(links, ids))
    origin_xyz = _vectors(links, "origin_xyz", 3, ids)
    origin_rpy = _vectors(links, "origin_rpy", 3, ids)
    if not ids:
        raise DescriptionError("robot description has no links")

    joints = _entries(doc, "joints")
    joint_links = tuple(_name(raw, "child_link", f"joints[{i}]") for i, raw in enumerate(joints))
    if (repeat := _repeat(joint_links)) is not None:
        raise DescriptionError("link has multiple joints", element=repeat)
    joint_types = tuple(raw.get("type", REVOLUTE) for raw in joints)
    revolute = np.array([t == REVOLUTE for t in joint_types], dtype=bool)
    actuated = tuple(c for c, r in zip(joint_links, revolute) if r)
    joint_axes = _vectors([raw for raw, r in zip(joints, revolute) if r], "axis", 3, actuated, default=[0, 0, 1])
    lower, upper, damping = (_numbers(joints, key, joint_links)[revolute]
                             for key in ("limit_lower", "limit_upper", "damping"))

    inertials = _entries(doc, "inertials")
    inertial_links = tuple(_name(raw, "link", f"inertials[{i}]") for i, raw in enumerate(inertials))
    if (repeat := _repeat(inertial_links)) is not None:
        raise DescriptionError("link has multiple inertials", element=repeat)
    inertias = _vectors(inertials, "inertia_6", 6, inertial_links)[:, _TENSOR_FROM_6].reshape(-1, 3, 3)
    masses = _numbers(inertials, "mass", inertial_links)
    coms = _vectors(inertials, "com", 3, inertial_links)

    keypoints = _entries(doc, "keypoints")
    kp_names = tuple(_name(raw, "name", f"keypoints[{i}]") for i, raw in enumerate(keypoints))
    kp_links = tuple(_name(raw, "link", kname, required=False) or "" for raw, kname in zip(keypoints, kp_names))
    kp_offsets = _vectors(keypoints, "offset", 3, kp_names)
    geometry = tuple(_frozen(g) for g in _entries(doc, "geometry"))

    # The tree checks, each naming the first failing element.
    if (repeat := _repeat(ids)) is not None:
        raise DescriptionError("duplicate link id", element=repeat)
    index = {lid: i for i, lid in enumerate(ids)}
    roots = [lid for lid, parent in zip(ids, parents) if parent is None]
    if len(roots) != 1:
        raise DescriptionError(f"tree must have exactly one root link, found {roots}")
    root = roots[0]
    _reject([p is not None and p not in index for p in parents], ids, "link references missing parent")

    # Slot order: the root, then depth by depth each link's children in
    # description order, so a level's links follow their parents' slots.
    # Anything unreached is a cycle or orphan.
    children: dict[str, list[str]] = {lid: [] for lid in ids}
    for lid, parent in zip(ids, parents):
        if parent is not None:
            children[parent].append(lid)
    slot_ids = [root]
    bounds = []  # slot range of each depth 1, 2, ...
    start = 0
    while level := [c for lid in slot_ids[start:] for c in children[lid]]:
        start = len(slot_ids)
        slot_ids.extend(level)
        bounds.append((start, len(slot_ids)))
    if len(slot_ids) != len(ids):
        missing = sorted(set(ids) - set(slot_ids))
        raise DescriptionError("cycle in parent graph", element=missing[0])

    jointed = set(joint_links)
    if root in jointed:
        raise DescriptionError("root link cannot have a joint", element=root)
    _reject([lid != root and lid not in jointed for lid in ids], ids, "non-root link has no joint")
    if unknown := [(c, t) for c, t in zip(joint_links, joint_types) if t not in (REVOLUTE, FIXED)]:
        raise DescriptionError(f"unknown joint type '{unknown[0][1]}'", element=unknown[0][0])
    _reject(np.abs(np.linalg.norm(joint_axes, axis=1) - 1.0) > _AXIS_TOL, actuated, "joint axis is not unit length")
    _reject(~(lower <= upper), actuated, "joint limits must satisfy lower <= upper")
    _reject(damping < 0, actuated, "joint damping must be finite and nonnegative")
    _reject([c not in index for c in joint_links], joint_links, "joint references missing child link")

    _reject([link not in index for link in inertial_links], inertial_links, "inertial references missing link")
    _reject(masses < 0, inertial_links, "invalid mass")
    _reject(np.linalg.eigvalsh(inertias).min(axis=1) < _PSD_TOL, inertial_links,
            "inertia tensor not positive semi-definite")

    if (repeat := _repeat(kp_names)) is not None:
        raise DescriptionError("duplicate keypoint name", element=repeat)
    _reject([link not in index for link in kp_links], kp_names, "keypoint references missing link")

    # Slot-order arrays.
    n = len(slot_ids)
    slot = {lid: s for s, lid in enumerate(slot_ids)}
    order = np.array([index[lid] for lid in slot_ids], dtype=int)
    parent_slots = np.array([-1] + [slot[parents[i]] for i in order[1:]], dtype=int)
    # Normalized a second time, so that each origin rounds to the bits of
    # RigidTransform(quat_from_rpy(*rpy)), one link at a time (one normalize
    # differs in the last bit on some angles).
    origin_rot = quat_to_matrix(quat_normalize(quat_from_rpy(*origin_rpy.T))[order])
    origin_trans = origin_xyz[order]

    column = {c: col for col, c in enumerate(actuated)}  # link id -> q column
    joint_slots = np.array([slot[c] for c in actuated], dtype=int)
    # Computed on the column-ordered axes, exactly as axis_angle_matrix would.
    outer, skew = _axis_terms(joint_axes)
    turns = np.array([lid in column for lid in slot_ids[1:]], dtype=bool)
    joint_cols = np.array([column.get(lid, 0) for lid in slot_ids[1:]], dtype=int)
    joint_outer = np.zeros((n - 1, 3, 3))
    joint_skew = np.zeros((n - 1, 3, 3))
    joint_outer[turns], joint_skew[turns] = outer[joint_cols[turns]], skew[joint_cols[turns]]

    frame_template = np.zeros((n, 4, 4))
    frame_template[:, 3, 3] = 1.0
    frame_template[:, :3, 3] = origin_trans
    frame_template[0, :3, :3] = origin_rot[0]

    kp_slots = np.array([slot[link] for link in kp_links], dtype=int)
    kp_offsets_h = np.ones((len(kp_names), 4, 1))
    kp_offsets_h[:, :3, 0] = kp_offsets
    kp_joint_mask = np.zeros((len(kp_names), len(actuated)), dtype=bool)
    for k, s in enumerate(kp_slots):
        while s >= 0:
            if slot_ids[s] in column:
                kp_joint_mask[k, column[slot_ids[s]]] = True
            s = parent_slots[s]

    levels = []
    for start, stop in bounds:
        level_parents = parent_slots[start:stop]
        if level_parents[0] == level_parents[-1]:
            level_parents = slice(int(level_parents[0]), int(level_parents[0]) + 1)
        elif np.all(np.diff(level_parents) == 1):
            level_parents = slice(int(level_parents[0]), int(level_parents[-1]) + 1)
        levels.append(_Level(slice(start, stop), level_parents))

    inertial_row = {link: m for m, link in enumerate(inertial_links)}
    no_inertial = next((lid for lid in ids if lid not in inertial_row), None)
    mass = com = inertia = None
    if no_inertial is None:
        rows = [inertial_row[lid] for lid in slot_ids]
        mass, com, inertia = masses[rows][:, None], coms[rows], inertias[rows]

    return KinematicTree(
        name=name, link_ids=ids, link_parents=parents, origin_xyz=origin_xyz, origin_rpy=origin_rpy,
        joint_links=joint_links, joint_types=joint_types, actuated_joints=actuated, joint_axes=joint_axes,
        joint_lower=lower, joint_upper=upper, joint_damping=damping,
        inertial_links=inertial_links, masses=masses, coms=coms, inertias=inertias,
        keypoint_names=kp_names, keypoint_links=kp_links, keypoint_offsets=kp_offsets, geometry=geometry,
        _order=order, _parent_slots=parent_slots, _origin_rot=origin_rot, _origin_trans=origin_trans,
        _frame_template=frame_template, _joint_cols=joint_cols, _joint_turns=turns.astype(float),
        _joint_outer=joint_outer, _joint_skew=joint_skew, _levels=tuple(levels), _joint_slots=joint_slots,
        _axis_columns=joint_axes[:, :, None], _kp_row=MappingProxyType({k: i for i, k in enumerate(kp_names)}),
        _kp_slots=kp_slots, _kp_offsets=kp_offsets_h, _kp_joint_mask=kp_joint_mask,
        _mass=mass, _com=com, _inertia=inertia, _no_inertial=no_inertial,
    )


def tree_to_document(tree: KinematicTree) -> dict:
    """Inverse of load_robot, written from the columns; field order is fixed for canonical output."""
    revolute = iter(zip(tree.joint_axes.tolist(), tree.joint_lower.tolist(), tree.joint_upper.tolist(),
                        tree.joint_damping.tolist()))
    joints = []
    for child, jtype in zip(tree.joint_links, tree.joint_types):
        joints.append({"child_link": child, "type": jtype})
        if jtype == REVOLUTE:
            joints[-1].update(zip(("axis", "limit_lower", "limit_upper", "damping"), next(revolute)))
    doc = {
        "name": tree.name,
        "links": [{"id": lid, "parent": parent, "origin_xyz": xyz, "origin_rpy": rpy}
                  for lid, parent, xyz, rpy in zip(tree.link_ids, tree.link_parents, tree.origin_xyz.tolist(),
                                                   tree.origin_rpy.tolist())],
        "joints": joints,
        "inertials": [{"link": link, "mass": mass, "com": com, "inertia_6": inertia_6}
                      for link, mass, com, inertia_6 in zip(tree.inertial_links, tree.masses.tolist(),
                                                            tree.coms.tolist(),
                                                            tree.inertias[:, _UPPER_ROWS, _UPPER_COLS].tolist())],
        "keypoints": [{"name": kname, "link": link, "offset": offset}
                      for kname, link, offset in zip(tree.keypoint_names, tree.keypoint_links,
                                                     tree.keypoint_offsets.tolist())],
    }
    if tree.geometry:
        doc["geometry"] = [_plain(g) for g in tree.geometry]
    return doc


def dump_robot(tree: KinematicTree) -> str:
    return json.dumps(tree_to_document(tree), indent=2) + "\n"


def write_robot(tree: KinematicTree, path: str | Path):
    atomic_write_text(path, dump_robot(tree))


# ---------------------------------------------------------------------------
# Forward kinematics and Jacobians
# ---------------------------------------------------------------------------

def _joint_rotations(tree: KinematicTree, q: np.ndarray) -> np.ndarray:
    """Joint rotations (B, n_links - 1, 3, 3) of the non-root slots for a (B, n) stack.

    One Rodrigues evaluation from the tree's axis terms covers all joints and
    frames. A fixed joint's angle is its gathered column times its 0 in
    _joint_turns, which with its zero axis terms gives exactly the identity.
    """
    angles = (q if tree.num_actuated else np.zeros((len(q), 1))).take(tree._joint_cols, axis=1)
    if len(tree.link_ids) - 1 > tree.num_actuated:
        angles *= tree._joint_turns
    return _rodrigues(tree._joint_outer, tree._joint_skew, angles[..., None, None])


def _link_poses(tree: KinematicTree, q: np.ndarray) -> np.ndarray:
    """World frames (B, n_links, 4, 4) of every link, in slot order, for a (B, n) stack.

    A link's frame is its parent's frame times its local frame
    [[origin_rot @ joint, origin_trans], [0, 0, 0, 1]]: a copy of the tree's
    frame template whose rotation blocks take one batched product. The world
    frames start as their copy (the root's frame is the template's), and each
    depth level is then one product of its parents' frames (a slice where it
    can be) and its local frames, written as one block.
    """
    local = tree._frame_template[None].repeat(len(q), axis=0)
    np.matmul(tree._origin_rot[1:], _joint_rotations(tree, q), out=local[:, 1:, :3, :3])
    frames = local.copy()
    for links, parents in tree._levels:
        source = frames[:, parents] if isinstance(parents, slice) else frames.take(parents, axis=1)
        np.matmul(source, local[:, links], out=frames[:, links])
    return frames


def _as_batch(tree: KinematicTree, q: np.ndarray) -> tuple[np.ndarray, bool]:
    """Validated (B, n) view of q and whether q was a single (n,) vector."""
    q = tree.check_q(q)
    return np.atleast_2d(q), q.ndim == 1


def _keypoint_positions(frames: np.ndarray, slots: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Positions (..., K, 3) of keypoints on the link `slots` (K,) at homogeneous
    `offsets` (K, 4, 1), from link frames (..., n_links, 4, 4): one gather and
    one stacked product."""
    return (frames.take(slots, axis=-3) @ offsets)[..., :3, 0]


def _keypoints(tree: KinematicTree, q: np.ndarray) -> np.ndarray:
    """Positions (B, K, 3) of all keypoints, in tree order, for a validated (B, n) stack."""
    return _keypoint_positions(_link_poses(tree, q), tree._kp_slots, tree._kp_offsets)


def forward_kinematics(tree: KinematicTree, q: np.ndarray) -> dict[str, np.ndarray]:
    """Positions of all keypoints in the root frame, keyed by name.

    Each value is (3,) for one joint vector and (B, 3) for a (B, n) stack.
    """
    qb, single = _as_batch(tree, q)
    points = _keypoints(tree, qb)
    if single:
        points = points[0]
    return {name: points[..., k, :] for k, name in enumerate(tree.keypoint_names)}


def _keypoint_rows(tree: KinematicTree, names) -> list[int]:
    try:
        return [tree._kp_row[name] for name in names]
    except KeyError as exc:
        raise DescriptionError(f"unknown keypoint on tree '{tree.name}'", element=exc.args[0]) from None


def _jacobian_zeros(tree: KinematicTree, rows) -> np.ndarray:
    """Mask (N, 3K) of the transposed Jacobian entries of keypoints `rows`
    whose joint is off the keypoint's root chain."""
    return np.repeat(~tree._kp_joint_mask[rows].T, 3, axis=1)


# (w @ _SKEW_T).reshape(3, 3) is [w]x transposed, so that a row r @ it is w x r.
_SKEW_T = _SKEW_BASIS.reshape(3, 3, 3).swapaxes(1, 2).reshape(3, 9)


def _keypoint_jacobian_t(tree: KinematicTree, frames: np.ndarray, points: np.ndarray,
                         zeros: np.ndarray) -> np.ndarray:
    """Transposed keypoint Jacobian (..., N, 3K) from link frames (..., n_links, 4, 4).

    `points` (..., K, 3) are the keypoints under those frames and `zeros`
    their _jacobian_zeros. Row j holds d(p_k)/d(q_j) = w_j x (p_k - o_j) for
    each keypoint k in turn, where w_j is joint j's world axis and o_j its
    link's origin: one product of the arms (p_k - o_j) by [w_j]x transposed.
    """
    joint_frames = frames.take(tree._joint_slots, axis=-3)                     # (..., N, 4, 4)
    axes = (joint_frames[..., :3, :3] @ tree._axis_columns)[..., 0]            # (..., N, 3)
    skew_t = (axes @ _SKEW_T).reshape(axes.shape + (3,))                       # (..., N, 3, 3)
    arms = points[..., None, :, :] - joint_frames[..., None, :3, 3]            # (..., N, K, 3)
    jac_t = (arms @ skew_t).reshape(arms.shape[:-2] + (-1,))
    np.copyto(jac_t, 0.0, where=zeros)
    return jac_t


def keypoint_jacobians(
    tree: KinematicTree, q: np.ndarray, names: list[str] | tuple[str, ...]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Positions and 3xN analytic Jacobians for several keypoints at once.

    Column j of a Jacobian is d(position)/d(q_j); joints off the root-to-
    keypoint path contribute zero columns. For a (B, n) stack of joint
    vectors each position is (B, 3) and each Jacobian (B, 3, N). Both come
    from the retarget solver's kernels, _keypoint_positions and
    _keypoint_jacobian_t, whose (B, N, 3K) rows are transposed here.
    """
    rows = _keypoint_rows(tree, names)
    qb, single = _as_batch(tree, q)
    frames = _link_poses(tree, qb)
    points = _keypoint_positions(frames, tree._kp_slots[rows], tree._kp_offsets[rows])  # (B, K, 3)
    jac_t = _keypoint_jacobian_t(tree, frames, points, _jacobian_zeros(tree, rows))      # (B, N, 3K)
    jac = jac_t.reshape(len(qb), tree.num_actuated, len(rows), 3).transpose(0, 2, 3, 1)  # (B, K, 3, N)
    if single:
        points, jac = points[0], jac[0]
    positions = {name: points[..., k, :] for k, name in enumerate(names)}
    jacobians = {name: jac[..., k, :, :] for k, name in enumerate(names)}
    return positions, jacobians


def keypoint_jacobian(tree: KinematicTree, q: np.ndarray, name: str) -> np.ndarray:
    """3xN Jacobian of one keypoint's position with respect to q."""
    _, jacs = keypoint_jacobians(tree, q, (name,))
    return jacs[name]
