"""Kinematic trees: description parsing, forward kinematics, Jacobians.

A tree is a rooted chain of links connected by revolute or fixed joints.
Each link carries a fixed origin transform expressed in its parent's frame;
a revolute joint then rotates the link about a unit axis given in the link's
own frame (right-handed, zero angle = description pose). Joint vectors are
plain float arrays ordered by the tree's canonical actuated ordering, which
is the order of appearance in the description's joint list.

A tree is built only from its description document: load_robot checks each
field by the number rule in errors.py and _finalize checks the tree, so
what load_robot accepts, write_robot writes and load_robot reads back.
Every other tree, the customized hand included (handgen), is a document
given to load_robot. Link, Joint, Inertial and Keypoint are the tree's
read-only element records; each Link keeps the origin_rpy it was read with.

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
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import DescriptionError, atomic_write_text, finite_number, float_rows, parse_object, read_text
from .transforms import _SKEW_BASIS, RigidTransform, _axis_terms, _rodrigues, quat_from_rpy, quat_to_matrix

_AXIS_TOL = 1e-9
_PSD_TOL = -1e-9
# Distinct description texts whose trees load_robot keeps (a bundled robot
# and its text take about 70 KB).
ROBOT_CACHE_SIZE = 16

REVOLUTE = "revolute"
FIXED = "fixed"


@dataclass(frozen=True)
class Link:
    id: str
    parent: str | None
    origin: RigidTransform
    rpy: tuple[float, float, float]  # origin_rpy as written in the description


@dataclass(frozen=True)
class Joint:
    child_link: str
    type: str
    axis: np.ndarray | None
    lower: float
    upper: float
    damping: float


@dataclass(frozen=True)
class Inertial:
    link: str
    mass: float
    com: np.ndarray
    inertia: np.ndarray  # 3x3 about the COM, link frame


@dataclass(frozen=True)
class Keypoint:
    name: str
    link: str
    offset: np.ndarray


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


@dataclass(frozen=True)
class KinematicTree:
    """Immutable articulated chain; safe to share across threads.

    Every array it holds is read-only, `joints` and `inertials` are
    read-only mappings and each `geometry` entry is a read-only copy, so
    one tree can serve every caller that loads the same description.
    """

    name: str
    links: tuple[Link, ...]
    joints: Mapping[str, Joint]       # keyed by child link id
    inertials: Mapping[str, Inertial]
    keypoints: tuple[Keypoint, ...]
    geometry: tuple[Mapping, ...] = ()
    # Derived read-only caches, filled by _finalize. Link poses are computed
    # in slot order: the root is slot 0, then the links level by level, each
    # level ordered by its links' parent slots (siblings in description order).
    _index: dict[str, int] = field(default_factory=dict, repr=False)  # description order
    _order: np.ndarray = field(default=None, repr=False)          # link index per slot
    _parent_slots: np.ndarray = field(default=None, repr=False)   # -1 for the root
    _origin_rot: np.ndarray = field(default=None, repr=False)     # (n_links, 3, 3)
    _origin_trans: np.ndarray = field(default=None, repr=False)   # (n_links, 3)
    # (n_links, 4, 4): the root's origin frame in slot 0; every other slot
    # holds its local frame's origin translation and [0, 0, 0, 1] row, and a
    # zero rotation block (each FK writes origin_rot @ joint there, in a copy).
    _frame_template: np.ndarray = field(default=None, repr=False)
    # Per non-root slot: the q column of its joint (num_actuated for a fixed
    # joint) and the Rodrigues terms of its axis (zero for a fixed joint).
    _joint_cols: np.ndarray = field(default=None, repr=False)
    _joint_outer: np.ndarray = field(default=None, repr=False)
    _joint_skew: np.ndarray = field(default=None, repr=False)
    _levels: tuple[_Level, ...] = field(default=(), repr=False)
    _actuated: tuple[str, ...] = field(default=(), repr=False)
    _joint_slots: np.ndarray = field(default=None, repr=False)  # slot per q column
    _joint_axes: np.ndarray = field(default=None, repr=False)   # (num_actuated, 3)
    _axis_columns: np.ndarray = field(default=None, repr=False)  # (num_actuated, 3, 1)
    _kp_row: dict[str, int] = field(default_factory=dict, repr=False)
    _kp_slots: np.ndarray = field(default=None, repr=False)
    _kp_offsets: np.ndarray = field(default=None, repr=False)   # (K, 4, 1) homogeneous: [offset, 1]
    # [k, j]: joint column j lies on the root-to-keypoint-k chain.
    _kp_joint_mask: np.ndarray = field(default=None, repr=False)

    @property
    def num_actuated(self) -> int:
        return len(self._actuated)

    @property
    def actuated_joints(self) -> tuple[str, ...]:
        """Child-link ids of the revolute joints, canonical order."""
        return self._actuated

    @property
    def keypoint_names(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.keypoints)

    def joint_limits(self) -> tuple[np.ndarray, np.ndarray]:
        lower = np.array([self.joints[c].lower for c in self._actuated])
        upper = np.array([self.joints[c].upper for c in self._actuated])
        return lower, upper

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


def _finalize(tree: KinematicTree) -> KinematicTree:
    """Validate all invariants, attach traversal caches and make the tree
    read-only: the last step of reading a description document."""
    index = {}
    for link in tree.links:
        if link.id in index:
            raise DescriptionError("duplicate link id", element=link.id)
        index[link.id] = len(index)

    roots = [l.id for l in tree.links if l.parent is None]
    if len(roots) != 1:
        raise DescriptionError(f"tree must have exactly one root link, found {roots}")
    root = roots[0]

    children: dict[str, list[str]] = {l.id: [] for l in tree.links}
    for link in tree.links:
        if link.parent is None:
            continue
        if link.parent not in index:
            raise DescriptionError("link references missing parent", element=link.id)
        children[link.parent].append(link.id)

    # Slot order: the root, then depth by depth each link's children in
    # description order, so a level's links follow their parents' slots.
    # Anything unreached is a cycle or orphan.
    slot_ids = [root]
    bounds = []  # slot range of each depth 1, 2, ...
    start = 0
    while level := [c for lid in slot_ids[start:] for c in children[lid]]:
        start = len(slot_ids)
        slot_ids.extend(level)
        bounds.append((start, len(slot_ids)))
    if len(slot_ids) != len(tree.links):
        missing = sorted(set(index) - set(slot_ids))
        raise DescriptionError("cycle in parent graph", element=missing[0])

    for link in tree.links:
        if link.parent is None:
            if link.id in tree.joints:
                raise DescriptionError("root link cannot have a joint", element=link.id)
            continue
        joint = tree.joints.get(link.id)
        if joint is None:
            raise DescriptionError("non-root link has no joint", element=link.id)
        if joint.type not in (REVOLUTE, FIXED):
            raise DescriptionError(f"unknown joint type '{joint.type}'", element=link.id)
        if joint.type == REVOLUTE:
            if joint.axis is None or abs(np.linalg.norm(joint.axis) - 1.0) > _AXIS_TOL:
                raise DescriptionError("joint axis is not unit length", element=link.id)
            # Written so that NaN fails too: it would reach the solver or the torques.
            if not joint.lower <= joint.upper:
                raise DescriptionError("joint limits must satisfy lower <= upper", element=link.id)
            if not 0 <= joint.damping < np.inf:
                raise DescriptionError("joint damping must be finite and nonnegative", element=link.id)

    for extra in set(tree.joints) - set(index):
        raise DescriptionError("joint references missing child link", element=extra)

    for inert in tree.inertials.values():
        if inert.link not in index:
            raise DescriptionError("inertial references missing link", element=inert.link)
        if inert.mass < 0 or not np.isfinite(inert.mass):
            raise DescriptionError("invalid mass", element=inert.link)
        if not np.allclose(inert.inertia, inert.inertia.T, atol=1e-12):
            raise DescriptionError("inertia tensor not symmetric", element=inert.link)
        eigs = np.linalg.eigvalsh(inert.inertia)
        if eigs.min() < _PSD_TOL:
            raise DescriptionError("inertia tensor not positive semi-definite", element=inert.link)

    seen = set()
    for kp in tree.keypoints:
        if kp.name in seen:
            raise DescriptionError("duplicate keypoint name", element=kp.name)
        seen.add(kp.name)
        if kp.link not in index:
            raise DescriptionError("keypoint references missing link", element=kp.name)

    n = len(slot_ids)
    slot = {lid: s for s, lid in enumerate(slot_ids)}
    links = [tree.links[index[lid]] for lid in slot_ids]
    order = np.array([index[lid] for lid in slot_ids], dtype=int)
    parent_slots = np.array([-1] + [slot[link.parent] for link in links[1:]], dtype=int)
    origin_rot = quat_to_matrix(np.array([link.origin.rotation for link in links]).reshape(n, 4))
    origin_trans = np.array([link.origin.translation for link in links]).reshape(n, 3)

    actuated = tuple(c for c, j in tree.joints.items() if j.type == REVOLUTE)
    column = {c: col for col, c in enumerate(actuated)}  # link id -> q column
    joint_slots = np.array([slot[c] for c in actuated], dtype=int)
    joint_axes = np.array([tree.joints[c].axis for c in actuated], dtype=float).reshape(-1, 3)
    # Computed on the column-ordered axes, exactly as axis_angle_matrix would.
    outer, skew = _axis_terms(joint_axes)
    joint_cols = np.array([column.get(link.id, len(actuated)) for link in links[1:]], dtype=int)
    revolute = joint_cols < len(actuated)
    joint_outer = np.zeros((n - 1, 3, 3))
    joint_skew = np.zeros((n - 1, 3, 3))
    joint_outer[revolute] = outer[joint_cols[revolute]]
    joint_skew[revolute] = skew[joint_cols[revolute]]

    frame_template = np.zeros((n, 4, 4))
    frame_template[:, 3, 3] = 1.0
    frame_template[:, :3, 3] = origin_trans
    frame_template[0, :3, :3] = origin_rot[0]

    kp_slots = np.array([slot[kp.link] for kp in tree.keypoints], dtype=int)
    kp_offsets = np.ones((len(tree.keypoints), 4, 1))
    kp_offsets[:, :3, 0] = np.array([kp.offset for kp in tree.keypoints], dtype=float).reshape(-1, 3)
    kp_joint_mask = np.zeros((len(tree.keypoints), len(actuated)), dtype=bool)
    for k, s in enumerate(kp_slots):
        while s >= 0:
            if links[s].id in column:
                kp_joint_mask[k, column[links[s].id]] = True
            s = parent_slots[s]

    parts = [a for link in tree.links for a in (link.origin.rotation, link.origin.translation)]
    parts += [j.axis for j in tree.joints.values() if j.axis is not None]
    parts += [a for i in tree.inertials.values() for a in (i.com, i.inertia)]
    parts += [kp.offset for kp in tree.keypoints]
    axis_columns = joint_axes[:, :, None]
    for arr in parts + [order, parent_slots, origin_rot, origin_trans, frame_template, joint_cols,
                        joint_outer, joint_skew, joint_slots, joint_axes, axis_columns, kp_slots,
                        kp_offsets, kp_joint_mask]:
        arr.flags.writeable = False

    levels = []
    for start, stop in bounds:
        parents = parent_slots[start:stop]
        if parents[0] == parents[-1]:
            parents = slice(int(parents[0]), int(parents[0]) + 1)
        elif np.all(np.diff(parents) == 1):
            parents = slice(int(parents[0]), int(parents[-1]) + 1)
        levels.append(_Level(slice(start, stop), parents))

    object.__setattr__(tree, "_index", index)
    object.__setattr__(tree, "_order", order)
    object.__setattr__(tree, "_parent_slots", parent_slots)
    object.__setattr__(tree, "_origin_rot", origin_rot)
    object.__setattr__(tree, "_origin_trans", origin_trans)
    object.__setattr__(tree, "_frame_template", frame_template)
    object.__setattr__(tree, "_joint_cols", joint_cols)
    object.__setattr__(tree, "_joint_outer", joint_outer)
    object.__setattr__(tree, "_joint_skew", joint_skew)
    object.__setattr__(tree, "_levels", tuple(levels))
    object.__setattr__(tree, "_actuated", actuated)
    object.__setattr__(tree, "_joint_slots", joint_slots)
    object.__setattr__(tree, "_joint_axes", joint_axes)
    object.__setattr__(tree, "_axis_columns", axis_columns)
    object.__setattr__(tree, "_kp_row", {kp.name: k for k, kp in enumerate(tree.keypoints)})
    object.__setattr__(tree, "_kp_slots", kp_slots)
    object.__setattr__(tree, "_kp_offsets", kp_offsets)
    object.__setattr__(tree, "_kp_joint_mask", kp_joint_mask)
    return tree


# ---------------------------------------------------------------------------
# Description document I/O
# ---------------------------------------------------------------------------

def _vec(raw, length, what, element) -> np.ndarray:
    return float_rows([raw], length, functools.partial(DescriptionError, element=element), [what])[0]


def _number(raw: dict, key: str, default: float, element: str) -> float:
    return finite_number(raw.get(key, default), functools.partial(DescriptionError, element=element), key)


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


def load_robot(source: str | Path | dict) -> KinematicTree:
    """Load and validate a robot description (path, JSON text, or dict).

    A path is read on every call, so an edited file is never served stale.
    Equal texts then share one tree, built the first time: up to
    ROBOT_CACHE_SIZE texts, least recently used first out. A dict is built
    afresh on every call.
    """
    if isinstance(source, dict):
        return _tree_from_document(source)
    text = str(source)
    if not text.lstrip().startswith("{"):
        text = read_text(source, DescriptionError, "robot description")
    return _load_text(text)


@functools.lru_cache(maxsize=ROBOT_CACHE_SIZE)
def _load_text(text: str) -> KinematicTree:
    return _tree_from_document(parse_object(text, DescriptionError, "robot description"))


def _tree_from_document(doc: dict) -> KinematicTree:
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise DescriptionError("missing robot name")

    links = []
    for i, raw in enumerate(_entries(doc, "links")):
        lid = _name(raw, "id", f"links[{i}]")
        parent = _name(raw, "parent", lid, required=False)
        xyz = _vec(raw.get("origin_xyz", (0, 0, 0)), 3, "origin_xyz", lid)
        rpy = _vec(raw.get("origin_rpy", (0, 0, 0)), 3, "origin_rpy", lid)
        links.append(Link(lid, parent, RigidTransform(quat_from_rpy(*rpy), xyz), tuple(rpy.tolist())))
    if not links:
        raise DescriptionError("robot description has no links")

    joints: dict[str, Joint] = {}  # keyed by child link, in description order
    for i, raw in enumerate(_entries(doc, "joints")):
        child = _name(raw, "child_link", f"joints[{i}]")
        if child in joints:
            raise DescriptionError("link has multiple joints", element=child)
        jtype = raw.get("type", REVOLUTE)
        axis = _vec(raw.get("axis", (0, 0, 1)), 3, "axis", child) if jtype == REVOLUTE else None
        joints[child] = Joint(child_link=child, type=jtype, axis=axis,
                              lower=_number(raw, "limit_lower", 0.0, child),
                              upper=_number(raw, "limit_upper", 0.0, child),
                              damping=_number(raw, "damping", 0.0, child))

    inertials: dict[str, Inertial] = {}
    for i, raw in enumerate(_entries(doc, "inertials")):
        link = _name(raw, "link", f"inertials[{i}]")
        if link in inertials:
            raise DescriptionError("link has multiple inertials", element=link)
        ixx, ixy, ixz, iyy, iyz, izz = _vec(raw.get("inertia_6", (0, 0, 0, 0, 0, 0)), 6, "inertia_6", link)
        inertials[link] = Inertial(link=link, mass=_number(raw, "mass", 0.0, link),
                                   com=_vec(raw.get("com", (0, 0, 0)), 3, "com", link),
                                   inertia=np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]]))

    keypoints = []
    for i, raw in enumerate(_entries(doc, "keypoints")):
        kname = _name(raw, "name", f"keypoints[{i}]")
        keypoints.append(
            Keypoint(name=kname, link=_name(raw, "link", kname, required=False) or "",
                     offset=_vec(raw.get("offset", (0, 0, 0)), 3, "offset", kname))
        )

    return _finalize(KinematicTree(
        name=name,
        links=tuple(links),
        joints=MappingProxyType(joints),
        inertials=MappingProxyType(inertials),
        keypoints=tuple(keypoints),
        geometry=tuple(_frozen(g) for g in _entries(doc, "geometry")),
    ))


def tree_to_document(tree: KinematicTree) -> dict:
    """Inverse of load_robot; field order is fixed for canonical output."""
    doc = {
        "name": tree.name,
        "links": [
            {
                "id": l.id,
                "parent": l.parent,
                "origin_xyz": [float(v) for v in l.origin.translation],
                "origin_rpy": list(l.rpy),
            }
            for l in tree.links
        ],
        "joints": [],
        "inertials": [
            {
                "link": i.link,
                "mass": float(i.mass),
                "com": [float(v) for v in i.com],
                "inertia_6": [
                    float(i.inertia[0, 0]),
                    float(i.inertia[0, 1]),
                    float(i.inertia[0, 2]),
                    float(i.inertia[1, 1]),
                    float(i.inertia[1, 2]),
                    float(i.inertia[2, 2]),
                ],
            }
            for i in tree.inertials.values()
        ],
        "keypoints": [
            {"name": k.name, "link": k.link, "offset": [float(v) for v in k.offset]}
            for k in tree.keypoints
        ],
    }
    for j in tree.joints.values():
        entry = {"child_link": j.child_link, "type": j.type}
        if j.type == REVOLUTE:
            entry["axis"] = [float(v) for v in j.axis]
            entry["limit_lower"] = float(j.lower)
            entry["limit_upper"] = float(j.upper)
            entry["damping"] = float(j.damping)
        doc["joints"].append(entry)
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
    frames. A fixed joint reads angle 0 from an appended zero column, which
    with its zero axis terms gives exactly the identity.
    """
    if len(tree.links) - 1 > tree.num_actuated:
        q = np.concatenate((q, np.zeros((len(q), 1))), axis=1)
    return _rodrigues(tree._joint_outer, tree._joint_skew, q[:, tree._joint_cols][..., None, None])


def _link_poses(tree: KinematicTree, q: np.ndarray) -> np.ndarray:
    """World frames (B, n_links, 4, 4) of every link, in slot order, for a (B, n) stack.

    A link's frame is its parent's frame times its local frame
    [[origin_rot @ joint, origin_trans], [0, 0, 0, 1]]. The local frames'
    rotation blocks are one batched product, written into a copy of the
    tree's frame template, which holds the rest; each depth level is then
    one product of its parents' frames (read through a slice where it can)
    and its local frames, written as one block.
    """
    template = tree._frame_template
    local = np.empty((len(q),) + template.shape)
    local[...] = template
    np.matmul(tree._origin_rot[1:], _joint_rotations(tree, q), out=local[:, 1:, :3, :3])
    frames = np.empty_like(local)
    frames[:, 0] = template[0]
    for links, parents in tree._levels:
        np.matmul(frames[:, parents], local[:, links], out=frames[:, links])
    return frames


def _as_batch(tree: KinematicTree, q: np.ndarray) -> tuple[np.ndarray, bool]:
    """Validated (B, n) view of q and whether q was a single (n,) vector."""
    q = tree.check_q(q)
    return np.atleast_2d(q), q.ndim == 1


def _keypoint_positions(frames: np.ndarray, slots: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Positions (..., K, 3) of keypoints on the link `slots` (K,) at homogeneous
    `offsets` (K, 4, 1), from link frames (..., n_links, 4, 4): one gather and
    one stacked product."""
    return (frames[..., slots, :, :] @ offsets)[..., :3, 0]


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
    return {kp.name: points[..., k, :] for k, kp in enumerate(tree.keypoints)}


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
    joint_frames = frames[..., tree._joint_slots, :, :]                        # (..., N, 4, 4)
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
