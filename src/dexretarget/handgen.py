"""Per-user customized robot hand: 45 actuated DoF from a shape vector.

The hand is assembled from a template (palm box, five three-segment fingers)
plus a linear basis that maps a 10-coefficient shape vector onto per-segment
bone-length offsets. Every anatomical joint is three stacked single-axis
revolute joints in x, y, z order, so the hand has 5 * 3 * 3 = 45 actuated
joints and one fingertip keypoint per finger.

build_custom_hand writes the hand's robot description document (links,
revolute joints, inertials, keypoints and geometry) and loads it with
kinematics.load_robot, the one way to build a tree, so the hand is checked
as a `.robot` file is and dump_robot writes the document it was built from.
"""
from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import DataError, float_rows, parse_object, read_text
from .kinematics import KinematicTree, load_robot

SHAPE_DIM = 10
FINGERS = ("thumb", "index", "middle", "ring", "pinky")
SEGMENTS_PER_FINGER = 3
NUM_BONES = len(FINGERS) * SEGMENTS_PER_FINGER
JOINT_LIMIT = 1.6  # rad, applied symmetrically to every stacked axis
BETA_CLAMP = 5.0
_AXES = (("x", [1.0, 0.0, 0.0]), ("y", [0.0, 1.0, 0.0]), ("z", [0.0, 0.0, 1.0]))
_BONE_DENSITY = 1000.0  # kg/m^3, water-like soft tissue stand-in
# (shape, template, name) keys whose hands build_custom_hand keeps (about
# 75 KB each).
HAND_CACHE_SIZE = 16


@dataclass(frozen=True)
class HandShapeParams:
    """10 dimensionless shape coefficients, clamped to max-norm 5."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != (SHAPE_DIM,):
            raise DataError(f"shape vector must have {SHAPE_DIM} coefficients")
        if not np.isfinite(beta).all():
            raise DataError("shape vector contains non-finite values")
        beta = np.clip(beta, -BETA_CLAMP, BETA_CLAMP)
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)

    @classmethod
    def zeros(cls) -> "HandShapeParams":
        return cls(np.zeros(SHAPE_DIM))


def _read_only(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A read-only float array of `value`: a list of shape[-1] finite
    numbers, or for a 2-D shape a list of shape[0] such lists, or an array
    of that shape (such as another template's own fields)."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if len(shape) == 1:
        value, names = [value], [what]
    elif isinstance(value, (list, tuple)) and len(value) == shape[0]:
        names = (f"{what} row {i}" for i in range(shape[0]))
    else:
        raise DataError(f"{what} must be a list of {shape[0]} rows")
    arr = float_rows(value, shape[-1], DataError, names).reshape(shape)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FingerSpec:
    """One finger of a template; its arrays are read-only copies."""

    base_xyz: np.ndarray
    base_rpy: np.ndarray
    lengths: np.ndarray  # 3 segment lengths, meters
    radii: np.ndarray    # 3 capsule radii, meters

    def __post_init__(self):
        for key in self.__dataclass_fields__:
            object.__setattr__(self, key, _read_only(getattr(self, key), (3,), key))


@dataclass(frozen=True, eq=False)
class HandTemplate:
    """Read-only hand template. It compares and hashes by identity, which
    is what keys build_custom_hand's reuse of hands."""

    palm_box: np.ndarray                 # (x, y, z) size in meters
    fingers: Mapping[str, FingerSpec]    # keyed by FINGERS entries
    length_basis: np.ndarray             # (10, 15) beta -> bone-length offsets

    def __post_init__(self):
        palm = _read_only(self.palm_box, (3,), "palm box")
        if np.any(palm <= 0):
            raise DataError("palm box needs 3 positive dimensions")
        object.__setattr__(self, "palm_box", palm)
        if tuple(self.fingers) != FINGERS:
            raise DataError(f"template must define fingers {FINGERS}")
        object.__setattr__(self, "fingers", MappingProxyType(dict(self.fingers)))
        basis = _read_only(self.length_basis, (SHAPE_DIM, NUM_BONES), "length basis")
        object.__setattr__(self, "length_basis", basis)

        lengths = self.bone_lengths(HandShapeParams.zeros())
        if np.any(lengths <= 0):
            raise DataError("template bone lengths must be positive")
        for spec in self.fingers.values():
            if np.any(np.asarray(spec.radii) <= 0):
                raise DataError("capsule radii must be positive")
        # The clamp makes |beta| <= 5, so this guarantees positive lengths
        # for every admissible shape vector.
        worst = BETA_CLAMP * np.abs(basis).sum(axis=0)
        if np.any(worst >= lengths):
            raise DataError("length basis too large: a clamped shape could collapse a bone")

    def bone_lengths(self, shape: HandShapeParams) -> np.ndarray:
        """Per-segment lengths (finger-major order) for a shape vector."""
        base = np.concatenate([self.fingers[f].lengths for f in FINGERS])
        return base + shape.beta @ self.length_basis


def load_template(path: str | Path) -> HandTemplate:
    """Read a hand template file into a new template. A missing file raises
    FileNotFoundError, anything else wrong DataError."""
    doc = parse_object(read_text(path, DataError, "hand template"), DataError, "hand template")
    if doc.get("format") != "dexhand-template/1":
        raise DataError(f"unsupported template format {doc.get('format')!r}")
    try:
        fingers = {name: FingerSpec(**{key: doc["fingers"][name][key] for key in FingerSpec.__dataclass_fields__})
                   for name in FINGERS}
        return HandTemplate(palm_box=doc["palm_box"], fingers=fingers, length_basis=doc["length_basis"])
    except KeyError as exc:
        raise DataError(f"hand template has no {exc}") from exc
    except TypeError as exc:
        raise DataError(f"malformed hand template: {exc}") from exc


@functools.cache
def default_template() -> HandTemplate:
    """The shipped average-adult-male template (total length 0.193 m). Its
    file is read once per process: it ships with the package and is not
    edited while the package runs, unlike a template given by path."""
    ref = resources.files("dexretarget").joinpath("assets/hand_template.json")
    return load_template(Path(str(ref)))


def build_custom_hand(shape: HandShapeParams, template: HandTemplate | None = None,
                      name: str = "customized") -> KinematicTree:
    """Assemble the customized 45-DoF hand for one user.

    Topology never depends on the shape vector; only bone lengths do. The
    canonical joint order is finger-major (thumb..pinky), segment-major
    (proximal..distal), axis order x, y, z.

    Equal shape vectors with the same template object and name share one
    tree, built the first time: up to HAND_CACHE_SIZE hands, least recently
    used first out.
    """
    if template is None:
        template = default_template()
    return _custom_hand(shape.beta.tobytes(), template, name)


def _inertial(link: str, mass: float, com_x: float, diagonal: tuple[float, float, float]) -> dict:
    """An `inertials` entry: a body whose COM lies on its link's x-axis and
    whose inertia about it is diagonal in the link frame."""
    ixx, iyy, izz = diagonal
    return {"link": link, "mass": mass, "com": [com_x, 0.0, 0.0], "inertia_6": [ixx, 0.0, 0.0, iyy, 0.0, izz]}


@functools.lru_cache(maxsize=HAND_CACHE_SIZE)
def _custom_hand(beta: bytes, template: HandTemplate, name: str) -> KinematicTree:
    # The key holds the template, so its identity cannot be reused while the hand lives.
    lengths = template.bone_lengths(HandShapeParams(np.frombuffer(beta))).tolist()

    palm = template.palm_box.tolist()
    palm_mass = 0.2
    links = [{"id": "palm", "parent": None, "origin_xyz": [0.0, 0.0, 0.0], "origin_rpy": [0.0, 0.0, 0.0]}]
    joints = []
    palm_inertia = (palm_mass / 12 * (palm[1] ** 2 + palm[2] ** 2), palm_mass / 12 * (palm[0] ** 2 + palm[2] ** 2),
                    palm_mass / 12 * (palm[0] ** 2 + palm[1] ** 2))
    inertials = [_inertial("palm", palm_mass, palm[0] / 2, palm_inertia)]
    keypoints = []
    geometry = [{"link": "palm", "kind": "box", "size": palm}]

    for fi, finger in enumerate(FINGERS):
        spec = template.fingers[finger]
        parent = "palm"
        origin_xyz, origin_rpy = spec.base_xyz.tolist(), spec.base_rpy.tolist()
        for seg in range(SEGMENTS_PER_FINGER):
            length = lengths[fi * SEGMENTS_PER_FINGER + seg]
            radius = float(spec.radii[seg])
            for axis_name, axis in _AXES:
                lid = f"{finger}_{seg + 1}{axis_name}"
                # The x link carries the segment's origin; y and z stack on it.
                links.append({"id": lid, "parent": parent, "origin_xyz": origin_xyz, "origin_rpy": origin_rpy})
                joints.append({"child_link": lid, "type": "revolute", "axis": axis,
                               "limit_lower": -JOINT_LIMIT, "limit_upper": JOINT_LIMIT, "damping": 0.0})
                origin_xyz, origin_rpy = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
                parent = lid
            # The z link carries the bone; its frame x-axis runs along the bone.
            bone_mass = _BONE_DENSITY * np.pi * radius**2 * length
            bending = bone_mass * (3 * radius**2 + length**2) / 12
            inertials.append(_inertial(parent, bone_mass, length / 2, (0.5 * bone_mass * radius**2, bending, bending)))
            geometry.append({"link": parent, "kind": "capsule", "radius": radius, "length": length})
            origin_xyz = [length, 0.0, 0.0]
        keypoints.append({"name": f"{finger}_tip", "link": parent, "offset": origin_xyz})

    return load_robot({"name": name, "links": links, "joints": joints, "inertials": inertials,
                       "keypoints": keypoints, "geometry": geometry})
