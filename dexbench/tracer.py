"""Span tracing of the dexretarget layers from outside the library.

`Tracer.install()` replaces every public module-level function of the layer
modules with a recording wrapper, in every module namespace that holds a
reference to it. `from .kinematics import forward_kinematics` copies the
reference, so `retarget.forward_kinematics` and `demopipe.forward_kinematics`
are wrapped separately; each span records the namespace it was called
through (`via`), which is how calls from one layer to another are counted.

Spans (name, via, start, end, parent span, request id) are appended to flat
arrays in memory and written out once, by `save()`, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("kinematics", "transforms", "retarget", "dynamics", "control",
          "poseio", "handgen", "demopipe", "dapg")


def _layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) < 2 or parts[0] != "dexretarget" or parts[1] not in LAYERS:
        return None
    return parts[1]


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    `request` is the id stamped on every span opened while it is set; the
    benchmark sets it to one translate request (stream x robot) or one DAPG
    iteration at a time. `observers` maps a span name to a callback that
    receives the wrapped function's return value and the request id.
    """

    def __init__(self, observers=None):
        self.request = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.via = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._observers = observers or {}
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, text: str) -> int:
        if text not in self._ids:
            self._ids[text] = len(self.names)
            self.names.append(text)
        return self._ids[text]

    def _wrap(self, fn, span_name: str, via: str):
        nid, vid = self._intern(span_name), self._intern(via)
        names, vias, parents, reqs = self.name, self.via, self.parent, self.req
        starts, ends, stack = self.start, self.end, self._stack
        observer = self._observers.get(span_name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            vias.append(vid)
            parents.append(stack[-1] if stack else -1)
            reqs.append(tracer.request)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observer is not None:
                observer(result, reqs[i])
            return result

        return wrapper

    def install(self):
        """Wrap every public function of the layer modules, in every namespace."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("dexretarget") and mod is not None}
        targets = {}
        for mod_name, mod in modules.items():
            layer = _layer_of(mod_name)
            if layer is None:
                continue
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod_name
                        and not attr.startswith("_")):
                    targets[id(fn)] = (fn, f"{layer}.{attr}")
        for mod_name, mod in modules.items():
            via = _layer_of(mod_name) or mod_name
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, self._wrap(value, hit[1], via))

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "via": np.frombuffer(self.via, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.req, dtype=np.int32).copy(),
            "start": start,
            "end": end,
        }

    def save(self, path: Path, requests: list[dict]):
        """Write the spans and the request table (compressed .npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), requests=json.dumps(requests),
                            **self.arrays())


class SpanTable:
    """Per-span durations and self times, indexed by span name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.via = a["via"]
        self.request = a["request"]
        self.duration = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=self.duration[has_parent],
                                 minlength=len(self.duration))
        self.self_time = self.duration - child_time

    def select(self, name: str, via: str | None = None, requests=None) -> np.ndarray:
        """Boolean mask of the spans called `name` (through `via`, in `requests`)."""
        if name not in self.names:
            return np.zeros(len(self.duration), dtype=bool)
        mask = self.name == self.names.index(name)
        if via is not None:
            mask &= self.via == (self.names.index(via) if via in self.names else -2)
        if requests is not None:
            mask &= np.isin(self.request, np.asarray(sorted(requests), dtype=np.int32))
        return mask

    def layer_self_time(self, layer: str) -> float:
        """Self seconds of the layer's spans that belong to a request."""
        ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
        return float(self.self_time[np.isin(self.name, ids) & (self.request >= 0)].sum())
