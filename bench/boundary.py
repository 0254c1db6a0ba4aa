"""Instrumentation of the calls that cross qrelay's module boundaries,
installed from the benchmark's side without editing the package.

* ``BranchTap`` sits on ``qrelay.verify``'s binding of ``run_end_to_end``
  in every run and records what each call returns, so the correctness gate
  can count branches and total probability. It records no time.
* ``Tracer`` replaces every name one qrelay module binds from another with
  a wrapper that times the call and forwards it unchanged. Each span is
  keyed by the callee's module (its layer), so the numbers survive code
  moving between functions inside a module. Spans stay in memory and are
  written out at the end of the run.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("channels", "statevec", "bell", "protocol", "verify", "cli")
# Layers whose calls move state vectors; their argument and result array
# sizes are summed into a computed (not measured) byte count.
BYTE_LAYERS = ("bell", "statevec")


def layer_of(obj) -> str | None:
    home = getattr(obj, "__module__", None)
    if isinstance(home, str) and home.startswith("qrelay."):
        layer = home.split(".", 1)[1]
        if layer in LAYERS:
            return layer
    return None


class BranchTap:
    """Forwards calls to ``target`` and records, per call, the number of
    branch reports returned, how many are null, and their total probability."""

    def __init__(self, module, name: str):
        self.module, self.name = module, name
        self.target = getattr(module, name)
        self.calls: list[tuple[int, int, float]] = []
        setattr(module, name, self)

    def __call__(self, *args, **kwargs):
        reports = self.target(*args, **kwargs)
        nulls = sum(1 for r in reports if r.fidelity is None)
        self.calls.append((len(reports), nulls, math.fsum(r.joint_prob for r in reports)))
        return reports

    def take(self) -> list[tuple[int, int, float]]:
        calls, self.calls = self.calls, []
        return calls

    def remove(self) -> None:
        setattr(self.module, self.name, self.target)


def _nbytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        else:
            amps = getattr(v, "amps", None)
            if isinstance(amps, np.ndarray):
                total += amps.nbytes
    return total


class _ClassProxyMeta(type):
    """Stand-in for a class bound across a module boundary: calling it is a
    timed construction of the real class; isinstance checks and attribute
    lookups go to the real class."""

    def __call__(cls, *args, **kwargs):
        return cls._construct(*args, **kwargs)

    def __instancecheck__(cls, obj):
        return isinstance(obj, cls._target)

    def __subclasscheck__(cls, sub):
        return issubclass(sub, cls._target)

    def __getattr__(cls, name):
        return getattr(cls._target, name)


def _wrappable_class(obj) -> bool:
    # Enums and exceptions are data and control flow: `except` and `is`
    # comparisons need the real classes.
    return inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException))


class Tracer:
    """Span recorder for qrelay's module boundaries.

    ``install`` patches the bindings, ``uninstall`` restores them, so a run
    can alternate traced and untraced passes over the same inputs.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.op_id = -1
        self.computed_bytes = dict.fromkeys(BYTE_LAYERS, 0)
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, fn, layer: str, name: str):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        count_bytes = layer in BYTE_LAYERS
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = self.current
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            self.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.current = parent
                self.start[idx] = t0
                self.end[idx] = t1
            if count_bytes:
                self.computed_bytes[layer] += (
                    _nbytes(args) + _nbytes(kwargs.values()) + _nbytes((result,))
                )
            return result

        return traced

    def entry(self, fn):
        """Traced stand-in for a qrelay function the benchmark calls directly."""
        layer = layer_of(fn)
        return self._span_wrapper(fn, layer, f"{layer}.{fn.__name__}")

    def _stand_in(self, obj, layer: str):
        name = f"{layer}.{obj.__name__}"
        if inspect.isfunction(obj):
            return functools.update_wrapper(self._span_wrapper(obj, layer, name), obj)
        construct = self._span_wrapper(obj, layer, name)
        return _ClassProxyMeta(obj.__name__, (), {"_target": obj, "_construct": staticmethod(construct)})

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name in LAYERS:
            module = importlib.import_module(f"qrelay.{mod_name}")
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, BranchTap):
                    holder, key, inner = obj, "target", obj.target
                else:
                    holder, key, inner = module, attr, obj
                layer = layer_of(inner)
                if layer is None or layer == mod_name:
                    continue
                if not (inspect.isfunction(inner) or _wrappable_class(inner)):
                    continue
                self._saved.append((holder, key, inner))
                setattr(holder, key, self._stand_in(inner, layer))

    def uninstall(self) -> None:
        while self._saved:
            holder, key, inner = self._saved.pop()
            setattr(holder, key, inner)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int16),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, busy seconds (time with at least one span
        of the layer open) and self seconds (span time not covered by child
        spans)."""
        sp = self.spans()
        layer_idx = {layer: i for i, layer in enumerate(LAYERS)}
        span_layer = np.array([layer_idx[n.split(".", 1)[0]] for n in self.names], dtype=np.int64)
        layer = span_layer[sp["name_id"]]
        dur = (sp["end_ns"] - sp["start_ns"]).astype(np.float64) * 1e-9
        parent = sp["parent"].astype(np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        # A span counts towards busy time when no ancestor belongs to its own
        # layer. Parents precede children, so one forward pass suffices.
        layers = layer.tolist()
        above = [0] * len(dur)
        outermost = np.zeros(len(dur), dtype=bool)
        for i, p in enumerate(parent.tolist()):
            mask = 0 if p < 0 else above[p] | (1 << layers[p])
            above[i] = mask
            outermost[i] = not (mask >> layers[i]) & 1
        out = {}
        for name, i in layer_idx.items():
            mine = layer == i
            out[name] = {
                "calls": int(mine.sum()),
                "busy_s": float(dur[mine & outermost].sum()),
                "self_s": float(self_time[mine].sum()),
            }
        return out

    def count_calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            return 0
        return self.name_id.count(nid)
