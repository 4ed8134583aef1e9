"""Span tracing of the subspacecodes layers, installed from outside the library.

Each wrapper goes around one named public function (or method) and records a
span: name, start, end, parent span and the CLI invocation it belongs to.
Spans stay in memory in flat arrays and are written out when the run ends.
A few wrappers also add counters measured at the same boundary (bytes read,
elements multiplied, codewords scanned).  Nothing in the library is edited:
the wrappers replace the names in every ``subspacecodes`` module namespace
that binds the function, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (defining module, function name); wrapped wherever the function is bound
FUNCTIONS = [
    ("subspacecodes.subspaces", "distance"),
    ("subspacecodes.subspaces", "orthonormalize"),
    ("subspacecodes.subspaces", "complement"),
    ("subspacecodes.subspaces", "direct_sum"),
    ("subspacecodes.subspaces", "random_subspace"),
    ("subspacecodes.codes", "min_distance_exhaustive"),
    ("subspacecodes.codes", "cp_construct"),
    ("subspacecodes.codes", "random_ensemble_code"),
    ("subspacecodes.codes", "save_code"),
    ("subspacecodes.codes", "load_code"),
    ("subspacecodes.channel", "apply_noisy_operator_channel"),
    ("subspacecodes.channel", "erase"),
    ("subspacecodes.channel", "random_error_subspace"),
    ("subspacecodes.channel", "rotate"),
    ("subspacecodes.decoder", "decode"),
    ("subspacecodes.decoder", "guarantee_noisy"),
]

# (defining module, class, method); wrapped once on the class
METHODS = [
    ("subspacecodes.finitefield", "FiniteField", "__init__"),
    ("subspacecodes.finitefield", "FiniteField", "mul_vec"),
    ("subspacecodes.finitefield", "FiniteField", "add_vec"),
    ("subspacecodes.finitefield", "FiniteField", "pow_vec"),
    ("subspacecodes.codes", "SubspaceCode", "distances_to"),
]

# (defining module, class, property); the getter is wrapped
PROPERTIES = [
    ("subspacecodes.finitefield", "FiniteField", "trace_table"),
]


def _layer(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span store plus counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.invocation = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_invocation = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.rotations: list[tuple] = []   # (U basis, V basis, budget) per rotate call
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.invocation.append(self.current_invocation)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        nid = self.intern(name)
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(sid)
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = self._hooks()
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "subspacecodes"
                                         or name.startswith("subspacecodes."))]
        for modname, fname in FUNCTIONS:
            orig = getattr(sys.modules[modname], fname)
            wrapped = self.span(f"{_layer(modname)}.{fname}", orig, *hooks.get(fname, ()))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapped)
        for modname, cls_name, meth in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            label = cls_name if meth == "__init__" else meth
            orig = cls.__dict__[meth]
            self._set(cls, meth, self.span(f"{_layer(modname)}.{label}", orig,
                                           *hooks.get(meth, ())))
        for modname, cls_name, prop in PROPERTIES:
            cls = getattr(sys.modules[modname], cls_name)
            orig = cls.__dict__[prop]
            self._set(cls, prop, property(self.span(f"{_layer(modname)}.{prop}", orig.fget)))
        # projections are counted, not timed: n x n arrays formed by the property
        subspaces = sys.modules["subspacecodes.subspaces"]
        proj = subspaces.Subspace.__dict__["projection"]
        counters = self.counters

        def projection(obj):
            cached = getattr(obj, "_projection", None)
            out = proj.fget(obj)
            if out is not cached:
                counters["subspaces.distance.projection_bytes"] += out.nbytes
            return out

        self._set(subspaces.Subspace, "projection", property(projection))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _hooks(self) -> dict:
        """Counters taken at the span boundaries, keyed by function name."""
        c = self.counters

        def mul_vec(args, kwargs):
            c["finitefield.mul_vec.elements"] += np.broadcast(args[1], args[2]).size

        def min_distance(args, kwargs, out):
            M = len(args[0])
            c["codes.min_distance_exhaustive.pairs"] += M * (M - 1) // 2

        def cp_construct(args, kwargs, out):
            c["codes.cp_construct.codewords"] += len(out)

        def ensemble(args, kwargs, out):
            c["codes.random_ensemble_code.codewords"] += len(out)

        def save_code(args, kwargs, out):
            c["codes.save_code.bytes"] += os.path.getsize(args[1])

        def load_code(args, kwargs):
            c["codes.load_code.bytes"] += os.path.getsize(args[0])

        def decode(args, kwargs, out):
            c["decoder.decode.codewords_scanned"] += len(args[0])
            c["decoder.decode.nonunique"] += not out.unique

        def guarantee(args, kwargs, out):
            c["decoder.guarantee_noisy.hits"] += bool(out)

        def rotate(args, kwargs, out):
            U, budget = args[0], args[1]
            if budget > 0 and U.dim > 0:
                self.rotations.append((U.basis, out.basis, float(budget)))

        return {
            "mul_vec": (mul_vec, None),
            "min_distance_exhaustive": (None, min_distance),
            "cp_construct": (None, cp_construct),
            "random_ensemble_code": (None, ensemble),
            "save_code": (None, save_code),
            "load_code": (load_code, None),
            "decode": (None, decode),
            "guarantee_noisy": (None, guarantee),
            "rotate": (None, rotate),
        }

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        """Zero-copy views of the span columns."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "invocation": np.frombuffer(self.invocation, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanStats:
    """Per-name totals, self times and call-time percentiles of a span set."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.duration = a["end"] - a["start"]
        n = len(self.duration)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                                 minlength=n)
        self.self_time = self.duration - child_time

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.duration), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def total(self, name: str) -> float:
        return float(self.duration[self._mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def percentile(self, name: str, pct: float) -> float:
        d = self.duration[self._mask(name)]
        return float(np.percentile(d, pct)) if d.size else 0.0

    def children(self, child: str, parent: str) -> np.ndarray:
        """Per parent span, the number of direct children with the given name."""
        pmask = self._mask(parent)
        cmask = self._mask(child)
        counts = np.bincount(self.parent[cmask & (self.parent >= 0)],
                             minlength=len(self.duration))
        return counts[pmask]

    def child_total(self, child: str, parent: str) -> float:
        """Time of spans named ``child`` whose direct parent is named ``parent``."""
        has_parent = self.parent >= 0
        under = np.zeros(len(self.duration), dtype=bool)
        under[has_parent] = self._mask(parent)[self.parent[has_parent]]
        return float(self.duration[self._mask(child) & under].sum())
