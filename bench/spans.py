"""Spans around the library's public functions, installed from outside ``src/``.

A wrapper replaces a function in every module that holds it (modules import
functions by name, e.g. ``space`` holds ``classify_height`` and ``cli``
holds ``geodesic_path``), or a method on its class.  Each call records a
span: name, parent span, root span, start and end.  The root of an op's
spans is an ``op`` span the benchmark opens around the op, so all spans of
one op share that root.  Spans stay in memory until ``write`` is called.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested, so the children never overlap.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

#: (metric name, owner, attribute).  An owner given as a string is a module
#: name: the function is replaced wherever a module holds the same object.
#: An owner given as a pair is (module name, class name): the method is
#: replaced on the class.
TARGETS = (
    ("space.parse_point", ("laakso.space", "Space"), "parse_point"),
    ("space.Space", ("laakso.space", "Space"), "__init__"),
    ("fractal.Address", ("laakso.fractal", "Address"), "__init__"),
    ("fractal.Address.switch", ("laakso.fractal", "Address"), "switch"),
    ("fractal.difference_orders", "laakso.fractal", "difference_orders"),
    ("wormhole.classify_height", "laakso.wormhole", "classify_height"),
    ("wormhole.level_query", "laakso.wormhole", "first_in_interval"),
    ("wormhole.level_query", "laakso.wormhole", "last_in_interval"),
    ("wormhole.level_query", "laakso.wormhole", "nearest"),
    ("wormhole.level_from_numerator", "laakso.wormhole", "level_from_numerator"),
    ("numeric.ScaleFactor.compare_spower", ("laakso.numeric", "ScaleFactor"), "compare_spower"),
    ("geodesic.minimal_interval", "laakso.geodesic", "minimal_interval"),
    ("geodesic.distance", "laakso.geodesic", "distance"),
    ("geodesic.geodesic_path", "laakso.geodesic", "geodesic_path"),
    ("geodesic.connect", "laakso.geodesic", "connect"),
    ("geodesic.path_length", "laakso.geodesic", "path_length"),
    ("geodesic.classify", "laakso.geodesic", "classify"),
    ("oracle.shortest_paths", "laakso.oracle", "shortest_paths"),
    ("oracle.vertex_lookup", "laakso.oracle", "_vertex"),
    ("oracle.point_at", "laakso.oracle", "point_at"),
    ("oracle.build", "laakso.oracle", "build"),
    ("cli.command", "workloads", "invoke_cli"),
)

#: Span names reported per op as ``<name>.calls`` and ``<name>.self_us``.
PER_OP = tuple(dict.fromkeys(name for name, _, _ in TARGETS if name != "oracle.build"))

class Tracer:
    OP, SETUP = "op", "setup"

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._plan_cache = None
        self.entries = 0  # MSequence._extend calls while installed
        self.settled = 0  # vertices in shortest_paths results under op spans
        for name in (self.OP, "oracle.build") + PER_OP:
            self._id(name)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        stack = self._stack
        parent = stack[-1] if stack else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.end.append(0)
        stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        opened, closed = self._open, self._close
        if name == "oracle.shortest_paths":  # also counts vertices settled
            def traced(*args, **kwargs):
                idx = opened(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    closed(idx)
                if self.names[self.name[self.root[idx]]] == self.OP:
                    self.settled += len(result)
                return result
        else:
            def traced(*args, **kwargs):
                idx = opened(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closed(idx)
        traced.__wrapped__ = fn
        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every target."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "laakso" or key.startswith("laakso.")
                                         or key == "workloads")]
        plan = []
        for name, owner, attr in TARGETS:
            if isinstance(owner, tuple):
                cls = getattr(sys.modules[owner[0]], owner[1])
                original = vars(cls)[attr]
                plan.append((cls, attr, original, self._wrap(name, original)))
                continue
            original = getattr(sys.modules[owner], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        plan.append((module, key, original, wrapper))
        mseq = sys.modules["laakso.wormhole"].MSequence
        extend = vars(mseq)["_extend"]

        def counted(ms):
            self.entries += 1
            return extend(ms)

        plan.append((mseq, "_extend", extend, counted))
        return plan

    def install(self) -> None:
        """Put the wrappers in place; the modules must already be imported."""
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        for owner, attr, _, replacement in self._plan_cache:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._plan_cache or ():
            setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        """Self time of every span, in nanoseconds."""
        child = [0] * len(self.name)
        start, end, parent = self.start, self.end, self.parent
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(len(child))]

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-op calls and self time under ``op`` roots, plus the counters."""
        op_id, build_id = self._ids[self.OP], self._ids["oracle.build"]
        ops = sum(1 for n in self.name if n == op_id)
        own = self.self_times()
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        build_ns = 0
        names, roots = self.name, self.root
        for i, nid in enumerate(names):
            if nid == build_id:
                build_ns += own[i]
            elif names[roots[i]] == op_id:
                calls[nid] += 1
                self_ns[nid] += own[i]
        per_op = max(ops, 1)
        metrics = {}
        for name in PER_OP:
            nid = self._ids[name]
            metrics[f"{name}.calls"] = (calls[nid] / per_op, "calls/op")
            metrics[f"{name}.self_us"] = (self_ns[nid] / 1e3 / per_op, "us/op")
        metrics["wormhole.MSequence.entries"] = (self.entries, "count")
        metrics["oracle.vertices_settled"] = (self.settled / per_op, "vertices/op")
        metrics["oracle.build.self_ms"] = (build_ns / 1e6, "ms")
        return metrics

    def write(self, path) -> None:
        """All spans as gzip CSV: span, parent, root, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,parent,root,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.name)):
                out.write(f"{i},{self.parent[i]},{self.root[i]},{names[self.name[i]]},"
                          f"{self.start[i]},{self.end[i]}\n")
