"""Spans and profiles for the end-to-end benchmark, taken from outside ``src/``.

:class:`Tracer` replaces a module or class attribute (the binding the
caller actually looks up) with a timing wrapper and records one span per
call: name, start and end on ``perf_counter_ns``, the enclosing span of
the same thread, and the thread.  Spans live in one list per thread, so
recording never races, and are written as JSONL only when the run ends.

:func:`span_table` turns spans into the total/self/count table; a span's
self time is its duration minus the part its child spans cover.
:func:`profile_shares` groups cProfile self time by ``repro`` module and
layer.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: The repository's layers (top-level packages of ``repro``), in the
#: order tables are printed.
LAYERS = (
    "ib",
    "sim",
    "traffic",
    "topology",
    "core",
    "experiments",
    "runtime",
    "service",
)

_MISSING = object()


class Tracer:
    """In-memory span recorder with attribute patching and restore."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread ident, span list) per thread that recorded a span.
        self._threads: list = []
        self._patches: list = []

    def _spans(self) -> list:
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append((threading.get_ident(), spans))
        return spans

    # -- recording -----------------------------------------------------
    def timed(self, name: str, fn, on_result=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``on_result(result)`` runs after the span closes, so counting
        outputs does not inflate the span.  The bookkeeping of
        :meth:`span` is inlined here: this wrapper sits on per-request
        paths, where a generator-based context manager would double the
        tracing overhead.
        """
        perf_ns = time.perf_counter_ns
        local = self._local

        def wrapper(*args, **kwargs):
            spans = self._spans()
            stack = local.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_ns(), parent)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one span."""
        spans = self._spans()
        stack = self._local.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            spans[idx] = (name, start, time.perf_counter_ns(), parent)
            stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self.timed(name, getattr(owner, attr), on_result))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- export ----------------------------------------------------------
    def records(self) -> list:
        """Every closed span as a dict with a global ``id``/``parent``.

        Ids follow each thread's list positions, so a span still open in
        another thread leaves a gap instead of shifting its successors.
        """
        out = []
        with self._lock:
            threads = list(self._threads)
        base = 0
        for thread, spans in threads:
            spans = list(spans)
            for i, span in enumerate(spans):
                if span is None:
                    continue
                name, start, end, parent = span
                out.append(
                    {
                        "id": base + i,
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "parent": -1 if parent < 0 else base + parent,
                        "thread": thread,
                    }
                )
            base += len(spans)
        return out


def write_jsonl(records: list, path: Path) -> None:
    """Write span records one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def span_table(records: list, windows: list | None = None) -> dict:
    """Total, self and count per span name and per layer.

    Only spans wholly inside one of ``windows`` (``(start_ns, end_ns)``
    pairs; default: all spans) count.  A span's self time is its
    duration minus its direct children's durations (children are spans
    whose ``parent`` is its ``id``).  Returns ``{"names": {name: {...}},
    "layers": {layer: {...}}, "root_s": seconds covered by parentless
    spans}``; times in seconds.
    """
    inside = [
        r for r in records
        if windows is None
        or any(a <= r["start_ns"] and r["end_ns"] <= b for a, b in windows)
    ]
    child_ns: dict = defaultdict(int)
    for r in inside:
        if r["parent"] >= 0:
            child_ns[r["parent"]] += r["end_ns"] - r["start_ns"]
    names: dict = {}
    root_ns = 0
    for r in inside:
        dur = r["end_ns"] - r["start_ns"]
        row = names.setdefault(r["name"], {"total_s": 0.0, "self_s": 0.0, "count": 0})
        row["total_s"] += dur / 1e9
        row["self_s"] += (dur - child_ns.get(r["id"], 0)) / 1e9
        row["count"] += 1
        if r["parent"] < 0:
            root_ns += dur
    layers: dict = {}
    for name, row in names.items():
        agg = layers.setdefault(
            name.split(".", 1)[0], {"total_s": 0.0, "self_s": 0.0, "count": 0}
        )
        agg["self_s"] += row["self_s"]
        agg["count"] += row["count"]
    # A layer's total is its self time plus time it spent in other
    # layers' spans nested under it: sum the durations of its spans that
    # are not nested inside another span of the same layer.
    by_id = {r["id"]: r for r in inside}
    for r in inside:
        layer = r["name"].split(".", 1)[0]
        parent = by_id.get(r["parent"])
        nested = False
        while parent is not None:
            if parent["name"].split(".", 1)[0] == layer:
                nested = True
                break
            parent = by_id.get(parent["parent"])
        if not nested:
            layers[layer]["total_s"] += (r["end_ns"] - r["start_ns"]) / 1e9
    return {"names": names, "layers": layers, "root_s": root_ns / 1e9}


def _module_of(filename: str) -> str:
    """``.../repro/ib/fastpath.py`` -> ``ib.fastpath``; else ``other``."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0 or not path.endswith(".py"):
        return "other"
    return path[at + len(marker) : -3].replace("/", ".").removesuffix(".__init__")


#: C functions that block waiting rather than work: an idle event loop
#: would otherwise dominate a profiled server thread.
IDLE_FUNCTIONS = frozenset(
    {
        "<method 'poll' of 'select.epoll' objects>",
        "<method 'acquire' of '_thread.lock' objects>",
    }
)


def profile_shares(stats) -> dict:
    """Share of profiled self time per ``repro`` module and per layer.

    ``stats`` is a :class:`pstats.Stats`.  Self time of a C function
    (builtins and extension calls such as ``np.bincount``) is charged to
    the modules of its callers, split by each caller's share of it, so
    a layer's share counts the native work it asked for.  Blocking waits
    (:data:`IDLE_FUNCTIONS`) are left out.  Everything else outside
    ``repro`` is ``other``.
    """
    modules: dict = defaultdict(float)
    for (filename, _line, func), (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        if func in IDLE_FUNCTIONS:
            continue
        if filename == "~" and callers:
            caller_tt = sum(edge[2] for edge in callers.values())
            for (cfile, _cl, _cf), edge in callers.items():
                weight = edge[2] / caller_tt if caller_tt > 0 else 1.0 / len(callers)
                modules[_module_of(cfile)] += tt * weight
        else:
            modules[_module_of(filename)] += tt
    total = sum(modules.values())
    if total <= 0:
        return {"modules": {}, "layers": {}, "total_s": 0.0}
    layers: dict = defaultdict(float)
    for module, tt in modules.items():
        layers[module.split(".", 1)[0]] += tt
    return {
        "modules": {k: v / total for k, v in modules.items()},
        "layers": {k: v / total for k, v in layers.items()},
        "total_s": total,
    }
