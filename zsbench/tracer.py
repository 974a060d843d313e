"""Span tracing around the public functions of the zipstrata modules.

``Tracer.install`` replaces every traced function by a wrapper in its own
module, in every zipstrata module that re-binds it with ``from .x import y``,
and, for the methods named in ``METHODS``, on the class. A wrapper records one
span per call: its id, the id of the enclosing span, the operation id set by
the benchmark, the function, and start and end times. Spans stay in memory
until ``write`` saves them; the per-layer numbers are computed from them.

Hot leaf helpers listed in ``SKIP`` stay unwrapped: they are called so often
that a span per call would dominate the run, and their time is charged to the
span that called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# Leaf helpers left unwrapped, by module: vector arithmetic and permutation
# composition, the single-slot action and the descent tests that loops inside
# weyl call per step, and the tuple wrapper for polynomial matrices.
SKIP = {
    "rootsys": {"vec", "unit", "add", "sub", "neg", "smul", "dot", "is_zero",
                "first_nonzero_sign"},
    "weyl": {"identity_perm", "compose", "compose_all", "inverse", "transpositions",
             "act", "simple_reflection", "identity", "weight_of_slot",
             "left_descents", "right_descents", "in_min_coset_reps"},
    "oracle": {"poly_matrix"},
}

# Classes whose methods are traced; None means every public method not in SKIP.
METHODS = {
    "weyl": {"WeylGroup": None},
    "oracle": {"SparsePoly": ("__mul__",)},
}


class Tracer:
    """In-memory spans over the wrapped zipstrata functions."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.op_id = 0
        self._next_id = 1
        self._stack: List[int] = [0]
        self.span_id = array("q")
        self.parent_id = array("q")
        self.span_op = array("q")
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """Register ``fn`` as span name ``name`` of ``layer``; return its wrapper."""
        self.names.append(name)
        self.layers.append(layer)
        index = len(self.names) - 1
        stack = self._stack
        ids, parents, ops, names = self.span_id, self.parent_id, self.span_op, self.span_name
        starts, ends = self.start, self.end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                ops.append(tracer.op_id)
                names.append(index)
                starts.append(start)
                ends.append(end)

        return traced

    def install(self) -> None:
        """Wrap the traced functions of every loaded zipstrata module."""
        modules = {
            name.split(".", 1)[1]: module
            for name, module in sorted(sys.modules.items())
            if name.startswith("zipstrata.") and module is not None
        }
        replaced: Dict[int, Callable] = {}
        for layer, module in modules.items():
            skip = SKIP.get(layer, set())
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in skip):
                    replaced[id(value)] = self._wrap(layer, f"{layer}.{attr}", value)
            for cls_name, wanted in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr, value in list(vars(cls).items()):
                    if not inspect.isfunction(value):
                        continue
                    chosen = (attr in wanted) if wanted is not None else (
                        not attr.startswith("_") and attr not in skip)
                    if chosen:
                        wrapped = self._wrap(layer, f"{layer}.{cls_name}.{attr}", value)
                        self._patches.append((cls, attr, value))
                        setattr(cls, attr, wrapped)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_id)

    def calls(self) -> Dict[str, int]:
        counts = [0] * len(self.names)
        for index in self.span_name:
            counts[index] += 1
        return {name: counts[k] for k, name in enumerate(self.names)}

    def layer_self_seconds(self, op_scale: Dict[int, float]) -> Dict[str, float]:
        """Per layer, span time minus the time of the spans' children, each
        span multiplied by its operation's factor in ``op_scale`` (1 when
        absent)."""
        child_time: Dict[int, float] = {}
        for parent, start, end in zip(self.parent_id, self.start, self.end):
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals = {layer: 0.0 for layer in self.layers}
        for sid, op, index, start, end in zip(
            self.span_id, self.span_op, self.span_name, self.start, self.end
        ):
            own = (end - start) - child_time.get(sid, 0.0)
            totals[self.layers[index]] += own * op_scale.get(op, 1.0)
        return totals

    def child_parents(self, child: str, parent: str) -> int:
        """How many ``parent`` spans have at least one direct ``child`` span."""
        child_index = self.names.index(child)
        parent_index = self.names.index(parent)
        parent_ids = {
            sid for sid, index in zip(self.span_id, self.span_name) if index == parent_index
        }
        return len({
            pid for pid, index in zip(self.parent_id, self.span_name)
            if index == child_index and pid in parent_ids
        })

    def write(self, path: Path) -> None:
        """Save the spans as CSV: id, parent, op, name, start and end in
        nanoseconds since the first span."""
        origin = min(self.start) if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,op,name,start_ns,end_ns\n")
            for sid, parent, op, index, start, end in zip(
                self.span_id, self.parent_id, self.span_op, self.span_name,
                self.start, self.end,
            ):
                handle.write(
                    f"{sid},{parent},{op},{self.names[index]},"
                    f"{round((start - origin) * 1e9)},{round((end - origin) * 1e9)}\n"
                )
