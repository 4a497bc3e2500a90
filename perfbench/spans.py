"""In-memory span tracer for the traced benchmark run.

The tracer replaces public functions at the names their callers look up
(for example `stabent.estimator.restrict_to_cut`) with wrappers that record
a span: name, start, end, parent span and operation id. Private helpers are
never wrapped. Spans stay in memory and are written out once, when the run
ends. A span's self time is its duration minus the durations of its direct
children; since calls never overlap in one thread, the self times of an
operation's spans add up to the operation's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import tracemalloc
from collections import defaultdict
from time import perf_counter

ROOT_SPAN = "op"
BOOKKEEPING_SPAN = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.sums: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peaks: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation `op_id` under a root span."""
        self.op_id = op_id
        idx = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def add(self, name: str, value: float) -> None:
        self.sums[self.op_id][name] += value

    def peak(self, name: str, value: float) -> None:
        ops = self.peaks[self.op_id]
        ops[name] = max(ops[name], value)

    def wrap(self, name: str, fn, after=None, trace_alloc: bool = False):
        """A wrapper that records a span around fn.

        `after(tracer, args, kwargs, result)` derives counters from a call;
        it runs under its own bookkeeping span so its cost is reported
        rather than charged to the caller. With `trace_alloc`, tracemalloc
        records the call's peak allocation as `<name>.peak_bytes`.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            if trace_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                if trace_alloc:
                    tracer.peak(name + ".peak_bytes", tracemalloc.get_traced_memory()[1])
            finally:
                if trace_alloc:
                    tracemalloc.stop()
                tracer._close(idx)
            if after is not None:
                book = tracer._open(BOOKKEEPING_SPAN)
                try:
                    after(tracer, args, kwargs, result)
                finally:
                    tracer._close(book)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, module: str, attr: str, name: str, **options) -> None:
        """Replace module.attr by a traced wrapper until `uninstall`."""
        mod = importlib.import_module(module)
        orig = getattr(mod, attr)
        self._restore.append((mod, attr, orig))
        setattr(mod, attr, self.wrap(name, orig, **options))

    def patch_classmethod(self, cls, attr: str, name: str) -> None:
        orig = cls.__dict__[attr]
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, classmethod(self.wrap(name, orig.__func__)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def per_op(self) -> dict[int, dict[str, float]]:
        """For each op: inclusive time per span name (`<name>_s`), self time
        per layer (`<layer>.self_s`, the layer being the name's first part),
        self time per name (`<name>.self_s`), the root span's self time
        (`op.remainder_s`), its duration (`op.wall_s`) and the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            rec = out[op]
            dur = end - start
            own = dur - child_time[i]
            if name == ROOT_SPAN:
                rec["op.wall_s"] += dur
                rec["op.remainder_s"] += own
                continue
            rec[name + "_s"] += dur
            rec[name + ".calls"] += 1
            rec[name + ".self_s"] += own
            rec[name.split(".", 1)[0] + ".self_s"] += own
        for op, rec in out.items():
            rec.update(self.sums.get(op, {}))
            rec.update(self.peaks.get(op, {}))
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
