"""Span tracing for the traced run.

`install` replaces the public functions of every cogpat layer with timing
wrappers.  A wrapper goes on every name a caller resolves: the defining
module, each module that imported the function by name (for example
`cogkit.chain.cwig` or `cli.make_cofo_dds`), and the class for methods
such as `_MgBase.edges` and `FunctorSpec.lift`.  Spans and counts are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Keep at most this many span records; self times and counts stay exact
# beyond it, only the stored records stop.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self) -> None:
        self.task = None          # id of the task being measured, else None
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []     # (id, name, start, end, parent, task)
        self.spans_dropped = 0
        self._stack: list = []    # [span id, child seconds]
        self._next_id = 0
        self._task_keys: set = set()

    def count(self, name: str, n=1) -> None:
        self.counts[name] += n

    def begin_task(self, task_id) -> None:
        self.task = task_id
        self._task_keys = set()

    def end_task(self) -> None:
        self.task = None

    def distinct_in_task(self, name: str, key) -> None:
        """Count `key` under `name` once per task."""
        if (name, key) not in self._task_keys:
            self._task_keys.add((name, key))
            self.counts[name] += 1

    def wrap(self, name, fn, after=None, span=True):
        """Time `fn` as span `name` (a string, or a callable of the call's
        arguments returning one) while a task runs; `after(tracer, args,
        result)` records counts from a successful call."""
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.task is None:
                return fn(*args, **kwargs)
            if not span:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            label = name(*args) if callable(name) else name
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                tracer.self_s[label] += dur - frame[1]
                tracer.calls[label] += 1
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, label, start, end, parent, tracer.task))
                else:
                    tracer.spans_dropped += 1
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "span_fields": ["id", "name", "start", "end", "parent", "task"],
                "spans": self.spans,
                "spans_dropped": self.spans_dropped,
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }, fh)


def install(tracer: Tracer, targets) -> None:
    """Wrap each target and rebind every cogpat module name that refers to
    the original function.

    `targets` lists (owner, attribute, span name, after, span) tuples; the
    owner is a module or a class.
    """
    by_original: dict = {}
    for owner, attr, name, after, span in targets:
        raw = owner.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapped = tracer.wrap(name, fn, after, span)
        setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
        if not isinstance(owner, type):
            by_original[id(fn)] = (fn, wrapped)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cogpat" or mod_name.startswith("cogpat.")):
            continue
        for key, value in list(vars(mod).items()):
            hit = by_original.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
