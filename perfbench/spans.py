"""Span tracer that times monoq's layers from outside the program.

Each traced public function is replaced, for the duration of a traced
round, by a wrapper under every name a monoq module binds it to (``harness``
imports ``ckw_check`` by name, so patching ``monogamy.ckw_check`` alone would
miss its calls).  Methods are patched on their class.  A wrapper counts its
call and, when the tracer records, appends one span (request, name, parent,
start_ns, end_ns) to an in-memory list; self time is a span's duration minus
the durations of its direct children.

Span names are ``layer.function``, ``layer.Class.method`` or ``layer.Class``
(the class's ``__post_init__`` validation), for the module ``monoq.layer``.

numpy.linalg eigvalsh/eigh/svd are counted (calls and input bytes) but are
not spans, so a layer's self time includes the kernels it runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

KERNELS = ("eigvalsh", "eigh", "svd")
COUNTERS = (
    "core.pure_to_density.bytes",
    "harness.write_records_csv.bytes",
    "kernel.linalg.calls",
    "kernel.linalg.bytes_in",
)


def resolve(name: str) -> tuple[object, str]:
    """(owner, attribute) of the function that span ``name`` times."""
    layer, *path = name.split(".")
    owner = importlib.import_module(f"monoq.{layer}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    target = getattr(owner, path[-1])
    if isinstance(target, type):
        return target, "__post_init__"
    return owner, path[-1]


class _CountingStream:
    """Text stream proxy that counts the UTF-8 bytes written through it."""

    def __init__(self, stream):
        self.stream = stream
        self.nbytes = 0

    def write(self, text):
        self.nbytes += len(text.encode("utf-8"))
        return self.stream.write(text)


class Tracer:
    """Call counts, counters and (if ``record``) spans of one round, in memory."""

    def __init__(self, span_names, record):
        self.span_names = tuple(span_names)
        self.record = record
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []

    def _span(self, name, call):
        self.counts[name] += 1
        if not self.record:
            return call()
        stack = self._stack
        sid = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return call()
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans[sid] = (self.request, name, parent, start, end)

    def wrap(self, name, fn):
        counts = self.counts
        if name == "core.pure_to_density":
            def call_with(args, kwargs):
                result = fn(*args, **kwargs)
                counts["core.pure_to_density.bytes"] += 16 * 4**result.n_qubits
                return result
        elif name == "monogamy.detect_ordering":
            def call_with(args, kwargs):
                result = fn(*args, **kwargs)
                counts["monogamy.detect_ordering.satisfied"] += bool(result.satisfied)
                return result
        elif name == "harness.CampaignResult.write_records_csv":
            def call_with(args, kwargs):
                stream = _CountingStream(args[1])
                try:
                    return fn(args[0], stream, *args[2:], **kwargs)
                finally:
                    counts["harness.write_records_csv.bytes"] += stream.nbytes
        else:
            def call_with(args, kwargs):
                return fn(*args, **kwargs)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, lambda: call_with(args, kwargs))

        return traced

    def wrap_kernel(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            counts["kernel.linalg.calls"] += 1
            counts["kernel.linalg.bytes_in"] += int(np.asarray(a).nbytes)
            return fn(a, *args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        modules = [m for key, m in sys.modules.items() if key == "monoq" or key.startswith("monoq.")]
        patches = []
        for name in self.span_names:
            owner, attr = resolve(name)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            if isinstance(owner, type):  # a method: the class is shared by every binding
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for kernel in KERNELS:
            original = getattr(np.linalg, kernel)
            patches.append((np.linalg, kernel, original))
            setattr(np.linalg, kernel, self.wrap_kernel(original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def self_seconds(self) -> dict:
        """Self seconds per span name, from the recorded spans."""
        child_ns = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        for sid, (_, name, _, start, end) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[sid]
        return {name: ns / 1e9 for name, ns in self_ns.items()}

    def to_json(self) -> dict:
        names = sorted({s[1] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "fields": ["request", "name", "parent", "start_ns", "end_ns"],
            "names": names,
            "spans": [[r, index[n], p, s, e] for r, n, p, s, e in self.spans],
            "counts": dict(self.counts),
        }
