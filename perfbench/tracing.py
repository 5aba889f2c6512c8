"""Span recorder for the traced run, wrapped around public entry points.

The recorder lives entirely in the benchmark: ``instrument`` swaps
each entry point below for a wrapper that opens a span on entry and
closes it on exit, and puts the originals back afterwards.  A span has
a name, a start, an end and the span it was opened inside.  Spans stay
in memory (flat arrays, about 21 bytes each) and are written out once,
when the run ends.

Self time is a span's duration minus the durations of its direct
children.  Every traced pass is wrapped in a root span, whose self time
is the ``unattributed`` remainder, so the self times of all spans sum
to the traced wall time exactly.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from typing import Callable, Dict, Iterator, List, Tuple

#: (span name, module, owner attribute or None, function attribute).
#: The runner imports the fork and batch entry points at call time, so
#: rebinding the module attribute reaches every caller.
ENTRY_POINTS: Tuple[Tuple[str, str, object, str], ...] = (
    ("core.prepare_machine", "repro.core.harness", None, "prepare_machine"),
    ("system.machine_init", "repro.system.machine", "Machine", "__init__"),
    ("system.run", "repro.system.machine", "Machine", "run"),
    ("system.capture", "repro.system.machine", "Machine", "capture"),
    ("system.restore", "repro.system.machine", "Machine", "restore"),
    ("pipeline.step", "repro.pipeline.core", "Core", "step"),
    ("pipeline.next_event_cycle", "repro.pipeline.core", "Core", "next_event_cycle"),
    ("pipeline.fast_forward", "repro.pipeline.core", "Core", "fast_forward"),
    ("memory.access", "repro.memory.hierarchy", "CacheHierarchy", "access"),
    ("snapshot.plan", "repro.snapshot.fork", None, "plan_fork_groups"),
    ("snapshot.group", "repro.snapshot.fork", None, "run_fork_group"),
    ("batch.plan", "repro.batch.plan", None, "plan_batch_groups_report"),
    ("batch.state_setup", "repro.batch.state", "BatchState", "from_snapshots"),
    ("batch.group", "repro.batch.engine", None, "run_batch_group_detailed"),
    ("runner.cache_get", "repro.runner.cache", "TrialCache", "get"),
    ("runner.cache_put", "repro.runner.cache", "TrialCache", "put"),
    ("runner.cold_trial", "repro.runner.runner", None, "run_trial_outcome"),
)
SPAN_NAMES = tuple(entry[0] for entry in ENTRY_POINTS)
#: ``run_fork_group`` returns None when a group falls back to cold.
COUNT_NONE = frozenset({"snapshot.group"})
ROOT = "pass"


class SpanRecorder:
    """Flat, append-only span storage with an explicit open-span stack."""

    def __init__(self, names: Tuple[str, ...]) -> None:
        self.names = (ROOT,) + tuple(names)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: Entry-point calls that returned None (fork fallbacks).
        self.returned_none: Dict[str, int] = {}

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("span stack out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(self.ids[name])
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.ids[name]
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            index = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return wrapper

    def wrap_counting_none(self, name: str, fn: Callable) -> Callable:
        """As :meth:`wrap`, also counting calls that returned None."""
        inner = self.wrap(name, fn)
        returned_none = self.returned_none

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            if result is None:
                returned_none[name] = returned_none.get(name, 0) + 1
            return result

        return wrapper

    def span_table(self, first: int = 0):
        """Per-name ``(calls, inclusive seconds, self seconds)`` over the
        spans recorded from index ``first`` on, as numpy arrays indexed
        by name id."""
        import numpy as np

        # Copies, so the arrays can grow again once this returns.
        name = np.frombuffer(self.name, dtype=np.uint8)[first:].copy()
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:] - first
        start = np.frombuffer(self.start)[first:].copy()
        end = np.frombuffer(self.end)[first:].copy()
        duration = end - start
        children = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        self_time = duration - children
        n = len(self.names)
        return (
            np.bincount(name, minlength=n),
            np.bincount(name, weights=duration, minlength=n),
            np.bincount(name, weights=self_time, minlength=n),
        )

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.uint8),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
        )


class instrument:
    """Context manager: install span wrappers on every entry point."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        for name, module_name, owner_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            wrap = (
                self.recorder.wrap_counting_none
                if name in COUNT_NONE
                else self.recorder.wrap
            )
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrap(name, raw.__func__))
            else:
                wrapped = wrap(name, raw)
            setattr(owner, attr, wrapped)
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
