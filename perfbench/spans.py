"""Outside-in span recording for the benchmark's traced run.

The program binds most of its internals with ``from ... import``, so a
timing wrapper only sees a call when it replaces the name in the module
that *makes* the call (``repro.sim.engine.max_min_fair_rates``, not the
definition in ``repro.sim.rates``).  Methods are wrapped on their class,
because instances look them up there.

A :class:`Patch` resolves every target when it is built and raises
:class:`MissingTarget` for one that no longer exists, so a refactor that
renames a layer fails the benchmark instead of reporting zero for it.

Spans stay in memory as tuples ``(id, name, start, end, parent, op)``;
``op`` is the trial or epoch the span belongs to.  Each thread keeps its
own stack, so the spans of a ``run_epoch`` executing in a worker thread
nest under that call and not under whatever the event loop does.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path


class MissingTarget(RuntimeError):
    """A wrap target names a module attribute that does not exist."""


@dataclass(frozen=True)
class Target:
    """One call site to wrap.

    ``attr`` is a module-level name (``"big_slice"``) or a method on a
    class defined in that module (``"FluidEngine.run_phase"``).
    """

    module: str
    attr: str
    span: str
    cpu: bool = False  # also record the calling thread's CPU time


class SpanRecorder:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self.counts: "list[tuple[str, int, float]]" = []
        #: Thread CPU seconds of ``cpu=True`` spans, by span id.
        self.cpu: "dict[int, float]" = {}
        #: The trial or epoch new spans belong to; set by the workload loop.
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts.append((name, self.op, value))

    def wrap(self, name: str, fn, *, cpu: bool = False, before=None, on_return=None):
        """Return ``fn`` wrapped in a span named ``name``.

        A call nested inside a span of the same name is passed through
        unrecorded, so a layer's busy time is never counted twice.
        ``before(recorder, args)`` runs before the span opens and
        ``on_return(recorder, args, result)`` after it closes, so neither
        is part of the span.
        """
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        thread_clock = time.thread_time
        recorder = self

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            for _sid, outer in stack:
                if outer == name:
                    return fn(*args, **kwargs)
            if before is not None:
                before(recorder, args)
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            op = recorder.op
            stack.append((sid, name))
            cpu0 = thread_clock() if cpu else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if cpu:
                    recorder.cpu[sid] = thread_clock() - cpu0
                stack.pop()
                spans.append((sid, name, start, end, parent, op))
            if on_return is not None:
                on_return(recorder, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (called once, at run end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for sid, name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def _resolve(target: Target):
    try:
        module = importlib.import_module(target.module)
    except ImportError as exc:
        raise MissingTarget(f"{target.module}: {exc}") from None
    owner = module
    attr = target.attr
    if "." in attr:
        class_name, attr = attr.split(".", 1)
        owner = vars(module).get(class_name)
        if not isinstance(owner, type):
            raise MissingTarget(f"{target.module}.{class_name} is not a class")
    original = vars(owner).get(attr)
    if not callable(original):
        raise MissingTarget(
            f"{target.module}.{target.attr} does not exist (or is not callable); "
            f"the {target.span!r} layer cannot be measured"
        )
    return owner, attr, original


class Patch:
    """A set of wrappers that can be installed and removed repeatedly."""

    def __init__(
        self, recorder: SpanRecorder, targets, *, before=None, on_return=None
    ) -> None:
        """``before`` / ``on_return`` map a span name to its callbacks."""
        before = before or {}
        on_return = on_return or {}
        self._slots = []
        for target in targets:
            owner, attr, original = _resolve(target)
            wrapper = recorder.wrap(
                target.span,
                original,
                cpu=target.cpu,
                before=before.get(target.span),
                on_return=on_return.get(target.span),
            )
            self._slots.append((owner, attr, original, wrapper))
        self.installed = False

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._slots:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._slots:
            setattr(owner, attr, original)
        self.installed = False


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #


def self_times(spans) -> "dict[int, float]":
    """Span id -> duration minus the time its direct children cover.

    Children run on the parent's thread (nested calls), so they never
    overlap one another and their durations simply add.
    """
    child_time: "dict[int, float]" = {}
    for _sid, _name, start, end, parent, _op in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - child_time.get(sid, 0.0)
        for sid, _name, start, end, _parent, _op in spans
    }


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total
