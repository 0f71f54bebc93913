"""Pipeline instrumentation: nested stage timers and counters.

Every hot stage of the pipeline (generate → collect → sanitize →
infer → cones) reports into a :class:`PerfRecorder`, so any run can be
asked for a per-stage cost profile instead of hand-rolling
``time.perf_counter()`` around call sites.  The API is deliberately
tiny:

    >>> from repro import perf
    >>> rec = perf.PerfRecorder()
    >>> with perf.use_recorder(rec):
    ...     with perf.stage("infer"):
    ...         with perf.stage("fold"):
    ...             pass
    ...         perf.counter("links", 42)
    >>> rec.flat()["infer/fold"] >= 0.0
    True

Stages nest: entering ``stage("fold")`` inside ``stage("infer")``
accumulates time under ``infer/fold``.  Re-entering a stage name at the
same nesting level accumulates into the same node (``calls`` counts the
re-entries), which is how the four fold passes of one inference run
show up as a single ``fold`` row.  Re-entering the *currently open*
stage by the same name is a passthrough (no duplicate child, no
double-counted time) — that is how the :class:`repro.asrank.ASRank`
facade attributes work to ``asrank/infer`` and ``asrank/cones`` while
the engines underneath keep their own ``infer``/``cones`` top stages
for direct callers.

A module-level default recorder collects everything when the caller
does not install one; ``use_recorder`` swaps it for a scoped recorder
(benchmarks use this to isolate one pipeline run per measurement).
The recorder is process-local: multiprocessing workers record into
their own copy, which is intentional — the parent's profile then shows
the wall-clock cost of the fan-out, not the summed worker CPU.

Thread safety: mutations (``stage`` bookkeeping, ``counter``,
``add_seconds``) are guarded by a per-recorder lock and the stage
*stack* is thread-local (each thread nests independently under the
shared root), so the query service's concurrent handlers can deposit
per-route timings while ``snapshot()`` — which returns fully detached
plain dicts — reads a consistent tree without mutating it.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class StageStats:
    """One node of the stage tree: accumulated seconds + counters."""

    __slots__ = ("name", "seconds", "calls", "counters", "children")

    def __init__(self, name: str):
        self.name = name
        self.seconds: float = 0.0
        self.calls: int = 0
        self.counters: Dict[str, float] = {}
        self.children: Dict[str, "StageStats"] = {}

    def child(self, name: str) -> "StageStats":
        node = self.children.get(name)
        if node is None:
            node = StageStats(name)
            self.children[name] = node
        return node

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view (JSON-serializable)."""
        out: Dict[str, object] = {
            "seconds": self.seconds,
            "calls": self.calls,
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = {
                name: node.snapshot() for name, node in self.children.items()
            }
        return out


class PerfRecorder:
    """Collects a tree of stage timings plus named counters.

    One recorder per pipeline run is still the intended shape, but the
    recorder is safe to share across threads/asyncio handlers: the
    stage stack is per-thread (every thread nests under the shared
    root) and all structural mutation happens under ``_lock``.
    """

    def __init__(self) -> None:
        self._root = StageStats("")
        self._lock = threading.Lock()
        self._local = threading.local()
        # bumped by reset(): threads detect a stale stack and rebuild
        self._generation = 0

    @property
    def _stack(self) -> List[StageStats]:
        state = getattr(self._local, "state", None)
        if state is None or state[0] != self._generation:
            state = (self._generation, [self._root])
            self._local.state = state
        return state[1]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    @contextmanager
    def stage(self, name: str) -> Iterator[StageStats]:
        """Time a named stage; nests under the innermost open stage.

        Re-entering the *innermost open* stage by the same name is a
        passthrough: a facade that opens ``asrank``/``infer`` around an
        engine that opens ``infer`` itself records one node, not an
        ``infer/infer`` duplicate with double-counted seconds.
        """
        stack = self._stack
        if len(stack) > 1 and stack[-1].name == name:
            yield stack[-1]
            return
        with self._lock:
            node = stack[-1].child(name)
            node.calls += 1
        stack.append(node)
        start = time.perf_counter()
        try:
            yield node
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                node.seconds += elapsed
            stack.pop()

    def counter(self, name: str, value: float = 1) -> None:
        """Accumulate a named counter on the innermost open stage."""
        node = self._stack[-1]
        with self._lock:
            node.counters[name] = node.counters.get(name, 0) + value

    def add_seconds(self, name: str, seconds: float, **counters: float) -> None:
        """Accumulate externally measured time under the open stage.

        For substages whose phases interleave inside a loop (e.g. the
        collector's propagate/paths/noise/rib phases within one origin
        block): the caller measures each slice itself and deposits the
        total here, avoiding a context-manager entry per slice.
        ``counters`` accumulate on that substage.
        """
        with self._lock:
            node = self._stack[-1].child(name)
            node.calls += 1
            node.seconds += seconds
            for cname, value in counters.items():
                node.counters[cname] = node.counters.get(cname, 0) + value

    def reset(self) -> None:
        with self._lock:
            self._root = StageStats("")
            self._generation += 1
            self._local.state = (self._generation, [self._root])

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The stage tree as nested plain dicts (top-level stages).

        The returned structure shares nothing with the live tree, so
        concurrent handlers (the server's ``/metrics`` endpoint) can
        read it without racing recorders still mutating stages.
        """
        with self._lock:
            children = self._root.snapshot().get("children", {})
        assert isinstance(children, dict)
        return children

    def flat(self, sep: str = "/") -> Dict[str, float]:
        """``"infer/fold" -> seconds`` for every stage in the tree."""
        out: Dict[str, float] = {}

        def walk(node: StageStats, prefix: str) -> None:
            for name, child in node.children.items():
                path = f"{prefix}{sep}{name}" if prefix else name
                out[path] = child.seconds
                walk(child, path)

        with self._lock:
            walk(self._root, "")
        return out

    def counters(self, sep: str = "/") -> Dict[str, float]:
        """``"collect/origins" -> value`` for every recorded counter."""
        out: Dict[str, float] = {}

        def walk(node: StageStats, prefix: str) -> None:
            for cname, value in node.counters.items():
                path = f"{prefix}{sep}{cname}" if prefix else cname
                out[path] = value
            for name, child in node.children.items():
                walk(child, f"{prefix}{sep}{name}" if prefix else name)

        with self._lock:
            walk(self._root, "")
        return out

    def report_lines(self) -> List[str]:
        """Human-readable indented profile; root counters (the ``gc.*``
        totals of :func:`use_recorder`) go on a last line."""
        lines: List[str] = []

        def walk(node: StageStats, depth: int) -> None:
            for name, child in node.children.items():
                extras = ""
                if child.calls > 1:
                    extras += f"  x{child.calls}"
                for cname, value in child.counters.items():
                    extras += f"  {cname}={value:g}"
                lines.append(
                    f"{'  ' * depth}{name:<24}{child.seconds:>10.4f}s{extras}"
                )
                walk(child, depth + 1)

        with self._lock:
            walk(self._root, 0)
            root = self._root.counters
            if root:
                lines.append(
                    "  ".join(f"{k}={v:g}" for k, v in root.items())
                )
        return lines


# ---------------------------------------------------------------------------
# module-level default recorder
# ---------------------------------------------------------------------------

_recorder = PerfRecorder()


def get_recorder() -> PerfRecorder:
    """The recorder currently collecting pipeline stages."""
    return _recorder


def set_recorder(recorder: PerfRecorder) -> PerfRecorder:
    """Install ``recorder`` globally; returns the previous one."""
    global _recorder
    previous = _recorder
    _recorder = recorder
    return previous


class _GcTimer:
    """A ``gc.callbacks`` hook: collections and seconds per generation.

    It only accumulates plain numbers: a collection can start inside
    any allocation, including one made while the recorder's lock is
    held, so the hook must not take that lock itself.
    """

    def __init__(self) -> None:
        self.calls = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._start = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        generation = info["generation"]
        self.calls[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._start

    def deposit(self, recorder: PerfRecorder) -> None:
        """Add ``gc.genN`` (collections) and ``gc.genN_s`` (seconds)
        counters to the recorder root, for generations that ran."""
        with recorder._lock:
            counters = recorder._root.counters
            for generation, calls in enumerate(self.calls):
                if calls:
                    name = f"gc.gen{generation}"
                    seconds = self.seconds[generation]
                    counters[name] = counters.get(name, 0) + calls
                    counters[name + "_s"] = (
                        counters.get(name + "_s", 0) + seconds
                    )


@contextmanager
def use_recorder(recorder: PerfRecorder) -> Iterator[PerfRecorder]:
    """Scope ``recorder`` as the active one, restoring on exit.

    While scoped, garbage collections are timed too; on exit the hook is
    removed (the module default recorder never pays for it) and the
    totals land as ``gc.*`` counters on the recorder root.
    """
    previous = set_recorder(recorder)
    timer = _GcTimer()
    gc.callbacks.append(timer)
    try:
        yield recorder
    finally:
        gc.callbacks.remove(timer)
        set_recorder(previous)
        timer.deposit(recorder)


def stage(name: str):
    """``with perf.stage("infer"): ...`` on the active recorder."""
    return _recorder.stage(name)


def counter(name: str, value: float = 1) -> None:
    _recorder.counter(name, value)


def add_seconds(name: str, seconds: float, **counters: float) -> None:
    _recorder.add_seconds(name, seconds, **counters)


def reset() -> None:
    _recorder.reset()


def snapshot() -> Dict[str, object]:
    """Detached plain-dict view of the active recorder (non-mutating)."""
    return _recorder.snapshot()


def flat(sep: str = "/") -> Dict[str, float]:
    return _recorder.flat(sep)


def report_lines() -> List[str]:
    return _recorder.report_lines()
