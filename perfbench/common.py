"""Shared pieces of the benchmark: sizes, metric names, tracing, stats.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: everything the benchmark writes lives under here (gitignored)
WORK = os.path.join(ROOT, ".perfbench")

#: input sizes per scale; "tiny" is the smoke test's
SCALES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "simulate": {"n_ases": 30_000, "origins": 100, "vps": 40},
        "rib": {"n_ases": 20_000, "origins": 500, "vps": 80, "rows": 24_000},
        "stream": {"scenario": "large", "batches": 2048},
    },
    "tiny": {
        "simulate": {"n_ases": 1_500, "origins": 20, "vps": 10},
        "rib": {"n_ases": 1_500, "origins": 30, "vps": 12, "rows": 200},
        "stream": {"scenario": "tiny", "batches": 1024},
    },
}

#: UPDATE messages per stream-publish batch
STREAM_BATCH_SIZE = 8

LAYERS = ("topology", "bgp", "mrt", "core", "serve", "stream")

#: how many times each run repeats its set-up; it reports the median
SETUP_REPEATS = 5
#: a cold publish of the stream table takes over a second, so
#: stream-publish repeats its set-up fewer times
STREAM_SETUP_REPEATS = 3

#: the reference loop's typical mean time on the machine the bounds were
#: set on (2-vCPU Xeon VM, Python 3.11); see :class:`Reference`
REF_NOMINAL_S = 0.0174
#: reference samples on either side of a time that set its factor
REF_WINDOW = 2

#: the end-to-end metrics every untraced run reports
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

ROUTES = ("asn", "cone", "link", "ranks", "snapshot", "healthz", "paths")

FALLBACK_REASONS = (
    "cold-start", "dirty-threshold", "no-fast-index", "non-default-pipeline",
    "known-siblings", "clique-changed", "paths-removed", "paths-reordered",
    "asns-changed", "links-changed", "degrees-changed",
    "partial-vps-changed", "late-step-link", "partial-vp-vote",
    "topdown-vote", "fold-vote",
)

#: spans the traced run records, by metric name -> layer.  A span's
#: metric is its median duration per traced op (0 when a workload
#: never makes that call).
SPANS: Dict[str, str] = {
    "topology.generate_s": "topology",
    "bgp.collector_init_s": "bgp",
    "bgp.collect_s": "bgp",
    "mrt.decode_s": "mrt",
    "mrt.table_s": "mrt",
    "core.sanitize_s": "core",
    "core.infer_s": "core",
    "core.cones_s": "core",
    "serve.snapshot_build_s": "serve",
    "serve.snapshot_save_s": "serve",
    "serve.snapshot_load_s": "serve",
    "serve.request_s": "serve",
    "serve.swap_s": "serve",
    "serve.visible_s": "serve",
    "stream.apply_s": "stream",
    "stream.publish_s": "stream",
}

#: repro.perf stage paths (suffix match on the flat tree) -> metric
PERF_STAGES: Dict[str, str] = {
    "collect/propagate": "perf.collect.propagate_s",
    "collect/paths": "perf.collect.paths_s",
    "collect/noise": "perf.collect.noise_s",
    "collect/rib": "perf.collect.rib_s",
    "infer/clique": "perf.infer.clique_s",
    "infer/index": "perf.infer.index_s",
    "infer/topdown": "perf.infer.topdown_s",
    "infer/fold": "perf.infer.fold_s",
}

#: ru_maxrss is read after each of these calls
RSS_CALLS = (
    "generate", "collector_init", "collect", "decode", "table", "sanitize",
    "infer", "cones", "snapshot_build", "snapshot_save", "snapshot_load",
    "apply", "publish",
)


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    out: List[Tuple[str, str]] = []
    out += [(name, "s") for name in SPANS]
    out += [(name, "s") for name in PERF_STAGES.values()]
    out += [
        ("bgp.paths_observed", "count"),
        ("mrt.records", "count"),
        ("mrt.rib_rows", "count"),
        ("core.sanitize_kept_ratio", "ratio"),
        ("core.links", "count"),
        ("serve.snapshot_bytes", "bytes"),
    ]
    out += [(f"serve.client.{route}.p50_ms", "ms") for route in ROUTES]
    out += [(f"serve.server.{route}.mean_ms", "ms") for route in ROUTES]
    out += [
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.paths_table_hit_ratio", "ratio"),
        ("stream.publish_apply_s", "s"),
        ("stream.publish_build_s", "s"),
        ("stream.visible_lag_ms", "ms"),
        ("stream.publishes.noop", "count"),
        ("stream.publishes.delta", "count"),
        ("stream.publishes.full", "count"),
    ]
    out += [(f"stream.fallbacks.{reason}", "count")
            for reason in FALLBACK_REASONS]
    out += [("stream.avoided_ratio", "ratio")]
    out += [(f"mem.rss_after.{call}_mib", "MiB") for call in RSS_CALLS]
    out += [(f"self.{layer}_s", "s") for layer in LAYERS]
    out += [
        ("trace.remainder_s", "s"),
        ("trace.op_s", "s"),
        ("trace.untraced_op_s", "s"),
        ("trace.overhead_ms", "ms"),
        ("trace.ops", "count"),
        ("bench.reference_ms", "ms"),
    ]
    return out


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------


def maxrss_mib() -> float:
    """Peak RSS of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mib(pid: int) -> float:
    """Peak RSS of another live process, from /proc/<pid>/status."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def repro_env() -> Dict[str, str]:
    """Environment for child interpreters that import :mod:`repro`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def fingerprint() -> Dict[str, object]:
    """Where a result was measured: the facts a speed claim needs."""
    with open("/proc/loadavg") as handle:
        load = [float(x) for x in handle.read().split()[:3]]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "loadavg_start": load,
    }


def reference_s() -> float:
    """One pass of a fixed pure-Python loop (dict updates and a keyed
    sort, ~11 ms on a quiet machine); no change to the program can alter its cost."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(40_000):
        table[i & 4095] = table.get(i & 4095, 0) + i
    sorted(range(40_000), key=lambda x: (x * 7919) % 100_003)
    return time.perf_counter() - start


class Reference:
    """Machine speed, sampled before every op and set-up.

    The shared VM this benchmark was built on has slow phases (up to
    1.8x, lasting seconds to minutes) that move every wall time inside
    them alike.  Each run samples the reference loop before each op,
    set-up or load slice, and reports each of their times multiplied by
    :meth:`factor` for its sample, i.e. rescaled to the speed at which
    the loop takes ``REF_NOMINAL_S``; the raw times go to the run's
    record.  The factor is local (the ``REF_WINDOW`` samples on either
    side) because a slow phase often covers only some of a run's ops,
    and those then set its upper quantiles: one factor for the whole
    run left rib-build's p75 with ten-seed spreads of 0.12-0.17, local
    factors with 0.06-0.07.

    A factor uses the mean of the loop times, not their median: the
    loop's time there is bimodal (~11 or ~19 ms), and the mean follows
    the share of time spent slow, as a long op's time does.
    """

    def __init__(self) -> None:
        #: mean loop time of each sample, in seconds
        self.samples: List[float] = []

    def sample(self) -> int:
        """Take a sample; returns its index, which :meth:`factor` takes."""
        gc.collect()
        self.samples.append(statistics.mean(reference_s() for _ in range(3)))
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        window = self.samples[max(0, index - REF_WINDOW):
                              index + REF_WINDOW + 1]
        return REF_NOMINAL_S / statistics.mean(window)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans (name, layer, start, end, parent, op) plus
    per-op counts, recorded around the calls the benchmark makes."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: List[Dict[str, float]] = []
        self.rss: Dict[str, float] = {}
        self.perf_flat: List[Dict[str, float]] = []
        self.perf_counters: List[Dict[str, float]] = []
        self._stack: List[int] = []
        self.op = -1

    def begin_op(self) -> int:
        self.op += 1
        self.counts.append({})
        return self.op

    @contextmanager
    def span(self, name: str, layer: str, rss: Optional[str] = None):
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            if rss is not None:
                self.rss[rss] = maxrss_mib()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: int = -1, op: Optional[int] = None) -> int:
        """Record a finished span (for code that cannot nest ``with``,
        such as concurrent coroutines; ``op`` defaults to the current)."""
        self.spans.append(
            [name, layer, start, end, parent, self.op if op is None else op]
        )
        return len(self.spans) - 1

    def count(self, name: str, value: float) -> None:
        self.counts[-1][name] = self.counts[-1].get(name, 0) + value

    @contextmanager
    def perf_recorder(self):
        """Scope a fresh :mod:`repro.perf` recorder over one traced op
        and keep its flat stage tree and counters."""
        from repro import perf

        recorder = perf.PerfRecorder()
        with perf.use_recorder(recorder):
            yield recorder
        self.perf_flat.append(recorder.flat())
        self.perf_counters.append(recorder.counters())

    # -- reduction ------------------------------------------------------

    def op_spans(self) -> Dict[int, List[int]]:
        by_op: Dict[int, List[int]] = {}
        for index, record in enumerate(self.spans):
            by_op.setdefault(record[5], []).append(index)
        return by_op

    def layer_metrics(self) -> Dict[str, float]:
        """Span medians, counts, perf stages, self times, remainder."""
        out: Dict[str, float] = {}
        by_op = self.op_spans()
        ops = [op for op in by_op if op >= 0]
        per_name: Dict[str, List[float]] = {}
        self_sums: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        remainder = 0.0
        op_total = 0.0
        n_ops = 0
        for op in ops:
            indices = by_op[op]
            child_time: Dict[int, float] = {}
            for index in indices:
                record = self.spans[index]
                if record[4] >= 0:
                    child_time[record[4]] = (
                        child_time.get(record[4], 0.0) + record[3] - record[2]
                    )
            totals: Dict[str, float] = {}
            for index in indices:
                name, layer, start, end, parent, _op = self.spans[index]
                own = end - start - child_time.get(index, 0.0)
                if layer == "op":
                    n_ops += 1
                    op_total += end - start
                    remainder += own
                    continue
                self_sums[layer] += own
                totals[name] = totals.get(name, 0.0) + end - start
            for name, value in totals.items():
                per_name.setdefault(name, []).append(value)
        for name in SPANS:
            out[name] = median(per_name.get(name, []))
        keys = sorted({k for counts in self.counts for k in counts})
        for key in keys:
            out[key] = median(
                [counts[key] for counts in self.counts if key in counts]
            )
        for suffix, metric in PERF_STAGES.items():
            values = [
                sum(v for k, v in flat.items()
                    if k == suffix or k.endswith("/" + suffix))
                for flat in self.perf_flat
            ]
            out[metric] = median(values)
        for call in RSS_CALLS:
            out[f"mem.rss_after.{call}_mib"] = self.rss.get(call, 0.0)
        # means, not medians: the layer self times plus the remainder
        # then add up to trace.op_s exactly
        n = max(1, n_ops)
        for layer in LAYERS:
            out[f"self.{layer}_s"] = self_sums[layer] / n
        out["trace.remainder_s"] = remainder / n
        out["trace.op_s"] = op_total / n
        out["trace.ops"] = n_ops
        return out

    def dump(self) -> Dict[str, object]:
        return {
            "spans": [
                {"name": n, "layer": l, "start": s, "end": e, "parent": p,
                 "op": o}
                for n, l, s, e, p, o in self.spans
            ],
            "counts": self.counts,
            "rss_after_mib": self.rss,
            "perf_flat": self.perf_flat,
            "perf_counters": self.perf_counters,
        }


class NullTracer:
    """What untraced ops get: every hook is free."""

    _null = nullcontext()

    def span(self, name: str, layer: str, rss: Optional[str] = None):
        return self._null

    def add(self, *args, **kwargs) -> int:
        return -1

    def count(self, name: str, value: float) -> None:
        pass

    def perf_recorder(self):
        return self._null


NULL = NullTracer()


# ---------------------------------------------------------------------------
# the op loop
# ---------------------------------------------------------------------------


#: a measured time and the index of the reference sample taken before it
Timed = Tuple[float, int]


class CheckFailed(Exception):
    """An op produced a wrong output."""


class InputExhausted(Exception):
    """The workload's input ran out: the timed loop ends early."""


class Outcome:
    """Attempted/failed tally plus the reasons ops failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


def timed_loop(
    op: Callable[[object], None],
    seconds: float,
    outcome: Outcome,
    reference: Reference,
    tracer: Optional[Tracer] = None,
    after_warmup: Optional[Callable[[], None]] = None,
) -> Tuple[List[Timed], List[Timed]]:
    """Run ``op`` back to back for ``seconds`` (at least three times).

    One untimed warm-up op runs first.  ``gc.collect()`` and a
    ``reference`` sample run between ops, outside the timed region.
    With a tracer, ops alternate between traced and untraced, so the
    run yields both the per-layer spans and the untraced latencies the
    tracing overhead is taken against.  Returns (untraced, traced) ops
    as (seconds, reference sample); an op that raises counts as failed
    and contributes no sample, and one that raises
    :class:`InputExhausted` ends the loop.
    """
    _attempt(op, NULL, outcome, warmup=True)
    if after_warmup is not None:
        after_warmup()
    untraced: List[Timed] = []
    traced: List[Timed] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index < 3:
        sample = reference.sample()
        use_trace = tracer is not None and index % 2 == 1
        if use_trace:
            tracer.begin_op()
            start = time.perf_counter()
            with tracer.span("op", "op"):
                ok = _attempt(op, tracer, outcome)
            elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            ok = _attempt(op, NULL, outcome)
            elapsed = time.perf_counter() - start
        if ok is None:
            break
        if ok:
            (traced if use_trace else untraced).append((elapsed, sample))
        index += 1
    return untraced, traced


def _attempt(op, tracer, outcome: Outcome,
             warmup: bool = False) -> Optional[bool]:
    """Run one op; True if it succeeded, None if the input ran out."""
    try:
        op(tracer)
    except InputExhausted:
        return None
    except Exception as exc:  # a failing op is counted, not fatal
        outcome.check(False, f"{'warm-up ' if warmup else ''}op raised "
                             f"{type(exc).__name__}: {exc}")
        return False
    if not warmup:
        outcome.attempted += 1
    return True


def write_json(path: str, payload: object) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
