"""The repository's benchmark: one command, four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rib-build --seed 1 --seconds 18 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``simulate-internet`` — collection over a seeded power-law world,
  then sanitize, inference, three cones, snapshot build and save;
* ``rib-build`` — an MRT RIB dump in, the snapshot file out;
* ``serve-mixed`` — closed-loop HTTP requests against ``repro serve``;
* ``stream-publish`` — UPDATE batch in, new version on ``/snapshot``.

``--trace 0`` measures the end-to-end metrics with tracing off.  Each
of their times is rescaled to a reference machine speed by a fixed
loop the run samples before every op (``common.Reference``); the raw
times are in the record.  ``op_tail_ms`` is p99 on serve-mixed and p75
on the other workloads.
``--trace 1`` is the separate traced run: ops alternate between traced
and untraced, spans are recorded around every public call the op
makes, and the per-layer metrics (span medians, counts, the program's
own ``repro.perf`` stage tree, self time per layer, the untraced
remainder and the tracing overhead) are reported instead.

Human-readable lines (fingerprint, input digests, every metric with
its unit, the error rate) go to stderr; the last line of stdout is the
JSON result.  The full record, spans included, is written to
``.perfbench/out/``.  The input sizes are ``--scale full`` (default)
or ``--scale tiny`` (the smoke test's).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from common import (
    END_TO_END,
    SCALES,
    SRC,
    WORK,
    Outcome,
    Reference,
    Tracer,
    fingerprint,
    log,
    median,
    per_layer_metrics,
    percentile,
    write_json,
)

WORKLOADS = ("simulate-internet", "rib-build", "serve-mixed",
             "stream-publish")


#: op_tail_ms's quantile, fixed per workload so that a faster program
#: is not judged at a higher one: p99 where a run makes tens of
#: thousands of ops, p75 where it makes 15-30
TAIL_QUANTILE = {"serve-mixed": 0.99}
DEFAULT_TAIL_QUANTILE = 0.75


def _workload(name: str):
    if name == "simulate-internet":
        from batch import simulate_internet
        return simulate_internet
    if name == "rib-build":
        from batch import rib_build
        return rib_build
    if name == "serve-mixed":
        from serving import serve_mixed
        return serve_mixed
    from streaming import stream_publish
    return stream_publish


def end_to_end(result, tail: float, factor=lambda sample: 1.0) -> dict:
    """The end-to-end metrics, each time multiplied by the ``factor``
    of the reference sample taken before it."""
    op_ms = [s * 1000.0 * factor(i) for s, i in result["ops"]]
    busy_s = sum(s * factor(i) for s, i in result["busy"])
    return {
        "setup_s": median([s * factor(i) for s, i in result["setup"]]),
        "op_p50_ms": percentile(op_ms, 0.50),
        "op_tail_ms": percentile(op_ms, tail),
        "ops_per_s": result["work"] / busy_s if busy_s else 0.0,
        "peak_rss_mib": result["peak_rss_mib"],
    }


def per_layer(result, tracer: Tracer, reference: Reference) -> dict:
    values = {name: 0.0 for name, _unit in per_layer_metrics()}
    values.update(tracer.layer_metrics())
    values.update(result["layer"])
    values["stream.visible_lag_ms"] = values["serve.visible_s"] * 1000.0
    untraced = median([s for s, _ in result["ops"]])
    values["trace.untraced_op_s"] = untraced
    values["trace.overhead_ms"] = (
        median(result["traced_op_s"]) - untraced
    ) * 1000.0
    values["bench.reference_ms"] = statistics.mean(reference.samples) * 1000.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        log(f"error: no program to measure under {SRC}")
        return 2
    sys.path.insert(0, SRC)
    machine = fingerprint()
    started = time.time()

    run = _workload(args.workload)
    outcome = Outcome()
    reference = Reference()
    tracer = Tracer() if args.trace else None
    result = run(args.seed, args.seconds, args.scale, outcome, reference,
                 tracer)

    tail = TAIL_QUANTILE.get(args.workload, DEFAULT_TAIL_QUANTILE)
    raw = end_to_end(result, tail)
    if args.trace:
        units = dict(per_layer_metrics())
        values = per_layer(result, tracer, reference)
    else:
        units = dict(END_TO_END)
        values = end_to_end(result, tail, reference.factor)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    error_rate = outcome.failed / max(1, outcome.attempted)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "started_unix": started,
        "fingerprint": machine,
        "inputs_sha256": result["inputs"],
        "content_versions": result["versions"],
        "expected_version": result["expected_version"],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": error_rate,
        "problems": outcome.problems,
        "raw_end_to_end": raw,
        # raw times as [seconds, index of the reference sample before]
        "samples": {
            "reference_s": reference.samples,
            "setup_s": result["setup"],
            "ops": len(result["ops"]),
            "traced_ops": len(result["traced_op_s"]),
            # the op latencies, unless there are too many to keep
            "op_s": result["ops"] if len(result["ops"]) <= 1000 else None,
        },
        "metrics": metrics,
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    write_json(
        os.path.join(WORK, "out",
                     f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     ".json"),
        record,
    )

    log(f"machine: {json.dumps(machine, sort_keys=True)}")
    log(f"inputs: {json.dumps(result['inputs'], sort_keys=True)}")
    log(f"content versions: {result['versions']} "
        f"(expected {result['expected_version']})")
    log(f"op_tail_ms is p{100 * tail:.3g}; reference loop mean "
        f"{statistics.mean(reference.samples) * 1000:.3f} ms over "
        f"{len(reference.samples)} samples "
        f"(raw: {json.dumps(raw, sort_keys=True)})")
    log(f"samples: {len(result['ops'])} untraced ops, "
        f"{len(result['traced_op_s'])} traced ops, "
        f"{len(result['setup'])} set-ups")
    for name, metric in metrics.items():
        log(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    log(f"  {'error_rate':<40} {error_rate:>14.6g} ratio "
        f"({outcome.failed} failed / {outcome.attempted} attempted)")
    for problem in outcome.problems:
        log(f"  problem: {problem}")

    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
