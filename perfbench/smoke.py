"""The benchmark's own smoke test, at tiny input sizes.

Checks that every workload finishes in seconds and prints every metric
``BENCHMARK.json`` names, with its unit, in both the untraced and the
traced run; that every name is well formed; that the traced op's layer
self times plus the untraced remainder add up to its wall time; that
the same seed yields the same input digests and content versions; and
that the benchmark refuses to run without the program's sources.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

from common import ROOT, SCALES, WORK, sha256_file

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WALL_LIMIT_S = 90.0
SEED = 3


def run(workload: str, trace: int, cwd: str = ROOT):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc, time.perf_counter() - start


def record(workload: str, trace: int) -> dict:
    path = os.path.join(WORK, "out",
                        f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path) as handle:
        return json.load(handle)


def check_runs(spec: dict, problems: list) -> None:
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not NAME.match(metric["name"]):
                problems.append(f"bad metric name {metric['name']!r}")
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc, wall = run(name, trace)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr[-800:]}")
                continue
            if wall > WALL_LIMIT_S:
                problems.append(f"{where}: took {wall:.0f}s")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] \
                    or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} ops failed")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                zero = [k for k, v in values.items() if not v > 0]
                if zero:
                    problems.append(f"{where}: non-positive {zero}")
            elif name in ("simulate-internet", "rib-build"):
                parts = sum(v for k, v in values.items()
                            if k.startswith("self.")) \
                    + values["trace.remainder_s"]
                if abs(parts - values["trace.op_s"]) > \
                        1e-9 + 1e-6 * values["trace.op_s"]:
                    problems.append(f"{where}: self times + remainder "
                                    f"{parts} != op {values['trace.op_s']}")


def check_determinism(problems: list) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs

    for kind, builder in (("rib", inputs.build_rib),
                          ("stream", inputs.build_stream)):
        seen = []
        for copy in ("a", "b"):
            target = os.path.join(WORK, "smoke", f"{kind}-{copy}")
            shutil.rmtree(target, ignore_errors=True)
            os.makedirs(target)
            info = builder(target, SEED, SCALES["tiny"][kind])
            info["sha256"] = {
                name: sha256_file(os.path.join(target, name))
                for name in sorted(os.listdir(target))
            }
            seen.append(info)
            shutil.rmtree(target)
        if seen[0] != seen[1]:
            problems.append(f"{kind} inputs differ between two generations "
                            f"from seed {SEED}")
    # the batch workloads were run twice above (untraced and traced)
    for workload in ("simulate-internet", "rib-build"):
        first, second = record(workload, 0), record(workload, 1)
        for key in ("inputs_sha256", "content_versions"):
            if first[key] != second[key]:
                problems.append(f"{workload}: {key} differ between runs "
                                f"of seed {SEED}")


def check_refuses_without_program(spec: dict, problems: list) -> None:
    bare = os.path.join(WORK, "smoke", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(bare, spec["command"][1]),
         "--workload", spec["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("benchmark ran without the program's sources")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems: list = []
    check_runs(spec, problems)
    check_determinism(problems)
    check_refuses_without_program(spec, problems)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
