"""Regenerate ``pinned.json``: the snapshot content version each seed's
simulate-internet and rib-build op must produce.

The pins are the bit-identity contract the batch workloads check every
op against, so rerun this only when a change is meant to alter the
pipeline's output, and say so in that change.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --seeds 0-49 [--scale full]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import HERE, SCALES, SRC, WORK

PINS = os.path.join(HERE, "pinned.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-99")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path.insert(0, SRC)
    from batch import simulate_once, simulate_world
    from inputs import build_rib

    with open(PINS) as handle:
        pins = json.load(handle)
    scale = pins.setdefault(args.scale, {})
    sizes = SCALES[args.scale]
    workdir = os.path.join(WORK, "pin")
    for seed in seeds:
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        graph, origins = simulate_world(seed, sizes["simulate"])
        simulated = simulate_once(graph, origins, sizes["simulate"]["vps"],
                                  seed, os.path.join(workdir, "sim.snp"))
        del graph
        rib = build_rib(workdir, seed, sizes["rib"])
        if rib["snapshot_version"] != rib["oracle_version"]:
            raise SystemExit(f"seed {seed}: ASRank.from_mrt and the stream "
                             f"oracle disagree")
        scale.setdefault("simulate-internet", {})[str(seed)] = simulated
        scale.setdefault("rib-build", {})[str(seed)] = rib["snapshot_version"]
        print(f"seed {seed}: simulate-internet {simulated}, "
              f"rib-build {rib['snapshot_version']}", flush=True)
        _save(pins)  # after every seed, so an interrupted run keeps its pins
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _save(pins) -> None:
    for scale in pins.values():
        for workload in scale.values():
            ordered = sorted(workload.items(), key=lambda kv: int(kv[0]))
            workload.clear()
            workload.update(ordered)
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
