"""Seeded, property-based differential QA for the whole pipeline.

The paper's core claim is *validation*, so the reproduction carries its
own correctness harness: :func:`run_qa` sweeps randomized worlds
(sizes, clique shapes, multihoming density, noise on/off, adversarial
shapes like prepend-heavy and single-VP corpora) and asserts six
invariant families over each one:

1. **differential** — the production engine and the pure-Python
   reference oracles of :mod:`repro.qa.oracles` produce bit-identical
   links, steps, providers and cones;
2. **hierarchy** — the inferred p2c graph is acyclic and clique members
   are mutually transit-free;
3. **cones** — every cone definition matches its reference oracle,
   contains self, nests inside the recursive closure and is monotone
   along p2c edges;
4. **round-trip** — ``save_*``/``load_*`` and the MRT RIB/update codecs
   (withdrawals included) reproduce their inputs exactly;
5. **collection** — serial and parallel collector runs agree for every
   worker count;
6. **propagation** — the batched multi-origin propagation engine and
   the per-origin reference sweeps of :mod:`repro.qa.oracles` emit
   bit-identical corpora (default and odd batch sizes, v4 and the
   restricted v6 plane).

On failure the harness shrinks the corpus to a minimal repro, writes it
under ``benchmarks/repros/`` and prints a one-line replay command.
"""

from repro.qa.generator import QaWorld, WorldSpec, build_world, world_spec
from repro.qa.invariants import (
    Violation,
    check_collection,
    check_cones,
    check_differential,
    check_hierarchy,
    check_propagation,
    check_round_trips,
)
from repro.qa.runner import QaConfig, QaReport, replay_paths, run_qa
from repro.qa.shrink import shrink_paths

__all__ = [
    "QaConfig",
    "QaReport",
    "QaWorld",
    "Violation",
    "WorldSpec",
    "build_world",
    "check_collection",
    "check_cones",
    "check_differential",
    "check_hierarchy",
    "check_propagation",
    "check_round_trips",
    "replay_paths",
    "run_qa",
    "shrink_paths",
    "world_spec",
]
