"""Pinned run records: the instances, how a record is made, and the writer
of ``golden_records.json`` beside this file.

Each entry is what ``matsub run`` writes for one instance and run seed at
``epsilon = 0.2``, less ``wall_time_s``: the solution, its value, the
frozen set, the optimum estimate and every counter.  The instances are the
CI matrix (three kinds by three objectives at ``n = 30``), the four
benchmark workloads, the laminar and transversal phase-1 instances CI
runs, and the ``n = 1000`` laminar and graphic runs CI compares across
processes, all at run seeds 1000 and 1001.
``tests/test_golden_records.py`` recomputes every entry and asks for the
same record exactly.

A change that moves records on purpose regenerates the file:

    PYTHONPATH=src python tests/golden_records.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable

import families
from matsub.instances import Instance, generate_instance
from matsub.optimizer import run_pipeline

PATH = Path(__file__).with_name("golden_records.json")
EPSILON = 0.2
RUN_SEEDS = (1000, 1001)
GEN_SEED = 1


def _generated(kind: str, objective: str, n: int) -> Callable[[], Instance]:
    return lambda: generate_instance(kind, objective, n, GEN_SEED)


INSTANCES: dict[str, Callable[[], Instance]] = {
    **{f"{kind}-{objective}-30": _generated(kind, objective, 30)
       for objective in ("coverage", "facility", "additive")
       for kind in ("laminar", "graphic", "transversal")},
    # the benchmark workloads
    "laminar-facility-120": _generated("laminar", "facility", 120),
    "graphic-coverage-300": _generated("graphic", "coverage", 300),
    "transversal-coverage-200": _generated("transversal", "coverage", 200),
    "graphic-additive-1000": _generated("graphic", "additive", 1000),
    # phase 1 fires on both
    "phase1-laminar-1500": families.PHASE1["laminar"],
    "phase1-transversal-1500": families.PHASE1["transversal"],
    "graphic-coverage-1000": _generated("graphic", "coverage", 1000),
    "laminar-coverage-1000": _generated("laminar", "coverage", 1000),
    "laminar-additive-1000": _generated("laminar", "additive", 1000),
}


def record(instance: Instance, seed: int) -> dict:
    """The ``matsub run`` record of one solve, without its wall time, as it
    reads back from JSON."""
    result = run_pipeline(instance, EPSILON, seed)
    return json.loads(json.dumps({
        "epsilon": result.epsilon,
        "solution": result.solution,
        "value": result.value,
        "frozen": result.frozen,
        "opt_estimate": result.opt_estimate,
        "counters": dict(result.counters),
    }))


def records_of(name: str) -> dict[str, dict]:
    """Every run seed's record of one named instance, keyed by seed."""
    instance = INSTANCES[name]()
    return {str(seed): record(instance, seed) for seed in RUN_SEEDS}


def main() -> int:
    golden = {name: records_of(name) for name in INSTANCES}
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} instances x {len(RUN_SEEDS)} seeds to {PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
