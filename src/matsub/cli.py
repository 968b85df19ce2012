"""Command line front end: generate instances, run solvers, verify results.

Three subcommands:

- ``gen``     write a deterministic instance file for a (matroid, objective,
              n, seed) tuple, with optional shape knobs per matroid family
- ``run``     solve an instance with the two-phase pipeline or a baseline and
              write a result record with solution, value, and all counters
- ``verify``  recheck a result record against its instance: feasibility,
              value, and the instrumented query budgets

All files are UTF-8 JSON with an explicit ``version`` field.  ``gen`` and
``run`` are byte-deterministic for a fixed seed and flags, except for the
wall-time field of result records.  Exit codes: 0 success, 1
verification failure or corrupt data, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Sequence

from .core import greedy_basis_value
from .instances import (
    MATROIDS,
    OBJECTIVES,
    STREAM_MULTILINEAR,
    STREAM_PHASE1,
    STREAM_ROUNDING,
    Instance,
    generate_instance,
)
from .objectives import ValueOracle
from .optimizer import run_pipeline
from .oracles import BRUTE_FORCE_LIMIT, brute_force_opt

RESULT_FORMAT_VERSION = 1

# the stages whose query counts, plus one, make up ``total_f_queries``
QUERY_STAGES = ("estimate_f_queries", "phase1_f_queries", "phase2_f_queries")


def _retired_cap(n: int, _rank: int, eps: float) -> int:
    # a matching delete, like a span, retires its element for the rest of
    # its round, and phase 2 runs ceil(1/eps) rounds
    return n * max(1, math.ceil(1.0 / eps))


# the budgets ``verify`` audits on a ``full`` record, in report order: a
# label, the counters summed, and the cap from n, the rank and eps; a cap of
# None, phase 1's at rank 0, skips the line
BUDGETS = (
    ("phase-1 query budget", ("phase1_f_queries",),
     lambda n, r, eps: 8 * n / eps * math.log(max(r, 2) / eps) if r > 0 else None),
    ("phase-2 query budget", ("phase2_f_queries",),
     lambda n, r, eps: 8 * n * eps**-5 * math.log(n / eps) ** 2),
    ("incremental oracle budget", ("dt_test_calls", "dt_insert_calls"),
     lambda n, r, eps: 8 * n / eps),
    ("batch-insert budget", ("dt_batch_inserts",),
     lambda n, r, eps: 8 / eps * max(1.0, math.log(max(r, 1)))),
    ("delete budget", ("dt_deletes",), _retired_cap),
    ("span budget", ("dt_spanned",), _retired_cap),
)
# the counters the budget checks of a ``full`` record read
BUDGET_COUNTERS = tuple(dict.fromkeys(
    (*QUERY_STAGES, "total_f_queries", *(key for _label, keys, _cap in BUDGETS for key in keys))
))


# ---------------------------------------------------------------------------
# helpers


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _dump_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_instance(path: str) -> tuple[Instance, ValueOracle]:
    """Parse an instance file and build its objective, which checks the
    objective payload and converts it into the arrays every later oracle of
    the instance shares; malformed content of any shape raises
    ValueError."""
    try:
        instance = Instance.from_json(_read_text(path))
        return instance, instance.build_objective()
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"corrupt instance file: {exc}") from exc


def _record_problem(record: object) -> str | None:
    """What is wrong with the JSON types of a result record's fields, or
    with what a ``full`` record must carry for its budget checks; a missing
    solution or value is left to the verify report.  Exact type tests keep
    ``true`` and ``false``, which JSON decodes to bools, out of the numbers."""
    if not isinstance(record, dict):
        return "not a JSON object"
    # a missing version, or an integer other than the format's, is left to
    # the verify report
    if type(record.get("version", 0)) is not int:
        return "version must be an integer"
    solution = record.get("solution", [])
    if type(solution) is not list or any(type(e) is not int for e in solution):
        return "solution must be a list of integer element ids"
    # a set has no repeats, and a value over a repeat counts it twice
    if len(set(solution)) != len(solution):
        return "solution repeats an element id"
    if type(record.get("value", 0)) not in (int, float):
        return "value must be a number"
    eps = record.get("epsilon")
    if eps is not None and (type(eps) not in (int, float) or not 0.0 < eps < 1.0 / 3.0):
        return "epsilon must be a number in (0, 1/3)"
    counters = record.get("counters", {})
    if type(counters) is not dict or any(
        type(v) not in (int, float) for v in counters.values()
    ):
        return "counters must map names to numbers"
    # a count is never negative; ``not v >= 0`` also catches NaN
    if any(not v >= 0 for v in counters.values()):
        return "counters must be nonnegative"
    if record.get("algorithm") == "full":
        if eps is None:
            return "a full record must carry epsilon"
        missing = [key for key in BUDGET_COUNTERS if key not in counters]
        if missing:
            return f"a full record must carry the counters {', '.join(missing)}"
    return None


def _load_record(path: str) -> dict:
    """Parse a result record; malformed content raises ValueError."""
    try:
        record = json.loads(_read_text(path))
    except ValueError as exc:
        raise ValueError(f"corrupt result record: {exc}") from exc
    problem = _record_problem(record)
    if problem:
        raise ValueError(f"corrupt result record: {problem}")
    return record


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        instance = generate_instance(
            args.matroid,
            args.function,
            args.n,
            args.seed,
            tree_depth=args.tree_depth,
            density=args.density,
            degree=args.degree,
        )
    except ValueError as exc:
        return _fail(str(exc))
    _write_text(args.output, instance.to_json())
    return 0


# ---------------------------------------------------------------------------
# run


def _run_full(instance: Instance, args: argparse.Namespace) -> dict:
    result = run_pipeline(instance, args.epsilon, args.seed)
    return {
        "seed": args.seed,
        # the pipeline's stages draw from these substreams of the run seed
        "streams": {
            "phase1": [args.seed, STREAM_PHASE1],
            "multilinear": [args.seed, STREAM_MULTILINEAR],
            "rounding": [args.seed, STREAM_ROUNDING],
        },
        "algorithm": "full",
        "epsilon": result.epsilon,
        "solution": result.solution,
        "value": result.value,
        "frozen": result.frozen,
        "opt_estimate": result.opt_estimate,
        "counters": dict(result.counters),
        "wall_time_s": result.wall_time,
    }


def _run_baseline(instance: Instance, f: ValueOracle, algorithm: str) -> dict:
    start = time.perf_counter()
    if algorithm == "greedy":
        value, chosen = greedy_basis_value(f, range(instance.n), instance.matroid.checker)
    else:
        value, chosen = brute_force_opt(f, instance.matroid)
    return {
        "algorithm": algorithm,
        "solution": sorted(chosen),
        "value": value,
        "counters": {"total_f_queries": f.query_count},
        "wall_time_s": time.perf_counter() - start,
    }


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        instance, f = _load_instance(args.instance)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        return _fail(str(exc))
    if args.algorithm == "brute" and instance.n > BRUTE_FORCE_LIMIT:
        print(
            f"error: brute force is capped at n <= {BRUTE_FORCE_LIMIT}",
            file=sys.stderr,
        )
        return 2
    if args.algorithm == "full" and not 0.0 < args.epsilon < 1.0 / 3.0:
        print("error: --epsilon must lie in (0, 1/3)", file=sys.stderr)
        return 2
    if args.algorithm == "full":
        # the pipeline builds its own oracle over the same arrays; this one
        # only checked the payload
        del f
        body = _run_full(instance, args)
    else:
        body = _run_baseline(instance, f, args.algorithm)
    record = {"version": RESULT_FORMAT_VERSION, **body}
    _write_text(args.output, _dump_record(record))
    return 0


# ---------------------------------------------------------------------------
# verify


def _check(report: list[str], label: str, ok: bool, detail: str = "") -> bool:
    status = "ok" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    report.append(f"{label}: {status}{suffix}")
    return ok


def _verify_budgets(
    report: list[str], instance: Instance, record: dict
) -> bool:
    if record.get("algorithm") != "full":
        return True
    # ``_record_problem`` refuses a full record that lacks one of these
    counters, eps = record["counters"], record["epsilon"]
    n, r = instance.n, instance.matroid.rank()
    good = True
    for label, keys, cap_of in BUDGETS:
        cap = cap_of(n, r, eps)
        if cap is not None:
            got = sum(counters[key] for key in keys)
            good &= _check(report, label, got <= cap, f"{got} <= {cap:.0f}")
    # the stages' counts add up to the total, plus the final value query
    parts = sum(counters[key] for key in QUERY_STAGES)
    total = counters["total_f_queries"]
    good &= _check(
        report, "query total", total == parts + 1, f"{total} == {parts} + 1"
    )
    return good


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        instance, f = _load_instance(args.instance)
        record = _load_record(args.result)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        return _fail(str(exc))
    report: list[str] = []
    good = _check(
        report,
        "format version",
        record.get("version") == RESULT_FORMAT_VERSION,
        str(record.get("version")),
    )
    solution = record.get("solution")
    value = record.get("value")
    if solution is None or value is None:
        good = _check(report, "record fields", False, "solution/value missing")
    else:
        in_range = all(0 <= e < instance.n for e in solution)
        good &= _check(report, "element range", in_range)
        feasible = in_range and instance.matroid.is_independent(solution)
        good &= _check(report, "feasibility", feasible)
        if in_range:
            recomputed = f.value(solution)
            match = math.isclose(recomputed, value, rel_tol=1e-9, abs_tol=1e-9)
            good &= _check(
                report, "value", match, f"recomputed {recomputed!r} vs {value!r}"
            )
        good &= _verify_budgets(report, instance, record)
    verdict = "pass" if good else "fail"
    report.append(f"verify: {verdict}")
    print("\n".join(report))
    return 0 if good else 1


# ---------------------------------------------------------------------------
# argument parsing


def _seed(text: str) -> int:
    """A ``--seed`` value; a negative one names no numpy stream."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matsub",
        description="Submodular maximization under matroid constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--matroid", required=True, choices=list(MATROIDS))
    gen.add_argument("--function", required=True, choices=list(OBJECTIVES))
    gen.add_argument("--n", type=int, required=True, help="ground set size")
    gen.add_argument("--seed", type=_seed, required=True)
    gen.add_argument("--tree-depth", type=int, default=None,
                     help="laminar: maximum tree depth")
    gen.add_argument("--density", type=float, default=None,
                     help="graphic: target edges per vertex")
    gen.add_argument("--degree", type=int, default=None,
                     help="transversal: maximum left degree")
    gen.add_argument("-o", "--output", default="-", help="output path or -")
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="solve an instance")
    run.add_argument("instance", help="instance file")
    run.add_argument("--algorithm", default="full",
                     choices=["full", "greedy", "brute"])
    run.add_argument("--epsilon", type=float, default=0.2)
    run.add_argument("--seed", type=_seed, default=0)
    run.add_argument("-o", "--output", default="-", help="output path or -")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="recheck a result record")
    verify.add_argument("instance", help="instance file")
    verify.add_argument("result", help="result record file")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
