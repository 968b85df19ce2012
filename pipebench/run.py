"""End-to-end benchmark of ``matsub.optimizer.run_pipeline``.

One run solves one workload repeatedly for ``--seconds`` seconds in this
process and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` wraps every layer (see ``spans.py``)
and gives the per-layer metrics.  See ``README.md`` beside this file.

    python3 pipebench/run.py --workload facility-laminar --seed 1 --seconds 15 --trace 0
    python3 pipebench/run.py --all                 # every workload, both modes
    python3 pipebench/run.py --compare OLD.json NEW.json

Every solve is verified outside all timers with ``matsub verify`` and an
independence check, and every repeated seed must reproduce its first result
exactly, traced or not.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".pipebench_out"

# workload name -> (matroid kind, objective kind, n); why each was chosen is
# in README.md
WORKLOADS = {
    "facility-laminar": ("laminar", "facility", 120),
    "coverage-graphic": ("graphic", "coverage", 300),
    "transversal-coverage": ("transversal", "coverage", 200),
    "additive-graphic": ("graphic", "additive", 1000),
}
EPSILON = 0.2
# distinct run seeds per run; the solves cycle through them, so every solve
# after the first SEED_CYCLE repeats an earlier seed and must match it
SEED_CYCLE = 2
SETUP_REPEATS = 7
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# calibration passes between solves: at least CAL_MIN_S seconds, or
# CAL_SHARE of the previous solve's wall time if that is longer
CAL_MIN_S = 0.1
CAL_SHARE = 0.2
# untraced solves of the first run seed before a traced run's traced
# solves: a warm-up that is discarded, then the untraced reference
TRACE_PREFACE = 2
# a layer self time below this many seconds means time was counted twice
SELF_TIME_FLOOR = -1e-9

END_TO_END = {
    "setup_s": "s",
    "solve_rel_p50": "x",
    "solve_cpu_rel_p50": "x",
    "f_queries_per_solve": "count",
    "value_ratio_p50": "ratio",
    "value_ratio_min": "ratio",
    "peak_rss_mb": "MB",
    "verified_share": "ratio",
}

# set-up as a user pays it: import the package, generate, build the objective
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import matsub.optimizer
from matsub.instances import generate_instance
generate_instance(sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])).build_objective()
print(time.perf_counter() - t0)
"""


def run_seeds(seed: int) -> list[int]:
    return [1000 * seed + i for i in range(SEED_CYCLE)]


def measure_setup(workload: str, instance_seed: int) -> float:
    """Set-up seconds in a fresh interpreter."""
    kind, objective, n = WORKLOADS[workload]
    env = {**os.environ, "PYTHONPATH": str(SRC), **{var: BLAS_THREADS for var in BLAS_VARS}}
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, kind, objective, str(n), str(instance_seed)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Workload:
    """One generated instance, its reference value and the solve checks."""

    def __init__(self, name: str, instance_seed: int, stem: str) -> None:
        from matsub.core import greedy_basis_value
        from matsub.instances import generate_instance

        kind, objective, n = WORKLOADS[name]
        self.instance = generate_instance(kind, objective, n, instance_seed)
        # the quality yardstick, computed once and outside every timer
        self.reference, _ = greedy_basis_value(
            self.instance.build_objective(), range(n), self.instance.matroid.checker
        )
        self.instance_path = OUT / f"{stem}-instance.json"
        self.result_path = OUT / f"{stem}-result.json"
        self.instance_path.write_text(self.instance.to_json(), encoding="utf-8")
        self.first: dict[int, str] = {}

    def solve(self, seed: int, tracer=None, solve_id: int = -1) -> dict:
        """Time one ``run_pipeline`` call, then check it outside the timers."""
        from matsub import optimizer

        traced = tracer.solve(solve_id) if tracer else contextlib.nullcontext()
        result = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with traced:
                result = optimizer.run_pipeline(self.instance, EPSILON, seed)
        except Exception:  # a failed solve is counted, never dropped
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        rec = {"seed": seed, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
               "verified": False, "repeat_ok": True, "f_queries": 0, "value_ratio": 0.0,
               "digest": None, "counters": {}}
        if result is not None:
            rec.update(
                verified=self.verify(result),
                f_queries=int(result.counters["total_f_queries"]),
                value_ratio=result.value / self.reference,
                counters=dict(result.counters),
                digest=hashlib.sha256(json.dumps(
                    [result.solution, result.value, result.counters], sort_keys=True
                ).encode()).hexdigest(),
            )
            first = self.first.setdefault(seed, rec["digest"])
            rec["repeat_ok"] = first == rec["digest"]
        rec["ok"] = rec["verified"] and rec["repeat_ok"]
        return rec

    def verify(self, result) -> bool:
        from matsub import cli

        record = {
            "version": cli.RESULT_FORMAT_VERSION,
            "algorithm": "full",
            "epsilon": result.epsilon,
            "solution": result.solution,
            "value": result.value,
            "counters": dict(result.counters),
        }
        self.result_path.write_text(json.dumps(record), encoding="utf-8")
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = cli.main(["verify", str(self.instance_path), str(self.result_path)])
        if code != 0:
            print(report.getvalue(), file=sys.stderr)
        return code == 0 and self.instance.matroid.is_independent(result.solution)


def environment(args, seeds: list[int]) -> dict:
    import numpy
    import scipy
    from matsub import kernels

    return {
        "backend": kernels.active_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "eval_threads": 1,
        "workload": args.workload,
        "epsilon": EPSILON,
        "seconds": args.seconds,
        "seed": args.seed,
        "instance_seed": args.instance_seed,
        "run_seeds": seeds,
    }


def calibration_batch(calibrate, last_wall: float) -> tuple[float, float]:
    """Median wall and CPU seconds of one calibration pass, over passes run
    back to back."""
    until = time.perf_counter() + max(CAL_MIN_S, CAL_SHARE * last_wall)
    passes = [calibrate()]
    while time.perf_counter() < until:
        passes.append(calibrate())
    return (statistics.median(wall for wall, _ in passes),
            statistics.median(cpu for _, cpu in passes))


def end_to_end(solves: list[dict], seeds: list[int], setup_s: float) -> dict[str, float]:
    # counts and quality come from the first solve of each seed, so they
    # repeat exactly for a given --seed; times use every solve, each in
    # multiples of the calibration passes timed just before and after it,
    # wall time over wall time and CPU time over CPU time
    firsts = [next(r for r in solves if r["seed"] == s) for s in seeds]
    ratios = [r["value_ratio"] for r in firsts]
    return {
        "setup_s": setup_s,
        "solve_rel_p50": statistics.median(r["wall_s"] / r["cal_s"] for r in solves),
        "solve_cpu_rel_p50": statistics.median(r["cpu_s"] / r["cal_cpu_s"] for r in solves),
        "f_queries_per_solve": statistics.median(r["f_queries"] for r in firsts),
        "value_ratio_p50": statistics.median(ratios),
        "value_ratio_min": min(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verified_share": sum(r["ok"] for r in solves) / len(solves),
    }


def run_one(args) -> int:
    from matsub.objectives import set_eval_threads

    import spans
    from calibrate import Calibration

    set_eval_threads(1)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    seeds = run_seeds(args.seed)
    env = environment(args, seeds)
    print("env: " + json.dumps(env, sort_keys=True))
    setup_times: list[float] = []
    work = Workload(args.workload, args.instance_seed, stem)
    solves: list[dict] = []
    tracer = spans.Tracer() if args.trace else None
    calibrate = None if tracer else Calibration()
    # calibration batches (wall, CPU) between the solves, one more than
    # solves at the end
    cal_batches: list[tuple[float, float]] = []
    # per-layer metrics of the first traced solve of each seed, so that the
    # counts among them repeat exactly for a given --seed
    layer: dict[int, dict[str, float]] = {}
    preface = TRACE_PREFACE if tracer else 0
    # every run repeats a seed at least once: an untraced run solves one seed
    # twice, and a traced run solves the first seed of its untraced preface
    min_solves = preface + SEED_CYCLE + (0 if tracer else 1)
    start = time.perf_counter()
    for _ in range(preface):
        # untraced solves of the first seed: the traced results must match
        # them, and the last is the reference for trace.overhead_share
        solves.append(work.solve(seeds[0]))
    while True:
        elapsed = time.perf_counter() - start
        if len(solves) >= min_solves and elapsed >= args.seconds:
            break
        if not tracer and elapsed >= len(setup_times) * args.seconds / SETUP_REPEATS:
            # spread the set-up samples over the run, as the solves are
            setup_times.append(measure_setup(args.workload, args.instance_seed))
        i = len(solves) - preface
        seed = seeds[i % SEED_CYCLE]
        if calibrate:
            last_wall = solves[-1]["wall_s"] if solves else 0.0
            cal_batches.append(calibration_batch(calibrate, last_wall))
        rec = work.solve(seed, tracer, i)
        solves.append(rec)
        if tracer and rec["digest"] is not None and seed not in layer:
            layer[seed] = tracer.layer_metrics(i, rec["counters"])
    failed = sum(not r["ok"] for r in solves)
    correct = failed == 0
    for r in solves:
        if not r["ok"]:
            print(f"FAIL seed {r['seed']} traced={r['traced']}: verified={r['verified']} "
                  f"repeat_ok={r['repeat_ok']}", file=sys.stderr)
    if tracer:
        if not layer:
            metrics = {k: 0.0 for k in spans.LAYER_METRICS}
            correct = False
        else:
            metrics = {k: statistics.median(m[k] for m in layer.values())
                       for k in spans.LAYER_METRICS if k != "trace.overhead_share"}
            untraced, traced = solves[preface - 1], solves[preface]
            metrics["trace.overhead_share"] = traced["wall_s"] / untraced["wall_s"] - 1.0
            correct &= trace_check(args.workload, tracer, untraced, metrics)
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
        units = spans.LAYER_METRICS
    else:
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(measure_setup(args.workload, args.instance_seed))
        cal_batches.append(calibration_batch(calibrate, solves[-1]["wall_s"]))
        for r, before, after in zip(solves, cal_batches, cal_batches[1:]):
            r["cal_s"] = (before[0] + after[0]) / 2
            r["cal_cpu_s"] = (before[1] + after[1]) / 2
        metrics = end_to_end(solves, seeds, statistics.median(setup_times))
        units = END_TO_END
        secs = {key: statistics.median(r[key] for r in solves)
                for key in ("wall_s", "cpu_s", "cal_s", "cal_cpu_s")}
        print(f"over {len(solves)} solves: solve_s_p50 {secs['wall_s']:.4f} s, solve_cpu_s_p50 "
              f"{secs['cpu_s']:.4f} s, calibration pass {secs['cal_s']:.4f} s wall and "
              f"{secs['cal_cpu_s']:.4f} s CPU; f_queries and value ratios over seeds {seeds}")
    work.instance_path.unlink()
    work.result_path.unlink(missing_ok=True)
    for r in solves:
        r.pop("counters")
    (OUT / f"{stem}.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "solves": solves, "setup_s": setup_times},
                   indent=1),
        encoding="utf-8",
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def trace_check(workload: str, tracer, untraced: dict, metrics: dict[str, float]) -> bool:
    """Set the layer self times of the first traced solve against the untraced
    solve of the same seed, timed by the outer clock alone.

    The self times add up to the traced root span by construction, so their
    sum exceeds the untraced time by the tracer's overhead plus machine noise;
    the line prints both.  What can fail is a negative self time: a span or
    leaf call counted under the wrong parent or twice.
    """
    own = tracer.self_times(0)
    total = sum(own.values())
    lowest = min(own, key=own.get)
    ok = own[lowest] >= SELF_TIME_FLOOR
    print(f"trace-check {workload}: layer self times sum to {total:.4f} s, the untraced "
          f"solve took {untraced['wall_s']:.4f} s (trace.overhead_share "
          f"{metrics['trace.overhead_share']:+.2%}); smallest self time "
          f"{own[lowest]:.6f} s ({lowest}): {'ok' if ok else 'FAIL'}")
    return ok


def run_all(args) -> int:
    """Run every workload in both modes, each in its own process."""
    good = True
    for name in WORKLOADS:
        digests = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--instance-seed", str(args.instance_seed)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                good = False
                continue
            for line in lines[:-1]:
                if line.startswith(("trace-check", "over ")):
                    print(line)
            out = json.loads(lines[-1])
            good &= out["correct"]
            print(f"{name} trace={trace}: correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']}")
            for metric, m in out["metrics"].items():
                print(f"  {name:22s} {metric:44s} {m['value']:16.6g} {m['unit']}")
            record = json.loads((OUT / f"{name}-seed{args.seed}-trace{trace}.json").read_text())
            digests.append({r["seed"]: r["digest"] for r in record["solves"]})
        if len(digests) == 2:
            same = all(digests[0][s] == digests[1][s] for s in run_seeds(args.seed))
            print(f"{name}: traced and untraced processes agree on every seed: {same}")
            good &= same
    print("all workloads: " + ("ok" if good else "FAIL"))
    return 0 if good else 1


def compare(old_path: str, new_path: str) -> int:
    """Print NEW against OLD per metric; refuse runs from different setups."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    for key in ("backend", "blas_threads", "eval_threads", "workload", "epsilon",
                "instance_seed"):
        if old["env"].get(key) != new["env"].get(key):
            print(f"refused: {key} differs ({old['env'].get(key)!r} vs "
                  f"{new['env'].get(key)!r})", file=sys.stderr)
            return 1
    if old["metrics"].keys() != new["metrics"].keys():
        print("refused: the runs report different metrics", file=sys.stderr)
        return 1
    for metric, before in old["metrics"].items():
        after = new["metrics"][metric]
        change = f"{after / before - 1.0:+.2%}" if before else "n/a"
        print(f"{metric:44s} {before:16.6g} {after:16.6g} {change}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="run seeds derive from it")
    parser.add_argument("--instance-seed", type=int, default=1, help="generator seed")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="new solves start until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "matsub" / "__init__.py").is_file():
        print(f"error: no matsub sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload, --all or --compare is required")
    # hold the BLAS thread count fixed before numpy loads
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    import matsub

    if Path(matsub.__file__).resolve().parent != SRC / "matsub":
        print(f"error: imported matsub from {matsub.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
