"""Layer spans for one ``run_pipeline`` call, recorded from outside ``matsub``.

The tracer swaps the public callables of each layer for timing wrappers for
the duration of one solve and puts the originals back afterwards.  The
optimizer imports its callees by name, so the wrappers replace the names
that ``matsub.optimizer`` (and ``matsub.rounding`` for ``merge_bases``) looks
up, not the defining modules' attributes.

Stage-level calls get a span: ``[name, start, end, parent, solve, work]``,
where ``work`` is a per-call size (rows x elements priced, subset draws,
elements matched).  Independence-checker ``test``/``insert`` calls run
hundreds of thousands of times per solve, so they are only counted and
timed per parent span.  A span's self time is its duration minus the
durations of its child spans and of the leaf calls made directly under it;
the self times of one solve add up to its root span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

ROOT = "optimizer.run_pipeline"
CG = "optimizer.continuous_greedy"
SWAP = "rounding.swap_round"
MEANS = "kernels.marginal_means"
BATCH_INSERT = "transversal.dec_matching.batch_insert"
LEAF_TEST = "instances.checker.test"
LEAF_INSERT = "instances.checker.insert"

# per-layer metrics reported by a traced run, with their units
LAYER_METRICS = {
    "trace.solve_s": "s",
    "trace.overhead_share": "ratio",
    "kernels.marginal_means.s": "s",
    "kernels.marginal_means.calls": "count",
    "kernels.marginal_means.row_elems": "count",
    "kernels.marginal_means.ns_per_row_elem": "ns",
    "kernels.marginal_means.share": "ratio",
    "kernels.batch_values.s": "s",
    "kernels.batch_values.rows": "count",
    "objectives.sample_subsets.s": "s",
    "objectives.sample_subsets.calls": "count",
    "objectives.sample_subsets.draws": "count",
    "objectives.sample_subsets.share": "ratio",
    "optimizer.continuous_greedy.s": "s",
    "optimizer.sweep.self_s": "s",
    "optimizer.phase2.f_queries": "count",
    "optimizer.phase2.estimator_batches": "count",
    "optimizer.phase2.priced_per_insert": "ratio",
    "optimizer.sweep.insert_ratio": "ratio",
    "core.estimate_opt.s": "s",
    "core.estimate_opt.f_queries": "count",
    "optimizer.build_phase1_oracle.s": "s",
    "optimizer.lazy_sampling_greedy_plus.s": "s",
    "optimizer.phase1.f_queries": "count",
    "optimizer.phase1.iterations": "count",
    "rounding.swap_round.s": "s",
    "rounding.swap_round.share": "ratio",
    "rounding.merge_bases.calls": "count",
    "rounding.verify_share": "ratio",
    "instances.rank.calls": "count",
    "instances.rank.s": "s",
    "instances.is_independent.calls": "count",
    "instances.is_independent.s": "s",
    "instances.checker.calls": "count",
    "instances.checker.s": "s",
    "transversal.dec_matching.batch_insert.calls": "count",
    "transversal.dec_matching.batch_insert.s": "s",
    "transversal.dec_matching.delete.calls": "count",
    "transversal.dec_matching.delete.s": "s",
}


class Tracer:
    """Collects spans and leaf tallies over any number of traced solves."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self._stack: list[int] = []
        self._solve = -1
        self._patches = self._build_patches()

    def _span(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self._solve, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = work(args, out)
            return out

        return wrapped

    def _leaf(self, name, fn):
        leaves, stack = self.leaves, self._stack

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tally = leaves.setdefault((stack[-1], name), [0, 0.0])
                tally[0] += 1
                tally[1] += dt

        return wrapped

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        from matsub import instances, objectives, optimizer, rounding, transversal

        def rows_x_elems(args, _out):
            return int(args[1].shape[0]) * len(args[2])

        def rows(args, _out):
            return int(args[1].shape[0])

        def draws(args, _out):
            return int(args[1]) * len(args[0])

        def joined(_args, out):
            return len(out)

        table = [
            (optimizer, "estimate_opt", "core.estimate_opt", None),
            (optimizer, "build_phase1_oracle", "optimizer.build_phase1_oracle", None),
            (optimizer, "lazy_sampling_greedy_plus", "optimizer.lazy_sampling_greedy_plus", None),
            (optimizer, "continuous_greedy", CG, None),
            (optimizer, "dt_incremental", "optimizer.sweep", None),
            (optimizer, "dt_approx_indep_set", "optimizer.sweep", None),
            (optimizer, "swap_round", SWAP, None),
            (rounding, "merge_bases", "rounding.merge_bases", None),
            (objectives, "sample_subsets", "objectives.sample_subsets", draws),
            (objectives.ValueOracle, "batch_marginal_means", MEANS, rows_x_elems),
            (objectives.ResidualOracle, "batch_marginal_means", MEANS, rows_x_elems),
            (objectives.ValueOracle, "batch_values", "kernels.batch_values", rows),
            (objectives.ResidualOracle, "batch_values", "kernels.batch_values", rows),
            (transversal.DecMatching, "batch_insert", BATCH_INSERT, joined),
            (transversal.DecMatching, "delete", "transversal.dec_matching.delete", None),
        ]
        matroids = (instances.LaminarMatroid, instances.GraphicMatroid, instances.TransversalMatroid)
        for cls in matroids:
            table.append((cls, "rank", "instances.rank", None))
            table.append((cls, "is_independent", "instances.is_independent", None))
        patches = []
        for owner, attr, name, work in table:
            original = vars(owner)[attr]
            patches.append((owner, attr, original, self._span(name, original, work)))
        checkers = (instances.LaminarChecker, instances.GraphicChecker, instances.TransversalChecker)
        for cls in checkers:
            for attr, name in (("test", LEAF_TEST), ("insert", LEAF_INSERT)):
                original = vars(cls)[attr]
                patches.append((cls, attr, original, self._leaf(name, original)))
        return patches

    @contextmanager
    def solve(self, solve_id: int):
        """Trace one solve: root span plus every layer wrapper installed."""
        self._solve = solve_id
        root = [ROOT, 0.0, 0.0, None, solve_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        root[1] = time.perf_counter()
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            for owner, attr, original, _wrapper in self._patches:
                setattr(owner, attr, original)
            self._stack.pop()

    # -- analysis -----------------------------------------------------------

    def self_times(self, solve_id: int) -> dict[str, float]:
        """Seconds spent in each layer itself, excluding its callees."""
        own: dict[int, float] = {}
        for i, (_name, start, end, parent, solve, _work) in enumerate(self.spans):
            if solve != solve_id:
                continue
            own[i] = own.get(i, 0.0) + (end - start)
            if parent is not None:
                own[parent] = own.get(parent, 0.0) - (end - start)
        out: dict[str, float] = {}
        for i, secs in own.items():
            name = self.spans[i][0]
            out[name] = out.get(name, 0.0) + secs
        for (parent, name), (_calls, secs) in self.leaves.items():
            if self.spans[parent][4] == solve_id:
                owner = self.spans[parent][0]
                out[owner] -= secs
                out[name] = out.get(name, 0.0) + secs
        return out

    def layer_metrics(self, solve_id: int, counters: dict) -> dict[str, float]:
        """Per-layer metrics of one traced solve (all but the overhead share)."""
        dur: dict[str, float] = {}
        calls: dict[str, int] = {}
        work: dict[str, int] = {}
        in_cg: dict[int, bool] = {}
        in_swap: dict[int, bool] = {}
        root_s = 0.0
        priced = joined = 0
        verify_s = 0.0
        for i, (name, start, end, parent, solve, w) in enumerate(self.spans):
            if solve != solve_id:
                continue
            d = end - start
            if parent is None:
                root_s = d
            dur[name] = dur.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + w
            # parents precede children in the span list
            in_cg[i] = name == CG or (parent is not None and in_cg[parent])
            in_swap[i] = name == SWAP or (parent is not None and in_swap[parent])
            if in_cg[i] and name == MEANS:
                priced += w
            if in_cg[i] and name == BATCH_INSERT:
                joined += w
            if in_swap[i] and name in ("instances.rank", "instances.is_independent"):
                verify_s += d
        leaf_calls = {LEAF_TEST: 0, LEAF_INSERT: 0}
        cg_leaf = {LEAF_TEST: 0, LEAF_INSERT: 0}
        leaf_s = 0.0
        for (parent, name), (n_calls, secs) in self.leaves.items():
            if self.spans[parent][4] != solve_id:
                continue
            leaf_calls[name] += n_calls
            leaf_s += secs
            if in_cg[parent]:
                cg_leaf[name] += n_calls
        own = self.self_times(solve_id)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        means_s = dur.get(MEANS, 0.0)
        row_elems = work.get(MEANS, 0)
        return {
            "trace.solve_s": root_s,
            "kernels.marginal_means.s": means_s,
            "kernels.marginal_means.calls": calls.get(MEANS, 0),
            "kernels.marginal_means.row_elems": row_elems,
            "kernels.marginal_means.ns_per_row_elem": ratio(means_s * 1e9, row_elems),
            "kernels.marginal_means.share": ratio(means_s, root_s),
            "kernels.batch_values.s": dur.get("kernels.batch_values", 0.0),
            "kernels.batch_values.rows": work.get("kernels.batch_values", 0),
            "objectives.sample_subsets.s": dur.get("objectives.sample_subsets", 0.0),
            "objectives.sample_subsets.calls": calls.get("objectives.sample_subsets", 0),
            "objectives.sample_subsets.draws": work.get("objectives.sample_subsets", 0),
            "objectives.sample_subsets.share": ratio(
                dur.get("objectives.sample_subsets", 0.0), root_s
            ),
            "optimizer.continuous_greedy.s": dur.get(CG, 0.0),
            "optimizer.sweep.self_s": own.get("optimizer.sweep", 0.0),
            "optimizer.phase2.f_queries": counters.get("phase2_f_queries", 0),
            "optimizer.phase2.estimator_batches": counters.get("estimator_batches", 0),
            "optimizer.phase2.priced_per_insert": ratio(
                priced, cg_leaf[LEAF_INSERT] + joined
            ),
            "optimizer.sweep.insert_ratio": ratio(cg_leaf[LEAF_INSERT], cg_leaf[LEAF_TEST]),
            "core.estimate_opt.s": dur.get("core.estimate_opt", 0.0),
            "core.estimate_opt.f_queries": counters.get("estimate_f_queries", 0),
            "optimizer.build_phase1_oracle.s": dur.get("optimizer.build_phase1_oracle", 0.0),
            "optimizer.lazy_sampling_greedy_plus.s": dur.get(
                "optimizer.lazy_sampling_greedy_plus", 0.0
            ),
            "optimizer.phase1.f_queries": counters.get("phase1_f_queries", 0),
            "optimizer.phase1.iterations": counters.get("phase1_iterations", 0),
            "rounding.swap_round.s": dur.get(SWAP, 0.0),
            "rounding.swap_round.share": ratio(dur.get(SWAP, 0.0), root_s),
            "rounding.merge_bases.calls": calls.get("rounding.merge_bases", 0),
            "rounding.verify_share": ratio(verify_s, dur.get(SWAP, 0.0)),
            "instances.rank.calls": calls.get("instances.rank", 0),
            "instances.rank.s": dur.get("instances.rank", 0.0),
            "instances.is_independent.calls": calls.get("instances.is_independent", 0),
            "instances.is_independent.s": dur.get("instances.is_independent", 0.0),
            "instances.checker.calls": leaf_calls[LEAF_TEST] + leaf_calls[LEAF_INSERT],
            "instances.checker.s": leaf_s,
            "transversal.dec_matching.batch_insert.calls": calls.get(BATCH_INSERT, 0),
            "transversal.dec_matching.batch_insert.s": dur.get(BATCH_INSERT, 0.0),
            "transversal.dec_matching.delete.calls": calls.get(
                "transversal.dec_matching.delete", 0
            ),
            "transversal.dec_matching.delete.s": dur.get("transversal.dec_matching.delete", 0.0),
        }

    def dump(self) -> dict:
        """JSON-ready spans, leaf tallies and per-solve layer self times."""
        solves = sorted({s[4] for s in self.spans})
        return {
            "span_fields": ["name", "start", "end", "parent", "solve", "work"],
            "spans": self.spans,
            "leaf_fields": ["parent", "name", "calls", "seconds"],
            "leaves": [[p, name, c, s] for (p, name), (c, s) in self.leaves.items()],
            "self_times": {str(i): self.self_times(i) for i in solves},
        }
