"""Release acceptance suite: one test per numbered gate.

Every gate pins its tolerances, trial counts, and wall-clock cap as
constants inside the test, so ``pytest -v`` prints exactly one pass or
fail line per criterion.  All randomness is seeded; a pass is
reproducible bit for bit on one machine.

The end-to-end statistical gate (criterion 1) and the frozen-set size
gate (criterion 9) share one grid of pipeline runs through a module
fixture, since the latter is defined over the former's runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats

from matsub.core import WeightClassifier
from matsub.graphic import ContractedGraph
from matsub.instances import (
    GraphicMatroid,
    Matroid,
    TransversalMatroid,
    generate_instance,
    stream_rng,
)
from matsub.laminar import TopTreeLaminarBasis
from matsub.optimizer import FractionalSolution, run_pipeline
from matsub.oracles import brute_force_opt
from matsub.rounding import swap_round
from matsub.sampler import BucketLists
from matsub.transversal import LStableMatching
from reference import (
    SlowLaminarBasis,
    fractional_point,
    greedy_laminar_basis,
    hopcroft_karp,
    hungarian_max_weight_matching,
    max_forest_weight,
    max_weight_basis,
)

KINDS = ("laminar", "graphic", "transversal")
EPSILON = 0.2
RATIO_BAR = 1.0 - 1.0 / math.e - EPSILON
MEAN_RATIO_BAR = 1.0 - 1.0 / math.e - 0.1


# ---------------------------------------------------------------------------
# shared pipeline grid (criteria 1 and 9)


@dataclass(frozen=True)
class _PipelineRun:
    kind: str
    ratio: float
    frozen_size: int
    rank: int


@pytest.fixture(scope="module")
def pipeline_grid() -> tuple[list[_PipelineRun], float]:
    """30 instances per matroid class, n in [8, 12], 100 seeds each."""
    # one throwaway run first so import and cache warm-up stay off the clock
    warm = generate_instance("laminar", "coverage", n=8, seed=0)
    run_pipeline(warm, epsilon=EPSILON, seed=0)
    runs: list[_PipelineRun] = []
    start = time.perf_counter()
    for kind in KINDS:
        for idx in range(30):
            n = 8 + idx % 5
            inst = generate_instance(kind, "coverage", n=n, seed=9000 + idx)
            opt, _ = brute_force_opt(inst.build_objective(), inst.matroid)
            rank = len(max_weight_basis(inst.matroid, [1.0] * n))
            for seed in range(100):
                res = run_pipeline(inst, epsilon=EPSILON, seed=seed)
                ratio = 1.0 if opt <= 0 else res.value / opt
                runs.append(_PipelineRun(kind, ratio, len(res.frozen), rank))
    return runs, time.perf_counter() - start


def test_criterion_1_end_to_end_approximation(
    pipeline_grid: tuple[list[_PipelineRun], float]
) -> None:
    runs, elapsed = pipeline_grid
    for kind in KINDS:
        ratios = [r.ratio for r in runs if r.kind == kind]
        assert len(ratios) == 3000
        hits = sum(1 for q in ratios if q >= RATIO_BAR - 1e-9)
        assert hits >= 0.95 * len(ratios)
        assert float(np.mean(ratios)) >= MEAN_RATIO_BAR
    assert elapsed <= 300.0


# ---------------------------------------------------------------------------
# criterion 2: laminar differential suite


def test_criterion_2_laminar_differential_suite() -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    total_ops = 0
    for trial in range(20):
        n = int(rng.integers(8, 65))
        inst = generate_instance("laminar", "additive", n=n, seed=500 + trial)
        mat = inst.matroid
        top = TopTreeLaminarBasis(mat, {})
        slow = SlowLaminarBasis(mat, {})
        per_op_budget = 12 * math.log2(max(2, n))
        present: dict[int, float] = {}
        for _ in range(500):
            ops_before = top.joins + top.splits
            absent = [e for e in range(n) if e not in present]
            if absent and (not present or rng.random() < 0.55):
                e = int(rng.choice(absent))
                # a coarse grid makes ties common, forcing the id tie-break
                if rng.random() < 0.5:
                    w = float(rng.integers(1, 6))
                else:
                    w = float(np.round(rng.uniform(0.1, 10.0), 2))
                ct = top.insert(e, w)
                cs = slow.insert(e, w)
                present[e] = w
            else:
                e = int(rng.choice(list(present)))
                ct = top.delete(e)
                cs = slow.delete(e)
                del present[e]
            total_ops += 1
            assert sorted(ct.added) == sorted(cs.added)
            assert sorted(ct.removed) == sorted(cs.removed)
            assert top.basis() == slow.basis()
            assert top.basis() == greedy_laminar_basis(mat, present, set())
            assert top.joins + top.splits - ops_before <= per_op_budget
    assert total_ops == 10_000
    assert time.perf_counter() - start <= 60.0


# ---------------------------------------------------------------------------
# criterion 3: single-op stability of the exact max-weight basis


def _restricted_basis(mat: Matroid, weights: dict[int, float]) -> list[int]:
    order = sorted(weights, key=lambda e: (weights[e], e), reverse=True)
    checker = mat.checker()
    basis = []
    for e in order:
        if checker.test(e):
            checker.insert(e)
            basis.append(e)
    return sorted(basis)


def test_criterion_3_max_weight_basis_stability() -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(211)
    for trial in range(1000):
        kind = KINDS[trial % 3]
        n = int(rng.integers(6, 15))
        seed = int(rng.integers(1 << 31))
        mat = generate_instance(kind, "additive", n=n, seed=seed).matroid
        weights = {
            e: float(np.round(rng.uniform(0.1, 20.0), 3))
            for e in range(n)
            if rng.random() < 0.7
        }
        before = _restricted_basis(mat, weights)
        if weights and (len(weights) == n or rng.random() < 0.5):
            e = int(rng.choice(sorted(weights)))
            del weights[e]
        else:
            absent = [e for e in range(n) if e not in weights]
            e = int(rng.choice(absent))
            weights[e] = float(np.round(rng.uniform(0.1, 20.0), 3))
        after = _restricted_basis(mat, weights)
        assert len(set(before) - set(after)) <= 1
        assert len(set(after) - set(before)) <= 1
    assert time.perf_counter() - start <= 30.0


# ---------------------------------------------------------------------------
# criterion 4: graphic oracle half-bounds under decrement/freeze


def test_criterion_4_graphic_forest_bounds() -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(307)
    for seq in range(1000):
        # mostly small graphs with a large one every hundredth sequence
        if seq % 100 == 0:
            m = int(rng.integers(300, 501))
            nv = (2 * m) // 3
        else:
            m = int(rng.integers(8, 81))
            nv = int(rng.integers(4, 14))
        edges = []
        for _ in range(m):
            u = int(rng.integers(nv))
            v = int(rng.integers(nv))
            while v == u:
                v = int(rng.integers(nv))
            edges.append((u, v))
        mat = GraphicMatroid(num_vertices=nv, edges=edges)
        weights = {e: float(np.round(rng.uniform(0.5, 100.0), 3)) for e in range(m)}
        d = ContractedGraph(mat, dict(weights))
        frozen: set[int] = set()
        rank = mat.rank()
        for _ in range(10):
            live = [e for e in range(m) if e not in frozen and weights[e] > 0]
            if rng.random() < 0.8 and live:
                e = int(rng.choice(live))
                new_w = float(np.round(rng.uniform(0.0, weights[e] * 0.95), 6))
                d.decrement(e, new_w)
                weights[e] = new_w
            else:
                pool = [e for e in d.basis() if e not in frozen]
                if not pool:
                    continue
                e = int(rng.choice(pool))
                d.freeze(e)
                frozen.add(e)
            forest = d.basis()
            assert mat.is_independent(forest)
            held = sum(weights[e] for e in forest)
            assert held >= 0.5 * max_forest_weight(mat, weights, frozen) - 1e-9
            assert len(forest) >= 0.5 * rank
    assert time.perf_counter() - start <= 60.0


# ---------------------------------------------------------------------------
# criterion 5: decremental matching invariants and approximation


def _matching_invariants(d: LStableMatching) -> None:
    mat = d.matroid
    # virtual weights: unmatched pinned at the weight level, matched at
    # least one level below it (weight-zero fallbacks carry no level)
    for l in range(mat.n):
        if l not in d.match_of_l:
            assert d.vw[l] == d.w_lv[l]
        elif d.w_lv[l] is None:
            assert d.vw[l] is None
        else:
            assert d.vw[l] is None or d.vw[l] <= d.w_lv[l] - 1
    # level stability around every matched right vertex
    for r, l in d.match_of_r.items():
        lv = d.vw[l]
        if lv is None or lv < d.low:
            continue
        for other in d.n_r[r]:
            olv = d.vw[other]
            assert olv is None or olv <= lv + 1
    # maximality: no open edge out of an unmatched left vertex
    for l in range(mat.n):
        if l not in d.match_of_l:
            for r in mat.adjacency[l]:
                assert r in d.match_of_r


def test_criterion_5_transversal_invariants_and_ratio() -> None:
    start = time.perf_counter()
    for epsilon in (0.1, 0.25):
        rng = np.random.default_rng(401)
        for _ in range(500):
            nl = int(rng.integers(4, 41))
            nr = int(rng.integers(4, 41))
            adjacency = []
            for _ in range(nl):
                deg = int(rng.integers(1, min(nr, 4) + 1))
                picks = rng.choice(nr, size=deg, replace=False)
                adjacency.append(sorted(picks.tolist()))
            mat = TransversalMatroid(num_right=nr, adjacency=adjacency)
            weights = {l: float(rng.integers(1, 61)) for l in range(nl)}
            d = LStableMatching(mat, weights, epsilon=epsilon)
            _matching_invariants(d)
            hk_size = len(hopcroft_karp(mat.adjacency, nr))
            for _ in range(10):
                l = int(rng.integers(nl))
                if d.w_val[l] <= 0:
                    continue
                before = set(d.match_of_l)
                c = d.decrement(l, float(rng.uniform(0, d.w_val[l] * 0.95)))
                after = set(d.match_of_l)
                assert before - after <= {l}  # L-stability
                assert c.removed == sorted(before - after)
                assert c.added == sorted(after - before)
                _matching_invariants(d)
                matched = d.basis()
                held = sum(d.w_val[e] for e in matched)
                hung = hungarian_max_weight_matching(
                    mat.adjacency, [d.w_val[e] for e in range(nl)], nr
                )
                assert held >= (1 - 3 * epsilon) * hung - 1e-9
                assert len(matched) >= 0.5 * hk_size
            scan_budget = 4 * max(1, d.m) * (d.k + 1 / epsilon + 2)
            assert d.op_counters["scans"] <= scan_budget
    assert time.perf_counter() - start <= 120.0


# ---------------------------------------------------------------------------
# criterion 6: sampler distribution laws


def test_criterion_6_sampler_laws() -> None:
    start = time.perf_counter()
    cl = WeightClassifier(100.0, 0.5, 4)
    buckets = BucketLists(cl)
    members = {0: 0, 1: 1, 2: 2, 3: 2, 4: 2, 5: 3, 6: 3}
    for e, j in members.items():
        buckets.insert(e, j)
    total = buckets.total_weight()
    t = 3.0  # saturates the heaviest class so the min(1, .) cap is hit
    rng = stream_rng(601, 1)
    trials = 10_000
    hits = dict.fromkeys(members, 0)
    for _ in range(trials):
        for e, _ in buckets.sample(t, rng):
            hits[e] += 1
    for e, j in members.items():
        p = min(1.0, t * cl.class_value(j) / total)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits[e] / trials - p) <= 4 * sigma + 1e-9
    counts = np.zeros(len(members))
    for _ in range(trials):
        counts[buckets.uniform_sample(rng)] += 1
    assert stats.chisquare(counts).pvalue > 0.001
    assert time.perf_counter() - start <= 30.0


# ---------------------------------------------------------------------------
# criterion 7: instrumented counter budgets at n = 200


def test_criterion_7_counter_budget_gates() -> None:
    start = time.perf_counter()
    eps = EPSILON
    for kind in KINDS:
        inst = generate_instance(kind, "coverage", n=200, seed=7)
        n = inst.matroid.n
        rank = len(max_weight_basis(inst.matroid, [1.0] * n))
        res = run_pipeline(inst, epsilon=eps, seed=1)
        c = res.counters
        assert c["phase1_f_queries"] <= 8 * n / eps * math.log(rank / eps)
        assert c["phase2_f_queries"] <= 8 * n * eps**-5 * math.log(n / eps) ** 2
        assert c["dt_test_calls"] + c["dt_insert_calls"] <= 8 * n / eps
        assert c["dt_batch_inserts"] <= 8 / eps * math.log(rank)
    assert time.perf_counter() - start <= 120.0


# ---------------------------------------------------------------------------
# criterion 8: swap-rounding marginal preservation


def _permutation_basis(mat: Matroid, rng: np.random.Generator) -> list[int]:
    checker = mat.checker()
    basis = []
    for e in rng.permutation(mat.n):
        e = int(e)
        if checker.test(e):
            checker.insert(e)
            basis.append(e)
    return sorted(basis)


def test_criterion_8_swap_rounding_marginals() -> None:
    start = time.perf_counter()
    trials = 10_000
    for offset, kind in enumerate(KINDS):
        inst = generate_instance(kind, "coverage", n=10, seed=83)
        mat = inst.matroid
        base_rng = np.random.default_rng(811 + offset)
        bases = [
            (alpha, _permutation_basis(mat, base_rng))
            for alpha in (0.5, 0.3, 0.2)
        ]
        mix = FractionalSolution(mat.n, bases)
        expected = fractional_point(mix)
        coin_rng = stream_rng(907 + offset, 3)
        hits = np.zeros(mat.n)
        for _ in range(trials):
            out = swap_round(mix, mat, coin_rng)
            assert mat.is_independent(out)
            hits[out] += 1
        for e in range(mat.n):
            p = float(expected[e])
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(hits[e] / trials - p) <= 4 * sigma + 1e-12
    assert time.perf_counter() - start <= 60.0


# ---------------------------------------------------------------------------
# criterion 9: the frozen prefix stays below eps * rank / 2


def test_criterion_9_frozen_set_stays_small(
    pipeline_grid: tuple[list[_PipelineRun], float]
) -> None:
    runs, _ = pipeline_grid
    within = sum(
        1 for r in runs if r.frozen_size <= EPSILON * r.rank / 2 + 1e-9
    )
    assert within >= 0.99 * len(runs)
