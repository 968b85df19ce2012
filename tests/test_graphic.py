"""Tests for the contracted-graph forest structure and its edge oracle."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from matsub.core import weight_key
from matsub.graphic import ContractedGraph
from matsub.instances import (
    GraphicChecker,
    GraphicMatroid,
    Instance,
    _UnionFind,
    generate_instance,
)
from matsub.optimizer import run_pipeline
from reference import PathCompressingUnionFind, max_forest_weight


def _expected_forest(
    mat: GraphicMatroid, weights: dict[int, float], frozen: set[int]
) -> tuple[set[int], dict[int, int]]:
    """Per-supervertex max incident edge, recomputed from scratch."""
    dsu = PathCompressingUnionFind(mat.num_vertices)
    for e in frozen:
        u, v = mat.edges[e]
        dsu.union(u, v)
    best: dict[int, int] = {}
    for e, w in weights.items():
        if e in frozen:
            continue
        u, v = mat.edges[e]
        ru, rv = dsu.find(u), dsu.find(v)
        if ru == rv:
            continue
        for r in (ru, rv):
            if r not in best or weight_key(w, e) > weight_key(weights[best[r]], best[r]):
                best[r] = e
    return set(best.values()) | frozen, best


def _is_forest(mat: GraphicMatroid, edges: list[int]) -> bool:
    dsu = PathCompressingUnionFind(mat.num_vertices)
    return all(dsu.union(*mat.edges[e]) for e in edges)


def test_single_edge() -> None:
    mat = GraphicMatroid(num_vertices=2, edges=[(0, 1)])
    d = ContractedGraph(mat, {0: 4.0})
    assert d.basis() == [0]
    assert d.approx_base_weight() == pytest.approx(4.0)


def test_four_cycle_half_bounds() -> None:
    mat = GraphicMatroid(num_vertices=4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    weights = {0: 10.0, 1: 1.0, 2: 10.0, 3: 1.0}
    d = ContractedGraph(mat, weights)
    assert d.basis() == [0, 2]
    assert d.approx_base_weight() == pytest.approx(20.0)
    assert max_forest_weight(mat, weights, set()) == pytest.approx(21.0)
    assert mat.rank() == 3
    assert 20.0 >= 0.5 * 21.0 and len(d.basis()) >= 0.5 * mat.rank()


def test_path_is_exact() -> None:
    mat = GraphicMatroid(num_vertices=3, edges=[(0, 1), (1, 2)])
    d = ContractedGraph(mat, {0: 5.0, 1: 3.0})
    assert d.basis() == [0, 1]
    assert d.approx_base_weight() == pytest.approx(8.0)


def test_decrement_nonforest_edge_no_changes() -> None:
    mat = GraphicMatroid(num_vertices=3, edges=[(0, 1), (1, 2), (0, 2)])
    d = ContractedGraph(mat, {0: 3.0, 1: 2.0, 2: 1.0})
    assert d.basis() == [0, 1]
    c = d.decrement(2, 0.0)
    assert c.added == [] and c.removed == []
    assert d.basis() == [0, 1]


def test_decrement_swaps_cycle_edge() -> None:
    mat = GraphicMatroid(num_vertices=4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    weights = {0: 10.0, 1: 1.0, 2: 10.0, 3: 1.0}
    d = ContractedGraph(mat, dict(weights))
    c = d.decrement(0, 0.5)
    weights[0] = 0.5
    assert c.removed == [0]
    assert sorted(c.added) == [1, 3]
    expected, _ = _expected_forest(mat, weights, set())
    assert set(d.basis()) == expected == {1, 2, 3}


def test_decrement_star_center_reselects() -> None:
    mat = GraphicMatroid(num_vertices=4, edges=[(0, 1), (0, 2), (0, 3)])
    d = ContractedGraph(mat, {0: 3.0, 1: 2.0, 2: 1.0})
    assert d.basis() == [0, 1, 2]
    c = d.decrement(0, 0.0)
    # the center now prefers the 2-edge, but the leaf still holds edge 0,
    # so no edge entered or left the forest
    assert d.sel[d.dsu.find(0)] == 1
    assert c.removed == [] and c.added == []
    assert d.basis() == [0, 1, 2]
    assert d.approx_base_weight() == pytest.approx(3.0)


def test_freeze_only_edge() -> None:
    mat = GraphicMatroid(num_vertices=2, edges=[(0, 1)])
    d = ContractedGraph(mat, {0: 5.0})
    c = d.freeze(0)
    assert c.removed == [0] and c.added == []
    assert d.basis() == [0] and d.frozen == {0}
    assert d.approx_base_weight() == pytest.approx(5.0)
    with pytest.raises(ValueError):
        d.freeze(0)  # already frozen
    with pytest.raises(ValueError):
        d.decrement(0, 1.0)


def test_freeze_triangle_reselects_merged_vertex() -> None:
    mat = GraphicMatroid(num_vertices=3, edges=[(0, 1), (1, 2), (0, 2)])
    d = ContractedGraph(mat, {0: 3.0, 1: 2.0, 2: 1.0})
    c = d.freeze(0)
    assert c.removed == [0] and c.added == []
    assert d.basis() == [0, 1]
    assert d.approx_base_weight() == pytest.approx(5.0)


def test_argument_validation() -> None:
    mat = GraphicMatroid(num_vertices=3, edges=[(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        ContractedGraph(mat, {5: 1.0})
    with pytest.raises(ValueError):
        ContractedGraph(mat, {0: -1.0})
    d = ContractedGraph(mat, {0: 2.0, 1: 1.0})
    with pytest.raises(ValueError):
        d.decrement(0, 2.0)  # not strictly smaller
    with pytest.raises(ValueError):
        d.decrement(0, -0.5)
    with pytest.raises(ValueError):
        d.decrement(7, 1.0)
    d.decrement(1, 0.0)
    with pytest.raises(ValueError):
        d.freeze(7)


def _random_graph(rng: np.random.Generator) -> GraphicMatroid:
    n = int(rng.integers(4, 13))
    m = int(rng.integers(n, 3 * n))
    edges = []
    for _ in range(m):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        while v == u:
            v = int(rng.integers(n))
        edges.append((u, v))
    return GraphicMatroid(num_vertices=n, edges=edges)


def _random_weight(rng: np.random.Generator) -> float:
    return float(rng.integers(0, 12)) / 2.0


def test_differential_random_ops() -> None:
    rng = np.random.default_rng(42)
    for _ in range(12):
        mat = _random_graph(rng)
        m = len(mat.edges)
        weights = {e: _random_weight(rng) for e in range(m)}
        d = ContractedGraph(mat, dict(weights))
        frozen: set[int] = set()
        mirror = set(d.basis())
        for _ in range(120):
            roll = rng.random()
            candidates = [e for e in range(m) if e not in frozen and weights[e] > 0]
            changes = None
            if roll < 0.75 and candidates:
                e = int(rng.choice(candidates))
                new_w = float(rng.uniform(0, weights[e] * 0.999))
                changes = d.decrement(e, new_w)
                weights[e] = new_w
            elif d.basis():
                pool = [e for e in d.basis() if e not in frozen]
                if not pool:
                    continue
                e = int(rng.choice(pool))
                changes = d.freeze(e)
                frozen.add(e)
            if changes is not None:
                for e in changes.removed:
                    mirror.remove(e)
                for e in changes.added:
                    assert e not in mirror
                    mirror.add(e)
            expected, _ = _expected_forest(mat, weights, frozen)
            forest = d.basis()
            assert set(forest) == expected
            assert mirror == {e for e in forest if e not in frozen}
            assert d.approx_base_weight() == pytest.approx(
                sum(weights[e] for e in forest)
            )
            assert _is_forest(mat, forest)
            assert sum(weights[e] for e in forest) >= 0.5 * max_forest_weight(
                mat, weights, frozen
            ) - 1e-9
            assert len(forest) >= 0.5 * mat.rank()


def test_heap_ops_amortized_bound() -> None:
    # decrements with every fifth operation freezing a forest edge, so the
    # freezes' smaller-into-larger pours are counted too
    rng = np.random.default_rng(7)
    n = 120
    edges = [(int(u), int(v)) for u, v in rng.integers(n, size=(400, 2)) if u != v]
    mat = GraphicMatroid(num_vertices=n, edges=edges)
    m = len(mat.edges)
    weights = {e: float(rng.uniform(1, 100)) for e in range(m)}
    d = ContractedGraph(mat, dict(weights))
    ops = freezes = 0
    for step in range(400):
        if step % 5 == 4:
            pool = [e for e in d.basis() if e not in d.frozen]
            if pool:
                d.freeze(int(rng.choice(pool)))
                ops += 1
                freezes += 1
            continue
        e = int(rng.integers(m))
        if e in d.frozen:
            continue
        new_w = weights[e] * 0.9
        d.decrement(e, new_w)
        weights[e] = new_w
        ops += 1
    assert freezes >= 60
    budget = 30 * (m + ops) * math.log2(max(2, mat.num_vertices))
    assert d.heap_ops <= budget

    # a band graph whose freezes each merge one grown supervertex with a
    # single vertex: pouring the smaller list into the larger moves each
    # entry O(log pushes) times, the reverse pour moves the grown list's
    # every entry at every freeze
    k = 300
    edges = [(i, i + step) for step in (1, 2, 3) for i in range(k - step)]
    mat = GraphicMatroid(num_vertices=k, edges=edges)
    weights = {e: float(rng.uniform(1, 100)) for e in range(len(edges))}
    d = ContractedGraph(mat, weights)
    pushes = 2 * len(edges)
    grown = {0}
    for _ in range(k - 1):
        e = next(e for e in d.basis() if e not in d.frozen and len(grown & set(edges[e])) == 1)
        d.freeze(e)
        grown |= set(edges[e])
    assert len(grown) == k
    assert d.moved <= pushes * math.log2(pushes)


def test_incremental_oracle_basic() -> None:
    mat = GraphicMatroid(num_vertices=3, edges=[(0, 1), (1, 2), (0, 2)])
    chk = GraphicChecker(mat)
    assert chk.test(0)
    chk.insert(0)
    assert chk.test(1)
    chk.insert(1)
    assert not chk.test(2)
    with pytest.raises(ValueError):
        chk.insert(2)


def test_incremental_oracle_matches_forest_check() -> None:
    rng = np.random.default_rng(3)
    for _ in range(20):
        mat = _random_graph(rng)
        m = len(mat.edges)
        chk = GraphicChecker(mat)
        accepted: list[int] = []
        for e in rng.permutation(m):
            e = int(e)
            ok = chk.test(e)
            assert ok == mat.is_independent(accepted + [e])
            if ok:
                chk.insert(e)
                accepted.append(e)
        # the accepted set is a maximal forest
        assert len(accepted) == mat.rank()


def _partition(find, n: int) -> list[list[int]]:
    parts: dict[int, list[int]] = {}
    for x in range(n):
        parts.setdefault(find(x), []).append(x)
    return sorted(parts.values())


def test_component_labels_agree_with_a_path_compressing_union_find() -> None:
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        uf, ref = _UnionFind(n), PathCompressingUnionFind(n)
        for _ in range(int(rng.integers(0, 3 * n))):
            a, b = (int(x) for x in rng.integers(n, size=2))
            assert uf.union(a, b) == ref.union(a, b)
            assert _partition(uf.find, n) == _partition(ref.find, n)
            # a label names a member of its own component
            assert all(uf.find(uf.find(x)) == uf.find(x) for x in range(n))


def test_relabels_stay_within_v_log_v() -> None:
    # one component grown a singleton at a time, then the other half merged
    # in equal pairs and the halves joined: relabelling the smaller side
    # moves a vertex at most log2 V times, while relabelling the larger
    # would move the grown component's every member at each step
    v = 512
    half = v // 2
    uf = _UnionFind(v)
    for x in range(1, half):
        assert uf.union(x, 0)
    width = 1
    while width < half:
        for start in range(half, v, 2 * width):
            assert uf.union(start, start + width)
        width *= 2
    assert uf.union(0, half)
    assert len(set(uf.label)) == 1
    assert uf.relabels <= v * math.log2(v)


def test_graphic_structures_are_sized_by_the_edges() -> None:
    # thirty edges declared over two million vertices: the structures index
    # only the vertices the edges touch, so the solve allocates as little
    # as on the generated instance and returns the same record
    inst = generate_instance("graphic", "additive", 30, 1)
    wide = Instance(
        matroid=GraphicMatroid(num_vertices=2_000_000, edges=inst.matroid.edges),
        objective=inst.objective,
    )
    assert json.loads(wide.to_json())["matroid"]["num_vertices"] == 2_000_000
    tracemalloc.start()
    try:
        got = run_pipeline(wide, epsilon=0.2, seed=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    want = run_pipeline(inst, epsilon=0.2, seed=1000)
    assert (got.solution, got.value, got.counters) == (want.solution, want.value, want.counters)
