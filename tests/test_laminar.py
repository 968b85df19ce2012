from __future__ import annotations

import math

import numpy as np
import pytest

from matsub.instances import LaminarMatroid, generate_instance
from matsub.laminar import TopTreeLaminarBasis
from reference import SlowLaminarBasis, greedy_laminar_basis

STRUCTURES = [SlowLaminarBasis, TopTreeLaminarBasis]


def _nested_matroid() -> LaminarMatroid:
    # root cap 3 over {mid cap 2 over {inner cap 1 with slots 0,2; slot 1},
    # slot 3, slot 4}
    return LaminarMatroid(
        parents=[-1, 0, 1, 2, 2, 1, 0, 0],
        capacities=[3, 2, 1, 1, 1, 1, 1, 1],
        element_nodes=[3, 5, 4, 6, 7],
    )


@pytest.mark.parametrize("cls", STRUCTURES)
def test_basic_insert_swap(cls) -> None:
    mat = LaminarMatroid(parents=[-1, 0, 0], capacities=[1, 1, 1], element_nodes=[1, 2])
    d = cls(mat, {})
    c = d.insert(0, 5.0)
    assert c.added == [0] and d.basis() == [0]
    c = d.insert(1, 7.0)
    assert c.removed == [0] and c.added == [1]
    assert d.basis() == [1]
    assert d.approx_base_weight() == pytest.approx(7.0)


@pytest.mark.parametrize("cls", STRUCTURES)
def test_delete_refills_from_whole_tree(cls) -> None:
    # deleting the heaviest must pull the capacity-blocked element back in,
    # even though the replacement sits below a different tight node
    d = cls(_nested_matroid(), {0: 10.0, 1: 7.0, 2: 3.0, 3: 2.0, 4: 1.0})
    assert d.basis() == [0, 1, 3]
    changes = d.delete(0)
    assert changes.removed == [0]
    assert changes.added == [2]
    assert d.basis() == [1, 2, 3]


@pytest.mark.parametrize("cls", STRUCTURES)
def test_decrement_moves_weight_or_swaps(cls) -> None:
    d = cls(_nested_matroid(), {0: 10.0, 1: 7.0, 2: 3.0, 3: 2.0, 4: 1.0})
    # lowering inside the basis without losing the slot: no change
    c = d.decrement(1, 6.0)
    assert c.removed == [] and c.added == []
    assert d.basis() == [0, 1, 3]
    # lowering far enough to lose the inner slot to element 2
    c = d.decrement(0, 2.5)
    assert c.removed == [0] and c.added == [2]
    assert d.basis() == [1, 2, 3]


@pytest.mark.parametrize("cls", STRUCTURES)
def test_frozen_never_evicted(cls) -> None:
    mat = LaminarMatroid(parents=[-1, 0, 0], capacities=[1, 1, 1], element_nodes=[1, 2])
    d = cls(mat, {0: 1.0})
    c = d.freeze(0)
    assert c.removed == [0] and c.added == []
    c = d.insert(1, 50.0)
    assert c.added == [] and c.removed == []
    assert d.basis() == [0]
    with pytest.raises(ValueError):
        d.delete(0)
    with pytest.raises(ValueError):
        d.decrement(0, 0.5)
    with pytest.raises(ValueError):
        d.freeze(0)
    # frozen members keep contributing to the reported basis weight
    assert d.approx_base_weight() == pytest.approx(1.0)


@pytest.mark.parametrize("cls", STRUCTURES)
def test_argument_validation(cls) -> None:
    mat = LaminarMatroid(parents=[-1, 0], capacities=[1, 1], element_nodes=[1])
    d = cls(mat, {})
    with pytest.raises(ValueError):
        d.insert(5, 1.0)
    with pytest.raises(ValueError):
        d.delete(0)
    d.insert(0, 2.0)
    with pytest.raises(ValueError):
        d.insert(0, 3.0)
    with pytest.raises(ValueError):
        d.decrement(0, 9.0)


def _check_fields(d: TopTreeLaminarBasis) -> None:
    """Recompute every cluster field from scratch and compare."""
    parents = d.bin_parents
    counts = [0] * len(parents)
    for elem in d.in_basis:
        v = d.node_of[elem]
        while v >= 0:
            counts[v] += 1
            v = parents[v]
    resid = [d.caps[v] - counts[v] for v in range(len(parents))]

    def walk(c, acc):
        # acc carries the pending shifts that will eventually reach c;
        # raked children never receive any, their stored residuals are true
        if c.kind == 0:
            pi = [c.node]
            t_nodes = {c.node}
        elif c.kind == 1:
            pi_l, t_l = walk(c.left, acc + c.delta)
            pi_r, t_r = walk(c.right, acc + c.delta)
            pi = pi_l + pi_r
            t_nodes = t_l | t_r
        else:
            pi_l, t_l = walk(c.left, acc + c.delta)
            pi_r, t_r = walk(c.right, 0)
            pi = pi_l
            t_nodes = t_l | t_r

        true_min = min(resid[v] for v in pi)
        arg = next(v for v in pi if resid[v] == true_min)
        assert c.minc + acc == true_min
        assert c.argminc == arg

        def key(e):
            return (math.inf, e) if e in d.frozen else (d.weights[e], e)

        mine = None
        for v in t_nodes:
            e = d.elem_at.get(v)
            if e is None or e not in d.in_basis or e in d.frozen:
                continue
            if mine is None or key(e) < mine:
                mine = key(e)
        assert c.mine == mine

        pos = {v: i for i, v in enumerate(pi)}
        minimizers = [i for i, v in enumerate(pi) if resid[v] == true_min]
        topmost = max(minimizers)

        maxe1 = None
        maxe0 = None
        for v in t_nodes:
            e = d.elem_at.get(v)
            if e is None or e not in d.weights or e in d.in_basis:
                continue
            node = v
            blocked = False
            while node not in pos:
                if resid[node] <= 0:
                    blocked = True
                node = parents[node]
            if blocked:
                continue
            if maxe1 is None or key(e) > maxe1:
                maxe1 = key(e)
            if pos[node] > topmost and (maxe0 is None or key(e) > maxe0):
                maxe0 = key(e)
        assert c.maxe1 == maxe1
        assert c.maxe0 == maxe0
        return pi, t_nodes

    walk(d.root_cluster, 0)


def test_cluster_fields_from_scratch() -> None:
    rng = np.random.default_rng(53)
    for trial in range(8):
        inst = generate_instance("laminar", "additive", n=12, seed=200 + trial)
        mat = inst.matroid
        d = TopTreeLaminarBasis(mat, {})
        present: set[int] = set()
        for step in range(120):
            roll = rng.random()
            if roll < 0.45 or not present:
                absent = [e for e in range(mat.n) if e not in present]
                if not absent:
                    continue
                e = int(rng.choice(absent))
                d.insert(e, float(np.round(rng.uniform(0.5, 9.5), 1)))
                present.add(e)
            elif roll < 0.7:
                pool = [e for e in present if e not in d.frozen]
                if not pool:
                    continue
                e = int(rng.choice(pool))
                d.delete(e)
                present.remove(e)
            elif roll < 0.9:
                pool = [e for e in present if e not in d.frozen]
                if not pool:
                    continue
                e = int(rng.choice(pool))
                d.decrement(e, float(np.round(d.weights[e] * rng.uniform(0.2, 1.0), 3)))
            else:
                pool = [e for e in d.in_basis if e not in d.frozen]
                if pool and len(d.frozen) < 2:
                    d.freeze(int(rng.choice(pool)))
            if step % 10 == 0:
                _check_fields(d)
        _check_fields(d)


def _random_weight(rng: np.random.Generator) -> float:
    # a small grid makes weight ties common, forcing the id tie-break
    if rng.random() < 0.5:
        return float(rng.integers(1, 6))
    return float(np.round(rng.uniform(0.1, 10.0), 2))


def test_differential_against_greedy_and_slow() -> None:
    rng = np.random.default_rng(59)
    for trial in range(10):
        n = int(rng.integers(4, 33))
        inst = generate_instance("laminar", "additive", n=n, seed=300 + trial)
        mat = inst.matroid
        top = TopTreeLaminarBasis(mat, {})
        slow = SlowLaminarBasis(mat, {})
        budget = 12 * math.log2(max(2, n))
        present: dict[int, float] = {}
        frozen: set[int] = set()
        for _ in range(250):
            joins0 = top.joins + top.splits
            roll = rng.random()
            if roll < 0.4 or not present:
                absent = [e for e in range(n) if e not in present]
                if not absent:
                    continue
                e = int(rng.choice(absent))
                w = _random_weight(rng)
                ct = top.insert(e, w)
                cs = slow.insert(e, w)
                present[e] = w
            elif roll < 0.6:
                pool = [e for e in present if e not in frozen]
                if not pool:
                    continue
                e = int(rng.choice(pool))
                ct = top.delete(e)
                cs = slow.delete(e)
                del present[e]
            elif roll < 0.85:
                pool = [e for e in present if e not in frozen]
                if not pool:
                    continue
                e = int(rng.choice(pool))
                w = float(np.round(present[e] * rng.uniform(0.1, 1.0), 3))
                ct = top.decrement(e, w)
                cs = slow.decrement(e, w)
                present[e] = w
            else:
                pool = [e for e in top.in_basis if e not in frozen]
                if not pool or len(frozen) > n // 3:
                    continue
                e = int(rng.choice(pool))
                ct = top.freeze(e)
                cs = slow.freeze(e)
                assert ct.removed == [e] and ct.added == []
                frozen.add(e)
            assert sorted(ct.added) == sorted(cs.added)
            assert sorted(ct.removed) == sorted(cs.removed)
            assert top.basis() == slow.basis()
            assert top.basis() == greedy_laminar_basis(mat, present, frozen)
            assert top.approx_base_weight() == pytest.approx(slow.approx_base_weight())
            assert top.joins + top.splits - joins0 <= budget
            probe = int(rng.integers(n))
            if probe in present:
                assert top.lowest_tight(probe) == slow.lowest_tight(probe)
            assert top.max_addable() == slow.max_addable()


def test_subtree_queries_match_slow() -> None:
    rng = np.random.default_rng(61)
    for trial in range(6):
        n = int(rng.integers(5, 25))
        inst = generate_instance("laminar", "additive", n=n, seed=400 + trial)
        mat = inst.matroid
        weights = {e: _random_weight(rng) for e in range(n)}
        top = TopTreeLaminarBasis(mat, weights)
        slow = SlowLaminarBasis(mat, weights)
        for _ in range(n // 2):
            e = int(rng.integers(n))
            if e in top.weights:
                top.delete(e)
                slow.delete(e)
        for node in range(len(mat.parents)):
            assert top.min_basis_in(node) == slow.min_basis_in(node)
