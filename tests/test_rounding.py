"""Tests for basis merging and swap rounding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from matsub.instances import (
    GraphicMatroid,
    LaminarMatroid,
    Matroid,
    TransversalChecker,
    TransversalMatroid,
    generate_instance,
)
from matsub.rounding import (
    _LaminarExchanger,
    ExchangeError,
    find_exchange,
    merge_bases,
    swap_round,
)
from reference import SlowLaminarBasis


class _Mix:
    """Bare fractional-solution stand-in: a list of (alpha, basis) pairs."""

    def __init__(self, bases: list[tuple[float, list[int]]]) -> None:
        self.bases = bases


def _random_basis(matroid: Matroid, rng: np.random.Generator) -> list[int]:
    checker = matroid.checker()
    basis = []
    for e in rng.permutation(matroid.n):
        e = int(e)
        if checker.test(e):
            checker.insert(e)
            basis.append(e)
    return sorted(basis)


def _mixture_probability(e: int, bases: list[tuple[float, list[int]]]) -> float:
    total = sum(alpha for alpha, _ in bases)
    hit = sum(alpha for alpha, basis in bases if e in basis)
    return hit / total


# ---------------------------------------------------------------------------
# merge_bases


def test_merge_identical_bases_is_identity():
    mat = GraphicMatroid(num_vertices=4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    rng = np.random.default_rng(0)
    assert merge_bases(0.5, [0, 1, 2], 0.5, [0, 1, 2], mat, rng) == [0, 1, 2]


def test_rank_one_merge_is_a_fair_coin():
    # two singleton leaves under a capacity-one root
    mat = LaminarMatroid(parents=[-1, 0, 0], capacities=[1, 1, 1], element_nodes=[1, 2])
    rng = np.random.default_rng(7)
    trials = 10_000
    took_first = 0
    for _ in range(trials):
        merged = merge_bases(1.0, [0], 1.0, [1], mat, rng)
        assert merged in ([0], [1])
        took_first += merged == [0]
    # Binomial(10^4, 1/2): four sigma is 200
    assert abs(took_first - trials / 2) <= 4 * math.sqrt(trials / 4)


def test_merge_validates_arguments():
    mat = GraphicMatroid(num_vertices=3, edges=[(0, 1), (1, 2), (0, 2)])
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        merge_bases(0.0, [0, 1], 1.0, [1, 2], mat, rng)
    with pytest.raises(ValueError):
        merge_bases(1.0, [0], 1.0, [1, 2], mat, rng)
    with pytest.raises(ExchangeError):
        # not a basis: contains the full triangle
        merge_bases(1.0, [0, 1, 2], 1.0, [0, 1, 2], mat, rng)


@pytest.mark.parametrize("kind", ["laminar", "graphic", "transversal"])
def test_merge_outputs_bases_and_keeps_the_intersection(kind):
    rng = np.random.default_rng(11)
    for seed in range(12):
        inst = generate_instance(kind, "additive", n=int(rng.integers(6, 14)), seed=200 + seed)
        mat = inst.matroid
        b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
        merged = merge_bases(0.3, b1, 0.7, b2, mat, rng)
        assert len(merged) == mat.rank()
        assert mat.is_independent(merged)
        assert set(merged) <= set(b1) | set(b2)
        assert set(merged) >= set(b1) & set(b2)


def test_merge_marginals_match_the_mixture_law():
    mat = generate_instance("laminar", "additive", n=10, seed=31).matroid
    rng = np.random.default_rng(5)
    b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
    alpha1, alpha2 = 0.25, 0.75
    trials = 4000
    hits = {e: 0 for e in range(mat.n)}
    for _ in range(trials):
        for e in merge_bases(alpha1, b1, alpha2, b2, mat, rng, verify=False):
            hits[e] += 1
    for e in range(mat.n):
        p = _mixture_probability(e, [(alpha1, b1), (alpha2, b2)])
        if p in (0.0, 1.0):
            assert hits[e] == p * trials
            continue
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits[e] / trials - p) <= 4 * sigma


# ---------------------------------------------------------------------------
# find_exchange


def test_symmetric_difference_of_two_has_a_unique_partner():
    mat = GraphicMatroid(num_vertices=3, edges=[(0, 1), (1, 2), (0, 2)])
    assert find_exchange(0, [0, 1], [1, 2], mat) == 2
    with pytest.raises(ValueError):
        find_exchange(1, [0, 1], [1, 2], mat)


@pytest.mark.parametrize("kind", ["laminar", "graphic", "transversal"])
def test_exchanges_satisfy_both_basis_conditions(kind):
    rng = np.random.default_rng(17)
    for seed in range(10):
        mat = generate_instance(kind, "additive", n=int(rng.integers(6, 14)), seed=seed).matroid
        b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
        for i in sorted(set(b1) - set(b2)):
            j = find_exchange(i, b1, b2, mat)
            assert j in set(b2) - set(b1)
            assert mat.is_independent((set(b1) - {i}) | {j})
            assert mat.is_independent((set(b2) - {j}) | {i})


def test_transversal_partner_shares_the_alternating_component():
    rng = np.random.default_rng(23)
    for seed in range(8):
        mat = generate_instance("transversal", "additive", n=12, seed=40 + seed).matroid
        b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
        diff = sorted(set(b1) - set(b2))
        if not diff:
            continue
        m1 = {e: r for r, e in TransversalChecker(mat, b1).match_right.items()}
        m2 = {e: r for r, e in TransversalChecker(mat, b2).match_right.items()}
        # elements connected through shared right vertices of the two matchings
        i = diff[0]
        component = {i}
        frontier = [i]
        while frontier:
            e = frontier.pop()
            rights = {m.get(e) for m in (m1, m2)} - {None}
            for other in set(m1) | set(m2):
                if other not in component and rights & {m1.get(other), m2.get(other)}:
                    component.add(other)
                    frontier.append(other)
        assert find_exchange(i, b1, b2, mat) in component


def test_laminar_exchanger_agrees_across_structures():
    rng = np.random.default_rng(29)
    for seed in range(10):
        mat = generate_instance("laminar", "additive", n=12, seed=70 + seed).matroid
        b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
        fast = _LaminarExchanger(mat, b1, b2)
        slow = _LaminarExchanger(mat, b1, b2, structure_cls=SlowLaminarBasis)
        for i in sorted(set(b1) - set(b2)):
            j = fast.exchange(i)
            assert j == slow.exchange(i)
            move_first = bool(rng.integers(2))
            fast.apply(i, j, move_first)
            slow.apply(i, j, move_first)
        assert fast.set1 == fast.set2 == slow.set1


# ---------------------------------------------------------------------------
# swap_round


def test_single_and_duplicate_base_rounding_is_identity():
    mat = GraphicMatroid(num_vertices=4, edges=[(0, 1), (1, 2), (2, 3)])
    rng = np.random.default_rng(2)
    assert swap_round(_Mix([(1.0, [0, 1, 2])]), mat, rng) == [0, 1, 2]
    assert swap_round(_Mix([(0.5, [0, 1, 2]), (0.5, [0, 1, 2])]), mat, rng) == [0, 1, 2]
    with pytest.raises(ValueError):
        swap_round(_Mix([]), mat, rng)


def test_three_base_mix_preserves_marginals():
    mat = generate_instance("laminar", "additive", n=9, seed=53).matroid
    rng = np.random.default_rng(13)
    bases = [(0.2, _random_basis(mat, rng)) for _ in range(2)]
    bases.append((0.6, _random_basis(mat, rng)))
    trials = 4000
    hits = {e: 0 for e in range(mat.n)}
    for _ in range(trials):
        out = swap_round(_Mix(bases), mat, rng, verify=False)
        assert mat.is_independent(out)
        for e in out:
            hits[e] += 1
    for e in range(mat.n):
        p = _mixture_probability(e, bases)
        if p in (0.0, 1.0):
            assert hits[e] == p * trials
            continue
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits[e] / trials - p) <= 4 * sigma
