from __future__ import annotations

import itertools

import numpy as np
import pytest

from matsub.instances import (
    GraphicMatroid,
    LaminarMatroid,
    TransversalMatroid,
    generate_instance,
)
from matsub.oracles import brute_force_opt
from reference import (
    exhaustive_opt,
    hopcroft_karp,
    hungarian_max_weight_matching,
    max_weight_basis,
)


def _two_level_laminar() -> LaminarMatroid:
    # root 0 (cap 2) over leaves 1, 2, 3 holding elements 0, 1, 2
    return LaminarMatroid(
        parents=[-1, 0, 0, 0],
        capacities=[2, 1, 1, 1],
        element_nodes=[1, 2, 3],
    )


def test_max_weight_basis_laminar() -> None:
    mat = _two_level_laminar()
    assert max_weight_basis(mat, [5.0, 4.0, 3.0]) == [0, 1]
    assert max_weight_basis(mat, [1.0, 1.0, 1.0]) == [1, 2]  # ties favor larger id


def test_max_weight_basis_graphic() -> None:
    # triangle: any two edges form a spanning tree
    mat = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    assert max_weight_basis(mat, [3.0, 1.0, 2.0]) == [0, 2]


def test_max_weight_basis_transversal() -> None:
    # elements 0 and 1 both only reach right vertex 0; heavier one wins
    mat = TransversalMatroid(2, [[0], [0], [1]])
    assert max_weight_basis(mat, [2.0, 7.0, 1.0]) == [1, 2]


def test_feasibility_verify() -> None:
    mat = _two_level_laminar()
    assert mat.is_independent([0, 2])
    assert not mat.is_independent([0, 1, 2])


def test_brute_force_matches_exhaustive() -> None:
    rng = np.random.default_rng(19)
    for kind in ("laminar", "graphic", "transversal"):
        for obj in ("coverage", "facility", "additive"):
            seed = int(rng.integers(0, 2**31))
            inst = generate_instance(kind, obj, n=int(rng.integers(4, 9)), seed=seed)
            v1, s1 = brute_force_opt(inst.build_objective(), inst.matroid)
            v2 = exhaustive_opt(inst.build_objective(), inst.matroid)
            assert v1 == pytest.approx(v2)
            assert inst.matroid.is_independent(s1)


def _all_matchings_value(weights: np.ndarray, adjacency: list[list[int]], num_right: int) -> float:
    """Max weight over all matchings, by trying every right-vertex assignment."""
    nl = len(adjacency)
    best = 0.0
    choices = [[-1] + nbrs for nbrs in adjacency]
    for assign in itertools.product(*choices):
        used = [r for r in assign if r >= 0]
        if len(used) != len(set(used)):
            continue
        best = max(best, sum(weights[i] for i, r in enumerate(assign) if r >= 0))
    return best


def test_hungarian_matches_enumeration() -> None:
    rng = np.random.default_rng(29)
    for _ in range(12):
        nl = int(rng.integers(2, 7))
        nr = int(rng.integers(1, 6))
        adjacency = []
        for _ in range(nl):
            deg = int(rng.integers(0, nr + 1))
            adjacency.append(sorted(rng.choice(nr, size=deg, replace=False).tolist()))
        weights = rng.uniform(0.0, 10.0, size=nl)
        got = hungarian_max_weight_matching(adjacency, weights, nr)
        want = _all_matchings_value(weights, adjacency, nr)
        assert got == pytest.approx(want)


def _max_matching_size(adjacency: list[list[int]], num_right: int) -> int:
    sizes = [0]
    nl = len(adjacency)
    for assign in itertools.product(*[[-1] + nbrs for nbrs in adjacency]):
        used = [r for r in assign if r >= 0]
        if len(used) == len(set(used)):
            sizes.append(len(used))
    return max(sizes)


def test_hopcroft_karp_maximum() -> None:
    rng = np.random.default_rng(37)
    for _ in range(12):
        nl = int(rng.integers(1, 7))
        nr = int(rng.integers(1, 6))
        adjacency = []
        for _ in range(nl):
            deg = int(rng.integers(0, min(nr, 3) + 1))
            adjacency.append(sorted(rng.choice(nr, size=deg, replace=False).tolist()))
        matching = hopcroft_karp(adjacency, nr)
        # it is a matching over real edges
        assert len(set(matching.values())) == len(matching)
        for left, right in matching.items():
            assert right in adjacency[left]
        assert len(matching) == _max_matching_size(adjacency, nr)


def test_brute_force_respects_limit() -> None:
    inst = generate_instance("laminar", "coverage", n=25, seed=3)
    with pytest.raises(ValueError):
        brute_force_opt(inst.build_objective(), inst.matroid)
