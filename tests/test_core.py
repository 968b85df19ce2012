from __future__ import annotations

import math

import numpy as np
import pytest

from matsub.core import WeightClassifier, estimate_opt, greedy_basis_value
from matsub.instances import Instance, LaminarMatroid, generate_instance
from matsub.objectives import AdditiveOracle
from matsub.oracles import brute_force_opt
from reference import scratch_greedy_basis_value

KINDS = ("laminar", "graphic", "transversal")
OBJECTIVES = ("coverage", "facility", "additive")
WEIGHTS = {"coverage": "universe_weights", "facility": "similarity", "additive": "weights"}


def test_weight_class_half_example() -> None:
    cl = WeightClassifier(100.0, 0.5, 4)
    # class values run 100, 50, 25, ...; 30 sits between 25 and 50
    assert cl.weight_class(30.0) == 2
    assert cl.class_value(2) == pytest.approx(25.0)


def test_weight_class_top_of_range() -> None:
    cl = WeightClassifier(100.0, 0.5, 4)
    assert cl.weight_class(100.0) == 0
    assert cl.weight_class(250.0) == 0  # clamped above the estimate


def test_weight_class_bottom_threshold() -> None:
    cl = WeightClassifier(100.0, 0.25, 10)
    assert cl.bottom_threshold == pytest.approx(0.25)
    assert cl.weight_class(0.25) == cl.num_classes
    assert cl.weight_class(0.0) == cl.num_classes
    assert cl.class_value(cl.num_classes) == 0.0


def test_num_classes_formula() -> None:
    for eps, rank in [(0.1, 5), (0.25, 40), (0.3, 3)]:
        cl = WeightClassifier(7.0, eps, rank)
        expected = math.ceil(10 * math.log(eps / rank) / math.log(1 - eps))
        assert cl.num_classes == expected


def test_weight_class_roundtrip_property() -> None:
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = float(rng.uniform(0.5, 500.0))
        eps = float(rng.uniform(0.05, 0.32))
        rank = int(rng.integers(1, 60))
        cl = WeightClassifier(m, eps, rank)
        for w in rng.uniform(0.0, m, size=40):
            j = cl.weight_class(float(w))
            if w > cl.bottom_threshold:
                assert cl.class_value(j) <= w < cl.class_value(j) / (1 - eps)
            else:
                assert j == cl.num_classes


def test_class_values_strictly_decreasing() -> None:
    cl = WeightClassifier(50.0, 0.2, 8)
    values = [cl.class_value(j) for j in range(cl.num_classes + 1)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_classifier_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        WeightClassifier(0.0, 0.2, 5)
    with pytest.raises(ValueError):
        WeightClassifier(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        WeightClassifier(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        WeightClassifier(1.0, 0.2, 0)
    cl = WeightClassifier(1.0, 0.2, 5)
    with pytest.raises(ValueError):
        cl.weight_class(-0.5)
    with pytest.raises(ValueError):
        cl.class_value(cl.num_classes + 1)


def test_greedy_value_within_half_of_optimum() -> None:
    rng = np.random.default_rng(11)
    for kind in ("laminar", "graphic", "transversal"):
        for obj in ("coverage", "additive", "facility"):
            seed = int(rng.integers(0, 2**31))
            inst = generate_instance(kind, obj, n=int(rng.integers(4, 10)), seed=seed)
            f = inst.build_objective()
            value, chosen = greedy_basis_value(f, range(inst.n), inst.matroid.checker)
            assert inst.matroid.is_independent(chosen)
            opt, _ = brute_force_opt(inst.build_objective(), inst.matroid)
            assert value <= opt + 1e-9
            assert value >= 0.5 * opt - 1e-9


def test_greedy_requires_elements() -> None:
    inst = generate_instance("laminar", "additive", n=3, seed=1)
    with pytest.raises(ValueError):
        greedy_basis_value(inst.build_objective(), [], inst.matroid.checker)


def _both_greedies(inst: Instance):
    """``(M, order, queries)`` of the incremental and the scratch greedy."""
    out = []
    for greedy in (greedy_basis_value, scratch_greedy_basis_value):
        f = inst.build_objective()
        value, chosen = greedy(f, range(inst.n), inst.matroid.checker)
        out.append((value, chosen, f.query_count))
    return out


def _on_grid(inst: Instance) -> Instance:
    """The instance with every weight on a 1/64 grid, where float sums are
    exact in any order."""
    key = WEIGHTS[inst.objective["kind"]]
    grid = np.round(np.asarray(inst.objective[key]) * 64.0) / 64.0
    return Instance(inst.matroid, {**inst.objective, key: grid.tolist()})


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_incremental_greedy_matches_the_scratch_greedy(kind, objective) -> None:
    for seed in range(4):
        for n in (1, 9, 40, 120):
            inst = generate_instance(kind, objective, n=n, seed=900 + seed)
            (m, chosen, _), (m_ref, chosen_ref, _) = _both_greedies(inst)
            assert m == pytest.approx(m_ref, rel=1e-12, abs=0.0)
            assert len(chosen) == len(chosen_ref) == inst.matroid.rank()
            # the scratch greedy re-sums all of f(S + e), so its rounding
            # noise can reorder elements whose exact gains tie; on the grid
            # both passes see exact gains and must agree step for step
            new, ref = _both_greedies(_on_grid(inst))
            assert new == ref


def test_incremental_greedy_edge_objectives() -> None:
    mat = generate_instance("graphic", "additive", n=6, seed=5).matroid
    objectives = [
        {"kind": "coverage", "covers": [[], [0, 1], [], [2], [], [1]],
         "universe_weights": [0.75, 0.5, 1.25]},
        {"kind": "coverage", "covers": [[]] * 6, "universe_weights": [1.0]},
        {"kind": "coverage", "covers": [[0], [0, 1]] * 3, "universe_weights": [0.0, 0.0]},
        {"kind": "facility", "similarity": [[0.0] * 4] * 6},
        {"kind": "additive", "weights": [0.0] * 6},
    ]
    for objective in objectives:
        new, ref = _both_greedies(Instance(mat, objective))
        assert new == ref
        assert len(new[1]) == mat.rank()
    zero = [{"kind": "additive", "weights": [0.0] * 6}, objectives[1], objectives[3]]
    for objective in zero:
        assert _both_greedies(Instance(mat, objective))[0][0] == 0.0


def test_estimate_opt_rank_one_picks_the_best_singleton() -> None:
    matroid = LaminarMatroid(
        parents=[-1, 0, 0, 0],
        capacities=[1, 1, 1, 1],
        element_nodes=[1, 2, 3],
    )
    assert estimate_opt(AdditiveOracle([5.0, 3.0, 1.0]), matroid)[0] == 5.0


def test_estimate_opt_zero_function() -> None:
    matroid = LaminarMatroid(
        parents=[-1, 0, 0, 0],
        capacities=[1, 1, 1, 1],
        element_nodes=[1, 2, 3],
    )
    assert estimate_opt(AdditiveOracle([0.0, 0.0, 0.0]), matroid)[0] == 0.0


def test_estimate_opt_brackets_the_optimum() -> None:
    inst = generate_instance("laminar", "coverage", n=8, seed=23)
    m, _ = estimate_opt(inst.build_objective(), inst.matroid)
    opt, _ = brute_force_opt(inst.build_objective(), inst.matroid)
    r = inst.matroid.rank()
    assert opt / max(r, 1) - 1e-9 <= m <= opt + 1e-9
    assert m >= 0.5 * opt - 1e-9


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_estimate_opt_returns_its_heap_keys(objective) -> None:
    # the greedy pass's value and queries, plus each singleton's weight in
    # id order; on the grid f({e}) - f(()) is exact in any summation order
    for kind in KINDS:
        inst = _on_grid(generate_instance(kind, objective, n=30, seed=41))
        f, g = inst.build_objective(), inst.build_objective()
        m, singles = estimate_opt(f, inst.matroid)
        value, _ = greedy_basis_value(g, range(inst.n), inst.matroid.checker)
        assert (m, f.query_count) == (value, g.query_count)
        assert singles == [g.value((e,)) - g.value(()) for e in range(inst.n)]
