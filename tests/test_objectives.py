from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from matsub.instances import generate_instance, stream_rng
from matsub.objectives import (
    AdditiveOracle,
    CoverageOracle,
    FacilityLocationOracle,
    ResidualOracle,
    nested_subsets,
    sample_subsets,
    set_eval_threads,
)
from matsub import kernels
from matsub.core import greedy_basis_value
from reference import (
    CoveredMaskGains,
    counted_coverage_price,
    estimate_marginal_on_point,
    estimate_marginals_on_point,
    slow_coverage_marginal_means,
)


def _tiny_coverage() -> CoverageOracle:
    # universe {0, 1}; element 0 covers {0}, element 1 covers {1}, element 2 both
    return CoverageOracle([[0], [1], [0, 1]], [1.0, 1.0])


def test_coverage_values() -> None:
    f = _tiny_coverage()
    assert f.value(()) == 0.0
    assert f.value([0]) == 1.0
    assert f.value([0, 1]) == 2.0
    assert f.value([2]) == 2.0
    assert f.value([0, 1, 2]) == 2.0


@pytest.mark.parametrize("item", [0.5, 1.0, "0"])
def test_coverage_rejects_non_integer_item_ids(item) -> None:
    with pytest.raises(ValueError, match="integer"):
        CoverageOracle([[0], [item]], [1.0, 1.0])


NON_FINITE_INPUT = {
    "coverage": lambda bad: CoverageOracle([[0], [1]], [1.0, bad]),
    "facility": lambda bad: FacilityLocationOracle([[0.5, 0.25], [bad, 1.0]]),
    "additive": lambda bad: AdditiveOracle([2.0, bad, 1.0]),
}


@pytest.mark.parametrize("objective", sorted(NON_FINITE_INPUT))
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_oracles_reject_non_finite_input(objective: str, bad: float) -> None:
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_INPUT[objective](bad)
    NON_FINITE_INPUT[objective](0.75)


def test_batched_estimates_are_serial_only() -> None:
    set_eval_threads(1)
    with pytest.raises(ValueError):
        set_eval_threads(2)


def test_coverage_marginals_diminish() -> None:
    f = _tiny_coverage()
    assert f.value([2]) - f.value(()) == 2.0
    assert f.value([0, 2]) - f.value([0]) == 1.0
    assert f.value([0, 1, 2]) - f.value([0, 1]) == 0.0


def test_facility_location_values() -> None:
    sim = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    f = FacilityLocationOracle(sim)
    assert f.value([0]) == pytest.approx(1.0)
    assert f.value([0, 1]) == pytest.approx(1.7)
    assert f.value([0, 1, 2]) == pytest.approx(1.7)


def test_additive_values() -> None:
    f = AdditiveOracle([2.0, 3.0, 5.0])
    assert f.value([0, 2]) == pytest.approx(7.0)
    assert f.value([0, 1, 2]) - f.value([0, 2]) == pytest.approx(3.0)


def test_monotone_and_submodular_on_random_instances() -> None:
    rng = np.random.default_rng(3)
    for obj in ("coverage", "facility", "additive"):
        inst = generate_instance("laminar", obj, n=8, seed=17)
        f = inst.build_objective()
        for _ in range(40):
            mask = rng.random(inst.n) < 0.4
            small = [int(i) for i in np.flatnonzero(mask)]
            extra = [int(i) for i in np.flatnonzero(rng.random(inst.n) < 0.3)]
            big = sorted(set(small) | set(extra))
            outside = [e for e in range(inst.n) if e not in big]
            if not outside:
                continue
            e = int(rng.choice(outside))
            assert f.value(big) >= f.value(small) - 1e-9
            gain_small = f.value(small + [e]) - f.value(small)
            gain_big = f.value(big + [e]) - f.value(big)
            assert gain_small >= gain_big - 1e-9


def test_query_counting() -> None:
    f = _tiny_coverage()
    assert f.query_count == 0
    f.value([0])
    assert f.query_count == 1
    f.value([0, 2])
    f.value([0])
    assert f.query_count == 3
    f.batch_values(np.zeros((5, 3), dtype=np.uint8))
    assert f.query_count == 8
    rng = stream_rng(0, 0)
    sets = sample_subsets(np.array([0.5, 0.5, 0.5]), 4, rng)
    f.batch_marginal_means(sets, np.array([0, 2]))
    assert f.query_count == 8 + 2 * 4 * 2


def test_batch_values_match_singles() -> None:
    rng = np.random.default_rng(5)
    for obj in ("coverage", "facility", "additive"):
        inst = generate_instance("graphic", obj, n=9, seed=23)
        f = inst.build_objective()
        sets = (rng.random((12, inst.n)) < 0.5).astype(np.uint8)
        batch = f.batch_values(sets)
        for row, got in zip(sets, batch):
            assert got == pytest.approx(f.value(np.flatnonzero(row)))


def test_sample_subsets_marginal_frequencies() -> None:
    rng = stream_rng(42, 2)
    x = np.array([0.0, 0.25, 0.75, 1.0])
    draws = sample_subsets(x, 4000, rng)
    freq = draws.mean(axis=0)
    assert freq[0] == 0.0
    assert freq[3] == 1.0
    assert abs(freq[1] - 0.25) < 4 * np.sqrt(0.25 * 0.75 / 4000)
    assert abs(freq[2] - 0.75) < 4 * np.sqrt(0.25 * 0.75 / 4000)


def _exact_multilinear_marginal(f, x: np.ndarray, e: int) -> float:
    """E[f(R + e) - f(R - e)] for R ~ x, by enumerating the other coordinates."""
    rest = [i for i in range(len(x)) if i != e]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(rest)):
        prob = 1.0
        subset = []
        for i, b in zip(rest, bits):
            prob *= x[i] if b else 1.0 - x[i]
            if b:
                subset.append(i)
        total += prob * (f.value(subset + [e]) - f.value(subset))
    return total


def test_marginal_estimate_matches_exact_multilinear() -> None:
    inst = generate_instance("laminar", "coverage", n=7, seed=31)
    f = inst.build_objective()
    rng = stream_rng(9, 2)
    x = np.array([0.5, 0.2, 0.8, 0.0, 1.0, 0.4, 0.6])
    elems = np.arange(7)
    samples = 6000
    est = estimate_marginals_on_point(f, x, elems, samples, rng)
    for e in elems:
        exact = _exact_multilinear_marginal(f, x, int(e))
        # marginals are bounded by the max singleton value, crude sigma bound
        sigma = f.value([int(e)]) / np.sqrt(samples) + 1e-9
        assert abs(est[e] - exact) < 4 * sigma + 1e-6


def test_single_marginal_estimate_additive_is_exact() -> None:
    f = AdditiveOracle([1.5, 2.5, 3.5])
    rng = stream_rng(1, 2)
    x = np.array([0.3, 0.6, 0.9])
    got = estimate_marginal_on_point(f, 1, x, 50, rng)
    assert got == pytest.approx(2.5)


def test_residual_oracle_shifts_by_frozen_set() -> None:
    inst = generate_instance("transversal", "coverage", n=8, seed=13)
    base = inst.build_objective()
    frozen = [1, 4]
    res = ResidualOracle(base, frozen)
    offset = base.value(frozen)
    for trial in ([0], [2, 3], [5, 6, 7], []):
        want = base.value(sorted(set(trial) | set(frozen))) - offset
        assert res.value(trial) == pytest.approx(want)


def test_residual_oracle_counts_against_base() -> None:
    base = _tiny_coverage()
    res = ResidualOracle(base, [0])
    start = base.query_count
    res.value([1])
    assert base.query_count == start + 1
    assert res.query_count == base.query_count


@pytest.mark.parametrize("objective", ["coverage", "facility", "additive"])
def test_residual_oracle_rejects_bad_input_like_its_base(objective) -> None:
    inst = generate_instance("laminar", objective, n=8, seed=3)
    base = inst.build_objective()
    res = ResidualOracle(base, [1])
    rows = np.zeros((4, 8), dtype=np.uint8)
    start = base.query_count
    for oracle in (base, res):
        for bad in (-1, 8):
            with pytest.raises(ValueError, match="out of range"):
                oracle.batch_marginal_means(rows, [0, bad])
            with pytest.raises(ValueError, match="out of range"):
                oracle.value([0, bad])
        for shape in ((4, 7), (4, 9), (8,)):
            wrong = np.zeros(shape, dtype=np.uint8)
            with pytest.raises(ValueError, match="shape"):
                oracle.batch_values(wrong)
            with pytest.raises(ValueError, match="shape"):
                oracle.batch_marginal_means(wrong, [0])
    # rejected queries are not charged
    assert base.query_count == start
    res.batch_values(rows)
    res.batch_marginal_means(rows, [0, 7])
    assert res.counter is base.counter
    assert base.query_count == start + 4 + 2 * 4 * 2


def _bench_spans():
    """``pipebench/spans.py``, loaded by path: it is a script beside the
    package, not part of it."""
    path = Path(__file__).resolve().parent.parent / "pipebench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_sees_each_residual_batch_call_once() -> None:
    # the tracer reads every name it wraps from the owning class's own
    # dict, so building it fails with KeyError if one has gone
    spans = _bench_spans()
    tracer = spans.Tracer()
    base = generate_instance("laminar", "coverage", n=8, seed=3).build_objective()
    res = ResidualOracle(base, [1])
    rows = np.zeros((4, 8), dtype=np.uint8)
    with tracer.solve(0):
        res.batch_values(rows)
        res.batch_marginal_means(rows, [0, 7])
    names = [span[0] for span in tracer.spans]
    assert names == [spans.ROOT, "kernels.batch_values", spans.MEANS]


# -- one round's nested draw and the state kept over it ----------------------


def test_nested_draws_have_the_joint_law_of_one_uniform() -> None:
    rows = 4000
    x = np.array([0.0, 0.1, 0.3, 0.5, 0.8, 0.95, 1.0])
    step = 0.2
    high = np.minimum(1.0, x + step)
    lower, upper = nested_subsets(x, step, rows, stream_rng(8, 2))
    assert lower.dtype == upper.dtype == np.uint8
    assert lower.shape == upper.shape == (rows, x.shape[0])
    # lower inside upper, row by row: the pair is U < x and U < x + step
    assert not (lower & ~upper).any()
    for p, freq in ((x, lower.mean(axis=0)), (high, upper.mean(axis=0)),
                    (high - x, (upper & ~lower).mean(axis=0))):
        assert np.all(np.abs(freq - p) <= 4 * np.sqrt(p * (1 - p) / rows) + 1e-12)
    assert not lower[:, 0].any() and upper[:, -1].all() and lower[:, -1].all()
    with pytest.raises(ValueError, match="at least one sample"):
        nested_subsets(x, step, 0, stream_rng(8, 2))


def _random_rows_and_basis_walk(f, n, frozen, rng, steps, samples=40, idle=()):
    """Yield ``(state, rows)`` after each random insert, where ``rows`` is
    the round's matrix at the current basis built from scratch.  A round
    state only grows, so once its basis holds every free element the walk
    goes on over a fresh draw.  ``idle`` elements, like frozen ones, have
    ``x = 0``: no row holds one until it joins the basis."""
    free = [e for e in range(n) if e not in frozen]
    order: list[int] = []
    for _ in range(steps):
        if not order:
            x = rng.uniform(0.0, 0.8, size=n)
            x[list(frozen) + list(idle)] = 0.0
            lower, upper = nested_subsets(x, 0.25, samples, rng)
            state = f.round_state(lower, upper)
            in_b = np.zeros(n, dtype=np.uint8)
            order = rng.permutation(free).tolist()
        e = order.pop()
        state.insert(e)
        in_b[e] = 1
        yield state, lower | (upper & in_b)


def _objective(name: str, seed: int):
    """A generated objective; ``facility-ties`` puts the similarities on a
    quarter grid, so rows hold many tied top-1 and top-2 values."""
    inst = generate_instance("laminar", name.split("-")[0], n=11, seed=40 + seed)
    if name == "facility-ties":
        sim = np.asarray(inst.objective["similarity"])
        return FacilityLocationOracle(np.floor(sim * 4) / 4)
    return inst.build_objective()


@pytest.mark.parametrize("objective", ["coverage", "facility", "facility-ties", "additive"])
@pytest.mark.parametrize("frozen", [(), (2, 5)])
def test_round_state_prices_its_rows_after_inserts_and_deletes(objective, frozen) -> None:
    for seed in range(3):
        base = _objective(objective, seed)
        f = ResidualOracle(base, frozen) if frozen else base
        rng = np.random.default_rng(seed)
        mask = np.zeros(base.n, dtype=np.uint8)
        mask[list(frozen)] = 1
        for state, rows in _random_rows_and_basis_walk(f, base.n, frozen, rng, 30):
            assert np.array_equal(state.rows(), rows | mask)
            elems = rng.choice(base.n, size=int(rng.integers(1, base.n + 1)), replace=False)
            elems = elems[~state.in_basis[elems]]
            want = f.batch_marginal_means(rows, elems)
            before = f.query_count
            got = state.marginal_means(elems)
            assert f.query_count - before == 2 * rows.shape[0] * elems.shape[0]
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            before = f.query_count
            values = state.values()
            assert f.query_count - before == rows.shape[0]
            assert values == pytest.approx([f.value(np.flatnonzero(row)) for row in rows])


@pytest.mark.parametrize("objective", ["coverage", "facility"])
def test_contraction_draws_the_rows_round_state_gives(objective) -> None:
    frozen = (2, 5)
    for seed in range(3):
        base = _objective(objective, seed)
        f = ResidualOracle(base, frozen)
        x = np.random.default_rng(seed).uniform(0.0, 0.8, size=base.n)
        point = x.copy()
        drawn = f.sampled_round(x, 0.25, 40, np.random.default_rng(100 + seed))
        assert np.array_equal(x, point)
        want = f.round_state(*nested_subsets(x, 0.25, 40, np.random.default_rng(100 + seed)))
        assert drawn.samples == want.samples == 40
        assert drawn.offset == want.offset == base.value(frozen)
        for e in np.random.default_rng(seed).permutation(base.n).tolist():
            assert np.array_equal(drawn.rows(), want.rows())
            assert drawn.rows()[:, list(frozen)].all()
            assert drawn.price(e) == want.price(e)
            assert np.array_equal(drawn.values(), want.values())
            drawn.insert(e)
            want.insert(e)


@pytest.mark.parametrize("frozen", [(), (2, 5)])
def test_sampled_additive_round_draws_nothing_and_charges_per_sample(frozen) -> None:
    base = _objective("additive", 0)
    f = ResidualOracle(base, frozen) if frozen else base
    x = np.random.default_rng(1).uniform(0.0, 0.8, size=base.n)
    rng = np.random.default_rng(2)
    stream = rng.bit_generator.state
    state = f.sampled_round(x, 0.25, 17, rng)
    assert rng.bit_generator.state == stream
    assert state.samples == 17
    before = f.query_count
    assert state.price(4) == base.weights[4]
    assert f.query_count - before == 2 * 17
    state.insert(4)
    before = f.query_count
    assert np.array_equal(state.marginal_means([1, 5, 7]), base.weights[[1, 5, 7]])
    assert f.query_count - before == 2 * 17 * 3
    before = f.query_count
    for read in (state.values, state.rows):
        with pytest.raises(ValueError, match="drew no rows"):
            read()
    assert f.query_count == before
    with pytest.raises(ValueError, match="at least one sample"):
        f.sampled_round(x, 0.25, 0, rng)


@pytest.mark.parametrize("objective", ["coverage", "facility", "facility-ties", "additive"])
@pytest.mark.parametrize("frozen", [(), (2, 5)])
def test_one_element_price_matches_marginal_means(objective, frozen) -> None:
    for seed in range(3):
        base = _objective(objective, seed)
        f = ResidualOracle(base, frozen) if frozen else base
        rng = np.random.default_rng(10 + seed)
        for state, rows in _random_rows_and_basis_walk(f, base.n, frozen, rng, 30):
            summary = state._summary
            for e in np.flatnonzero(~state.in_basis).tolist():
                calls, prices, before = state.calls, state.prices, f.query_count
                got = state.price(e)
                assert f.query_count - before == 2 * rows.shape[0]
                # counted as a one-element price, not as a batch
                assert (state.calls, state.prices) == (calls, prices + 1)
                # it neither builds the pricing summary nor drops it
                assert state._summary is summary
                assert type(got) is float
                want = state.marginal_means([e])[0]
                summary = state._summary
                assert got == pytest.approx(want, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("objective", ["facility", "facility-ties"])
@pytest.mark.parametrize("frozen", [(), (2, 5)])
def test_facility_price_is_the_batch_formula_bit_for_bit(objective, frozen) -> None:
    # one element and a batch read the same class cumsums and add the pairs
    # an element tops in the same order, so a non-member's price is the
    # float a batch gives it, alone or among others
    for seed in range(3):
        base = _objective(objective, seed)
        f = ResidualOracle(base, frozen) if frozen else base
        rng = np.random.default_rng(30 + seed)
        for state, _rows in _random_rows_and_basis_walk(f, base.n, frozen, rng, 30):
            outside = np.flatnonzero(~state.in_basis)
            prices = [state.price(e) for e in outside]
            assert prices == [state.marginal_means([e])[0] for e in outside]
            assert prices == state.marginal_means(outside).tolist()


@pytest.mark.parametrize("objective", ["coverage", "facility", "facility-ties", "additive"])
@pytest.mark.parametrize("frozen", [(), (2, 5)])
def test_round_state_refuses_to_price_a_basis_member(objective, frozen) -> None:
    # a sweep prices an element only before it inserts it; pricing a member
    # raises before it charges a query or counts a call
    for seed in range(3):
        base = _objective(objective, seed)
        f = ResidualOracle(base, frozen) if frozen else base
        rng = np.random.default_rng(20 + seed)
        x = rng.uniform(0.0, 0.8, size=base.n)
        x[list(frozen)] = 0.0
        state = f.round_state(*nested_subsets(x, 0.25, 40, rng))
        for e in rng.permutation([v for v in range(base.n) if v not in frozen]).tolist():
            state.price(e)
            state.insert(e)
            before = (f.query_count, state.calls, state.prices)
            with pytest.raises(ValueError, match="outside its basis"):
                state.price(e)
            with pytest.raises(ValueError, match="outside its basis"):
                state.marginal_means([*np.flatnonzero(~state.in_basis)[:2], e])
            assert (f.query_count, state.calls, state.prices) == before


# -- coverage: per-item uncovered-row counts kept across basis changes -------


def _coverage_walk(frozen, samples, seed):
    """A coverage round state over ``samples`` rows, plain or contracted by
    ``frozen``, walked through random inserts; a third of the
    free elements are idle, so some elements are held by no row."""
    base = _objective("coverage", seed)
    f = ResidualOracle(base, frozen) if frozen else base
    idle = [e for e in range(base.n) if e % 3 == 1 and e not in frozen]
    rng = np.random.default_rng(30 + seed)
    return base, _random_rows_and_basis_walk(f, base.n, frozen, rng, 30, samples, idle)


@pytest.mark.parametrize("samples", [1, 7, 64])
@pytest.mark.parametrize("frozen", [(), (2, 5)])
def test_coverage_zero_counts_follow_inserts_and_deletes(samples, frozen) -> None:
    for seed in range(3):
        base, walk = _coverage_walk(frozen, samples, seed)
        for state, _rows in walk:
            fresh = (state.rows().astype(np.float64) @ base.incidence).T
            assert state.counts.dtype == np.uint8
            np.testing.assert_array_equal(state.counts, np.minimum(fresh, 2))
            np.testing.assert_array_equal(
                state.zeros, np.count_nonzero(state.counts == 0, axis=1)
            )


@pytest.mark.parametrize("samples", [1, 7, 64])
@pytest.mark.parametrize("frozen", [(), (2, 5)])
def test_coverage_one_counts_follow_inserts_and_deletes(samples, frozen) -> None:
    for seed in range(3):
        base, walk = _coverage_walk(frozen, samples, seed)
        for state, _rows in walk:
            np.testing.assert_array_equal(
                state.ones, np.count_nonzero(state.counts == 1, axis=1)
            )


def test_coverage_round_over_an_empty_lower_layer() -> None:
    # a first round: x = 0, so no row holds anything until the basis grows
    base = _objective("coverage", 0)
    samples = 9
    lower = np.zeros((samples, base.n), dtype=np.uint8)
    upper = (np.random.default_rng(3).random((samples, base.n)) < 0.25).astype(np.uint8)
    state = base.round_state(lower, upper)
    # its build multiplies nothing and leaves the incidence unbuilt
    assert "incidence" not in base.__dict__
    items = base.universe_weights.shape[0]
    np.testing.assert_array_equal(state.counts, np.zeros((items, samples)))
    np.testing.assert_array_equal(state.zeros, np.full(items, samples))
    np.testing.assert_array_equal(state.ones, np.zeros(items))
    # dtype for dtype what a build over the same rows gives
    fresh = kernels.coverage_counts(lower, base.incidence, lower.any(axis=0))
    zeros = np.count_nonzero(fresh == 0, axis=1)
    ones = np.count_nonzero(fresh == 1, axis=1)
    for got, want in ((state.counts, fresh), (state.zeros, zeros), (state.ones, ones)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    elems = np.arange(base.n)
    slow = slow_coverage_marginal_means(
        lower, elems, base.indptr, base.indices, base.universe_weights
    )
    np.testing.assert_allclose(state.marginal_means(elems), slow, rtol=0.0, atol=1e-12)
    # and the counts follow the rows as the basis grows
    for e in np.flatnonzero(upper.any(axis=0))[:3].tolist():
        state.insert(e)
        rows = state.rows()
        fresh = kernels.coverage_counts(rows, base.incidence, rows.any(axis=0))
        np.testing.assert_array_equal(state.counts, fresh)
        np.testing.assert_array_equal(state.ones, np.count_nonzero(fresh == 1, axis=1))
        for q in np.flatnonzero(~state.in_basis).tolist():
            assert state.price(q) == counted_coverage_price(state, q)


def test_coverage_marginal_means_on_an_unsorted_query_with_repeats() -> None:
    # elements the lower layer holds and elements no row holds, shuffled
    # and repeated: each position gets its element's price, the float a
    # sorted query without repeats gives it
    kinds = {"held": 0, "unheld": 0}
    for seed in range(3):
        base = _objective("coverage", seed)
        rng = np.random.default_rng(60 + seed)
        x = rng.uniform(0.0, 0.5, size=base.n)
        x[rng.permutation(base.n)[:4]] = 0.0
        state = base.round_state(*nested_subsets(x, 0.25, 30, rng))
        for e in rng.permutation(base.n)[:3].tolist():
            state.insert(e)
        assert state.ones.any()
        elems = np.concatenate([rng.permutation(base.n), rng.integers(0, base.n, size=base.n)])
        elems = elems[~state.in_basis[elems]]
        held = state.lower.any(axis=0)
        kinds["held"] += int(held[elems].sum())
        kinds["unheld"] += int((~held[elems]).sum())
        got = state.marginal_means(elems)
        slow = slow_coverage_marginal_means(
            state.rows(), elems, base.indptr, base.indices, base.universe_weights
        )
        np.testing.assert_allclose(got, slow, rtol=0.0, atol=1e-12)
        unique, back = np.unique(elems, return_inverse=True)
        np.testing.assert_array_equal(got, state.marginal_means(unique)[back])
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("kind", ["laminar", "graphic"])
def test_coverage_gains_are_the_covered_mask_sums_bit_for_bit(kind) -> None:
    # every gain of a whole greedy pass, on a generated instance and on
    # covers with empty and repeated entries
    inst = generate_instance(kind, "coverage", n=120, seed=9)
    hand = CoverageOracle(
        [[3, 1, 3], [], [0, 2, 4], [4], [], [1, 2, 3, 4, 0], [2, 2]],
        [0.1, 0.7, 1e-3, 2.5, 1 / 3],
    )
    for f, elements, checker in (
        (inst.build_objective(), range(inst.n), inst.matroid.checker),
        (hand, range(hand.n), lambda: _Uniform(4)),
    ):
        pair = _BothGains(f)
        greedy_basis_value(pair, list(elements), checker)
        assert pair.gains > len(elements)


class _Uniform:
    """Any ``rank`` elements are independent."""

    def __init__(self, rank: int) -> None:
        self.left = rank

    def test(self, elem: int) -> bool:
        return self.left > 0

    def insert(self, elem: int) -> None:
        self.left -= 1


class _BothGains:
    """A coverage oracle whose incremental state checks every gain against
    :class:`CoveredMaskGains` on the same set."""

    def __init__(self, f: CoverageOracle) -> None:
        self.f = f
        self.gains = 0

    def value(self, subset) -> float:
        return self.f.value(subset)

    def incremental(self) -> "_BothGains":
        self.state, self.old = self.f.incremental(), CoveredMaskGains(self.f)
        return self

    def gain(self, elem: int) -> float:
        got = self.state.gain(elem)
        assert type(got) is float and got == self.old.gain(elem)
        self.gains += 1
        return got

    def add(self, elem: int) -> None:
        self.state.add(elem)
        self.old.add(elem)


def test_coverage_prices_on_rows_that_cover_every_item_twice() -> None:
    # elements e and e + 4 share a cover, and every row holds 0..7, so each
    # item is covered at least twice everywhere and no marginal can move;
    # 8 is held by some rows and joins the basis, 9 by none
    rng = np.random.default_rng(5)
    halves = [[0, 1, 2], [2, 3], [4, 5, 6], [0, 6, 7]]
    covers = halves + halves + [[1, 4], [3, 5, 7]]
    weights = rng.uniform(0.1, 2.0, size=8)
    f = CoverageOracle(covers, weights)
    samples = 12
    lower = np.ones((samples, 10), dtype=np.uint8)
    lower[:, 8] = rng.random(samples) < 0.5
    lower[:, 9] = 0
    upper = lower.copy()
    upper[:, 8] = 1
    state = f.round_state(lower, upper)
    for step in range(2):
        elems = np.flatnonzero(~state.in_basis)
        assert (state.counts >= 2).all()
        np.testing.assert_array_equal(state.zeros, np.zeros(8))
        np.testing.assert_array_equal(state.ones, np.zeros(8))
        held = state.rows()[:, elems].any(axis=0)
        assert np.array_equal(held, elems != 9)
        slow = slow_coverage_marginal_means(state.rows(), elems, f.indptr, f.indices, weights)
        got = state.marginal_means(elems)
        np.testing.assert_array_equal(got, np.zeros(elems.shape[0]))
        np.testing.assert_array_equal(got, slow)
        assert [state.price(e) for e in elems] == [0.0] * elems.shape[0]
        if step == 0:
            state.insert(8)


@pytest.mark.parametrize("samples", [1, 7, 64])
@pytest.mark.parametrize("frozen", [(), (2, 5)])
def test_coverage_price_is_the_count_formula_bit_for_bit(samples, frozen) -> None:
    for seed in range(3):
        base, walk = _coverage_walk(frozen, samples, seed)
        for state, _rows in walk:
            for e in np.flatnonzero(~state.in_basis).tolist():
                assert state.price(e) == counted_coverage_price(state, e)


@pytest.mark.parametrize("samples", [1, 7, 64])
@pytest.mark.parametrize("frozen", [(), (2, 5)])
def test_coverage_marginal_means_on_held_and_unheld_elements(samples, frozen) -> None:
    seen = {True: 0, False: 0}
    for seed in range(3):
        base, walk = _coverage_walk(frozen, samples, seed)
        for state, _rows in walk:
            elems = np.flatnonzero(~state.in_basis)
            held = state.rows()[:, elems].any(axis=0)
            seen[True] += int(held.sum())
            seen[False] += int((~held).sum())
            got = state.marginal_means(elems)
            prices = [state.price(e) for e in elems]
            slow = slow_coverage_marginal_means(
                state.rows(), elems, base.indptr, base.indices, base.universe_weights
            )
            np.testing.assert_allclose(got, prices, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(got, slow, rtol=0.0, atol=1e-12)
    assert seen[True] and seen[False]


@pytest.mark.parametrize("objective", ["coverage", "facility", "additive"])
def test_one_element_price_rejects_bad_ids(objective) -> None:
    f = _objective(objective, 0)
    lower, upper = nested_subsets(np.full(f.n, 0.3), 0.2, 6, stream_rng(1, 2))
    state = f.round_state(lower, upper)
    start = f.query_count
    for bad in (-1, f.n, f.n + 7):
        with pytest.raises(ValueError, match="out of range"):
            state.price(bad)
    assert f.query_count == start
    assert (state.calls, state.prices) == (0, 0)


def test_round_state_rejects_bad_updates_and_ids() -> None:
    f = _tiny_coverage()
    lower, upper = nested_subsets(np.array([0.2, 0.4, 0.0]), 0.3, 6, stream_rng(1, 2))
    state = f.round_state(lower, upper)
    state.insert(1)
    with pytest.raises(ValueError, match="already"):
        state.insert(1)
    start = f.query_count
    with pytest.raises(ValueError, match="out of range"):
        state.marginal_means([0, 3])
    assert f.query_count == start
    # only pricings of at least one element count as calls
    state.marginal_means([])
    assert state.calls == 0
    state.marginal_means([0, 2])
    state.marginal_means([2])
    assert (state.calls, state.prices) == (2, 0)
    with pytest.raises(ValueError, match="shape"):
        f.round_state(lower[:, :2], upper[:, :2])
