from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from matsub import kernels
from matsub.objectives import (
    CoverageOracle,
    FacilityLocationOracle,
    ResidualOracle,
    nested_subsets,
)
from reference import (
    class_histogram_facility_means,
    loop_coverage_marginal_means,
    slow_coverage_marginal_means,
    slow_coverage_value,
    tensor_facility_marginal_means,
    tensor_facility_values,
)


def _random_coverage(rng: np.random.Generator, n: int, universe: int):
    covers = []
    for _ in range(n):
        deg = int(rng.integers(0, universe + 1))
        covers.append(np.sort(rng.choice(universe, size=deg, replace=False)))
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, c in enumerate(covers):
        indptr[i + 1] = indptr[i] + len(c)
    indices = (
        np.concatenate(covers).astype(np.int64) if indptr[-1] else np.zeros(0, dtype=np.int64)
    )
    weights = rng.uniform(0.1, 2.0, size=universe)
    return indptr, indices, weights


def _coverage(indptr, indices, weights) -> CoverageOracle:
    n = indptr.shape[0] - 1
    return CoverageOracle([indices[indptr[e] : indptr[e + 1]] for e in range(n)], weights)


def _incidence(indptr, indices, universe: int) -> np.ndarray:
    dense = np.zeros((indptr.shape[0] - 1, universe))
    for e in range(indptr.shape[0] - 1):
        dense[e, indices[indptr[e] : indptr[e + 1]]] = 1.0
    return dense


def test_coverage_values_match_reference() -> None:
    rng = np.random.default_rng(2)
    indptr, indices, weights = _random_coverage(rng, 10, 15)
    sets = (rng.random((20, 10)) < 0.5).astype(np.uint8)
    got = _coverage(indptr, indices, weights).batch_values(sets)
    for row, value in zip(sets, got):
        assert np.isclose(value, slow_coverage_value(row, indptr, indices, weights))


def test_coverage_marginal_means_match_reference() -> None:
    rng = np.random.default_rng(4)
    indptr, indices, weights = _random_coverage(rng, 8, 12)
    sets = (rng.random((30, 8)) < 0.4).astype(np.uint8)
    elems = np.array([0, 3, 7], dtype=np.int64)
    got = _coverage(indptr, indices, weights).batch_marginal_means(sets, elems)
    assert np.allclose(got, slow_coverage_marginal_means(sets, elems, indptr, indices, weights))


def test_coverage_kernels_handle_empty_covers_and_empty_rows() -> None:
    # element 1 covers nothing; row 0 selects nothing
    indptr = np.array([0, 2, 2, 4], dtype=np.int64)
    indices = np.array([0, 1, 1, 2], dtype=np.int64)
    weights = np.array([1.0, 2.0, 4.0])
    oracle = _coverage(indptr, indices, weights)
    sets = np.array([[0, 0, 0], [0, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=np.uint8)
    values = oracle.batch_values(sets)
    assert values.tolist() == [0.0, 0.0, 7.0, 6.0]
    elems = np.arange(3, dtype=np.int64)
    got = oracle.batch_marginal_means(sets, elems)
    assert got[1] == 0.0
    assert np.allclose(got, slow_coverage_marginal_means(sets, elems, indptr, indices, weights))


def _slow_facility_values(sets, sim) -> np.ndarray:
    return np.array([sim[np.flatnonzero(row)].max(axis=0).sum() if row.any() else 0.0
                     for row in sets])


def test_facility_values_match_reference() -> None:
    rng = np.random.default_rng(6)
    sim = rng.uniform(0.0, 1.0, size=(9, 7))
    sets = (rng.random((25, 9)) < 0.5).astype(np.uint8)
    sets[0] = 0
    got = FacilityLocationOracle(sim).batch_values(sets)
    assert got[0] == 0.0
    assert np.allclose(got, _slow_facility_values(sets, sim))


def _slow_facility_marginal_means(sets, elems, sim) -> np.ndarray:
    slow = np.zeros(len(elems))
    for qi, e in enumerate(elems):
        acc = 0.0
        for row in sets:
            plus = row.copy()
            plus[e] = 1
            minus = row.copy()
            minus[e] = 0
            ip = np.flatnonzero(plus)
            im = np.flatnonzero(minus)
            vp = sim[ip].max(axis=0).sum() if ip.size else 0.0
            vm = sim[im].max(axis=0).sum() if im.size else 0.0
            acc += vp - vm
        slow[qi] = acc / len(sets)
    return slow


def test_facility_marginal_means_match_reference() -> None:
    rng = np.random.default_rng(8)
    sim = rng.uniform(0.0, 1.0, size=(6, 5))
    sets = (rng.random((40, 6)) < 0.5).astype(np.uint8)
    sets[0] = 0
    elems = np.arange(6, dtype=np.int64)
    got = FacilityLocationOracle(sim).batch_marginal_means(sets, elems)
    assert np.allclose(got, _slow_facility_marginal_means(sets, elems, sim))


def test_facility_kernels_single_element() -> None:
    # n = 1: no runner-up exists, so removing the only element drops to zero
    sim = np.array([[0.5, 0.25, 1.0]])
    sets = np.array([[0], [1], [1]], dtype=np.uint8)
    oracle = FacilityLocationOracle(sim)
    assert oracle.batch_values(sets).tolist() == [0.0, 1.75, 1.75]
    elems = np.array([0], dtype=np.int64)
    got = oracle.batch_marginal_means(sets, elems)
    assert got.tolist() == [1.75]
    assert np.allclose(got, _slow_facility_marginal_means(sets, elems, sim))


def test_backend_report() -> None:
    assert kernels.active_backend() == "numpy"


def test_coverage_incidence_is_freed_with_its_oracle() -> None:
    oracle = CoverageOracle([[0, 1], [], [1, 2]], [1.0, 2.0, 4.0])
    sets = np.array([[1, 0, 1]], dtype=np.uint8)
    assert oracle.batch_values(sets).tolist() == [7.0]
    assert oracle.incidence.tolist() == [[1, 1, 0], [0, 0, 0], [0, 1, 1]]
    ref = weakref.ref(oracle.incidence)
    del oracle
    gc.collect()
    assert ref() is None


def test_facility_kernels_on_tied_similarities() -> None:
    # similarities on a quarter grid, so every sum is exact and ties are
    # common: elements 1 and 4 repeat 0 and 3, and client 2 sees only zeros
    rng = np.random.default_rng(10)
    sim = rng.integers(0, 5, size=(7, 6)) / 4.0
    sim[1] = sim[0]
    sim[4] = sim[3]
    sim[:, 2] = 0.0
    sets = (rng.random((40, 7)) < 0.5).astype(np.uint8)
    sets[:5, :2] = 1  # queried 0 ties for the top-1 with member 1
    elems = np.arange(7, dtype=np.int64)
    oracle = FacilityLocationOracle(sim)
    np.testing.assert_array_equal(oracle.batch_values(sets), _slow_facility_values(sets, sim))
    np.testing.assert_array_equal(
        oracle.batch_marginal_means(sets, elems),
        _slow_facility_marginal_means(sets, elems, sim),
    )


def test_facility_marginal_means_when_the_queried_element_tops_a_tie() -> None:
    # 0 and 1 have equal similarities, so neither adds anything to a row
    # that holds the other, whichever of the two the kernel takes as the top-1
    sim = np.array([[1.0, 0.5], [1.0, 0.5], [0.25, 0.75]])
    sets = np.array([[1, 1, 0], [1, 0, 0], [1, 1, 1]], dtype=np.uint8)
    elems = np.array([0, 1, 2], dtype=np.int64)
    got = FacilityLocationOracle(sim).batch_marginal_means(sets, elems)
    np.testing.assert_array_equal(got, _slow_facility_marginal_means(sets, elems, sim))
    assert got.tolist() == [0.5, 0.0, 0.25]


def test_coverage_marginal_means_by_cover_multiplicity() -> None:
    # items of weight k/4 covered by zero, one and several row members
    rng = np.random.default_rng(12)
    incidence = (rng.random((9, 14)) < 0.35).astype(np.float64)
    incidence[:, 13] = 0.0  # an item nobody covers
    indptr = np.concatenate([[0], np.cumsum(incidence.sum(axis=1))]).astype(np.int64)
    indices = np.nonzero(incidence)[1].astype(np.int64)
    weights = rng.integers(1, 8, size=14) / 4.0
    sets = (rng.random((50, 9)) < 0.3).astype(np.uint8)
    counts = sets @ incidence
    assert (counts == 0).any() and (counts == 1).any() and (counts >= 2).any()
    elems = np.arange(9, dtype=np.int64)
    np.testing.assert_array_equal(
        _coverage(indptr, indices, weights).batch_marginal_means(sets, elems),
        slow_coverage_marginal_means(sets, elems, indptr, indices, weights),
    )


def test_coverage_counts_are_exact_where_counts_are_large() -> None:
    # every element covers item 0 and the even ones item 1, over full rows:
    # counts up to 3001, odd and past 2048, which no float16 result holds,
    # capped at 2 like every count
    n, s = 3001, 4
    oracle = CoverageOracle([[0, 1] if e % 2 == 0 else [0] for e in range(n)], [1.0, 2.0])
    sets = np.ones((s, n), dtype=np.uint8)
    sets[1, ::3] = 0
    want = sets.astype(np.int64) @ oracle.incidence.astype(np.int64)
    assert want.max() == n
    counts = kernels.coverage_counts(sets, oracle.incidence, sets.any(axis=0))
    assert counts.dtype == np.uint8
    np.testing.assert_array_equal(counts, np.minimum(want.T, 2))
    state = oracle.round_state(sets, sets)
    assert state.counts.dtype == np.uint8
    np.testing.assert_array_equal(state.counts, np.minimum(want.T, 2))


def _check_capped_round(state, oracle, elems) -> None:
    """A coverage round's counts, zeros, ones and prices against counts
    built afresh from its rows in int64 and prices summed row by row; the
    weights are multiples of 1/4, so every sum is exact in any order."""
    rows = state.rows()
    brute = (rows.astype(np.int64) @ oracle.incidence.astype(np.int64)).T
    np.testing.assert_array_equal(state.counts, np.minimum(brute, 2))
    np.testing.assert_array_equal(state.zeros, np.count_nonzero(brute == 0, axis=1))
    np.testing.assert_array_equal(state.ones, np.count_nonzero(brute == 1, axis=1))
    slow = slow_coverage_marginal_means(
        rows, elems, oracle.indptr, oracle.indices, oracle.universe_weights
    )
    np.testing.assert_array_equal(state.marginal_means(elems), slow)
    np.testing.assert_array_equal([state.price(e) for e in elems], slow)


def test_capped_counts_past_int16_and_uint8() -> None:
    # build path: every element covers item 0 and the even ones item 1, so
    # row 0, which holds them all, covers item 0 more than 2**15 times;
    # rows 1 and 2 leave items at counts 0, 1 and 2
    n = 2**15 + 3
    covers = [[0, 1] if e % 2 == 0 else [0] for e in range(n)]
    covers[5], covers[7], covers[9] = [0, 2], [0, 3], [0, 3]
    oracle = CoverageOracle(covers, [0.25, 0.5, 1.75, 1.0])
    sets = np.zeros((3, n), dtype=np.uint8)
    sets[0] = 1
    sets[1, [5, 7]] = 1
    sets[2, 4] = 1
    state = oracle.round_state(sets, sets)
    assert state.counts.dtype == np.uint8
    assert (sets.astype(np.int64) @ oracle.incidence.astype(np.int64)).max() > 2**15
    _check_capped_round(state, oracle, np.array([4, 5, 7, 9, n - 1]))

    # insert path: 300 inserts, each onto item 0 in rows 0 and 1, which
    # a uint8 count would wrap at the 256th
    n = 306
    covers = [[0, 1] if e % 3 == 0 else [0] for e in range(n)]
    covers[301] = [2]
    oracle = CoverageOracle(covers, [0.75, 1.25, 0.5])
    lower = np.zeros((3, n), dtype=np.uint8)
    lower[2, 300:] = 1
    upper = lower.copy()
    upper[:2] = 1
    upper[2, :300:2] = 1
    state = oracle.round_state(lower, upper)
    for e in range(300):
        state.insert(e)
        if e in (0, 1, 2, 254, 255, 256, 299):
            _check_capped_round(state, oracle, np.arange(300, n))


def test_coverage_round_build_keeps_no_wide_count_copy() -> None:
    # the counts are the one (universe, s) array a build keeps besides the
    # float32 product; an int32 copy of it would exceed the bound
    s, n, universe = 256, 400, 4000
    rng = np.random.default_rng(20)
    covers = [rng.choice(universe, size=int(rng.integers(1, 100)), replace=False)
              for _ in range(n)]
    oracle = CoverageOracle(covers, rng.uniform(0.1, 2.0, size=universe))
    sets = (rng.random((s, n)) < 0.3).astype(np.uint8)
    sets[:, 100:] = 0
    held = np.count_nonzero(sets.any(axis=0))
    oracle.incidence  # built once per instance, before any round
    tracemalloc.start()
    try:
        oracle.round_state(sets, sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * universe * s + 4 * held * universe + 5 * s * held, peak


@pytest.mark.parametrize("s, n, cohort", [(1, 5, 5), (7, 5, 1), (6, 1, 1), (1, 1, 1)])
def test_batch_kernels_at_edge_shapes(s: int, n: int, cohort: int) -> None:
    rng = np.random.default_rng(100 * s + n)
    sets = (rng.random((s, n)) < 0.5).astype(np.uint8)
    elems = rng.choice(n, size=cohort, replace=False).astype(np.int64)
    sim = rng.integers(0, 5, size=(n, 4)) / 4.0
    oracle = FacilityLocationOracle(sim)
    np.testing.assert_array_equal(oracle.batch_values(sets), _slow_facility_values(sets, sim))
    np.testing.assert_array_equal(
        oracle.batch_marginal_means(sets, elems),
        _slow_facility_marginal_means(sets, elems, sim),
    )
    indptr, indices, weights = _random_coverage(rng, n, 6)
    assert np.allclose(
        _coverage(indptr, indices, weights).batch_marginal_means(sets, elems),
        slow_coverage_marginal_means(sets, elems, indptr, indices, weights),
        rtol=0.0, atol=1e-12,
    )


def test_batch_kernels_match_the_dense_mirrors() -> None:
    rng = np.random.default_rng(14)
    s, n, width = 60, 50, 100
    sets = (rng.random((s, n)) < 0.3).astype(np.uint8)
    elems = rng.choice(n, size=30, replace=False).astype(np.int64)
    sim = rng.uniform(0.0, 1.0, size=(n, width))
    oracle = FacilityLocationOracle(sim)
    np.testing.assert_array_equal(oracle.batch_values(sets), tensor_facility_values(sets, sim))
    assert np.allclose(
        oracle.batch_marginal_means(sets, elems),
        tensor_facility_marginal_means(sets, elems, sim),
        rtol=0.0, atol=1e-12,
    )
    indptr, indices, weights = _random_coverage(rng, n, width)
    incidence = _incidence(indptr, indices, width)
    assert np.allclose(
        _coverage(indptr, indices, weights).batch_marginal_means(sets, elems),
        loop_coverage_marginal_means(sets, elems, indptr, indices, incidence, weights),
        rtol=0.0, atol=1e-12,
    )


def test_facility_kernels_never_build_the_sample_tensor() -> None:
    # one (s, n, clients) float64 array is 128 MB at these shapes
    s, n, clients = 200, 200, 400
    rng = np.random.default_rng(16)
    sim = rng.uniform(0.0, 1.0, size=(n, clients))
    sets = (rng.random((s, n)) < 0.5).astype(np.uint8)
    elems = np.arange(n, dtype=np.int64)
    oracle = FacilityLocationOracle(sim)
    cap = 32 * 2**20
    for entry, args in (
        (oracle.batch_marginal_means, (sets, elems)),
        (oracle.batch_values, (sets,)),
    ):
        tracemalloc.start()
        try:
            entry(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cap, (entry.__name__, peak)


def test_coverage_marginal_means_build_no_row_summary() -> None:
    # one (s, universe) float64 array is 8 MB at these shapes; an element no
    # row holds is priced from its cover alone
    s, n, universe = 256, 400, 4000
    rng = np.random.default_rng(18)
    covers = [rng.choice(universe, size=int(rng.integers(1, 100)), replace=False)
              for _ in range(n)]
    oracle = CoverageOracle(covers, rng.uniform(0.1, 2.0, size=universe))
    sets = (rng.random((s, n)) < 0.3).astype(np.uint8)
    sets[:, : n // 2] = 0
    state = oracle.round_state(sets, sets)
    elems = np.arange(n // 2, dtype=np.int64)
    assert not state.rows()[:, elems].any()
    tracemalloc.start()
    try:
        got = state.marginal_means(elems)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < s * universe * 8, peak
    np.testing.assert_allclose(got, [state.price(e) for e in elems], rtol=0.0, atol=1e-12)


def test_facility_price_after_an_insert_reads_no_row_block() -> None:
    # one (s, clients) float64 array is 8 MB at these shapes; a price reads
    # the class cumsums at the element's classes and the rows that hold it
    s, n, clients = 256, 60, 4000
    rng = np.random.default_rng(19)
    oracle = FacilityLocationOracle(rng.uniform(0.0, 1.0, size=(n, clients)))
    state = oracle.round_state(*nested_subsets(rng.uniform(0.0, 0.3, n), 0.2, s, rng))
    state.price(0)
    state.insert(1)
    tracemalloc.start()
    try:
        state.price(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < s * clients * 8, peak


# ---------------------------------------------------------------------------
# facility batch pricing from the round state's class histogram against
# counts and cumsums rebuilt by brute force from its top-2 statistics


def _with_zero_row(sim: np.ndarray) -> np.ndarray:
    return np.vstack([sim, np.zeros((1, sim.shape[1]))])


def _tied_similarity(
    rng: np.random.Generator, n: int, clients: int, grid: int = 4
) -> np.ndarray:
    # values on a grid of 1/grid, so ties are common: two duplicated rows,
    # an all-zero client (column 3) and some -0.0 entries.  Quarter-grid
    # sums are exact; on a grid of sevenths, rows tied with the queried
    # similarity change the rounding if pricing counts them below it.
    sim = rng.integers(0, grid + 1, size=(n, clients)) / grid
    sim[1] = sim[0]
    sim[n - 1] = sim[2]
    sim[:, 3] = 0.0
    sim[rng.random((n, clients)) < 0.15] = -0.0
    return sim


def _assert_prices_as_class_histogram(state, sim: np.ndarray, elems: np.ndarray) -> None:
    top1, arg1, top2 = state.top
    # every top-1 is the similarity of its argmax, the appended zero for n
    np.testing.assert_array_equal(top1, np.take_along_axis(_with_zero_row(sim), arg1, axis=0))
    want = class_histogram_facility_means(top1, arg1, top2, elems, sim)
    np.testing.assert_array_equal(state.marginal_means(elems), want)


def test_similarity_ranks_count_the_entries_strictly_below() -> None:
    rng = np.random.default_rng(20)
    sim = _tied_similarity(rng, 9, 7)
    assert np.signbit(sim[sim == 0.0]).any()
    slot, values = FacilityLocationOracle(sim).ranks
    ext = _with_zero_row(sim)
    width = ext.shape[0]
    assert slot.dtype == np.intp and slot.shape == ext.shape
    assert values.shape == ext.T.shape
    for c in range(sim.shape[1]):
        for e in range(width):
            rank = slot[e, c] - c * width
            assert rank == np.count_nonzero(ext[:, c] < ext[e, c])
            # an entry's class holds its value
            assert values[c, rank] == ext[e, c]
        np.testing.assert_array_equal(values[c], np.sort(ext[:, c]))


@pytest.mark.parametrize("grid", [4, 7])
@pytest.mark.parametrize("seed", [22, 23, 24])
def test_rank_pricing_matches_searchsorted_on_tied_similarities(seed: int, grid: int) -> None:
    rng = np.random.default_rng(seed)
    n = 12
    sim = _tied_similarity(rng, n, 9, grid)
    sets = (rng.random((40, n)) < 0.4).astype(np.uint8)
    sets[:6, :2] = 1  # the duplicated rows 0 and 1 share these rows
    sets[6] = 0
    state = FacilityLocationOracle(sim).round_state(sets, sets)
    _assert_prices_as_class_histogram(state, sim, np.arange(n, dtype=np.int64))
    _assert_prices_as_class_histogram(state, sim, np.array([3, 0, 3, n - 1], dtype=np.int64))


@pytest.mark.parametrize("grid", [4, 7, None])
def test_rank_pricing_matches_searchsorted_through_inserts_and_deletes(grid) -> None:
    rng = np.random.default_rng(26 if grid is None else 26 + grid)
    n, clients = 15, 11
    sim = rng.uniform(0.0, 1.0, (n, clients)) if grid is None else _tied_similarity(
        rng, n, clients, grid)
    # a round state only grows: over three draws every element joins, in
    # random order
    for _ in range(3):
        x = rng.uniform(0.0, 0.6, n)
        state = FacilityLocationOracle(sim).round_state(*nested_subsets(x, 0.3, 30, rng))
        for elem in rng.permutation(n).tolist():
            state.insert(elem)
            elems = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            # a round state prices only elements outside its basis
            elems = elems[~state.in_basis[elems]]
            _assert_prices_as_class_histogram(state, sim, elems.astype(np.int64))


def test_rank_pricing_matches_searchsorted_under_frozen_columns() -> None:
    rng = np.random.default_rng(28)
    n = 14
    sim = _tied_similarity(rng, n, 8, 7)
    residual = ResidualOracle(FacilityLocationOracle(sim), [0, 5, 9])
    state = residual.round_state(*nested_subsets(rng.uniform(0.0, 0.5, n), 0.25, 32, rng))
    elems = np.arange(n, dtype=np.int64)
    _assert_prices_as_class_histogram(state, sim, elems)
    for elem in (2, 7, 5, 11):
        state.insert(elem)
        _assert_prices_as_class_histogram(state, sim, np.flatnonzero(~state.in_basis))
