from __future__ import annotations

import gc
import weakref

import numpy as np

from matsub import kernels
from matsub.objectives import CoverageOracle


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


def _incidence(indptr, indices, universe: int) -> np.ndarray:
    dense = np.zeros((indptr.shape[0] - 1, universe))
    for e in range(indptr.shape[0] - 1):
        dense[e, indices[indptr[e] : indptr[e + 1]]] = 1.0
    return dense


def _slow_coverage_value(row, indptr, indices, weights) -> float:
    seen: set[int] = set()
    for e in np.flatnonzero(row):
        seen.update(indices[indptr[e] : indptr[e + 1]].tolist())
    return float(sum(weights[u] for u in seen))


def test_coverage_values_match_reference() -> None:
    rng = np.random.default_rng(2)
    indptr, indices, weights = _random_coverage(rng, 10, 15)
    sets = (rng.random((20, 10)) < 0.5).astype(np.uint8)
    got = kernels.coverage_values(sets, _incidence(indptr, indices, 15), weights)
    for row, value in zip(sets, got):
        assert np.isclose(value, _slow_coverage_value(row, indptr, indices, weights))


def _slow_coverage_marginal_means(sets, elems, indptr, indices, weights) -> np.ndarray:
    slow = np.zeros(len(elems))
    for qi, e in enumerate(elems):
        acc = 0.0
        for row in sets:
            plus = row.copy()
            plus[e] = 1
            minus = row.copy()
            minus[e] = 0
            acc += _slow_coverage_value(plus, indptr, indices, weights) - _slow_coverage_value(
                minus, indptr, indices, weights
            )
        slow[qi] = acc / len(sets)
    return slow


def test_coverage_marginal_means_match_reference() -> None:
    rng = np.random.default_rng(4)
    indptr, indices, weights = _random_coverage(rng, 8, 12)
    sets = (rng.random((30, 8)) < 0.4).astype(np.uint8)
    elems = np.array([0, 3, 7], dtype=np.int64)
    got = kernels.coverage_marginal_means(
        sets, elems, indptr, indices, _incidence(indptr, indices, 12), weights
    )
    assert np.allclose(got, _slow_coverage_marginal_means(sets, elems, indptr, indices, weights))


def test_coverage_kernels_handle_empty_covers_and_empty_rows() -> None:
    # element 1 covers nothing; row 0 selects nothing
    indptr = np.array([0, 2, 2, 4], dtype=np.int64)
    indices = np.array([0, 1, 1, 2], dtype=np.int64)
    weights = np.array([1.0, 2.0, 4.0])
    incidence = _incidence(indptr, indices, 3)
    sets = np.array([[0, 0, 0], [0, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=np.uint8)
    values = kernels.coverage_values(sets, incidence, weights)
    assert values.tolist() == [0.0, 0.0, 7.0, 6.0]
    elems = np.arange(3, dtype=np.int64)
    got = kernels.coverage_marginal_means(sets, elems, indptr, indices, incidence, weights)
    assert got[1] == 0.0
    assert np.allclose(got, _slow_coverage_marginal_means(sets, elems, indptr, indices, weights))


def test_facility_values_match_reference() -> None:
    rng = np.random.default_rng(6)
    sim = rng.uniform(0.0, 1.0, size=(9, 7))
    sets = (rng.random((25, 9)) < 0.5).astype(np.uint8)
    sets[0] = 0
    got = kernels.facility_values(sets, sim)
    assert got[0] == 0.0
    for row, value in zip(sets, got):
        idx = np.flatnonzero(row)
        want = sim[idx].max(axis=0).sum() if idx.size else 0.0
        assert np.isclose(value, want)


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
    got = kernels.facility_marginal_means(sets, elems, sim)
    assert np.allclose(got, _slow_facility_marginal_means(sets, elems, sim))


def test_facility_kernels_single_element() -> None:
    # n = 1: no runner-up exists, so removing the only element drops to zero
    sim = np.array([[0.5, 0.25, 1.0]])
    sets = np.array([[0], [1], [1]], dtype=np.uint8)
    assert kernels.facility_values(sets, sim).tolist() == [0.0, 1.75, 1.75]
    elems = np.array([0], dtype=np.int64)
    got = kernels.facility_marginal_means(sets, elems, sim)
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
