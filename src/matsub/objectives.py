"""Monotone submodular objectives and multilinear-extension sampling.

Three families cover everything the generator emits: weighted coverage,
facility location, and additive.  Every oracle counts queries: ``value`` is
one query, ``marginal`` two, a batch over ``s`` sampled sets is ``s`` queries
and a batched marginal estimate ``2*s`` per queried element.  An
``incremental()`` state prices ``f(S + e) - f(S)`` for a growing ``S`` at one
query each.  Budget instrumentation everywhere else trusts these counts.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import kernels


def set_eval_threads(count: int) -> None:
    """Batched estimates run serially; only a count of 1 is accepted."""
    if count != 1:
        raise ValueError("batched estimates are serial: thread count must be 1")


class QueryCounter:
    """Running total of value-oracle queries, shared by an oracle and its
    contractions so one count covers every phase."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class ValueOracle:
    """Base class: query counting, input checks and the batch entry points."""

    kind = "abstract"

    def __init__(self, n: int, counter: QueryCounter | None = None) -> None:
        if n <= 0:
            raise ValueError("ground set must be nonempty")
        self.n = n
        self.counter = QueryCounter() if counter is None else counter

    @property
    def query_count(self) -> int:
        return self.counter.count

    # -- single-set queries -------------------------------------------------

    def value(self, subset: Iterable[int]) -> float:
        self.counter.count += 1
        return self._value(self._as_indices(subset))

    def marginal(self, elem: int, subset: Iterable[int]) -> float:
        """f(S + e) - f(S), counted as two queries."""
        base = self._as_indices(subset)
        self._in_range(np.asarray([elem], dtype=np.int64))
        with_e = np.append(base, np.int64(elem)) if elem not in set(base.tolist()) else base
        self.counter.count += 2
        return self._value(with_e) - self._value(base)

    def incremental(self) -> "_Increment":
        """Gain state for a set that grows from empty, as the greedy pass
        builds it; each ``gain`` is counted as one value query."""
        raise NotImplementedError

    # -- batched queries ----------------------------------------------------

    def batch_values(self, sets: np.ndarray) -> np.ndarray:
        """Values for each row of an ``(s, n)`` uint8 subset matrix."""
        rows = self._as_rows(sets)
        self.counter.count += rows.shape[0]
        return self._batch_values(rows)

    def batch_marginal_means(self, sets: np.ndarray, elems: Sequence[int]) -> np.ndarray:
        """Mean of f(R+e) - f(R-e) over the rows of ``sets``, per element.

        Costs ``2 * len(elems) * rows`` queries: each sampled marginal is two
        value queries.
        """
        rows = self._as_rows(sets)
        q = self._in_range(np.asarray(elems, dtype=np.int64))
        self.counter.count += 2 * rows.shape[0] * q.shape[0]
        if q.size == 0:
            return np.zeros(0, dtype=np.float64)
        return self._batch_marginal_means(rows, q)

    # -- input checks -------------------------------------------------------

    def _as_rows(self, sets: np.ndarray) -> np.ndarray:
        if sets.ndim != 2 or sets.shape[1] != self.n:
            raise ValueError("subset matrix shape mismatch")
        return np.ascontiguousarray(sets, dtype=np.uint8)

    def _in_range(self, idx: np.ndarray) -> np.ndarray:
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError("element id out of range")
        return idx

    def _as_indices(self, subset: Iterable[int]) -> np.ndarray:
        return self._in_range(np.fromiter(subset, dtype=np.int64))

    # -- per-objective evaluation -------------------------------------------

    def _value(self, idx: np.ndarray) -> float:
        raise NotImplementedError

    def _batch_values(self, sets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _batch_marginal_means(self, sets: np.ndarray, elems: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class _Increment:
    """``f(S + e) - f(S)`` for a set ``S`` that only grows.

    ``gain`` costs what a subclass's per-element update costs, not a value
    query over the whole of ``S``; it still counts as one query.
    """

    def __init__(self, counter: QueryCounter) -> None:
        self.counter = counter

    def gain(self, elem: int) -> float:
        self.counter.count += 1
        return self._gain(elem)

    def _gain(self, elem: int) -> float:
        raise NotImplementedError

    def add(self, elem: int) -> None:
        """Put ``elem`` into ``S``."""


class _CoverageIncrement(_Increment):
    """A covered-item mask; a gain reads only the element's own items."""

    def __init__(self, oracle: "CoverageOracle") -> None:
        super().__init__(oracle.counter)
        self.oracle = oracle
        self.covered = np.zeros(oracle.universe_weights.shape[0], dtype=bool)

    def _items(self, elem: int) -> np.ndarray:
        return self.oracle.indices[self.oracle.indptr[elem]:self.oracle.indptr[elem + 1]]

    def _gain(self, elem: int) -> float:
        items = self._items(elem)
        return float(self.oracle.universe_weights[items[~self.covered[items]]].sum())

    def add(self, elem: int) -> None:
        self.covered[self._items(elem)] = True


class _FacilityIncrement(_Increment):
    """The best similarity per client; a gain is one pass over the clients."""

    def __init__(self, oracle: "FacilityLocationOracle") -> None:
        super().__init__(oracle.counter)
        self.similarity = oracle.similarity
        self.best = np.zeros(self.similarity.shape[1])
        self.total = 0.0

    def _gain(self, elem: int) -> float:
        return float(np.maximum(self.best, self.similarity[elem]).sum()) - self.total

    def add(self, elem: int) -> None:
        np.maximum(self.best, self.similarity[elem], out=self.best)
        # summed as a value query sums it, so a gain is f(S + e) - f(S)
        # rounded exactly as two value queries would give it
        self.total = float(self.best.sum())


class _AdditiveIncrement(_Increment):
    """Nothing to keep: the caller's running sum is the value."""

    def __init__(self, oracle: "AdditiveOracle") -> None:
        super().__init__(oracle.counter)
        self.weights = oracle.weights

    def _gain(self, elem: int) -> float:
        return float(self.weights[elem])


class CoverageOracle(ValueOracle):
    """f(S) = total weight of universe items covered by S."""

    kind = "coverage"

    def __init__(self, covers: Sequence[Sequence[int]], universe_weights: Sequence[float]) -> None:
        super().__init__(len(covers))
        self.universe_weights = np.asarray(universe_weights, dtype=np.float64)
        if self.universe_weights.size and self.universe_weights.min() < 0:
            raise ValueError("universe weights must be nonnegative")
        nu = self.universe_weights.shape[0]
        ids = list(itertools.chain.from_iterable(covers))
        items = np.array(ids)
        # numpy would truncate a float id and read a true among integers as 1
        if items.size and (items.dtype.kind not in "iu" or bool in set(map(type, ids))):
            raise ValueError("covered item ids must be integers")
        if items.size and (items.min() < 0 or items.max() >= nu):
            raise ValueError("covered item id out of range")
        # each element's ids sorted and deduplicated, as CSR arrays
        owners = np.repeat(np.arange(self.n, dtype=np.int64), [len(c) for c in covers])
        stride = max(nu, 1)
        keys = np.sort(owners * stride + items.astype(np.int64))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.indices = keys % stride
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // stride, minlength=self.n), out=self.indptr[1:])

    def _value(self, idx: np.ndarray) -> float:
        covered: set[int] = set()
        for e in idx.tolist():
            covered.update(self.indices[self.indptr[e]:self.indptr[e + 1]].tolist())
        if not covered:
            return 0.0
        return float(self.universe_weights[np.fromiter(covered, dtype=np.int64)].sum())

    def incremental(self) -> _Increment:
        return _CoverageIncrement(self)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Dense 0/1 ``(n, universe)`` cover matrix for the batch kernels,
        built on the first batch query and freed with the oracle."""
        incidence = np.zeros((self.n, self.universe_weights.shape[0]), dtype=np.float64)
        incidence[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices] = 1.0
        return incidence

    def _batch_values(self, sets: np.ndarray) -> np.ndarray:
        return kernels.coverage_values(sets, self.incidence, self.universe_weights)

    def _batch_marginal_means(self, sets: np.ndarray, elems: np.ndarray) -> np.ndarray:
        return kernels.coverage_marginal_means(sets, elems, self.incidence, self.universe_weights)


class FacilityLocationOracle(ValueOracle):
    """f(S) = sum over clients of the best similarity to any member of S."""

    kind = "facility"

    def __init__(self, similarity: np.ndarray) -> None:
        sim = np.asarray(similarity, dtype=np.float64)
        if sim.ndim != 2:
            raise ValueError("similarity must be a 2-d matrix")
        if sim.size and sim.min() < 0:
            raise ValueError("similarities must be nonnegative")
        super().__init__(sim.shape[0])
        self.similarity = np.ascontiguousarray(sim)

    def _value(self, idx: np.ndarray) -> float:
        if idx.size == 0:
            return 0.0
        return float(self.similarity[idx].max(axis=0).sum())

    def incremental(self) -> _Increment:
        return _FacilityIncrement(self)

    def _batch_values(self, sets: np.ndarray) -> np.ndarray:
        return kernels.facility_values(sets, self.similarity)

    def _batch_marginal_means(self, sets: np.ndarray, elems: np.ndarray) -> np.ndarray:
        return kernels.facility_marginal_means(sets, elems, self.similarity)


class AdditiveOracle(ValueOracle):
    """f(S) = sum of per-element weights; the degenerate sanity case."""

    kind = "additive"

    def __init__(self, weights: Sequence[float]) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if w.size and w.min() < 0:
            raise ValueError("weights must be nonnegative")
        super().__init__(w.shape[0])
        self.weights = w

    def _value(self, idx: np.ndarray) -> float:
        return float(self.weights[idx].sum())

    def incremental(self) -> _Increment:
        return _AdditiveIncrement(self)

    def _batch_values(self, sets: np.ndarray) -> np.ndarray:
        return sets.astype(np.float64) @ self.weights

    def _batch_marginal_means(self, sets: np.ndarray, elems: np.ndarray) -> np.ndarray:
        # marginals of an additive function ignore the sampled base set
        return self.weights[elems].copy()


class ResidualOracle(ValueOracle):
    """f(T | S0) = f(S0 + T) - f(S0), with queries counted on the base oracle.

    Phase 2 runs on this contraction of the phase-1 output.  The residual
    shares the base oracle's ``counter``, so one count covers both phases;
    callers read per-phase deltas.
    """

    kind = "residual"

    def __init__(self, base: ValueOracle, frozen: Iterable[int]) -> None:
        super().__init__(base.n, base.counter)
        self.base = base
        self.frozen = sorted(set(frozen))
        self._frozen_mask = np.zeros(base.n, dtype=np.uint8)
        for e in self.frozen:
            self._frozen_mask[e] = 1
        self._offset = base._value(np.asarray(self.frozen, dtype=np.int64))

    def value(self, subset: Iterable[int]) -> float:
        self.counter.count += 1
        idx = self._as_indices(subset)
        merged = np.unique(np.concatenate([idx, np.asarray(self.frozen, dtype=np.int64)])) \
            if self.frozen else idx
        return self.base._value(merged) - self._offset

    # these call the base's private kernels, never its public batch methods,
    # so a profiler that wraps both classes' methods sees each query once

    def batch_values(self, sets: np.ndarray) -> np.ndarray:
        rows = self._as_rows(sets)
        self.counter.count += rows.shape[0]
        return self.base._batch_values(np.maximum(rows, self._frozen_mask)) - self._offset

    def batch_marginal_means(self, sets: np.ndarray, elems: Sequence[int]) -> np.ndarray:
        rows = self._as_rows(sets)
        q = self._in_range(np.asarray(elems, dtype=np.int64))
        self.counter.count += 2 * rows.shape[0] * q.shape[0]
        if q.size == 0:
            return np.zeros(0, dtype=np.float64)
        return self.base._batch_marginal_means(np.maximum(rows, self._frozen_mask), q)

    def marginal(self, elem: int, subset: Iterable[int]) -> float:
        idx = set(self._as_indices(subset).tolist()) | set(self.frozen)
        self._in_range(np.asarray([elem], dtype=np.int64))
        self.counter.count += 2
        lo = self.base._value(np.asarray(sorted(idx), dtype=np.int64))
        hi = self.base._value(np.asarray(sorted(idx | {elem}), dtype=np.int64))
        return hi - lo


def sample_subsets(x: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` independent subsets from product distribution ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.min() < -1e-12 or x.max() > 1.0 + 1e-12:
        raise ValueError("coordinates must lie in [0, 1]")
    return (rng.random((count, x.shape[0])) < x).astype(np.uint8)


def estimate_marginals_on_point(
    f: ValueOracle,
    x: np.ndarray,
    elems: Sequence[int],
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sampled multilinear marginals at ``x`` for each queried element.

    Returns the mean of ``f(R+e) - f(R-e)`` over ``samples`` subsets drawn
    from ``x``, all elements sharing the same draw.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    sets = sample_subsets(x, samples, rng)
    return f.batch_marginal_means(sets, elems)

