"""Monotone submodular objectives and multilinear-extension sampling.

Three families cover everything the generator emits: weighted coverage,
facility location, and additive.  Every oracle counts queries: ``value`` is
one query, a batch over ``s`` sampled sets is ``s`` queries and a batched
marginal estimate ``2*s`` per queried element.  An ``incremental()`` state
prices ``f(S + e) - f(S)`` for a growing ``S`` at one query each.  Budget
instrumentation everywhere else trusts these counts.

A ``round_state`` is the one place where an objective puts its kernel
steps together.  It keeps per-row statistics (coverage counts, facility
top-2) over one phase-2 round's rows as the round's partial basis grows,
and prices elements or values rows from them.  ``sampled_round`` draws a
round's rows once, by :func:`nested_subsets`, and only where the objective
reads them: an additive round draws none.  A phase-2 round over the
contraction by a frozen set is a round at a point whose frozen
coordinates are 1, so every row holds that set.  The
batch entry points (``batch_values``, ``batch_marginal_means``) are a
round state over a fixed batch.  No code in this package calls them; they
are kept for the brute-force checks in ``tests/test_kernels.py`` and the
tracer in ``pipebench/spans.py``.  Pricing an element is charged ``2*s``
queries and valuing the rows ``s``, whichever entry point asks, so the
query count has one meaning.
"""

from __future__ import annotations

import copy
import itertools
from typing import Iterable, Sequence

import numpy as np

from . import kernels

# rows of uniforms held at once while drawing subsets
SAMPLE_BLOCK_ROWS = 64


def set_eval_threads(count: int) -> None:
    """Batched estimates run serially; only a count of 1 is accepted."""
    if count != 1:
        raise ValueError("batched estimates are serial: thread count must be 1")


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked so that a write into it raises: every oracle built
    from one instance reads it."""
    array.setflags(write=False)
    return array


def _nonnegative(values, name: str, ndim: int) -> np.ndarray:
    """``values`` as a new read-only ``ndim``-d float64 array, checked
    numeric, finite and nonnegative.  Asked for float64 at once, numpy
    would read the string ``"1.5"`` as a number, so the array is first
    built with the dtype its entries give it.  A NaN fails every
    comparison, so ``min() < 0`` alone lets it through, and it has no rank
    among the values."""
    out = np.array(values, order="C")
    if out.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be numbers")
    out = out.astype(np.float64, copy=False)
    if out.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d array, not {out.ndim}-d")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    if out.size and out.min() < 0:
        raise ValueError(f"{name} must be nonnegative")
    return _read_only(out)


def _cover_csr(covers: Sequence[Sequence[int]], universe: int) -> tuple[np.ndarray, np.ndarray]:
    """Each element's item ids sorted and deduplicated, as read-only CSR
    ``(indptr, indices)`` int64 arrays; ids must be integers in
    ``0..universe-1``."""
    ids = list(itertools.chain.from_iterable(covers))
    items = np.array(ids)
    # numpy would truncate a float id and read a true among integers as 1
    if items.size and (items.dtype.kind not in "iu" or bool in set(map(type, ids))):
        raise ValueError("covered item ids must be integers")
    if items.size and (items.min() < 0 or items.max() >= universe):
        raise ValueError("covered item id out of range")
    n = len(covers)
    owners = np.repeat(np.arange(n, dtype=np.int64), [len(c) for c in covers])
    stride = max(universe, 1)
    keys = np.sort(owners * stride + items.astype(np.int64))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // stride, minlength=n), out=indptr[1:])
    return _read_only(indptr), _read_only(keys % stride)


class QueryCounter:
    """Running total of value-oracle queries, shared by an oracle and its
    contractions so one count covers every phase."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class ValueOracle:
    """Base class: query counting, input checks and the batch entry points.

    An oracle's arrays are read-only, and the tables it derives from them
    (``_shared``) depend on no seed and charge no query, so ``recounted``
    copies share both and count their queries apart.
    """

    kind = "abstract"

    def __init__(self, n: int, counter: QueryCounter | None = None) -> None:
        if n <= 0:
            raise ValueError("ground set must be nonempty")
        self.n = n
        self.counter = QueryCounter() if counter is None else counter
        # table name -> table, one dict for this oracle and its copies
        self._tables: dict[str, object] = {}

    @property
    def query_count(self) -> int:
        return self.counter.count

    def recounted(self) -> "ValueOracle":
        """This oracle, sharing its arrays and tables, with a query counter
        of its own."""
        twin = copy.copy(self)
        twin.counter = QueryCounter()
        return twin

    def _shared(self, name: str, build):
        """Table ``name``: ``build()`` on its first use by this oracle or a
        ``recounted`` copy, then kept for all of them."""
        tables = self._tables
        if name not in tables:
            tables[name] = build()
        return tables[name]

    # -- single-set queries -------------------------------------------------

    def value(self, subset: Iterable[int]) -> float:
        idx = self._as_indices(subset)
        self.counter.count += 1
        return self._value(idx)

    def incremental(self) -> "_Increment":
        """Gain state for a set that grows from empty, as the greedy pass
        builds it; each ``gain`` is counted as one value query."""
        raise NotImplementedError

    # -- batched queries ----------------------------------------------------

    def batch_values(self, sets: np.ndarray) -> np.ndarray:
        """Values for each row of an ``(s, n)`` uint8 subset matrix; ``s``
        queries."""
        return self.round_state(sets, sets).values()

    def batch_marginal_means(self, sets: np.ndarray, elems: Sequence[int]) -> np.ndarray:
        """Mean of f(R+e) - f(R-e) over the rows of ``sets``, per element.

        Costs ``2 * len(elems) * rows`` queries: each sampled marginal is two
        value queries.
        """
        return self.round_state(sets, sets).marginal_means(elems)

    def round_state(self, lower: np.ndarray, upper: np.ndarray) -> "RoundState":
        """Pricing state over one round's nested ``(s, n)`` rows; see
        :class:`RoundState`."""
        return self._round_state(self._as_rows(lower), self._as_rows(upper))

    def sampled_round(
        self, x: np.ndarray, step: float, samples: int, rng: np.random.Generator
    ) -> "RoundState":
        """Pricing state over ``samples`` rows drawn from ``x`` for a round
        that moves ``step`` along its basis (see :func:`nested_subsets`)."""
        return self.round_state(*nested_subsets(x, step, samples, rng))

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

    def _round_state(self, lower: np.ndarray, upper: np.ndarray) -> "RoundState":
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
    """An open-item mask; a gain reads only the element's own items, from
    per-element views of its items and of their weights in cover order, so
    one gather finds them and no pop slices the CSR arrays again."""

    def __init__(self, oracle: "CoverageOracle") -> None:
        super().__init__(oracle.counter)
        self.weights, self.items = oracle._shared("increment", oracle._increment_tables)
        self.open = np.ones(oracle.universe_weights.shape[0], dtype=bool)

    def _gain(self, elem: int) -> float:
        # the reduction ``.sum()`` calls, so the float is the same
        return float(np.add.reduce(self.weights[elem][self.open[self.items[elem]]]))

    def add(self, elem: int) -> None:
        self.open[self.items[elem]] = False


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
        self.universe_weights = _nonnegative(universe_weights, "universe weights", 1)
        self.indptr, self.indices = _cover_csr(covers, self.universe_weights.shape[0])

    def cover(self, elem: int) -> np.ndarray:
        """The sorted item ids that ``elem`` covers."""
        return self.indices[self.indptr[elem]:self.indptr[elem + 1]]

    def _value(self, idx: np.ndarray) -> float:
        covered: set[int] = set()
        for e in idx.tolist():
            covered.update(self.indices[self.indptr[e]:self.indptr[e + 1]].tolist())
        if not covered:
            return 0.0
        return float(self.universe_weights[np.fromiter(covered, dtype=np.int64)].sum())

    def incremental(self) -> _Increment:
        return _CoverageIncrement(self)

    @property
    def incidence(self) -> np.ndarray:
        """Dense read-only float32 0/1 ``(n, universe)`` cover matrix for
        the kernels, built for the first round state that multiplies and
        then shared like the arrays (see :class:`ValueOracle`)."""
        return self._shared("incidence", self._incidence)

    def _incidence(self) -> np.ndarray:
        incidence = np.zeros((self.n, self.universe_weights.shape[0]), dtype=np.float32)
        incidence[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices] = 1.0
        return _read_only(incidence)

    def _increment_tables(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Per element, read-only views of its weights in cover order and of
        its items, for :class:`_CoverageIncrement`: two view objects, about
        240 bytes, per element beside the ``|cover(e)|`` weights."""
        weights = _read_only(self.universe_weights[self.indices])
        ends = self.indptr.tolist()
        spans = list(zip(ends, ends[1:]))
        return tuple(weights[a:b] for a, b in spans), tuple(self.indices[a:b] for a, b in spans)

    def _round_state(self, lower: np.ndarray, upper: np.ndarray) -> "RoundState":
        return _CoverageRound(self, lower, upper)


class FacilityLocationOracle(ValueOracle):
    """f(S) = sum over clients of the best similarity to any member of S."""

    kind = "facility"

    def __init__(self, similarity: np.ndarray) -> None:
        sim = _nonnegative(similarity, "similarities", 2)
        super().__init__(sim.shape[0])
        self.similarity = sim

    def _value(self, idx: np.ndarray) -> float:
        if idx.size == 0:
            return 0.0
        return float(self.similarity[idx].max(axis=0).sum())

    def incremental(self) -> _Increment:
        return _FacilityIncrement(self)

    @property
    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """Each similarity's value class and each client's ascending
        column (:func:`kernels.similarity_ranks`), for the round states:
        ``O(n·clients)`` read-only memory, built for the first round and
        then shared like the arrays (see :class:`ValueOracle`)."""
        return self._shared("ranks", self._ranks)

    def _ranks(self) -> tuple[np.ndarray, np.ndarray]:
        slot, values = kernels.similarity_ranks(self.similarity)
        return _read_only(slot), _read_only(values)

    def _round_state(self, lower: np.ndarray, upper: np.ndarray) -> "RoundState":
        return _FacilityRound(self, lower, upper)


class AdditiveOracle(ValueOracle):
    """f(S) = sum of per-element weights; the degenerate sanity case."""

    kind = "additive"

    def __init__(self, weights: Sequence[float]) -> None:
        w = _nonnegative(weights, "weights", 1)
        super().__init__(w.shape[0])
        self.weights = w

    def _value(self, idx: np.ndarray) -> float:
        return float(self.weights[idx].sum())

    def incremental(self) -> _Increment:
        return _AdditiveIncrement(self)

    def _round_state(self, lower: np.ndarray, upper: np.ndarray) -> "RoundState":
        return _AdditiveRound(self, lower.shape[0], lower, upper)

    def sampled_round(
        self, x: np.ndarray, step: float, samples: int, rng: np.random.Generator
    ) -> "RoundState":
        # an additive marginal reads no row, so the round draws none; it
        # still charges ``2*samples`` per priced element
        if samples < 1:
            raise ValueError("need at least one sample")
        return _AdditiveRound(self, samples, None, None)


class ResidualOracle(ValueOracle):
    """f(T | S0) = f(S0 + T) - f(S0), with queries counted on the base oracle.

    The pipeline does not build one: ``optimizer.continuous_greedy``
    contracts by ``S0`` itself, by holding its coordinates at 1.  This
    oracle serves the batch entry points, the brute-force checks in
    ``tests/`` and the tracer in ``pipebench/spans.py``.  It shares the
    base oracle's ``counter``, so one count covers both.
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

    def _value(self, idx: np.ndarray) -> float:
        merged = np.unique(np.concatenate([idx, np.asarray(self.frozen, dtype=np.int64)])) \
            if self.frozen else idx
        return self.base._value(merged) - self._offset

    # the base's functions, so the frozen columns and the offset come in
    # through ``round_state``; neither calls the base's public batch methods,
    # so a profiler that wraps both classes' methods sees each query once
    batch_values = ValueOracle.batch_values
    batch_marginal_means = ValueOracle.batch_marginal_means

    def round_state(self, lower: np.ndarray, upper: np.ndarray) -> "RoundState":
        # frozen columns are set in both layers, so every row holds them and
        # no basis change flips them
        mask = self._frozen_mask
        state = self.base._round_state(self._as_rows(lower) | mask, self._as_rows(upper) | mask)
        state.offset = self._offset
        return state


def sample_subsets(x: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` independent subsets from product distribution ``x``.

    Uniforms are drawn ``SAMPLE_BLOCK_ROWS`` rows at a time: the stream is
    the one a single ``(count, n)`` draw gives, without holding
    ``count * n`` doubles at once.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.min() < -1e-12 or x.max() > 1.0 + 1e-12:
        raise ValueError("coordinates must lie in [0, 1]")
    out = np.empty((count, x.shape[0]), dtype=np.uint8)
    for start in range(0, count, SAMPLE_BLOCK_ROWS):
        block = out[start:start + SAMPLE_BLOCK_ROWS]
        np.less(rng.random(block.shape), x, out=block, casting="unsafe")
    return out


def nested_subsets(
    x: np.ndarray, step: float, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Rows for one round: ``lower`` drawn from ``x``, ``upper`` from
    ``min(1, x + step)``, with ``lower`` inside ``upper`` row by row.

    The pair has the joint law of ``U < x`` and ``U < x + step`` for one
    uniform ``U`` per entry, so a row's set at partial basis ``B`` is drawn
    from ``x + step * 1[B]``.  Two :func:`sample_subsets` calls make it.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    x = np.asarray(x, dtype=np.float64)
    high = np.minimum(1.0, x + step)
    upper = sample_subsets(high, count, rng)
    keep = np.divide(x, high, out=np.zeros_like(x), where=high > 0)
    return upper & sample_subsets(keep, count, rng), upper


class RoundState:
    """One round's ``samples`` rows, priced at the round's partial basis ``B``.

    Row ``r`` holds ``e`` when ``lower[r, e]`` is set, or when
    ``upper[r, e]`` is set and ``e`` is in ``B``.  ``B`` only grows:
    inserting ``e`` changes only the rows where ``upper`` holds ``e`` and
    ``lower`` does not, and each objective updates its per-row statistics
    there alone.  So a row only grows too, and by submodularity a price
    only falls while the round goes on.  ``marginal_means`` returns the
    mean of ``f(R+e) - f(R-e)`` over the current rows, charged ``2*s``
    queries per element, and ``values`` returns ``f(R) - offset`` per row,
    charged ``s`` queries (a contraction sets ``offset`` to the value of
    its frozen set).  Non-members only, as BV14's descending thresholds
    ask: pricing a basis member raises ``ValueError`` and charges nothing.
    ``calls`` counts the ``marginal_means`` calls that priced at least one
    element, and ``prices`` the ``price`` calls.

    An objective whose prices read no row keeps none: a sampled additive
    round has ``lower`` and ``upper`` unset and charges its queries by
    ``samples`` alone, and ``rows`` and ``values`` refuse it.
    A contraction's rows hold its frozen columns in both layers.

    ``marginal_means`` prices from a batch summary of the rows, rebuilt on
    the first batch after a basis change, which pays off over many
    elements.  ``price`` prices one element without it: it builds no batch
    summary and leaves the current one in place.  A facility round prices
    one element and a batch by one formula over class cumsums it keeps
    apart from the summary, so ``price(e)`` is ``marginal_means([e])[0]``
    bit for bit.

    A sweep keeps the state at its basis only while a later pricing can
    read it.  An insert is paid in per-row statistics (a coverage insert
    moves ``|cover(e)|`` counts in each flipped row, a facility insert a
    top-2 pass over the clients of each), so once a sweep has made its
    last pricing it stops inserting: ``B`` is then a prefix of the basis
    the sweep returns, not all of it.  The transversal sweep writes only
    the vertices its audits keep, never one it evicts.
    """

    def __init__(
        self,
        oracle: ValueOracle,
        samples: int,
        lower: np.ndarray | None,
        upper: np.ndarray | None,
    ) -> None:
        self.oracle = oracle
        self.counter = oracle.counter
        self.samples = samples
        self.lower = lower
        self.upper = upper
        self.in_basis = np.zeros(oracle.n, dtype=bool)
        self.offset = 0.0
        self.calls = 0
        self.prices = 0
        self._summary = None

    def _drawn(self) -> None:
        if self.lower is None:
            raise ValueError("this round drew no rows: its prices read none")

    def rows(self) -> np.ndarray:
        """The current ``(s, n)`` uint8 rows."""
        self._drawn()
        return self.lower | (self.upper & self.in_basis.view(np.uint8))

    def _flipped(self, elem: int) -> np.ndarray:
        """The rows whose set gains ``elem`` when it joins the basis."""
        return np.flatnonzero(self.upper[:, elem] > self.lower[:, elem])

    def insert(self, elem: int) -> None:
        if self.in_basis[elem]:
            raise ValueError(f"element {elem} is already in the basis")
        self.in_basis[elem] = True
        self._summary = None
        self._add(elem)

    def marginal_means(self, elems: Sequence[int]) -> np.ndarray:
        q = self.oracle._in_range(np.asarray(elems, dtype=np.int64))
        if self.in_basis[q].any():
            raise ValueError("a round state prices only elements outside its basis")
        self.counter.count += 2 * self.samples * q.shape[0]
        if q.size == 0:
            return np.zeros(0, dtype=np.float64)
        self.calls += 1
        if self._summary is None:
            # what pricing reads, rebuilt at most once per basis change
            self._summary = self._summarize()
        return self._means(q)

    def price(self, elem: int) -> float:
        """``marginal_means([elem])[0]`` up to rounding (bit for bit for a
        facility round), charged ``2*s`` queries."""
        elem = int(elem)
        if not 0 <= elem < self.oracle.n:
            raise ValueError("element id out of range")
        if self.in_basis[elem]:
            raise ValueError("a round state prices only elements outside its basis")
        self.counter.count += 2 * self.samples
        self.prices += 1
        return self._price(elem)

    def values(self) -> np.ndarray:
        """``f`` of each current row less ``offset``."""
        self._drawn()
        self.counter.count += self.samples
        return self._values() - self.offset

    def _add(self, elem: int) -> None:
        raise NotImplementedError

    def _summarize(self):
        raise NotImplementedError

    def _means(self, elems: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _price(self, elem: int) -> float:
        raise NotImplementedError

    def _values(self) -> np.ndarray:
        raise NotImplementedError


class _CoverageRound(RoundState):
    """Cover counts per item and row, ``(universe, s)`` uint8, capped at 2,
    from one item-major product (:func:`kernels.coverage_counts`), so an
    element's items are whole rows of ``counts``: an insert touches
    ``|cover(e)|`` contiguous rows of ``s`` counts.  Every reader tells only
    0, 1 and more apart, so the cap changes no price and no value.  A round
    whose lower layer is empty, as a first round's is, multiplies nothing
    and leaves the oracle's incidence unbuilt: every count is 0.

    ``zeros`` counts, per item, the rows that leave it uncovered, and
    ``ones`` the rows where a single member covers it.  An insert keeps both
    from the flipped rows alone: it takes counts at 0 to 1 and at 1 to 2.
    Removing ``e`` from a row uncovers an item of ``e``'s exactly when no
    other member covers it there: the row lacks ``e`` and its count is 0, or
    it holds ``e`` and its count is 1.  A row that holds ``e`` never has
    count 0 on ``e``'s items, so those rows number ``zeros`` plus the
    count-1 rows among the ``h`` that hold ``e``.

    Non-members only, so the ``h`` rows are those whose lower layer holds
    ``e``, and an element it holds nowhere (not ``held``) reads ``zeros``
    at its items alone, ``O(|cover(e)|)``.  A held element's price reads
    ``counts`` only at ``e``'s items in the ``h`` rows, and only if ``ones``
    is nonzero at one of them: ``O(s + |cover(e)|·(1 + h))``.  The batch
    summary is the uncovered weight per item, ``zeros * weights``, and the
    critical items, ``ones > 0``: only those can add to a held element's
    price, so a batch reads the lower layer's ``(s, q_held)`` columns of its
    held queried elements, and none when no item is critical: ``O(q +
    s·q_held)``."""

    def __init__(self, oracle: CoverageOracle, lower: np.ndarray, upper: np.ndarray) -> None:
        super().__init__(oracle, lower.shape[0], lower, upper)
        self.held = lower.any(axis=0)
        if self.held.any():
            self.counts = kernels.coverage_counts(lower, oracle.incidence, self.held)
            self.zeros = np.count_nonzero(self.counts == 0, axis=1)
            self.ones = np.count_nonzero(self.counts == 1, axis=1)
        else:
            universe = oracle.universe_weights.shape[0]
            self.counts = np.zeros((universe, self.samples), dtype=np.uint8)
            self.zeros = np.full(universe, self.samples, dtype=np.intp)
            self.ones = np.zeros(universe, dtype=np.intp)

    def _add(self, elem: int) -> None:
        rows = self._flipped(elem)
        items = self.oracle.cover(elem)
        block = self.counts[items]
        flipped = block[:, rows]
        # the counts at 0 go to 1 and those at 1 to 2, where they stay
        at_zero = (flipped == 0).sum(axis=1, dtype=np.intp)
        self.zeros[items] -= at_zero
        self.ones[items] += at_zero - (flipped == 1).sum(axis=1, dtype=np.intp)
        block[:, rows] = np.minimum(flipped + 1, 2)
        self.counts[items] = block

    def _summarize(self):
        return self.zeros * self.oracle.universe_weights, self.ones > 0

    def _means(self, elems: np.ndarray) -> np.ndarray:
        oracle = self.oracle
        uncovered, critical = self._summary
        if critical.any():
            held = np.flatnonzero(self.held[elems])
        else:
            held = np.zeros(0, dtype=np.intp)
        return kernels.coverage_price(
            uncovered, critical, self.counts, elems, held, self.lower[:, elems[held]],
            oracle.indptr, oracle.indices, oracle.universe_weights,
        )

    def _price(self, elem: int) -> float:
        items = self.oracle.cover(elem)
        hits = self.zeros[items]
        if self.held[elem] and np.count_nonzero(self.ones[items]):
            held = np.flatnonzero(self.lower[:, elem])
            hits = hits + np.count_nonzero(self.counts[items[:, None], held] == 1, axis=1)
        return float(np.add.reduce(hits * self.oracle.universe_weights[items])) / self.samples

    def _values(self) -> np.ndarray:
        return (self.counts.T > 0) @ self.oracle.universe_weights


class _FacilityRound(RoundState):
    """Top-1, its argmax and top-2 similarity per ``(row, client)``, and per
    client the number of rows whose top-1 lies in each value class of the
    client's column (:func:`kernels.similarity_ranks`).

    Without ``e`` a row's best similarity is its top-1, or its top-2 in the
    pairs ``e`` tops.  Summed over the rows, ``max(sim[e, c] - top1, 0)``
    takes the rows whose top-1 lies in a class below ``e``'s: their count
    times ``sim[e, c]`` less their top-1 sum, two exclusive cumsums of the
    histogram read at ``e``'s class.  The pairs ``e`` tops add ``top1 -
    top2``; a non-member tops pairs only in the rows whose lower layer
    holds it.  So a one-element price costs ``O(s + clients·(1 + h))`` for
    the ``h`` rows that hold ``e``, and a batch prices by the same formula,
    with the ``top1 - top2`` sums of every argmax from one row-major
    bincount (the batch summary), which adds each element's terms in the
    order a one-element price does.

    An insert moves one count, per pair its element comes to top, from the
    pair's old class to the element's: ``O(k·clients)`` for its ``k``
    flipped rows.  The first pricing after an insert rebuilds the cumsums,
    ``O(n·clients)``.  Non-members only, so that histogram is the one a
    price reads."""

    # one count of the int32 histogram: a scalar of its dtype keeps
    # ``ufunc.at`` on its fast path
    _ONE = np.int32(1)

    def __init__(
        self, oracle: FacilityLocationOracle, lower: np.ndarray, upper: np.ndarray
    ) -> None:
        super().__init__(oracle, lower.shape[0], lower, upper)
        self.top = kernels.row_top2(lower, oracle.similarity)
        self.slot, self.class_values = oracle.ranks
        self.hist = kernels.class_histogram(self.top[1], self.slot)
        # the histogram's cumsums, rebuilt on the first pricing after an
        # insert
        self._below = np.zeros(self.hist.shape, dtype=np.int32)
        self._under = np.zeros(self.hist.shape)
        self._stale = True

    def _add(self, elem: int) -> None:
        rows = self._flipped(elem)
        was = self.top[1][rows]
        took = np.flatnonzero(
            kernels.push_top2(*self.top, rows, elem, self.oracle.similarity[elem])
        )
        clients = self.hist.shape[0]
        column = took % clients
        # each pair it came to top leaves its old class for the element's
        hist = self.hist.ravel()
        old = self.slot.ravel()[was.ravel()[took] * clients + column]
        np.subtract.at(hist, old, self._ONE)
        hist[self.slot[elem]] += np.bincount(column, minlength=clients)
        self._stale = True

    def _cumsums(self) -> tuple[np.ndarray, np.ndarray]:
        if self._stale:
            kernels.class_cumsums(self.hist, self.class_values, self._below, self._under)
            self._stale = False
        return self._below, self._under

    def _summarize(self):
        top1, arg1, top2 = self.top
        return np.bincount(
            arg1.ravel(), weights=(top1 - top2).ravel(), minlength=self.slot.shape[0]
        )

    def _means(self, elems: np.ndarray) -> np.ndarray:
        sums = kernels.class_price(
            *self._cumsums(), self.slot, self.oracle.similarity, elems
        )
        return (sums + self._summary[elems]) / self.samples

    def _price(self, elem: int) -> float:
        tops = 0.0
        held = np.flatnonzero(self.lower[:, elem])
        if held.size:
            top1, arg1, top2 = self.top
            clients = top1.shape[1]
            hit = np.flatnonzero(arg1[held] == elem)
            if hit.size:
                at = held[hit // clients] * clients + hit % clients
                # added in the row-major order of the batch summary's bincount
                tops = np.cumsum(top1.ravel()[at] - top2.ravel()[at])[-1]
        sums = kernels.class_price(
            *self._cumsums(), self.slot, self.oracle.similarity, np.array([elem])
        )
        return float(sums[0] + tops) / self.samples

    def _values(self) -> np.ndarray:
        return self.top[0].sum(axis=1)


class _AdditiveRound(RoundState):
    """Nothing to keep: an additive marginal ignores the row, so a sampled
    round holds no rows at all (:meth:`AdditiveOracle.sampled_round`)."""

    def _add(self, elem: int) -> None:
        pass

    def _summarize(self):
        return ()

    def _means(self, elems: np.ndarray) -> np.ndarray:
        return self.oracle.weights[elems].copy()

    def _price(self, elem: int) -> float:
        return float(self.oracle.weights[elem])

    def _values(self) -> np.ndarray:
        return self.rows() @ self.oracle.weights
