"""Two-phase submodular maximization under one matroid constraint.

Phase 1 freezes a short prefix of very heavy elements: it maintains an
approximate max-weight basis under rounded marginal weights, repeatedly
audits a random batch for staleness, and only when a majority of the batch
is still fresh does it freeze one uniform basis element.  Phase 2 runs a
sampled continuous greedy on the contraction ``f(. | S0)`` by holding the
frozen coordinates at 1, assembling each round's direction with a
descending-thresholds routine; its bases contain ``S0``, and swap rounding
turns the fractional point into a single independent set.  The combined
guarantee is ``1 - 1/e - eps`` in expectation for monotone submodular
objectives.

Phase 1 spends one value query per audited element: its weights are the
singleton gains :func:`estimate_opt` keyed its heap on, and an audit is one
gain against an incremental state for the frozen set.  It stops once the
basis weight drops below ``PHASE1_THRESHOLD_FACTOR / eps1`` times the
optimum estimate ``M``.  An element's rounded weight is the class value
of its singleton gain clipped to ``[0, M]``, so a basis weighs at most the
class values of its ``rank`` largest clipped gains.  :func:`run_pipeline`
builds phase 1 only when those reach that bar, which needs the clipped
gains to reach it and so ``rank >= PHASE1_THRESHOLD_FACTOR / eps1`` (1000
at ``eps = 0.2``).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import OracleChanges, WeightClassifier, estimate_opt
from .graphic import ContractedGraph
from .instances import (
    STREAM_MULTILINEAR,
    STREAM_PHASE1,
    STREAM_ROUNDING,
    Instance,
    Matroid,
    stream_rng,
)
from .laminar import TopTreeLaminarBasis
from .objectives import RoundState, ValueOracle
from .rounding import swap_round
from .sampler import BucketLists
from .transversal import DecMatching, LStableMatching


# Analysis constants.  The phase-1 audit batch per iteration is
# PHASE1_SAMPLE_SCALE * log n elements; phase 1 stops once the basis weight
# drops below PHASE1_THRESHOLD_FACTOR / eps1 times the optimum estimate and
# spends PHASE1_EPS_FRACTION of the accuracy budget; a phase-2 marginal
# estimate averages SAMPLE_COUNT_SCALE / eps * log(n / eps)^2 subset draws.
PHASE1_SAMPLE_SCALE = 128.0
PHASE1_THRESHOLD_FACTOR = 50.0
PHASE1_EPS_FRACTION = 0.25
SAMPLE_COUNT_SCALE = 1.0


class MaxWeightOracle:
    """Phase 1's approximate max-weight basis plus its weight-class sampling
    pool.

    ``structure`` is the family's basis structure, which
    :func:`build_phase1_oracle` builds on the rounded weights.  All three
    answer ``basis()``, ``approx_base_weight()`` (frozen elements
    included), and ``decrement(e, w)`` and ``freeze(e)``, which return the
    :class:`OracleChanges` to the unfrozen basis.  ``buckets`` mirrors that
    unfrozen basis, so batch and uniform sampling stay proportional to the
    number of weight classes; a decremented element that stays in the basis
    is re-filed under its new class here.  ``classes`` holds each element's
    current class, whose value is its rounded weight, never a raw marginal.
    """

    def __init__(
        self,
        structure: TopTreeLaminarBasis | ContractedGraph | LStableMatching,
        classifier: WeightClassifier,
        classes: dict[int, int],
    ) -> None:
        self.structure = structure
        self.classifier = classifier
        self.classes = classes
        self.buckets = BucketLists(classifier)
        for e in structure.basis():
            self.buckets.insert(e, classes[e])

    def decrement(self, elem: int, class_index: int) -> None:
        if class_index <= self.classes[elem]:
            raise ValueError("decrement must push the class down")
        self.classes[elem] = class_index
        changes = self.structure.decrement(elem, self.classifier.class_value(class_index))
        if elem in self.buckets and elem not in changes.removed:
            # still in the basis at a lower class: re-file it
            changes.removed.append(elem)
            changes.added.append(elem)
        self._apply(changes)

    def freeze(self, elem: int) -> None:
        self._apply(self.structure.freeze(elem))

    def _apply(self, changes: OracleChanges) -> None:
        for e in changes.removed:
            self.buckets.remove(e)
        for e in changes.added:
            self.buckets.insert(e, self.classes[e])


def build_phase1_oracle(
    singles: Sequence[float],
    matroid: Matroid,
    classifier: WeightClassifier,
    epsilon: float,
) -> MaxWeightOracle:
    """Stand up the rounded-weight basis on the singleton gains that
    :func:`estimate_opt` returns; spends no query."""
    classes = {e: classifier.weight_class(max(w, 0.0)) for e, w in enumerate(singles)}
    rounded = {e: classifier.class_value(j) for e, j in classes.items()}
    if matroid.kind == "laminar":
        structure = TopTreeLaminarBasis(matroid, rounded)
    elif matroid.kind == "graphic":
        structure = ContractedGraph(matroid, rounded)
    elif matroid.kind == "transversal":
        structure = LStableMatching(matroid, rounded, epsilon)
    else:
        raise ValueError(f"unsupported matroid kind: {matroid.kind}")
    return MaxWeightOracle(structure, classifier, classes)


@dataclass
class LSGState:
    """Running tally of one phase-1 execution."""

    solution: list[int] = field(default_factory=list)
    iterations: int = 0
    decrements: int = 0
    samples_drawn: int = 0


def _gate_passes(probes: Sequence[tuple[float, bool]]) -> bool:
    """Freshness gate over one audited batch of (probability, stale) pairs.

    Demands a strict fresh majority separately among the elements sampled
    with probability one and among the rest; an empty group passes.
    """
    sure = [stale for p, stale in probes if p >= 1.0]
    rest = [stale for p, stale in probes if p < 1.0]
    return (not sure or 2 * sum(sure) < len(sure)) and (
        not rest or 2 * sum(rest) < len(rest)
    )


def lazy_sampling_greedy_plus(
    f: ValueOracle,
    oracle: MaxWeightOracle,
    epsilon: float,
    opt_estimate: float,
    rng: np.random.Generator,
) -> LSGState:
    """Freeze heavy elements until the residual basis weight is moderate.

    Each iteration samples a weight-proportional batch from the unfrozen
    basis, refreshes the rounded class of every stale member, and freezes
    one uniform basis element only when the batch was mostly fresh.  An
    audit is one gain against ``f.incremental()`` kept at the frozen set,
    one query; a freeze adds to that state for free.  The
    loop exits once the approximate basis weight drops below
    ``PHASE1_THRESHOLD_FACTOR / epsilon`` times the optimum estimate, which
    at moderate scales happens immediately and leaves the frozen set empty.
    """
    if not 0.0 < epsilon < 1.0 / 3.0:
        raise ValueError("epsilon must lie in (0, 1/3)")
    state = LSGState()
    if opt_estimate <= 0.0:
        return state
    structure, buckets, classes = oracle.structure, oracle.buckets, oracle.classes
    n = structure.matroid.n
    classifier = oracle.classifier
    threshold = (PHASE1_THRESHOLD_FACTOR / epsilon) * opt_estimate
    t_param = PHASE1_SAMPLE_SCALE * math.log(max(n, 2))
    # every iteration either reclasses an element downward or freezes one,
    # so this budget is only hit on a broken structure
    cap = 2 * n * (classifier.num_classes + 2) + 16
    frozen = f.incremental()
    while structure.approx_base_weight() >= threshold:
        if not buckets:
            break
        state.iterations += 1
        if state.iterations > cap:
            raise RuntimeError("sampling loop exceeded its iteration budget")
        drawn = buckets.sample(t_param, rng)
        state.samples_drawn += len(drawn)
        probes: list[tuple[float, bool]] = []
        for e, p in drawn:
            j_new = classifier.weight_class(max(frozen.gain(e), 0.0))
            stale = j_new > classes[e]
            probes.append((p, stale))
            if stale:
                oracle.decrement(e, j_new)
                state.decrements += 1
        if _gate_passes(probes):
            if not buckets:
                break
            e = buckets.uniform_sample(rng)
            oracle.freeze(e)
            frozen.add(e)
            state.solution.append(e)
    return state


@dataclass
class FractionalSolution:
    """Convex combination of bases produced by the continuous phase.

    Each basis holds the frozen set.  For a transversal matroid,
    ``matchings`` holds the matching that certifies each basis, each of its
    elements' right vertex, in the order of ``bases``; it is empty for the
    other kinds."""

    n: int
    bases: list[tuple[float, list[int]]]
    matchings: list[dict[int, int]] = field(default_factory=list)


class CountingChecker:
    """Independence tester that tallies its oracle traffic.

    ``spans`` is the threshold sweep's span query: a test whose yes retires
    an element rather than admits it.  It is not counted in ``tests``;
    ``marked`` counts the span queries that answered yes."""

    def __init__(self, checker) -> None:
        self.checker = checker
        self.tests = 0
        self.inserts = 0
        self.marked = 0

    def test(self, elem: int) -> bool:
        self.tests += 1
        return self.checker.test(elem)

    def spans(self, elem: int) -> bool:
        spanned = not self.checker.test(elem)
        self.marked += spanned
        return spanned

    def insert(self, elem: int) -> None:
        self.inserts += 1
        self.checker.insert(elem)


def dt_incremental(
    state: RoundState,
    checker: CountingChecker,
    epsilon: float,
    opt_estimate: float,
    elements: Sequence[int],
    rank: int,
) -> list[int]:
    """Build a near-max-rate basis by descending thresholds, insert-only.

    The threshold ladder starts at the best singleton rate and decays by
    ``1 - epsilon`` down to ``epsilon / rank`` times the optimum estimate.
    Each level walks its cohort, the live elements whose rate reaches the
    bar, in id order: an element whose rate still reaches the bar at its
    turn is tested at most once and either joins the basis or is discarded
    for good.  Whatever remains after the ladder tops the basis off in
    best-rate order, so the result always has full rank.

    Pricing is lazy and exact.  Under the round's one draw every row only
    grows with the basis, so by submodularity a cached rate bounds the
    current one from above: an element whose cached rate is below the bar
    is below it now.  A level opens by repricing, in one batch, the stale
    live elements whose cached rate reaches the bar; those still at the bar
    form its cohort.  An insertion reprices nothing.  At its turn an element
    is priced alone (``RoundState.price``) if the basis has grown since its
    last pricing, so it is judged on its rate at the basis it would join,
    the rate that repricing the cohort after every insertion would give it;
    one that has fallen below the bar is left to later levels.  The top-off
    reprices whatever is stale.  So beyond a level's opening batch an
    element is priced at most once per level and never twice at one basis,
    and the result is the basis that repricing every element after every
    insertion would build.

    Nor is an element priced once the basis spans it.  Every pricing but
    the round-opening batch, which sets the first bar, first asks
    ``checker.spans`` once per element: a level's batch asks it of its
    stale elements, a turn of its stale element, and the top-off of its
    whole order, priced or not.  The elements spanned are retired
    unpriced.  The sweep only inserts, so a spanned element stays spanned
    and would fail every later test: retiring it changes no decision.
    ``checker.marked`` counts the retired elements.  A ladder pick is
    always priced at the basis it would join, so it was put to the checker
    at that basis unless the basis is empty and the opening batch priced
    it; that no is the test's answer.  So a pick is tested only on an
    empty basis, and otherwise joins untested.  So does the top-off's
    first pick, whose no came at the basis it joins.

    The sweep keeps the round state at its basis only while a later pricing
    can read it.  The ladder's inserts reach ``state``, except one that
    completes the basis; the top-off's do not, since its batch is the
    round's last pricing and its picks read only those rates and the
    checker.  So on return ``state`` holds the basis as the round's last
    pricing saw it, a prefix of the returned basis.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    basis: list[int] = []
    pool = np.array(sorted(elements), dtype=np.int64)
    if rank <= 0 or not pool.size:
        return basis
    live = np.ones(pool.size, dtype=bool)
    # the round-opening batch prices every element to set the first bar
    rate = state.marginal_means(pool)
    # basis size at each element's last pricing
    priced_at = np.zeros(pool.size, dtype=np.int64)

    def unspanned(idx: np.ndarray) -> np.ndarray:
        """Retire the elements of ``idx`` the basis spans; return the rest."""
        keep = np.array([not checker.spans(e) for e in pool[idx].tolist()], dtype=bool)
        live[idx[~keep]] = False
        return idx[keep]

    def reprice(idx: np.ndarray) -> np.ndarray:
        """Reprice the stale elements of ``idx``, retiring unpriced those
        the basis spans, and return the live ones."""
        stale = unspanned(idx[priced_at[idx] != len(basis)])
        if stale.size:
            rate[stale] = state.marginal_means(pool[stale])
            priced_at[stale] = len(basis)
        return idx[live[idx]]

    tau = float(rate.max())
    floor = (epsilon / rank) * opt_estimate
    while floor > 0.0 and live.any() and len(basis) < rank and tau >= floor:
        candidates = reprice(np.flatnonzero(live & (rate >= tau)))
        turns = candidates[rate[candidates] >= tau]
        # each turn's index, element and last-priced basis size as plain
        # ints: a turn writes only its own entries, so these stay current
        for i, e, at in zip(turns.tolist(), pool[turns].tolist(), priced_at[turns].tolist()):
            if at != len(basis):
                if checker.spans(e):
                    live[i] = False
                    continue
                price = state.price(e)
                rate[i] = price
                priced_at[i] = len(basis)
                # fell below the bar after an insertion; later levels get it
                if price < tau:
                    continue
            live[i] = False
            # the pick is priced at the current basis; unless that basis is
            # empty, the span query put it to the checker first, and its no
            # is the test's answer
            if not basis and not checker.test(e):
                continue
            checker.insert(e)
            basis.append(e)
            if len(basis) >= rank:
                break
            # a full basis is priced no more
            state.insert(e)
        tau *= 1.0 - epsilon
    if len(basis) < rank and live.any():
        # the whole top-off is put to the checker, priced elements too: each
        # spanned one would only fail its test
        rest = unspanned(np.flatnonzero(live))
        stale = rest[priced_at[rest] != len(basis)]
        if stale.size:
            rate[stale] = state.marginal_means(pool[stale])
        # no pricing follows the top-off's batch, so its elements join the
        # basis and the checker but not the round state; the first pick's
        # span query at this basis just said no, which is its test's answer
        order = pool[rest[np.lexsort((pool[rest], -rate[rest]))]].tolist()
        for k, e in enumerate(order):
            if len(basis) >= rank:
                break
            if k == 0 or checker.test(e):
                checker.insert(e)
                basis.append(e)
    if len(basis) != rank:
        raise RuntimeError("threshold sweep failed to assemble a basis")
    return basis


def dt_approx_indep_set(
    state: RoundState,
    structure: DecMatching,
    epsilon: float,
    opt_estimate: float,
    elements: Sequence[int],
    rank: int,
    pinned: Iterable[int] = (),
) -> tuple[list[int], dict[int, int]]:
    """Near-max-rate basis via batched inserts and audits, then a top-off.

    Transversal counterpart of :func:`dt_incremental`: each threshold level
    submits its whole cohort in one batch insert, then a queue audits every
    newly matched vertex, best cached rate first (``(-rate, id)``; the
    batch was priced at the level start), and evicts from the matching
    those whose rate against the kept vertices fell below the level.  An
    eviction's replacement match joins the back of the queue.  ``pinned``
    vertices are preloaded contraction elements: they stay matched, never
    get audited, and are excluded from the returned set.  Whatever the
    ladder leaves short of ``rank`` is topped off in best-rate order with an
    exact checker seeded with the structure's matching, whose members are
    the pinned and matched vertices.

    The round state holds the kept vertices only: a vertex is written when
    its audit keeps it, and an evicted one was never written.  So the state
    only grows, and by submodularity a cached rate bounds the current one,
    as in :func:`dt_incremental`.  Each kept vertex's rate is its gain over
    the vertices kept before it, so the rates telescope as descending
    thresholds need.  Repricing is lazy and exact: a level reprices only
    the pending elements whose cached rate reaches the bar, an audit prices
    its one element (``RoundState.price``) only if the kept set has grown
    since its last pricing, and the top-off reprices what is stale.  When
    the ladder ends every matched, unpinned vertex has been kept, and the
    top-off prices the rest there.

    Returns the basis and the matching that certifies it together with the
    pinned vertices, each one's right vertex: the top-off checker's, or the
    structure's when there is no top-off.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    pinned_set = set(pinned)
    pool = np.array(sorted(e for e in elements if e not in pinned_set), dtype=np.int64)

    def current() -> list[int]:
        return [e for e in structure.basis() if e not in pinned_set]

    if rank <= 0 or not pool.size:
        return current(), dict(structure.match_of_l)
    rate = np.zeros(structure.matroid.n)
    # vertices kept at each element's last pricing; -1 means never priced
    priced_at = np.full(rate.size, -1)
    kept = 0

    def reprice(idx: np.ndarray) -> None:
        stale = idx[priced_at[idx] != kept]
        if stale.size:
            rate[stale] = state.marginal_means(stale)
            priced_at[stale] = kept

    pending = pool
    reprice(pending)
    tau = float(rate[pending].max())
    floor = (epsilon / rank) * opt_estimate
    while floor > 0.0 and pending.size and tau >= floor:
        reprice(pending[rate[pending] >= tau])
        picked = rate[pending] >= tau
        if picked.any():
            batch = pending[picked].tolist()
            pending = pending[~picked]
            # newly matched vertices are never pinned: those were matched
            # first and stay matched
            joiners = structure.batch_insert(batch)
            queue = deque(sorted(joiners, key=lambda e: (-rate[e], e)))
            while queue:
                e = queue.popleft()
                if priced_at[e] != kept:
                    rate[e] = state.price(e)
                    priced_at[e] = kept
                if rate[e] >= tau:
                    # kept for good: never audited or priced again
                    state.insert(e)
                    kept += 1
                else:
                    queue.extend(structure.delete(e))
        tau *= 1.0 - epsilon
    basis = current()
    if len(basis) >= rank:
        return basis, dict(structure.match_of_l)
    checker = structure.checker()
    matched = np.zeros(rate.size, dtype=bool)
    matched[basis] = True
    rest = pool[~matched[pool]]
    reprice(rest)
    for e in rest[np.lexsort((rest, -rate[rest]))].tolist():
        if len(basis) >= rank:
            break
        if checker.test(e):
            checker.insert(e)
            basis.append(e)
    return sorted(basis), checker.match_left


def continuous_greedy(
    f: ValueOracle,
    matroid: Matroid,
    frozen: Iterable[int],
    epsilon: float,
    opt_estimate: float,
    rng: np.random.Generator,
) -> tuple[FractionalSolution, dict[str, int]]:
    """Sampled continuous greedy over the contraction ``f(. | frozen)``.

    The one place phase 2 contracts by ``frozen``: the fractional point
    holds the frozen coordinates at 1, so every drawn row holds them in
    both layers and each price is a gain over the frozen set.  Runs
    ``ceil(1 / epsilon)`` rounds; each round builds one basis of the
    contraction with the kind-appropriate descending-thresholds routine and
    advances the fractional point one step along it.  Returns the convex
    combination of round bases, each joined with ``frozen`` into a basis of
    the matroid, plus a counter dictionary; on a transversal matroid each
    basis comes with the matching that certifies it.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    n = matroid.n
    frozen_set = set(frozen)
    elements = [e for e in range(n) if e not in frozen_set]
    residual_rank = matroid.rank() - len(frozen_set)
    counters = {
        "phase2_rounds": 0,
        "estimator_batches": 0,
        "estimator_prices": 0,
        "dt_test_calls": 0,
        "dt_insert_calls": 0,
        "dt_batch_inserts": 0,
        "dt_deletes": 0,
        "dt_spanned": 0,
    }
    rounds = max(1, math.ceil(1.0 / epsilon))
    step = 1.0 / rounds
    samples = max(
        1,
        math.ceil(
            SAMPLE_COUNT_SCALE
            / epsilon
            * math.log(max(n, 2) / epsilon) ** 2
        ),
    )
    counters["samples_per_estimate"] = samples
    if residual_rank <= 0 or not elements:
        return FractionalSolution(n=n, bases=[]), counters
    x = np.zeros(n, dtype=np.float64)
    # a uniform lies below 1, so every row holds the frozen set
    x[list(frozen_set)] = 1.0
    bases: list[tuple[float, list[int]]] = []
    matchings: list[dict[int, int]] = []
    for _ in range(rounds):
        counters["phase2_rounds"] += 1
        # a coordinate takes only x_e and min(1, x_e + step) within a round,
        # so one nested draw gives the rows at every partial basis (an
        # objective whose prices read no row draws none)
        state = f.sampled_round(x, step, samples, rng)
        if matroid.kind != "transversal":
            checker = CountingChecker(matroid.checker(sorted(frozen_set)))
            b = dt_incremental(
                state, checker, epsilon, opt_estimate, elements, residual_rank
            )
            counters["dt_test_calls"] += checker.tests
            counters["dt_insert_calls"] += checker.inserts
            counters["dt_spanned"] += checker.marked
        else:
            structure = DecMatching(matroid, epsilon)
            if frozen_set:
                seeded = structure.batch_insert(sorted(frozen_set))
                if len(seeded) != len(frozen_set):
                    raise RuntimeError("frozen set lost a match during seeding")
            b, matching = dt_approx_indep_set(
                state,
                structure,
                epsilon,
                opt_estimate,
                elements,
                residual_rank,
                pinned=frozen_set,
            )
            matchings.append(matching)
            ops = structure.op_counters
            # seeding the contraction is construction, not algorithm work
            counters["dt_batch_inserts"] += ops["batch_inserts"] - (
                1 if frozen_set else 0
            )
            counters["dt_deletes"] += ops["deletes"]
        counters["estimator_batches"] += state.calls
        counters["estimator_prices"] += state.prices
        # free the rows, statistics and summary before the next round draws
        del state
        if len(b) != residual_rank:
            raise RuntimeError("round direction is not a full basis")
        for e in b:
            x[e] = min(1.0, x[e] + step)
        bases.append((step, sorted(frozen_set.union(b))))
    return FractionalSolution(n=n, bases=bases, matchings=matchings), counters


@dataclass
class PipelineResult:
    """Everything one optimization run produced, counters included."""

    solution: list[int]
    value: float
    frozen: list[int]
    counters: dict[str, int | float]
    epsilon: float
    seed: int
    opt_estimate: float
    wall_time: float


def run_pipeline(
    instance: Instance,
    epsilon: float,
    seed: int,
) -> PipelineResult:
    """Full pipeline: estimate, freeze, continuous greedy, swap rounding.

    Randomness is split into independent substreams of ``seed`` per stage,
    so phase 1, the multilinear sampling, and the rounding coins do not
    interact.  Phase 1 is built and run only when its loop can fire (see
    the module docstring); otherwise its counters are zero.  Rank-zero
    matroids and all-zero objectives take the same path.  Every record
    carries the same counter keys.
    """
    if not 0.0 < epsilon < 1.0 / 3.0:
        raise ValueError("epsilon must lie in (0, 1/3)")
    start = time.perf_counter()
    matroid = instance.matroid
    f = instance.build_objective()
    rank = matroid.rank()
    counters: dict[str, int | float] = {}
    m_est, singles = estimate_opt(f, matroid)
    counters["estimate_f_queries"] = f.query_count
    eps1 = PHASE1_EPS_FRACTION * epsilon
    state = LSGState()
    # the loop cannot start unless the class values of the rank largest
    # singleton gains, clipped to [0, M], reach its threshold (see the module
    # docstring); the clipped sum bounds them and is checked first, so no
    # gain is classified when it falls short.  A Python sort, since
    # estimate_opt's heap already costs O(n log n) and a first numpy sort or
    # partition faults in about 0.6 MB of the library
    top = sorted(min(max(w, 0.0), m_est) for w in singles)[len(singles) - rank:]
    bar = (PHASE1_THRESHOLD_FACTOR / eps1) * m_est
    if m_est > 0.0 and sum(top) >= bar:
        classifier = WeightClassifier(m_est, eps1, rank)
        if sum(classifier.class_value(classifier.weight_class(w)) for w in top) >= bar:
            oracle = build_phase1_oracle(singles, matroid, classifier, eps1)
            state = lazy_sampling_greedy_plus(f, oracle, eps1, m_est, stream_rng(seed, STREAM_PHASE1))
    s0 = sorted(state.solution)
    counters["phase1_f_queries"] = f.query_count - counters["estimate_f_queries"]
    counters["phase1_iterations"] = state.iterations
    counters["phase1_decrements"] = state.decrements
    counters["phase1_samples"] = state.samples_drawn
    counters["phase1_frozen"] = len(s0)
    after_phase1 = f.query_count
    fractional, cg_counters = continuous_greedy(
        f, matroid, s0, epsilon, m_est, stream_rng(seed, STREAM_MULTILINEAR)
    )
    counters.update(cg_counters)
    counters["phase2_f_queries"] = f.query_count - after_phase1
    if fractional.bases:
        solution = sorted(
            swap_round(fractional, matroid, stream_rng(seed, STREAM_ROUNDING))
        )
    else:
        solution = list(s0)
    if not matroid.is_independent(solution):
        raise RuntimeError("rounded output failed the independence check")
    value = f.value(solution)
    counters["total_f_queries"] = f.query_count
    return PipelineResult(
        solution=solution,
        value=value,
        frozen=s0,
        counters=counters,
        epsilon=epsilon,
        seed=seed,
        opt_estimate=m_est,
        wall_time=time.perf_counter() - start,
    )
