"""Shared vocabulary for the optimizer and the matroid structures.

Elements of every ground set are dense integer ids ``0..n-1``.  Weight
comparisons anywhere in the package break ties lexicographically on
``(weight, element id)`` so that max-weight bases are unique and every
implementation of the same matroid agrees with every other one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence


def weight_key(weight: float, elem: int) -> tuple[float, int]:
    """Sort key realizing the repo-wide (weight, id) lexicographic order."""
    return (weight, elem)


@dataclass
class OracleChanges:
    """Change to the unfrozen part of a maintained basis from one mutation.

    ``added`` lists the elements that entered the unfrozen part of the
    maintained basis, ``removed`` the elements that left it; a frozen
    element counts as removed.  An element whose weight fell while it
    stayed inside is in neither list.
    """

    added: list[int] = field(default_factory=list)
    removed: list[int] = field(default_factory=list)


class WeightClassifier:
    """Geometric weight discretization around an optimum estimate ``M``.

    Class ``j`` carries the value ``(1-eps)^j * M``; a weight is assigned the
    largest class value not exceeding it, so rounded weights never overshoot
    the true ones.  Weights at or below ``eps*M/(10*rank)`` fall into the
    bottom class, whose value is 0.  Weights above ``M`` clamp to class 0.
    """

    def __init__(self, opt_estimate: float, epsilon: float, rank: int) -> None:
        # the sampling loop needs eps < 1/3; discretization itself is happy
        # with any eps in (0, 1), so that stricter check lives in the optimizer
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if opt_estimate <= 0.0:
            raise ValueError("optimum estimate must be positive")
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.opt_estimate = float(opt_estimate)
        self.epsilon = float(epsilon)
        self.rank = int(rank)
        self.num_classes = math.ceil(
            10.0 * math.log(epsilon / rank) / math.log(1.0 - epsilon)
        )
        self.bottom_threshold = epsilon * opt_estimate / (10.0 * rank)

    def class_value(self, j: int) -> float:
        """Value of class ``j``; the bottom class is worth 0."""
        if not 0 <= j <= self.num_classes:
            raise ValueError(f"class index {j} out of range")
        if j == self.num_classes:
            return 0.0
        return (1.0 - self.epsilon) ** j * self.opt_estimate

    def weight_class(self, w: float) -> int:
        """Class index for weight ``w``.

        Satisfies ``class_value(j) <= w < class_value(j) / (1-eps)`` for any
        ``w`` above the bottom threshold.
        """
        if w < 0.0:
            raise ValueError("weights must be nonnegative")
        if w <= self.bottom_threshold:
            return self.num_classes
        if w >= self.opt_estimate:
            return 0
        j = math.ceil(math.log(w / self.opt_estimate) / math.log(1.0 - self.epsilon) - 1e-12)
        j = min(max(j, 0), self.num_classes)
        # float guard: settle on the exact largest class value <= w
        while j < self.num_classes and self.class_value(j) > w:
            j += 1
        while j > 0 and self.class_value(j - 1) <= w:
            j -= 1
        return j


class IndependenceChecker(Protocol):
    """Incremental independence tester for one matroid instance."""

    def test(self, elem: int) -> bool:
        """Would adding ``elem`` keep the current set independent?"""

    def insert(self, elem: int) -> None:
        """Add ``elem``; callers only insert elements that pass ``test``."""


def greedy_basis_value(
    f: "SetFunction",
    elements: Sequence[int],
    make_checker: Callable[[], IndependenceChecker],
) -> tuple[float, list[int]]:
    """One pass of lazy greedy over a matroid; returns ``(f(S), S)``."""
    return _lazy_greedy(f, elements, make_checker)[:2]


def _lazy_greedy(
    f: "SetFunction",
    elements: Sequence[int],
    make_checker: Callable[[], IndependenceChecker],
) -> tuple[float, list[int], list[float]]:
    """Lazy greedy's ``(f(S), S)`` plus the singleton gains its heap starts on.

    ``S`` is a basis whose value is within a factor 2 of the optimum for
    monotone submodular ``f``.  A popped element is repriced against
    ``f.incremental()``, which keeps state for the chosen set, so a pop
    costs one element's update (``O(|cover(e)|)`` for coverage,
    ``O(clients)`` for facility location) and is counted as one value
    query.  The heap's first keys are gains on the same state while it is
    still empty, one query per element on the float path the pops read;
    they are returned in ``elements`` order.
    """
    if not elements:
        raise ValueError("ground set is empty")
    checker = make_checker()
    state = f.incremental()
    chosen: list[int] = []
    value = f.value(())
    singles = [state.gain(e) for e in elements]
    # (negated bound, negated id) so ties resolve toward the larger id,
    # matching the (weight, id) order used everywhere else
    heap = [(-g, -e) for g, e in zip(singles, elements)]
    heapq.heapify(heap)
    while heap:
        bound, neg_e = heapq.heappop(heap)
        e = -neg_e
        gain = state.gain(e)
        if heap and (-gain, -e) > heap[0]:
            heapq.heappush(heap, (-gain, -e))
            continue
        if checker.test(e):
            checker.insert(e)
            state.add(e)
            chosen.append(e)
            value += gain
    return value, chosen, singles


class IncrementalValue(Protocol):
    """``f(S + e) - f(S)`` for a set ``S`` the greedy pass grows."""

    def gain(self, elem: int) -> float: ...

    def add(self, elem: int) -> None: ...


class SetFunction(Protocol):
    """Minimal query surface the greedy pass needs; see objectives module."""

    def value(self, subset: Iterable[int]) -> float: ...

    def incremental(self) -> IncrementalValue: ...


class MatroidLike(Protocol):
    """What the optimum estimator needs from a matroid instance."""

    n: int

    def checker(self) -> IndependenceChecker: ...


def estimate_opt(f: "SetFunction", matroid: MatroidLike) -> tuple[float, list[float]]:
    """Greedy basis value ``M``, with ``f(OPT)/2 <= M <= f(OPT)``, and each
    element's singleton gain in id order: the greedy pass's first heap keys,
    which phase 1 reads as its weights."""
    value, _, singles = _lazy_greedy(f, range(matroid.n), matroid.checker)
    return value, singles
