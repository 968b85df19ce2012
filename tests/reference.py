"""Slow, definitional references the differential tests compare against.

Everything here is deliberately simple: straight-line implementations with
no shared state or code with the structures under test.  None of it is
needed to solve an instance, so it lives beside the tests rather than in
the package.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from matsub.core import IndependenceChecker, OracleChanges, SetFunction, weight_key
from matsub.instances import GraphicMatroid, LaminarMatroid, Matroid, TransversalMatroid
from matsub.objectives import ValueOracle, sample_subsets
from matsub.optimizer import FractionalSolution
from matsub.sampler import BucketLists
from matsub.transversal import DecMatching


# ---------------------------------------------------------------------------
# laminar bases


class SlowLaminarBasis:
    """Reference implementation; every operation walks the whole tree."""

    def __init__(self, matroid: LaminarMatroid, weights: Mapping[int, float]) -> None:
        self.matroid = matroid
        self.num_nodes = len(matroid.parents)
        self.parents = list(matroid.parents)
        self.caps = list(matroid.capacities)
        self.node_of = {e: node for e, node in enumerate(matroid.element_nodes)}
        self.elem_at = {node: e for e, node in self.node_of.items()}
        self.weights: dict[int, float] = {}
        self.in_basis: set[int] = set()
        self.frozen: set[int] = set()
        self.shadow: set[int] = set()
        self.counts = [0] * self.num_nodes
        self._basis_weight = 0.0
        for elem, weight in sorted(weights.items()):
            self.insert(elem, weight)

    # -- bookkeeping ------------------------------------------------------

    def _key(self, elem: int) -> tuple[float, int]:
        if elem in self.frozen:
            return (math.inf, elem)
        return weight_key(self.weights[elem], elem)

    def _path(self, node: int) -> list[int]:
        out = []
        v = node
        while v != -1:
            out.append(v)
            v = self.parents[v]
        return out

    def _basis_add(self, elem: int, changes: OracleChanges) -> None:
        self.in_basis.add(elem)
        for v in self._path(self.node_of[elem]):
            self.counts[v] += 1
        self._basis_weight += self.weights[elem]
        changes.added.append(elem)

    def _basis_remove(self, elem: int, changes: OracleChanges) -> None:
        self.in_basis.remove(elem)
        for v in self._path(self.node_of[elem]):
            self.counts[v] -= 1
        self._basis_weight -= self.weights[elem]
        changes.removed.append(elem)

    # -- queries ----------------------------------------------------------

    def lowest_tight(self, elem: int) -> int | None:
        for v in self._path(self.node_of[elem]):
            if self.counts[v] >= self.caps[v]:
                return v
        return None

    def min_basis_in(self, node: int) -> int | None:
        best = None
        for elem in self.in_basis:
            if elem in self.frozen or elem in self.shadow:
                continue
            if node not in self._path(self.node_of[elem]):
                continue
            if best is None or self._key(elem) < self._key(best):
                best = elem
        return best

    def _addable(self, elem: int, stop: int | None) -> bool:
        """No tight node on the leaf-to-``stop`` path, ``stop`` excluded.

        ``stop=None`` gates the full path root included, which is the
        condition for joining the basis outright.
        """
        for v in self._path(self.node_of[elem]):
            if v == stop:
                return True
            if self.counts[v] >= self.caps[v]:
                return False
        return stop is None

    def max_addable_under(self, node: int) -> int | None:
        best = None
        for elem in self.weights:
            if elem in self.in_basis or elem in self.shadow:
                continue
            if node not in self._path(self.node_of[elem]):
                continue
            if not self._addable(elem, node):
                continue
            if best is None or self._key(elem) > self._key(best):
                best = elem
        return best

    def max_addable(self) -> int | None:
        best = None
        for elem in self.weights:
            if elem in self.in_basis or elem in self.shadow:
                continue
            if not self._addable(elem, None):
                continue
            if best is None or self._key(elem) > self._key(best):
                best = elem
        return best

    # -- mutations --------------------------------------------------------

    def insert(self, elem: int, weight: float) -> OracleChanges:
        if elem in self.weights:
            raise ValueError(f"element {elem} already present")
        if elem not in self.node_of:
            raise ValueError(f"element {elem} is not a declared slot")
        if weight < 0:
            raise ValueError("weights must be nonnegative")
        self.weights[elem] = weight
        changes = OracleChanges()
        tight = self.lowest_tight(elem)
        if tight is None:
            self._basis_add(elem, changes)
            return changes
        victim = self.min_basis_in(tight)
        if victim is not None and self._key(victim) < self._key(elem):
            self._basis_remove(victim, changes)
            self._basis_add(elem, changes)
        return changes

    def delete(self, elem: int) -> OracleChanges:
        if elem not in self.weights:
            raise ValueError(f"element {elem} not present")
        if elem in self.frozen:
            raise ValueError("cannot delete a frozen element")
        changes = OracleChanges()
        if elem in self.in_basis:
            self._basis_remove(elem, changes)
            del self.weights[elem]
            refill = self.max_addable()
            if refill is not None:
                self._basis_add(refill, changes)
        else:
            del self.weights[elem]
        return changes

    def decrement(self, elem: int, new_weight: float) -> OracleChanges:
        if elem not in self.weights:
            raise ValueError(f"element {elem} not present")
        if elem in self.frozen:
            raise ValueError("cannot decrement a frozen element")
        if new_weight > self.weights[elem]:
            raise ValueError("decrement cannot raise a weight")
        changes = OracleChanges()
        if elem not in self.in_basis:
            self.weights[elem] = new_weight
            return changes
        self._basis_remove(elem, changes)
        self.weights[elem] = new_weight
        refill = self.max_addable()
        # the demoted element stays addable, so the basis never shrinks here
        self._basis_add(refill, changes)
        # one that takes its own slot back neither entered nor left
        return OracleChanges() if refill == elem else changes

    def freeze(self, elem: int) -> OracleChanges:
        if elem not in self.in_basis or elem in self.frozen:
            raise ValueError("only unfrozen basis elements can be frozen")
        self.frozen.add(elem)
        return OracleChanges(removed=[elem])

    # -- primitives for SlowLaminarExchanger's unweighted copies ----------

    def remove_from_basis(self, elem: int) -> None:
        if elem not in self.in_basis:
            raise ValueError(f"element {elem} not in basis")
        self._basis_remove(elem, OracleChanges())

    def add_to_basis(self, elem: int) -> None:
        if elem not in self.weights or elem in self.in_basis:
            raise ValueError(f"element {elem} cannot be force-added")
        self._basis_add(elem, OracleChanges())

    def set_shadow(self, elem: int, flag: bool) -> None:
        if flag:
            self.shadow.add(elem)
        else:
            self.shadow.discard(elem)

    def make_present(self, elem: int, weight: float) -> None:
        """Presence without basis logic; used to stage exchange structures."""
        if elem in self.weights:
            raise ValueError(f"element {elem} already present")
        self.weights[elem] = weight

    # -- inspection -------------------------------------------------------

    def basis(self) -> list[int]:
        return sorted(self.in_basis)

    def approx_base_weight(self) -> float:
        return self._basis_weight


def greedy_laminar_basis(
    matroid: LaminarMatroid,
    weights: Mapping[int, float],
    frozen: Iterable[int] = (),
) -> list[int]:
    """Independent greedy oracle for the unique max-weight basis.

    Frozen elements sort above everything, mirroring the structures' promise
    that they are never evicted.
    """
    frozen = set(frozen)

    def key(e: int) -> tuple[float, int]:
        return (math.inf, e) if e in frozen else weight_key(weights[e], e)

    checker = matroid.checker()
    chosen = []
    for e in sorted(weights, key=key, reverse=True):
        if checker.test(e):
            checker.insert(e)
            chosen.append(e)
    return sorted(chosen)


# ---------------------------------------------------------------------------
# disjoint sets


class PathCompressingUnionFind:
    """Disjoint sets as a parent forest, union by size; ``find`` points
    every vertex on its walk straight at the root."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def max_forest_weight(
    mat: GraphicMatroid, weights: Mapping[int, float], frozen: set[int]
) -> float:
    """Weight of the max-weight forest containing the frozen edges, by
    Kruskal."""
    dsu = PathCompressingUnionFind(mat.num_vertices)
    total = 0.0
    for e in frozen:
        dsu.union(*mat.edges[e])
        total += weights[e]
    order = sorted(weights, key=lambda e: weight_key(weights[e], e), reverse=True)
    for e in order:
        if e not in frozen and dsu.union(*mat.edges[e]):
            total += weights[e]
    return total


# ---------------------------------------------------------------------------
# swap-rounding exchangers over whole bases


def path_walk_is_independent(matroid: LaminarMatroid, subset: Iterable[int]) -> bool:
    """Laminar independence by walking each element's parent pointers up to
    the root, counting it at every node on the way."""
    counts: dict[int, int] = {}
    for e in set(subset):
        v = matroid.element_nodes[e]
        while v != -1:
            counts[v] = counts.get(v, 0) + 1
            if counts[v] > matroid.capacities[v]:
                return False
            v = matroid.parents[v]
    return True


class SlowLaminarExchanger:
    """Swap-rounding exchanges through two unweighted slow laminar bases.

    The partner for i is the maximum addable leaf of the first copy below
    i's lowest tight constraint in the second.  Both structures hold every
    element of B1 | B2 with weight one.  Shadowed elements are out of play
    for the max-addable queries: initially the intersection, thereafter
    every resolved pair, so the candidate pool is always exactly the
    unresolved part of the current B2 \\ B1.  Per-node counts of both bases
    certify each exchange.
    """

    def __init__(self, matroid: LaminarMatroid, b1: Iterable[int], b2: Iterable[int]) -> None:
        self.matroid = matroid
        self.set1 = set(b1)
        self.set2 = set(b2)
        self.d1 = SlowLaminarBasis(matroid, {})
        self.d2 = SlowLaminarBasis(matroid, {})
        for e in sorted(self.set1 | self.set2):
            self.d1.make_present(e, 1.0)
            self.d2.make_present(e, 1.0)
        for e in sorted(self.set1):
            self.d1.add_to_basis(e)
        for e in sorted(self.set2):
            self.d2.add_to_basis(e)
        for e in sorted(self.set1 & self.set2):
            self.d1.set_shadow(e, True)
            self.d2.set_shadow(e, True)
        self.count1 = [0] * len(matroid.parents)
        self.count2 = [0] * len(matroid.parents)
        for e in self.set1:
            self._shift(self.count1, e, 1)
        for e in self.set2:
            self._shift(self.count2, e, 1)

    def _path(self, elem: int) -> list[int]:
        return self.matroid.path_to_root(self.matroid.element_nodes[elem])

    def _shift(self, counts: list[int], elem: int, delta: int) -> None:
        for v in self._path(elem):
            counts[v] += delta

    def exchange(self, i: int) -> int:
        # i's addition to B2 is blocked at its lowest tight constraint; the
        # partner must sit below it so that removing j frees that node
        v = self.d2.lowest_tight(i)
        self.d1.remove_from_basis(i)
        self.d1.set_shadow(i, True)
        j = self.d1.max_addable_under(v) if v is not None else self.d1.max_addable()
        if j is None:
            raise RuntimeError(f"no exchange partner for element {i}")
        return j

    def admits(self, i: int, j: int) -> tuple[bool, bool]:
        """Are B1 - i + j and B2 - j + i independent?"""
        caps = self.matroid.capacities
        path_i, path_j = self._path(i), self._path(j)
        only_i, only_j = set(path_i) - set(path_j), set(path_j) - set(path_i)
        first = all(self.count1[v] < caps[v] for v in only_j)
        second = all(self.count2[v] < caps[v] for v in only_i)
        return first, second

    def apply(self, i: int, j: int, move_first: bool) -> None:
        if move_first:
            self.d1.add_to_basis(j)
            self.set1.remove(i)
            self.set1.add(j)
            self._shift(self.count1, i, -1)
            self._shift(self.count1, j, 1)
        else:
            self.d1.add_to_basis(i)
            self.d2.remove_from_basis(j)
            self.d2.add_to_basis(i)
            self.set2.remove(j)
            self.set2.add(i)
            self._shift(self.count2, j, -1)
            self._shift(self.count2, i, 1)
        # both i and j are settled for good: one now lies in both bases, the
        # other in neither, so neither may be offered as a partner again
        self.d1.set_shadow(j, True)
        self.d2.set_shadow(i, True)
        self.d2.set_shadow(j, True)


class AdjacencyGraphicExchanger:
    """Cut-and-cycle exchange over two whole spanning forests kept as adjacency maps.

    The partner for i is the smallest edge of B2's cycle through i outside
    B1 that crosses the cut deleting i makes in B1.  For the element i under
    exchange, ``side`` is the vertex set of one side of that cut and
    ``cycle`` the edges of B2's path between i's ends; both are found once
    per i.
    """

    def __init__(self, matroid: GraphicMatroid, b1: Iterable[int], b2: Iterable[int]) -> None:
        self.matroid = matroid
        self.set1 = set(b1)
        self.set2 = set(b2)
        self.adj1: dict[int, set[tuple[int, int]]] = {}
        self.adj2: dict[int, set[tuple[int, int]]] = {}
        for e in self.set1:
            self._link(self.adj1, e)
        for e in self.set2:
            self._link(self.adj2, e)
        self._for: int | None = None
        self.side: set[int] = set()
        self.cycle: set[int] = set()

    def _link(self, adjacency: dict[int, set[tuple[int, int]]], e: int) -> None:
        a, b = self.matroid.edges[e]
        adjacency.setdefault(a, set()).add((b, e))
        adjacency.setdefault(b, set()).add((a, e))

    def _unlink(self, adjacency: dict[int, set[tuple[int, int]]], e: int) -> None:
        a, b = self.matroid.edges[e]
        adjacency[a].discard((b, e))
        adjacency[b].discard((a, e))

    def _prepare(self, i: int) -> None:
        if self._for == i:
            return
        u, v = self.matroid.edges[i]
        # the side of u once i is deleted from B1
        side = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for y, e in self.adj1.get(x, ()):
                if e != i and y not in side:
                    side.add(y)
                    stack.append(y)
        # the u-v path in B2, which closes the unique cycle of B2 + i
        parent: dict[int, tuple[int, int]] = {u: (-1, -1)}
        queue = deque([u])
        while queue and v not in parent:
            x = queue.popleft()
            for y, e in self.adj2.get(x, ()):
                if y not in parent:
                    parent[y] = (x, e)
                    queue.append(y)
        cycle: set[int] = set()
        x = v if v in parent else u
        while x != u:
            x, e = parent[x]
            cycle.add(e)
        self._for, self.side, self.cycle = i, side, cycle

    def _crosses(self, j: int) -> bool:
        a, b = self.matroid.edges[j]
        return (a in self.side) != (b in self.side)

    def exchange(self, i: int) -> int:
        self._prepare(i)
        if not self.cycle:
            raise RuntimeError(f"endpoints of edge {i} not connected in the second basis")
        for j in sorted(self.cycle - self.set1):
            if self._crosses(j):
                return j
        raise RuntimeError(f"no exchange partner for edge {i}")

    def admits(self, i: int, j: int) -> tuple[bool, bool]:
        """Are B1 - i + j and B2 - j + i forests?"""
        self._prepare(i)
        return self._crosses(j), j in self.cycle

    def apply(self, i: int, j: int, move_first: bool) -> None:
        if move_first:
            self.set1.remove(i)
            self.set1.add(j)
            self._unlink(self.adj1, i)
            self._link(self.adj1, j)
        else:
            self.set2.remove(j)
            self.set2.add(i)
            self._unlink(self.adj2, j)
            self._link(self.adj2, i)
        self._for = None


# ---------------------------------------------------------------------------
# generic matroid and matching references


def max_weight_basis(matroid: Matroid, weights: Sequence[float]) -> list[int]:
    """The unique max-weight basis under the (weight, id) tie-break.

    Greedy over elements in decreasing (weight, id) order; this is the
    yardstick every dynamic structure must reproduce exactly.
    """
    order = sorted(range(matroid.n), key=lambda e: (weights[e], e), reverse=True)
    checker = matroid.checker()
    basis = []
    for e in order:
        if checker.test(e):
            checker.insert(e)
            basis.append(e)
    return sorted(basis)


def scratch_greedy_basis_value(
    f: SetFunction, elements: Sequence[int], make_checker: Callable[[], IndependenceChecker]
) -> tuple[float, list[int]]:
    """Lazy greedy that evaluates ``f(S + e)`` from scratch on every pop.

    The same heap, tie-break and query count as ``core.greedy_basis_value``,
    which reprices through ``f.incremental()`` instead.
    """
    if not elements:
        raise ValueError("ground set is empty")
    checker = make_checker()
    chosen: list[int] = []
    value = f.value(())
    heap = [(-(f.value((e,)) - value), -e) for e in elements]
    heapq.heapify(heap)
    while heap:
        _bound, neg_e = heapq.heappop(heap)
        e = -neg_e
        gain = f.value(tuple(chosen) + (e,)) - value
        if heap and (-gain, -e) > heap[0]:
            heapq.heappush(heap, (-gain, -e))
            continue
        if checker.test(e):
            checker.insert(e)
            chosen.append(e)
            value += gain
    return value, chosen


def exhaustive_opt(f: SetFunction, matroid: Matroid, limit: int = 12) -> float:
    """Plain scan of all subsets; cross-checks ``brute_force_opt``."""
    n = matroid.n
    if n > limit:
        raise ValueError(f"exhaustive scan capped at {limit} elements, got {n}")
    best = f.value(())
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            if matroid.is_independent(combo):
                best = max(best, f.value(combo))
    return best


def hungarian_max_weight_matching(
    adjacency: Sequence[Sequence[int]], weights: Sequence[float], num_right: int
) -> float:
    """Optimal total weight of a left-vertex-weighted bipartite matching.

    Built on the assignment solver with dummy columns so leaving a vertex
    unmatched is always an option and non-edges are never used.
    """
    nl = len(adjacency)
    if nl == 0:
        return 0.0
    forbidden = -(max((abs(w) for w in weights), default=1.0) + 1.0) * (nl + 1)
    cost = np.full((nl, num_right + nl), forbidden, dtype=np.float64)
    for i, nbrs in enumerate(adjacency):
        for r in nbrs:
            cost[i, r] = weights[i]
        cost[i, num_right + i] = 0.0  # the "stay unmatched" column
    rows, cols = linear_sum_assignment(cost, maximize=True)
    total = 0.0
    for i, c in zip(rows, cols):
        if c < num_right and cost[i, c] > forbidden / 2:
            total += cost[i, c]
    return total


def hopcroft_karp(adjacency: Sequence[Sequence[int]], num_right: int) -> dict[int, int]:
    """Maximum-cardinality bipartite matching; returns left -> right."""
    nl = len(adjacency)
    match_l = [-1] * nl
    match_r = [-1] * num_right
    INF = nl + num_right + 1
    dist = [INF] * nl

    def bfs() -> bool:
        queue = deque()
        for u in range(nl):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for r in adjacency[u]:
                w = match_r[r]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for r in adjacency[u]:
            w = match_r[r]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = r
                match_r[r] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in range(nl):
            if match_l[u] == -1:
                dfs(u)
    return {u: match_l[u] for u in range(nl) if match_l[u] != -1}


# ---------------------------------------------------------------------------
# multilinear estimates


def estimate_marginals_on_point(
    f: ValueOracle,
    x: np.ndarray,
    elems: Sequence[int],
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sampled multilinear marginals at ``x`` from one fresh draw.

    The mean of ``f(R+e) - f(R-e)`` over ``samples`` subsets drawn from
    ``x``, all elements sharing the draw.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    sets = sample_subsets(x, samples, rng)
    return f.batch_marginal_means(sets, elems)


def estimate_marginal_on_point(
    f: ValueOracle, elem: int, x: np.ndarray, samples: int, rng: np.random.Generator
) -> float:
    """Single-element convenience wrapper around the batched estimator."""
    return float(estimate_marginals_on_point(f, x, [elem], samples, rng)[0])


def fractional_point(fractional: FractionalSolution) -> np.ndarray:
    """The point of ``[0, 1]^n`` a convex combination of bases stands for."""
    x = np.zeros(fractional.n, dtype=np.float64)
    for weight, base in fractional.bases:
        for e in base:
            x[e] += weight
    return np.minimum(x, 1.0)


# ---------------------------------------------------------------------------
# the eager threshold sweep


def eager_dt_incremental(
    state,
    checker,
    epsilon: float,
    opt_estimate: float,
    elements: Sequence[int],
    rank: int,
) -> list[int]:
    """``optimizer.dt_incremental`` with eager repricing: every active
    element is repriced after every insertion."""
    basis: list[int] = []
    active = sorted(elements)
    if rank <= 0 or not active:
        return basis
    cache: dict[int, float] = {}
    cache_size = -1

    def rate_of(e: int) -> float:
        nonlocal cache, cache_size
        if cache_size != len(basis):
            cache = dict(zip(active, map(float, state.marginal_means(active))))
            cache_size = len(basis)
        return cache[e]

    def take(e: int) -> None:
        if checker.test(e):
            checker.insert(e)
            state.insert(e)
            basis.append(e)

    tau = max(rate_of(e) for e in active)
    floor = (epsilon / rank) * opt_estimate
    while floor > 0.0 and active and len(basis) < rank and tau >= floor:
        for e in [e for e in active if rate_of(e) >= tau]:
            if rate_of(e) < tau:
                continue
            take(e)
            active.remove(e)
            if len(basis) >= rank:
                break
        tau *= 1.0 - epsilon
    if len(basis) < rank and active:
        for e in sorted(active, key=lambda e: (-rate_of(e), e)):
            if len(basis) >= rank:
                break
            take(e)
    return basis


def cohort_dt_incremental(
    state,
    checker,
    epsilon: float,
    opt_estimate: float,
    elements: Sequence[int],
    rank: int,
) -> list[int]:
    """``optimizer.dt_incremental`` with cohort repricing: after every
    insertion the rest of the level's cohort whose cached rate still
    reaches the bar is repriced in one batch, and a turn reads the cached
    rate."""
    basis: list[int] = []
    pool = np.array(sorted(elements), dtype=np.int64)
    if rank <= 0 or not pool.size:
        return basis
    live = np.ones(pool.size, dtype=bool)
    rate = np.zeros(pool.size)
    priced_at = np.full(pool.size, -1)

    def reprice(idx: np.ndarray) -> None:
        stale = idx[priced_at[idx] != len(basis)]
        if stale.size:
            rate[stale] = state.marginal_means(pool[stale])
            priced_at[stale] = len(basis)

    def take(i: int) -> bool:
        e = int(pool[i])
        live[i] = False
        if not checker.test(e):
            return False
        checker.insert(e)
        state.insert(e)
        basis.append(e)
        return True

    reprice(np.arange(pool.size))
    tau = float(rate.max())
    floor = (epsilon / rank) * opt_estimate
    while floor > 0.0 and live.any() and len(basis) < rank and tau >= floor:
        candidates = np.flatnonzero(live & (rate >= tau))
        reprice(candidates)
        cohort = candidates[rate[candidates] >= tau]
        for k, i in enumerate(cohort):
            if rate[i] >= tau and take(i):
                if len(basis) >= rank:
                    break
                rest = cohort[k + 1:]
                reprice(rest[rate[rest] >= tau])
        tau *= 1.0 - epsilon
    if len(basis) < rank and live.any():
        rest = np.flatnonzero(live)
        reprice(rest)
        for i in rest[np.lexsort((pool[rest], -rate[rest]))]:
            if len(basis) >= rank:
                break
            take(i)
    return basis


def always_tested_dt_incremental(
    state,
    checker,
    epsilon: float,
    opt_estimate: float,
    elements: Sequence[int],
    rank: int,
) -> list[int]:
    """``optimizer.dt_incremental`` with every take tested: the same span
    queries and pricings, but a no from ``checker.spans`` is never taken as
    the test's answer."""
    basis: list[int] = []
    pool = np.array(sorted(elements), dtype=np.int64)
    if rank <= 0 or not pool.size:
        return basis
    live = np.ones(pool.size, dtype=bool)
    rate = state.marginal_means(pool)
    priced_at = np.zeros(pool.size, dtype=np.int64)

    def unspanned(idx: np.ndarray) -> np.ndarray:
        keep = np.array([not checker.spans(e) for e in pool[idx].tolist()], dtype=bool)
        live[idx[~keep]] = False
        return idx[keep]

    def take(i: int) -> None:
        e = int(pool[i])
        live[i] = False
        if checker.test(e):
            checker.insert(e)
            state.insert(e)
            basis.append(e)

    tau = float(rate.max())
    floor = (epsilon / rank) * opt_estimate
    while floor > 0.0 and live.any() and len(basis) < rank and tau >= floor:
        cohort = np.flatnonzero(live & (rate >= tau))
        stale = unspanned(cohort[priced_at[cohort] != len(basis)])
        if stale.size:
            rate[stale] = state.marginal_means(pool[stale])
            priced_at[stale] = len(basis)
        cohort = cohort[live[cohort]]
        for i in cohort[rate[cohort] >= tau].tolist():
            if priced_at[i] != len(basis):
                if checker.spans(int(pool[i])):
                    live[i] = False
                    continue
                rate[i] = state.price(pool[i])
                priced_at[i] = len(basis)
                if rate[i] < tau:
                    continue
            take(i)
            if len(basis) >= rank:
                break
        tau *= 1.0 - epsilon
    if len(basis) < rank and live.any():
        rest = unspanned(np.flatnonzero(live))
        stale = rest[priced_at[rest] != len(basis)]
        if stale.size:
            rate[stale] = state.marginal_means(pool[stale])
        for i in rest[np.lexsort((pool[rest], -rate[rest]))].tolist():
            if len(basis) >= rank:
                break
            take(i)
    return basis


def eager_dt_approx_indep_set(
    state,
    structure: DecMatching,
    epsilon: float,
    opt_estimate: float,
    elements: Sequence[int],
    rank: int,
    pinned: Iterable[int] = (),
) -> list[int]:
    """``optimizer.dt_approx_indep_set`` with eager repricing: every level
    reprices all pending elements once the kept set has changed, every
    audit prices its element against the kept set, and the top-off prices
    every element outside the matched set.  The round state holds the kept
    vertices only; a level's newly matched vertices are audited in
    ``(-rate, id)`` order of their level-start rates, and an eviction's
    replacement after them.  An audit reads a known rate instead when the
    kept set has not changed since it was priced."""
    pinned_set = set(pinned)
    pending = sorted(e for e in elements if e not in pinned_set)
    # rates priced at the current kept set
    known: dict[int, float] = {}

    def current() -> list[int]:
        return [e for e in structure.basis() if e not in pinned_set]

    def rate_of(e: int) -> float:
        if e not in known:
            known[e] = float(state.marginal_means([e])[0])
        return known[e]

    if rank <= 0 or not pending:
        return current()
    everything = list(pending)
    known.update(zip(pending, map(float, state.marginal_means(pending))))
    tau = max(known.values())
    floor = (epsilon / rank) * opt_estimate
    while floor > 0.0 and pending and tau >= floor:
        if any(e not in known for e in pending):
            known.update(zip(pending, map(float, state.marginal_means(pending))))
        batch = [e for e in pending if known[e] >= tau]
        if batch:
            pending = [e for e in pending if known[e] < tau]
            joiners = structure.batch_insert(batch)
            assert not pinned_set & set(joiners)
            queue = deque(sorted(joiners, key=lambda e: (-known[e], e)))
            while queue:
                e = queue.popleft()
                if rate_of(e) >= tau:
                    state.insert(e)
                    known.clear()
                else:
                    queue.extend(structure.delete(e))
        tau *= 1.0 - epsilon
    out = current()
    if len(out) < rank:
        checker = structure.matroid.checker(sorted(pinned_set) + out)
        have = set(out)
        rest = [e for e in everything if e not in have]
        vals = state.marginal_means(rest)
        for e, _v in sorted(zip(rest, vals), key=lambda t: (-float(t[1]), t[0])):
            if len(out) >= rank:
                break
            if checker.test(e):
                checker.insert(e)
                out.append(e)
    return sorted(out)


# ---------------------------------------------------------------------------
# readers of structure state the package itself never needs


def move_bucket(buckets: BucketLists, elem: int, class_index: int) -> None:
    """Refile ``elem`` under another weight class."""
    buckets.remove(elem)
    buckets.insert(elem, class_index)


def bucket_class(buckets: BucketLists, elem: int) -> int:
    """The weight class ``elem`` is filed under."""
    return buckets._where[elem][0]


def bucket_weight(buckets: BucketLists, elem: int) -> float:
    """The rounded weight of ``elem``'s class."""
    return buckets.classifier.class_value(bucket_class(buckets, elem))


def dec_matching_pairs(d: DecMatching | RebuildDecMatching) -> dict[int, int]:
    """Left-to-right pairs of a ``DecMatching``; the filter drops the dummy
    pins that only ``RebuildDecMatching`` makes."""
    return {l: r for l, r in d.match_of_l.items() if r < d.matroid.num_right}


class DoubleSearchTransversalChecker:
    """Transversal checker whose ``insert`` repeats the search of ``test``;
    a member is never matched twice."""

    def __init__(self, matroid: TransversalMatroid) -> None:
        self.matroid = matroid
        self.match_right: dict[int, int] = {}

    def _augment(self, elem: int, visited: set[int], commit: bool) -> bool:
        for r in self.matroid.adjacency[elem]:
            if r in visited:
                continue
            visited.add(r)
            owner = self.match_right.get(r)
            if owner is None or self._augment(owner, visited, commit):
                if commit:
                    self.match_right[r] = elem
                return True
        return False

    def test(self, elem: int) -> bool:
        if elem in self.match_right.values():
            return False
        return self._augment(elem, set(), commit=False)

    def insert(self, elem: int) -> None:
        if elem in self.match_right.values() or not self._augment(elem, set(), commit=True):
            raise ValueError("insert would break independence")


class RebuildDecMatching:
    """``DecMatching`` by rebuild and pinning: each batch insert throws the
    matching away and rebuilds it, re-seeding the prior pairs, and a delete
    pins its vertex to a fresh right vertex adjacent to it alone.

    It augments by the same phase rule, written the textbook way: a
    breadth-first search gives each right vertex its distance from the
    sources, up to the first layer with a free left vertex, and a recursive
    search follows edges one layer out, marking a right vertex it fails
    from as spent.  Each right vertex reads its neighbours in the order
    they were first inserted."""

    def __init__(self, matroid: TransversalMatroid, epsilon: float) -> None:
        self.matroid = matroid
        self.max_len = 2 + 2 / epsilon
        self.num_right = matroid.num_right
        self.present: set[int] = set()
        self.deleted: set[int] = set()
        self.match_of_l: dict[int, int] = {}
        self.match_of_r: dict[int, int] = {}
        self._order: list[int] = []
        self._n_r: dict[int, list[int]] = {}

    def _phase(self, sources: list[int]) -> list[int]:
        dist = dict.fromkeys(sources, 0)
        queue = list(sources)
        final = None
        for r in queue:
            k = dist[r] + 1
            if (final is not None and k > final) or 2 * k - 1 > self.max_len:
                break
            for l in self._n_r.get(r, []):
                rm = self.match_of_l.get(l)
                if rm is None:
                    final = k
                elif rm not in dist:
                    dist[rm] = k
                    queue.append(rm)
        if final is None:
            return []

        def search(r: int) -> int | None:
            for l in self._n_r.get(r, []):
                rm = self.match_of_l.get(l)
                if rm is None:
                    found = l if dist[r] + 1 == final else None
                elif dist.get(rm) == dist[r] + 1 and dist[rm] < final:
                    found = search(rm)
                else:
                    continue
                if found is not None:
                    self.match_of_l[l] = r
                    self.match_of_r[r] = l
                    return found
            dist[r] = -1
            return None

        return [l for l in map(search, sources) if l is not None]

    def batch_insert(self, elems: Iterable[int]) -> list[int]:
        new = sorted(set(elems))
        prior = sorted((l, r) for l, r in self.match_of_l.items() if r < self.num_right)
        self.present.update(new)
        self._order += new
        self.match_of_l = {}
        self.match_of_r = {}
        self._n_r = {}
        for l in self._order:
            if l in self.present:
                for r in self.matroid.adjacency[l]:
                    self._n_r.setdefault(r, []).append(l)
        for l, r in prior:
            self.match_of_l[l] = r
            self.match_of_r[r] = l
        joined: list[int] = []
        while True:
            found = self._phase([r for r in range(self.num_right) if r not in self.match_of_r])
            if not found:
                return sorted(joined)
            joined += found

    def delete(self, l: int) -> list[int]:
        self.present.discard(l)
        self.deleted.add(l)
        dummy = self.num_right + len(self.deleted)
        self._n_r[dummy] = [l]
        r_old = self.match_of_l.get(l)
        self.match_of_l[l] = dummy
        self.match_of_r[dummy] = l
        if r_old is None:
            return []
        del self.match_of_r[r_old]
        return self._phase([r_old])

    def basis(self) -> list[int]:
        return sorted(dec_matching_pairs(self))


# ---------------------------------------------------------------------------
# earlier batch kernels: the dense forms the streaming kernels in
# ``matsub.kernels`` replaced, kept as mirrors of what they compute


def tensor_facility_values(sets: np.ndarray, sim: np.ndarray) -> np.ndarray:
    """Facility values through the ``(s, n, clients)`` masked tensor."""
    masked = np.where(sets[:, :, None].astype(bool), sim[None, :, :], 0.0)
    return masked.max(axis=1).sum(axis=1)


def tensor_facility_marginal_means(
    sets: np.ndarray, elems: np.ndarray, sim: np.ndarray
) -> np.ndarray:
    """Facility marginal means from an argsort of the masked tensor."""
    masked = np.where(sets[:, :, None].astype(bool), sim[None, :, :], 0.0)
    order = np.argsort(masked, axis=1)
    top1 = np.take_along_axis(masked, order[:, -1:, :], axis=1)[:, 0, :]
    arg1 = order[:, -1, :]
    top2 = np.take_along_axis(masked, order[:, -2:-1, :], axis=1)[:, 0, :] \
        if masked.shape[1] > 1 else np.zeros_like(top1)
    out = np.zeros(elems.shape[0], dtype=np.float64)
    for qi, e in enumerate(elems):
        base = np.where(arg1 == e, top2, top1)
        gain = np.maximum(sim[e][None, :] - base, 0.0)
        out[qi] = float(gain.sum()) / sets.shape[0]
    return out


def class_histogram_facility_means(top1, arg1, top2, elems, sim) -> np.ndarray:
    """Facility marginal means by the value-class formula, with every count
    and cumsum rebuilt by brute force from top-2 statistics.  Per client
    ``c``, a row's top-1 lies in class ``k``, the number of entries of
    ``c``'s column (a zero appended) strictly below it, and class ``k``
    takes the column's ``k``-th smallest entry as its value.  The counts and
    the count-times-value sums below each class are added class by class,
    each element's terms summed along one row of clients, and the pairs an
    element tops add ``top1 - top2`` in row-major order."""
    s, clients = top1.shape
    ext = np.vstack([sim, np.zeros((1, clients))])
    width = ext.shape[0]
    terms = np.empty((len(elems), clients))
    for c in range(clients):
        column = ext[:, c]
        ascending = np.sort(column, kind="stable")
        counts = [0] * width
        for value in top1[:, c].tolist():
            counts[int(np.count_nonzero(column < value))] += 1
        below, under = [0], [0.0]
        for k in range(width - 1):
            below.append(below[-1] + counts[k])
            under.append(under[-1] + counts[k] * ascending[k])
        for qi, e in enumerate(elems):
            k = int(np.count_nonzero(column < column[e]))
            terms[qi, c] = below[k] * column[e] - under[k]
    tops = np.bincount(arg1.ravel(), weights=(top1 - top2).ravel(), minlength=width)
    return (terms.sum(axis=1) + tops[elems]) / s


def loop_coverage_marginal_means(
    sets: np.ndarray,
    elems: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    incidence: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Coverage marginal means with a Python loop over queried elements."""
    counts = sets.astype(np.float64) @ incidence
    out = np.zeros(elems.shape[0], dtype=np.float64)
    for qi, e in enumerate(elems):
        cols = indices[indptr[e]:indptr[e + 1]]
        if cols.shape[0] == 0:
            continue
        bare = counts[:, cols] - sets[:, e:e + 1]
        out[qi] = float(((bare < 0.5) * weights[cols]).sum()) / sets.shape[0]
    return out


# ---------------------------------------------------------------------------
# coverage marginals by definition, and the one-element price from cover
# counts rebuilt from a round state's rows


def slow_coverage_value(row, indptr, indices, weights) -> float:
    seen: set[int] = set()
    for e in np.flatnonzero(row):
        seen.update(indices[indptr[e] : indptr[e + 1]].tolist())
    return float(sum(weights[u] for u in seen))


def slow_coverage_marginal_means(sets, elems, indptr, indices, weights) -> np.ndarray:
    """Mean of f(R+e) - f(R-e) over the rows, two value sums per row."""
    slow = np.zeros(len(elems))
    for qi, e in enumerate(elems):
        acc = 0.0
        for row in sets:
            plus = row.copy()
            plus[e] = 1
            minus = row.copy()
            minus[e] = 0
            acc += slow_coverage_value(plus, indptr, indices, weights) - slow_coverage_value(
                minus, indptr, indices, weights
            )
        slow[qi] = acc / len(sets)
    return slow


def counted_coverage_price(state, elem: int) -> float:
    """A coverage round state's one-element price from cover counts built
    afresh from its current rows: per item of ``e``'s, the rows whose count
    equals ``e``'s own membership, that is, where no other member covers it."""
    oracle = state.oracle
    items = oracle.cover(elem)
    rows = state.rows()
    counts = (rows.astype(np.float64) @ oracle.incidence).T
    hits = np.count_nonzero(counts[items] == rows[:, elem], axis=1)
    return float((hits * oracle.universe_weights[items]).sum()) / state.samples


class CoveredMaskGains:
    """Coverage gains from a covered-item mask, ``w[items[~covered[items]]]``
    summed: the formula the oracle's incremental state used before it kept
    its weights in cover order."""

    def __init__(self, oracle) -> None:
        self.oracle = oracle
        self.covered = np.zeros(oracle.universe_weights.shape[0], dtype=bool)

    def gain(self, elem: int) -> float:
        items = self.oracle.cover(elem)
        return float(self.oracle.universe_weights[items[~self.covered[items]]].sum())

    def add(self, elem: int) -> None:
        self.covered[self.oracle.cover(elem)] = True
