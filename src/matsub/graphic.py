"""Half-approximate forest maintenance for graphic matroids.

Each supervertex of the contracted graph keeps a ``heapq`` list of its
incident edges, entries ``(-weight, -edge)``, and selects the top one; the
union of selections, together with the contracted (frozen) edges, always
forms a forest F whose weight is at least half the maximum spanning forest
and whose size is at least half the rank.  Entries go stale lazily: weights
only fall, so an entry is current exactly when its stored weight is the
edge's weight, and it dies once its edge is frozen or both endpoints merge.
Dead entries are discarded the next time they surface at a heap top.

It is one of phase 1's three basis structures (see
``optimizer.MaxWeightOracle``); its basis is F.  The edge set is fixed at
construction; only decrement and freeze mutate.  Freezing a forest edge
contracts its endpoints: one union of component labels, which relabels the
smaller side, and the smaller endpoint list poured into the larger.  An
entry moves only into a list at least as long as the one it leaves, so the
list holding it at least doubles with each move: over ``m`` pushed entries
each moves ``O(log m)`` times, and all heap work is ``O(m log² m)``.  Every
mutation reports its change to the unfrozen part of F.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Mapping

from .core import OracleChanges
from .instances import GraphicMatroid, _UnionFind


class ContractedGraph:
    """Max incident-edge selection per supervertex over ``heapq`` lists.

    Ties on weight break toward the larger edge id, so the selected forest
    is unique and the per-vertex picks can never close a cycle.
    Supervertices are named by their component labels over the matroid's
    ``ends``.  ``heap_ops`` counts pushes, pops and entries moved by a
    freeze, ``moved`` the entries moved alone.
    """

    def __init__(self, matroid: GraphicMatroid, weights: Mapping[int, float]) -> None:
        self.matroid = matroid
        self.edges = matroid.ends
        self.dsu = _UnionFind(matroid.touched)
        self.label = self.dsu.label
        self.weights: dict[int, float] = {}
        self.frozen: set[int] = set()
        self.heaps: dict[int, list[tuple[float, int]]] = {}
        self.sel: dict[int, int | None] = {}
        self.sel_count: dict[int, int] = {}
        self._forest_weight = 0.0
        self.heap_ops = 0
        self.moved = 0
        for edge, weight in sorted(weights.items()):
            if not 0 <= edge < len(self.edges):
                raise ValueError(f"edge {edge} is not a declared slot")
            if weight < 0:
                raise ValueError("weights must be nonnegative")
            self.weights[edge] = float(weight)
            self._push_edge(edge)
        sink = OracleChanges()
        for r in sorted(self.heaps):
            self._set_sel(r, self._best(r), sink)

    # -- selection maintenance --------------------------------------------

    def _alive(self, entry: tuple[float, int]) -> bool:
        e = -entry[1]
        if e in self.frozen or -entry[0] != self.weights[e]:
            return False
        u, v = self.edges[e]
        return self.label[u] != self.label[v]

    def _best(self, root_id: int) -> int | None:
        heap = self.heaps.get(root_id, [])
        while heap and not self._alive(heap[0]):
            heappop(heap)
            self.heap_ops += 1
        return -heap[0][1] if heap else None

    def _set_sel(self, root_id: int, edge: int | None, changes: OracleChanges) -> None:
        old = self.sel.get(root_id)
        if old == edge:
            return
        if old is not None:
            left = self.sel_count[old] - 1
            self.sel_count[old] = left
            if left == 0 and old not in self.frozen:
                changes.removed.append(old)
                self._forest_weight -= self.weights[old]
        self.sel[root_id] = edge
        if edge is not None:
            had = self.sel_count.get(edge, 0)
            self.sel_count[edge] = had + 1
            if had == 0:
                changes.added.append(edge)
                self._forest_weight += self.weights[edge]

    def _push_edge(self, edge: int) -> None:
        roots = self._roots(edge)
        if len(roots) == 1:
            return
        entry = (-self.weights[edge], -edge)
        for r in roots:
            heappush(self.heaps.setdefault(r, []), entry)
        self.heap_ops += 2

    def _roots(self, edge: int) -> list[int]:
        u, v = self.edges[edge]
        ru, rv = self.label[u], self.label[v]
        return [ru] if ru == rv else [ru, rv]

    # -- mutations ---------------------------------------------------------

    def decrement(self, edge: int, new_weight: float) -> OracleChanges:
        if edge not in self.weights:
            raise ValueError(f"edge {edge} not present")
        if edge in self.frozen:
            raise ValueError("cannot decrement a frozen edge")
        if new_weight >= self.weights[edge]:
            raise ValueError("decrement must lower the weight")
        if new_weight < 0:
            raise ValueError("weights must be nonnegative")
        was_selected = self.sel_count.get(edge, 0) > 0
        old_weight = self.weights[edge]
        self.weights[edge] = new_weight
        if was_selected:
            self._forest_weight += new_weight - old_weight
        changes = OracleChanges()
        self._push_edge(edge)
        for r in self._roots(edge):
            self._set_sel(r, self._best(r), changes)
        return changes

    def freeze(self, edge: int) -> OracleChanges:
        if edge in self.frozen or self.sel_count.get(edge, 0) == 0:
            raise ValueError("only unfrozen forest edges can be frozen")
        changes = OracleChanges()
        u, v = self.edges[edge]
        ru, rv = self.label[u], self.label[v]
        self._set_sel(ru, None, changes)
        self._set_sel(rv, None, changes)
        self.sel.pop(ru, None)
        self.sel.pop(rv, None)
        small, heap = sorted((self.heaps.pop(ru, []), self.heaps.pop(rv, [])), key=len)
        for entry in small:
            heappush(heap, entry)
        self.heap_ops += len(small)
        self.moved += len(small)
        self.frozen.add(edge)
        # the frozen edge stays in F, so its weight keeps counting
        self._forest_weight += self.weights[edge]
        self.dsu.union(u, v)
        root = self.label[u]
        self.heaps[root] = heap
        self._set_sel(root, self._best(root), changes)
        return changes

    # -- inspection --------------------------------------------------------

    def basis(self) -> list[int]:
        """Frozen edges plus every currently selected edge, sorted."""
        picked = {e for e, c in self.sel_count.items() if c > 0}
        return sorted(picked | self.frozen)

    def approx_base_weight(self) -> float:
        return self._forest_weight
