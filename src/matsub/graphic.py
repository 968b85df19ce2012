"""Half-approximate forest maintenance for graphic matroids.

Each supervertex of the contracted graph keeps a max pairing heap of its
incident edges and selects the top one; the union of selections, together
with the contracted (frozen) edges, always forms a forest F whose weight is
at least half the maximum spanning forest and whose size is at least half
the rank.  Heaps use lazy invalidation: an entry dies when its edge changes
weight or both endpoints merge, and dead entries are discarded the next time
they surface at a heap top.

It is one of phase 1's three basis structures (see
``optimizer.MaxWeightOracle``); its basis is F.  The edge set is fixed at
construction; only decrement and freeze mutate.  Freezing a forest edge
contracts its endpoints, which is one union-find link plus an O(1) heap
meld.  Every mutation reports its change to the unfrozen part of F.
"""

from __future__ import annotations

from typing import Mapping

from .core import OracleChanges, weight_key
from .instances import GraphicMatroid, _UnionFind


class _HeapNode:
    __slots__ = ("key", "edge", "version", "child", "sibling")

    def __init__(self, key: tuple[float, int], edge: int, version: int) -> None:
        self.key = key
        self.edge = edge
        self.version = version
        self.child: _HeapNode | None = None
        self.sibling: _HeapNode | None = None


class ContractedGraph:
    """Max incident-edge selection per supervertex with heap melding.

    Ties on weight break toward the larger edge id, so the selected forest
    is unique and the per-vertex picks can never close a cycle.
    """

    def __init__(self, matroid: GraphicMatroid, weights: Mapping[int, float]) -> None:
        self.matroid = matroid
        self.edges = matroid.edges
        self.dsu = _UnionFind(matroid.num_vertices)
        self.weights: dict[int, float] = {}
        self.version: dict[int, int] = {}
        self.frozen: set[int] = set()
        self.heaps: dict[int, _HeapNode | None] = {}
        self.sel: dict[int, int | None] = {}
        self.sel_count: dict[int, int] = {}
        self._forest_weight = 0.0
        self.heap_ops = 0
        for edge, weight in sorted(weights.items()):
            if not 0 <= edge < len(self.edges):
                raise ValueError(f"edge {edge} is not a declared slot")
            if weight < 0:
                raise ValueError("weights must be nonnegative")
            self.weights[edge] = float(weight)
            self.version[edge] = 0
            self._push_edge(edge)
        touched = sorted(self.heaps)
        sink = OracleChanges()
        for r in touched:
            self._set_sel(r, self._best(r), sink)

    # -- pairing heap ------------------------------------------------------

    def _meld(self, a: _HeapNode | None, b: _HeapNode | None) -> _HeapNode | None:
        self.heap_ops += 1
        if a is None:
            return b
        if b is None:
            return a
        if a.key < b.key:
            a, b = b, a
        b.sibling = a.child
        a.child = b
        return a

    def _pop(self, root: _HeapNode) -> _HeapNode | None:
        self.heap_ops += 1
        # two-pass pairing: meld children left-to-right in pairs, then fold
        pairs: list[_HeapNode] = []
        node = root.child
        while node is not None:
            nxt = node.sibling
            node.sibling = None
            if nxt is None:
                pairs.append(node)
                break
            nnxt = nxt.sibling
            nxt.sibling = None
            pairs.append(self._meld(node, nxt))
            node = nnxt
        merged: _HeapNode | None = None
        for sub in reversed(pairs):
            merged = self._meld(merged, sub)
        return merged

    # -- selection maintenance --------------------------------------------

    def _key(self, edge: int) -> tuple[float, int]:
        return weight_key(self.weights[edge], edge)

    def _alive(self, node: _HeapNode) -> bool:
        e = node.edge
        if e in self.frozen or node.version != self.version[e]:
            return False
        u, v = self.edges[e]
        return self.dsu.find(u) != self.dsu.find(v)

    def _best(self, root_id: int) -> int | None:
        heap = self.heaps.get(root_id)
        while heap is not None and not self._alive(heap):
            heap = self._pop(heap)
        self.heaps[root_id] = heap
        return None if heap is None else heap.edge

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
        u, v = self.edges[edge]
        ru, rv = self.dsu.find(u), self.dsu.find(v)
        if ru == rv:
            return
        key = self._key(edge)
        version = self.version[edge]
        self.heaps[ru] = self._meld(self.heaps.get(ru), _HeapNode(key, edge, version))
        self.heaps[rv] = self._meld(self.heaps.get(rv), _HeapNode(key, edge, version))

    def _roots(self, edge: int) -> list[int]:
        u, v = self.edges[edge]
        ru, rv = self.dsu.find(u), self.dsu.find(v)
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
        self.version[edge] += 1
        if was_selected:
            self._forest_weight += new_weight - old_weight
        changes = OracleChanges()
        self._push_edge(edge)
        for r in self._roots(edge):
            self._set_sel(r, self._best(r), changes)
        if was_selected and self.sel_count.get(edge, 0) > 0 and edge not in changes.added:
            # still in F at a lower weight; report a move so callers
            # re-bucket the edge
            changes.removed.append(edge)
            changes.added.append(edge)
        return changes

    def freeze(self, edge: int) -> OracleChanges:
        if edge in self.frozen or self.sel_count.get(edge, 0) == 0:
            raise ValueError("only unfrozen forest edges can be frozen")
        changes = OracleChanges()
        u, v = self.edges[edge]
        ru, rv = self.dsu.find(u), self.dsu.find(v)
        self._set_sel(ru, None, changes)
        self._set_sel(rv, None, changes)
        self.sel.pop(ru, None)
        self.sel.pop(rv, None)
        heap = self._meld(self.heaps.pop(ru, None), self.heaps.pop(rv, None))
        self.frozen.add(edge)
        # the frozen edge stays in F, so its weight keeps counting
        self._forest_weight += self.weights[edge]
        self.dsu.union(u, v)
        root = self.dsu.find(u)
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
