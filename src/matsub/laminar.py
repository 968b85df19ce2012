"""Dynamic max-weight basis maintenance for laminar matroids.

``TopTreeLaminarBasis`` keeps the unique maximum-weight basis of the present
elements under the capacity constraints of a laminar tree, where uniqueness
comes from breaking weight ties toward larger element ids.  It answers its
queries through a balanced cluster tree over a heavy path decomposition, so
every operation touches a logarithmic number of clusters.  The test suite
holds a slow mirror that walks the tree explicitly, as its differential
reference.

It is one of phase 1's three basis structures (see
``optimizer.MaxWeightOracle``), built by inserting its weights in id order,
and it also inserts and deletes elements.  Queries expose the lowest
capacity-tight ancestor of a leaf, the minimum basis element inside a
subtree, and the maximum element that could join the basis.
"""

from __future__ import annotations

from typing import Mapping

from .core import OracleChanges, weight_key
from .instances import LaminarMatroid

_BASE, _COMPRESS, _RAKE = 0, 1, 2


def _kmax(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def _kmin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


class _Cluster:
    __slots__ = (
        "kind",
        "parent",
        "left",
        "right",
        "node",
        "path_id",
        "minc",
        "argminc",
        "delta",
        "maxe1",
        "maxe0",
        "mine",
    )

    def __init__(self, kind: int, node: int, path_id: int) -> None:
        self.kind = kind
        self.parent: _Cluster | None = None
        self.left: _Cluster | None = None
        self.right: _Cluster | None = None
        self.node = node
        self.path_id = path_id
        self.minc = 0
        self.argminc = node
        self.delta = 0
        self.maxe1 = None
        self.maxe0 = None
        self.mine = None


class TopTreeLaminarBasis:
    """Max-weight basis maintenance over a balanced cluster tree.

    The laminar tree is binarized with slack dummy nodes, decomposed into
    heavy paths, and each path's per-node clusters are folded into a binary
    tree balanced by hanging subtree weight, with light subtrees raked onto
    the node they hang from.  A cluster covering path segment [a, b) stores:

    - ``minc``/``argminc``: minimum capacity residual over the segment and
      the deepest node attaining it, under a lazy uniform shift ``delta``;
    - ``mine``: minimum (weight, id) unfrozen basis leaf in the covered
      subtree;
    - ``maxe1``/``maxe0``: maximum non-basis leaf whose path to the segment
      top crosses no tight node, computed once ignoring tightness on the
      segment itself and once assuming zeros sit exactly at the residual
      minimizers.  Whichever applies is picked by comparing ``minc`` to zero
      at read time, which keeps both fields invariant under uniform shifts.

    Mutations descend to one leaf cluster pushing pending shifts (counted as
    splits) and recompute fields back up (counted as joins); queries only
    accumulate shifts in locals and touch no stored state.
    """

    def __init__(self, matroid: LaminarMatroid, weights: Mapping[int, float]) -> None:
        self.matroid = matroid
        self.weights: dict[int, float] = {}
        self.in_basis: set[int] = set()
        self.frozen: set[int] = set()
        self._basis_weight = 0.0
        self.joins = 0
        self.splits = 0
        self._build(matroid)
        for elem, weight in sorted(weights.items()):
            self.insert(elem, weight)

    # -- construction -----------------------------------------------------

    def _build(self, matroid: LaminarMatroid) -> None:
        num_real = len(matroid.parents)
        parents = list(matroid.parents)
        caps = list(matroid.capacities)
        children = list(matroid.children)
        root = matroid.root
        slack_cap = len(matroid.element_nodes) + 1

        def spine(kids: list[int]) -> int:
            if len(kids) == 1:
                return kids[0]
            mid = len(kids) // 2
            left = spine(kids[:mid])
            right = spine(kids[mid:])
            dummy = len(parents)
            parents.append(-2)
            caps.append(slack_cap)
            children.append([left, right])
            parents[left] = dummy
            parents[right] = dummy
            return dummy

        for v in range(num_real):
            if len(children[v]) > 2:
                kids = children[v]
                children[v] = [spine(kids[: len(kids) // 2]), spine(kids[len(kids) // 2 :])]
                for c in children[v]:
                    parents[c] = v

        total = len(parents)
        self.caps = caps
        self.bin_parents = parents
        self.node_of = {e: node for e, node in enumerate(matroid.element_nodes)}
        self.elem_at: dict[int, int] = {node: e for e, node in self.node_of.items()}

        sizes = [1] * total
        order: list[int] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(children[v])
        for v in reversed(order):
            for c in children[v]:
                sizes[v] += sizes[c]

        self.base_of: list[_Cluster] = [None] * total  # type: ignore[list-item]
        self._next_path = 0

        def build_subtree(top: int) -> _Cluster:
            path = [top]
            while children[path[-1]]:
                kids = children[path[-1]]
                heavy = max(kids, key=lambda c: sizes[c])
                path.append(heavy)
            path.reverse()  # bottom leaf first
            pid = self._next_path
            self._next_path += 1
            atoms: list[_Cluster] = []
            weights: list[int] = []
            for j, v in enumerate(path):
                base = _Cluster(_BASE, v, pid)
                base.minc = caps[v]
                self.base_of[v] = base
                atom: _Cluster = base
                w = 1
                if j > 0:
                    light = [c for c in children[v] if c != path[j - 1]]
                    if light:
                        sub = build_subtree(light[0])
                        rake = _Cluster(_RAKE, v, pid)
                        rake.left = base
                        rake.right = sub
                        base.parent = rake
                        sub.parent = rake
                        self._recompute(rake)
                        atom = rake
                        w += sizes[light[0]]
                atoms.append(atom)
                weights.append(w)

            def fold(lo: int, hi: int) -> _Cluster:
                if lo == hi:
                    return atoms[lo]
                totalw = sum(weights[lo : hi + 1])
                acc = 0
                cut = lo
                for k in range(lo, hi):
                    acc += weights[k]
                    cut = k
                    if 2 * acc >= totalw:
                        break
                left = fold(lo, cut)
                right = fold(cut + 1, hi)
                comp = _Cluster(_COMPRESS, path[cut], pid)
                comp.left = left
                comp.right = right
                left.parent = comp
                right.parent = comp
                self._recompute(comp)
                return comp

            return fold(0, len(atoms) - 1)

        self.root_cluster = build_subtree(root)
        self.joins = 0
        self.splits = 0

    # -- cluster algebra ---------------------------------------------------

    def _recompute(self, c: _Cluster) -> None:
        if c.kind == _COMPRESS:
            lo, up = c.left, c.right
            if lo.minc <= up.minc:
                c.minc, c.argminc = lo.minc, lo.argminc
            else:
                c.minc, c.argminc = up.minc, up.argminc
            c.maxe1 = _kmax(lo.maxe1, up.maxe1)
            c.maxe0 = up.maxe0 if up.minc <= lo.minc else _kmax(lo.maxe0, up.maxe1)
            c.mine = _kmin(lo.mine, up.mine)
        else:  # rake: left carries the path, right hangs off its node
            ca, rk = c.left, c.right
            c.minc, c.argminc = ca.minc, ca.argminc
            resolved = rk.maxe0 if rk.minc == 0 else rk.maxe1
            c.maxe1 = _kmax(ca.maxe1, resolved)
            c.maxe0 = ca.maxe0
            c.mine = _kmin(ca.mine, rk.mine)

    def _push(self, c: _Cluster) -> None:
        d = c.delta
        if not d:
            return
        c.left.minc += d
        c.left.delta += d
        if c.kind == _COMPRESS:
            c.right.minc += d
            c.right.delta += d
        c.delta = 0
        self.splits += 1

    def _key(self, elem: int) -> tuple[float, int]:
        return weight_key(self.weights[elem], elem)

    def _refresh_base(self, base: _Cluster) -> None:
        elem = self.elem_at.get(base.node)
        base.maxe1 = None
        base.mine = None
        base.maxe0 = None
        if elem is None or elem not in self.weights:
            return
        if elem in self.in_basis:
            if elem not in self.frozen:
                base.mine = self._key(elem)
        else:
            base.maxe1 = self._key(elem)

    def _spine(self, base: _Cluster) -> list[_Cluster]:
        out = [base]
        while out[-1].parent is not None:
            out.append(out[-1].parent)
        out.reverse()
        return out

    def _mutate(self, node: int, path_delta: int) -> None:
        """One root-to-leaf maintenance pass.

        Pushes pending shifts down the spine, refreshes the leaf cluster,
        applies ``path_delta`` to every path segment fully above the leaf via
        its spine sibling, and recomputes the spine bottom up.
        """
        spine = self._spine(self.base_of[node])
        for c in spine[:-1]:
            self._push(c)
        base = spine[-1]
        base.minc += path_delta
        self._refresh_base(base)
        self.joins += 1
        for idx in range(len(spine) - 2, -1, -1):
            c = spine[idx]
            child = spine[idx + 1]
            if path_delta:
                sib = None
                if c.kind == _COMPRESS and child is c.left:
                    sib = c.right
                elif c.kind == _RAKE and child is c.right:
                    sib = c.left
                if sib is not None:
                    sib.minc += path_delta
                    sib.delta += path_delta
            self._recompute(c)
            self.joins += 1

    # -- queries ----------------------------------------------------------

    def lowest_tight(self, elem: int) -> int | None:
        spine = self._spine(self.base_of[self.node_of[elem]])
        acc = 0
        segs: list[tuple[int, int]] = []
        for idx in range(len(spine) - 1):
            c = spine[idx]
            child = spine[idx + 1]
            into_raked = c.kind == _RAKE and child is c.right
            if c.kind == _COMPRESS and child is c.left:
                segs.append((c.right.minc + acc + c.delta, c.right.argminc))
            elif into_raked:
                segs.append((c.left.minc + acc + c.delta, c.left.argminc))
            if into_raked:
                # pending shifts route through the carrier side only, so no
                # accumulated shift ever reaches the raked subtree
                acc = 0
            else:
                acc += c.delta
        base = spine[-1]
        segs.append((base.minc + acc, base.node))
        for minc, arg in reversed(segs):
            if minc <= 0:
                return arg
        return None

    def max_addable(self) -> int | None:
        root = self.root_cluster
        key = root.maxe0 if root.minc == 0 else root.maxe1
        return None if key is None else key[1]

    def min_basis_in(self, node: int) -> int | None:
        pid = self.base_of[node].path_id
        best = None
        spine = self._spine(self.base_of[node])
        for idx in range(len(spine) - 1):
            c = spine[idx]
            child = spine[idx + 1]
            if c.kind == _COMPRESS and c.path_id == pid and child is c.right:
                best = _kmin(best, c.left.mine)
            elif c.kind == _RAKE and child is c.left:
                best = _kmin(best, c.right.mine)
        best = _kmin(best, spine[-1].mine)
        return None if best is None else best[1]

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
            self.in_basis.add(elem)
            self._basis_weight += weight
            self._mutate(self.node_of[elem], -1)
            changes.added.append(elem)
            return changes
        victim = self.min_basis_in(tight)
        if victim is not None and self._key(victim) < self._key(elem):
            self.in_basis.remove(victim)
            self._basis_weight -= self.weights[victim]
            self._mutate(self.node_of[victim], +1)
            changes.removed.append(victim)
            self.in_basis.add(elem)
            self._basis_weight += weight
            self._mutate(self.node_of[elem], -1)
            changes.added.append(elem)
        else:
            self._mutate(self.node_of[elem], 0)
        return changes

    # no package caller; acceptance criterion 2 tests it as the paper's O(log n) delete
    def delete(self, elem: int) -> OracleChanges:
        if elem not in self.weights:
            raise ValueError(f"element {elem} not present")
        if elem in self.frozen:
            raise ValueError("cannot delete a frozen element")
        changes = OracleChanges()
        if elem in self.in_basis:
            self.in_basis.remove(elem)
            self._basis_weight -= self.weights[elem]
            del self.weights[elem]
            self._mutate(self.node_of[elem], +1)
            changes.removed.append(elem)
            refill = self.max_addable()
            if refill is not None:
                self.in_basis.add(refill)
                self._basis_weight += self.weights[refill]
                self._mutate(self.node_of[refill], -1)
                changes.added.append(refill)
        else:
            del self.weights[elem]
            self._mutate(self.node_of[elem], 0)
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
            self._mutate(self.node_of[elem], 0)
            return changes
        self.in_basis.remove(elem)
        self._basis_weight -= self.weights[elem]
        self.weights[elem] = new_weight
        self._mutate(self.node_of[elem], +1)
        refill = self.max_addable()
        # the demoted element is itself addable again, so refill never misses
        self.in_basis.add(refill)
        self._basis_weight += self.weights[refill]
        self._mutate(self.node_of[refill], -1)
        if refill != elem:
            changes.removed.append(elem)
            changes.added.append(refill)
        return changes

    def freeze(self, elem: int) -> OracleChanges:
        if elem not in self.in_basis or elem in self.frozen:
            raise ValueError("only unfrozen basis elements can be frozen")
        self.frozen.add(elem)
        self._mutate(self.node_of[elem], 0)
        return OracleChanges(removed=[elem])

    # -- inspection -------------------------------------------------------

    def basis(self) -> list[int]:
        return sorted(self.in_basis)

    def approx_base_weight(self) -> float:
        return self._basis_weight
