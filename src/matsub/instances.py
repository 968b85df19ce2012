"""Problem instances: matroid descriptions, generation and serialization.

A matroid description is plain data plus definitional independence checks.
The dynamic structures elsewhere in the package are built *from* these
descriptions and share two classes with them: ``_UnionFind`` (``graphic.py``,
``rounding.py``) and ``TransversalChecker`` (``transversal.py``,
``rounding.py``).  The references in ``tests/reference.py`` share no code
with either.

Serialized instances are versioned JSON.  ``matsub gen`` writes them,
``matsub run`` reads them; byte-for-byte determinism per (seed, config) holds
because generation is driven by a named numpy Generator stream and dumping
uses sorted keys.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .objectives import AdditiveOracle, CoverageOracle, FacilityLocationOracle, ValueOracle

FORMAT_VERSION = 1

# sub-stream ids hung off the master seed; recorded in result files
STREAM_GEN = 0
STREAM_PHASE1 = 1
STREAM_MULTILINEAR = 2
STREAM_ROUNDING = 3


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one named stream of a master seed."""
    return np.random.default_rng([int(seed), int(stream)])


def _require_ints(values: Iterable, what: str) -> None:
    """Reject floats and bools, which ``int()`` or indexing would silently
    read as integers; numpy integers pass."""
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in values):
        raise ValueError(f"{what} must be integers")


def _holds_bool(value) -> bool:
    """Is ``value``, a number or a list of numbers or of such lists, or any
    entry in it a bool?  ``np.asarray`` would read one as 1.0 or 0.0."""
    if type(value) is not list:
        return type(value) is bool
    types = set(map(type, value))
    return bool in types or (list in types and any(map(_holds_bool, value)))


def _cached_rank(self) -> int:
    """Size of every basis, computed on the first call and then kept.

    No code changes a matroid's fields after construction, so the value
    cannot go stale.  Each matroid class binds this plain function as its
    ``rank`` method.
    """
    if self._rank is None:
        self._rank = self._compute_rank()
    return self._rank


# ---------------------------------------------------------------------------
# laminar


@dataclass
class LaminarMatroid:
    """Laminar family over the ground set, given as a capacitated tree.

    ``parents[v]`` is the parent node of tree node ``v`` (-1 for the root),
    ``capacities[v]`` its budget, and ``element_nodes[e]`` the leaf node that
    element ``e`` occupies.  Leaves hosting elements must not have children.
    ``root`` and ``children`` (child lists, in ``parents`` order) come from ``parents``.
    """

    parents: list[int]
    capacities: list[int]
    element_nodes: list[int]
    kind: str = field(default="laminar", init=False)

    def __post_init__(self) -> None:
        _require_ints(self.parents, "parents")
        _require_ints(self.capacities, "capacities")
        _require_ints(self.element_nodes, "element nodes")
        m = len(self.parents)
        if len(self.capacities) != m:
            raise ValueError("one capacity per tree node required")
        roots = [v for v, p in enumerate(self.parents) if p == -1]
        if len(roots) != 1:
            raise ValueError("exactly one root expected")
        self.root = roots[0]
        self.children: list[list[int]] = [[] for _ in range(m)]
        for v, p in enumerate(self.parents):
            if p != -1:
                if not 0 <= p < m:
                    raise ValueError("parent id out of range")
                self.children[p].append(v)
        # with one root and in-range parents, a node reaches the root
        # exactly when the walk down the children lists from the root finds it
        self._order = self._topo_order()
        if len(self._order) != m:
            raise ValueError("parent pointers contain a cycle")
        if len(set(self.element_nodes)) != len(self.element_nodes):
            raise ValueError("elements must occupy distinct leaves")
        for node in self.element_nodes:
            if not 0 <= node < m:
                raise ValueError("element node out of range")
            if self.children[node]:
                raise ValueError("element nodes must be leaves")
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be nonnegative")
        self._rank: int | None = None

    @property
    def n(self) -> int:
        return len(self.element_nodes)

    def path_to_root(self, node: int) -> list[int]:
        out = []
        while node != -1:
            out.append(node)
            node = self.parents[node]
        return out

    rank = _cached_rank

    def _compute_rank(self) -> int:
        has_elem = set(self.element_nodes)
        avail = [0] * len(self.parents)
        for v in reversed(self._order):
            if not self.children[v]:
                avail[v] = min(1, self.capacities[v]) if v in has_elem else 0
            else:
                avail[v] = min(self.capacities[v], sum(avail[c] for c in self.children[v]))
        return avail[self.root]

    def _topo_order(self) -> list[int]:
        """The nodes the root reaches, each after its parent."""
        order = [self.root]
        i = 0
        while i < len(order):
            order.extend(self.children[order[i]])
            i += 1
        return order

    def is_independent(self, subset: Iterable[int]) -> bool:
        """Every node's count of ``subset`` within its capacity; the counts
        are summed bottom up, ``O(nodes + |subset|)``."""
        counts = [0] * len(self.parents)
        for e in set(subset):
            counts[self.element_nodes[e]] += 1
        capacities, parents = self.capacities, self.parents
        for v in reversed(self._order):
            if counts[v] > capacities[v]:
                return False
            if parents[v] != -1:
                counts[parents[v]] += counts[v]
        return True

    def checker(self, base: Iterable[int] = ()) -> "LaminarChecker":
        return LaminarChecker(self, base)


class LaminarChecker:
    """Incremental independence tester over ancestor counts.  ``insert``
    trusts the caller's ``test``; a member never passes one.

    An element passes ``test`` when it is not a member and every node on
    its path to the root is below capacity; ``test`` and ``insert`` each
    walk the parent pointers in place, ``O(depth)``."""

    def __init__(self, matroid: LaminarMatroid, base: Iterable[int] = ()) -> None:
        self.matroid = matroid
        self.counts = [0] * len(matroid.parents)
        self._member = [False] * matroid.n
        for e in base:
            if not self.test(e):
                raise ValueError("base set is not independent")
            self.insert(e)

    def test(self, elem: int) -> bool:
        if self._member[elem]:
            return False
        counts, capacities, parents = self.counts, self.matroid.capacities, self.matroid.parents
        node = self.matroid.element_nodes[elem]
        while node != -1:
            if counts[node] >= capacities[node]:
                return False
            node = parents[node]
        return True

    def insert(self, elem: int) -> None:
        self._member[elem] = True
        counts, parents = self.counts, self.matroid.parents
        node = self.matroid.element_nodes[elem]
        while node != -1:
            counts[node] += 1
            node = parents[node]


# ---------------------------------------------------------------------------
# graphic


@dataclass
class GraphicMatroid:
    """Edges of a multigraph; independent sets are the acyclic ones.

    ``ends`` holds each edge's endpoints renumbered ``0..touched-1`` over
    the vertices some edge touches, in increasing order, and every
    structure built on the matroid indexes those: its size follows the
    edges, not the declared ``num_vertices``.  An instance file still holds
    the declared numbering.
    """

    num_vertices: int
    edges: list[tuple[int, int]]
    kind: str = field(default="graphic", init=False)

    def __post_init__(self) -> None:
        _require_ints([self.num_vertices], "num_vertices")
        _require_ints([x for edge in self.edges for x in edge], "edge endpoints")
        self.edges = [(int(u), int(v)) for u, v in self.edges]
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError("edge endpoint out of range")
        slot = {x: k for k, x in enumerate(sorted({x for edge in self.edges for x in edge}))}
        self.ends = [(slot[u], slot[v]) for u, v in self.edges]
        self.touched = len(slot)
        self._rank: int | None = None

    @property
    def n(self) -> int:
        return len(self.edges)

    rank = _cached_rank

    def _compute_rank(self) -> int:
        uf = _UnionFind(self.touched)
        r = 0
        for u, v in self.ends:
            if uf.union(u, v):
                r += 1
        return r

    def is_independent(self, subset: Iterable[int]) -> bool:
        uf = _UnionFind(self.touched)
        for e in set(subset):
            u, v = self.ends[e]
            if not uf.union(u, v):
                return False
        return True

    def checker(self, base: Iterable[int] = ()) -> "GraphicChecker":
        return GraphicChecker(self, base)


class _UnionFind:
    """Disjoint sets of ``0..n-1`` kept as component labels.

    ``label[x]`` names ``x``'s component by one of its members, so ``find``
    is one list read, and ``members`` lists each component's vertices under
    its label.  ``union`` relabels the smaller side's members (on a tie,
    ``b``'s) and appends them to the other side's list.  A vertex is
    relabelled only into a component at least twice the size of the one it
    leaves, so at most ``log2 n`` times.  ``relabels`` counts the vertices
    relabelled.
    """

    def __init__(self, n: int) -> None:
        self.label = list(range(n))
        self.members: list[list[int] | None] = [[x] for x in range(n)]
        self.relabels = 0

    def find(self, x: int) -> int:
        return self.label[x]

    def union(self, a: int, b: int) -> bool:
        label = self.label
        keep, gone = label[a], label[b]
        if keep == gone:
            return False
        members = self.members
        kept, moved = members[keep], members[gone]
        if len(kept) < len(moved):
            keep, gone, kept, moved = gone, keep, moved, kept
        for x in moved:
            label[x] = keep
        kept += moved
        members[gone] = None
        self.relabels += len(moved)
        return True


class GraphicChecker:
    """Incremental acyclicity tester over component labels.  An edge fails
    ``test`` when its ends carry one label, self-loops included."""

    def __init__(self, matroid: GraphicMatroid, base: Iterable[int] = ()) -> None:
        self.matroid = matroid
        self.ends = matroid.ends
        self.uf = _UnionFind(matroid.touched)
        self.label = self.uf.label
        for e in base:
            if not self.test(e):
                raise ValueError("base set is not independent")
            self.insert(e)

    def test(self, elem: int) -> bool:
        u, v = self.ends[elem]
        return self.label[u] != self.label[v]

    def insert(self, elem: int) -> None:
        u, v = self.ends[elem]
        if not self.uf.union(u, v):
            raise ValueError(f"edge {elem} would close a cycle")


# ---------------------------------------------------------------------------
# transversal


@dataclass
class TransversalMatroid:
    """Left vertices of a bipartite graph; independent = matchable.

    ``touched_right`` lists, in increasing order, the right vertices some
    left vertex is adjacent to.  The matching structures keep per-right
    state for those alone, so their size follows the edges, not the
    declared ``num_right``; an untouched right vertex has no neighbours, so
    no search or scan can use it.
    """

    num_right: int
    adjacency: list[list[int]]
    kind: str = field(default="transversal", init=False)

    def __post_init__(self) -> None:
        _require_ints([self.num_right], "num_right")
        _require_ints([r for nbrs in self.adjacency for r in nbrs], "right vertex ids")
        self.adjacency = [sorted(set(int(r) for r in nbrs)) for nbrs in self.adjacency]
        for nbrs in self.adjacency:
            for r in nbrs:
                if not 0 <= r < self.num_right:
                    raise ValueError("right vertex out of range")
        self.touched_right = sorted({r for nbrs in self.adjacency for r in nbrs})
        self._rank: int | None = None

    @property
    def n(self) -> int:
        return len(self.adjacency)

    rank = _cached_rank

    def _compute_rank(self) -> int:
        return _max_matching_size(self.adjacency, range(self.n))

    def is_independent(self, subset: Iterable[int]) -> bool:
        lefts = set(subset)
        return _max_matching_size(self.adjacency, sorted(lefts)) == len(lefts)

    def checker(self, base: Iterable[int] = ()) -> "TransversalChecker":
        return TransversalChecker(self, base)


def _max_matching_size(adjacency: Sequence[Sequence[int]], lefts: Iterable[int]) -> int:
    """Size of a maximum matching of the distinct left vertices ``lefts``,
    by Hopcroft–Karp: a greedy pass, then phases that each lay out the
    alternating layers from every free left vertex by breadth-first search
    up to the first free right vertex, and augment along a maximal set of
    vertex-disjoint shortest paths.  ``O(E·√V)``; the depth-first search
    runs over an explicit stack, so a path may be of any length."""
    lefts = list(lefts)
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    owner_of = match_r.get
    for l in lefts:
        for r in adjacency[l]:
            if r not in match_r:
                match_l[l] = r
                match_r[r] = l
                break
    while True:
        roots = [l for l in lefts if l not in match_l]
        layer = dict.fromkeys(roots, 0)
        queue = list(roots)
        # the layer of the first left vertex seen next to a free right one
        last: int | None = None
        for l in queue:
            depth = layer[l]
            if last is not None and depth > last:
                break
            for r in adjacency[l]:
                owner = owner_of(r)
                if owner is None:
                    last = depth
                elif last is None and owner not in layer:
                    layer[owner] = depth + 1
                    queue.append(owner)
        if last is None:
            return len(match_l)
        for root in roots:
            # the left vertices on the path from root, each in the layer of
            # its place on it, the right vertex each takes, and the untried
            # neighbours of each
            path, taken, frames = [root], [], [iter(adjacency[root])]
            while frames:
                for r in frames[-1]:
                    owner = owner_of(r)
                    if owner is None:
                        taken.append(r)
                        for left, right in zip(path, taken):
                            match_l[left] = right
                            match_r[right] = left
                        for left in path:
                            del layer[left]
                        frames = []
                        break
                    if layer.get(owner) == len(path):
                        taken.append(r)
                        path.append(owner)
                        frames.append(iter(adjacency[owner]))
                        break
                else:
                    # no shortest path goes on from here in this phase
                    del layer[path.pop()]
                    frames.pop()
                    if taken:
                        taken.pop()


class TransversalChecker:
    """Incremental matchability via augmenting-path search.

    ``test`` keeps the path it finds, and an ``insert`` of the same element
    right after it flips that path instead of searching again, so a
    test-then-insert pair costs one search.

    Kuhn's rule: a failed search visits only matched right vertices whose
    owners' neighbours it also visits, so none reaches a free vertex, and
    later searches skip them; exploring one would only fail, so the paths
    found stay the same.  An augmenting path through one would end at a free
    one, so no insert flips them and they stay dead.  A successful search
    adds nothing: it may have passed a vertex over only because an ancestor
    was on the search stack.
    """

    def __init__(self, matroid: TransversalMatroid, base: Iterable[int] = ()) -> None:
        self.matroid = matroid
        # each member's right vertex, and each matched right vertex's member
        self.match_left: dict[int, int] = {}
        self.match_right: dict[int, int] = {}
        # (element, path) of the last successful test, valid until an insert
        self._found: tuple[int, list[tuple[int, int]]] | None = None
        # right vertices visited by failed searches
        self._dead: set[int] = set()
        for e in base:
            if not self.test(e):
                raise ValueError("base set is not independent")
            self.insert(e)

    def _search(self, elem: int) -> list[tuple[int, int]]:
        """An augmenting path from ``elem``: the ``(right, left)`` pairs to
        match, from the free end back to ``elem``.  Empty if there is none,
        and then what the search visited is dead.  A member gets none and
        searches nothing.

        Depth first over an explicit stack of neighbour iterators, so it
        tries neighbours in adjacency order, as a recursive search would,
        at any path length."""
        if elem in self.match_left:
            return []
        adjacency, dead, match_right = self.matroid.adjacency, self._dead, self.match_right
        visited: set[int] = set()
        # the pairs taken from elem down to ``left``, and the untried
        # neighbours of every left vertex on the path above ``left``
        path: list[tuple[int, int]] = []
        frames = []
        left, nbrs = elem, iter(adjacency[elem])
        while True:
            for r in nbrs:
                if r in visited or r in dead:
                    continue
                visited.add(r)
                owner = match_right.get(r)
                path.append((r, left))
                if owner is None:
                    path.reverse()
                    return path
                frames.append(nbrs)
                left, nbrs = owner, iter(adjacency[owner])
                break
            else:
                if not frames:
                    break
                nbrs = frames.pop()
                left = path.pop()[1]
        self._dead |= visited
        return []

    def test(self, elem: int) -> bool:
        path = self._search(elem)
        self._found = (elem, path) if path else None
        return bool(path)

    def insert(self, elem: int) -> None:
        found, self._found = self._found, None
        path = found[1] if found is not None and found[0] == elem else self._search(elem)
        if not path:
            raise ValueError("insert would break independence")
        for r, left in path:
            self.match_left[left] = r
            self.match_right[r] = left


Matroid = LaminarMatroid | GraphicMatroid | TransversalMatroid

# each matroid kind's class; an instance file's matroid fields are the
# class's constructor fields
MATROIDS: dict[str, type[Matroid]] = {
    cls.kind: cls for cls in (LaminarMatroid, GraphicMatroid, TransversalMatroid)
}


def _kind_entry(table: dict, kind: object, what: str):
    """``table``'s entry for ``kind``; a kind it lacks, or one that is not a
    string, is an error that names it."""
    if not isinstance(kind, str) or kind not in table:
        raise ValueError(f"unknown {what} kind: {kind!r}")
    return table[kind]


# ---------------------------------------------------------------------------
# instance bundle


def _gen_coverage_objective(n: int, rng: np.random.Generator) -> tuple:
    nu = max(4, 3 * n)
    covers = []
    for _ in range(n):
        d = int(rng.integers(1, max(2, nu // 3)))
        covers.append(sorted(rng.choice(nu, size=min(d, nu), replace=False).tolist()))
    weights = np.round(rng.uniform(0.25, 1.75, size=nu), 6)
    return covers, weights.tolist()


def _gen_facility_objective(n: int, rng: np.random.Generator) -> tuple:
    clients = max(4, 2 * n)
    sim = np.round(rng.uniform(0.0, 1.0, size=(n, clients)), 6)
    return (sim.tolist(),)


def _gen_additive_objective(n: int, rng: np.random.Generator) -> tuple:
    return (np.round(rng.uniform(0.1, 2.0, size=n), 6).tolist(),)


# each objective kind's oracle class, its payload fields in the order the
# class's constructor takes them, and its generator, which returns their
# values in that order
OBJECTIVES: dict[str, tuple[type[ValueOracle], tuple[str, ...], Callable]] = {
    "coverage": (CoverageOracle, ("covers", "universe_weights"), _gen_coverage_objective),
    "facility": (FacilityLocationOracle, ("similarity",), _gen_facility_objective),
    "additive": (AdditiveOracle, ("weights",), _gen_additive_objective),
}
# the field with one entry per ground-set element comes first, and the one
# that holds the objective's numbers last
ELEMENT_FIELDS = {kind: names[0] for kind, (_cls, names, _gen) in OBJECTIVES.items()}
NUMBER_FIELDS = {kind: names[-1] for kind, (_cls, names, _gen) in OBJECTIVES.items()}


@dataclass
class Instance:
    """A matroid and an objective payload over the same ground set: the
    objective's kind must be known and its per-element field must have one
    entry per element, wherever the instance is built (``from_json``,
    ``generate_instance`` or by hand).

    No code changes the objective payload after construction, so the
    arrays ``build_objective`` converts it into on its first call cannot go
    stale."""

    matroid: Matroid
    objective: dict

    def __post_init__(self) -> None:
        name = _kind_entry(ELEMENT_FIELDS, self.objective.get("kind"), "objective")
        if name in self.objective:
            size = len(self.objective[name])
            if size != self.matroid.n:
                raise ValueError(
                    f"objective {name} has {size} entries for {self.matroid.n} elements"
                )
        self._oracle: ValueOracle | None = None

    @property
    def n(self) -> int:
        return self.matroid.n

    def build_objective(self) -> ValueOracle:
        """An oracle for the objective with a query counter of its own.

        The first call checks the payload and converts it into read-only
        arrays; every oracle from a later call shares those arrays and the
        tables derived from them (see :class:`ValueOracle`).
        """
        if self._oracle is None:
            cls, names, _gen = OBJECTIVES[self.objective["kind"]]
            self._oracle = cls(*(self.objective[name] for name in names))
        return self._oracle.recounted()

    def to_json(self) -> str:
        m = self.matroid
        payload = {f.name: getattr(m, f.name) for f in fields(m) if f.init}
        doc = {
            "version": FORMAT_VERSION,
            "matroid": {"kind": m.kind, **payload},
            "objective": self.objective,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "Instance":
        doc = json.loads(text)
        if not isinstance(doc, dict) or not isinstance(doc.get("objective"), dict):
            raise ValueError("an instance must be a JSON object with an objective object")
        version = doc.get("version")
        # an exact type test: JSON true and 1.0 both compare equal to 1
        if type(version) is not int or version != FORMAT_VERSION:
            raise ValueError(f"unsupported instance format version: {version!r}")
        mdoc = doc["matroid"]
        cls = _kind_entry(MATROIDS, mdoc["kind"], "matroid")
        # a missing field is a KeyError; one no constructor takes is ignored
        matroid = cls(**{f.name: mdoc[f.name] for f in fields(cls) if f.init})
        objective = doc["objective"]
        name = _kind_entry(NUMBER_FIELDS, objective.get("kind"), "objective")
        if _holds_bool(objective.get(name)):
            raise ValueError(f"objective {name} must be numbers, not true or false")
        return Instance(matroid=matroid, objective=objective)


# ---------------------------------------------------------------------------
# generation


def _gen_laminar_matroid(
    n: int, rng: np.random.Generator, max_depth: int | None = None
) -> LaminarMatroid:
    if max_depth is not None and max_depth < 1:
        raise ValueError("tree depth must be positive")
    depth_cap = 4 if max_depth is None else max_depth
    parents = [-1]
    capacities = [0]
    element_nodes = [0] * n

    def build(elems: list[int], parent: int, depth: int) -> None:
        node = len(parents)
        parents.append(parent)
        cap = int(rng.integers(1, len(elems) + 1))
        capacities.append(cap)
        if len(elems) == 1 or depth >= depth_cap or rng.random() < 0.3:
            if len(elems) == 1:
                capacities[node] = 1
                element_nodes[elems[0]] = node
                return
            # attach the block's elements as direct leaf children
            for e in elems:
                leaf = len(parents)
                parents.append(node)
                capacities.append(1)
                element_nodes[e] = leaf
            return
        pieces = int(rng.integers(2, min(4, len(elems)) + 1))
        cuts = sorted(rng.choice(len(elems) - 1, size=pieces - 1, replace=False) + 1) \
            if pieces > 1 else []
        start = 0
        for cut in list(cuts) + [len(elems)]:
            if cut > start:
                build(elems[start:cut], node, depth + 1)
            start = cut

    elems = list(range(n))
    root_cap = int(rng.integers(max(1, n // 3), n + 1))
    capacities[0] = root_cap
    pieces = int(rng.integers(1, min(4, n) + 1))
    if pieces == 1:
        build(elems, 0, 1)
    else:
        cuts = sorted(rng.choice(n - 1, size=pieces - 1, replace=False) + 1)
        start = 0
        for cut in list(cuts) + [n]:
            if cut > start:
                build(elems[start:cut], 0, 1)
            start = cut
    return LaminarMatroid(parents=parents, capacities=capacities, element_nodes=element_nodes)


def _gen_graphic_matroid(
    n: int, rng: np.random.Generator, density: float | None = None
) -> GraphicMatroid:
    # density = target edges-per-vertex ratio; the default matches the
    # historical 0.7 vertex fraction so seeds stay reproducible
    if density is None:
        num_vertices = max(2, int(np.ceil(0.7 * n)) + 1)
    else:
        # NaN fails both comparisons; inf would leave only two vertices
        if not 0 < density < np.inf:
            raise ValueError(f"density must be positive and finite, got {density}")
        num_vertices = max(2, int(np.ceil(n / density)) + 1)
    edges = []
    # a scattered spanning-ish backbone first so the rank is not trivial
    for e in range(n):
        if e < num_vertices - 1 and rng.random() < 0.6:
            edges.append((e, int(rng.integers(e + 1, num_vertices))))
        else:
            u = int(rng.integers(0, num_vertices))
            v = int(rng.integers(0, num_vertices - 1))
            if v >= u:
                v += 1
            edges.append((u, v))
    return GraphicMatroid(num_vertices=num_vertices, edges=edges)


def _gen_transversal_matroid(
    n: int, rng: np.random.Generator, degree: int | None = None
) -> TransversalMatroid:
    num_right = max(2, int(np.ceil(0.8 * n)))
    if degree is not None and degree < 1:
        raise ValueError("degree must be positive")
    degree = min(num_right, 4 if degree is None else degree)
    adjacency = []
    for _ in range(n):
        d = int(rng.integers(1, degree + 1))
        adjacency.append(sorted(rng.choice(num_right, size=d, replace=False).tolist()))
    return TransversalMatroid(num_right=num_right, adjacency=adjacency)


def generate_instance(
    matroid_kind: str,
    objective_kind: str,
    n: int,
    seed: int,
    *,
    tree_depth: int | None = None,
    density: float | None = None,
    degree: int | None = None,
) -> Instance:
    """Deterministically generate an instance from a master seed.

    The keyword knobs reshape one matroid family each (laminar tree depth,
    graphic edge density, transversal left degree), and setting one for
    another family is an error; leaving them unset reproduces the
    historical layout byte for byte.
    """
    if n < 1:
        raise ValueError("n must be positive")
    shapes = {
        "laminar": ("tree depth", tree_depth, _gen_laminar_matroid),
        "graphic": ("density", density, _gen_graphic_matroid),
        "transversal": ("degree", degree, _gen_transversal_matroid),
    }
    _knob, value, gen = _kind_entry(shapes, matroid_kind, "matroid")
    for family, (knob, other, _gen) in shapes.items():
        if other is not None and family != matroid_kind:
            raise ValueError(f"{knob} shapes {family} matroids only, not {matroid_kind}")
    _cls, names, gen_objective = _kind_entry(OBJECTIVES, objective_kind, "objective")
    rng = stream_rng(seed, STREAM_GEN)
    matroid: Matroid = gen(n, rng, value)
    objective = {"kind": objective_kind, **dict(zip(names, gen_objective(n, rng)))}
    return Instance(matroid=matroid, objective=objective)
