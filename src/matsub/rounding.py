"""Randomized swap rounding of a convex combination of matroid bases.

Two bases are merged by repeatedly resolving one element of their symmetric
difference: for i in B1 \\ B2 an exchange partner j in B2 \\ B1 is found such
that both B1 - i + j and B2 - j + i are again bases, and a biased coin decides
which side moves.  Folding the merge over the whole combination yields a
random basis whose per-element inclusion probability equals the fractional
coordinate (Chekuri, Vondrak & Zenklusen, FOCS 2010).

A merge works on the symmetric difference, of size ``d`` per side.  Equal
bases get no exchanger and no coin.  Otherwise exchange partners are
located per matroid family:

- laminar: per-node counts of both bases.  Let v be the lowest node on
  path(i) that is tight (count at capacity) in B2.  The partner is the
  largest id j in B2 \\ B1 below v (anywhere if there is no v) such that no
  node of path(j) \\ path(i) is tight in B1: the maximum addable leaf below
  v once i leaves B1.  ``O(rank·depth)`` to count, then ``O(d·depth)`` per
  exchange.
- graphic: component labels contract the edges both bases share, in
  ``O(rank·log rank)`` relabels, and each exchange contracts the edge
  it puts into both, so the two forests hold only the unresolved
  difference.  Adding i's edge to the
  second closes a unique cycle; the partner is the smallest cycle edge
  outside the first forest that crosses the cut deleting i makes in it
  (contraction keeps both the cycle's edges outside B1 and the cut):
  ``O(d)`` per exchange.
- transversal: certifying matchings for both bases are maintained, and the
  walk from i through their union, alternating first- and second-matching
  edges, ends at the partner: ``O(path)`` per exchange.

Every exchange is certified before the coin moves a basis.  Each exchanger
decides from state it keeps for both bases, exactly for laminar and graphic,
whether B1 - i + j and B2 - j + i are independent; both have the rank's
size, so independent means basis.  ``merge_bases`` raises ``ExchangeError``
if either is not:

- laminar: B1 - i + j is independent iff no node on path(j) \\ path(i) is
  tight in B1, and B2 - j + i iff no node on path(i) \\ path(j) is tight in
  B2: ``O(depth)``.
- graphic: B1 - i + j is a forest iff j crosses the cut that deleting i
  makes in B1, and B2 - j + i is one iff j lies on B2's cycle through i:
  both read off the contracted forests, ``O(d)``.
- transversal: both certificates are the walk from i, so only its partner
  is certified: B1 - i + j takes the walk's second-matching edges and
  B2 - j + i its first-matching ones.  The check confirms that every
  flipped edge exists in ``adjacency`` and that each step takes exactly
  the right vertex the next one frees, ending at the vertex the leaving
  element frees: ``O(path)``.  The moving side's path is then flipped
  into its matching.

The full checks, size equal to the (memoized) ``rank()`` and
independence, run once on every distinct set a merge takes or returns.
For laminar and graphic sets independence is ``is_independent``.  A
transversal set is independent when a matching certifies it, and its
check verifies one in ``O(Σ deg)``: each element has one right vertex
over an edge of ``adjacency`` and no right vertex serves two.  The
matching is the one it came with: ``swap_round`` takes each round basis's
from the sweep that built it (``FractionalSolution.matchings``), and a
merge's output is certified by its exchanger's first matching, kept
through every exchange.  A set that comes with none, as the inputs of a
direct ``merge_bases`` call do, gets one built by inserting it in sorted
order, which raises on a dependent set.  The record of checked sets maps
each to its certificate, that matching or ``None``, and the transversal
exchanger reads both bases' matchings from it.  ``swap_round`` verifies
every handed certificate before its first merge, so a forged one is
refused before any coin, and shares the record across its merges, so a
merge's output, which is the next merge's first input, is checked once.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .instances import (
    GraphicMatroid,
    LaminarMatroid,
    Matroid,
    TransversalChecker,
    TransversalMatroid,
    _UnionFind,
)

if TYPE_CHECKING:
    from .optimizer import FractionalSolution


class ExchangeError(RuntimeError):
    """No valid exchange partner exists; impossible for genuine bases."""


# each fully checked set -> its certificate: the certifying matching (each
# element's right vertex) for a transversal set, None for the other kinds
Checked = dict[frozenset[int], dict[int, int] | None]


def _build_matching(
    matroid: TransversalMatroid, subset: frozenset[int], label: str
) -> dict[int, int]:
    """Certifying matching of ``subset``, built by inserting it in sorted
    order, which raises on a dependent set."""
    try:
        return TransversalChecker(matroid, sorted(subset)).match_left
    except ValueError:
        raise ExchangeError(f"{label} is not independent") from None


def _verify_matching(
    matroid: TransversalMatroid, subset: frozenset[int], matching: dict[int, int], label: str
) -> None:
    """Raise unless ``matching`` certifies ``subset``: it gives each element
    one right vertex over an edge of ``adjacency``, no other left vertex
    any, and no right vertex twice.  ``O(Σ deg)``."""
    if len(matching) != len(subset) or not all(e in matching for e in subset):
        raise ExchangeError(f"{label}: certificate does not match exactly its elements")
    if len(set(matching.values())) != len(matching):
        raise ExchangeError(f"{label}: certificate gives a right vertex twice")
    adjacency = matroid.adjacency
    if not all(matching[e] in adjacency[e] for e in subset):
        raise ExchangeError(f"{label}: certificate takes an edge not in the graph")


def _matching(
    matroid: TransversalMatroid, subset: Iterable[int], label: str, checked: Checked
) -> dict[int, int]:
    """Certifying matching of ``subset`` from ``checked``, else built and
    recorded there."""
    key = frozenset(subset)
    if key not in checked:
        checked[key] = _build_matching(matroid, key, label)
    return checked[key]


def _assert_basis(
    matroid: Matroid,
    subset: set[int],
    label: str,
    checked: Checked,
    matching: dict[int, int] | None = None,
) -> None:
    """Full check of ``subset``, skipped if it is in ``checked``, which then
    holds it.  A transversal set's ``matching``, if given, is verified as
    its certificate; otherwise one is built."""
    key = frozenset(subset)
    if key in checked:
        return
    if len(subset) != matroid.rank():
        raise ExchangeError(f"{label} has size {len(subset)}, rank is {matroid.rank()}")
    if matroid.kind == "transversal":
        if matching is None:
            matching = _build_matching(matroid, key, label)
        else:
            _verify_matching(matroid, key, matching, label)
        checked[key] = matching
        return
    if not matroid.is_independent(subset):
        raise ExchangeError(f"{label} is not independent")
    checked[key] = None


class _LaminarExchanger:
    """Partners and certificates from per-node counts of both bases.

    ``count1``/``count2`` hold how many elements of B1/B2 lie below each
    tree node; a node is tight in a basis when its count reaches its
    capacity.  ``pool`` is the unresolved part of B2 \\ B1, largest id first.
    """

    def __init__(self, matroid: LaminarMatroid, b1: Iterable[int], b2: Iterable[int]) -> None:
        self.matroid = matroid
        self.set1 = set(b1)
        self.set2 = set(b2)
        self.count1 = [0] * len(matroid.parents)
        self.count2 = [0] * len(matroid.parents)
        for e in self.set1:
            self._shift(self.count1, e, 1)
        for e in self.set2:
            self._shift(self.count2, e, 1)
        self.pool = sorted(self.set2 - self.set1, reverse=True)

    def _path(self, elem: int) -> list[int]:
        return self.matroid.path_to_root(self.matroid.element_nodes[elem])

    def _shift(self, counts: list[int], elem: int, delta: int) -> None:
        for v in self._path(elem):
            counts[v] += delta

    def _tight(self, counts: list[int], nodes: Iterable[int]) -> bool:
        caps = self.matroid.capacities
        return any(counts[v] >= caps[v] for v in nodes)

    def exchange(self, i: int) -> int:
        caps = self.matroid.capacities
        path_i = self._path(i)
        # i's addition to B2 is blocked at its lowest tight node; the partner
        # must sit below it so that removing it frees that node
        v = next((x for x in path_i if self.count2[x] >= caps[x]), None)
        on_i = set(path_i)
        # the largest such j that B1 - i can take in
        for j in self.pool:
            path_j = self._path(j)
            if v is not None and v not in path_j:
                continue
            if not self._tight(self.count1, (u for u in path_j if u not in on_i)):
                return j
        raise ExchangeError(f"no exchange partner for element {i}")

    def admits(self, i: int, j: int) -> tuple[bool, bool]:
        """Are B1 - i + j and B2 - j + i independent?"""
        path_i, path_j = set(self._path(i)), set(self._path(j))
        return (
            not self._tight(self.count1, path_j - path_i),
            not self._tight(self.count2, path_i - path_j),
        )

    def apply(self, i: int, j: int, move_first: bool) -> None:
        if move_first:
            self.set1.remove(i)
            self.set1.add(j)
            self._shift(self.count1, i, -1)
            self._shift(self.count1, j, 1)
        else:
            self.set2.remove(j)
            self.set2.add(i)
            self._shift(self.count2, j, -1)
            self._shift(self.count2, i, 1)
        # j now lies in both bases or in neither, so it is a partner no more
        self.pool.remove(j)


class _GraphicExchanger:
    """Cut-and-cycle exchange over two spanning forests with B1 & B2 contracted.

    Component labels (``instances._UnionFind``) merge the ends of every
    edge both bases hold, so a contracted vertex is a label and ``_ends``
    reads two list entries; ``adj1``/``adj2`` map each contracted vertex to its incident edges of
    B1 \\ B2 and B2 \\ B1.  An exchange leaves one of its two edges in both
    bases, which is contracted, and the other in neither, which is dropped,
    so the maps always hold exactly the unresolved difference.  For the
    element i under exchange, ``side`` is the set of contracted vertices on
    one side of the cut that deleting i makes in B1 and ``cycle`` the edges
    of B2 \\ B1 on B2's path between i's ends; both are found once per i.
    """

    def __init__(self, matroid: GraphicMatroid, b1: Iterable[int], b2: Iterable[int]) -> None:
        self.matroid = matroid
        self.set1 = set(b1)
        self.set2 = set(b2)
        self.edges = matroid.ends
        self.uf = _UnionFind(matroid.touched)
        self.label = self.uf.label
        for e in self.set1 & self.set2:
            self.uf.union(*self.edges[e])
        self.adj1: dict[int, set[int]] = {}
        self.adj2: dict[int, set[int]] = {}
        for e in self.set1 - self.set2:
            self._link(self.adj1, e)
        for e in self.set2 - self.set1:
            self._link(self.adj2, e)
        self._for: int | None = None
        self.side: set[int] = set()
        self.cycle: set[int] = set()

    def _ends(self, e: int) -> tuple[int, int]:
        a, b = self.edges[e]
        return self.label[a], self.label[b]

    def _link(self, adjacency: dict[int, set[int]], e: int) -> None:
        for x in self._ends(e):
            adjacency.setdefault(x, set()).add(e)

    def _unlink(self, adjacency: dict[int, set[int]], e: int) -> None:
        for x in self._ends(e):
            adjacency[x].discard(e)

    def _contract(self, e: int) -> None:
        """Merge the ends of ``e``, now in both bases, and their adjacency."""
        a, b = self._ends(e)
        self.uf.union(a, b)
        root = self.label[a]
        for adjacency in (self.adj1, self.adj2):
            small, big = adjacency.pop(a, set()), adjacency.pop(b, set())
            if len(small) > len(big):
                small, big = big, small
            big |= small
            if big:
                adjacency[root] = big

    def _across(self, x: int, e: int) -> int:
        a, b = self._ends(e)
        return b if a == x else a

    def _prepare(self, i: int) -> None:
        if self._for == i:
            return
        u, v = self._ends(i)
        # the side of u once i is deleted from B1
        side = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for e in self.adj1.get(x, ()):
                y = self._across(x, e)
                if e != i and y not in side:
                    side.add(y)
                    stack.append(y)
        # the u-v path in B2, which closes the unique cycle of B2 + i
        parent: dict[int, tuple[int, int]] = {u: (-1, -1)}
        queue = deque([u])
        while queue and v not in parent:
            x = queue.popleft()
            for e in self.adj2.get(x, ()):
                y = self._across(x, e)
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
        a, b = self._ends(j)
        return (a in self.side) != (b in self.side)

    def exchange(self, i: int) -> int:
        self._prepare(i)
        if not self.cycle:
            raise ExchangeError(f"endpoints of edge {i} not connected in the second basis")
        for j in sorted(self.cycle):
            if self._crosses(j):
                return j
        raise ExchangeError(f"no exchange partner for edge {i}")

    def admits(self, i: int, j: int) -> tuple[bool, bool]:
        """Are B1 - i + j and B2 - j + i forests?"""
        self._prepare(i)
        return self._crosses(j), j in self.cycle

    def apply(self, i: int, j: int, move_first: bool) -> None:
        self._unlink(self.adj1, i)
        self._unlink(self.adj2, j)
        if move_first:
            self.set1.remove(i)
            self.set1.add(j)
            self._contract(j)
        else:
            self.set2.remove(j)
            self.set2.add(i)
            self._contract(i)
        self._for = None


class _TransversalExchanger:
    """Alternating-path exchange over two certifying matchings.

    The union of the matchings decomposes into paths and even cycles.  An
    element of B1 \\ B2 has degree one, so the walk from it alternating
    first-matching and second-matching edges ends at an element of B2 \\ B1,
    the partner.  The walk is both sides' certificate: its second-matching
    edges match B1 - i + j and its first-matching edges B2 - j + i, so no
    other candidate is certified.  Flipping the moving side's path into its
    matching updates it.
    """

    def __init__(
        self,
        matroid: TransversalMatroid,
        b1: Iterable[int],
        b2: Iterable[int],
        checked: Checked | None = None,
    ) -> None:
        self.adjacency = matroid.adjacency
        self.set1 = set(b1)
        self.set2 = set(b2)
        checked = {} if checked is None else checked
        match1 = _matching(matroid, self.set1, "first basis", checked)
        match2 = _matching(matroid, self.set2, "second basis", checked)
        self.m1 = dict(match1)
        self.m2 = dict(match2)
        self.r1 = {r: e for e, r in match1.items()}
        self.r2 = {r: e for e, r in match2.items()}

    def _walk(self, i: int) -> list[tuple[int, int, int]]:
        """Steps ``(a, r, b)`` of the walk from ``i``: ``a`` holds ``r`` in
        the first matching and ``b`` in the second; the last ``b`` is the
        partner."""
        steps = []
        a = i
        for _ in range(len(self.set2) + 1):
            r = self.m1[a]
            b = self.r2.get(r)
            if b is None:
                raise ExchangeError(f"walk from {i} left the certificates at right vertex {r}")
            steps.append((a, r, b))
            if b not in self.m1:
                return steps
            a = b
        raise ExchangeError(f"alternating walk from {i} did not terminate")

    def exchange(self, i: int) -> int:
        return self._walk(i)[-1][2]

    def _valid(
        self, match: dict[int, int], owner: dict[int, int], path: list[tuple[int, int]],
        inn: int, out: int,
    ) -> bool:
        """Certificate check: every edge exists, each step takes the vertex
        the next left vertex gives up, and the last one is ``out``'s or free."""
        if path[0][0] != inn or inn in match:
            return False
        for (_, r), (nxt, _) in zip(path, path[1:]):
            if nxt == out or match.get(nxt) != r:
                return False
        last = path[-1][1]
        rights = {r for _, r in path}
        return (
            (last == match[out] or last not in owner)
            and len(rights) == len(path)
            and all(r in self.adjacency[y] for y, r in path)
        )

    def _certificate(self, first: bool, i: int, j: int) -> list[tuple[int, int]] | None:
        """The walk from ``i`` as the path for B1 - i + j (its second-matching
        edges) or B2 - j + i (its first-matching edges); ``None`` unless the
        walk ends at ``j`` and the path passes ``_valid``."""
        steps = self._walk(i)
        if steps[-1][2] != j:
            return None
        if first:
            path = [(b, r) for _, r, b in reversed(steps)]
            valid = self._valid(self.m1, self.r1, path, j, i)
        else:
            path = [(a, r) for a, r, _ in steps]
            valid = self._valid(self.m2, self.r2, path, i, j)
        return path if valid else None

    def admits(self, i: int, j: int) -> tuple[bool, bool]:
        """Are B1 - i + j and B2 - j + i matchable?"""
        return (
            self._certificate(True, i, j) is not None,
            self._certificate(False, i, j) is not None,
        )

    def apply(self, i: int, j: int, move_first: bool) -> None:
        path = self._certificate(move_first, i, j)
        if path is None:
            raise ExchangeError(f"exchange of {i} and {j} has no certificate")
        match, owner, out = (self.m1, self.r1, i) if move_first else (self.m2, self.r2, j)
        del owner[match.pop(out)]
        for y, r in path:
            match[y] = r
            owner[r] = y
        if move_first:
            self.set1.remove(i)
            self.set1.add(j)
        else:
            self.set2.remove(j)
            self.set2.add(i)


def _make_exchanger(
    matroid: Matroid, b1: Iterable[int], b2: Iterable[int], checked: Checked | None = None
):
    if matroid.kind == "laminar":
        return _LaminarExchanger(matroid, b1, b2)
    if matroid.kind == "graphic":
        return _GraphicExchanger(matroid, b1, b2)
    if matroid.kind == "transversal":
        return _TransversalExchanger(matroid, b1, b2, checked)
    raise ValueError(f"unsupported matroid kind {matroid.kind!r}")


def merge_bases(
    alpha1: float,
    b1: Iterable[int],
    alpha2: float,
    b2: Iterable[int],
    matroid: Matroid,
    rng: np.random.Generator,
    *,
    checked: Checked | None = None,
) -> list[int]:
    """Randomly merge two bases; each survives in proportion to its weight.

    Every element of the symmetric difference is resolved by one biased coin:
    with probability alpha2 / (alpha1 + alpha2) the first basis adopts the
    partner, otherwise the second adopts the element.  On return the two
    (internally tracked) bases coincide and the common basis is returned, so
    Pr[e in result] = (alpha1 * [e in B1] + alpha2 * [e in B2]) / (alpha1 + alpha2).
    Both inputs and the output are checked in full, each distinct set once
    and none that ``checked`` already holds (every set checked is added to
    it), and every exchange against its certificate; a failed check raises
    ``ExchangeError``.  A transversal output is checked by verifying the
    exchanger's first matching, which becomes its certificate.  Equal bases
    are returned after their one check, with no exchanger and no coin.
    """
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("mixture weights must be positive")
    set1, set2 = set(b1), set(b2)
    if len(set1) != len(set2):
        raise ValueError("bases must have equal size")
    checked = {} if checked is None else checked
    _assert_basis(matroid, set1, "first basis", checked)
    if set1 == set2:
        return sorted(set1)
    _assert_basis(matroid, set2, "second basis", checked)
    exchanger = _make_exchanger(matroid, set1, set2, checked)
    threshold = alpha2 / (alpha1 + alpha2)
    for i in sorted(set1 - set2):
        j = exchanger.exchange(i)
        if j not in exchanger.set2 or j in exchanger.set1:
            raise ExchangeError(f"partner {j} of {i} is not in B2 \\ B1")
        first, second = exchanger.admits(i, j)
        if not first:
            raise ExchangeError(f"first exchange: B1 - {i} + {j} is not independent")
        if not second:
            raise ExchangeError(f"second exchange: B2 - {j} + {i} is not independent")
        exchanger.apply(i, j, move_first=rng.random() < threshold)
    if exchanger.set1 != exchanger.set2:
        raise ExchangeError("merge finished with distinct bases")
    # the first matching, kept through every exchange, certifies the merged
    # transversal basis
    matching = exchanger.m1 if matroid.kind == "transversal" else None
    _assert_basis(matroid, exchanger.set1, "merged basis", checked, matching)
    return sorted(exchanger.set1)


def swap_round(
    fractional: "FractionalSolution",
    matroid: Matroid,
    rng: np.random.Generator,
) -> list[int]:
    """Left-fold of the pairwise merge over a convex combination of bases.

    The running merge carries the accumulated mixture weight, so every basis
    enters with influence proportional to its coefficient and the output
    preserves the fractional marginals elementwise.  The certificate that
    ``fractional.matchings`` hands with a transversal basis is verified
    before the first merge and recorded as that basis's check.  The merges
    share one record of checked sets, so each distinct set a merge takes or
    returns is checked in full once: a merge's output, the next merge's
    first input, is not checked again.
    """
    bases: Sequence[tuple[float, Sequence[int]]] = list(fractional.bases)
    if not bases:
        raise ValueError("fractional solution holds no bases")
    checked: Checked = {}
    for (_alpha, basis), matching in zip(bases, fractional.matchings):
        _assert_basis(matroid, set(basis), "round basis", checked, matching)
    weight, merged = bases[0][0], list(bases[0][1])
    for alpha, basis in bases[1:]:
        merged = merge_bases(weight, merged, alpha, basis, matroid, rng, checked=checked)
        weight += alpha
    return sorted(merged)
