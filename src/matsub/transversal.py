"""Approximate matching structures over bipartite representations.

Two structures live here.  The first maintains a maximal matching under
weight decrements without ever unmatching a left vertex that was not itself
decremented (L-stability).  It prices left vertices by virtual weights that
shrink by a (1+eps) factor on every re-match, so a displaced right vertex
never wants to steal its old partner back immediately, and the total scan
work stays near-linear.  Weights are rounded down to integer powers of
(1+eps) at ingestion; arithmetic on weights is done on the exponents.  It
is one of phase 1's three basis structures (see
``optimizer.MaxWeightOracle``); its basis is the matched left vertices.

The second maintains one matching with no augmenting path of at most
2 + 2/eps edges, which keeps its size within (1-eps) of maximum.  A batch
of left vertices joins it in place and bounded-depth augmenting searches
from the free right vertices extend it, none rerun to a failure it already
met; deleting a left vertex unlinks it and repairs from its freed partner.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .core import OracleChanges
from .instances import TransversalChecker, TransversalMatroid


class LStableMatching:
    """Maximal matching under decrements, stable on the left side.

    Virtual weights are kept as integer exponents of (1+eps) relative to
    the floor ``eps * w_max / n``; ``None`` stands for weight zero.  A right
    vertex r scans its neighbor list once per exponent level from ``k`` down
    to ``-floor(1/eps)``, remembering its position between searches, so the
    lifetime scanning work is O(|N_r| * (k + 1/eps)) per vertex.
    """

    def __init__(
        self,
        matroid: TransversalMatroid,
        weights: Mapping[int, float],
        epsilon: float,
    ) -> None:
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        self.matroid = matroid
        self.eps = epsilon
        n = matroid.n
        raw = [float(weights.get(l, 0.0)) for l in range(n)]
        if any(w < 0 for w in raw):
            raise ValueError("weights must be nonnegative")
        w_max = max(raw, default=0.0)
        self.scale = w_max * epsilon / max(1, n) if w_max > 0 else 1.0
        self.low = -math.floor(1 / epsilon)
        self.k = self._ceil_log(w_max / self.scale) if w_max > self.scale else 0
        # the caller's weights, which a decrement must lower
        self.weights = raw
        self.vw: list[int | None] = [self._round_level(w) for w in raw]
        self.w_val: list[float] = [self.level_value(lv) for lv in self.vw]
        # per-right state for the touched right vertices alone, in
        # increasing declared id (see ``TransversalMatroid.touched_right``)
        self.n_r: dict[int, list[int]] = {r: [] for r in matroid.touched_right}
        for l in range(n):
            for r in matroid.adjacency[l]:
                self.n_r[r].append(l)
        self.m = sum(len(nbrs) for nbrs in self.n_r.values())
        self.p_r = dict.fromkeys(self.n_r, 0)
        self.j_r = dict.fromkeys(self.n_r, self.k)
        self.match_of_l: dict[int, int] = {}
        self.match_of_r: dict[int, int] = {}
        self.frozen: set[int] = set()
        self.fallback: set[int] = set()
        self.scan_steps = 0
        self.fallback_steps = 0
        self.per_r_scans = dict.fromkeys(self.n_r, 0)
        for r in self.n_r:
            self._run_match(r)

    # -- weight levels -----------------------------------------------------

    def _ceil_log(self, ratio: float) -> int:
        base = math.log1p(self.eps)
        j = math.ceil(math.log(ratio) / base - 1e-12)
        while (1 + self.eps) ** j < ratio:
            j += 1
        while j > 0 and (1 + self.eps) ** (j - 1) >= ratio:
            j -= 1
        return j

    def _round_level(self, w: float) -> int | None:
        """Largest j with scale*(1+eps)^j <= w, or None below the floor."""
        if w <= 0:
            return None
        base = math.log1p(self.eps)
        j = math.floor(math.log(w / self.scale) / base + 1e-12)
        while self.scale * (1 + self.eps) ** j > w:
            j -= 1
        while self.scale * (1 + self.eps) ** (j + 1) <= w:
            j += 1
        if j < self.low:
            return None
        return min(j, self.k)

    def level_value(self, level: int | None) -> float:
        if level is None:
            return 0.0
        return self.scale * (1 + self.eps) ** level

    # -- matching ----------------------------------------------------------

    def _run_match(self, r: int) -> int | None:
        # iterative form of the displacement chain: each round either ends
        # by matching a previously unmatched left vertex (the chain stops)
        # or displaces one right vertex, which becomes the next round.  Every
        # round starts at an unmatched right vertex, so only the last round
        # can match a left vertex anew; return that vertex, or None
        last, current = r, self._match_round(r)
        while current is not None:
            last, current = current, self._match_round(current)
        return self.match_of_r.get(last)

    def _match_round(self, r: int) -> int | None:
        displaced: int | None = None
        nbrs = self.n_r[r]
        while self.j_r[r] >= self.low and displaced is None:
            while self.p_r[r] < len(nbrs) and displaced is None:
                l = nbrs[self.p_r[r]]
                self.p_r[r] += 1
                self.scan_steps += 1
                self.per_r_scans[r] += 1
                lv = self.vw[l]
                if lv is not None and lv >= self.j_r[r]:
                    self.vw[l] = lv - 1
                    prev = self.match_of_l.get(l)
                    if prev is not None:
                        del self.match_of_r[prev]
                        self.match_of_l[l] = r
                        self.match_of_r[r] = l
                        displaced = prev
                    else:
                        self.match_of_l[l] = r
                        self.match_of_r[r] = l
                        self.fallback.discard(l)
                        return None
            if displaced is None and self.p_r[r] >= len(nbrs):
                self.j_r[r] -= 1
                self.p_r[r] = 0
        if r not in self.match_of_r:
            for l in nbrs:
                self.fallback_steps += 1
                if l not in self.match_of_l:
                    self.match_of_l[l] = r
                    self.match_of_r[r] = l
                    self.fallback.add(l)
                    break
        return displaced

    # -- public mutations --------------------------------------------------

    def decrement(self, l: int, w: float) -> OracleChanges:
        if not 0 <= l < self.matroid.n:
            raise ValueError(f"left vertex {l} out of range")
        if l in self.frozen:
            raise ValueError("cannot decrement a frozen vertex")
        if w < 0:
            raise ValueError("weights must be nonnegative")
        if w >= self.weights[l]:
            raise ValueError("decrement must lower the weight")
        self.weights[l] = w
        new_lv = self._round_level(w)
        self.w_val[l] = self.level_value(new_lv)
        cur = self.vw[l]
        changes = OracleChanges()
        # act whenever the new level does not sit strictly above the
        # virtual weight, so a matched vertex never ends with vw = w
        if cur is not None and (new_lv is None or new_lv <= cur):
            self.vw[l] = new_lv
            r = self.match_of_l.get(l)
            if r is not None:
                del self.match_of_l[l]
                del self.match_of_r[r]
                self.fallback.discard(l)
                # L-stability: no other left vertex loses its match, so l
                # alone can leave and the joiners are the ones matched here
                joined = [self._run_match(r)]
                if l not in self.match_of_l:
                    # wake the other unmatched neighbors; their scans are
                    # exhausted, so each call is one cheap fallback pass,
                    # and it keeps the matching maximal
                    for r2 in self.matroid.adjacency[l]:
                        if r2 not in self.match_of_r:
                            joined.append(self._run_match(r2))
                        if l in self.match_of_l:
                            break
                if l not in self.match_of_l:
                    changes.removed.append(l)
                changes.added = sorted(j for j in joined if j is not None and j != l)
        return changes

    def freeze(self, l: int) -> OracleChanges:
        if l not in self.match_of_l or l in self.frozen:
            raise ValueError("only unfrozen matched vertices can be frozen")
        self.frozen.add(l)
        return OracleChanges(removed=[l])

    # -- inspection --------------------------------------------------------

    def basis(self) -> list[int]:
        return sorted(self.match_of_l)

    def approx_base_weight(self) -> float:
        return sum(
            self.w_val[l] for l in self.match_of_l if l not in self.fallback
        )

    @property
    def op_counters(self) -> dict[str, int]:
        return {
            "scans": self.scan_steps + self.fallback_steps,
            "pointer_scans": self.scan_steps,
            "fallback_scans": self.fallback_steps,
        }


class DecMatching:
    """Near-maximum matching under left-vertex deletions.

    The matching never has an augmenting path of at most ``2 + 2/eps``
    edges, so its size stays within (1-eps) of the maximum.  Left vertices
    matched once stay matched until deleted.  A batch insert adds its
    vertices to the one maintained matching and augments until no short
    path is left; a delete unlinks the vertex and repairs from its freed
    partner with one bounded-depth augmenting search.

    No search runs twice to the same failure.  A failed search from a free
    right vertex r saw only matched left vertices, and its outcome depends
    only on their partners and on the neighbour sets of the right vertices
    it expanded: the ``(rank, id)`` order picks which path is found first,
    not which vertices a layer reaches.  An augmentation never unmatches a
    left vertex and a delete only removes vertices and edges, so the search
    can only shrink, and it fails again until a path rematches a left
    vertex it saw or a batch insert gives a right vertex it expanded a new
    neighbour.  ``_failed`` records each such r with what it saw and
    expanded, ``_saw_l``/``_saw_r`` index the records by those vertices,
    and the two events drop the records they reach.  A recorded r is free
    (a free right vertex is matched only by its own search), the sweep
    skips it and a delete searches only from a vertex that was matched, so
    no record is ever overwritten.  A failed search changes nothing, so the
    skip leaves every path found, and so the matching and ranks, as a
    rerun would.
    """

    def __init__(self, matroid: TransversalMatroid, epsilon: float) -> None:
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        self.matroid = matroid
        self.eps = epsilon
        self.max_len = 2 + 2 / epsilon
        self.present: set[int] = set()
        self.deleted: set[int] = set()
        self.match_of_l: dict[int, int] = {}
        self.match_of_r: dict[int, int] = {}
        self.rank: dict[int, int] = {}
        # per-right state for the touched right vertices alone, in
        # increasing declared id (see ``TransversalMatroid.touched_right``)
        self._n_r: dict[int, set[int]] = {r: set() for r in matroid.touched_right}
        # failed search from r -> (left vertices seen, right vertices expanded)
        self._failed: dict[int, tuple[set[int], list[int]]] = {}
        self._saw_l: dict[int, set[int]] = {}
        self._saw_r: dict[int, set[int]] = {}
        self.batch_inserts = 0
        self.deletes = 0

    # -- augmenting search -------------------------------------------------

    def _neighbors(self, r: int) -> list[int]:
        return sorted(self._n_r[r], key=lambda l: (self.rank[l], l))

    def _augment_from(self, r0: int) -> int | None:
        """Shortest augmenting path of at most max_len edges, or None."""
        parent_l: dict[int, int] = {}
        frontier = [r0]
        seen_r = {r0}
        seen_l: set[int] = set()
        expanded: list[int] = []
        depth = 1
        while frontier and 2 * depth - 1 <= self.max_len:
            expanded += frontier
            layer: list[int] = []
            for r in frontier:
                for l in self._neighbors(r):
                    if l in seen_l:
                        continue
                    seen_l.add(l)
                    parent_l[l] = r
                    if l not in self.match_of_l:
                        return self._apply_path(l, parent_l)
                    layer.append(l)
            frontier = []
            for l in layer:
                rm = self.match_of_l[l]
                if rm not in seen_r:
                    seen_r.add(rm)
                    frontier.append(rm)
            depth += 1
        self._failed[r0] = (seen_l, expanded)
        for l in seen_l:
            self._saw_l.setdefault(l, set()).add(r0)
        for r in expanded:
            self._saw_r.setdefault(r, set()).add(r0)
        return None

    def _forget(self, r0: int) -> None:
        """Drop the record of a failed search from ``r0``, if any."""
        record = self._failed.pop(r0, None)
        if record is not None:
            seen_l, expanded = record
            for l in seen_l:
                self._saw_l[l].discard(r0)
            for r in expanded:
                self._saw_r[r].discard(r0)

    def _forget_all(self, index: dict[int, set[int]], v: int) -> None:
        """Drop every failed search that ``index`` files under vertex ``v``."""
        for r0 in list(index.get(v, ())):
            self._forget(r0)

    def _apply_path(self, l_end: int, parent_l: dict[int, int]) -> int:
        l = l_end
        while True:
            r = parent_l[l]
            prev = self.match_of_r.get(r)
            self.match_of_l[l] = r
            self.match_of_r[r] = l
            self.rank[l] += 1
            self._forget_all(self._saw_l, l)
            if prev is None:
                break
            l = prev
        return l_end

    def _exhaust(self) -> None:
        """Augment until no short augmenting path remains."""
        progress = True
        while progress:
            progress = False
            for r in self._n_r:
                if (
                    r not in self.match_of_r
                    and r not in self._failed
                    and self._augment_from(r) is not None
                ):
                    progress = True

    # -- public operations -------------------------------------------------

    def batch_insert(self, elems: Iterable[int]) -> list[int]:
        """Add ``elems`` and augment until no short path is left.

        An augmenting path never unmatches a left vertex, so the return
        value lists exactly the vertices this call matched.  Rematch counts
        restart at 1 for matched vertices and 0 for the rest.
        """
        new = sorted(set(elems))
        for l in new:
            if not 0 <= l < self.matroid.n:
                raise ValueError(f"element {l} out of range")
            if l in self.present or l in self.deleted:
                raise ValueError(f"element {l} was already inserted")
        self.batch_inserts += 1
        grown: set[int] = set()
        for l in new:
            for r in self.matroid.adjacency[l]:
                self._n_r[r].add(l)
                grown.add(r)
        for r in grown:
            self._forget_all(self._saw_r, r)
        self.present.update(new)
        self.rank = {l: int(l in self.match_of_l) for l in self.present}
        before = set(self.match_of_l)
        self._exhaust()
        return sorted(l for l in self.match_of_l if l not in before)

    def delete(self, l: int) -> list[int]:
        if l not in self.present:
            raise ValueError(f"element {l} is not present")
        self.deletes += 1
        self.present.discard(l)
        self.deleted.add(l)
        for r in self.matroid.adjacency[l]:
            self._n_r[r].discard(l)
        del self.rank[l]
        r_old = self.match_of_l.pop(l, None)
        if r_old is None:
            return []
        del self.match_of_r[r_old]
        got = self._augment_from(r_old)
        return [] if got is None else [got]

    def checker(self) -> TransversalChecker:
        """An exact checker whose members are the matched vertices, certified
        by this matching; it runs no search.  Independence does not depend
        on the certifying matching, and Kuhn's dead-set rule holds for any
        matching of the members, so its answers are a fresh build's."""
        checker = TransversalChecker(self.matroid)
        checker.match_left = dict(self.match_of_l)
        checker.match_right = dict(self.match_of_r)
        return checker

    # -- inspection --------------------------------------------------------

    def basis(self) -> list[int]:
        return sorted(self.match_of_l)

    @property
    def op_counters(self) -> dict[str, int]:
        return {"batch_inserts": self.batch_inserts, "deletes": self.deletes}
