"""Tests for the stable-matching structures over bipartite graphs."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import families
from matsub.instances import TransversalMatroid
from matsub.transversal import DecMatching, LStableMatching
from reference import (
    RebuildDecMatching,
    dec_matching_pairs,
    hopcroft_karp,
    hungarian_max_weight_matching,
)


def _level(d: LStableMatching, l: int) -> int | None:
    """The weight level of left vertex ``l``, from its current weight."""
    return d._round_level(d.weights[l])


def _check_invariants(d: LStableMatching) -> None:
    mat = d.matroid
    for l in range(mat.n):
        level = _level(d, l)
        if l not in d.match_of_l:
            assert d.vw[l] == level
        else:
            # matched: virtual weight sits at least one level below the
            # weight, except for weight-zero fallback partners
            if level is None:
                assert d.vw[l] is None
            else:
                assert d.vw[l] is None or d.vw[l] <= level - 1
    for r, l in d.match_of_r.items():
        lv = d.vw[l]
        if lv is None or lv < d.low:
            continue
        for other in d.n_r[r]:
            olv = d.vw[other]
            assert olv is None or olv <= lv + 1
    for l in range(mat.n):
        if l in d.match_of_l:
            continue
        for r in mat.adjacency[l]:
            assert r in d.match_of_r, "maximality: open edge left unmatched"
    assert d.frozen <= set(d.match_of_l)


def test_single_edge() -> None:
    mat = TransversalMatroid(num_right=1, adjacency=[[0]])
    d = LStableMatching(mat, {0: 4.0}, epsilon=0.5)
    assert d.match_of_l == {0: 0}
    assert d.vw[0] == _level(d, 0) - 1
    _check_invariants(d)


def test_two_left_one_right_prefers_heavier() -> None:
    mat = TransversalMatroid(num_right=1, adjacency=[[0], [0]])
    d = LStableMatching(mat, {0: 2.25, 1: 1.0}, epsilon=0.5)
    assert d.match_of_l == {0: 0}
    _check_invariants(d)


def test_steal_chain_on_three_edge_path() -> None:
    mat = TransversalMatroid(num_right=2, adjacency=[[0, 1], [1]])
    d = LStableMatching(mat, {0: 2.25, 1: 1.0}, epsilon=0.5)
    # the second right vertex steals the heavy neighbor, displacing the
    # first, which works its way back; nobody ends up unmatched
    assert set(d.match_of_r) == {0, 1}
    assert set(d.match_of_l) == {0, 1}
    _check_invariants(d)


def test_no_neighbors_stays_unmatched() -> None:
    mat = TransversalMatroid(num_right=2, adjacency=[[1]])
    d = LStableMatching(mat, {0: 1.0}, epsilon=0.5)
    assert d.match_of_l == {0: 1}
    assert 0 not in d.match_of_r
    _check_invariants(d)


def test_decrement_unmatched_is_silent() -> None:
    mat = TransversalMatroid(num_right=1, adjacency=[[0], [0]])
    d = LStableMatching(mat, {0: 2.25, 1: 1.0}, epsilon=0.5)
    c = d.decrement(1, 0.5)
    assert c.added == [] and c.removed == []
    assert d.match_of_l == {0: 0}
    _check_invariants(d)


def test_decrement_matched_to_zero_falls_back() -> None:
    mat = TransversalMatroid(num_right=1, adjacency=[[0]])
    d = LStableMatching(mat, {0: 1.0}, epsilon=0.5)
    assert d.match_of_l == {0: 0}
    c = d.decrement(0, 0.0)
    # the right vertex re-matches its only neighbor as a weight-zero
    # fallback, which counts for cardinality but not for weight
    assert d.match_of_l == {0: 0}
    assert 0 in d.fallback
    assert d.approx_base_weight() == 0.0
    # the vertex neither entered nor left the matching
    assert c.removed == [] and c.added == []
    _check_invariants(d)


def test_freeze_rules() -> None:
    mat = TransversalMatroid(num_right=2, adjacency=[[0], [1]])
    d = LStableMatching(mat, {0: 3.0, 1: 2.0}, epsilon=0.5)
    before = dict(d.match_of_l)
    c = d.freeze(0)
    assert c.removed == [0] and c.added == []
    assert d.match_of_l == before
    with pytest.raises(ValueError):
        d.freeze(0)
    with pytest.raises(ValueError):
        d.decrement(0, 1.0)
    d2 = LStableMatching(mat, {0: 3.0, 1: 0.0}, epsilon=0.5)
    unmatched = [l for l in range(2) if l not in d2.match_of_l]
    for l in unmatched:
        with pytest.raises(ValueError):
            d2.freeze(l)


def test_frozen_interior_survives_decrements() -> None:
    # a path where interior vertices are frozen and the rest decay
    n = 6
    adjacency = [[i] if i == 0 else [i - 1, i] for i in range(n)]
    mat = TransversalMatroid(num_right=n, adjacency=adjacency)
    weights = {l: 8.0 - l for l in range(n)}
    d = LStableMatching(mat, weights, epsilon=0.25)
    frozen = [l for l in (2, 3) if l in d.match_of_l]
    for l in frozen:
        d.freeze(l)
    rng = np.random.default_rng(0)
    for _ in range(40):
        l = int(rng.integers(n))
        if l in d.frozen or d.w_val[l] <= 0:
            continue
        d.decrement(l, float(rng.uniform(0, d.w_val[l] * 0.9)))
        for f in frozen:
            assert f in d.match_of_l
        _check_invariants(d)


def test_argument_validation() -> None:
    mat = TransversalMatroid(num_right=1, adjacency=[[0]])
    with pytest.raises(ValueError):
        LStableMatching(mat, {0: 1.0}, epsilon=0.0)
    with pytest.raises(ValueError):
        LStableMatching(mat, {0: -1.0}, epsilon=0.5)
    d = LStableMatching(mat, {0: 1.0}, epsilon=0.5)
    with pytest.raises(ValueError):
        d.decrement(0, 1.5)
    with pytest.raises(ValueError):
        d.decrement(0, -1.0)
    with pytest.raises(ValueError):
        d.decrement(3, 0.1)


def _random_bipartite(rng: np.random.Generator) -> TransversalMatroid:
    nl = int(rng.integers(3, 13))
    nr = int(rng.integers(2, 13))
    adjacency = []
    for _ in range(nl):
        deg = int(rng.integers(0, min(nr, 4) + 1))
        adjacency.append(sorted(rng.choice(nr, size=deg, replace=False).tolist()))
    return TransversalMatroid(num_right=nr, adjacency=adjacency)


def test_random_runs_keep_invariants_and_ratio() -> None:
    for epsilon in (0.1, 0.25):
        rng = np.random.default_rng(11)
        for _ in range(10):
            mat = _random_bipartite(rng)
            n = mat.n
            weights = {l: float(rng.integers(0, 40)) for l in range(n)}
            d = LStableMatching(mat, weights, epsilon=epsilon)
            _check_invariants(d)
            for _ in range(60):
                l = int(rng.integers(n))
                if d.w_val[l] <= 0:
                    continue
                before = set(d.match_of_l)
                c = d.decrement(l, float(rng.uniform(0, d.w_val[l] * 0.95)))
                after = set(d.match_of_l)
                assert before - after <= {l}  # L-stability
                assert c.removed == sorted(before - after)
                assert c.added == sorted(after - before)
                _check_invariants(d)
                matched = d.basis()
                weight_m = sum(d.w_val[e] for e in matched)
                hung = hungarian_max_weight_matching(
                    mat.adjacency, [d.w_val[e] for e in range(n)], mat.num_right
                )
                assert weight_m >= (1 - 3 * epsilon) * hung - 1e-9
                assert len(matched) >= 0.5 * len(
                    hopcroft_karp(mat.adjacency, mat.num_right)
                )
            k = d.k
            budget = 4 * max(1, d.m) * (k + 1 / epsilon + 2)
            assert d.op_counters["scans"] <= budget


def test_per_vertex_scan_budget() -> None:
    rng = np.random.default_rng(5)
    mat = _random_bipartite(rng)
    n = mat.n
    weights = {l: float(rng.integers(1, 40)) for l in range(n)}
    d = LStableMatching(mat, weights, epsilon=0.25)
    for _ in range(150):
        l = int(rng.integers(n))
        if d.w_val[l] <= 0:
            continue
        d.decrement(l, float(rng.uniform(0, d.w_val[l] * 0.95)))
    cap = d.k + math.floor(1 / d.eps) + 2
    for r in mat.touched_right:
        assert d.per_r_scans[r] <= len(d.n_r[r]) * cap


def _max_weight_pairs(
    mat: TransversalMatroid, weights: list[float]
) -> dict[int, int]:
    """Exact max-weight matching as explicit pairs."""
    nl = mat.n
    if nl == 0:
        return {}
    forbidden = -(max(weights, default=1.0) + 1.0) * (nl + 1)
    cost = np.full((nl, mat.num_right + nl), forbidden)
    for l, nbrs in enumerate(mat.adjacency):
        for r in nbrs:
            cost[l, r] = weights[l]
        cost[l, mat.num_right + l] = 0.0
    rows, cols = linear_sum_assignment(cost, maximize=True)
    return {
        int(l): int(r)
        for l, r in zip(rows, cols)
        if r < mat.num_right and cost[l, r] > forbidden / 2
    }


def test_alternating_path_lower_bound() -> None:
    # on each path of M xor M* starting at an M-unmatched left vertex,
    # the matched weight picked up along the path dominates the geometric
    # sum between any on-path virtual level and the start's weight level
    rng = np.random.default_rng(23)
    for _ in range(20):
        mat = _random_bipartite(rng)
        n = mat.n
        weights = {l: float(rng.integers(1, 60)) for l in range(n)}
        d = LStableMatching(mat, weights, epsilon=0.25)
        for _ in range(25):
            l = int(rng.integers(n))
            if d.w_val[l] <= 0:
                continue
            d.decrement(l, float(rng.uniform(0, d.w_val[l] * 0.9)))
        opt = _max_weight_pairs(mat, [d.w_val[l] for l in range(n)])
        for start in range(n):
            if start in d.match_of_l or start not in opt or _level(d, start) is None:
                continue
            # walk the alternating path from the unmatched start
            path_l = [start]
            r = opt[start]
            while r in d.match_of_r:
                nxt = d.match_of_r[r]
                if nxt in path_l:
                    break
                path_l.append(nxt)
                if nxt not in opt or opt[nxt] == r:
                    break
                r = opt[nxt]
            gained = sum(d.w_val[e] for e in path_l if e in d.match_of_l)
            j_star = _level(d, start)
            for e in path_l:
                lv = d.vw[e]
                if e == start or lv is None:
                    continue
                bound = sum(
                    d.level_value(i) for i in range(lv, j_star)
                )
                assert gained >= bound - 1e-9


# ---------------------------------------------------------------------------
# bounded-augmenting-path decremental matching


def _no_short_augmenting_path(d: DecMatching) -> bool:
    """Oracle check over the real graph restricted to present vertices."""
    mat = d.matroid
    matched = dec_matching_pairs(d)
    match_r = {r: l for l, r in matched.items()}
    for r0 in mat.touched_right:
        if r0 in match_r:
            continue
        frontier = [r0]
        seen_r = {r0}
        seen_l: set[int] = set()
        depth = 1
        while frontier and 2 * depth - 1 <= d.max_len:
            layer = []
            for r in frontier:
                for l in d._n_r[r]:
                    if l in seen_l or l not in d.present:
                        continue
                    seen_l.add(l)
                    if l not in matched:
                        return False
                    layer.append(l)
            frontier = []
            for l in layer:
                rm = matched[l]
                if rm not in seen_r:
                    seen_r.add(rm)
                    frontier.append(rm)
            depth += 1
    return True


def test_dec_single_element() -> None:
    mat = TransversalMatroid(num_right=1, adjacency=[[0]])
    d = DecMatching(mat, epsilon=0.25)
    assert d.batch_insert([0]) == [0]
    assert d.basis() == [0]


def test_dec_batch_keeps_prior_basis() -> None:
    mat = TransversalMatroid(
        num_right=3, adjacency=[[0], [0, 1], [1, 2], [0, 1, 2], [2], [0, 2]]
    )
    d = DecMatching(mat, epsilon=0.25)
    first = d.batch_insert([0, 1, 2])
    assert first == [0, 1, 2]
    prior = set(d.basis())
    d.batch_insert([3, 4, 5])
    assert prior <= set(d.basis())
    assert _no_short_augmenting_path(d)


def test_dec_delete_returns_replacements() -> None:
    mat = TransversalMatroid(num_right=2, adjacency=[[0], [0, 1], [0]])
    d = DecMatching(mat, epsilon=0.25)
    d.batch_insert([0, 1])
    assert set(d.basis()) == {0, 1}
    d2 = DecMatching(mat, epsilon=0.25)
    d2.batch_insert([0, 1, 2])
    # dropping the vertex that hogs the shared neighbor frees it up
    victim = next(l for l in d2.basis() if 0 in mat.adjacency[l])
    replaced = d2.delete(victim)
    assert victim not in d2.basis()
    assert set(replaced) <= set(d2.basis())
    assert _no_short_augmenting_path(d2)
    with pytest.raises(ValueError):
        d2.delete(victim)


def test_dec_validation() -> None:
    mat = TransversalMatroid(num_right=1, adjacency=[[0], [0]])
    d = DecMatching(mat, epsilon=0.25)
    d.batch_insert([0])
    with pytest.raises(ValueError):
        d.batch_insert([0])
    with pytest.raises(ValueError):
        d.batch_insert([9])
    with pytest.raises(ValueError):
        d.delete(1)
    d.delete(0)
    with pytest.raises(ValueError):
        d.batch_insert([0])  # deleted elements do not come back


def test_dec_random_sequences_ratio() -> None:
    eps = 0.25
    rng = np.random.default_rng(17)
    for _ in range(8):
        nl = int(rng.integers(6, 31))
        nr = int(rng.integers(3, 16))
        adjacency = []
        for _ in range(nl):
            deg = int(rng.integers(0, min(nr, 5) + 1))
            adjacency.append(sorted(rng.choice(nr, size=deg, replace=False).tolist()))
        mat = TransversalMatroid(num_right=nr, adjacency=adjacency)
        d = DecMatching(mat, epsilon=eps)
        outside = list(range(nl))
        rng.shuffle(outside)
        matched_history: set[int] = set()

        def check() -> None:
            sub = [adjacency[l] if l in d.present else [] for l in range(nl)]
            best = len(hopcroft_karp(sub, nr))
            assert len(d.basis()) >= (1 - eps) * best - 1e-9
            assert _no_short_augmenting_path(d)

        while outside or d.present:
            if outside and (not d.present or rng.random() < 0.55):
                take = min(len(outside), int(rng.integers(1, 6)))
                batch, outside = outside[:take], outside[take:]
                d.batch_insert(batch)
                # stability: everything matched before is still matched
                assert matched_history <= set(d.basis()) | d.deleted
            else:
                victim = int(rng.choice(sorted(d.present)))
                d.delete(victim)
            matched_history |= set(d.basis())
            check()


def test_dec_matches_the_rebuild_reference() -> None:
    # the in-place matching makes the same moves as rebuilding it per batch
    # and pinning deleted vertices to dummy right vertices
    rng = np.random.default_rng(29)
    unmatched_deletes = batches_after_deletes = 0
    for trial in range(40):
        eps = (0.1, 0.25, 0.5)[trial % 3]
        nl = int(rng.integers(4, 31))
        nr = int(rng.integers(2, 16))
        adjacency = [
            sorted(rng.choice(nr, size=int(rng.integers(0, min(nr, 5) + 1)), replace=False).tolist())
            for _ in range(nl)
        ]
        mat = TransversalMatroid(num_right=nr, adjacency=adjacency)
        d = DecMatching(mat, epsilon=eps)
        ref = RebuildDecMatching(mat, epsilon=eps)
        outside = rng.permutation(nl).tolist()
        deleted_since_batch = False
        while outside or d.present:
            if outside and (not d.present or rng.random() < 0.5):
                take = int(rng.integers(1, 7))
                batch, outside = outside[:take], outside[take:]
                got, want = d.batch_insert(batch), ref.batch_insert(batch)
                batches_after_deletes += deleted_since_batch
                deleted_since_batch = False
            else:
                idle = sorted(d.present - set(d.match_of_l))
                pool = idle if idle and rng.random() < 0.5 else sorted(d.present)
                victim = int(rng.choice(pool))
                unmatched_deletes += victim not in d.match_of_l
                got, want = d.delete(victim), ref.delete(victim)
                deleted_since_batch = True
            assert got == want
            assert dec_matching_pairs(d) == dec_matching_pairs(ref)
            assert d.basis() == ref.basis()
            assert {l: d.rank[l] for l in d.present} == {l: ref.rank[l] for l in ref.present}
    assert unmatched_deletes > 0 and batches_after_deletes > 0


def _count_searches(d: DecMatching | RebuildDecMatching) -> list[int]:
    """Count the instance's ``_augment_from`` calls in a one-item list."""
    calls = [0]
    genuine = d._augment_from

    def counted(r0: int) -> int | None:
        calls[0] += 1
        return genuine(r0)

    d._augment_from = counted
    return calls


def test_dec_skips_failed_searches_on_generator_like_runs() -> None:
    # the sweep's pattern at generator sizes, where a failed search's record
    # outlives many batches: a cohort joins, an audit deletes some of what
    # it matched, the deletes' replacements are audited in turn
    rng = np.random.default_rng(31)
    dec_calls = ref_calls = 0
    for trial in range(6):
        eps = (0.1, 0.2, 0.5)[trial % 3]
        nl = int(rng.integers(120, 201))
        nr = int(np.ceil(0.8 * nl))
        adjacency = [
            sorted(rng.choice(nr, size=int(rng.integers(1, 5)), replace=False).tolist())
            for _ in range(nl)
        ]
        mat = TransversalMatroid(num_right=nr, adjacency=adjacency)
        d = DecMatching(mat, epsilon=eps)
        ref = RebuildDecMatching(mat, epsilon=eps)
        d_searches, ref_searches = _count_searches(d), _count_searches(ref)

        def agree(got: list[int], want: list[int]) -> None:
            assert got == want
            assert dec_matching_pairs(d) == dec_matching_pairs(ref)
            assert {l: d.rank[l] for l in d.present} == {l: ref.rank[l] for l in ref.present}
            assert _no_short_augmenting_path(d)

        outside = rng.permutation(nl).tolist()
        while outside:
            take = int(rng.integers(1, 41))
            batch, outside = outside[:take], outside[take:]
            got = d.batch_insert(batch)
            agree(got, ref.batch_insert(batch))
            audit = list(got)
            while audit:
                l = audit.pop()
                if l in d.match_of_l and rng.random() < 0.3:
                    got = d.delete(l)
                    agree(got, ref.delete(l))
                    audit += got
        dec_calls += d_searches[0]
        ref_calls += ref_searches[0]
    # the rebuild reruns every failed search; the skips are exercised
    assert dec_calls < ref_calls


def test_dec_checker_answers_as_a_fresh_build() -> None:
    rng = np.random.default_rng(37)
    compared = refused = 0
    for _ in range(10):
        nl = int(rng.integers(10, 61))
        nr = int(np.ceil(0.8 * nl))
        adjacency = [
            sorted(rng.choice(nr, size=int(rng.integers(1, 5)), replace=False).tolist())
            for _ in range(nl)
        ]
        mat = TransversalMatroid(num_right=nr, adjacency=adjacency)
        d = DecMatching(mat, epsilon=float(rng.choice([0.1, 0.25, 0.5])))
        outside = rng.permutation(nl).tolist()
        while outside or d.present:
            if outside and (not d.present or rng.random() < 0.6):
                take = int(rng.integers(1, 9))
                batch, outside = outside[:take], outside[take:]
                d.batch_insert(batch)
            else:
                d.delete(int(rng.choice(sorted(d.present))))
            seeded = d.checker()
            assert seeded.match_left == d.match_of_l
            assert seeded.match_right == d.match_of_r
            fresh = mat.checker(d.basis())
            # one seeded checker answers a whole run of tests, as the
            # top-off asks them
            for l in range(nl):
                if l not in seeded.match_left:
                    assert seeded.test(l) == fresh.test(l)
                    compared += 1
                    refused += not fresh.test(l)
    assert compared > 0 and refused > 0


def test_dec_a_rematch_drops_the_failed_searches_that_saw_it() -> None:
    # right vertices B=0, D=1, E=2, C=3, A=4; at eps = 0.5 a search expands
    # three layers.  The first batch leaves A's search failed after
    # expanding A, B and D.  The second batch's path from C rematches l2 to
    # C, which puts C in reach of A's next search, and the third batch gives
    # C a new free neighbour: a 5-edge path A-l1-B-l2-C-l_new that only a
    # record dropped at the rematch lets A's search find
    adjacency = [[0, 4], [0, 1, 3], [1, 2], [2], [3]]
    mat = TransversalMatroid(num_right=5, adjacency=adjacency)
    d = DecMatching(mat, epsilon=0.5)
    ref = RebuildDecMatching(mat, epsilon=0.5)
    for batch in ([0, 1, 2], [3], [4]):
        assert d.batch_insert(batch) == ref.batch_insert(batch)
        assert dec_matching_pairs(d) == dec_matching_pairs(ref)
        assert _no_short_augmenting_path(d)
    assert d.match_of_r[4] == 0


def test_matching_structures_are_sized_by_the_right_vertices_they_touch() -> None:
    # the n=30 generated graph, 24 right vertices, declared among 20,000:
    # state for every declared right vertex would be megabytes.  Each
    # structure also finds the matching it finds at the tight declaration
    sparse = families.sparse_transversal(20_000).matroid
    adjacency = sparse.adjacency
    tight = TransversalMatroid(num_right=1 + max(map(max, adjacency)), adjacency=adjacency)
    weights = dict(enumerate(families.cyclic_weights(sparse.n)))

    def dec(mat):
        d = DecMatching(mat, epsilon=0.25)
        d.batch_insert(range(mat.n))
        return d.match_of_l

    def stable(mat):
        return LStableMatching(mat, weights, epsilon=0.25).match_of_l

    for build in (dec, stable):
        tracemalloc.start()
        try:
            got = build(sparse)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (build.__name__, peak)
        assert got == build(tight)
