"""Tests for basis merging and swap rounding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from matsub import rounding
from matsub.instances import (
    GraphicMatroid,
    LaminarMatroid,
    Matroid,
    TransversalChecker,
    TransversalMatroid,
    generate_instance,
)
from matsub.laminar import TopTreeLaminarBasis
from matsub.rounding import (
    _GraphicExchanger,
    _LaminarExchanger,
    _make_exchanger,
    _TransversalExchanger,
    ExchangeError,
    merge_bases,
    swap_round,
)
from reference import AdjacencyGraphicExchanger, SlowLaminarExchanger


class _Mix:
    """Bare fractional-solution stand-in: a list of (alpha, basis) pairs and
    the transversal certificates handed with the first of them (``None``
    for a basis handed none)."""

    def __init__(
        self,
        bases: list[tuple[float, list[int]]],
        matchings: list[dict[int, int] | None] = (),
    ) -> None:
        self.bases = bases
        self.matchings = list(matchings)


def _random_basis(
    matroid: Matroid, rng: np.random.Generator, start: list[int] | None = None
) -> list[int]:
    """A basis completed in random order from the independent set ``start``."""
    basis = list(start or [])
    checker = matroid.checker(basis)
    for e in rng.permutation(matroid.n):
        e = int(e)
        if checker.test(e):
            checker.insert(e)
            basis.append(e)
    return sorted(basis)


def _mixture_probability(e: int, bases: list[tuple[float, list[int]]]) -> float:
    total = sum(alpha for alpha, _ in bases)
    hit = sum(alpha for alpha, basis in bases if e in basis)
    return hit / total


# ---------------------------------------------------------------------------
# merge_bases


def test_merge_identical_bases_is_identity():
    mat = GraphicMatroid(num_vertices=4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    rng = np.random.default_rng(0)
    assert merge_bases(0.5, [0, 1, 2], 0.5, [0, 1, 2], mat, rng) == [0, 1, 2]


def test_rank_one_merge_is_a_fair_coin():
    # two singleton leaves under a capacity-one root
    mat = LaminarMatroid(parents=[-1, 0, 0], capacities=[1, 1, 1], element_nodes=[1, 2])
    rng = np.random.default_rng(7)
    trials = 10_000
    took_first = 0
    for _ in range(trials):
        merged = merge_bases(1.0, [0], 1.0, [1], mat, rng)
        assert merged in ([0], [1])
        took_first += merged == [0]
    # Binomial(10^4, 1/2): four sigma is 200
    assert abs(took_first - trials / 2) <= 4 * math.sqrt(trials / 4)


def test_merge_validates_arguments():
    mat = GraphicMatroid(num_vertices=3, edges=[(0, 1), (1, 2), (0, 2)])
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        merge_bases(0.0, [0, 1], 1.0, [1, 2], mat, rng)
    with pytest.raises(ValueError):
        merge_bases(1.0, [0], 1.0, [1, 2], mat, rng)
    with pytest.raises(ExchangeError):
        # not a basis: contains the full triangle
        merge_bases(1.0, [0, 1, 2], 1.0, [0, 1, 2], mat, rng)


@pytest.mark.parametrize("kind", ["laminar", "graphic", "transversal"])
def test_merge_outputs_bases_and_keeps_the_intersection(kind):
    rng = np.random.default_rng(11)
    for seed in range(12):
        inst = generate_instance(kind, "additive", n=int(rng.integers(6, 14)), seed=200 + seed)
        mat = inst.matroid
        b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
        merged = merge_bases(0.3, b1, 0.7, b2, mat, rng)
        assert len(merged) == mat.rank()
        assert mat.is_independent(merged)
        assert set(merged) <= set(b1) | set(b2)
        assert set(merged) >= set(b1) & set(b2)


def test_merge_marginals_match_the_mixture_law():
    mat = generate_instance("laminar", "additive", n=10, seed=31).matroid
    rng = np.random.default_rng(5)
    b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
    alpha1, alpha2 = 0.25, 0.75
    trials = 4000
    hits = {e: 0 for e in range(mat.n)}
    for _ in range(trials):
        for e in merge_bases(alpha1, b1, alpha2, b2, mat, rng):
            hits[e] += 1
    for e in range(mat.n):
        p = _mixture_probability(e, [(alpha1, b1), (alpha2, b2)])
        if p in (0.0, 1.0):
            assert hits[e] == p * trials
            continue
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits[e] / trials - p) <= 4 * sigma


# ---------------------------------------------------------------------------
# exchange partners


def test_symmetric_difference_of_two_has_a_unique_partner():
    mat = GraphicMatroid(num_vertices=3, edges=[(0, 1), (1, 2), (0, 2)])
    assert _make_exchanger(mat, [0, 1], [1, 2]).exchange(0) == 2


@pytest.mark.parametrize("kind", ["laminar", "graphic", "transversal"])
def test_exchanges_satisfy_both_basis_conditions(kind):
    rng = np.random.default_rng(17)
    for seed in range(10):
        mat = generate_instance(kind, "additive", n=int(rng.integers(6, 14)), seed=seed).matroid
        b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
        for i in sorted(set(b1) - set(b2)):
            j = _make_exchanger(mat, b1, b2).exchange(i)
            assert j in set(b2) - set(b1)
            assert mat.is_independent((set(b1) - {i}) | {j})
            assert mat.is_independent((set(b2) - {j}) | {i})


def test_transversal_partner_shares_the_alternating_component():
    rng = np.random.default_rng(23)
    for seed in range(8):
        mat = generate_instance("transversal", "additive", n=12, seed=40 + seed).matroid
        b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
        diff = sorted(set(b1) - set(b2))
        if not diff:
            continue
        m1 = {e: r for r, e in TransversalChecker(mat, b1).match_right.items()}
        m2 = {e: r for r, e in TransversalChecker(mat, b2).match_right.items()}
        # elements connected through shared right vertices of the two matchings
        i = diff[0]
        component = {i}
        frontier = [i]
        while frontier:
            e = frontier.pop()
            rights = {m.get(e) for m in (m1, m2)} - {None}
            for other in set(m1) | set(m2):
                if other not in component and rights & {m1.get(other), m2.get(other)}:
                    component.add(other)
                    frontier.append(other)
        assert _make_exchanger(mat, b1, b2).exchange(i) in component


def _base_pairs(kind: str, seeds: range, rng: np.random.Generator):
    """Random base pairs at n in {12, 45, 200}: unrelated ones, and ones
    that share a random part of the first (so there is much to contract)."""
    for n in (12, 45, 200):
        for seed in seeds:
            mat = generate_instance(kind, "additive", n=n, seed=seed).matroid
            b1 = _random_basis(mat, rng)
            kept = [e for e in b1 if rng.random() < 0.7]
            yield mat, b1, _random_basis(mat, rng)
            yield mat, b1, _random_basis(mat, rng, start=kept)


def _agrees_with_reference(ex, ref, rng: np.random.Generator) -> int:
    """Drive both exchangers through one merge; return the exchanges made."""
    made = 0
    for i in sorted(ex.set1 - ex.set2):
        j = ex.exchange(i)
        assert j == ref.exchange(i)
        for c in sorted(ex.set2 - ex.set1):
            assert ex.admits(i, c) == ref.admits(i, c), (i, c)
        move_first = bool(rng.integers(2))
        ex.apply(i, j, move_first)
        ref.apply(i, j, move_first)
        assert ex.set1 == ref.set1 and ex.set2 == ref.set2
        made += 1
    assert ex.set1 == ex.set2
    return made


def test_laminar_exchanger_agrees_across_structures():
    # the per-node-count partner against the tree-walking exchanger
    rng = np.random.default_rng(29)
    made = 0
    for mat, b1, b2 in _base_pairs("laminar", range(70, 75), rng):
        made += _agrees_with_reference(
            _LaminarExchanger(mat, b1, b2), SlowLaminarExchanger(mat, b1, b2), rng
        )
    assert made > 200


def test_graphic_exchanger_agrees_with_the_whole_forest_exchanger():
    rng = np.random.default_rng(31)
    made = 0
    for mat, b1, b2 in _base_pairs("graphic", range(80, 85), rng):
        made += _agrees_with_reference(
            _GraphicExchanger(mat, b1, b2), AdjacencyGraphicExchanger(mat, b1, b2), rng
        )
    assert made > 200


# ---------------------------------------------------------------------------
# exchange certificates

EXCHANGERS = {
    "laminar": _LaminarExchanger,
    "graphic": _GraphicExchanger,
    "transversal": _TransversalExchanger,
}


@pytest.mark.parametrize("kind", ["laminar", "graphic", "transversal"])
def test_exchange_certificates_agree_with_is_independent(kind):
    # every candidate partner, not only the chosen one, so that the checks
    # are seen rejecting as well as accepting; the transversal certificate
    # is the walk, so it certifies exactly the walk's partner and never a
    # side that is not independent
    rng = np.random.default_rng(37)
    seen: set[tuple[bool, bool]] = set()
    for seed in range(8):
        for n in (8, 20, 45):
            mat = generate_instance(kind, "additive", n=n, seed=300 + seed).matroid
            b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
            ex = _make_exchanger(mat, b1, b2)
            for i in sorted(ex.set1 - ex.set2):
                j = ex.exchange(i)
                for c in sorted(ex.set2 - ex.set1):
                    want = (
                        mat.is_independent((ex.set1 - {i}) | {c}),
                        mat.is_independent((ex.set2 - {c}) | {i}),
                    )
                    got = ex.admits(i, c)
                    if kind == "transversal":
                        assert got == ((True, True) if c == j else (False, False)), (seed, n, i, c)
                        assert want[0] or not got[0], (seed, n, i, c)
                        assert want[1] or not got[1], (seed, n, i, c)
                    else:
                        assert got == want, (seed, n, i, c)
                    seen.add(want)
                assert ex.admits(i, j) == (True, True)
                ex.apply(i, j, move_first=bool(rng.integers(2)))
                assert mat.is_independent(ex.set1) and mat.is_independent(ex.set2)
            assert ex.set1 == ex.set2
    # each side both accepted and rejected, alone and together
    assert len(seen) == 4


def test_transversal_check_refuses_tampered_paths():
    rng = np.random.default_rng(43)
    tampered = 0
    for seed in range(10):
        mat = generate_instance("transversal", "additive", n=20, seed=600 + seed).matroid
        ex = _TransversalExchanger(mat, _random_basis(mat, rng), _random_basis(mat, rng))
        for i in sorted(ex.set1 - ex.set2):
            j = ex.exchange(i)
            path = ex._certificate(True, i, j)
            assert ex._valid(ex.m1, ex.r1, path, j, i)
            # an edge that is not in the graph
            y, r = path[0]
            ex.adjacency = [list(a) for a in mat.adjacency]
            ex.adjacency[y].remove(r)
            assert not ex._valid(ex.m1, ex.r1, path, j, i)
            ex.adjacency = mat.adjacency
            # a path that stops before the vertex the leaving element frees
            if len(path) > 1:
                assert not ex._valid(ex.m1, ex.r1, path[:-1], j, i)
                tampered += 1
            # a path that skips a step, so one vertex is taken twice
            if len(path) > 2:
                assert not ex._valid(ex.m1, ex.r1, path[:1] + path[2:], j, i)
            # a path from another entering element, or from one already matched
            others = sorted(ex.set2 - ex.set1 - {j})
            if others:
                assert not ex._valid(ex.m1, ex.r1, path, others[0], i)
            if len(path) > 1:
                assert not ex._valid(ex.m1, ex.r1, path[1:], path[1][0], i)
            # a path for a different leaving element
            other = next(e for e in ex.set1 if e != i)
            assert not ex._valid(ex.m1, ex.r1, path, j, other)
            ex.apply(i, j, move_first=bool(rng.integers(2)))
    assert tampered > 0


def test_transversal_check_refuses_a_path_that_takes_a_vertex_twice():
    # 1 -> R0, 2 -> R1, 3 -> R2; the path 0-R0, 1-R1, 2-R0, 1-R2 passes every
    # step test yet would give R0 to both 0 and 2
    mat = TransversalMatroid(num_right=3, adjacency=[[0], [0, 1, 2], [0, 1], [2]])
    ex = _TransversalExchanger(mat, [1, 2, 3], [1, 2, 3])
    match, owner = {1: 0, 2: 1, 3: 2}, {0: 1, 1: 2, 2: 3}
    assert not ex._valid(match, owner, [(0, 0), (1, 1), (2, 0), (1, 2)], 0, 3)
    assert ex._valid(match, owner, [(0, 0), (1, 2)], 0, 3)


@pytest.mark.parametrize("kind", ["laminar", "graphic", "transversal"])
def test_merge_rejects_a_wrong_partner(kind, monkeypatch):
    rng = np.random.default_rng(41)
    cls = EXCHANGERS[kind]
    genuine = cls.exchange
    cases = 0
    for seed in range(12):
        mat = generate_instance(kind, "additive", n=20, seed=500 + seed).matroid
        b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
        # the first candidate that breaks either basis, if the first exchange has one
        i = min(set(b1) - set(b2), default=None)
        if i is None:
            continue
        bad = next(
            (
                c for c in sorted(set(b2) - set(b1))
                if not mat.is_independent((set(b1) - {i}) | {c})
                or not mat.is_independent((set(b2) - {c}) | {i})
            ),
            None,
        )
        if bad is None:
            continue
        cases += 1
        monkeypatch.setattr(cls, "exchange", lambda self, e, bad=bad: bad)
        with pytest.raises(ExchangeError):
            merge_bases(0.5, b1, 0.5, b2, mat, np.random.default_rng(0))
        # a partner outside B2 \\ B1 is refused before any certificate
        monkeypatch.setattr(cls, "exchange", lambda self, e: e)
        with pytest.raises(ExchangeError):
            merge_bases(0.5, b1, 0.5, b2, mat, np.random.default_rng(0))
        monkeypatch.setattr(cls, "exchange", genuine)
        assert mat.is_independent(merge_bases(0.5, b1, 0.5, b2, mat, np.random.default_rng(0)))
    assert cases >= 3


@pytest.mark.parametrize("kind", ["laminar", "graphic", "transversal"])
def test_merge_checks_its_output_in_full(kind, monkeypatch):
    # certificates that accept anything and a partner picked blindly from
    # B2 \\ B1: the bases still meet, so for graphic only the full check on
    # the merged output stands between a dependent set and the caller (the
    # laminar structure and the transversal matchings refuse on their own)
    cls = EXCHANGERS[kind]
    monkeypatch.setattr(cls, "admits", lambda self, i, j: (True, True))
    monkeypatch.setattr(cls, "exchange", lambda self, i: min(self.set2 - self.set1))
    rng = np.random.default_rng(47)
    refused = 0
    for seed in range(12):
        mat = generate_instance(kind, "additive", n=20, seed=700 + seed).matroid
        b1, b2 = _random_basis(mat, rng), _random_basis(mat, rng)
        try:
            merged = merge_bases(0.5, b1, 0.5, b2, mat, rng)
        except (ExchangeError, ValueError):
            refused += 1
            continue
        assert len(merged) == mat.rank() and mat.is_independent(merged)
    assert refused > 0


# ---------------------------------------------------------------------------
# swap_round


def test_single_and_duplicate_base_rounding_is_identity():
    mat = GraphicMatroid(num_vertices=4, edges=[(0, 1), (1, 2), (2, 3)])
    rng = np.random.default_rng(2)
    assert swap_round(_Mix([(1.0, [0, 1, 2])]), mat, rng) == [0, 1, 2]
    assert swap_round(_Mix([(0.5, [0, 1, 2]), (0.5, [0, 1, 2])]), mat, rng) == [0, 1, 2]
    with pytest.raises(ValueError):
        swap_round(_Mix([]), mat, rng)


def test_three_base_mix_preserves_marginals():
    mat = generate_instance("laminar", "additive", n=9, seed=53).matroid
    rng = np.random.default_rng(13)
    bases = [(0.2, _random_basis(mat, rng)) for _ in range(2)]
    bases.append((0.6, _random_basis(mat, rng)))
    trials = 4000
    hits = {e: 0 for e in range(mat.n)}
    for _ in range(trials):
        out = swap_round(_Mix(bases), mat, rng)
        assert mat.is_independent(out)
        for e in out:
            hits[e] += 1
    for e in range(mat.n):
        p = _mixture_probability(e, bases)
        if p in (0.0, 1.0):
            assert hits[e] == p * trials
            continue
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits[e] / trials - p) <= 4 * sigma


# ---------------------------------------------------------------------------
# work in proportion to the symmetric difference


class _Coinless:
    def random(self):
        raise AssertionError("a merge of equal bases drew a coin")


def _spy_checks(mat: Matroid, monkeypatch) -> list[frozenset[int]]:
    """Record the set of every full independence check on ``mat``: for a
    transversal set the sorted build of its certifying matching or the
    verification of one handed to it, and ``is_independent`` for the
    other kinds."""
    seen: list[frozenset[int]] = []
    if mat.kind == "transversal":
        genuine_checker = rounding.TransversalChecker
        genuine_verify = rounding._verify_matching

        def build(matroid, base):
            base = list(base)
            seen.append(frozenset(base))
            return genuine_checker(matroid, base)

        def verify(matroid, subset, matching, label):
            seen.append(frozenset(subset))
            return genuine_verify(matroid, subset, matching, label)

        monkeypatch.setattr(rounding, "TransversalChecker", build)
        monkeypatch.setattr(rounding, "_verify_matching", verify)
        return seen
    genuine = mat.is_independent

    def spy(subset):
        subset = frozenset(subset)
        seen.append(subset)
        return genuine(subset)

    monkeypatch.setattr(mat, "is_independent", spy)
    return seen


@pytest.mark.parametrize("kind", ["laminar", "graphic", "transversal"])
def test_merge_of_equal_bases_builds_no_exchanger_and_checks_once(kind, monkeypatch):
    mat = generate_instance(kind, "additive", n=30, seed=3).matroid
    basis = _random_basis(mat, np.random.default_rng(3))
    seen = _spy_checks(mat, monkeypatch)

    def no_exchanger(*args):
        raise AssertionError("a merge of equal bases built an exchanger")

    monkeypatch.setattr(rounding, "_make_exchanger", no_exchanger)
    assert merge_bases(0.4, basis, 0.6, list(reversed(basis)), mat, _Coinless()) == basis
    assert seen == [frozenset(basis)]


def _log_merges(monkeypatch) -> list[tuple[list[int], list[int], list[int]]]:
    """Record the inputs and output of every merge ``swap_round`` makes."""
    merges: list[tuple[list[int], list[int], list[int]]] = []
    genuine = rounding.merge_bases

    def logged(alpha1, b1, alpha2, b2, *args, **kwargs):
        out = genuine(alpha1, b1, alpha2, b2, *args, **kwargs)
        merges.append((b1, b2, out))
        return out

    # swap_round reaches merge_bases through the module global
    monkeypatch.setattr(rounding, "merge_bases", logged)
    return merges


@pytest.mark.parametrize("kind", ["laminar", "graphic", "transversal"])
def test_swap_round_checks_each_distinct_set_once(kind, monkeypatch):
    rng = np.random.default_rng(59)
    mat = generate_instance(kind, "additive", n=40, seed=9).matroid
    a, b, c = (_random_basis(mat, rng) for _ in range(3))
    merges = _log_merges(monkeypatch)
    seen = _spy_checks(mat, monkeypatch)
    mix = _Mix([(0.2, a), (0.1, b), (0.3, a), (0.1, a), (0.3, c)])
    out = swap_round(mix, mat, rng)
    assert len(merges) == 4 and merges[-1][2] == out
    distinct = {frozenset(s) for merge in merges for s in merge}
    assert len(seen) == len(set(seen)) == len(distinct)
    assert set(seen) == distinct


def _certificate(mat: TransversalMatroid, basis: list[int]) -> dict[int, int]:
    """Each element's right vertex in the sorted build of ``basis``."""
    return {e: r for r, e in TransversalChecker(mat, basis).match_right.items()}


def _swap_round_checks(handed: bool, monkeypatch) -> None:
    """Swap-round a five-basis mix of three transversal bases, handing
    certificates with the first two bases' rounds if ``handed``, and
    require one full check per distinct set, and a build only for the
    sets that came with no certificate."""
    rng = np.random.default_rng(71)
    mat = generate_instance("transversal", "additive", n=40, seed=9).matroid
    a, b, c = (_random_basis(mat, rng) for _ in range(3))
    mix = _Mix([(0.2, a), (0.1, b), (0.3, a), (0.1, c), (0.3, b)])
    if handed:
        cert_a, cert_b = _certificate(mat, a), _certificate(mat, b)
        mix.matchings = [cert_a, cert_b, cert_a, None, cert_b]
    merges = _log_merges(monkeypatch)
    seen = _spy_checks(mat, monkeypatch)
    built: list[frozenset[int]] = []
    genuine = TransversalChecker.__init__

    def counted(self, matroid, base=()):
        base = list(base)
        built.append(frozenset(base))
        genuine(self, matroid, base)

    monkeypatch.setattr(TransversalChecker, "__init__", counted)
    out = swap_round(mix, mat, rng)
    assert len(merges) == 4 and merges[-1][2] == out
    distinct = {frozenset(s) for merge in merges for s in merge}
    assert len(distinct) > 3
    assert len(seen) == len(set(seen)) == len(distinct) and set(seen) == distinct
    unhanded = [c] if handed else [a, b, c]
    assert sorted(map(sorted, built)) == sorted(unhanded)


def test_transversal_swap_round_matches_each_distinct_set_once(monkeypatch):
    # the exchangers read their matchings from the full checks, so no
    # TransversalChecker is built anywhere beyond one per input set; each
    # merge output is certified by its exchanger's first matching
    _swap_round_checks(False, monkeypatch)


def test_transversal_swap_round_builds_only_sets_handed_no_certificate(monkeypatch):
    # a round basis that comes with its own certificate is verified, not
    # built
    _swap_round_checks(True, monkeypatch)


def _forgeries(mat: TransversalMatroid, basis: list[int], other: list[int]):
    """Certificates of ``basis`` each broken one way, by name; ``other``
    is another basis of the same size."""
    genuine = _certificate(mat, basis)
    missing = dict(genuine)
    del missing[basis[0]]
    # a declared right vertex no element holds, over a pair that is not an
    # edge (at full rank every touched one is held)
    non_edge = dict(genuine)
    free = [r for r in range(mat.num_right) if r not in genuine.values()]
    e, r = next((e, r) for e in basis for r in free if r not in mat.adjacency[e])
    non_edge[e] = r
    # two elements that share a right vertex, the second given it too
    twice = dict(genuine)
    x, y = next(
        (x, y) for x in basis for y in basis
        if x != y and genuine[x] in mat.adjacency[y]
    )
    twice[y] = genuine[x]
    # each with the part of the message that names the check it fails
    return {
        "missing": (missing, "exactly its elements"),
        "non-edge": (non_edge, "edge not in the graph"),
        "twice": (twice, "right vertex twice"),
        "other-set": (_certificate(mat, other), "exactly its elements"),
    }


def test_a_forged_certificate_is_refused_before_any_coin():
    rng = np.random.default_rng(73)
    refused = 0
    for seed in range(6):
        mat = generate_instance("transversal", "additive", n=40, seed=20 + seed).matroid
        a, b, c = (_random_basis(mat, rng) for _ in range(3))
        if len({frozenset(a), frozenset(b), frozenset(c)}) < 3:
            continue
        bases = [(0.3, a), (0.3, b), (0.4, c)]
        genuine = [_certificate(mat, s) for s in (a, b, c)]
        for forged, message in _forgeries(mat, c, a).values():
            with pytest.raises(ExchangeError, match=message):
                swap_round(_Mix(bases, genuine[:2] + [forged]), mat, _Coinless())
            refused += 1
        out = swap_round(_Mix(bases, genuine), mat, rng)
        assert len(out) == mat.rank() and mat.is_independent(out)
    assert refused >= 16


def test_pipeline_swap_round_builds_no_checker_from_a_base(monkeypatch):
    # every round basis comes with its sweep's matching and every merge
    # output with its exchanger's, so swap rounding builds none
    from matsub import optimizer
    from matsub.optimizer import run_pipeline

    rounding_now = [False]
    builds: list[list[int]] = []
    genuine_init = TransversalChecker.__init__
    genuine_round = optimizer.swap_round

    def counted(self, matroid, base=()):
        base = list(base)
        if rounding_now[0] and base:
            builds.append(base)
        genuine_init(self, matroid, base)

    def marked(*args, **kwargs):
        rounding_now[0] = True
        try:
            return genuine_round(*args, **kwargs)
        finally:
            rounding_now[0] = False

    monkeypatch.setattr(TransversalChecker, "__init__", counted)
    monkeypatch.setattr(optimizer, "swap_round", marked)
    merges = _log_merges(monkeypatch)
    for objective, n in (("coverage", 200), ("facility", 60), ("additive", 300)):
        inst = generate_instance("transversal", objective, n=n, seed=1)
        result = run_pipeline(inst, epsilon=0.2, seed=1000)
        assert inst.matroid.is_independent(result.solution)
    assert any(set(b1) != set(b2) for b1, b2, _ in merges)
    assert builds == []


def test_laminar_swap_round_builds_no_top_tree(monkeypatch):
    def no_top_tree(self, matroid):
        raise AssertionError("swap rounding built a TopTreeLaminarBasis")

    monkeypatch.setattr(TopTreeLaminarBasis, "__init__", no_top_tree)
    rng = np.random.default_rng(61)
    mat = generate_instance("laminar", "additive", n=200, seed=13).matroid
    bases = [(0.25, _random_basis(mat, rng)) for _ in range(4)]
    out = swap_round(_Mix(bases), mat, rng)
    assert len(out) == mat.rank() and mat.is_independent(out)


def test_graphic_adjacency_holds_exactly_the_unresolved_difference():
    rng = np.random.default_rng(67)
    for mat, b1, b2 in _base_pairs("graphic", range(90, 93), rng):
        ex = _GraphicExchanger(mat, b1, b2)
        for i in sorted(ex.set1 - ex.set2) + [None]:
            if i is not None:
                ex.apply(i, ex.exchange(i), move_first=bool(rng.integers(2)))
            for adjacency, held in ((ex.adj1, ex.set1 - ex.set2), (ex.adj2, ex.set2 - ex.set1)):
                # each unresolved edge sits under the contracted vertex of each
                # end, in the matroid's touched-vertex numbering
                listed = {(x, e) for x, edges in adjacency.items() for e in edges}
                want = {(ex.uf.find(v), e) for e in held for v in mat.ends[e]}
                assert listed == want
