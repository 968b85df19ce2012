from __future__ import annotations

import inspect
import itertools
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import families
from matsub.cli import main
from matsub.instances import (
    GraphicMatroid,
    Instance,
    LaminarMatroid,
    TransversalChecker,
    TransversalMatroid,
    generate_instance,
    stream_rng,
)
from matsub.optimizer import run_pipeline
from reference import DoubleSearchTransversalChecker, path_walk_is_independent


def test_laminar_validation() -> None:
    with pytest.raises(ValueError):
        LaminarMatroid(parents=[-1, -1], capacities=[1, 1], element_nodes=[0])
    with pytest.raises(ValueError):
        LaminarMatroid(parents=[1, 0], capacities=[1, 1], element_nodes=[1])
    with pytest.raises(ValueError):  # element on an internal node
        LaminarMatroid(parents=[-1, 0], capacities=[1, 1], element_nodes=[0])
    with pytest.raises(ValueError):  # duplicate element leaves
        LaminarMatroid(parents=[-1, 0], capacities=[2, 1], element_nodes=[1, 1])
    for parents in ([-1, 1], [-1, 2, 1], [-1, 0, 3, 4, 2]):
        with pytest.raises(ValueError, match="parent pointers contain a cycle"):
            LaminarMatroid(parents=parents, capacities=[1] * len(parents), element_nodes=[])


def test_graphic_validation() -> None:
    with pytest.raises(ValueError):
        GraphicMatroid(2, [(0, 3)])


def test_transversal_validation() -> None:
    with pytest.raises(ValueError):
        TransversalMatroid(2, [[0, 2]])


def _brute_rank(matroid) -> int:
    n = matroid.n
    best = 0
    for k in range(n, 0, -1):
        for combo in itertools.combinations(range(n), k):
            if matroid.is_independent(combo):
                return k
    return best


def test_rank_matches_brute_force() -> None:
    rng = np.random.default_rng(41)
    for kind in ("laminar", "graphic", "transversal"):
        for _ in range(6):
            seed = int(rng.integers(0, 2**31))
            inst = generate_instance(kind, "additive", n=int(rng.integers(3, 9)), seed=seed)
            assert inst.matroid.rank() == _brute_rank(inst.matroid)


MATROID_CLASSES = (LaminarMatroid, GraphicMatroid, TransversalMatroid)


def test_rank_is_a_plain_method_of_each_class() -> None:
    # a layer tracer swaps vars(cls)["rank"] for a timing wrapper
    for cls in MATROID_CLASSES:
        assert inspect.isfunction(vars(cls)["rank"])


def test_kept_rank_equals_a_fresh_matroids_rank() -> None:
    for kind in ("laminar", "graphic", "transversal"):
        for seed in range(5):
            inst = generate_instance(kind, "additive", n=10 + 7 * seed, seed=60 + seed)
            first = inst.matroid.rank()
            assert inst.matroid.rank() == first
            fresh = Instance.from_json(inst.to_json()).matroid
            assert fresh.rank() == first


@pytest.mark.parametrize("kind", ["laminar", "graphic", "transversal"])
def test_rank_is_computed_once_per_matroid(kind, tmp_path, monkeypatch) -> None:
    computed: list = []
    cls = type(generate_instance(kind, "coverage", n=2, seed=1).matroid)
    original = cls._compute_rank

    def counted(self):
        computed.append(self)
        return original(self)

    monkeypatch.setattr(cls, "_compute_rank", counted)
    path, out = str(tmp_path / "inst.json"), str(tmp_path / "out.json")
    assert main(["gen", "--matroid", kind, "--function", "coverage",
                 "--n", "40", "--seed", "3", "-o", path]) == 0
    # one run_pipeline call, then verify: two matroids, one rank each
    assert main(["run", path, "--seed", "5", "-o", out]) == 0
    assert main(["verify", path, out]) == 0
    assert len(computed) == 2 and computed[0] is not computed[1]


def test_checker_agrees_with_is_independent() -> None:
    rng = np.random.default_rng(43)
    for kind in ("laminar", "graphic", "transversal"):
        inst = generate_instance(kind, "additive", n=10, seed=61)
        mat = inst.matroid
        for _ in range(30):
            order = rng.permutation(mat.n)
            checker = mat.checker()
            held: list[int] = []
            for e in order:
                e = int(e)
                ok = checker.test(e)
                assert ok == mat.is_independent(held + [e])
                if ok:
                    checker.insert(e)
                    held.append(e)


def test_transversal_checker_matches_the_double_search() -> None:
    rng = np.random.default_rng(19)
    for seed in range(6):
        mat = generate_instance("transversal", "additive", n=40, seed=80 + seed).matroid
        one, two = TransversalChecker(mat), DoubleSearchTransversalChecker(mat)
        for e in rng.permutation(mat.n).tolist():
            ok = one.test(e)
            assert ok == two.test(e)
            if ok and rng.random() < 0.3:
                # a test of another element in between: the insert searches again
                other = int(rng.integers(mat.n))
                assert one.test(other) == two.test(other)
            if ok:
                one.insert(e)
                two.insert(e)
            assert one.match_right == two.match_right
        with pytest.raises(ValueError):
            one.insert(next(e for e in range(mat.n) if not one.test(e)))


def test_transversal_checker_searches_once_per_element() -> None:
    mat = generate_instance("transversal", "additive", n=200, seed=3).matroid
    basis = []
    probe = TransversalChecker(mat)
    for e in range(mat.n):
        if probe.test(e):
            probe.insert(e)
            basis.append(e)
    # each search looks up every right vertex it visits once
    one, two = TransversalChecker(mat), DoubleSearchTransversalChecker(mat)
    one.match_right, two.match_right = _ReadLog(), _ReadLog()
    for e in basis:
        assert one.test(e) and two.test(e)
        one.insert(e)
        two.insert(e)
    assert one.match_right == probe.match_right
    assert len(one.match_right.reads) > len(basis)
    assert 2 * len(one.match_right.reads) == len(two.match_right.reads)


def test_transversal_searches_run_deeper_than_the_recursion_limit(tmp_path) -> None:
    k = 1200
    assert k > sys.getrecursionlimit()
    instance = families.FAMILIES["chain"](k)
    assert instance.matroid.rank() == k
    result = run_pipeline(instance, epsilon=0.2, seed=1000)
    assert families.chain(k).is_independent(result.solution)
    path, out = str(tmp_path / "chain.json"), str(tmp_path / "chain-result.json")
    with open(path, "w") as fh:
        fh.write(instance.to_json())
    assert main(["run", path, "-o", out]) == 0
    assert main(["verify", path, out]) == 0


def _kuhn_size(mat: TransversalMatroid, lefts) -> int:
    """Size of the matching a Kuhn checker reaches inserting ``lefts`` in
    order, each one it can match."""
    checker = TransversalChecker(mat)
    for e in lefts:
        if checker.test(e):
            checker.insert(e)
    return len(checker.match_left)


def test_hopcroft_karp_agrees_with_the_kuhn_checker() -> None:
    # rank() and is_independent match by Hopcroft-Karp, order-free; the
    # checker's greedy insertion reaches a maximum matching too
    rng = np.random.default_rng(53)
    def neighbours(right: int) -> list[int]:
        degree = int(rng.integers(0, min(right, 4) + 1))
        return rng.choice(right, size=degree, replace=False).tolist()

    matroids = [
        TransversalMatroid(num_right=right, adjacency=[neighbours(right) for _ in range(n)])
        for n, right in zip(rng.integers(1, 30, size=300), rng.integers(1, 25, size=300))
    ] + [
        generate_instance("transversal", "additive", n=n, seed=seed).matroid
        for n in (40, 200)
        for seed in (5, 6)
    ]
    outcomes: Counter[bool] = Counter()
    for mat in matroids:
        assert mat.rank() == _kuhn_size(mat, range(mat.n))
        for _ in range(3):
            size = int(rng.integers(0, mat.n + 1))
            subset = rng.choice(mat.n, size=size, replace=False).tolist()
            independent = mat.is_independent(subset)
            assert independent == (_kuhn_size(mat, subset) == len(subset))
            outcomes[independent] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0
    # the chain, whose augmenting paths run past the recursion limit, and
    # the chain with one more left vertex on right 0
    k = 1200
    chain = families.chain(k)
    assert chain.rank() == k
    assert chain.is_independent(range(k)) and chain.is_independent(reversed(range(k)))
    longer = TransversalMatroid(num_right=k, adjacency=chain.adjacency + [[0]])
    assert longer.rank() == _kuhn_size(longer, range(k + 1)) == k
    assert not longer.is_independent(range(k + 1))
    assert longer.is_independent(range(1, k + 1))


def test_laminar_is_independent_matches_the_path_walk() -> None:
    rng = np.random.default_rng(29)
    matroids = [
        generate_instance("laminar", "additive", n=n, seed=seed, tree_depth=depth).matroid
        for n in (5, 20, 60)
        for seed in (1, 2)
        for depth in (None, 6)
    ] + [families.caterpillar(d) for d in (1, 2, 40, 300)]
    outcomes: Counter[bool] = Counter()
    for mat in matroids:
        for _ in range(40):
            size = int(rng.integers(0, mat.n + 1))
            subset = rng.choice(mat.n, size=size, replace=False).tolist()
            independent = mat.is_independent(subset)
            assert independent == path_walk_is_independent(mat, subset)
            outcomes[independent] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


class _ReadLog(dict):
    """A matching that logs the right vertices a search looks up."""

    def __init__(self) -> None:
        super().__init__()
        self.reads: list[int] = []

    def get(self, r, default=None):
        self.reads.append(r)
        return super().get(r, default)


def test_failed_searches_visit_each_right_vertex_once() -> None:
    # Kuhn's rule: what a failed search visits reaches no free vertex, then
    # or after later inserts, so no failed search looks at it again.  The
    # second pass re-tests every rejected element: a run of failures with
    # no insert between them
    rng = np.random.default_rng(23)
    failures = inserts_between = 0
    for seed in range(4):
        mat = generate_instance("transversal", "additive", n=120, seed=40 + seed).matroid
        checker = TransversalChecker(mat)
        checker.match_right = log = _ReadLog()
        visits: Counter[int] = Counter()
        held: set[int] = set()
        order = rng.permutation(mat.n).tolist()
        for e in order + order[::-1]:
            if e in held:
                continue
            log.reads.clear()
            if checker.test(e):
                checker.insert(e)
                held.add(e)
                inserts_between += bool(visits)
            else:
                failures += 1
                visits.update(log.reads)
            # every dead vertex is matched and its owner's neighbours are dead
            for r in checker._dead:
                assert set(mat.adjacency[log[r]]) <= checker._dead
        assert max(visits.values()) == 1
    assert failures > 100 and inserts_between > 0


def test_checker_seeding() -> None:
    mat = LaminarMatroid(
        parents=[-1, 0, 0, 0], capacities=[2, 1, 1, 1], element_nodes=[1, 2, 3]
    )
    checker = mat.checker([0, 1])
    assert not checker.test(2)


def test_laminar_checker_refuses_a_member_and_a_dependent_base() -> None:
    mat = LaminarMatroid(parents=[-1, 0, 0], capacities=[2, 1, 1], element_nodes=[1, 2])
    checker = mat.checker([0])
    assert not checker.test(0)
    assert checker.test(1)
    for base in ([0, 0], [0, 0, 1]):
        with pytest.raises(ValueError, match="base set is not independent"):
            mat.checker(base)
    tight = LaminarMatroid(parents=[-1, 0, 0], capacities=[1, 1, 1], element_nodes=[1, 2])
    with pytest.raises(ValueError, match="base set is not independent"):
        tight.checker([0, 1])
    assert mat.checker([0, 1]).counts == [2, 1, 1]
    # a root of capacity 2 holding element 0 alone: only membership says no
    roomy = LaminarMatroid(parents=[-1], capacities=[2], element_nodes=[0])
    assert not roomy.checker([0]).test(0)
    with pytest.raises(ValueError, match="base set is not independent"):
        roomy.checker([0, 0])


def test_graphic_checker_refuses_a_member_and_a_dependent_base() -> None:
    mat = GraphicMatroid(num_vertices=3, edges=[(0, 1), (1, 2), (0, 2)])
    checker = mat.checker([0])
    assert not checker.test(0)
    with pytest.raises(ValueError):
        checker.insert(0)
    for base in ([0, 0], [0, 1, 2]):
        with pytest.raises(ValueError, match="base set is not independent"):
            mat.checker(base)


def test_transversal_checker_refuses_a_member_and_a_dependent_base() -> None:
    mat = TransversalMatroid(num_right=2, adjacency=[[0, 1]])
    checker = mat.checker([0])
    assert not checker.test(0)
    with pytest.raises(ValueError, match="break independence"):
        checker.insert(0)
    assert len(checker.match_right) == 1
    with pytest.raises(ValueError, match="base set is not independent"):
        mat.checker([0, 0])
    crowded = TransversalMatroid(num_right=1, adjacency=[[0], [0]])
    with pytest.raises(ValueError, match="base set is not independent"):
        crowded.checker([0, 1])


@st.composite
def _laminar(draw) -> LaminarMatroid:
    # inner nodes first (node 0 the root), then one leaf per element under
    # an inner node; any capacity may be 0
    inner = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    parents = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, inner)]
    parents += draw(st.lists(st.integers(0, inner - 1), min_size=n, max_size=n))
    capacities = draw(st.lists(st.integers(0, 3), min_size=inner + n, max_size=inner + n))
    return LaminarMatroid(
        parents=parents, capacities=capacities, element_nodes=list(range(inner, inner + n))
    )


@st.composite
def _graphic(draw) -> GraphicMatroid:
    # few vertices, so parallel edges and self-loops are common
    num_vertices = draw(st.integers(1, 5))
    vertex = st.integers(0, num_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=10))
    return GraphicMatroid(num_vertices=num_vertices, edges=edges)


@st.composite
def _transversal(draw) -> TransversalMatroid:
    num_right = draw(st.integers(1, 5))
    right = st.lists(st.integers(0, num_right - 1), max_size=3)
    adjacency = draw(st.lists(right, min_size=1, max_size=10))
    return TransversalMatroid(num_right=num_right, adjacency=adjacency)


DRAWN_MATROIDS = {"laminar": _laminar(), "graphic": _graphic(), "transversal": _transversal()}


@pytest.mark.parametrize("kind", sorted(DRAWN_MATROIDS))
@settings(deadline=None, derandomize=True, max_examples=150)
@given(data=st.data())
def test_checker_answers_is_independent_at_every_step(kind, data) -> None:
    # test-then-insert along a random order, from empty or from a frozen
    # base; at every step every element is asked, members included, so
    # failed transversal searches grow the dead set later searches skip
    mat = data.draw(DRAWN_MATROIDS[kind])
    order = data.draw(st.permutations(range(mat.n)))
    members: list[int] = []
    for e in data.draw(st.lists(st.integers(0, mat.n - 1), max_size=mat.n)):
        if e not in members and mat.is_independent(members + [e]):
            members.append(e)
    checker = mat.checker(members)
    for e in order:
        for x in range(mat.n):
            want = x not in members and mat.is_independent(members + [x])
            assert checker.test(x) == want, (x, members)
        if checker.test(e):
            checker.insert(e)
            members.append(e)


def test_generation_deterministic() -> None:
    for kind in ("laminar", "graphic", "transversal"):
        for obj in ("coverage", "facility", "additive"):
            a = generate_instance(kind, obj, n=12, seed=99).to_json()
            b = generate_instance(kind, obj, n=12, seed=99).to_json()
            assert a == b
            c = generate_instance(kind, obj, n=12, seed=100).to_json()
            assert a != c


def test_json_roundtrip() -> None:
    for kind in ("laminar", "graphic", "transversal"):
        for obj in ("coverage", "facility", "additive"):
            inst = generate_instance(kind, obj, n=9, seed=7)
            again = Instance.from_json(inst.to_json())
            assert again.to_json() == inst.to_json()
            assert again.matroid.kind == kind
            assert again.n == inst.n


def test_from_json_rejects_bad_version() -> None:
    inst = generate_instance("laminar", "additive", n=4, seed=1)
    text = inst.to_json().replace('"version": 1', '"version": 9')
    with pytest.raises(ValueError):
        Instance.from_json(text)


def test_generated_rank_positive() -> None:
    for kind in ("laminar", "graphic", "transversal"):
        for n in (4, 20, 50):
            inst = generate_instance(kind, "coverage", n=n, seed=5)
            assert inst.n == n
            assert inst.matroid.rank() >= 1


def test_stream_rng_separation() -> None:
    a = stream_rng(123, 0).random(4)
    b = stream_rng(123, 1).random(4)
    c = stream_rng(123, 0).random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("density", [float("nan"), float("inf"), 0.0, -1.0])
def test_graphic_density_must_be_positive_and_finite(density, tmp_path, capsys) -> None:
    with pytest.raises(ValueError, match="density"):
        generate_instance("graphic", "additive", n=10, seed=1, density=density)
    out = str(tmp_path / "x.json")
    assert main([
        "gen", "--matroid", "graphic", "--function", "additive",
        "--n", "10", "--seed", "1", "--density", str(density), "-o", out,
    ]) == 1
    assert "density" in capsys.readouterr().err
    # finite densities still size the vertex set as before
    for finite in (0.5, 3.0):
        mat = generate_instance("graphic", "additive", n=10, seed=1, density=finite).matroid
        assert mat.num_vertices == max(2, int(np.ceil(10 / finite)) + 1)
