"""The hand-built instance families, each defined once: shapes the generator
never emits, built deterministically from their sizes for the tests, the
golden records and CI.  ``FAMILIES`` names each instance, and the command
line writes one's JSON to stdout:

    python tests/families.py chain 1200 > chain.json
"""

from __future__ import annotations

import sys
from typing import Callable

import numpy as np

from matsub.instances import (
    GraphicMatroid, Instance, LaminarMatroid, Matroid, TransversalMatroid, generate_instance,
)


def heavy_item(matroid: Matroid) -> Instance:
    """Element ``e`` covers a shared heavy item 0 and a light item ``1 + e``
    of its own, so a basis weighs about rank times the optimum until the
    first freeze collapses the heavy item's marginals."""
    n = matroid.n
    return Instance(matroid=matroid, objective={
        "kind": "coverage",
        "covers": [[0, 1 + e] for e in range(n)],
        "universe_weights": [10.0] + [1e-4] * n,
    })


def cyclic_weights(n: int) -> list[float]:
    return [1.0 + (7 * e) % 13 for e in range(n)]


def _cyclic_additive(matroid: Matroid) -> Instance:
    objective = {"kind": "additive", "weights": cyclic_weights(matroid.n)}
    return Instance(matroid=matroid, objective=objective)


def wide_laminar(n: int, root_cap: int) -> LaminarMatroid:
    """``n`` capacity-1 leaves under one root; ``root_cap = 1`` is the
    rank-one matroid."""
    return LaminarMatroid(
        parents=[-1] + [0] * n,
        capacities=[root_cap] + [1] * n,
        element_nodes=list(range(1, n + 1)),
    )


def phase1_transversal(n: int, right: int) -> TransversalMatroid:
    """Left ``e`` adjacent to ``e mod right`` and ``(7e + 3) mod right``."""
    return TransversalMatroid(
        num_right=right, adjacency=[[e % right, (7 * e + 3) % right] for e in range(n)]
    )


def phase1_graphic(path: int, chords: int) -> GraphicMatroid:
    """A ``path``-edge path plus ``chords`` seeded random non-loop chords.

    Phase 1 needs about twice the laminar rank here: the contracted graph
    keeps one pick per vertex, and once chords close cycles two ends can
    pick the same edge, so its forest may hold about half a basis.  A
    1100-edge path with 200 chords never iterates the phase-1 loop.
    """
    rng = np.random.default_rng(0)
    edges = [(v, v + 1) for v in range(path)]
    while len(edges) < path + chords:
        u, v = (int(x) for x in rng.integers(0, path + 1, size=2))
        if u != v:
            edges.append((u, v))
    return GraphicMatroid(num_vertices=path + 1, edges=edges)


def chain(k: int) -> TransversalMatroid:
    """Left ``j`` adjacent to right ``j - 1`` and ``j``.  In id order the
    search for ``j`` goes down through every earlier left vertex before it
    takes its free right ``j``."""
    return TransversalMatroid(num_right=k, adjacency=[[j - 1, j] if j else [0] for j in range(k)])


def caterpillar(d: int) -> LaminarMatroid:
    """Spine node ``i`` holds elements ``i..d-1`` under capacity
    ``(d - i + 1) // 2``, and element ``i`` sits on a capacity-1 leaf under
    it: ``2d`` nodes, depth ``d``."""
    return LaminarMatroid(
        parents=[-1] + list(range(d - 1)) + list(range(d)),
        capacities=[(d - i + 1) // 2 for i in range(d)] + [1] * d,
        element_nodes=[d + i for i in range(d)],
    )


def sparse_transversal(right: int) -> Instance:
    """The ``n = 30`` generated transversal additive instance, whose graph
    touches 24 right vertices, declared over ``right`` of them."""
    inst = generate_instance("transversal", "additive", n=30, seed=1)
    matroid = TransversalMatroid(num_right=right, adjacency=inst.matroid.adjacency)
    return Instance(matroid=matroid, objective=inst.objective)


FAMILIES: dict[str, Callable[..., Instance]] = {
    "wide-laminar": lambda n, root_cap: heavy_item(wide_laminar(n, root_cap)),
    "phase1-transversal": lambda n, right: heavy_item(phase1_transversal(n, right)),
    "phase1-graphic": lambda path, chords: heavy_item(phase1_graphic(path, chords)),
    "chain": lambda k: _cyclic_additive(chain(k)),
    "caterpillar": lambda d: _cyclic_additive(caterpillar(d)),
    "sparse-transversal": sparse_transversal,
}

# by matroid kind, the size where phase 1 fires at the paper's constants:
# rank past the bound 50 / eps1, which is 1000 at eps = 0.2
PHASE1: dict[str, Callable[[], Instance]] = {
    "laminar": lambda: FAMILIES["wide-laminar"](1500, 1100),
    "transversal": lambda: FAMILIES["phase1-transversal"](1500, 1100),
    "graphic": lambda: FAMILIES["phase1-graphic"](2200, 400),
}


if __name__ == "__main__":
    name, *sizes = sys.argv[1:]
    sys.stdout.write(FAMILIES[name](*map(int, sizes)).to_json())
