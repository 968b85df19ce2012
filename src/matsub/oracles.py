"""Exact optimum by exhaustive search, the ``run --algorithm brute`` baseline.

Deliberately simple and slow: it shares no code with the optimizer and is
capped to small ground sets.
"""

from __future__ import annotations

from .core import SetFunction
from .instances import Matroid


# the largest ground set the exhaustive search takes
BRUTE_FORCE_LIMIT = 20


def brute_force_opt(f: SetFunction, matroid: Matroid) -> tuple[float, list[int]]:
    """Exact optimum of a monotone function over the independent sets.

    Depth-first search over independent sets only; monotonicity means only
    maximal ones need their value taken.  Refuses ground sets above
    ``BRUTE_FORCE_LIMIT``.
    """
    n = matroid.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_LIMIT} elements, got {n}")
    best_val = f.value(())
    best_set: list[int] = []

    def explore(start: int, chosen: list[int], checker) -> None:
        nonlocal best_val, best_set
        extended = False
        for e in range(start, n):
            if checker.test(e):
                extended = True
                checker.insert(e)
                chosen.append(e)
                explore(e + 1, chosen, checker)
                chosen.pop()
                checker = matroid.checker(chosen)
        # treat "no extension among e >= start" as a leaf; monotonicity makes
        # interior values redundant but evaluating leaves only keeps it cheap
        if not extended:
            val = f.value(chosen)
            if val > best_val + 1e-12 or (
                abs(val - best_val) <= 1e-12 and sorted(chosen) < best_set
            ):
                best_val = val
                best_set = sorted(chosen)

    explore(0, [], matroid.checker())
    return best_val, best_set
