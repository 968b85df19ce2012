"""A fixed reference workload that measures how fast the machine is right now.

On a shared machine the speed of one core swings by tens of percent over
seconds to minutes, so raw solve times from separate runs are not
comparable.  The loop below uses none of ``matsub``.  It does the same kinds
of work a solve does: pure-Python graph search over dicts and sets, numpy
gathers, a small BLAS product and a sort along one axis of a tensor.  Its
arrays take a few MB, so it barely moves the process's peak RSS.  Timed
between the solves, it gives solve times in multiples of its own time,
which a change to ``matsub`` cannot move.  Each pass is timed on both the
wall clock and the process CPU clock, so that wall time is divided by wall
time and CPU time by CPU time."""

from __future__ import annotations

import random
import time

import numpy as np


class Calibration:
    """One pass of the reference workload; call it to time one pass."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        picks = random.Random(12345)
        self.adjacency = [picks.sample(range(240), picks.randint(1, 4)) for _ in range(300)]
        self.counts = rng.random((205, 600))
        self.columns = [rng.choice(600, 150, replace=False) for _ in range(100)]
        self.left = rng.random((205, 300))
        self.right = rng.random((300, 900))
        self.tensor = rng.random((8, 120, 240))

    def _matching(self) -> int:
        match: dict[int, int] = {}

        def augment(e: int, seen: set[int]) -> bool:
            for r in self.adjacency[e]:
                if r in seen:
                    continue
                seen.add(r)
                owner = match.get(r)
                if owner is None or augment(owner, seen):
                    match[r] = e
                    return True
            return False

        return sum(augment(e, set()) for e in range(len(self.adjacency)))

    def __call__(self) -> tuple[float, float]:
        """Wall and process CPU seconds of one pass."""
        t0 = time.perf_counter()
        c0 = time.process_time()
        for _ in range(25):
            self._matching()
        for cols in self.columns:
            float(((self.counts[:, cols] < 0.5) * cols).sum())
        for _ in range(8):
            self.left @ self.right
        for _ in range(12):
            np.argsort(self.tensor, axis=1)
        return time.perf_counter() - t0, time.process_time() - c0
