"""Batched set-function evaluation kernels.

The sampling phases of the optimizer evaluate an objective on hundreds of
random subsets per marginal estimate.  That work is dense array arithmetic and
dominates end-to-end runtime, so each objective has one numpy kernel per
batch entry point.  The kernels hold no state: anything derived from an
objective's data, such as the coverage incidence matrix, is built and owned
by the oracle that passes it in.

Subset batches are ``(s, n)`` uint8 matrices, one row per sampled set.  Ground
sets use element ids ``0..n-1`` throughout.  Cost per call, for ``q`` queried
elements:

- ``coverage_values``: ``O(s·n·universe)`` time, ``O(s·universe)`` memory.
- ``coverage_marginal_means``: ``O(s·(n + q)·universe)`` time,
  ``O((s + q)·universe + s·q)`` memory.
- ``facility_values``: ``O(s·n·clients)`` time, ``O(s·clients)`` memory.
- ``facility_marginal_means``: ``O(s·n·clients + (s + q)·clients·log s)``
  time, ``O((s + q)·clients)`` memory.

No kernel builds an array whose size grows as ``s·n·clients``.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# coverage objectives: element e covers the universe items in row e of the
# dense 0/1 ``(n, universe)`` incidence matrix, f(S) = total weight of items
# covered by S.

def coverage_values(sets, incidence, weights):
    covered = sets.astype(np.float64) @ incidence > 0.5
    return covered @ weights


def coverage_marginal_means(sets, elems, incidence, weights):
    # Removing e from a row uncovers item u of e's exactly when no other
    # member covers u: u is uncovered in the row already, or e is its only
    # cover there.  Both are counted for all queried elements at once.
    counts = sets.astype(np.float64) @ incidence
    uncovered = (counts == 0).sum(axis=0) * weights
    sole = np.multiply(counts == 1, weights, out=counts)
    covers = incidence[elems]
    only_e = ((sole @ covers.T) * sets[:, elems]).sum(axis=0)
    return (covers @ uncovered + only_e) / sets.shape[0]


# ---------------------------------------------------------------------------
# facility-location objectives: similarity matrix sim (n clients columns),
# f(S) = sum over clients of the best similarity among selected elements.

def _row_top2(sets, sim):
    """Best and second-best similarity per ``(row, client)`` over the row's
    members, 0 where fewer exist, plus the member holding the best (``n``
    where no member is positive), in one pass over the elements."""
    n = sim.shape[0]
    shape = (sets.shape[0], sim.shape[1])
    top1 = np.zeros(shape)
    top2 = np.zeros(shape)
    arg1 = np.full(shape, n, dtype=np.intp)
    for j in np.flatnonzero(sets.any(axis=0)):
        rows = np.flatnonzero(sets[:, j])
        v = sim[j]
        t1 = top1[rows]
        top2[rows] = np.maximum(top2[rows], np.minimum(t1, v))
        top1[rows] = np.maximum(t1, v)
        arg1[rows] = np.where(v > t1, j, arg1[rows])
    return top1, arg1, top2


def facility_values(sets, sim):
    top1, _, _ = _row_top2(sets, sim)
    return top1.sum(axis=1)


def facility_marginal_means(sets, elems, sim):
    # Without e a row's best similarity is top1, or top2 in the rows where e
    # is the best member.  Summing max(sim[e,c] - top1[r,c], 0) over rows
    # takes one searchsorted per client on the sorted top1 column; a bincount
    # over the argmax adds top1 - top2 in the rows that e itself tops.
    s, n = sets.shape
    top1, arg1, top2 = _row_top2(sets, sim)
    ranked = np.sort(top1.T, axis=1)
    prefix = np.zeros((ranked.shape[0], s + 1))
    np.cumsum(ranked, axis=1, out=prefix[:, 1:])
    query = np.ascontiguousarray(sim[elems].T)
    below = np.empty(query.shape, dtype=np.intp)
    for c in range(ranked.shape[0]):
        below[c] = np.searchsorted(ranked[c], query[c])
    above = below * query - np.take_along_axis(prefix, below, axis=1)
    tops = np.bincount(arg1.ravel(), weights=(top1 - top2).ravel(), minlength=n + 1)
    return (above.sum(axis=0) + tops[elems]) / s


def active_backend() -> str:
    """Name of the kernel backend, echoed into run records."""
    return "numpy"
