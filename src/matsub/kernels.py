"""Set-function evaluation kernels over batches of sampled subsets.

The sampling phases of the optimizer evaluate an objective on hundreds of
random subsets per marginal estimate.  That work is dense array arithmetic and
dominates end-to-end runtime.  The kernels hold no state: anything derived
from an objective's data, such as the coverage incidence matrix, is built and
owned by the oracle that passes it in, and the per-row statistics are kept
by the oracle's round state (``objectives.RoundState``), the only place that
puts these steps together.

Subset batches are ``(s, n)`` uint8 matrices, one row per sampled set.  Ground
sets use element ids ``0..n-1`` throughout.  Each objective has two steps:
per-row statistics of the batch, then pricing from a summary of them.  Cost
per call, for ``q`` queried elements:

- ``coverage_counts``: ``O(s·n·universe)`` time, ``O(s·universe)`` memory.
- ``coverage_price``: reads the round state's per-item uncovered weights,
  its ``O(universe)`` summary.  Elements no row holds cost
  ``O(sum of |cover(e)|)`` time and memory.  Held elements go 64 at a time:
  ``O(universe + u·(s + 64·h))`` time and ``O(universe + u·s)`` memory per
  block, for the ``u`` items their covers share and the ``h`` rows that
  hold one of them.
- ``row_top2``: ``O(s·n·clients)`` time, ``O(s·clients)`` memory.
- ``facility_summary``: ``O(s·clients·log s)`` time, ``O(s·clients)``
  memory.
- ``facility_price``: ``O(q·clients·log s)`` time, ``O(q·clients)`` memory.

A round state also prices one element without a summary
(``RoundState.price``), straight from its statistics:

- coverage: ``O(s + |cover(e)|·(1 + h_e))`` time for the ``h_e`` rows that
  hold ``e``, integer hit counts over ``e``'s items;
- facility: no sort; ``O(s·clients)`` time the first time an element is
  priced in a round, then ``O(k·clients)`` for the ``k`` rows a basis
  change touched since its last price, with ``O(s)`` row sums kept per
  priced element;
- additive: ``O(1)``.

No kernel builds an array whose size grows as ``s·n·clients``, and
coverage pricing builds none of ``s·universe`` floats.  A round state keeps
the statistics across basis changes (``push_top2`` adds a facility member;
coverage keeps its per-item uncovered-row counts beside the cover counts)
and values its rows from them: the rows' covered weight, or the sum of each
row's top-1 similarities.
"""

from __future__ import annotations

import numpy as np

# queried elements held by some row, priced together by ``coverage_price``
PRICE_BLOCK = 64


# ---------------------------------------------------------------------------
# coverage objectives: element e covers the universe items
# ``indices[indptr[e]:indptr[e + 1]]`` (row e of the dense 0/1
# ``(n, universe)`` incidence matrix), f(S) = total weight of items covered
# by S.

def coverage_counts(sets, incidence):
    """How many members of each row cover each item, ``(s, universe)``."""
    return sets.astype(np.float64) @ incidence


def _cover_entries(indptr, indices, elems):
    """The CSR entries of the queried elements' covers: per entry, the
    position of its element in ``elems`` and its item."""
    starts = indptr[elems]
    sizes = indptr[elems + 1] - starts
    owner = np.repeat(np.arange(elems.shape[0]), sizes)
    at = np.arange(owner.shape[0]) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return owner, indices[at]


def coverage_price(uncovered, counts, members, elems, indptr, indices, weights):
    # Removing e from a row uncovers item u of e's exactly when no other
    # member covers u there: the row lacks e and u's count is 0, or it holds
    # e and the count is 1 (``members`` marks the rows that hold e).  The
    # first term, summed over rows, is ``uncovered[u]``, so an element no
    # row holds costs |cover(e)|.  The second reads only the rows that hold
    # a queried element, at the items their covers share, PRICE_BLOCK
    # elements at a time; its float32 products sum 0/1 terms, exactly.
    owner, items = _cover_entries(indptr, indices, elems)
    out = np.bincount(owner, weights=uncovered[items], minlength=elems.shape[0])
    held = np.flatnonzero(members.any(axis=0))
    for lo in range(0, held.shape[0], PRICE_BLOCK):
        block = held[lo:lo + PRICE_BLOCK]
        rows = np.flatnonzero(members[:, block].any(axis=1))
        owner, items = _cover_entries(indptr, indices, elems[block])
        shared = np.zeros(counts.shape[0], dtype=bool)
        shared[items] = True
        slot = np.cumsum(shared) - 1
        # whole item rows first, then the h columns of their 0/1 flags:
        # O(u·s) scratch, but a one-step (u, h) gather of the counts is
        # slower while h is most of s, as it is on the dense generator
        sole = (counts[shared] == 1)[:, rows].astype(np.float32)
        per_item = sole @ members[np.ix_(rows, block)].astype(np.float32)
        pairs = per_item[slot[items], owner]
        out[block] += np.bincount(owner, weights=weights[items] * pairs, minlength=block.shape[0])
    return out / counts.shape[1]


# ---------------------------------------------------------------------------
# facility-location objectives: similarity matrix sim (n clients columns),
# f(S) = sum over clients of the best similarity among selected elements.

def row_top2(sets, sim):
    """Best and second-best similarity per ``(row, client)`` over the row's
    members, 0 where fewer exist, plus the member holding the best (``n``
    where no member is positive), in one pass over the elements."""
    n = sim.shape[0]
    shape = (sets.shape[0], sim.shape[1])
    top1 = np.zeros(shape)
    top2 = np.zeros(shape)
    arg1 = np.full(shape, n, dtype=np.intp)
    for j in np.flatnonzero(sets.any(axis=0)):
        push_top2(top1, arg1, top2, np.flatnonzero(sets[:, j]), j, sim[j])
    return top1, arg1, top2


def push_top2(top1, arg1, top2, rows, j, v):
    """Add member ``j``, with similarities ``v``, to the given rows."""
    t1 = top1[rows]
    top2[rows] = np.maximum(top2[rows], np.minimum(t1, v))
    top1[rows] = np.maximum(t1, v)
    arg1[rows] = np.where(v > t1, j, arg1[rows])


def facility_summary(top1, arg1, top2, n):
    """What pricing reads of the top-2 statistics: each client's top1 column
    sorted over rows, its prefix sums, and per element the sum of
    ``top1 - top2`` over the ``(row, client)`` pairs it tops (entry ``n``
    collects the pairs no member tops)."""
    ranked = np.sort(top1.T, axis=1)
    prefix = np.zeros((ranked.shape[0], ranked.shape[1] + 1))
    np.cumsum(ranked, axis=1, out=prefix[:, 1:])
    tops = np.bincount(arg1.ravel(), weights=(top1 - top2).ravel(), minlength=n + 1)
    return ranked, prefix, tops


def facility_price(ranked, prefix, tops, elems, sim):
    # Without e a row's best similarity is top1, or top2 in the rows where e
    # is the best member.  Summing max(sim[e,c] - top1[r,c], 0) over rows
    # takes one searchsorted per client on the sorted top1 column; the
    # bincount over the argmax adds top1 - top2 in the rows that e tops.
    query = np.ascontiguousarray(sim[elems].T)
    below = np.empty(query.shape, dtype=np.intp)
    for c in range(ranked.shape[0]):
        below[c] = ranked[c].searchsorted(query[c])
    above = below * query - np.take_along_axis(prefix, below, axis=1)
    return (above.sum(axis=0) + tops[elems]) / ranked.shape[1]


def active_backend() -> str:
    """Name of the kernel backend, echoed into run records."""
    return "numpy"
