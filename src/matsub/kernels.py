"""Set-function evaluation kernels over batches of sampled subsets.

The sampling phases of the optimizer evaluate an objective on hundreds of
random subsets per marginal estimate.  That work is dense array arithmetic and
dominates end-to-end runtime.  The kernels hold no state: anything derived
from an objective's data, such as the coverage incidence matrix or the
facility similarity ranks, is built and owned by the oracle that passes it
in, and the per-row statistics are kept by the oracle's round state
(``objectives.RoundState``), the only place that puts these steps together.

Subset batches are ``(s, n)`` uint8 matrices, one row per sampled set.  Ground
sets use element ids ``0..n-1`` throughout.  Each objective has two steps:
per-row statistics of the batch, then pricing from a summary of them.  Cost
per call, for ``q`` queried elements:

- ``coverage_counts``: ``O(s·m·universe)`` time and
  ``O(s·universe + m·(s + universe))`` memory for the ``m`` elements some
  row holds; a round's first build, over an empty lower layer, multiplies
  nothing.
- ``coverage_price``: reads the round state's ``O(universe)`` summary, the
  uncovered weight per item and the critical items (those at count 1 in
  some row).  Elements no row holds cost ``O(sum of |cover(e)|)`` time and
  memory, and nothing when no row leaves an item uncovered.  Held elements
  go 64 at a time: ``O(sum of |cover(e)|)`` for a block whose covers share
  no critical item, else ``O(universe + u·(s + 64·h))`` time and
  ``O(universe + u·s)`` memory, for the ``u`` critical items their covers
  share and the ``h`` rows that hold one of them.
- ``row_top2``: ``O(s·n·clients)`` time, ``O(s·clients)`` memory, once
  per round, to build the round state; a basis that only grows never
  rebuilds a row.
- ``similarity_ranks``: ``O(n·clients·log n)`` time and ``O(n·clients)``
  memory, once per oracle, which keeps the table.
- ``facility_summary``: ``O(clients·(s·log s + n))`` time,
  ``O(clients·(s + n))`` memory.
- ``facility_price``: ``O(q·clients)`` time and memory, gathers at each
  queried element's similarity ranks.

A round state also prices one element without a summary
(``RoundState.price``), straight from its statistics:

- coverage: ``O(|cover(e)|)`` time when no item of ``e``'s is at count 1
  in any row, else ``O(s + |cover(e)|·(1 + h_e))`` for the ``h_e`` rows
  that hold ``e``, integer hit counts over ``e``'s items;
- facility: no sort; ``O(s·clients)`` time the first time an element is
  priced in a round, then ``O(k·clients)`` for the ``k`` rows a basis
  change touched since its last price, with ``O(s)`` row sums kept per
  priced element;
- additive: ``O(1)``.

No kernel builds an array whose size grows as ``s·n·clients``, and
coverage pricing builds none of ``s·universe`` floats.  A round state keeps
the statistics across basis changes (``push_top2`` adds a facility member;
coverage keeps, per item, its count-0 and count-1 rows' numbers beside the
cover counts) and values its rows from them: the rows' covered weight, or
the sum of each row's top-1 similarities.
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
    """How many members of each row cover each item, ``(s, universe)``
    float32.  Only the columns some row holds are multiplied, so a batch of
    empty rows costs nothing; their incidence rows are copied only when
    some column is left out.  The float32 sums of 0/1 terms are exact while
    every count, at most the row's size, stays below ``2**24``."""
    held = sets.any(axis=0)
    if not held.all():
        support = np.flatnonzero(held)
        sets, incidence = sets[:, support], incidence[support]
    return sets.astype(np.float32) @ incidence


def _cover_entries(indptr, indices, elems):
    """The CSR entries of the queried elements' covers: per entry, the
    position of its element in ``elems`` and its item."""
    starts = indptr[elems]
    sizes = indptr[elems + 1] - starts
    owner = np.repeat(np.arange(elems.shape[0]), sizes)
    at = np.arange(owner.shape[0]) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return owner, indices[at]


def coverage_price(uncovered, critical, counts, members, elems, indptr, indices, weights):
    # Removing e from a row uncovers item u of e's exactly when no other
    # member covers u there: the row lacks e and u's count is 0, or it holds
    # e and the count is 1 (``members`` marks the rows that hold e).  The
    # first term, summed over rows, is ``uncovered[u]``, so an element no
    # row holds costs |cover(e)|, and nothing when no row leaves an item
    # uncovered.  The second can be nonzero only at the ``critical`` items,
    # those at count 1 in some row.  It reads only the rows that hold a
    # queried element, at the critical items their covers share,
    # PRICE_BLOCK elements at a time, and a block that shares none is
    # skipped; its float32 products sum 0/1 terms, exactly.  The entries
    # left out add 0.0, so the sums are the same floats.
    if uncovered.any():
        owner, items = _cover_entries(indptr, indices, elems)
        out = np.bincount(owner, weights=uncovered[items], minlength=elems.shape[0])
    else:
        out = np.zeros(elems.shape[0])
    held = np.flatnonzero(members.any(axis=0))
    for lo in range(0, held.shape[0], PRICE_BLOCK):
        block = held[lo:lo + PRICE_BLOCK]
        owner, items = _cover_entries(indptr, indices, elems[block])
        keep = critical[items]
        if not keep.any():
            continue
        owner, items = owner[keep], items[keep]
        rows = np.flatnonzero(members[:, block].any(axis=1))
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


def similarity_ranks(sim):
    """Each client's similarities, with a zero appended as element ``n``,
    ranked.  ``rank[e, c]``, int32 ``(n + 1, clients)``, counts the entries
    of client ``c``'s column that lie strictly below entry ``e``.
    ``order[c, p]``, ``(clients, n + 1)``, is ``c·(n + 1) + e`` for the
    entry ``e`` at position ``p - 1`` of the column in ascending order
    (ties by element), and ``clients·(n + 1)`` at ``p = 0``."""
    n, clients = sim.shape
    ext = np.zeros((n + 1, clients))
    ext[:n] = sim
    ascending = np.argsort(ext, axis=0, kind="stable")
    ext.sort(axis=0)
    # an entry ranks as the first entry equal to it in ascending order
    first = np.ones(ext.shape, dtype=bool)
    np.not_equal(ext[1:], ext[:-1], out=first[1:])
    del ext
    at = np.where(first, np.arange(n + 1, dtype=np.int32)[:, None], np.int32(0))
    np.maximum.accumulate(at, axis=0, out=at)
    rank = np.empty(at.shape, dtype=np.int32)
    np.put_along_axis(rank, ascending, at, axis=0)
    order = np.empty((clients, n + 1), dtype=np.intp)
    order[:, 0] = clients * (n + 1)
    order[:, 1:] = ascending[:-1].T
    order[:, 1:] += np.arange(clients)[:, None] * (n + 1)
    return rank, order


def facility_summary(top1, arg1, top2, ranks):
    """What pricing reads of the top-2 statistics: the prefix sums of each
    client's top1 column sorted over rows; ``below[c, k]``, the rows whose
    top-1 for client ``c`` ranks below ``k`` among ``ranks`` (the oracle's
    :func:`similarity_ranks`); and per element the sum of ``top1 - top2``
    over the ``(row, client)`` pairs it tops (entry ``n`` collects the pairs
    no member tops)."""
    rank, order = ranks
    s, clients = top1.shape
    width = rank.shape[0]
    prefix = np.zeros((clients, s + 1))
    np.cumsum(np.sort(top1.T, axis=1), axis=1, out=prefix[:, 1:])
    # top1 is the similarity of its argmax, so it ranks as the argmax does:
    # rows per (client, argmax), read in ascending order and summed
    keys = (arg1 + np.arange(clients) * width).ravel()
    below = np.bincount(keys, minlength=clients * width + 1)[order]
    np.cumsum(below, axis=1, out=below)
    tops = np.bincount(arg1.ravel(), weights=(top1 - top2).ravel(), minlength=width)
    return prefix, below, tops


def facility_price(prefix, below, tops, elems, sim, ranks):
    # Without e a row's best similarity is top1, or top2 in the rows where e
    # is the best member.  Summing max(sim[e,c] - top1[r,c], 0) over rows
    # takes the rows whose top1 lies below sim[e,c], counted at e's rank, and
    # their prefix sum; the bincount over the argmax adds top1 - top2 in the
    # rows that e tops.  Gathers are flat and client-major, like ``above``,
    # so its sum adds the clients in order.
    above = np.ascontiguousarray(sim[elems].T)
    column = np.arange(above.shape[0])[:, None]
    at = np.empty(above.shape, dtype=np.intp)
    np.add(ranks[0][elems].T, column * below.shape[1], out=at)
    under = below.ravel()[at]
    np.add(under, column * prefix.shape[1], out=at)
    np.multiply(under, above, out=above)
    above -= prefix.ravel()[at]
    return (above.sum(axis=0) + tops[elems]) / (prefix.shape[1] - 1)


def active_backend() -> str:
    """Name of the kernel backend; the benchmark prints it with its
    environment.  Run records do not carry it."""
    return "numpy"
