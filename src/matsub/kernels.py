"""Set-function evaluation kernels over batches of sampled subsets.

The sampling phases of the optimizer evaluate an objective on hundreds of
random subsets per marginal estimate.  That work is dense array arithmetic and
dominates end-to-end runtime.  The kernels hold no state: anything derived
from an objective's data, such as the coverage incidence matrix or the
facility similarity ranks, is built once per instance, shared by the
oracles built from it and passed in by them, and the per-row statistics
are kept by the oracle's round state (``objectives.RoundState``), the only
place that puts these steps together.

Subset batches are ``(s, n)`` uint8 matrices, one row per sampled set.  Ground
sets use element ids ``0..n-1`` throughout.  Each objective has two steps:
per-row statistics of the batch, then pricing from a summary of them.  Cost
per call, for ``q`` queried elements:

- ``coverage_counts``: ``O(s·m·universe)`` time and
  ``O(s·universe + m·(s + universe))`` memory for the ``m`` elements some
  row holds, item-major from one float32 product, kept as uint8 counts
  capped at 2 (``s·universe`` bytes; pricing and valuing tell only 0, 1
  and more apart); a round's first build, over an empty lower layer,
  calls it not at all and builds no incidence.
- ``coverage_price``: reads the round state's ``O(universe)`` summary, the
  uncovered weight per item and the critical items (those at count 1 in
  some row).  Elements no row holds cost ``O(sum of |cover(e)|)`` time and
  memory, and nothing when no row leaves an item uncovered.  Held elements
  go 64 at a time: ``O(sum of |cover(e)|)`` for a block whose covers share
  no critical item, else ``O(universe + u·(s + 64·h))`` time and
  ``O(universe + u·s)`` memory, for the ``u`` critical items their covers
  share and the ``h`` rows that hold one of them.  The round state reads
  the lower layer's columns of the ``q_held`` queried elements it holds
  somewhere, ``O(q + s·q_held)``, and none when no item is critical.
- ``row_top2``: ``O(nnz·clients)`` time for the ``nnz`` row memberships,
  one integer max/min pass over the clients of each, and ``O(s·clients)``
  scratch (two key arrays, int32 until ``(n + 1)**2`` passes ``2**31``),
  no row blocks, once per round, to build the round state; a basis that
  only grows never rebuilds a row.
- ``similarity_ranks``: ``O(n·clients·log n)`` time and ``O(n·clients)``
  memory, once per instance, whose oracles share the tables.
- ``class_histogram``: ``O(s·clients + n·clients)`` time and memory, once
  per round: the rows per top-1 value class and client, one ``bincount``
  of the classes ``row_top2`` decodes, and the products table, each count
  times its class value, which the round state then keeps at the classes
  an insert moves.
- ``class_cumsums``: ``O(n·clients)`` time, in place, on the first
  pricing after an insert: two prefix passes, over the counts and over the
  kept products, with no multiply.
- ``class_price``: ``O(q·clients)`` time and memory, gathers at each
  queried element's value classes; one element reads its rows of the
  class and similarity tables as views.

A round state also prices one element without the batch summary
(``RoundState.price``), non-members only:

- coverage: ``O(|cover(e)|)`` time when the lower layer holds ``e``
  nowhere or no item of ``e``'s is at count 1 in any row, else
  ``O(s + |cover(e)|·(1 + h_e))`` for the ``h_e`` rows that hold ``e``,
  integer hit counts over ``e``'s items;
- facility: no sort and no per-row sums; ``class_price`` of the one
  element plus, when the lower layer holds ``e`` somewhere,
  ``O(s + h_e·clients)`` for the pairs it tops in the ``h_e`` rows that
  hold it, the same formula a batch uses;
- additive: ``O(1)``.

No kernel builds an array whose size grows as ``s·n·clients``, and
coverage pricing builds none of ``s·universe`` floats.  A round state keeps
the statistics across basis changes (``push_top2`` adds a facility member
and reports the pairs it tops, whose class counts move; coverage keeps,
per item, its count-0 and count-1 rows' numbers beside the cover counts)
and values its rows from them: the rows' covered weight, or the sum of
each row's top-1 similarities.
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

def coverage_counts(sets, incidence, held):
    """How many members of each row cover each item, capped at 2, item-major
    ``(universe, s)`` uint8, from one product over the columns ``held``
    marks, those some row holds: a batch of empty rows costs nothing, and
    the incidence rows are copied only when some column is left out.  The
    product of the two transposed views comes out item-major, so nothing is
    transposed.  Every reader tells only 0, 1 and more apart, so the cap
    loses nothing; float32 adds 0/1 terms exactly until a sum reaches
    ``2**24``, far past the cap, so the capped counts are exact at any
    size."""
    if not held.all():
        support = np.flatnonzero(held)
        sets, incidence = sets[:, support], incidence[support]
    prod = incidence.T @ sets.astype(np.float32).T
    return np.minimum(prod, 2, out=prod).astype(np.uint8)


def _cover_entries(indptr, indices, elems):
    """The CSR entries of the queried elements' covers: per entry, the
    position of its element in ``elems`` and its item."""
    starts = indptr[elems]
    sizes = indptr[elems + 1] - starts
    owner = np.repeat(np.arange(elems.shape[0]), sizes)
    at = np.arange(owner.shape[0]) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return owner, indices[at]


def coverage_price(uncovered, critical, counts, elems, held, members, indptr, indices, weights):
    # Removing e from a row uncovers item u of e's exactly when no other
    # member covers u there: the row lacks e and u's count is 0, or it holds
    # e and the count is 1 (``members`` marks, for the queried positions
    # ``held`` lists, the rows that hold the element there; any other
    # position's element is held by no row).  The first term, summed over
    # rows, is ``uncovered[u]``, so an element no row holds costs
    # |cover(e)|, and nothing when no row leaves an item uncovered.  The
    # second can be nonzero only at the ``critical`` items, those at count 1
    # in some row.  It reads only the rows that hold a queried element, at
    # the critical items their covers share, PRICE_BLOCK positions at a
    # time, and a block that shares none is skipped; its float32 products
    # sum 0/1 terms, exactly.  The entries left out add 0.0, so the sums are
    # the same floats.
    if uncovered.any():
        owner, items = _cover_entries(indptr, indices, elems)
        out = np.bincount(owner, weights=uncovered[items], minlength=elems.shape[0])
    else:
        out = np.zeros(elems.shape[0])
    for lo in range(0, held.shape[0], PRICE_BLOCK):
        block = held[lo:lo + PRICE_BLOCK]
        owner, items = _cover_entries(indptr, indices, elems[block])
        keep = critical[items]
        if not keep.any():
            continue
        owner, items = owner[keep], items[keep]
        holds = members[:, lo:lo + PRICE_BLOCK]
        rows = np.flatnonzero(holds.any(axis=1))
        shared = np.zeros(counts.shape[0], dtype=bool)
        shared[items] = True
        slot = np.cumsum(shared) - 1
        # whole item rows first, then the h columns of their 0/1 flags:
        # O(u·s) scratch, but a one-step (u, h) gather of the counts is
        # slower while h is most of s, as it is on the dense generator
        sole = (counts[shared] == 1)[:, rows].astype(np.float32)
        per_item = sole @ holds[rows].astype(np.float32)
        pairs = per_item[slot[items], owner]
        out[block] += np.bincount(owner, weights=weights[items] * pairs, minlength=block.shape[0])
    return out / counts.shape[1]


# ---------------------------------------------------------------------------
# facility-location objectives: similarity matrix sim (n clients columns),
# f(S) = sum over clients of the best similarity among selected elements.

def row_top2(sets, slot, values):
    """Best and second-best similarity per ``(row, client)`` over the row's
    members, 0 where fewer exist, plus the member holding the best (``n``
    where no member is positive), from the class tables of
    :func:`similarity_ranks`; also the flat ``values`` position of each
    top-1's class, as ``slot`` numbers them.

    Member ``j``'s key for client ``c`` is its class times ``n + 1`` plus
    ``n - j``, and 0 in class 0, the key of the appended zero element
    ``n``.  Keys order by class, then by smaller id, so the largest key of
    a row's members (and the zero) is the member that :func:`push_top2`,
    adding them in id order, keeps on its strict ``v > top1``, and the
    second largest has the class of the second-best similarity, ties
    included.  Each member takes one max/min
    pass over the rows that hold it, and the keys are decoded once: a
    class holds the column's own entry, so the floats are exact, though a
    zero may carry either sign.  The largest key, ``(n + 1)**2 - 1``, sets
    the key dtype: int32 unless it does not fit."""
    width, clients = slot.shape
    n = width - 1
    offsets = np.arange(0, clients * width, width)
    members = np.flatnonzero(sets.any(axis=0))
    rank = slot[members] - offsets
    keys = rank * width + np.where(rank > 0, n - members[:, None], 0)
    fits = (n + 1) ** 2 - 1 <= np.iinfo(np.int32).max
    keys = keys.astype(np.int32 if fits else np.int64)
    k1 = np.zeros((sets.shape[0], clients), dtype=keys.dtype)
    k2 = np.zeros_like(k1)
    for j, key in zip(members.tolist(), keys):
        rows = np.flatnonzero(sets[:, j])
        t1 = k1.take(rows, axis=0)
        t2 = np.minimum(t1, key)
        np.maximum(t2, k2.take(rows, axis=0), out=t2)
        k2[rows] = t2
        np.maximum(t1, key, out=t1)
        k1[rows] = t1
    # decode in place, each scratch array dropped once read; ``arg1`` is
    # ``n - k1 mod (n + 1)``, taken through integer division by a scalar,
    # which has a fast path that ``%`` lacks
    cls1 = k1 // width
    k1 -= cls1 * width
    np.subtract(n, k1, out=k1)
    arg1 = k1.astype(np.intp)
    del k1
    at1 = cls1 + offsets
    del cls1
    k2 //= width
    top2 = values.take(k2 + offsets)
    del k2
    return (values.take(at1), arg1, top2), at1


def push_top2(top1, arg1, top2, rows, j, v):
    """Add member ``j``, with similarities ``v``, to the given rows; return
    where it became the top-1, ``(len(rows), clients)``."""
    t1 = top1[rows]
    top2[rows] = np.maximum(top2[rows], np.minimum(t1, v))
    top1[rows] = np.maximum(t1, v)
    took = v > t1
    arg1[rows] = np.where(took, j, arg1[rows])
    return took


def similarity_ranks(sim):
    """Each client's similarities, with a zero appended as element ``n``,
    ranked into value classes.  Entry ``e`` of client ``c``'s column is in
    class ``k``, the number of entries of the column strictly below it, so
    equal entries share a class.  ``values``, ``(clients, n + 1)``, holds
    each column in ascending order (ties by element): class ``k`` has the
    value at position ``k``.  ``slot[e, c]``, intp ``(n + 1, clients)``, is
    ``c·(n + 1) + k``, the position of the entry's class in a flat table
    shaped like ``values``."""
    n, clients = sim.shape
    ext = np.zeros((clients, n + 1))
    ext[:, :n] = sim.T
    ascending = np.argsort(ext, axis=1, kind="stable")
    values = np.take_along_axis(ext, ascending, axis=1)
    del ext
    # an entry ranks as the first entry equal to it in ascending order
    first = np.ones(values.shape, dtype=bool)
    np.not_equal(values[:, 1:], values[:, :-1], out=first[:, 1:])
    at = np.where(first, np.arange(n + 1, dtype=np.int32), np.int32(0))
    del first
    np.maximum.accumulate(at, axis=1, out=at)
    rank = np.empty_like(at)
    np.put_along_axis(rank, ascending, at, axis=1)
    del ascending, at
    slot = np.ascontiguousarray(rank.T, dtype=np.intp)
    slot += np.arange(clients) * (n + 1)
    return slot, values


def class_histogram(at1, values):
    """Rows per ``(client, value class)`` of the rows' top-1, shaped like
    ``values``, int32 counts, from the flat class positions ``at1`` that
    :func:`row_top2` decodes; and the products table, each count times its
    class value."""
    hist = np.bincount(at1.ravel(), minlength=values.size)
    hist = hist.reshape(values.shape).astype(np.int32)
    return hist, hist * values


def class_cumsums(hist, products, below, under):
    """Fill ``below[c, k]`` (int32), the rows whose top-1 for client ``c``
    lies in a class under ``k``, and ``under[c, k]``, their top-1 sum: two
    prefix passes, over the counts and over their ``products`` with the
    class values, added class by class.  Column 0 of both stays 0."""
    np.cumsum(hist[:, :-1], axis=1, out=below[:, 1:])
    np.cumsum(products[:, :-1], axis=1, out=under[:, 1:])


def class_price(below, under, slot, sim, elems):
    """Per queried element, the sum over clients and rows of ``max(sim[e, c]
    - top1[r, c], 0)``: ``below·sim[e, c] - under`` at ``e``'s class
    ``slot[e, c]``.  ``elems`` is an index array, or one id, which reads
    its rows of ``slot`` and ``sim`` as views and returns a scalar.  Each
    element's terms are summed along one contiguous row, so an element
    priced alone gets the float a batch gives it."""
    at = slot[elems]
    terms = below.take(at) * sim[elems]
    terms -= under.take(at)
    return terms.sum(axis=-1)


def active_backend() -> str:
    """Name of the kernel backend; the benchmark prints it with its
    environment.  Run records do not carry it."""
    return "numpy"
