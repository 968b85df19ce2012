"""Batched set-function evaluation kernels.

The sampling phases of the optimizer evaluate an objective on hundreds of
random subsets per marginal estimate.  That work is dense array arithmetic and
dominates end-to-end runtime, so each objective has one numpy kernel per
batch entry point.  The kernels hold no state: anything derived from an
objective's data, such as the coverage incidence matrix, is built and owned
by the oracle that passes it in.

Subset batches are ``(s, n)`` uint8 matrices, one row per sampled set.  Ground
sets use element ids ``0..n-1`` throughout.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# coverage objectives: element e covers a list of universe items (CSR layout,
# plus the dense 0/1 ``(n, universe)`` incidence matrix of the same covers),
# f(S) = total weight of items covered by S.

def coverage_values(sets, incidence, weights):
    covered = sets.astype(np.float64) @ incidence > 0.5
    return covered @ weights


def coverage_marginal_means(sets, elems, indptr, indices, incidence, weights):
    counts = sets.astype(np.float64) @ incidence
    out = np.zeros(elems.shape[0], dtype=np.float64)
    for qi, e in enumerate(elems):
        cols = indices[indptr[e]:indptr[e + 1]]
        if cols.shape[0] == 0:
            continue
        bare = counts[:, cols] - sets[:, e:e + 1]
        out[qi] = float(((bare < 0.5) * weights[cols]).sum()) / sets.shape[0]
    return out


# ---------------------------------------------------------------------------
# facility-location objectives: similarity matrix sim (n clients columns),
# f(S) = sum over clients of the best similarity among selected elements.

def facility_values(sets, sim):
    masked = np.where(sets[:, :, None].astype(bool), sim[None, :, :], 0.0)
    return masked.max(axis=1).sum(axis=1)


def facility_marginal_means(sets, elems, sim):
    masked = np.where(sets[:, :, None].astype(bool), sim[None, :, :], 0.0)
    order = np.argsort(masked, axis=1)
    top1 = np.take_along_axis(masked, order[:, -1:, :], axis=1)[:, 0, :]
    arg1 = order[:, -1, :]
    top2 = np.take_along_axis(masked, order[:, -2:-1, :], axis=1)[:, 0, :] \
        if masked.shape[1] > 1 else np.zeros_like(top1)
    out = np.zeros(elems.shape[0], dtype=np.float64)
    for qi, e in enumerate(elems):
        base = np.where(arg1 == e, top2, top1)
        gain = np.maximum(sim[e][None, :] - base, 0.0)
        out[qi] = float(gain.sum()) / sets.shape[0]
    return out


def active_backend() -> str:
    """Name of the kernel backend, echoed into run records."""
    return "numpy"
