"""Hot numeric kernels.

``refine_partition`` (equitable refinement) is plain numpy code, defined
here and identical under every backend.  The loop kernels in ``_impl`` (the
rigidity test and the regular digraph search) have a numba fast path and an
interpreted fallback.  Set ``POSR_NO_NUMBA=1`` to force the fallback, which
runs the identical loop code interpreted; it is also selected automatically
when numba is unavailable.  Both paths therefore produce bit-identical
results, only speed differs.  ``fallback_*`` names are always the
interpreted versions (used by tests for cross-checking).
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np

from . import _impl

_KERNELS = (
    "count_combinations",
    "has_nontrivial_automorphism",
    "_combination_rank",
    "regular_digraph_search",
)


def _load_fallback_copy():
    spec = importlib.util.spec_from_file_location(
        "posr.kernels._impl_fallback", _impl.__file__
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_fallback = _load_fallback_copy()
fallback_has_nontrivial_automorphism = _fallback.has_nontrivial_automorphism
fallback_regular_digraph_search = _fallback.regular_digraph_search

BACKEND = "fallback"
if not os.environ.get("POSR_NO_NUMBA"):
    try:
        from numba import njit

        # compile in dependency order, rebinding each jitted function into
        # the module globals so callers pick up the compiled versions
        for _name in _KERNELS:
            setattr(_impl, _name, njit(cache=True, nogil=True)(getattr(_impl, _name)))
        BACKEND = "numba"
    except Exception:  # pragma: no cover - depends on environment
        pass

count_combinations = _impl.count_combinations
has_nontrivial_automorphism = _impl.has_nontrivial_automorphism
regular_digraph_search = _impl.regular_digraph_search


def refine_partition(n, out_flat, out_off, in_flat, in_off, colors0):
    """Coarsest equitable refinement of a coloring, canonically numbered.

    Each pass ranks the vertices by (current color, out-neighbor counts per
    color, in-neighbor counts per color) and renumbers densely; the loop
    stops when the class count is stable.  The numbering therefore depends
    only on the digraph and the order of the input colors.

    A vertex's count vector has 2k entries but at most deg(v) nonzero ones,
    so it is held as the multiset of its arc-ends' slots: slot c for an
    out-neighbor of color c, k + c for an in-neighbor.  Slot s is stored as
    2k - s and each row is sorted ascending, with 0s padding the rows of
    low-degree vertices.  Read from the right, two rows then compare exactly
    like the count vectors, because the first slot where two count vectors
    differ is the smallest slot that one vertex holds more often.  The
    int32 table is n x (max degree + 1), with the color in the last column.
    """
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    colors = np.asarray(colors0, dtype=np.int64)
    classes = np.count_nonzero(np.bincount(colors))
    out_deg, in_deg = np.diff(out_off), np.diff(in_off)
    length = int((out_deg + in_deg).max())
    # arc-end j of vertex v fills row v, column j: out-neighbors, then in-neighbors
    out_src = np.repeat(np.arange(n), out_deg)
    in_src = np.repeat(np.arange(n), in_deg)
    rows = np.concatenate((out_src, in_src))
    cols = np.concatenate((np.arange(len(out_flat)) - out_off[out_src],
                           out_deg[in_src] + np.arange(len(in_flat)) - in_off[in_src]))
    while True:
        k = int(colors.max()) + 1
        sig = np.zeros((n, length + 1), dtype=np.int32)
        sig[rows, cols] = np.concatenate((2 * k - colors[out_flat], k - colors[in_flat]))
        sig[:, :length].sort(axis=1)
        sig[:, length] = colors
        order = np.lexsort(sig.T)  # last column is the primary key
        ranked = sig[order]
        new_colors = np.empty(n, dtype=np.int64)
        new_colors[order[0]] = 0
        new_colors[order[1:]] = np.cumsum((ranked[1:] != ranked[:-1]).any(axis=1))
        new_classes = int(new_colors[order[-1]]) + 1
        if new_classes == classes:
            return new_colors
        colors, classes = new_colors, new_classes
