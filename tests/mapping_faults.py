"""Broken kernels for the mapping module: each one must trip an InvariantError.

The cyclic set has one route: `analyze` and the sampler's `_cycle_rows`
both read the last set of `_last_sets` (the image-round loop `_images`).
A fault names an input mapping, a factory that builds the broken kernel
from the real one, and the error message the cycle walk must then raise.
Each factory changes the cyclic set as a bug in the kernel could: a tail
vertex kept, a cycle vertex lost, or the loop stopped one round early
(S_(R-1) handed over).  A fault changes every row of a block alike.
`install` works with `setattr` (a subprocess) or `monkeypatch.setattr`.

`cycle_missing_behind_tail` is no entry of FAULTS: a set that lacks a
whole cycle is still permuted by f, so the walk raises nothing, and only
the cyclic-set oracle of `mapping_reference` sees it.
"""

import numpy as np

from itermap import mapping

KERNEL = "_last_sets"  # where `analyze` and the sampler read the cyclic set


def _changing(change):
    """A factory: the real kernel, with change(f, C) handed over for its cyclic set C."""

    def factory(real):
        def broken(f):
            *sets, cyclic = real(f)
            return *sets, change(f, cyclic)

        return broken

    return factory


def _tail_vertex_added(f, cyclic):
    # vertex 1 (0-based) of every row joins the set
    return np.union1d(cyclic, np.arange(1, f.size, f.shape[-1]))


def _cycle_vertex_dropped(f, cyclic):
    # the largest vertex of every row's part of the set leaves it
    n = f.shape[-1]
    return np.delete(cyclic, np.searchsorted(cyclic, np.arange(n, f.size + 1, n)) - 1)


def _cycle_missing_behind_tail(f, cyclic):
    # vertices 2, 3 and 4 (0-based) of every row leave the set: the 3-cycle of RHO_64
    rows = np.arange(0, f.size, f.shape[-1]).reshape(-1, 1)
    return np.setdiff1d(cyclic, (rows + [2, 3, 4]).ravel())


def _one_round_short(real):
    # S_(R-1), every vertex when R = 1, is handed over as the last set; it strictly
    # holds the cyclic set of some row whenever R >= 1, so the inputs below need a tail
    def broken(f):
        R, e, prev, _ = real(f)
        return R, e, prev, np.arange(f.size) if prev is None else prev

    return broken


PERMUTE = "f does not permute the cyclic set"
# n = 64: the 2-cycle 1 <-> 2 below the tail 64 -> 63 -> ... -> 6 -> 1 of height 59,
# and the 3-cycle 3 -> 4 -> 5 -> 3
RHO_64 = " ".join(map(str, [64, 2, 1, 4, 5, 3, 1, *range(6, 64)]))

FAULTS = {
    # 4 -> 3 -> 2 -> 1 -> 1; tail vertex 2 joins the set and f sends 1 and 2 both to 1
    "tail_vertex_added": ("4 1 1 2 3", _changing(_tail_vertex_added), PERMUTE),
    # the 3-cycle 1 -> 2 -> 3 -> 1 loses vertex 3, so f sends vertex 2 out of the set
    "cyclic_vertex_missing": ("3 2 3 1", _changing(_cycle_vertex_dropped), PERMUTE),
    # RHO_64: R = 2, and S_1 = f^8(V) still holds tail vertices 6..56
    "one_round_short": (RHO_64, _one_round_short, PERMUTE),
}
_SILENT = {"cycle_missing_behind_tail": (RHO_64, _changing(_cycle_missing_behind_tail), None)}


def install(name, set_attr=setattr):
    """Install fault `name` on `mapping.<KERNEL>`; return its input text and expected message."""
    text, make, message = {**FAULTS, **_SILENT}[name]
    set_attr(mapping, KERNEL, make(getattr(mapping, KERNEL)))
    return text, message
