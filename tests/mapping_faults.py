"""Broken kernels for the mapping module: each one must trip an InvariantError.

A fault names an input mapping, a factory that builds a broken
`_last_sets` from the real one, and the error message `analyze` must
then raise.  Each factory changes the last image set S_J as a bug in the
image-shrinking loop `_images` could: a tail vertex kept, a cycle vertex
lost, or the loop stopped one round early.  A fault changes every row of
a block alike, so the sampler meets it too.  `install` works with
`setattr` (a subprocess) or `monkeypatch.setattr`.

`cycle_missing_behind_tail` is no entry of FAULTS: a last set that lacks
a whole cycle is still permuted by f, so `analyze` raises nothing, and
only the cyclic-set oracle of `mapping_reference` sees it.
"""

import numpy as np

from itermap import mapping


def _tail_vertex_added(real):
    # vertex 1 (0-based) of every row joins S_J
    def broken(f, keep_prev):
        J, prev, last = real(f, keep_prev)
        return J, prev, np.union1d(last, np.arange(1, f.size, f.shape[-1]))

    return broken


def _cycle_vertex_dropped(real):
    # the largest vertex of every row's part of S_J leaves it
    def broken(f, keep_prev):
        J, prev, last = real(f, keep_prev)
        n = f.shape[-1]
        return J, prev, np.delete(last, np.searchsorted(last, np.arange(n, f.size + 1, n)) - 1)

    return broken


def _one_round_short(real):
    # S_(J-1) is handed over as the last set; it strictly holds the cyclic set of
    # some row whenever J >= 1, so the inputs below need at least one round
    def broken(f, keep_prev):
        *sets, _ = mapping._images(f)
        J = len(sets) - 1
        return J, sets[-2] if keep_prev and J > 1 else None, sets[-1]

    return broken


def cycle_missing_behind_tail(real):
    # vertices 2, 3 and 4 (0-based) of every row leave S_J: the 3-cycle of RHO_64
    def broken(f, keep_prev):
        J, prev, last = real(f, keep_prev)
        rows = np.arange(0, f.size, f.shape[-1]).reshape(-1, 1)
        return J, prev, np.setdiff1d(last, (rows + [2, 3, 4]).ravel())

    return broken


PERMUTE = "f does not permute the cyclic set"
# n = 64: the 2-cycle 1 <-> 2 below the tail 64 -> 63 -> ... -> 6 -> 1 of height 59,
# and the 3-cycle 3 -> 4 -> 5 -> 3
RHO_64 = " ".join(map(str, [64, 2, 1, 4, 5, 3, 1, *range(6, 64)]))

FAULTS = {
    # 4 -> 3 -> 2 -> 1 -> 1; tail vertex 2 joins S_J and f sends 1 and 2 both to 1
    "tail_vertex_added": ("4 1 1 2 3", _tail_vertex_added, PERMUTE),
    # the 3-cycle 1 -> 2 -> 3 -> 1 loses vertex 3, so f sends vertex 2 out of S_J
    "cyclic_vertex_missing": ("3 2 3 1", _cycle_vertex_dropped, PERMUTE),
    # RHO_64: S_5 = f^31(V) still holds tail vertices 6..33
    "one_round_short": (RHO_64, _one_round_short, PERMUTE),
}


def install(name, set_attr=setattr):
    """Install fault `name` on `mapping._last_sets`; return its input text and expected message."""
    text, make, message = FAULTS[name]
    set_attr(mapping, "_last_sets", make(mapping._last_sets))
    return text, message
