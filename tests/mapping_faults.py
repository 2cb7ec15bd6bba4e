"""Broken kernels for the mapping module: each one must trip an InvariantError.

The cyclic set has two routes: `analyze` reads the last image set S_J of
`_last_sets` (the image-shrinking loop `_images`), and the sampler's
`_cycle_rows` reads `_cyclic_set` (pointer doubling).  A fault names an
input mapping, a factory per kernel that builds the broken kernel from
the real one, and the error message the cycle walk must then raise.
Each factory changes the cyclic set as a bug in its kernel could: a
tail vertex kept, a cycle vertex lost, or the kernel stopped one round
early (for `_images`, S_(J-1); for `_cyclic_set`, a stop test skipped,
so that C = f^(2^j)(V) still holds tail vertices).  A fault changes
every row of a block alike.  `install` works with `setattr` (a
subprocess) or `monkeypatch.setattr`, on `ANALYZE`'s kernel or on
`SAMPLER`'s.

`cycle_missing_behind_tail` is no entry of FAULTS: a set that lacks a
whole cycle is still permuted by f, so the walk raises nothing, and only
the cyclic-set oracle of `mapping_reference` sees it.
"""

import numpy as np

from itermap import mapping

ANALYZE, SAMPLER = "_last_sets", "_cyclic_set"  # the kernel each reads its cyclic set from


def _changing(change):
    """A factory per kernel: the real kernel, with change(f, C) handed over for its cyclic set C."""

    def last_sets(real):
        def broken(f):
            J, prev, last = real(f)
            return J, prev, change(f, last)

        return broken

    return {ANALYZE: last_sets, SAMPLER: lambda real: lambda f: change(f, real(f))}


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
    # S_(J-1) is handed over as the last set; it strictly holds the cyclic set of
    # some row whenever J >= 1, so the inputs below need at least one round
    def broken(f):
        *sets, _ = mapping._images(f)
        J = len(sets) - 1
        return J, sets[-2] if J > 1 else None, sets[-1]

    return broken


def _stop_test_skipped(real):
    # the last C = f^(2^j)(V) that a stop test rejects is handed over as if it had
    # passed; it holds a tail vertex whenever some tail is at least 2 high
    def broken(f):
        cyclic, h = real(f), (f + np.arange(0, f.size, f.shape[-1]).reshape(-1, 1)).ravel()
        C = np.unique(h)
        while True:
            h = h.take(h)
            if np.array_equal(np.unique(h), cyclic):
                return C
            C = np.unique(h)

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
    # RHO_64: S_5 = f^31(V), and C = f^32(V), still hold tail vertices 6..33 and 6..32
    "one_round_short": (RHO_64, {ANALYZE: _one_round_short, SAMPLER: _stop_test_skipped}, PERMUTE),
}
_SILENT = {"cycle_missing_behind_tail": (RHO_64, _changing(_cycle_missing_behind_tail), None)}


def install(name, set_attr=setattr, kernel=ANALYZE):
    """Install fault `name` on `mapping.<kernel>`; return its input text and expected message."""
    text, makers, message = {**FAULTS, **_SILENT}[name]
    set_attr(mapping, kernel, makers[kernel](getattr(mapping, kernel)))
    return text, message
