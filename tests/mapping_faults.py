"""Broken kernels for the mapping module: each one must trip an InvariantError.

A fault names an input mapping, the `itermap.mapping` attribute it
replaces, a factory that builds the replacement from the real function,
and the error message `analyze` must then raise.  Each factory breaks
the mask that `_cyclic_sets` returns and passes its image sets on
unchanged, so the checks compare a wrong mask with the sets they were
given.  The mask changes every row of a block alike (the same vertex,
or every fixed point), so the sampler meets it too.  `install` works
with `setattr` (a subprocess) or `monkeypatch.setattr`.
"""

import numpy as np

from itermap import mapping


def _mask_with(vertex, value):
    def make(real):
        def broken(f, **kwargs):
            mask, *sets = real(f, **kwargs)
            mask[..., vertex] = value
            return mask, *sets

        return broken

    return make


def _fixed_points_cleared(real):
    def broken(f, **kwargs):
        mask, *sets = real(f, **kwargs)
        return mask & (f != np.arange(f.shape[-1])), *sets

    return broken


PERMUTE = "f does not permute the cyclic mask"
REACH = "a vertex does not reach the cyclic mask"

FAULTS = {
    # 4 -> 3 -> 2 -> 1 -> 1; tail vertex 2 joins the mask and f sends 1 and 2 both to 1
    "tail_vertex_added": ("4 1 1 2 3", "_cyclic_sets", _mask_with(1, True), PERMUTE),
    # the 3-cycle 1 -> 2 -> 3 -> 1 loses vertex 1, so f sends vertex 3 out of the mask
    "cyclic_vertex_missing": ("3 2 3 1", "_cyclic_sets", _mask_with(0, False), PERMUTE),
    # the fixed point 3 leaves the mask; f still permutes what is left, {1}
    "fixed_point_missing": ("3 1 1 3", "_cyclic_sets", _mask_with(2, False), REACH),
    # every fixed point leaves the mask, so 1 -> 1, 3 -> 3 and 2 -> 1 reach none of it;
    # f still permutes what is left, here nothing, so only the reach check sees it
    "fixed_points_cleared": ("3 1 1 3", "_cyclic_sets", _fixed_points_cleared, REACH),
    # n = 64: the 2-cycle 1 <-> 2 below the tail 64 -> 63 -> ... -> 6 -> 1, and the 3-cycle
    # 3 -> 4 -> 5 -> 3, which leaves the mask; f permutes what is left, so only the reach
    # check sees it: every image set keeps the 3-cycle, through all six rounds of the loop
    "cycle_missing_behind_tail": (
        " ".join(map(str, [64, 2, 1, 4, 5, 3, 1, *range(6, 64)])),
        "_cyclic_sets",
        _mask_with([2, 3, 4], False),
        REACH,
    ),
}


def install(name, set_attr=setattr):
    """Install fault `name`; return its input text and expected message."""
    text, attr, make, message = FAULTS[name]
    set_attr(mapping, attr, make(getattr(mapping, attr)))
    return text, message
