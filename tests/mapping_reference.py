"""Pure-Python routes for one mapping, the test oracles for the mapping module.

Independent of the numpy kernels: cycles by forward walks with path
colouring, tail heights and components by reverse BFS from the cyclic
set, and O(f) by explicit composition of the iterates.  The cyclic set
of a row or a block as f^(2^J - 1)(V) by repeated squaring with 2^J >= n,
past every tail, which shares no code with the image-shrinking loop or
with the sampler's doubling and needs no stop test.
"""

from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from itermap.mapping import Mapping


@dataclass(frozen=True)
class ReferenceStructure:
    """The full decomposition: more than the library keeps, for the tests to read.

    cyclic_vertices are 1-based; tail_heights[v-1] is the distance from v
    to the cyclic set; component_profile maps a component size d to the
    number of d-vertex weak components.
    """

    cyclic_vertices: frozenset[int]
    cycle_lengths: tuple[int, ...]
    tail_heights: tuple[int, ...]
    component_profile: dict[int, int]

    @property
    def num_cyclic(self) -> int:
        return len(self.cyclic_vertices)

    @property
    def max_tail_height(self) -> int:
        return max(self.tail_heights)


def analyze(f: Mapping) -> ReferenceStructure:
    """Decompose the functional graph of f in O(n) time and space."""
    n = f.n
    t = [v - 1 for v in f.targets.tolist()]

    # Cycle detection: walk forward from each unvisited vertex; a walk that
    # closes on itself (hits a vertex of the current path) found a new cycle.
    color = [0] * n  # 0 unseen, 1 on current path, 2 finished
    cycle_id = [-1] * n
    cycle_lengths: list[int] = []
    for start in range(n):
        if color[start]:
            continue
        path = []
        v = start
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            v = t[v]
        if color[v] == 1:
            cyc = path[path.index(v):]
            cid = len(cycle_lengths)
            cycle_lengths.append(len(cyc))
            for u in cyc:
                cycle_id[u] = cid
        for u in path:
            color[u] = 2

    # Tail heights and component ids by reverse BFS from the cyclic set.
    preds: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        preds[t[v]].append(v)
    height = [-1] * n
    comp = [-1] * n
    queue: deque[int] = deque()
    for v in range(n):
        if cycle_id[v] >= 0:
            height[v] = 0
            comp[v] = cycle_id[v]
            queue.append(v)
    while queue:
        v = queue.popleft()
        for u in preds[v]:
            if height[u] < 0:
                height[u] = height[v] + 1
                comp[u] = comp[v]
                queue.append(u)

    comp_sizes = Counter(comp)
    profile = dict(sorted(Counter(comp_sizes.values()).items()))
    cyclic = frozenset(v + 1 for v in range(n) if cycle_id[v] >= 0)
    assert sum(cycle_lengths) == len(cyclic)
    assert sum(d * a for d, a in profile.items()) == n
    return ReferenceStructure(
        cyclic_vertices=cyclic,
        cycle_lengths=tuple(sorted(cycle_lengths)),
        tail_heights=tuple(height),
        component_profile=profile,
    )


def distinct_iterate_count(f: Mapping, limit: int = 10**6) -> int:
    """Count distinct functions among f, f^2, f^3, ... by explicit composition.

    Exponential-free reference route for small n; used to validate the
    closed form O = T + max(h_max - 1, 0).
    """
    t = tuple(v - 1 for v in f.targets.tolist())
    seen = {}
    cur = t
    count = 0
    while cur not in seen:
        seen[cur] = count
        count += 1
        if count > limit:
            raise RuntimeError("iterate sequence did not close")
        cur = tuple(t[v] for v in cur)
    # Distinct functions = preperiod start of repeat + period remainder.
    return count


def cyclic_set(f: np.ndarray) -> np.ndarray:
    """The cyclic set of f, 0-based, one row or a block of rows, as ascending flat indices.

    With 2^J >= n, f^(2^J - 1) takes every vertex past its tail, at most
    n - 1 steps long, onto a cycle, and a cycle onto itself, so its image
    of all vertices is the cyclic set.  The power is the composition of
    f^(2^i) for i < J, each the square of the one before, on all vertices.
    """
    n = f.shape[-1]
    g = (f + np.arange(0, f.size, n).reshape(-1, 1)).ravel()  # one graph, rows offset
    power, acc = g, np.arange(g.size)
    for _ in range((n - 1).bit_length()):
        acc = power[acc]
        power = power[power]
    return np.unique(acc)
