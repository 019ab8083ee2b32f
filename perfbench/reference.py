"""Independent reference computations used to check the library's outputs.

Nothing here calls `holoising`: the intertwiner dimension is counted from
magnetic quantum numbers (the library fuses Clebsch-Gordan multiplicities),
and the bulk-to-boundary totals are summed with numpy over all Ising
configurations at once per sector pair (the library loops pair by pair).

Graphs are the plain-dict specs accepted by `holoising.graph.build_graph`;
spins are doubled integers (twice_j).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np


@lru_cache(maxsize=None)
def _invariants(sorted_twice: Tuple[int, ...]) -> int:
    total = sum(sorted_twice)
    if total % 2:
        return 0
    ways = np.ones(1, dtype=np.int64)
    for t in sorted_twice:
        ways = np.convolve(ways, np.ones(t + 1, dtype=np.int64))
    # ways[k] counts magnetic assignments with total 2m = -total + 2k; the
    # invariant count is N(m = 0) - N(m = 1).
    mid = total // 2
    return int(ways[mid] - (ways[mid + 1] if mid + 1 < ways.size else 0))


def invariant_count(twices: Sequence[int]) -> int:
    """dim Inv(V_{j_1} x ... x V_{j_n}) for spins given as twice_j."""
    return _invariants(tuple(sorted(twices)))


class GraphData:
    """Incidence of a graph spec in the library's canonical link order
    (internal links first, then boundary semilinks, each in spec order)."""

    def __init__(self, spec: Mapping):
        self.vertices: List[str] = [str(v["id"]) for v in spec["vertices"]]
        vidx = {v: i for i, v in enumerate(self.vertices)}
        internal = [ls for ls in spec["links"] if "ends" in ls]
        boundary = [ls for ls in spec["links"] if "end" in ls]
        self.links: List[str] = [str(ls["id"]) for ls in internal + boundary]
        self.internal = [str(ls["id"]) for ls in internal]
        self.boundary = [str(ls["id"]) for ls in boundary]
        # Endpoint vertex indices; -1 is the pinned virtual vertex of a leg.
        self.src = np.array(
            [vidx[str(ls["ends"][0][0])] for ls in internal]
            + [vidx[str(ls["end"][0])] for ls in boundary]
        )
        self.tgt = np.array(
            [vidx[str(ls["ends"][1][0])] for ls in internal] + [-1] * len(boundary)
        )
        self.incidence = np.zeros((len(self.vertices), len(self.links)), dtype=bool)
        for li in range(len(self.links)):
            self.incidence[self.src[li], li] = True
            if self.tgt[li] >= 0:
                self.incidence[self.tgt[li], li] = True
        self.vertex_links: List[List[int]] = [
            list(np.flatnonzero(self.incidence[x])) for x in range(len(self.vertices))
        ]


def admissible_sectors(
    graph: GraphData, allowed: Mapping[str, Sequence[int]]
) -> np.ndarray:
    """Sectors (rows of twice_j in canonical link order) whose every vertex
    has a non-empty intertwiner space."""
    rows = []
    for combo in itertools.product(*(allowed[lid] for lid in graph.links)):
        if all(
            invariant_count([combo[li] for li in links]) > 0
            for links in graph.vertex_links
        ):
            rows.append(combo)
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(graph.links))


def hilbert_dim(graph: GraphData, allowed: Mapping[str, Sequence[int]]) -> int:
    """Dimension of the truncated product of vertex spaces (intertwiner
    factor times port dimensions, summed over each vertex's spin blocks)."""
    dim = 1
    for links in graph.vertex_links:
        options = [allowed[graph.links[li]] for li in links]
        vdim = 0
        for combo in itertools.product(*options):
            size = invariant_count(combo)
            for t in combo:
                size *= t + 1
            vdim += size
        dim *= vdim
    return dim


def bulk_totals(
    graph: GraphData,
    sectors: np.ndarray,
    g_abs2: Mapping[str, Mapping[int, float]],
) -> Tuple[float, float]:
    """(Z_0, Z_1) of the bulk-to-boundary model over the given sectors.

    Z_b = sum_{j,k} K_j K_k sum_sigma Delta e^{-H}: the pair must agree on
    every antialigned link and on every link at a vertex whose spin is
    flipped against the replica field b (b = +1 for Z_0, -1 for Z_1);
    H prices cut links with log d and flipped vertices with log D.
    Boundary legs end on virtual vertices pinned to +1.
    """
    nv = len(graph.vertices)
    dims = (sectors + 1).astype(float)
    vdims = np.array(
        [
            [invariant_count([row[li] for li in links]) for links in graph.vertex_links]
            for row in sectors
        ],
        dtype=float,
    ).reshape(len(sectors), nv)
    k = np.prod(vdims, axis=1)
    bnd = [graph.links.index(lid) for lid in graph.boundary]
    k = k * np.prod(dims[:, bnd], axis=1)
    for lid in graph.internal:
        li = graph.links.index(lid)
        k = k * np.array([g_abs2[lid][int(t)] for t in sectors[:, li]])
    differ = sectors[:, None, :] != sectors[None, :, :]
    totals = [0.0, 0.0]
    for bits in range(1 << nv):
        sigma = np.array([-1 if (bits >> x) & 1 else 1 for x in range(nv)])
        s_src = sigma[graph.src]
        s_tgt = np.where(graph.tgt >= 0, sigma[graph.tgt], 1)
        cut = s_src != s_tgt
        for replica, b in ((0, 1), (1, -1)):
            flipped = b * sigma == -1
            must_agree = cut | graph.incidence[flipped].any(axis=0)
            weight = 1.0 / (
                np.prod(dims[:, cut], axis=1) * np.prod(vdims[:, flipped], axis=1)
            )
            agree = ~differ[:, :, must_agree].any(axis=2)
            totals[replica] += float((k * weight) @ agree @ k)
    return totals[0], totals[1]


def normalized_abs2(weights: Mapping[str, Mapping[int, complex]]) -> Dict[str, Dict[int, float]]:
    """|g|^2 per internal link after normalizing sum |g|^2 to 1."""
    out = {}
    for lid, w in weights.items():
        norm = sum(abs(v) ** 2 for v in w.values())
        out[lid] = {t: abs(v) ** 2 / norm for t, v in w.items()}
    return out


def rel_close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))
