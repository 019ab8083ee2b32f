"""Shared builders for the two-vertex bridge instance used across suites.

Two 4-valent vertices joined by one internal link of spin s.  The left
vertex carries boundary legs of spins (s, s, 3s); the right vertex carries
(s, s) plus a leg `c` whose spin switches between 3s-1 and 3s, giving two
sectors that differ only in one boundary spin.  The left intertwiner space
is one-dimensional in both sectors; the right one has dimension 2 in the
3s-1 sector and 1 in the 3s sector.
"""

import math

import numpy as np
import pytest

from holoising import ising
from holoising.bulk import IntertwinerState
from holoising.graph import build_graph
from holoising.ising import PartitionSumTable, _PairKernels
from holoising.spins import SectorFamily, Spin, SpinSector


@pytest.fixture(autouse=True)
def empty_held_pool(monkeypatch):
    """Each test starts without a held family pool, so no test reads the
    pool of another test's family."""
    monkeypatch.setattr(ising, "_held", None)


def bridge_graph():
    return build_graph(
        {
            "vertices": [
                {"id": "L", "valence": 4},
                {"id": "R", "valence": 4},
            ],
            "links": [
                {"id": "e", "ends": [["L", 3], ["R", 3]]},
                {"id": "a1", "end": ["L", 0]},
                {"id": "a2", "end": ["L", 1]},
                {"id": "a3", "end": ["L", 2]},
                {"id": "b1", "end": ["R", 0]},
                {"id": "b2", "end": ["R", 1]},
                {"id": "c", "end": ["R", 2]},
            ],
        }
    )


def bridge_spins(s: int):
    """Spin assignments {link: twice_j/2} of the two sectors at scale s."""
    base = {"e": s, "a1": s, "a2": s, "a3": 3 * s, "b1": s, "b2": s}
    low = {**base, "c": Spin(6 * s - 2)}  # spin 3s - 1
    high = {**base, "c": Spin(6 * s)}  # spin 3s
    return low, high


def bridge_family(graph, s: int):
    """Both sectors, unit link weights (unnormalized superposition)."""
    low, high = bridge_spins(s)
    allowed = {lid: [sp] for lid, sp in low.items()}
    allowed["c"] = [low["c"], high["c"]]
    return SectorFamily.build(
        graph,
        lower=0,
        upper=Spin(6 * s),
        allowed=allowed,
        normalize=False,
    )


def bridge_sectors(graph, s: int):
    low, high = bridge_spins(s)
    return SpinSector.make(graph, low), SpinSector.make(graph, high)


def bridge_state(graph, sectors, a, d, b, u, v, w=None):
    """Cross-sector bulk state: 2x2 block [[a,b],[b*,d]] on the low sector,
    cross column [u, v], scalar w on the high sector (w defaults to the
    unit-trace completion)."""
    sec_low, sec_high = sectors
    if w is None:
        w = 1.0 - (a + d)
    return IntertwinerState.from_blocks(
        graph,
        [sec_low, sec_high],
        {
            (sec_low, sec_low): np.array([[a, b], [np.conj(b), d]]),
            (sec_low, sec_high): np.array([[u], [v]]),
            (sec_high, sec_high): np.array([[w]]),
        },
    )


# -- tables from given kernels -------------------------------------------


class StandInSectors:
    """The parts of `ising.SectorSet` a `PartitionSumTable` reads, for
    tables built from given kernels: labels, log K from the given weights
    (-inf for K = 0), one boundary key shared by every sector, and
    D_I = D_O = 1."""

    def __init__(self, labels, k):
        self.labels = tuple(labels)
        self.log_k = np.array([math.log(v) if v else -math.inf for v in k], dtype=float)
        self.key = np.zeros(len(self.labels), dtype=np.int64)
        self.keys = [()]
        self.boundary_ids = ("",)

    def __len__(self):
        return len(self.labels)

    def d_input(self, codes):
        return [1] * len(codes)

    def d_output(self, code):
        return 1


def array_table(labels, k, z, e_min=None):
    """The `PartitionSumTable` of the (S, S, 2) kernel array `z` over
    sectors `labels` with weights `k`; totals and boundary sums come from
    the table's own reducer.  `e_min` defaults to -log z (inf where z = 0);
    the degeneracy is 1 where E_min is finite, and the gap infinite."""
    z = np.asarray(z, dtype=float).reshape(len(labels), len(labels), 2)
    if e_min is None:
        with np.errstate(divide="ignore"):
            e_min = -np.log(z)
    e_min = np.asarray(e_min, dtype=float).reshape(z.shape)
    kernels = _PairKernels(
        z, e_min, np.isfinite(e_min).astype(np.int64), np.full(z.shape, math.inf), np.full(z.shape, -1)
    )
    return PartitionSumTable(StandInSectors(labels, k), kernels)


# -- randomized small instances ------------------------------------------

_SPIN_POOLS = (
    ["1/2"],
    ["1"],
    ["3/2"],
    ["1/2", "1"],
    ["1/2", "3/2"],
    ["1", "2"],
)


def random_instance(rng, max_dim=600, with_state=False, max_tries=400,
                    nv_choices=(1, 2, 3)):
    """A random 1-3 vertex instance small enough for exact treatment.

    Returns (graph, family, state, partition); `state` is a random bulk
    density matrix over the admissible sectors (None unless `with_state`),
    `partition` a random input/output split of the boundary (None when the
    boundary has fewer than two legs).  Instances are rejected until the
    truncated product space is non-empty and below `max_dim`.
    """
    from holoising.graph import BoundaryPartition
    from holoising.oracle import build_hilbert, OracleError

    for _ in range(max_tries):
        nv = int(rng.choice(nv_choices))
        valences = [int(rng.integers(3, 5)) for _ in range(nv)]
        free = {i: list(range(valences[i])) for i in range(nv)}
        links = []
        for i in range(1, nv):
            j = int(rng.integers(0, i))
            if not free[j]:
                break
            links.append(
                {
                    "id": f"e{i}",
                    "ends": [[f"v{j}", free[j].pop(0)], [f"v{i}", free[i].pop(0)]],
                }
            )
        else:
            if nv > 1 and rng.random() < 0.3:
                cands = [i for i in range(nv) if len(free[i]) >= 1]
                if len(cands) >= 2:
                    a, b = rng.choice(cands, size=2, replace=False)
                    links.append(
                        {
                            "id": "x0",
                            "ends": [
                                [f"v{a}", free[int(a)].pop(0)],
                                [f"v{b}", free[int(b)].pop(0)],
                            ],
                        }
                    )
            bnd = 0
            for i in range(nv):
                for p in free[i]:
                    links.append({"id": f"b{bnd}", "end": [f"v{i}", p]})
                    bnd += 1
            graph = build_graph(
                {
                    "vertices": [
                        {"id": f"v{i}", "valence": valences[i]} for i in range(nv)
                    ],
                    "links": links,
                }
            )
            allowed = {}
            weights = {}
            multi_budget = 2 if nv == 1 else 1
            single_probs = [0.5, 0.35, 0.15] if nv == 1 else [0.6, 0.35, 0.05]
            for lid in graph.link_ids():
                if multi_budget > 0 and rng.random() < 0.3:
                    pool = _SPIN_POOLS[3 + int(rng.integers(0, 3))]
                    multi_budget -= 1
                else:
                    pool = _SPIN_POOLS[int(rng.choice(3, p=single_probs))]
                allowed[lid] = list(pool)
            for lid in graph.internal_ids():
                weights[lid] = {
                    s: complex(rng.normal(), rng.normal()) for s in allowed[lid]
                }
            family = SectorFamily.build(
                graph, "1/2", "2", allowed=allowed, weights=weights, normalize=True
            )
            try:
                index = build_hilbert(graph, family, cap=max_dim)
            except OracleError:
                continue
            if index.dim == 0 or not index.family_sectors():
                continue
            state = _random_bulk_state(rng, graph, index) if with_state else None
            bnd_ids = sorted(graph.boundary_ids())
            partition = None
            if len(bnd_ids) >= 2:
                k = int(rng.integers(1, len(bnd_ids)))
                picks = sorted(rng.choice(bnd_ids, size=k, replace=False))
                partition = BoundaryPartition.from_input(graph, picks)
            return graph, family, state, partition
    raise RuntimeError("could not draw a random instance within the try budget")


def _random_bulk_state(rng, graph, index):
    from holoising.bulk import vertex_block_dims

    sectors = list(index.family_sectors())
    if len(sectors) > 3:
        sectors = [sectors[int(i)] for i in rng.choice(len(sectors), 3, replace=False)]
    sizes = [
        int(np.prod(vertex_block_dims(graph, s), dtype=np.int64)) for s in sectors
    ]
    total = sum(sizes)
    if rng.random() < 0.5:
        amps = {
            s: rng.normal(size=n) + 1j * rng.normal(size=n)
            for s, n in zip(sectors, sizes)
        }
        norm = np.sqrt(sum(float(np.vdot(v, v).real) for v in amps.values()))
        return IntertwinerState.from_pure(
            graph, {s: v / norm for s, v in amps.items()}
        )
    r = rng.normal(size=(total, 2)) + 1j * rng.normal(size=(total, 2))
    rho = r @ r.conj().T
    rho /= np.trace(rho).real
    blocks = {}
    offs = np.concatenate([[0], np.cumsum(sizes)])
    for i, si in enumerate(sectors):
        for j, sj in enumerate(sectors):
            if j < i:
                continue
            blocks[(si, sj)] = rho[offs[i]:offs[i] + sizes[i], offs[j]:offs[j] + sizes[j]]
    return IntertwinerState.from_blocks(graph, sectors, blocks)
