"""The suite's `hypothesis` profile and its shared fixed builders.

Every `@given` test runs under one registered profile, derandomized and
without an example database, so that tier-1 draws the same examples on
every run; tests set only `max_examples`.  Drawn instances come from
`strategies.py`.

The bridge instance: two 4-valent vertices joined by one internal link of
spin s.  The left vertex carries boundary legs of spins (s, s, 3s); the
right vertex carries (s, s) plus a leg `c` whose spin switches between
3s-1 and 3s, giving two sectors that differ only in one boundary spin.  The
left intertwiner space is one-dimensional in both sectors; the right one
has dimension 2 in the 3s-1 sector and 1 in the 3s sector.
"""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import holoising
from holoising import ising
from holoising.bulk import IntertwinerState
from holoising.graph import build_graph
from holoising.ising import PartitionSumTable, _PairKernels
from holoising.spins import SectorFamily, Spin, SpinSector


settings.register_profile(
    "derandomized",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("derandomized")

# Hypothesis mixes constants from every loaded module of the package into
# its draws, so every module is loaded here: a test then draws the same
# examples whether it runs alone or in the whole suite.
for module in pkgutil.iter_modules(holoising.__path__):
    importlib.import_module(f"holoising.{module.name}")


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


def four_leg_graph():
    return build_graph(
        {
            "vertices": [{"id": "x", "valence": 4}],
            "links": [{"id": f"p{i}", "end": ["x", i - 1]} for i in range(1, 5)],
        }
    )


def two_sector_vertex_family(graph):
    """One free leg over {1/2, 3/2}, the rest pinned to 1/2: two sectors
    with different boundary spins (the cross pairs are swap-infeasible)."""
    return SectorFamily.build(
        graph,
        "1/2",
        "3/2",
        allowed={
            "p1": ["1/2", "3/2"],
            "p2": ["1/2"],
            "p3": ["1/2"],
            "p4": ["1/2"],
        },
    )


def glued_graph():
    """Two 3-valent vertices x, y joined by link e, with legs a1, a2 at x
    and b1, b2 at y."""
    return build_graph(
        {
            "vertices": [{"id": "x", "valence": 3}, {"id": "y", "valence": 3}],
            "links": [
                {"id": "e", "ends": [["x", 0], ["y", 0]]},
                {"id": "a1", "end": ["x", 1]},
                {"id": "a2", "end": ["x", 2]},
                {"id": "b1", "end": ["y", 1]},
                {"id": "b2", "end": ["y", 2]},
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
    kernels = _PairKernels(z, e_min, np.isfinite(e_min).astype(np.int64), np.full(z.shape, math.inf))
    return PartitionSumTable(StandInSectors(labels, k), kernels)
