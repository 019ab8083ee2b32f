"""Dual constrained random Ising models for replica-averaged purities.

The second moment of a random superposed network state reduces to a pair of
partition sums over one Ising spin per vertex,

    Z_b = sum over sector pairs (j, k) of  K_j K_k Z^{(j,k)}_b,
    Z^{(j,k)}_b = sum over configurations of  Delta_b(j,k,sigma) e^{-H_b},

with replica index b = 1 for the swapped (purity numerator) copy and b = 0
for the normalization.  Two model kinds share this shape:

* bulk-to-boundary: Delta is a product of Kronecker deltas (sector data must
  agree on antialigned links and on the field-selected vertices) and H
  carries link couplings lambda_e = log d and vertex couplings
  Lambda_x = log D.
* boundary-to-boundary: the bulk intertwiner data enters through partial
  traces of a fixed bulk state; Delta additionally carries the
  Hilbert-Schmidt cosine of the two traced blocks, and H carries their
  Renyi-2 entropies instead of Lambda terms.

Boundary legs are treated as links to one-valent virtual vertices whose
Ising spins are pinned, never summed: +1 everywhere, except that the swapped
replica of the boundary-to-boundary kind pins the input-region legs to -1.

Any factor that can vanish lives in Delta, never in H; Hamiltonians are only
defined on Delta-allowed configurations.  All sums accumulate in log domain.

Evaluation paths.  Every kernel Z^{(j,k)}_b and its ground state come from
an enumeration of all 2^V configurations:

* bulk-to-boundary kernels are batched over a whole sector list.  On an
  allowed configuration the energy of pair (j, k) depends on j alone, so
  the model accumulates one energy matrix per replica (sectors x
  configurations), link by link and vertex by vertex in the order
  `_evaluate` uses; the kept energies are therefore bit-identical to
  scoring configurations one at a time.  Which configurations a pair allows
  depends only on the set of links where j and k differ, so the S^2 ordered
  pairs are grouped by that set (an S x S x L boolean array) and each group
  reduces its rows of the matrix once: log-sum-exp for the kernel, then
  minimum, ties, gap and representative.  Memory: the masks built once per
  model (a cut mask, links x configurations, shared by both replicas, and
  one active mask, vertices x configurations, per replica: 2^V (L + 2V)
  bytes of booleans) plus, per call, S x 2^V float64 per replica and one
  more for the shared link part.  A single kernel is the two-sector case.
* boundary-to-boundary kernels are scored configuration by configuration
  through `_evaluate`, once per (pair, replica), because their Delta
  depends on partial traces over the whole spin-down set.

Log-sum-exp follows the steps of `scipy.special.logsumexp` in plain numpy,
so that sums keep scipy's bits.

Both paths refuse graphs with more than `exhaustive_limit` vertices.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .bulk import IntertwinerState
from .graph import BoundaryPartition, OpenGraph
from .spins import (
    SectorFamily,
    Spin,
    SpinSector,
    enumerate_sectors,
    intertwiner_dim,
    sector_dims,
)

#: Absolute tolerance for counting ground-state ties.
TIE_TOL = 1e-12


class EngineError(RuntimeError):
    """Raised for structurally invalid engine inputs."""


class ContractViolation(RuntimeError):
    """Raised when a quantity is requested outside its defined domain."""


# -- configurations ------------------------------------------------------


@dataclass(frozen=True)
class IsingConfig:
    """One +/-1 assignment per (non-virtual) vertex, in graph order."""

    values: Tuple[Tuple[str, int], ...]

    @staticmethod
    def make(graph: OpenGraph, assignment: Mapping[str, int]) -> "IsingConfig":
        missing = [x for x in graph.vertices if x not in assignment]
        if missing:
            raise EngineError(f"configuration misses vertices {missing}")
        extra = [x for x in assignment if x not in set(graph.vertices)]
        if extra:
            raise EngineError(f"configuration names unknown vertices {extra}")
        values = []
        for x in graph.vertices:
            s = int(assignment[x])
            if s not in (1, -1):
                raise EngineError(f"vertex {x!r}: Ising spin must be +1 or -1")
            values.append((x, s))
        return IsingConfig(tuple(values))

    @property
    def sigma(self) -> Dict[str, int]:
        return dict(self.values)

    def value(self, vertex: str) -> int:
        for x, s in self.values:
            if x == vertex:
                return s
        raise KeyError(vertex)

    def down_set(self) -> Tuple[str, ...]:
        return tuple(x for x, s in self.values if s < 0)

    def label(self) -> str:
        return "".join("+" if s > 0 else "-" for _, s in self.values)


# -- model kinds ---------------------------------------------------------


@dataclass(frozen=True)
class ModelKind:
    """Which replica average the model encodes.

    The boundary-to-boundary kind carries the input/output split of the
    boundary legs; the bulk-to-boundary kind has no partition (the whole
    boundary is output).
    """

    mode: str
    partition: Optional[BoundaryPartition] = None

    BULK_TO_BOUNDARY = "bulk_to_boundary"
    BOUNDARY_TO_BOUNDARY = "boundary_to_boundary"

    @staticmethod
    def bulk_to_boundary() -> "ModelKind":
        return ModelKind(mode=ModelKind.BULK_TO_BOUNDARY)

    @staticmethod
    def boundary_to_boundary(partition: BoundaryPartition) -> "ModelKind":
        if partition is None:
            raise EngineError("boundary-to-boundary kind needs a boundary partition")
        return ModelKind(
            mode=ModelKind.BOUNDARY_TO_BOUNDARY, partition=partition
        )

    @property
    def is_boundary_to_boundary(self) -> bool:
        return self.mode == ModelKind.BOUNDARY_TO_BOUNDARY


# -- couplings -----------------------------------------------------------


@dataclass(frozen=True)
class CouplingSet:
    """Couplings of one sector: lambda_e = log d, Lambda_x = log D.

    `beta` is log D_O of the sector; dividing every coupling by it gives the
    rescaled (tilde) couplings used in high-spin arguments.  `b` is the
    replica field sign: +1 for the normalization copy, -1 for the swapped
    copy.  For the boundary-to-boundary kind the Lambda values are reported
    for completeness but do not enter the Hamiltonian.
    """

    lam: Tuple[Tuple[str, float], ...]
    big_lam: Tuple[Tuple[str, float], ...]
    beta: float
    replica: int
    b: int
    mode: str

    @property
    def lam_map(self) -> Dict[str, float]:
        return dict(self.lam)

    @property
    def big_lam_map(self) -> Dict[str, float]:
        return dict(self.big_lam)

    def _rescale(self, value: float) -> float:
        if self.beta > 0.0:
            return value / self.beta
        return 0.0 if value == 0.0 else math.inf

    @property
    def lam_tilde(self) -> Dict[str, float]:
        return {lid: self._rescale(v) for lid, v in self.lam}

    @property
    def big_lam_tilde(self) -> Dict[str, float]:
        return {x: self._rescale(v) for x, v in self.big_lam}


def couplings(sector: SpinSector, kind: ModelKind, replica: int) -> CouplingSet:
    """Link and vertex couplings of `sector` for the given replica."""
    if replica not in (0, 1):
        raise EngineError(f"replica must be 0 or 1, got {replica!r}")
    graph = sector.graph
    lam = tuple(
        (lid, math.log(sector.spin(lid).dim)) for lid in graph.link_ids()
    )
    big = []
    for x in graph.vertices:
        dim = intertwiner_dim(sector.vertex_spins(x))
        if dim == 0:
            raise EngineError(
                f"vertex {x!r} has an empty intertwiner space in this sector"
            )
        big.append((x, math.log(dim)))
    beta = sum(
        math.log(sector.spin(lid).dim) for lid in graph.boundary_ids()
    )
    return CouplingSet(
        lam=lam,
        big_lam=tuple(big),
        beta=beta,
        replica=replica,
        b=-1 if replica == 1 else +1,
        mode=kind.mode,
    )


# -- K factors -----------------------------------------------------------


@dataclass(frozen=True)
class KFactor:
    """Sector weight K and its split K = L * D_O (log-domain internally)."""

    log_value: float
    d_output: int

    @property
    def value(self) -> float:
        return math.exp(self.log_value) if math.isfinite(self.log_value) else 0.0

    @property
    def log_l(self) -> float:
        return self.log_value - math.log(self.d_output)

    @property
    def l_value(self) -> float:
        return math.exp(self.log_l) if math.isfinite(self.log_l) else 0.0


# -- results -------------------------------------------------------------


@dataclass(frozen=True)
class GroundState:
    """Minimizer data of one (sector pair, replica) energy landscape."""

    config: Optional[IsingConfig]
    energy: float
    degeneracy: int
    gap: float

    @property
    def feasible(self) -> bool:
        return self.config is not None


@dataclass(frozen=True)
class BoundaryFixedSums:
    """Pair sums restricted to one boundary assignment, and normalized."""

    z_bar: Tuple[float, float]  # (replica 0, replica 1)
    y: Tuple[float, float]
    d_total: int
    sector_count: int


@dataclass(frozen=True)
class PairRow:
    pair_id: str
    replica: int
    z: float
    e_min: float
    degeneracy: int
    gap: float


@dataclass(frozen=True)
class BoundarySumRow:
    boundary_id: str
    z_bar: Tuple[float, float]
    y: Tuple[float, float]
    d_total: int


@dataclass(frozen=True, eq=False)
class PartitionSumTable:
    """All per-pair kernels plus K factors, boundary sums, and totals."""

    rows: Tuple[PairRow, ...]
    k_factors: Tuple[Tuple[str, float], ...]
    boundary_rows: Tuple[BoundarySumRow, ...]
    totals: Tuple[float, float]  # (Z_0, Z_1)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["sector_pair_id", "replica", "Z", "E_min", "degeneracy", "gap"]
            )
            for row in self.rows:
                writer.writerow(
                    [
                        row.pair_id,
                        row.replica,
                        f"{row.z:.17g}",
                        f"{row.e_min:.17g}",
                        row.degeneracy,
                        f"{row.gap:.17g}",
                    ]
                )

    def to_json_dict(self) -> dict:
        def num(v: float):
            return v if math.isfinite(v) else None

        return {
            "rows": [
                {
                    "sector_pair_id": r.pair_id,
                    "replica": r.replica,
                    "Z": num(r.z),
                    "E_min": num(r.e_min),
                    "degeneracy": r.degeneracy,
                    "gap": num(r.gap),
                }
                for r in self.rows
            ],
            "k_factors": {label: k for label, k in self.k_factors},
            "boundary_sums": [
                {
                    "boundary_id": b.boundary_id,
                    "Z_bar_0": num(b.z_bar[0]),
                    "Z_bar_1": num(b.z_bar[1]),
                    "Y_0": num(b.y[0]),
                    "Y_1": num(b.y[1]),
                    "D_total": b.d_total,
                }
                for b in self.boundary_rows
            ],
            "totals": {"Z_0": self.totals[0], "Z_1": self.totals[1]},
        }

    def to_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle, indent=2)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) of each row of a 2-D array of finite values.

    The steps are those of `scipy.special.logsumexp` on one row, so the bits
    are too: the maxima are counted (m) and taken out of the sum, the other
    terms are shifted by the maximum and summed, and the result is
    log1p(s / m) + log(m) + max.  Each row is summed as its own 1-D array,
    because numpy's pairwise summation of a 2-D array along an axis can
    round differently.
    """
    a_max = a.max(axis=1, keepdims=True)
    top = a == a_max
    m = np.count_nonzero(top, axis=1, keepdims=True).astype(float)
    shifted = a - a_max
    np.exp(shifted, out=shifted)
    shifted[top] = 0.0
    s = np.array([row.sum() for row in shifted])[:, None]
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + a_max)[:, 0]


def _signed_sum(pos: Sequence[float], neg: Sequence[float]) -> float:
    """Sum of +/- exp(log) terms, each bucket reduced by log-sum-exp."""
    total = 0.0
    if len(pos):
        total += math.exp(_logsumexp_rows(np.asarray(pos, dtype=float)[None, :])[0])
    if len(neg):
        total -= math.exp(_logsumexp_rows(np.asarray(neg, dtype=float)[None, :])[0])
    return total


def _infeasible(shape) -> Tuple[np.ndarray, ...]:
    """(E_min, degeneracy, gap, representative) where nothing is allowed."""
    return (
        np.full(shape, math.inf),
        np.zeros(shape, dtype=np.int64),
        np.full(shape, math.inf),
        np.full(shape, -1, dtype=np.int64),
    )


@dataclass(frozen=True)
class _PairKernels:
    """Kernels and ground-state data of every ordered pair of a sector list,
    each an (S, S, 2) array indexed [j, k, replica].  `rep` is the
    representative's index in `_configurations`, -1 where no configuration
    is allowed."""

    z: np.ndarray
    e_min: np.ndarray
    degeneracy: np.ndarray
    gap: np.ndarray
    rep: np.ndarray

    @staticmethod
    def empty(count: int) -> "_PairKernels":
        shape = (count, count, 2)
        return _PairKernels(np.zeros(shape), *_infeasible(shape))

    def put(self, index, values) -> None:
        """Store (z, e_min, degeneracy, gap, rep) at `index`."""
        self.z[index], self.e_min[index], self.degeneracy[index], self.gap[index], self.rep[index] = values

    def at(self, index) -> Tuple:
        """(z, e_min, degeneracy, gap, rep) at `index`."""
        return self.z[index], self.e_min[index], self.degeneracy[index], self.gap[index], self.rep[index]


# -- the model -----------------------------------------------------------


class IsingModel:
    """Evaluator for one graph + sector family + model kind.

    The boundary-to-boundary kind additionally needs the bulk intertwiner
    state whose partial traces define its Delta and Hamiltonian data.
    """

    def __init__(
        self,
        graph: OpenGraph,
        family: SectorFamily,
        kind: ModelKind,
        state: Optional[IntertwinerState] = None,
        exhaustive_limit: int = 20,
    ):
        self.graph = graph
        self.family = family
        self.kind = kind
        self.state = state
        self.exhaustive_limit = int(exhaustive_limit)
        self._masks: Optional[Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]] = None
        if kind.is_boundary_to_boundary:
            if kind.partition is None:
                raise EngineError("boundary-to-boundary kind lost its partition")
            kind.partition.validate(graph)
            if state is None:
                raise EngineError(
                    "boundary-to-boundary model needs a bulk intertwiner state"
                )

    # -- pieces ----------------------------------------------------------

    def couplings(self, sector: SpinSector, replica: int) -> CouplingSet:
        return couplings(sector, self.kind, replica)

    def boundary_pin(self, link_id: str, replica: int) -> int:
        """Pinned Ising value of the virtual vertex behind a boundary leg."""
        if (
            self.kind.is_boundary_to_boundary
            and replica == 1
            and link_id in self.kind.partition.input_region
        ):
            return -1
        return +1

    def _cut_links(
        self, config: IsingConfig, replica: int
    ) -> Tuple[List[str], bool]:
        """(antialigned link ids, all-deltas-satisfied placeholder)."""
        sig = config.sigma
        cut = []
        for lid in self.graph.link_ids():
            src, tgt = self.graph.endpoints(lid)
            s = sig[src]
            t = sig[tgt] if tgt in sig else self.boundary_pin(lid, replica)
            if s * t < 0:
                cut.append(lid)
        return cut, True

    def k_factor(self, sector: SpinSector) -> KFactor:
        """Sector weight K for this model kind (zero-weight sectors give
        log K = -inf, which drops them from every sum)."""
        graph = self.graph
        log_k = 0.0
        d_output = 1
        for lid in graph.boundary_ids():
            log_k += math.log(sector.spin(lid).dim)
            d_output *= sector.spin(lid).dim
        for lid in graph.internal_ids():
            g = self.family.g(lid, sector.spin(lid))
            mag = abs(g) ** 2
            log_k += math.log(mag) if mag > 0.0 else -math.inf
        if self.kind.is_boundary_to_boundary:
            w = self.state.weight(sector)
            log_k += math.log(w) if w > 0.0 else -math.inf
        else:
            for x in graph.vertices:
                dim = intertwiner_dim(sector.vertex_spins(x))
                log_k += math.log(dim) if dim > 0 else -math.inf
        return KFactor(log_value=log_k, d_output=d_output)

    # -- Delta and H -----------------------------------------------------

    def _check_pair(self, j: SpinSector, k: SpinSector, replica: int) -> None:
        if replica not in (0, 1):
            raise EngineError(f"replica must be 0 or 1, got {replica!r}")
        if j.graph is not self.graph and j.graph != self.graph:
            raise EngineError("sector j belongs to a different graph")
        if k.graph is not self.graph and k.graph != self.graph:
            raise EngineError("sector k belongs to a different graph")

    def _evaluate(
        self, j: SpinSector, k: SpinSector, config: IsingConfig, replica: int
    ) -> Tuple[float, Optional[float]]:
        """(Delta value, Hamiltonian) of one configuration.

        Delta == 0 means the configuration is forbidden; the Hamiltonian is
        then None.  A +inf Hamiltonian (empty intertwiner space on an active
        vertex) contributes zero weight but is reported as allowed.
        """
        self._check_pair(j, k, replica)
        cut, _ = self._cut_links(config, replica)
        for lid in cut:
            if j.spin(lid) != k.spin(lid):
                return 0.0, None
        lam_cut = sum(math.log(j.spin(lid).dim) for lid in cut)
        if not self.kind.is_boundary_to_boundary:
            b = -1 if replica == 1 else +1
            sig = config.sigma
            energy = lam_cut
            for x in self.graph.vertices:
                if (1 - b * sig[x]) // 2 == 1:
                    if j.vertex_spins(x) != k.vertex_spins(x):
                        return 0.0, None
                    dim = intertwiner_dim(j.vertex_spins(x))
                    energy += math.log(dim) if dim > 0 else math.inf
            return 1.0, energy
        return self._evaluate_boundary(j, k, config, lam_cut)

    def _evaluate_boundary(
        self, j: SpinSector, k: SpinSector, config: IsingConfig, lam_cut: float
    ) -> Tuple[float, Optional[float]]:
        state = self.state
        sig = config.sigma
        up = {x for x, s in config.values if s > 0}
        down = [x for x in self.graph.vertices if x not in up]
        up_links = set()
        for lid in self.graph.link_ids():
            if any(v in up for v in self.graph.endpoints(lid)):
                up_links.add(lid)
        j_spins, k_spins = j.spins(), k.spins()
        mixed_1 = SpinSector.make(
            self.graph,
            {
                lid: (j_spins[lid] if lid in up_links else k_spins[lid])
                for lid in self.graph.link_ids()
            },
        )
        mixed_2 = SpinSector.make(
            self.graph,
            {
                lid: (k_spins[lid] if lid in up_links else j_spins[lid])
                for lid in self.graph.link_ids()
            },
        )
        b1 = state.traced_block(j, mixed_1, down)
        b2 = state.traced_block(k, mixed_2, down)
        n1_sq = float(np.sum(np.abs(b1) ** 2))
        n2_sq = float(np.sum(np.abs(b2) ** 2))
        w_j, w_k = state.weight(j), state.weight(k)
        if n1_sq == 0.0 or n2_sq == 0.0 or w_j <= 0.0 or w_k <= 0.0:
            return 0.0, None
        overlap = float(np.trace(b1 @ b2).real)
        cos = overlap / math.sqrt(n1_sq * n2_sq)
        if cos == 0.0:
            return 0.0, None
        energy = (
            lam_cut
            - 0.5 * math.log(n1_sq / w_j**2)
            - 0.5 * math.log(n2_sq / w_k**2)
        )
        return cos, energy

    def delta_factor(
        self, j: SpinSector, k: SpinSector, config: IsingConfig, replica: int
    ) -> float:
        """Constraint factor of one configuration.

        Kronecker deltas give 0 or 1; the boundary-to-boundary kind folds in
        the Hilbert-Schmidt cosine of the traced blocks, which carries its
        sign if an overlap happens to be negative.
        """
        delta, _ = self._evaluate(j, k, config, replica)
        return delta

    def hamiltonian(
        self, j: SpinSector, k: SpinSector, config: IsingConfig, replica: int
    ) -> float:
        delta, energy = self._evaluate(j, k, config, replica)
        if delta == 0.0 or energy is None:
            raise ContractViolation(
                f"Hamiltonian undefined on the forbidden configuration "
                f"{config.label()} (replica {replica})"
            )
        return energy

    # -- configuration sums ----------------------------------------------

    def _check_limit(self) -> int:
        nv = len(self.graph.vertices)
        if nv > self.exhaustive_limit:
            raise EngineError(
                f"{nv} vertices exceed the exhaustive limit of "
                f"{self.exhaustive_limit}; kernels and ground states both "
                f"enumerate all 2^V configurations.  Raise exhaustive_limit "
                f"to go further, at 2^{nv} time and memory"
            )
        return nv

    def _configurations(self) -> Iterable[IsingConfig]:
        """All configurations; the i-th has spin -1 on vertex p exactly when
        bit V-1-p of i is set (the first vertex varies slowest)."""
        vertices = self.graph.vertices
        self._check_limit()
        for bits in itertools.product((1, -1), repeat=len(vertices)):
            yield IsingConfig(tuple(zip(vertices, bits)))

    def _config(self, index: int) -> IsingConfig:
        """The `index`-th configuration of `_configurations`."""
        vertices = self.graph.vertices
        last = len(vertices) - 1
        return IsingConfig(
            tuple(
                (x, -1 if (index >> (last - p)) & 1 else 1)
                for p, x in enumerate(vertices)
            )
        )

    def _bulk_masks(
        self,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray], np.ndarray]:
        """(cut, active per replica, incidence), built once.  `cut` and
        `active` are boolean masks over all configurations: rows are links in
        `link_ids` order (`cut`) or vertices (`active`), columns are
        configurations in `_configurations` order, so that each row is
        contiguous.  `incidence` (vertices x links) marks the links at each
        vertex."""
        if self._masks is not None:
            return self._masks
        nv = self._check_limit()
        index = np.arange(2**nv)
        down = np.empty((nv, index.size), dtype=bool)
        for p in range(nv):
            down[p] = (index >> (nv - 1 - p)) & 1
        row = {x: p for p, x in enumerate(self.graph.vertices)}
        links = self.graph.link_ids()
        cut = np.empty((len(links), index.size), dtype=bool)
        incidence = np.zeros((nv, len(links)), dtype=bool)
        for li, lid in enumerate(links):
            src, tgt = self.graph.endpoints(lid)
            incidence[row[src], li] = True
            if tgt in row:
                incidence[row[tgt], li] = True
            # Boundary legs end on virtual vertices pinned to +1 in this kind.
            cut[li] = down[row[src]] != down[row[tgt]] if tgt in row else down[row[src]]
        # A vertex is active where its spin opposes the replica field b.
        self._masks = (cut, (down, ~down), incidence)
        return self._masks

    def _bulk_kernels(self, sectors: Sequence[SpinSector]) -> _PairKernels:
        """Kernels and ground states of every ordered pair of `sectors`, in
        both bulk-to-boundary replicas.

        On an allowed configuration the energy of pair (j, k) is the energy
        of j alone, so one matrix per replica (sectors x configurations)
        holds every pair's energies.  It accumulates in `_evaluate`'s order
        (cut links, then active vertices), and `np.add(..., where=)` leaves
        unaffected entries alone, so every kept energy has the bits of the
        per-configuration path.  Which configurations are allowed depends
        only on the set of links where j and k differ (a vertex's spin tuple
        differs exactly when one of its links does), so the pairs are
        grouped by that set and each group reduces its rows of the matrix
        once.
        """
        for sec in sectors:
            if sec.graph is not self.graph and sec.graph != self.graph:
                raise EngineError("sector belongs to a different graph")
        cut, actives, incidence = self._bulk_masks()
        links = self.graph.link_ids()
        vertices = self.graph.vertices
        count = len(sectors)
        twice = np.array(
            [[sec.spin(lid).twice for lid in links] for sec in sectors], dtype=np.int64
        ).reshape(count, len(links))
        link_part = np.zeros((count, cut.shape[1]))
        for li, column in enumerate(twice.T.tolist()):
            lam = np.array([math.log(t + 1) for t in column])
            np.add(link_part, lam[:, None], out=link_part, where=cut[li])
        vertex_lam = np.empty((count, len(vertices)))
        for a, sec in enumerate(sectors):
            for p, x in enumerate(vertices):
                dim = intertwiner_dim(sec.vertex_spins(x))
                vertex_lam[a, p] = math.log(dim) if dim > 0 else math.inf
        # Replica 1 takes over the link part's memory.
        energies = (link_part.copy(), link_part)
        for energy, active in zip(energies, actives):
            for p in range(len(vertices)):
                np.add(energy, vertex_lam[:, p, None], out=energy, where=active[p])

        kernels = _PairKernels.empty(count)
        differs = (twice[:, None] != twice[None, :]).reshape(count * count, len(links))
        sets, group = np.unique(differs, axis=0, return_inverse=True)
        group = group.reshape(-1)
        by_set = np.argsort(group, kind="stable")
        starts = np.searchsorted(group[by_set], np.arange(len(sets) + 1))
        for g, differ in enumerate(sets):
            j_index, k_index = np.divmod(by_set[starts[g] : starts[g + 1]], count)
            rows, row_of_pair = np.unique(j_index, return_inverse=True)
            broken = cut[differ].any(axis=0)
            flipped = incidence[:, differ].any(axis=1)
            for replica, active in enumerate(actives):
                cols = np.flatnonzero(~(broken | active[flipped].any(axis=0)))
                values = self._bulk_rows(energies[replica][np.ix_(rows, cols)], cols)
                kernels.put(
                    (j_index, k_index, replica), [x[row_of_pair] for x in values]
                )
        return kernels

    def _bulk_rows(self, energy: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, ...]:
        """(z, E_min, degeneracy, gap, representative) of each row of
        `energy`, the energies of the allowed configurations `cols`.  An
        infinite energy (an empty intertwiner space on an active vertex)
        carries no weight, so a block that has one is reduced row by row on
        each row's finite entries alone."""
        finite = np.isfinite(energy)
        if not finite.all():
            each = [
                self._bulk_rows(energy[i, finite[i]][None, :], cols[finite[i]])
                for i in range(len(energy))
            ]
            return tuple(np.concatenate(x) for x in zip(*each))
        z = np.zeros(len(energy))
        if energy.size:
            z[:] = [math.exp(v) for v in _logsumexp_rows(0.0 - energy)]
        return (z, *self._ground_rows(energy, cols))

    def _ground_rows(self, energy: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, ...]:
        """(E_min, degeneracy, gap, representative) of each row of `energy`,
        the finite energies of the allowed configurations `cols` (ascending
        indices into `_configurations`)."""
        if energy.shape[1] == 0:
            return _infeasible(len(energy))
        e_min = energy.min(axis=1)
        tied = energy - e_min[:, None] <= TIE_TOL
        degeneracy = np.count_nonzero(tied, axis=1)
        gap = np.where(tied, math.inf, energy).min(axis=1) - e_min
        rep = cols[tied.argmax(axis=1)]
        for i in np.flatnonzero(degeneracy > 1):
            rep[i] = self._first_by_down_set(cols[tied[i]])
        return e_min, degeneracy, gap, rep

    def _bulk_kernel(
        self, j: SpinSector, k: SpinSector, replica: int
    ) -> Tuple[float, GroundState]:
        """Kernel and ground state of one bulk-to-boundary (pair, replica):
        the two-sector case of `_bulk_kernels`."""
        self._check_pair(j, k, replica)
        return self._result(*self._bulk_kernels([j, k]).at((0, 1, replica)))

    def _enumerated_kernel(
        self, j: SpinSector, k: SpinSector, replica: int
    ) -> Tuple:
        """(z, E_min, degeneracy, gap, representative) from one pass of
        `_evaluate` over all configurations (any model kind)."""
        pos: List[float] = []
        neg: List[float] = []
        energies: List[float] = []
        rows: List[int] = []
        for index, config in enumerate(self._configurations()):
            delta, energy = self._evaluate(j, k, config, replica)
            if delta == 0.0 or energy is None or math.isinf(energy):
                continue
            log_mag = math.log(abs(delta)) - energy
            (pos if delta > 0 else neg).append(log_mag)
            energies.append(energy)
            rows.append(index)
        ground = self._ground_rows(
            np.array(energies, dtype=float)[None, :], np.array(rows, dtype=np.int64)
        )
        return (_signed_sum(pos, neg), *(x[0] for x in ground))

    def _pair_kernels(self, sectors: Sequence[SpinSector]) -> _PairKernels:
        """Kernels and ground states of every ordered pair of `sectors`, in
        both replicas."""
        if not self.kind.is_boundary_to_boundary:
            return self._bulk_kernels(sectors)
        kernels = _PairKernels.empty(len(sectors))
        for a, j in enumerate(sectors):
            for b, k in enumerate(sectors):
                for replica in (0, 1):
                    kernels.put((a, b, replica), self._enumerated_kernel(j, k, replica))
        return kernels

    def _kernel(
        self, j: SpinSector, k: SpinSector, replica: int
    ) -> Tuple[float, GroundState]:
        if self.kind.is_boundary_to_boundary:
            return self._result(*self._enumerated_kernel(j, k, replica))
        return self._bulk_kernel(j, k, replica)

    def _result(self, z, e_min, degeneracy, gap, rep) -> Tuple[float, GroundState]:
        """(z, GroundState) from one pair's kernel values."""
        return float(z), GroundState(
            config=self._config(int(rep)) if rep >= 0 else None,
            energy=float(e_min),
            degeneracy=int(degeneracy),
            gap=float(gap),
        )

    def _first_by_down_set(self, rows: np.ndarray) -> int:
        """The configuration index whose sorted tuple of spin-down vertex
        ids is lexicographically smallest (a prefix sorts first)."""
        if rows.size == 1:
            return int(rows[0])
        vertices = self.graph.vertices
        nv = len(vertices)
        by_id = sorted(range(nv), key=vertices.__getitem__)
        # Row r: ranks (in id order) of r's spin-down vertices, ascending,
        # padded with -1 so that comparing fixed-length rows gives tuple order.
        keys = np.empty((rows.size, nv), dtype=np.int16)
        for rank, p in enumerate(by_id):
            keys[:, rank] = np.where((rows >> (nv - 1 - p)) & 1, rank, nv)
        keys.sort(axis=1)
        keys[keys == nv] = -1
        best = np.arange(rows.size)
        for column in keys.T:
            values = column[best]
            best = best[values == values.min()]
            if best.size == 1:
                break
        return int(rows[best[0]])

    def partition_sum_fixed(
        self, j: SpinSector, k: SpinSector, replica: int
    ) -> float:
        """Exact kernel Z^{(j,k)} = sum over configurations of Delta e^-H."""
        return self._kernel(j, k, replica)[0]

    def ground_state(
        self, j: SpinSector, k: SpinSector, replica: int
    ) -> GroundState:
        """Minimizing allowed configuration, tie count, and spectral gap.

        Ties within 1e-12 share the minimum; the representative is the tied
        configuration whose spin-down vertex set is lexicographically
        smallest.  An empty feasible set gives (None, inf, 0, inf).
        """
        return self._kernel(j, k, replica)[1]

    # -- assembled sums --------------------------------------------------

    def default_sectors(self) -> List[SpinSector]:
        if self.kind.is_boundary_to_boundary:
            return list(self.state.sectors)
        return list(enumerate_sectors(self.family, self.graph))

    def _weighted_sectors(
        self, sectors: Optional[Sequence[SpinSector]]
    ) -> List[Tuple[SpinSector, KFactor]]:
        pool = list(sectors) if sectors is not None else self.default_sectors()
        out = []
        for sec in pool:
            kf = self.k_factor(sec)
            if math.isfinite(kf.log_value):
                out.append((sec, kf))
        return out

    def boundary_fixed_sums(
        self, boundary: Mapping[str, object]
    ) -> BoundaryFixedSums:
        """K-weighted pair sums over bulk spins at a fixed boundary."""
        fixed = {lid: Spin.parse(sp) for lid, sp in boundary.items()}
        if self.kind.is_boundary_to_boundary:
            pool = [
                s
                for s in self.state.sectors
                if all(s.spin(lid) == sp for lid, sp in fixed.items())
            ]
            if set(fixed) != set(self.graph.boundary_ids()):
                raise EngineError("boundary assignment must fix every boundary leg")
        else:
            pool = list(
                enumerate_sectors(self.family, self.graph, boundary_filter=fixed)
            )
        weighted = self._weighted_sectors(pool)
        if not weighted:
            raise EngineError("no admissible sector matches this boundary")
        z = self._pair_kernels([sec for sec, _ in weighted]).z.tolist()
        z_bar = []
        for replica in (0, 1):
            pos: List[float] = []
            neg: List[float] = []
            for a, (_, kf_j) in enumerate(weighted):
                for b, (_, kf_k) in enumerate(weighted):
                    z_pair = z[a][b][replica]
                    if z_pair == 0.0:
                        continue
                    log_mag = kf_j.log_value + kf_k.log_value + math.log(abs(z_pair))
                    (pos if z_pair > 0 else neg).append(log_mag)
            z_bar.append(_signed_sum(pos, neg))
        dims = sector_dims(weighted[0][0], self.graph, self.family)
        d_total = dims.d_total
        y = tuple(z / d_total**2 for z in z_bar)
        return BoundaryFixedSums(
            z_bar=tuple(z_bar),
            y=y,
            d_total=d_total,
            sector_count=len(weighted),
        )

    def partition_table(
        self, sectors: Optional[Sequence[SpinSector]] = None
    ) -> PartitionSumTable:
        """Kernels, ground-state data, K factors, boundary sums, totals.

        Totals include every sector pair (also pairs with different boundary
        spins); the boundary rows are the boundary-diagonal restrictions.
        All pair kernels come from one `_pair_kernels` call: for the
        bulk-to-boundary kind, one energy matrix per replica reduced once per
        set of differing links; for the boundary-to-boundary kind, one
        enumeration per (pair, replica).
        """
        weighted = self._weighted_sectors(sectors)
        kernels = self._pair_kernels([sec for sec, _ in weighted])
        z, e_min, degeneracy, gap = (
            x.tolist() for x in (kernels.z, kernels.e_min, kernels.degeneracy, kernels.gap)
        )
        labels = [sec.label() for sec, _ in weighted]
        keys = [sec.boundary_part() for sec, _ in weighted]

        rows: List[PairRow] = []
        totals_pos: Dict[int, List[float]] = {0: [], 1: []}
        totals_neg: Dict[int, List[float]] = {0: [], 1: []}
        by_boundary: Dict[Tuple, Dict[int, Tuple[List[float], List[float]]]] = {}
        boundary_reps: Dict[Tuple, SpinSector] = {}
        for a, (sec_j, kf_j) in enumerate(weighted):
            for b, (_, kf_k) in enumerate(weighted):
                pair_id = f"{labels[a]}|{labels[b]}"
                for replica in (0, 1):
                    z_pair = z[a][b][replica]
                    rows.append(
                        PairRow(
                            pair_id=pair_id,
                            replica=replica,
                            z=z_pair,
                            e_min=e_min[a][b][replica],
                            degeneracy=degeneracy[a][b][replica],
                            gap=gap[a][b][replica],
                        )
                    )
                    if z_pair != 0.0:
                        log_mag = (
                            kf_j.log_value + kf_k.log_value + math.log(abs(z_pair))
                        )
                        bucket = totals_pos if z_pair > 0 else totals_neg
                        bucket[replica].append(log_mag)
                        if keys[a] == keys[b]:
                            boundary_reps.setdefault(keys[a], sec_j)
                            slot = by_boundary.setdefault(
                                keys[a], {0: ([], []), 1: ([], [])}
                            )
                            (slot[replica][0] if z_pair > 0 else slot[replica][1]).append(
                                log_mag
                            )
        totals = (
            _signed_sum(totals_pos[0], totals_neg[0]),
            _signed_sum(totals_pos[1], totals_neg[1]),
        )
        boundary_rows = []
        for key in sorted(by_boundary):
            rep = boundary_reps[key]
            dims = sector_dims(rep, self.graph, self.family)
            z0 = _signed_sum(*by_boundary[key][0])
            z1 = _signed_sum(*by_boundary[key][1])
            boundary_rows.append(
                BoundarySumRow(
                    boundary_id=",".join(f"{lid}={Spin(t)}" for lid, t in key),
                    z_bar=(z0, z1),
                    y=(z0 / dims.d_total**2, z1 / dims.d_total**2),
                    d_total=dims.d_total,
                )
            )
        k_factors = tuple(
            (label, kf.value) for label, (_, kf) in zip(labels, weighted)
        )
        return PartitionSumTable(
            rows=tuple(rows),
            k_factors=k_factors,
            boundary_rows=tuple(boundary_rows),
            totals=totals,
        )
