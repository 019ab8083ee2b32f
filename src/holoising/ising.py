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

Evaluation paths (each states its mechanics and memory):

    bulk tables      `_eliminate`: one elimination over sigma with the
                     S sectors as rows, along the list's one `_plan`; no
                     2^V mask
    boundary tables  `_boundary_entries` walks the 2^V configurations
                     (`_masks`); `_reduce_entries` reduces the entries
    one pair         `_cell_data`: the bulk elimination over [j, k] along
                     the pair's one `_plan`, or the boundary walk over its
                     cell (`_boundary_entries`); `_least` picks the
                     representative, from clamped eliminations along that
                     same plan (bulk) or from the walk's ties (boundary)
    one config       `delta_factor`, `hamiltonian`: `_cell` on the masks
                     of that configuration alone (`_masks_of`), by the pin
                     rule (bulk) or `_boundary_entries` of its cell
                     (boundary)
    limits           `EXHAUSTIVE_LIMIT` bounds the variables of one bulk
                     elimination table (`_check_width`, on each step of
                     `_plan` and on the held table's widest at each held
                     read) and the vertices of a boundary-to-boundary
                     model; the one-config views take any graph
    reference        `tests/ising_reference.py`, the scorer of one
                     configuration at a time that every path is checked on

Data (each states its layout, caching and memory):

    sector sets      `SectorSet`: the per-sector data of one sector list
                     (doubled spins, boundary keys, log K and the factor
                     views of K and H, dimensions), each built on first use
    tables           `PartitionSumTable`: every pair's kernels as
                     (S, S, 2) arrays and their K-weighted sums
                     (`_kernel_sums`, in log domain); its rows, boundary
                     rows and dimensions are views built on first use
    the held pool    `_hold`: the last default bulk-to-boundary pool and
                     its table, which `partition_table` and `sector_set`
                     return and `window_table` slices
    sums             `_scaled_sums`, the one summation rule of every kernel
                     and K-weighted sum, each sum also as (sign, log|Z|)
    reports          `JsonReport`, the one rule that writes every report
                     as JSON, the table's rows and boundary sums included
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .bulk import IntertwinerState
from .graph import BoundaryPartition, OpenGraph
from .spins import (
    SectorFamily,
    Spin,
    SpinSector,
    boundary_twice,
    input_dims,
    intertwiner_dim,  # noqa: F401  (read as ising.intertwiner_dim by perfbench/test_perfbench.py)
    sector_matrix,
    twice_intertwiner_dim,
    vertex_dims,
    vertex_twice,
)

#: Absolute tolerance for counting ground-state ties.
TIE_TOL = 1e-12

#: Most variables (spins plus kept pins) one bulk-to-boundary elimination
#: table spans, and most vertices of a boundary-to-boundary model, whose
#: kernels enumerate the 2^V configurations.
EXHAUSTIVE_LIMIT = 20


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

    def label(self) -> str:
        return "".join("+" if s > 0 else "-" for _, s in self.values)


# -- model kinds ---------------------------------------------------------


@dataclass(frozen=True)
class ModelKind:
    """Which replica average the model encodes.

    The boundary-to-boundary kind carries the input/output split of the
    boundary legs; the bulk-to-boundary kind has no partition (the whole
    boundary is output).  Any other mode, or a partition on the wrong
    kind, is refused.
    """

    mode: str
    partition: Optional[BoundaryPartition] = None

    BULK_TO_BOUNDARY = "bulk_to_boundary"
    BOUNDARY_TO_BOUNDARY = "boundary_to_boundary"

    def __post_init__(self) -> None:
        modes = (ModelKind.BULK_TO_BOUNDARY, ModelKind.BOUNDARY_TO_BOUNDARY)
        if self.mode not in modes:
            raise EngineError(f"unknown model kind {self.mode!r}; expected one of {modes}")
        if self.is_boundary_to_boundary and self.partition is None:
            raise EngineError("boundary-to-boundary kind needs a boundary partition")
        if not self.is_boundary_to_boundary and self.partition is not None:
            raise EngineError("bulk-to-boundary kind has no boundary partition; pass partition=None")

    @staticmethod
    def bulk_to_boundary() -> "ModelKind":
        return ModelKind(mode=ModelKind.BULK_TO_BOUNDARY)

    @staticmethod
    def boundary_to_boundary(partition: BoundaryPartition) -> "ModelKind":
        return ModelKind(
            mode=ModelKind.BOUNDARY_TO_BOUNDARY, partition=partition
        )

    @property
    def is_boundary_to_boundary(self) -> bool:
        return self.mode == ModelKind.BOUNDARY_TO_BOUNDARY


# -- K factors -----------------------------------------------------------


@dataclass(frozen=True)
class KFactor:
    """Sector weight K (log-domain internally) and the sector's output
    dimension D_O."""

    log_value: float
    d_output: int

    @property
    def value(self) -> float:
        return _exp(self.log_value)


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


def _exp(value: float) -> float:
    """math.exp, but +inf where the result does not fit a float64."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _ratio(num: Tuple[int, float], den: Tuple[int, float], log_scale: float = 0.0) -> float:
    """num / den * e^log_scale from the (sign, log|.|) forms of two sums,
    den nonzero: +/-inf or 0 only where the ratio itself leaves float64."""
    return num[0] * den[0] * _exp(num[1] - den[1] + log_scale)


def _shares(log: np.ndarray) -> np.ndarray:
    """e^log / sum e^log, one exp per entry of `log` shifted by its
    maximum; empty where no entry is above -inf."""
    top = log.max(initial=-math.inf)
    if top == -math.inf:
        return log[:0]
    weights = np.exp(log - top)
    return weights / math.fsum(weights.tolist())


def json_value(value):
    """`value` as strict JSON data: a float that is not finite becomes None,
    and an int beyond 2^53 in magnitude its decimal string, so a reader
    that parses numbers as float64 does not round it; a report becomes its
    own `to_json_dict`; mappings, lists, tuples and numpy arrays are
    converted entry by entry."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value) if abs(value) > 2**53 else value
    if isinstance(value, JsonReport):
        return value.to_json_dict()
    if isinstance(value, Mapping):
        return {key: json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_value(item) for item in value]
    if isinstance(value, np.ndarray):
        return json_value(value.tolist())
    return value


def json_field(name: Optional[str], **kwargs):
    """A report field written under the JSON key `name`, or left out of the
    derived dict where `name` is None (its class's override writes it)."""
    return field(metadata={"json": name}, **kwargs)


class JsonReport:
    """Base of the reports: one rule writes every report as JSON.

    A report is a dataclass on `JsonReport`, whose `to_json_dict` is the
    `json_value` of each field under its JSON name.  The name lives at the
    field, as `json_field("Z_0")`, where it differs from the field's own.
    A key that is not one field each (a label made from a field, fields
    zipped into rows, a property or a view built on first read) is
    written by a short override of the class, and the fields it reshapes
    are left out of the derived dict by `json_field(None)`.  A nested
    report, alone or in a tuple, is written by its own `to_json_dict`.
    `json_value` maps each float that is not finite to None and each int
    beyond 2^53 in magnitude to its decimal string, which a reader that
    parses numbers as float64 would round, so every dict dumps as strict
    JSON (`allow_nan=False`): no NaN or Infinity token.
    A table's rows and boundary sums are reports under this rule
    (`PairRow`, `BoundarySumRow`); only the table's top-level keys are its
    own, as `PartitionSumTable` is not a dataclass.  A table's JSON keeps
    its totals and boundary sums in log domain too (`log_totals`,
    `log_Z_bar_0/1`), so a total that overflows reads null as a float but
    stays a finite log."""

    def to_json_dict(self) -> dict:
        return {key: json_value(getattr(self, name)) for key, name in _json_keys(type(self))}


@functools.cache
def _json_keys(cls: type) -> Tuple[Tuple[str, str], ...]:
    """(JSON key, field name) of each field `JsonReport.to_json_dict`
    writes, in field order, computed once per class."""
    return tuple((key, f.name) for f in fields(cls) if (key := f.metadata.get("json", f.name)) is not None)


@dataclass(frozen=True)
class PairRow(JsonReport):
    pair_id: str = json_field("sector_pair_id")
    replica: int
    z: float = json_field("Z")
    e_min: float = json_field("E_min")
    degeneracy: int
    gap: float


@dataclass(frozen=True)
class BoundarySumRow(JsonReport):
    """The K-weighted pair sums of one boundary assignment, per replica,
    and y = Zbar_b / d_total^2.  `log_z_bar` holds each sum as (sign,
    log|Zbar_b|), which stays finite where the float overflows to +/-inf.
    The JSON writes each per-replica pair as two keys, `Z_bar_0/1`, `Y_0/1`
    and `log_Z_bar_0/1`."""

    boundary_id: str
    z_bar: Tuple[float, float] = json_field(None)  # (replica 0, replica 1)
    y: Tuple[float, float] = json_field(None)
    d_total: int = json_field("D_total")
    log_z_bar: Tuple[Tuple[int, float], Tuple[int, float]] = json_field(None)

    def to_json_dict(self) -> dict:
        pairs = (("Z_bar", self.z_bar), ("Y", self.y), ("log_Z_bar", self.log_z_bar))
        return {**super().to_json_dict(), **json_value({f"{key}_{r}": pair[r] for key, pair in pairs for r in (0, 1)})}


class PartitionSumTable(JsonReport):
    """All per-pair kernels plus K factors, boundary sums, and totals of one
    sector set.

    `partition_table` drops the sectors of zero weight and builds the
    table from the weighted set and its kernels; `PartitionSumTable(sectors,
    kernels)` is the table's one constructor, and `take` gives the table of
    a sub-list of the sectors.

    The table is held as arrays over the S sectors of `sectors` (`labels`,
    `log_k` and its float view `k`): `z`, `e_min`, `degeneracy` and `gap`
    have shape (S, S, 2) and are indexed [j, k, replica], so every table
    covers every sector pair (8 bytes an entry, 16 S^2 bytes per field);
    `pair_ids` names the pairs "j|k" in row-major order.  `entropy` and
    `isometry` read the arrays directly.

    Every K-weighted pair sum is one `_kernel_sums` call, `kernel_sums`,
    which reads the table's `log_k` and the set's boundary keys: the
    table's own sums, computed when it is built, are `kernel_sums(z)`, and
    the ground-state sums of `entropy` and `isometry` are those of kernels
    built from `ground_kernel(e_min)`.  Each sum comes as a float and as
    (sign, log|Z_b|), which stays finite where the float overflows;
    `entropy` and `isometry` read the log form, through `_ratio` and
    `_shares`.
    `totals` are Z_0 and Z_1 as floats (+/-inf where they overflow) and
    `log_totals` the same sums as (sign, log|Z_b|).  `log_cancellation`
    holds, per replica, log of the larger sign part of Z_b over |Z_b|, 0
    where no term has the other sign (so for every bulk-to-boundary table).
    Boundary-diagonal sums are indexed by the set's boundary keys: `z_bar`,
    `log_z_bar`, `y` and `d_total` hold one entry per key, and
    `boundary_keys` lists the keys that have a row.  The sums at one
    boundary are the one boundary row of that boundary's `window_table`,
    and the table's labels count its sectors.

    `rows`, `k_factors`, `boundary_rows`, `d_total` and `y` are views built
    on first use, so the family's bulk box (`SectorSet.d_input`) is not
    enumerated until a dimension is read.  `to_json_dict` writes `rows`
    and `boundary_rows` by the report rule (`PairRow`, `BoundarySumRow`),
    and `k_factors`, `totals` and `log_totals` under keys of its own.
    """

    def __init__(self, sectors: "SectorSet", kernels: "_PairKernels"):
        self.sectors = sectors
        self._kernels = kernels
        self.labels = sectors.labels
        self.log_k = sectors.log_k
        self.k = np.array([_exp(v) for v in self.log_k.tolist()])
        self.z, self.e_min, self.degeneracy, self.gap = (
            kernels.z, kernels.e_min, kernels.degeneracy, kernels.gap
        )
        sums = self.kernel_sums(kernels.z)
        self.totals, self.log_totals = sums.totals, sums.log_totals
        self.log_cancellation = sums.log_cancellation
        self.boundary_keys = sums.keys_with_rows
        self.z_bar, self.log_z_bar = sums.z_bar, sums.log_z_bar

    def take(self, index: np.ndarray) -> "PartitionSumTable":
        """The table of the sectors at `index`: this table where `index`
        lists every sector in order, else one built from the `take` of the
        sector set (which keeps its labels) and of the kernels, as fresh
        arrays.  A kernel depends only on its pair's spins, so the bits
        are those of computing it."""
        index = np.asarray(index, dtype=np.int64)
        if np.array_equal(index, np.arange(len(self.labels))):
            return self
        return PartitionSumTable(self.sectors.take(index), self._kernels.take(index))

    def kernel_sums(self, kernel: np.ndarray) -> _KernelSums:
        """`_kernel_sums` of an (S, S, 2) kernel array under this table's
        log K and boundary keys; the table's own sums are `kernel_sums(z)`."""
        return _kernel_sums(kernel, self.log_k, self.sectors.key, len(self.sectors.keys))

    @functools.cached_property
    def d_total(self) -> List[int]:
        """D_E = D_I D_O per boundary key, 0 for a key without a row."""
        d_total = [0] * len(self.z_bar)
        for c, d_in in zip(self.boundary_keys, self.sectors.d_input(self.boundary_keys)):
            d_total[c] = d_in * self.sectors.d_output(c)
        return d_total

    @functools.cached_property
    def y(self) -> List[Tuple[float, float]]:
        """Zbar_b / D_E^2 per boundary key, (0, 0) for a key without a row."""
        y = [(0.0, 0.0)] * len(self.z_bar)
        for c in self.boundary_keys:
            y[c] = tuple(sign * _exp(log - 2.0 * math.log(self.d_total[c])) for sign, log in self.log_z_bar[c])
        return y

    @functools.cached_property
    def pair_ids(self) -> List[str]:
        labels = self.labels
        return [f"{a}|{b}" for a in labels for b in labels]

    @functools.cached_property
    def rows(self) -> Tuple[PairRow, ...]:
        cells = [x.reshape(-1, 2).tolist() for x in (self.z, self.e_min, self.degeneracy, self.gap)]
        return tuple(
            PairRow(pid, r, z[r], e_min[r], degeneracy[r], gap[r])
            for pid, z, e_min, degeneracy, gap in zip(self.pair_ids, *cells)
            for r in (0, 1)
        )

    @functools.cached_property
    def k_factors(self) -> Tuple[Tuple[str, float], ...]:
        return tuple(zip(self.labels, self.k.tolist()))

    @functools.cached_property
    def boundary_rows(self) -> Tuple[BoundarySumRow, ...]:
        ids = self.sectors.boundary_ids
        return tuple(
            BoundarySumRow(ids[c], self.z_bar[c], self.y[c], self.d_total[c], self.log_z_bar[c])
            for c in self.boundary_keys
        )

    def to_json_dict(self) -> dict:
        return json_value({
            "rows": self.rows,
            "k_factors": dict(self.k_factors),
            "boundary_sums": self.boundary_rows,
            "totals": {"Z_0": self.totals[0], "Z_1": self.totals[1]},
            "log_totals": {"Z_0": self.log_totals[0], "Z_1": self.log_totals[1]},
        })


def _scaled_sums(bucket: np.ndarray, log: np.ndarray, negative: np.ndarray, count: int) -> Tuple[np.ndarray, ...]:
    """The sums of signed terms over `count` buckets at once: term i, of
    bucket `bucket[i]`, is -e^log[i] where `negative[i]`, else +e^log[i].
    Returns, per bucket, (total, sign, log|total|, cancellation) arrays.

    The summation rule of every kernel and K-weighted sum.  One stable
    argsort groups the terms by bucket and sign, each group in the order
    given.  Each bucket is scaled by its largest log term m
    (`np.maximum.reduceat`), and its positive and negative parts P and N,
    sums of e^(log - m), are each summed by `np.add.reduceat` (the first
    term plus the pairwise sum of the rest).  Then total = e^m (P - N),
    log|total| = m + log|P - N|, and cancellation = log max(P, N) -
    log|P - N|, the log of the larger part over |total|: 0 where the
    terms have one sign, +inf where the parts cancel exactly.  A bucket's
    result depends on its own terms and their order alone, so it has the
    bits of summing that bucket alone.  A bucket with no term, or only
    terms e^-inf = 0, gives (0.0, 0, -inf, 0.0).  The total is +/-inf
    where it leaves float64; its sign and log stay finite.
    """
    ids = 2 * bucket + negative
    log = log[np.argsort(ids.astype(np.min_scalar_type(2 * count)), kind="stable")]
    sizes = np.bincount(ids, minlength=2 * count)  # per (bucket, sign)
    ends = np.cumsum(sizes)
    parts, lengths = sizes > 0, sizes[0::2] + sizes[1::2]
    filled = lengths > 0
    top = np.maximum.reduceat(log, (ends[1::2] - lengths)[filled])
    top[np.isneginf(top)] = 0.0  # a bucket of zero terms is left unscaled
    log -= np.repeat(top, lengths[filled])
    np.exp(log, out=log)
    sums, scale = np.zeros(2 * count), np.zeros(count)
    sums[parts] = np.add.reduceat(log, (ends - sizes)[parts])
    scale[filled] = top
    pos, neg = sums[0::2], sums[1::2]
    diff = pos - neg
    sign = np.sign(diff).astype(np.int64)
    larger = np.maximum(pos, neg)
    total, cancellation = np.zeros(count), np.zeros(count)
    nonzero, some = diff != 0.0, larger > 0.0
    with np.errstate(divide="ignore", over="ignore"):
        log_diff = np.log(np.abs(diff))
        total[nonzero] = np.exp(scale[nonzero]) * diff[nonzero]
        big = np.isinf(total)  # e^m overflows, or the total itself
        total[big] = sign[big] * np.exp(scale[big] + log_diff[big])
    cancellation[some] = np.log(larger[some]) - log_diff[some]
    return total, sign, scale + log_diff, cancellation


def _refuse_repeats(rows: Sequence[tuple], name: Callable[[int], str]) -> None:
    """EngineError where one of `rows` equals an earlier one, naming the
    repeat by `name(index)`: a table would hold that sector twice."""
    first: Dict[tuple, int] = {}
    for i, row in enumerate(rows):
        if first.setdefault(row, i) != i:
            raise EngineError(f"{name(i)} is listed twice; a table holds each sector once")


def _memo_column(values: Iterable, term) -> List[float]:
    """term(v) of every entry v of `values`, evaluated once per distinct v."""
    known: Dict = {}
    return [known[v] if v in known else known.setdefault(v, term(v)) for v in values]


def _log_weight(value) -> float:
    """math.log of a nonnegative number, -inf for 0."""
    return math.log(value) if value > 0 else -math.inf


@dataclass(frozen=True)
class _KernelSums:
    """K-weighted kernel sums, named as in `PartitionSumTable`: per
    replica over all pairs (`totals`, `log_totals`) and over the pairs whose
    two sectors share boundary key c (`z_bar[c]`, `log_z_bar[c]`).
    `keys_with_rows` lists the keys with a nonzero kernel in their block.
    `log_cancellation` is, per replica, log of the larger of the two sign
    parts of the total over |total| (`_scaled_sums`): 0 where every term
    has one sign, large where the signed terms cancel."""

    totals: Tuple
    log_totals: Tuple
    z_bar: List[Tuple]
    log_z_bar: List[Tuple]
    keys_with_rows: Tuple[int, ...]
    log_cancellation: Tuple[float, float]


def _kernel_sums(z: np.ndarray, log_k: np.ndarray, key: np.ndarray, nkeys: int) -> _KernelSums:
    """Sum K_j K_k Z^(j,k)_b over all pairs of the (S, S, 2) kernel array
    `z` and over each boundary key's diagonal block (`key[j]` is sector
    j's code, below `nkeys`), by one `_scaled_sums` call.  Each nonzero
    kernel is the log term (log K_j + log K_k) + log|Z| (`np.log`) in the
    bucket of its replica and slot, slot 0 for the total and c + 1 for key
    c, so a term of a diagonal block lands in two buckets, each in
    row-major pair order.  Each sum comes as (sign, log|Z_b|), which never
    overflows, and as a float, +/-inf where it leaves float64; its two
    sign parts give `log_cancellation`, the log of the larger part over
    |Z_b|."""
    count, slots = len(log_k), nkeys + 1
    flat = z.reshape(count * count, 2)
    pair, replica = np.nonzero(flat)
    values = flat[pair, replica]
    j, k = np.divmod(pair, count)
    logs = (log_k[j] + log_k[k]) + np.log(np.abs(values))
    negative = values < 0.0
    diagonal = np.flatnonzero(key[j] == key[k])
    owner = key[j[diagonal]]
    bucket = np.concatenate([replica * slots, replica[diagonal] * slots + owner + 1])
    sums = _scaled_sums(
        bucket, np.concatenate([logs, logs[diagonal]]), np.concatenate([negative, negative[diagonal]]), 2 * slots
    )
    total, sign, log, cancellation = (x.reshape(2, slots).tolist() for x in sums)
    return _KernelSums(
        totals=(total[0][0], total[1][0]),
        log_totals=((sign[0][0], log[0][0]), (sign[1][0], log[1][0])),
        z_bar=list(zip(total[0][1:], total[1][1:])),
        log_z_bar=[((s0, l0), (s1, l1)) for s0, l0, s1, l1 in zip(sign[0][1:], log[0][1:], sign[1][1:], log[1][1:])],
        keys_with_rows=tuple(np.flatnonzero(np.bincount(owner, minlength=nkeys)).tolist()),
        log_cancellation=(cancellation[0][0], cancellation[1][0]),
    )


def ground_kernel(e_min: np.ndarray) -> np.ndarray:
    """e^{-E_min} entry by entry with `math.exp`, 0 where E_min is infinite."""
    return np.array(
        [math.exp(-e) if math.isfinite(e) else 0.0 for e in e_min.ravel().tolist()],
        dtype=float,
    ).reshape(e_min.shape)


@dataclass(frozen=True)
class _PairKernels:
    """Kernels and ground-state data of every ordered pair of a sector list,
    each an (S, S, 2) array indexed [j, k, replica]: the fields a table
    reports.  The configuration of a ground state is not among them;
    `IsingModel.ground_state` finds it."""

    z: np.ndarray
    e_min: np.ndarray
    degeneracy: np.ndarray
    gap: np.ndarray

    def at(self, index) -> Tuple:
        """(z, e_min, degeneracy, gap) at `index`."""
        return self.z[index], self.e_min[index], self.degeneracy[index], self.gap[index]

    def take(self, index: np.ndarray) -> "_PairKernels":
        """The kernels of the pairs of the sectors at `index`, as fresh
        arrays."""
        return _PairKernels(*self.at(np.ix_(index, index)))


def _merge(m: np.ndarray, rest: Tuple, axis: int, keep: bool) -> Tuple:
    """The table (m, (weight, count, slack)) summing out the spin on `axis`
    of the product (m, rest) of `IsingModel._eliminate`: the halves merge
    on the lower m, one within `TIE_TOL` of it adding its count and its
    slack as a next level, one above offering its m, and the weights add,
    scaled by e^-(m - lower m).  Where `keep` the axis stays, the kept pin:
    index 0 the inactive half, index 1 the merged one."""
    weight, count, slack = rest
    low = m.min(axis, keepdims=True)
    above = m - low
    tied = above <= TIE_TOL
    merged = (low, (weight * np.exp(low - m)).sum(axis, keepdims=True), (count * tied).sum(axis, keepdims=True),
              np.where(tied, slack + above, above).min(axis, keepdims=True))
    if not keep:
        return merged[0].squeeze(axis), tuple(x.squeeze(axis) for x in merged[1:])
    inactive = (slice(None),) * axis + (slice(0, 1),)
    tables = [np.concatenate([np.broadcast_to(x, m.shape)[inactive], y], axis) for x, y in zip((m, *rest), merged)]
    return tables[0], tuple(tables[1:])


def _check_width(width: int) -> None:
    """Refuses an elimination table over `width` variables, of which there
    are never more than V, where that is more than `EXHAUSTIVE_LIMIT`."""
    if width > EXHAUSTIVE_LIMIT:
        raise EngineError(
            f"an elimination table spans {width} variables (spins plus kept pins), more than "
            f"EXHAUSTIVE_LIMIT = {EXHAUSTIVE_LIMIT}; it holds 2 x S x 2^{width} entries.  Raise "
            f"holoising.ising.EXHAUSTIVE_LIMIT to go further, at that memory, or superpose fewer links"
        )


# -- sector sets -----------------------------------------------------------


class SectorSet:
    """Per-sector data of one sector list of a model, computed once.

    The set is built from `twice`, the S x L matrix of doubled link spins
    (columns in `graph.link_ids()` order), which the batched kernels read.
    `IsingModel.sector_set` builds one per sector pool: a bulk-to-boundary
    pool is the family's `spins.sector_matrix`, a boundary-to-boundary
    pool holds the state's sectors.  Boundary assignments are integer
    codes: `key[a]` indexes `keys`, the list's distinct boundary spin
    tuples (columns in `graph.boundary_ids()` order) in sorted order.
    The `SpinSector` objects (`sectors`), labels, log K per sector (-inf
    for zero weight) and its factor views, intertwiner dimensions per
    sector and vertex, and D_I, D_O per boundary key are computed on first
    use, so a matrix pool makes `SpinSector`s only for the rows a consumer
    iterates after `weighted()` drops the zero-weight ones.  The set keeps
    the model's graph, family, kind and state, not the model and its
    configuration masks.

    The factor views are the one source of the terms of K and H:
    `link_log_d` (S x L, log d), `amplitude` (S x internal links, |g|) and
    `vertex_log_d` (S x V, log D, -inf where D = 0); `_memo_column` fills
    each column, evaluating its term once per distinct spin or vertex spin
    tuple (`spins.vertex_twice`).  Memory: 8 (L + L_int + V) bytes per
    sector, for L_int internal links.  log K (`log_k`, the one sum of K),
    the energies of both kinds and the admissibility tests of `entropy`
    and `isometry` read them; the oracle (which checks the engine),
    `isometry.scaling_constraint_g` (one link's spins) and
    `entropy.high_spin_energies` (bare sectors, no model) keep their own.
    Dimensions come from the one evaluator of `spins`: `vertex_dims` gives
    D per row and vertex, and `input_dims` gives D_I per key from one
    enumeration of the family's bulk spin assignments, shared by every
    key; the set memoizes D_I per key.
    """

    def __init__(self, model: "IsingModel", twice: np.ndarray, sectors: Optional[Sequence[SpinSector]] = None):
        self.graph, self.family, self.kind, self.state = (
            model.graph, model.family, model.kind, model.state
        )
        self._d_input: Dict[Tuple[int, ...], int] = {}   # boundary key -> D_I
        self._select(twice)
        if sectors is not None:
            self.__dict__["sectors"] = tuple(sectors)

    def _select(self, twice: np.ndarray) -> None:
        self.twice = twice
        boundary = [tuple(row) for row in twice[:, len(self.graph.internal_ids()):].tolist()]
        self.keys = sorted(set(boundary))
        code = {k: c for c, k in enumerate(self.keys)}
        self.key = np.array([code[k] for k in boundary], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.twice)

    #: The per-sector arrays `take` carries and `_hold` makes read-only.
    ARRAYS = ("log_k", "link_log_d", "amplitude", "vertex_log_d")

    def take(self, index: np.ndarray) -> "SectorSet":
        """The sectors at `index`, sharing the caches and keeping the
        per-sector views already built."""
        index = np.asarray(index, dtype=np.int64)
        subset = copy.copy(self)
        subset.__dict__.pop("boundary_ids", None)
        subset._select(self.twice[index])
        rows = index.tolist()
        for name in ("sectors", "labels", "vertex_dims"):
            if name in self.__dict__:
                subset.__dict__[name] = tuple(map(self.__dict__[name].__getitem__, rows))
        for name in self.ARRAYS:
            if name in self.__dict__:
                subset.__dict__[name] = self.__dict__[name][index]
        return subset

    def weighted(self) -> "SectorSet":
        """The sectors with nonzero weight K, in order."""
        finite = np.isfinite(self.log_k)
        return self if finite.all() else self.take(np.flatnonzero(finite))

    @functools.cached_property
    def sectors(self) -> Tuple[SpinSector, ...]:
        """The `SpinSector` of every row of `twice`."""
        graph, links = self.graph, self.graph.link_ids()
        return tuple(SpinSector(graph, tuple(zip(links, row))) for row in self.twice.tolist())

    @functools.cached_property
    def labels(self) -> Tuple[str, ...]:
        return tuple(",".join(parts) for parts in self._parts(self.graph.link_ids(), self.twice.tolist()))

    @functools.cached_property
    def boundary_ids(self) -> Tuple[str, ...]:
        """Boundary labels ("lid=spin,...") of `keys`."""
        return tuple(",".join(parts) for parts in self._parts(self.graph.boundary_ids(), self.keys))

    @staticmethod
    def _parts(link_ids: Sequence[str], rows) -> List[List[str]]:
        text: Dict[Tuple[str, int], str] = {}
        out = []
        for row in rows:
            parts = []
            for lid, t in zip(link_ids, row):
                part = text.get((lid, t))
                if part is None:
                    part = text[(lid, t)] = f"{lid}={Spin(t)}"
                parts.append(part)
            out.append(parts)
        return out

    @functools.cached_property
    def vertex_dims(self) -> Tuple[Tuple[int, ...], ...]:
        """D(j^x) of every sector (rows) and vertex (graph order)."""
        return vertex_dims(self.graph, self.twice)

    @functools.cached_property
    def link_log_d(self) -> np.ndarray:
        """log d = log(2j + 1) of every sector (rows) and link (columns in
        `graph.link_ids()` order)."""
        return self._factors(self.twice.shape[1], ((c, lambda t: math.log(t + 1)) for c in self.twice.T.tolist()))

    @functools.cached_property
    def amplitude(self) -> np.ndarray:
        """|g| of every sector and internal link (`graph.internal_ids()` order)."""
        ids, g = self.graph.internal_ids(), self.family.g
        columns = zip(ids, self.twice[:, : len(ids)].T.tolist())
        return self._factors(len(ids), ((c, lambda t, lid=lid: abs(g(lid, Spin(t)))) for lid, c in columns))

    @functools.cached_property
    def vertex_log_d(self) -> np.ndarray:
        """log D(j^x) of every sector and vertex (graph order), -inf where
        D = 0, read from the cache of `spins.twice_intertwiner_dim`."""
        term = lambda key: _log_weight(twice_intertwiner_dim(key))  # noqa: E731
        return self._factors(len(self.graph.vertices), ((rows, term) for rows in vertex_twice(self.graph, self.twice)))

    def _factors(self, width: int, columns) -> np.ndarray:
        """S x `width`: column i is the `_memo_column` of the i-th (values, term)."""
        out = np.empty((len(self), width))
        for i, (values, term) in enumerate(columns):
            out[:, i] = _memo_column(values, term)
        return out

    @functools.cached_property
    def log_k(self) -> np.ndarray:
        """log K per sector, the factor views summed column by column: log d
        of the boundary links, log |g|^2 of the internal links, then the
        state weight or log D of the vertices.  `IsingModel.k_factor` is
        the one-sector case."""
        log_k = np.zeros(len(self))
        for column in self.link_log_d[:, len(self.graph.internal_ids()) :].T:
            log_k += column
        for column in self.amplitude.T.tolist():
            log_k += _memo_column(column, lambda m: 2.0 * _log_weight(m))
        if self.kind.is_boundary_to_boundary:
            log_k += [_log_weight(self.state.weight(sec)) for sec in self.sectors]
        else:
            for column in self.vertex_log_d.T:
                log_k += column
        return log_k

    def d_input(self, codes: Sequence[int]) -> List[int]:
        """D_I(E) of the boundary keys `codes` (`spins.input_dims`),
        memoized per key."""
        keys = [self.keys[c] for c in codes]
        missing = [key for key in dict.fromkeys(keys) if key not in self._d_input]
        self._d_input.update(zip(missing, input_dims(self.family, self.graph, missing)))
        return [self._d_input[key] for key in keys]

    def d_output(self, code: int) -> int:
        """D_O(E) of boundary key `code`."""
        return math.prod(t + 1 for t in self.keys[code])


# -- the held family pool -------------------------------------------------


@dataclass(frozen=True)
class _HeldPool:
    """The default bulk-to-boundary pool of one (family, graph) and its
    table, both read-only, and the variables of the widest table of the
    elimination that built it."""

    family: SectorFamily
    graph: OpenGraph
    pool: SectorSet
    table: PartitionSumTable
    width: int


#: The pool of the (family, graph) whose default bulk-to-boundary table was
#: built last (`IsingModel.partition_table`), or None.
_held: Optional[_HeldPool] = None


def _hold(model: "IsingModel", pool: SectorSet, weighted: SectorSet, kernels: _PairKernels, plan: Tuple) -> PartitionSumTable:
    """Make `pool` and the table of its weighted sectors, built along
    `plan` (`IsingModel._plan`), the held pool of the model's (family,
    graph), keyed by the identity of both; returns the table.

    It replaces the pool held before, also that of an equal family or
    graph.  The held arrays are made read-only, and D_I of every boundary
    key is memoized from the pool's own rows.  `IsingModel.partition_table`
    returns the held table while the pool holds the asking model's family
    and graph, and `IsingModel.window_table` returns, where every boundary
    of its window lies in the held pool's box, the held table's `take` of
    each boundary's rows in turn, as fresh arrays with the held labels
    (else it enumerates the window boundary by boundary, never the whole
    family).  Memory: the last default pool with its factor views, plus 5
    x 2S^2 kernel entries (8 bytes each) of its S weighted sectors and the
    width of the plan's widest table, against which each held read checks
    `EXHAUSTIVE_LIMIT`, kept until another family's default table replaces
    them."""
    global _held
    # Reading a view builds it if need be (log_k of a bulk-to-boundary set
    # has built them all), so the held sets get no writable view later.
    views = [getattr(sectors, name) for sectors in (pool, weighted) for name in ("twice", *SectorSet.ARRAYS)]
    for array in (*views, kernels.z, kernels.e_min, kernels.degeneracy, kernels.gap):
        array.flags.writeable = False
    # The pool holds every bulk completion of each of its boundary keys, so
    # D_I of a key is the sum of prod_x D(j^x) over its rows, the integer
    # `spins.input_dims` computes.
    d_input = dict.fromkeys(range(len(pool.keys)), 0)
    for c, dims in zip(pool.key.tolist(), pool.vertex_dims):
        d_input[c] += math.prod(dims)
    pool._d_input.update((pool.keys[c], d) for c, d in d_input.items())
    table = PartitionSumTable(weighted, kernels)
    _held = _HeldPool(model.family, model.graph, pool, table, max(len(union) for _, _, union in plan[2]))
    return table


# -- the model -----------------------------------------------------------


class IsingModel:
    """Evaluator for one graph + sector family + model kind.

    The boundary-to-boundary kind additionally needs the bulk intertwiner
    state whose partial traces define its Delta and Hamiltonian data; the
    bulk-to-boundary kind reads no state and refuses one.
    """

    def __init__(
        self,
        graph: OpenGraph,
        family: SectorFamily,
        kind: ModelKind,
        state: Optional[IntertwinerState] = None,
    ):
        self.graph = graph
        self.family = family
        self.kind = kind
        self.state = state
        if kind.is_boundary_to_boundary:
            kind.partition.validate(graph)
            if state is None:
                raise EngineError(
                    "boundary-to-boundary model needs a bulk intertwiner state"
                )
        elif state is not None:
            raise EngineError(
                "bulk-to-boundary model reads no bulk state; pass state=None"
            )

    # -- pieces ----------------------------------------------------------

    def boundary_pin(self, link_id: str, replica: int) -> int:
        """Pinned Ising value of the virtual vertex behind a boundary leg."""
        if (
            self.kind.is_boundary_to_boundary
            and replica == 1
            and link_id in self.kind.partition.input_region
        ):
            return -1
        return +1

    def k_factor(self, sector: SpinSector) -> KFactor:
        """Sector weight K for this model kind (zero-weight sectors give
        log K = -inf, which drops them from every sum): log K and D_O of
        the one-sector `SectorSet`."""
        sectors = self.sector_set([sector])
        return KFactor(log_value=float(sectors.log_k[0]), d_output=sectors.d_output(0))

    # -- Delta and H -----------------------------------------------------

    def _check_pair(self, j: SpinSector, k: SpinSector, replica: int) -> None:
        if replica not in (0, 1):
            raise EngineError(f"replica must be 0 or 1, got {replica!r}")
        if j.graph is not self.graph and j.graph != self.graph:
            raise EngineError("sector j belongs to a different graph")
        if k.graph is not self.graph and k.graph != self.graph:
            raise EngineError("sector k belongs to a different graph")

    def _cell(
        self, j: SpinSector, k: SpinSector, config: IsingConfig, replica: int
    ) -> Tuple[float, Optional[float]]:
        """(Delta, H) of one configuration, H None where Delta = 0, from the
        masks of this configuration alone (`_masks_of`), so
        `EXHAUSTIVE_LIMIT` does not apply.  The configuration must name
        every vertex of the graph and no other, as `IsingConfig.make`
        checks.

        Bulk-to-boundary: the pin rule of `_eliminate` on this replica's
        mask; Delta is 1, H is j's alone, its `_cut_energies` (replica 0's
        cut is both replicas' here) plus log D of each active vertex in
        graph order (+inf where D = 0).
        Boundary-to-boundary: the `_boundary_entries` of this one cell (of
        [j] alone where k = j, so that each block is taken once), Delta the
        cosine and H the energy."""
        self._check_pair(j, k, replica)
        config = IsingConfig.make(self.graph, config.sigma)
        down = np.array([s < 0 for _, s in config.values], dtype=bool)[:, None]
        if self.kind.is_boundary_to_boundary:
            pool = [j] if j == k else [j, k]
            _, _, delta, _, energy = self._boundary_entries(self.sector_set(pool), down, (0, len(pool) - 1, replica))
            return (float(delta[0]), float(energy[0])) if delta.size else (0.0, None)
        sectors = self.sector_set([j, k])
        cut, incidence = self._masks_of(down)
        active, differs = (down, ~down)[replica], sectors.twice[0] != sectors.twice[1]
        if active[incidence @ differs].any() or replica == 1 and differs[len(self.graph.internal_ids()) :].any():
            return 0.0, None
        energy = self._cut_energies(sectors.take(np.arange(1)), cut[:1])[0, 0]
        for p, lam in enumerate(sectors.vertex_log_d[0].tolist()):
            np.add(energy, lam if lam > -math.inf else math.inf, out=energy, where=active[p])
        return 1.0, float(energy[0])

    def delta_factor(
        self, j: SpinSector, k: SpinSector, config: IsingConfig, replica: int
    ) -> float:
        """Constraint factor of one configuration (`_cell`).

        Kronecker deltas give 0 or 1; the boundary-to-boundary kind folds in
        the Hilbert-Schmidt cosine of the traced blocks, which carries its
        sign if an overlap happens to be negative.
        """
        return self._cell(j, k, config, replica)[0]

    def hamiltonian(
        self, j: SpinSector, k: SpinSector, config: IsingConfig, replica: int
    ) -> float:
        """H of one allowed configuration (`_cell`); `ContractViolation`
        where Delta = 0."""
        _, energy = self._cell(j, k, config, replica)
        if energy is None:
            raise ContractViolation(
                f"Hamiltonian undefined on the forbidden configuration "
                f"{config.label()} (replica {replica})"
            )
        return energy

    # -- configuration sums ----------------------------------------------

    def _check_limit(self) -> int:
        nv = len(self.graph.vertices)
        if nv > EXHAUSTIVE_LIMIT:
            raise EngineError(
                f"{nv} vertices exceed EXHAUSTIVE_LIMIT = {EXHAUSTIVE_LIMIT}; "
                f"boundary-to-boundary kernels enumerate all 2^V configurations.  Raise "
                f"holoising.ising.EXHAUSTIVE_LIMIT to go further, at 2^{nv} time and memory"
            )
        return nv

    @functools.cached_property
    def _down(self) -> np.ndarray:
        """Boolean mask over all configurations, built once: down[p, i] is
        True where configuration i has spin -1 on vertex p, that is where
        bit V-1-p of i is set (the first vertex varies slowest)."""
        nv = self._check_limit()
        return ((np.arange(2**nv) >> np.arange(nv - 1, -1, -1)[:, None]) & 1).astype(bool)

    def _masks_of(self, down: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(cut, incidence) of the configurations of `down` (vertices x
        configurations, True where a vertex has spin -1).  `cut` (2, links,
        configurations) is boolean, links in `link_ids` order, so that each
        row is contiguous: cut[b, l] marks where link l is cut in replica
        b, a boundary leg ending on a virtual vertex pinned as
        `boundary_pin` says.  `incidence` (vertices x links) marks the
        links at each vertex."""
        row = {x: p for p, x in enumerate(self.graph.vertices)}
        links = self.graph.link_ids()
        cut = np.empty((2, len(links), down.shape[1]), dtype=bool)
        incidence = np.zeros((len(row), len(links)), dtype=bool)
        for li, lid in enumerate(links):
            src, tgt = self.graph.endpoints(lid)
            incidence[row[src], li] = True
            if tgt in row:
                incidence[row[tgt], li] = True
                cut[:, li] = down[row[src]] != down[row[tgt]]
            else:
                for replica in (0, 1):
                    pin_down = self.boundary_pin(lid, replica) < 0
                    cut[replica, li] = down[row[src]] != pin_down
        return cut, incidence

    @functools.cached_property
    def _masks(self) -> Tuple[np.ndarray, np.ndarray]:
        """`_masks_of` every configuration (`_down`), built once."""
        return self._masks_of(self._down)

    @staticmethod
    def _cut_energies(sectors: SectorSet, cut: np.ndarray) -> np.ndarray:
        """The cut energy of every sector of `sectors` on the configurations
        of `cut` (replicas x links x configurations, `_masks_of`): energy
        (replicas x sectors x configurations) adds log d over the cut links
        in `link_ids` order with `np.add(..., where=)`, which leaves the
        other entries alone."""
        energy = np.zeros((len(cut), len(sectors), cut.shape[2]))
        for li, lam in enumerate(sectors.link_log_d.T):
            np.add(energy, lam[None, :, None], out=energy, where=cut[:, li, None])
        return energy

    @functools.cached_property
    def _order(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int, int], ...]]:
        """(order, links): the vertices (graph indices) by minimum degree
        with fill-in over the internal links, ties to the lower index, and
        (column, a, b), a < b, of each internal link that is no loop (a
        loop is never cut).  Both depend on the graph alone."""
        row = {x: p for p, x in enumerate(self.graph.vertices)}
        ends = [sorted(row[x] for x in self.graph.endpoints(lid)) for lid in self.graph.internal_ids()]
        links = tuple((li, a, b) for li, (a, b) in enumerate(ends) if a != b)
        near = [{b if a == p else a for _, a, b in links if p in (a, b)} for p in range(len(row))]
        left, order = set(row.values()), []
        while left:
            p = min(left, key=lambda v: (len(near[v]), v))
            left.remove(p)
            for a in near[p]:
                near[a] = (near[a] | near[p]) - {a, p}
            order.append(p)
        return tuple(order), links

    def _plan(self, twice: np.ndarray) -> Tuple[List[List[int]], List, List]:
        """(varying, scopes, steps), the elimination plan of the sector list
        of `twice`: per vertex, the columns of its links on which rows of
        `twice` differ (some pair of the rows pins the vertex where it is
        not empty); the variables (graph indices, ascending) of each table
        (a leaf per vertex, then per link of `_order`, then each step's
        result); and the steps (p, bucket, union), each the product of the
        live tables that hold spin p over their `union` (p None: of the
        tables left).  Axis p holds spin p up to its step, then p's kept pin
        where `varying[p]`.  The plan depends on the graph and on the links
        where the list varies alone.  Refuses (`_check_width`) at the first
        step whose table is too wide."""
        varies = (twice != twice[:1]).any(axis=0).tolist()
        column = {lid: i for i, lid in enumerate(self.graph.link_ids())}
        varying = [[column[lid] for lid in self.graph.links_at(x) if varies[column[lid]]] for x in self.graph.vertices]
        order, links = self._order
        scopes = [(p,) for p in range(len(varying))] + [(a, b) for _, a, b in links]
        live, steps = list(range(len(scopes))), []
        for p in (*order, None):
            bucket = [f for f in live if p is None or p in scopes[f]]
            union = tuple(sorted(set().union(*(scopes[f] for f in bucket))))
            _check_width(len(union))
            steps.append((p, bucket, union))
            live = [f for f in live if f not in bucket] + [len(scopes)]
            scopes.append(tuple(v for v in union if v != p or varying[p]))
        return varying, scopes, steps

    def _eliminate(self, sectors: SectorSet, plan: Optional[Tuple] = None, clamp=0.0) -> _PairKernels:
        """Kernels and ground-state data of every ordered pair of `sectors`
        in both bulk-to-boundary replicas: one bucket elimination over sigma
        along `plan`, the `_plan` of `sectors` (planned here if None), whose
        rows are the S sectors, read per pair by `_read` from each sector's
        final table (m, weight, count, slack), each field (2, S, 2^q)
        indexed [replica, sector, pinned set], for the q kept pins that the
        plan's varying links decide.  No 2^V mask is built.

        The pin rule: a pair (j, k) pins inactive (up in replica 0, down in
        replica 1) every vertex at a link where j and k differ.  Those links
        are then uncut, except a leg in replica 1, so a pair whose boundary
        keys differ allows nothing in replica 1.  The energy is then j's
        alone: the kernel is j's sum with the pair's pinned vertices held
        inactive.

        A variable is a vertex's activity, 0 inactive, 1 active (spin down
        in replica 0, up in replica 1).  A vertex's leaf holds log d of its
        legs where its spin is down plus log D where it is active (+inf
        where D = 0), plus `clamp` (V, 2 replicas, 1, 2 activities), +inf
        where `_cell_data` fixes the spin the other way; a link's, log d where
        its ends differ.  An entry
        holds, over the configurations it sums, the least energy m, the
        weight sum of e^-(E - m), the count tied with m and the slack, the
        next level above m relative to m (leaf: 1, 1, +inf).  A product adds
        the m's, multiplies weights and counts and keeps the least slack;
        summing out a spin merges its halves (`_merge`); z = e^-m weight.
        Ties are decided against each partial minimum, so merging within
        `TIE_TOL` is not transitive: every configuration within `TIE_TOL`
        of E_min counts, but in a chain of near-ties spanning more, a level
        that tied a partial minimum stays counted when that one ties the
        next, so degeneracy and gap can exceed those of enumeration.

        Where a pair pins p, p's step keeps its inactive half beside the
        merged one (index 0 pinned, 1 summed).  The order and each
        product's order depend on the graph alone and a kept axis only adds
        entries, so a kernel has the bits of the elimination over its own
        pair (`_cell_data`), whatever the sector list.  Memory: four float64
        tables of 2 x S x 2^(w + q) per step, for w spins and q kept pins,
        and about as many temporaries."""
        varying, scopes, steps = plan or self._plan(sectors.twice)
        links, count, lam = self._order[1], len(sectors), sectors.link_log_d
        row = {x: p for p, x in enumerate(self.graph.vertices)}
        legs = np.zeros((len(row), count))
        for li, lid in enumerate(self.graph.boundary_ids(), len(self.graph.internal_ids())):
            legs[row[self.graph.endpoints(lid)[0]]] += lam[:, li]
        vertex = np.where(np.isneginf(sectors.vertex_log_d), math.inf, sectors.vertex_log_d).T
        unary = np.zeros((len(row), 2, count, 2))
        unary[:, 0, :, 1], unary[:, 1, :, 0], unary[:, 1, :, 1] = legs + vertex, legs, vertex
        unary += clamp
        pair = np.zeros((len(links), 1, count, 2, 2))
        pair[:, 0, :, 0, 1] = pair[:, 0, :, 1, 0] = lam[:, [li for li, _, _ in links]].T
        tables: List[Tuple] = [(m, ()) for m in (*unary, *pair)]
        for p, bucket, union in steps:
            m, rest = 0.0, []
            for f in bucket:
                (energy, data), shape = tables[f], (count, *(2 if v in scopes[f] else 1 for v in union))
                m = m + energy.reshape(len(energy), *shape)
                rest += [[a.reshape(2, *shape) for a in data]] if data else []
            weight, ties, slack = rest[0] if rest else (1.0, 1.0, math.inf)
            for w, c, g in rest[1:]:
                weight, ties, slack = weight * w, ties * c, np.minimum(slack, g)
            if p is not None:
                tables.append(_merge(m, (weight, ties, slack), 2 + union.index(p), bool(varying[p])))
        final = (np.broadcast_to(a, m.shape).reshape(2, count, 2 ** len(union)) for a in (m, weight, ties, slack))
        return self._read(sectors, varying, final)

    def _read(self, sectors: SectorSet, varying: List[List[int]], final: Iterable[np.ndarray]) -> _PairKernels:
        """The kernels of every ordered pair of `sectors` from the final
        tables of `_eliminate` along a plan with `varying` links: (j, k)
        reads j's entry at its pinned set, one bit per kept vertex (the
        first highest), 1 where the pair leaves it free; z = e^-m weight,
        and nothing in replica 1 where the boundary keys differ."""
        twice, count = sectors.twice, len(sectors)
        index = np.zeros((count, count), dtype=np.int64)
        for cols in filter(None, varying):
            index <<= 1
            index |= np.logical_and.reduce([twice[:, c, None] == twice[None, :, c] for c in cols])
        m, weight, ties, slack = (a.transpose(1, 2, 0)[np.arange(count)[:, None], index] for a in final)
        z = np.exp(-m) * weight
        mixed = (sectors.key[:, None] != sectors.key[None, :]).reshape(-1)
        for field, value in ((z, 0.0), (m, math.inf), (ties, 0.0), (slack, math.inf)):
            field.reshape(-1, 2)[mixed, 1] = value
        return _PairKernels(z, m, ties.astype(np.int64), slack)

    def _boundary_entries(
        self, sectors: SectorSet, down: Optional[np.ndarray] = None, cell: Optional[Tuple[int, int, int]] = None
    ) -> Tuple[np.ndarray, ...]:
        """The allowed entries (row, configuration, cosine, log, energy) of
        every ordered pair (a, b) of `sectors` in both replicas, or of the
        one `cell` (a, b, replica) alone, from one pass over the
        configurations of `down` (vertices x configurations, True where a
        vertex has spin -1; default every configuration, `_down`): row =
        (a S + b) 2 + replica, the configuration indexes the columns of
        `down`, Delta = cosine, Delta e^-H = sign(cosine)
        exp(log) and energy = H.  A cell is allowed exactly when it has an
        entry; a row lists its entries in ascending configuration order.

        On a configuration, pair (j, k) is allowed in replica b where no
        link cut in b has different spins in j and k; its cut energy is
        then j's alone, so one matrix per replica (sectors x
        configurations, `_cut_energies`) holds every pair's.  Its Delta
        and the rest of its energy come from two traced blocks over the
        spin-down vertices: (j, mixed_1) and (k, mixed_2), where mixed_1
        carries j's spins on the links at spin-up vertices and k's
        elsewhere, and mixed_2 is mixed_1 of (k, j).  The mixed sectors of
        all pairs are coded at once, over all configurations, and looked
        up among the state's sectors: a sector the state does not hold has
        no block, so Delta = 0 there, as where a block vanishes, a weight
        is zero or the cosine is 0.  Then the live pairs are walked in
        configuration order: each traced block (ket, bra) is taken once,
        with its squared norm and its log term 0.5 log(norm / w^2), and
        kept only while its configuration is processed; each pair needs
        one overlap, which gives its cosine overlap / sqrt(n1 n2), and
        H = (cut energy - log term 1) - log term 2.

        `hamiltonian` and `delta_factor` read one configuration's entry,
        and the reference in `tests/ising_reference.py` takes the same
        steps one configuration at a time, so every entry has its bits,
        and each kernel `_reduce_entries` makes of the entries keeps them.
        The bridge scenario c1 reads its cells from these entries too.

        Memory: the masks and the spin-down mask built once per model
        (2^V (2L + V) bytes of booleans); per call, the links with a
        spin-up end and the rest (2 L 2^V bytes), 2 S x 2^V float64 cut
        energies, the coded mixed sectors (S^2 T 2^V bytes of booleans, for
        T state sectors), the pairs with a nonzero cosine (at most S^2 2^V,
        a Python tuple of about 200 bytes each), the entries (at most
        2 S^2 2^V, 33 bytes each), and one configuration's traced
        blocks."""
        state = self.state
        if down is None:
            (cut, incidence), down = self._masks, self._down
        else:
            cut, incidence = self._masks_of(down)
        # Per link and configuration: has it a spin-up end among the vertices?
        up_end = incidence.T @ ~down
        twice, links = sectors.twice, self.graph.link_ids()
        (count, nl), size = twice.shape, down.shape[1]
        energy = self._cut_energies(sectors, cut)  # [replica, sector, configuration]
        kets, bras = sectors.sectors, state.sectors
        nb, vertices = len(bras), self.graph.vertices
        held = np.array([sec.twice_of(links) for sec in bras], dtype=np.int64).reshape(nb, nl)
        # Pairs (a, b), and pairs (a, state sector), by the links where they differ.
        differs = (twice[:, None] != twice[None, :]).reshape(count * count, nl)
        foreign = (twice[:, None] != held[None, :]).reshape(count * nb, nl)
        weights = [state.weight(sec) for sec in kets]
        weighted = np.array(weights) > 0.0
        weighted = (weighted[:, None] & weighted[None, :])[:, :, None]
        allowed = ~(differs @ cut).reshape(2, count, count, size)
        if cell is not None:
            only = np.zeros((2, count, count, 1), dtype=bool)
            only[cell[2], cell[0], cell[1]] = True
            allowed &= only
        # mixed_1 of (a, b) is the state sector with which a agrees on the
        # links at spin-up vertices and b on the others, if any.
        up, rest = ~(foreign @ np.stack([up_end, ~up_end])).reshape(2, count, nb, size)
        match = up[:, None] & rest[None, :]
        mixed = np.where(match.any(axis=2), match.argmax(axis=2), -1)
        live = (allowed[0] | allowed[1]) & (mixed >= 0) & (mixed.transpose(1, 0, 2) >= 0) & weighted
        c, a, b = np.nonzero(live.transpose(2, 0, 1))
        # Per live pair, in configuration order: its two traced blocks,
        # (j, mixed_1) and (k, mixed_2), each taken once per configuration
        # with its squared norm and log term and kept while that
        # configuration is processed, and their cosine, which is Delta.
        found, blocks, config = [], {}, None
        for i, j, k, mixed_1, mixed_2 in zip(*(x.tolist() for x in (c, a, b, mixed[a, b, c], mixed[b, a, c]))):
            if i != config:
                blocks, config = {}, i
                keep = [x for p, x in enumerate(vertices) if down[p, i]]
            for ket, bra in ((j, mixed_1), (k, mixed_2)):
                if (ket, bra) not in blocks:
                    block = state.traced_block(kets[ket], bras[bra], keep)
                    norm = float((np.abs(block) ** 2).sum())
                    blocks[ket, bra] = block, norm, 0.5 * math.log(norm / weights[ket] ** 2) if norm else 0.0
            (b1, n1, h1), (b2, n2, h2) = blocks[j, mixed_1], blocks[k, mixed_2]
            overlap = float((b1 @ b2).trace().real) if n1 and n2 else 0.0
            cos = overlap / math.sqrt(n1 * n2) if overlap else 0.0
            if cos:
                found.append((i, j, k, cos, math.log(abs(cos)), h1, h2))
        columns = list(zip(*found)) or [()] * 7
        c, a, b = (np.array(x, dtype=np.int64) for x in columns[:3])
        cos, log_cos, h1, h2 = (np.array(x, dtype=float) for x in columns[3:])
        replica, n = np.nonzero(allowed[:, a, b, c])
        e = (energy[replica, a[n], c[n]] - h1[n]) - h2[n]
        finite = ~np.isinf(e)
        n, replica, e = n[finite], replica[finite], e[finite]
        return (a[n] * count + b[n]) * 2 + replica, c[n], cos[n], log_cos[n] - e, e

    @staticmethod
    def _reduce_entries(
        count: int, row: np.ndarray, cos: np.ndarray, log: np.ndarray, energy: np.ndarray
    ) -> _PairKernels:
        """The kernels of `count` sectors from the compact entries of their
        2 count^2 rows (pair, replica), as `_boundary_entries` lists them
        (or `_cell_data` its one row): entry i of row `row[i]` has energy
        `energy[i]` and weight sign(cos[i]) exp(log[i]); a row holds a
        configuration at most once, and the entries are listed in ascending
        configuration order.

        z is the `_scaled_sums` total of each row, its terms in
        configuration order.  E_min, the ties within `TIE_TOL` and the gap
        are order-independent reductions.  So each row has the bits of
        reducing it alone."""
        nrows = count * count * 2
        z = _scaled_sums(row, log, cos < 0.0, nrows)[0]
        e_min, gap = np.full(nrows, math.inf), np.full(nrows, math.inf)
        np.minimum.at(e_min, row, energy)
        tied = energy - e_min[row] <= TIE_TOL
        degeneracy = np.bincount(row[tied], minlength=nrows)
        np.minimum.at(gap, row[~tied], energy[~tied])
        feasible = degeneracy > 0
        gap[feasible] -= e_min[feasible]
        return _PairKernels(*(x.reshape(count, count, 2) for x in (z, e_min, degeneracy, gap)))

    def _cell_data(self, j: SpinSector, k: SpinSector, replica: int) -> Tuple:
        """(z, E_min, degeneracy, gap, ties) of one (pair, replica), with the
        bits of the pair's cell of a batched table: the numbers come from
        the elimination over [j, k] along its one `_plan` (bulk-to-boundary),
        or reduce the `_boundary_entries` of the walk over the cell (of [j]
        alone where k = j, so that each block is taken once) as the one row
        of a one-sector `_reduce_entries` (boundary-to-boundary).
        `ties(down)`, for `_least`, tells whether a configuration within
        `TIE_TOL` of E_min has the spins of `down`: in the bulk kind,
        whether the elimination over [j, k] along the same plan, clamped to
        those spins, has its E_min at the pair's cell within `TIE_TOL` of
        the pair's (where the clamp leaves no finite configuration, `_merge`
        computes inf - inf, which numpy is told to ignore, and E_min reads
        +inf); in the boundary kind, whether such an entry of the walk has
        them."""
        self._check_pair(j, k, replica)
        if self.kind.is_boundary_to_boundary:
            pool = [j] if j == k else [j, k]
            _, config, cos, log, energy = self._boundary_entries(self.sector_set(pool), None, (0, len(pool) - 1, replica))
            z, e_min, degeneracy, gap = self._reduce_entries(1, np.zeros_like(config), cos, log, energy).at((0, 0, 0))
            tied = self._down[:, config[energy - e_min <= TIE_TOL]]
            ties = lambda down: (tied[list(down)].T == [*down.values()]).all(axis=1).any()  # noqa: E731
        else:
            sectors = self.sector_set([j, k])
            plan = self._plan(sectors.twice)
            z, e_min, degeneracy, gap = self._eliminate(sectors, plan).at((0, 1, replica))

            def ties(down: Dict[int, bool]) -> bool:
                at, d, clamp = list(down), np.int_([*down.values()]), np.zeros((len(self.graph.vertices), 2, 1, 2))
                clamp[at, 0, 0, 1 - d] = clamp[at, 1, 0, d] = math.inf
                with np.errstate(invalid="ignore"):
                    return self._eliminate(sectors, plan, clamp).e_min[0, 1, replica] - e_min <= TIE_TOL
        return float(z), float(e_min), int(degeneracy), float(gap), ties

    def _least(self, ties: Callable[[Dict[int, bool]], bool]) -> IsingConfig:
        """The tied configuration whose sorted tuple of spin-down vertex ids
        is least, a prefix first; `ties(down)` tells whether a tied
        configuration has the spins of `down` (graph index -> True for spin
        -1), and some configuration ties.  Walks the ids in sorted order:
        where the rest may all be up and still tie, it stops; else it sets
        the vertex down where some tie allows it, and up where none does.
        A vertex set up leaves that first question as it was, so it is
        asked again only after a vertex set down."""
        vertices = self.graph.vertices
        order = sorted(range(len(vertices)), key=vertices.__getitem__)
        down: Dict[int, bool] = {}
        for i, p in enumerate(order):
            if (i == 0 or down[order[i - 1]]) and ties({**down, **dict.fromkeys(order[i:], False)}):
                break
            down[p] = ties({**down, p: True})
        return IsingConfig(tuple((x, -1 if down.get(p) else 1) for p, x in enumerate(vertices)))

    def partition_sum_fixed(
        self, j: SpinSector, k: SpinSector, replica: int
    ) -> float:
        """Exact kernel Z^{(j,k)} = sum over configurations of Delta e^-H
        (`_cell_data`)."""
        return self._cell_data(j, k, replica)[0]

    def ground_state(
        self, j: SpinSector, k: SpinSector, replica: int
    ) -> GroundState:
        """Minimizing allowed configuration, tie count, and spectral gap
        (`_cell_data`).

        Ties within `TIE_TOL` share the minimum; the representative is the
        tied configuration whose sorted tuple of spin-down vertex ids is
        least (`_least` of the ties).  An empty feasible set gives (None,
        inf, 0, inf).
        """
        _, e_min, degeneracy, gap, ties = self._cell_data(j, k, replica)
        return GroundState(self._least(ties) if degeneracy else None, e_min, degeneracy, gap)

    # -- assembled sums --------------------------------------------------

    def sector_set(self, sectors: Optional[Iterable[SpinSector]] = None) -> SectorSet:
        """The `SectorSet` of `sectors`, or of the default pool: every sector
        of the family (its `sector_matrix`) for the bulk-to-boundary kind,
        the state's sectors for the boundary-to-boundary kind.  While the
        module holds this family and graph's pool (see `partition_table`),
        the bulk-to-boundary default pool is the held set."""
        if sectors is None and not self.kind.is_boundary_to_boundary:
            held = self._held_pool()
            return held.pool if held is not None else SectorSet(self, sector_matrix(self.family, self.graph))
        links = self.graph.link_ids()
        pool = list(sectors) if sectors is not None else list(self.state.sectors)
        for sec in pool:
            if sec.graph is not self.graph and sec.graph != self.graph:
                raise EngineError("sector belongs to a different graph")
        twice = np.array([sec.twice_of(links) for sec in pool], dtype=np.int64)
        return SectorSet(self, twice.reshape(len(pool), len(links)), pool)

    def window_table(self, boundaries: Iterable[Mapping[str, object]]) -> PartitionSumTable:
        """The `partition_table` of a window: the weighted sectors with each
        of `boundaries` ({boundary link id: spin}, each fixing every
        boundary link, checked by `spins.boundary_twice`) in turn, in list
        order.

        Where the module holds this family and graph's pool and every
        boundary lies in its box, and for the boundary-to-boundary kind,
        the window is the `PartitionSumTable.take` of the default table's
        rows of each boundary.  Otherwise each boundary's sectors are
        enumerated alone (a spin outside the family's allowed list included),
        never the whole family.  `EXHAUSTIVE_LIMIT` is checked either way."""
        boundaries = list(boundaries)
        bnd = self.graph.boundary_ids()
        keys = [tuple(map(boundary_twice(self.graph, b).__getitem__, bnd)) for b in boundaries]
        _refuse_repeats(keys, lambda i: f"boundary {','.join(SectorSet._parts(bnd, keys[i:i + 1])[0])} of the window")
        held = self._held_pool()
        if self.kind.is_boundary_to_boundary or held is not None and set(keys) <= set(held.pool.keys):
            table = self.partition_table()
            code = {key: c for c, key in enumerate(table.sectors.keys)}
            rows = [np.flatnonzero(table.sectors.key == code[key]) for key in keys if key in code]
            return table.take(np.concatenate([np.empty(0, dtype=np.int64), *rows]))
        parts = [sector_matrix(self.family, self.graph, boundary_filter=b) for b in boundaries]
        empty = np.empty((0, len(self.graph.link_ids())), dtype=np.int64)
        return self.partition_table(SectorSet(self, np.concatenate([empty, *parts])))

    def partition_table(
        self, sectors: Union[None, Iterable[SpinSector], SectorSet] = None
    ) -> PartitionSumTable:
        """Kernels, ground-state data, K factors, boundary sums, totals.

        `sectors` is a sector list or a `SectorSet` (default: the model's
        default `sector_set`); sectors of zero weight K are dropped.  Totals
        include every sector pair (also pairs with different boundary
        spins); the boundary rows are the boundary-diagonal restrictions.
        All pair kernels come from one batched pass over the weighted
        sectors: `_eliminate` along their `_plan` for the bulk-to-boundary
        kind, and for the boundary-to-boundary kind `_boundary_entries`
        reduced by `_reduce_entries`.

        A bulk-to-boundary `partition_table()` on the default pool fills
        the module's one held family pool (`_hold`).  While the pool holds
        this model's family and graph, `partition_table()` returns the held
        table itself, whose arrays are read-only, after checking the width
        of the held plan's widest table against `EXHAUSTIVE_LIMIT`
        (`_check_width`), so a lowered limit still refuses it; it plans and
        eliminates nothing.  `sector_set()`
        returns the held set, and `window_table` slices the held table.  A
        kernel depends only on its pair's spins, not on the pool it is
        asked in, so the purity, the isometry verdict over a window, c2 and
        the sums at one boundary of one family share the kernels of its
        default pool.
        """
        held = self._held_pool()
        if sectors is None and held is not None:
            _check_width(held.width)
            return held.table
        default = sectors is None and not self.kind.is_boundary_to_boundary
        if not isinstance(sectors, SectorSet):
            sectors = self.sector_set(sectors)
        if not default:
            _refuse_repeats(list(map(tuple, sectors.twice.tolist())), lambda i: f"sector {sectors.take([i]).labels[0]}")
        weighted = sectors.weighted()
        if self.kind.is_boundary_to_boundary:
            row, _, cos, log, energy = self._boundary_entries(weighted)
            kernels = self._reduce_entries(len(weighted), row, cos, log, energy)
        else:
            plan = self._plan(weighted.twice)
            kernels = self._eliminate(weighted, plan)
        if default:
            return _hold(self, sectors, weighted, kernels, plan)
        return PartitionSumTable(weighted, kernels)

    def _held_pool(self) -> Optional[_HeldPool]:
        """The held family pool if it is this bulk-to-boundary model's."""
        held = _held
        if self.kind.is_boundary_to_boundary or held is None:
            return None
        return held if held.family is self.family and held.graph is self.graph else None
