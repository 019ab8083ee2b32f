"""Spin labels, sector enumeration, and dimension bookkeeping.

Spins are stored as doubled integers (twice_j), so half-integers are exact
and all dimension arithmetic stays in exact integers until logarithms are
needed.  A *sector* assigns a spin to every link of a graph; the total space
decomposes into a direct sum over sectors.  Per sector we track:

    d_e           = 2 j_e + 1                      (link dimension)
    D(j^x)        = dim Inv(V_{j_1} x ... x V_{j_D})   (intertwiner dimension)
    D_I(E)        = sum over bulk spins of prod_x D(j^x)  at fixed boundary E
    D_O(E)        = prod over boundary links of d_e
    D_E           = D_I(E) * D_O(E)

The intertwiner dimension (multiplicity of total spin 0) is computed by
dynamic programming over intermediate-spin multiplicities, i.e. iterated
Clebsch-Gordan fusion; the cache is keyed by the sorted spin multiset, which
makes permutation invariance automatic.  `twice_intertwiner_dim` reads the
same numbers from one module-level cache keyed by the doubled spins in port
order, so array code looks a spin tuple up without building `Spin` objects.

Sector pools come in two forms: `enumerate_sectors` yields `SpinSector`
objects lazily, and `sector_matrix` returns the same sectors, in the same
order, as one int64 matrix of doubled spins.

One evaluator decides every dimension, on such matrices: `vertex_twice`
gives each vertex's spin tuples, `vertex_dims` their D(j^x) and
`input_dims` D_I(E) per boundary key from one bulk `sector_matrix`.  The
engine's `SectorSet` is the one source of the factor terms (log d, |g|,
log D) and dimensions that the other modules read; `sector_dims` and
`entropy.high_spin_energies` (bare sectors) call this module directly.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .graph import OpenGraph


@dataclass(frozen=True, order=True)
class Spin:
    """An SU(2) spin j, stored as twice_j = 2j."""

    twice: int

    def __post_init__(self):
        if type(self.twice) is not int:
            if isinstance(self.twice, bool) or not isinstance(self.twice, numbers.Integral):
                raise TypeError(
                    f"Spin takes the doubled spin twice_j = 2j as an integer, got {self.twice!r}; "
                    f"Spin.parse takes j"
                )
            object.__setattr__(self, "twice", int(self.twice))
        if self.twice < 0:
            raise ValueError(f"negative spin: twice_j = {self.twice}")

    @property
    def j(self) -> float:
        return self.twice / 2.0

    @property
    def dim(self) -> int:
        """Bond dimension d_j = 2j + 1."""
        return self.twice + 1

    @staticmethod
    def parse(value) -> "Spin":
        """Accept a Spin, an int/float j, or a string like "3/2"."""
        if isinstance(value, Spin):
            return value
        try:
            fr = Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"cannot read {value!r} as a spin j: give a Spin, a number or a string like \"3/2\""
            ) from None
        twice = 2 * fr
        if twice.denominator != 1:
            raise ValueError(f"{value!r} is not a half-integer spin")
        return Spin(int(twice))

    def __str__(self) -> str:
        return str(self.twice // 2) if self.twice % 2 == 0 else f"{self.twice}/2"


@lru_cache(maxsize=None)
def _fusion_multiplicities(sorted_twice: Tuple[int, ...]) -> Tuple[int, ...]:
    """Multiplicity of each total twice-spin in the tensor product.

    Returns a tuple m with m[t] = multiplicity of total spin t/2; the length
    is sum(sorted_twice) + 1.  Iterated Clebsch-Gordan: fusing total spin t
    with spin s yields every t' in |t - s| .. t + s in steps of 2 (twice
    units) exactly once.
    """
    mult = [0] * (sum(sorted_twice) + 1)
    mult[sorted_twice[0]] = 1
    reached = sorted_twice[0]
    for s in sorted_twice[1:]:
        new = [0] * (sum(sorted_twice) + 1)
        for t in range(reached + 1):
            m = mult[t]
            if m == 0:
                continue
            for t2 in range(abs(t - s), t + s + 1, 2):
                new[t2] += m
        reached += s
        mult = new
    return tuple(mult)


def intertwiner_dim(spins: Sequence[Spin]) -> int:
    """Multiplicity of total spin 0 in the product of the given spins.

    Invariant under permutations of the tuple; 0 whenever parity (integer
    total) or polygon inequalities obstruct an invariant vector.
    """
    if len(spins) == 0:
        raise ValueError("intertwiner_dim needs at least one spin")
    key = tuple(sorted(s.twice for s in spins))
    return _fusion_multiplicities(key)[0]


@lru_cache(maxsize=None)
def twice_intertwiner_dim(twice: Tuple[int, ...]) -> int:
    """`intertwiner_dim` of the doubled spins `twice` (a non-empty tuple of
    ints, in any order), cached per tuple as given."""
    return _fusion_multiplicities(tuple(sorted(twice)))[0]


#: Largest deviation of a bulk link's sum |g|^2 from 1 that `validate` accepts.
NORM_TOL = 1e-12

#: Largest number of sectors one enumeration may yield.
SECTOR_LIMIT = 10**6


class SectorEnumerationError(RuntimeError):
    """Enumeration would exceed the configured sector-count guard."""


@dataclass(frozen=True)
class SectorFamily:
    """Cutoffs, allowed spin lists, and link superposition weights.

    `allowed` maps each link id to its ascending tuple of allowed spins
    (default: every half-integer in [lower, upper]).  `weights` maps internal
    link ids to {twice_j: complex amplitude}; boundary links always carry
    weight 1.  With `normalized=True` the per-link weights satisfy
    sum |g|^2 = 1.
    """

    lower: Spin
    upper: Spin
    allowed: Mapping[str, Tuple[Spin, ...]]
    weights: Mapping[str, Mapping[int, complex]]

    @staticmethod
    def build(
        graph: OpenGraph,
        lower,
        upper,
        allowed: Optional[Mapping[str, Sequence]] = None,
        weights: Optional[Mapping[str, Mapping]] = None,
        normalize: bool = True,
    ) -> "SectorFamily":
        lo, hi = Spin.parse(lower), Spin.parse(upper)
        if lo > hi:
            raise ValueError(f"lower cutoff {lo} exceeds upper cutoff {hi}")
        grid = tuple(Spin(t) for t in range(lo.twice, hi.twice + 1))
        allowed = dict(allowed or {})
        table: Dict[str, Tuple[Spin, ...]] = {}
        for lid in graph.link_ids():
            if lid in allowed:
                spins = tuple(sorted(Spin.parse(s) for s in allowed[lid]))
                if not spins:
                    raise ValueError(f"link {lid!r} has an empty allowed-spin list")
                for s in spins:
                    if not lo <= s <= hi:
                        raise ValueError(
                            f"link {lid!r}: spin {s} outside cutoffs [{lo}, {hi}]"
                        )
                table[lid] = spins
            else:
                table[lid] = grid
        internal = set(graph.internal_ids())
        wtable: Dict[str, Dict[int, complex]] = {}
        for lid in internal:
            given = (weights or {}).get(lid)
            if given is None:
                w = {s.twice: 1.0 + 0.0j for s in table[lid]}
            else:
                w = {Spin.parse(k).twice: complex(v) for k, v in given.items()}
                if set(w) != {s.twice for s in table[lid]}:
                    raise ValueError(
                        f"weights for link {lid!r} do not match its allowed spins"
                    )
            if normalize:
                norm = sum(abs(v) ** 2 for v in w.values()) ** 0.5
                if norm == 0.0:
                    raise ValueError(f"all-zero weights on link {lid!r}")
                w = {k: v / norm for k, v in w.items()}
            wtable[lid] = w
        for lid in (weights or {}):
            if lid not in internal:
                raise ValueError(f"weights given for non-internal link {lid!r}")
        return SectorFamily(lower=lo, upper=hi, allowed=table, weights=wtable)

    def g(self, link_id: str, spin: Spin) -> complex:
        """Superposition amplitude of `spin` on `link_id`: 1 on a boundary
        link, 0 for a spin an internal link does not allow.  A link id the
        family does not hold is refused."""
        w = self.weights.get(link_id)
        if w is not None:
            return w.get(spin.twice, 0.0 + 0.0j)
        if link_id not in self.allowed:
            raise ValueError(f"unknown link {link_id!r}: the family's links are ({', '.join(self.allowed)})")
        return 1.0 + 0.0j

    def validate(self, graph: OpenGraph) -> None:
        for lid in graph.internal_ids():
            total = sum(abs(v) ** 2 for v in self.weights[lid].values())
            if abs(total - 1.0) > NORM_TOL:
                raise ValueError(
                    f"link {lid!r}: sum |g|^2 = {total!r} is not normalized"
                )


@dataclass(frozen=True)
class SpinSector:
    """A complete spin assignment on a graph's links."""

    graph: OpenGraph
    assignment: Tuple[Tuple[str, int], ...]  # (link id, twice_j), canonical order

    @staticmethod
    def make(graph: OpenGraph, spins: Mapping[str, object]) -> "SpinSector":
        order = graph.link_ids()
        missing = [lid for lid in order if lid not in spins]
        if missing:
            raise ValueError(f"sector misses links {missing}")
        extra = [lid for lid in spins if lid not in set(order)]
        if extra:
            raise ValueError(f"sector assigns unknown links {extra}")
        return SpinSector(
            graph=graph,
            assignment=tuple((lid, Spin.parse(spins[lid]).twice) for lid in order),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpinSector):
            return NotImplemented
        return self.assignment == other.assignment and self.graph == other.graph

    def __hash__(self) -> int:
        # The graph is deliberately left out: its valence mapping is a
        # plain dict, and sectors are only ever pooled per graph anyway.
        return hash(self.assignment)

    def __post_init__(self):
        object.__setattr__(self, "_twice", dict(self.assignment))

    def spin(self, link_id: str) -> Spin:
        return Spin(self._twice[link_id])

    def spins(self) -> Dict[str, Spin]:
        return {lid: Spin(t) for lid, t in self.assignment}

    def twice_of(self, link_ids: Sequence[str]) -> Tuple[int, ...]:
        """Doubled spins of the given links."""
        twice = self._twice
        return tuple(twice[lid] for lid in link_ids)

    def vertex_spins(self, vertex: str) -> Tuple[Spin, ...]:
        """Spin tuple j^x, ordered by port number."""
        twice = self._twice
        return tuple(Spin(twice[lid]) for lid in self.graph.links_at(vertex))

    def vertex_twice(self, vertex: str) -> Tuple[int, ...]:
        """Doubled spins of j^x, ordered by port number: `vertex_spins`
        without the `Spin` objects."""
        return self.twice_of(self.graph.links_at(vertex))

    def key(self) -> Tuple[Tuple[str, int], ...]:
        """Hashable canonical id used by partition tables."""
        return self.assignment

    def label(self) -> str:
        return ",".join(f"{lid}={Spin(t)}" for lid, t in self.assignment)


@dataclass(frozen=True)
class SectorDims:
    """All dimension data of one sector within a family."""

    link_dims: Mapping[str, int]
    intertwiner_dims: Mapping[str, int]
    bulk_intertwiner_product: int  # prod_x D(j^x) for this sector's bulk spins
    d_input: int                   # D_I(E): boundary-fixed bulk dimension
    d_output: int                  # D_O(E): prod over boundary links of d
    dim_sector: int                # dim of the sector's product vertex space

    @property
    def d_total(self) -> int:
        return self.d_input * self.d_output

    @property
    def r(self) -> float:
        if self.d_output == 0:
            raise ZeroDivisionError("r undefined: D_O = 0")
        return self.d_input / self.d_output


def boundary_twice(graph: OpenGraph, boundary_filter: Mapping[str, object]) -> Dict[str, int]:
    """The doubled spin `boundary_filter` ({boundary link id: spin}) fixes
    on each boundary link.  Raises `ValueError` where it names a
    non-boundary link or leaves a boundary link free."""
    fixed: Dict[str, int] = {}
    bnd = set(graph.boundary_ids())
    for lid, sp in boundary_filter.items():
        if lid not in bnd:
            raise ValueError(f"boundary filter names non-boundary link {lid!r}")
        fixed[lid] = Spin.parse(sp).twice
    if set(fixed) != bnd:
        raise ValueError("boundary filter must fix every boundary link")
    return fixed


def _sector_choices(
    family: SectorFamily,
    graph: OpenGraph,
    boundary_filter: Optional[Mapping[str, object]],
) -> List[Tuple[int, ...]]:
    """Doubled spins each link may take, in `graph.link_ids()` order: the
    family's allowed spins, or the one spin `boundary_filter` fixes on a
    boundary link.  Checks the filter and refuses more than `SECTOR_LIMIT`
    sectors."""
    fixed = boundary_twice(graph, boundary_filter) if boundary_filter is not None else {}
    choices = []
    total = 1
    for lid in graph.link_ids():
        opts = (fixed[lid],) if lid in fixed else tuple(s.twice for s in family.allowed[lid])
        choices.append(opts)
        total *= len(opts)
    if total > SECTOR_LIMIT:
        raise SectorEnumerationError(
            f"{total} sectors exceed the guard of {SECTOR_LIMIT}; tighten cutoffs "
            f"or restrict per-link spin lists"
        )
    return choices


def enumerate_sectors(
    family: SectorFamily,
    graph: OpenGraph,
    boundary_filter: Optional[Mapping[str, object]] = None,
) -> Iterator[SpinSector]:
    """Yield all sectors in lexicographic order of the canonical link order.

    With `boundary_filter` (a {boundary link id: spin} mapping) only the bulk
    spins vary.  Refuses enumerations larger than `SECTOR_LIMIT`.
    """
    order = graph.link_ids()
    for combo in itertools.product(*_sector_choices(family, graph, boundary_filter)):
        yield SpinSector(graph=graph, assignment=tuple(zip(order, combo)))


def sector_matrix(
    family: SectorFamily,
    graph: OpenGraph,
    boundary_filter: Optional[Mapping[str, object]] = None,
) -> np.ndarray:
    """The sectors of `enumerate_sectors`, in its order, as an (N, L) int64
    matrix of doubled spins with columns in `graph.link_ids()` order.

    Same filter and checks, and the guard of `SECTOR_LIMIT`.  Memory: 8 L
    bytes per sector, all held at once, where the generator holds one
    sector at a time.  The matrix is filled straight from the product, so
    building it needs no more than the result: on a 7-link family of
    823,543 sectors, 46 MB and a peak RSS growth of 44 MB.
    """
    choices = _sector_choices(family, graph, boundary_filter)
    count = math.prod(len(opts) for opts in choices)
    flat = itertools.chain.from_iterable(itertools.product(*choices))
    return np.fromiter(flat, dtype=np.int64, count=count * len(choices)).reshape(count, len(choices))


def vertex_twice(graph: OpenGraph, twice: np.ndarray) -> Iterator[Iterator[Tuple[int, ...]]]:
    """Per vertex (graph order), the tuple of its link spins (`links_at`
    order) in each row of `twice` (an (N, L) matrix of doubled spins,
    columns in `graph.link_ids()` order), made lazily from one list per link."""
    column = {lid: i for i, lid in enumerate(graph.link_ids())}
    for x in graph.vertices:
        yield zip(*twice[:, [column[lid] for lid in graph.links_at(x)]].T.tolist())


def vertex_dims(graph: OpenGraph, twice: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
    """D(j^x) for every row of `twice` and every vertex (graph order), each
    read from the cache of `twice_intertwiner_dim` by its `vertex_twice`
    tuple."""
    per_vertex = [list(map(twice_intertwiner_dim, rows)) for rows in vertex_twice(graph, twice)]
    return tuple(zip(*per_vertex)) if per_vertex else tuple(() for _ in range(len(twice)))


def input_dims(
    family: SectorFamily, graph: OpenGraph, keys: Sequence[Tuple[int, ...]]
) -> List[int]:
    """D_I(E) of each boundary key E (its doubled spins in
    `graph.boundary_ids()` order): the sum over the family's bulk spins of
    prod_x D(j^x).  The bulk spin assignments are enumerated once for all
    keys, as the bulk columns of the `sector_matrix` of the first key."""
    if not keys:
        return []
    first = dict(zip(graph.boundary_ids(), map(Spin, keys[0])))
    bulk = sector_matrix(family, graph, boundary_filter=first)[:, : len(graph.internal_ids())]
    count = len(bulk)
    boundary = np.array(keys, dtype=np.int64).reshape(len(keys), -1)
    twice = np.concatenate([np.tile(bulk, (len(keys), 1)), np.repeat(boundary, count, axis=0)], axis=1)
    products = [math.prod(dims) for dims in vertex_dims(graph, twice)]
    return [sum(products[m * count : (m + 1) * count]) for m in range(len(keys))]


def sector_dims(
    sector: SpinSector, graph: OpenGraph, family: SectorFamily
) -> SectorDims:
    """Populate every dimension field for `sector` within `family`.

    D_I(E) sums prod_x D(j^x) over all bulk assignments of the family that
    share this sector's boundary spins (`input_dims`); for a graph without
    internal links it reduces to the sector's own intertwiner-dimension
    product.
    """
    ldims = {lid: Spin(t).dim for lid, t in sector.assignment}
    twice = np.array([sector.twice_of(graph.link_ids())], dtype=np.int64)
    idims = dict(zip(graph.vertices, vertex_dims(graph, twice)[0]))
    dim_sector = 1
    for x in graph.vertices:
        dim_sector *= idims[x] * math.prod(ldims[lid] for lid in graph.links_at(x))
    return SectorDims(
        link_dims=ldims,
        intertwiner_dims=idims,
        bulk_intertwiner_product=math.prod(idims.values()),
        d_input=input_dims(family, graph, [sector.twice_of(graph.boundary_ids())])[0],
        d_output=math.prod(ldims[lid] for lid in graph.boundary_ids()),
        dim_sector=dim_sector,
    )
