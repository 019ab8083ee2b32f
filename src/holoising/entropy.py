"""Average purities and entropies assembled from partition tables.

The engine's tables carry per-pair kernels Z^{(j,k)}_b, sector weights K_j,
and replica totals.  This module turns them into reports:

* the sector and pair distributions p_j = K_j / sum K and
  P(j,k) = K_j K_k Z_0^{(j,k)} / Z_0, with the factorized form p_j p_k,
* the average purity Z_1/Z_0 decomposed as an expectation, under P, of the
  per-pair ratios Z_1^{(j,k)} / Z_0^{(j,k)} = e^{-X_{jk}},
* cumulant expansions of S_2 = -log purity in the exponent X,
* an area-form entropy estimate from minimal-surface data,
* closed forms for the coarse (one global Haar unitary) and fine
  (per-sector Haar with manual weights) averaging grades, and
* rescaled configuration energies used in high-spin isometry arguments.

Z_0 and Z_1 are read, not summed here, as (sign, log|Z_b|): the table's
`log_totals` in exact mode, those of its reducer `kernel_sums` on the
ground-state kernels otherwise.  S_2 = log Z_0 - log Z_1, and P(j,k) and
p_j are read from log K and log Z_0, so no total past float64 is refused.

Pairs whose swapped-replica kernel vanishes (sectors with different boundary
spins admit no configuration satisfying the deltas) have X = infinity.
Cumulants are then taken over the distribution conditioned on the feasible
pairs, and the missing mass is reported separately; the identity

    purity = feasible_mass * <e^{-X}>_{P conditioned}

holds in exact arithmetic (in floats, to rounding), so nothing is lost by
the split.

A purity report is built in two steps.  At the call, `average_purity`
forms the per-pair ratios and the pair measure as arrays and reads Z_0,
Z_1, the purity, S_2 and `feasible_mass` from them and the sums; it
makes every refusal there, those of `sector_distribution` (with c_E
under `boundary_weights`) included, so no read of the report raises.
The per-pair decomposition (`x`, `pair_probs`, the cumulant series,
`rt_area_estimate` and the maps of `distribution`) is built from those
arrays and the table on first read, once.  Memory: until then the report
holds two S^2 float64 arrays (ratios and pair measure) and its table;
reading every view builds four S^2-entry maps (`x`, `pair_probs` and the
two pair maps of `distribution`), the exponent list and the table's
`pair_ids`.

All entropies are in nats.  Every function here is a pure aggregation over
immutable inputs and is safe to call from multiple threads; two threads
that first read one view of a report at once may each build it, with the
same result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .graph import OpenGraph, agreement_region, boundary_of_region
from .ising import EngineError, IsingModel, JsonReport, ModelKind, PartitionSumTable, _ratio, _shares, ground_kernel, json_field, json_value
from .spins import SectorFamily, Spin, SpinSector, sector_dims, vertex_dims

#: Report modes: exact per-pair kernels, ground-state kernels under the
#: exact pair measure, or ground-state kernels under the factorized measure.
MODES = ("exact", "ground_state", "high_spin")

#: Highest cumulant a `PurityReport` carries in its series.
CUMULANT_ORDER = 4

#: Weights more negative than this are treated as genuinely signed.
_SIGN_TOL = 1e-12


class EntropyError(RuntimeError):
    """Raised for tables or distributions the assembly cannot digest."""


# -- distributions -------------------------------------------------------


@dataclass(frozen=True)
class SectorDistribution:
    """Normalized sector, pair, and boundary-region weights of a table.

    `p` is the single-sector distribution K_j / sum K; `pair_probs` the
    exact pair distribution K_j K_k Z_0^{(j,k)} / Z_0 and
    `pair_probs_factorized` its high-spin product form p_j p_k.  `c`, when
    asked for, weights each boundary assignment E by D_E / sum_F D_F; it is
    keyed by boundary id and is None otherwise.

    `sector_distribution` computes `c`, with every refusal.  The p_j array
    (`_p`, from log K shifted by its maximum) and the pair measure
    (`_measure`, from log K and the table's log Z_0) are built on first
    use, so neither refuses a total past float64, and `p`, `pair_probs`
    and `pair_probs_factorized` are views of them built on first read.
    """

    c: Optional[Mapping[str, float]]
    _table: PartitionSumTable = field(repr=False, compare=False)

    @functools.cached_property
    def _p(self) -> np.ndarray:
        return _shares(self._table.log_k)

    @functools.cached_property
    def _measure(self) -> np.ndarray:
        table = self._table
        return _pair_measure(table, table.z.reshape(-1, 2)[:, 0], table.log_totals[0])

    @functools.cached_property
    def p(self) -> Mapping[str, float]:
        return dict(zip(self._table.labels, self._p.tolist()))

    @functools.cached_property
    def pair_probs(self) -> Mapping[str, float]:
        return dict(zip(self._table.pair_ids, self._measure.tolist()))

    @functools.cached_property
    def pair_probs_factorized(self) -> Mapping[str, float]:
        return dict(zip(self._table.pair_ids, np.outer(self._p, self._p).ravel().tolist()))


def _pair_measure(table: PartitionSumTable, kernel, log_z0: Tuple[int, float]) -> np.ndarray:
    """K_j K_k kernel_jk / Z_0 over all pairs in row-major order, from log K
    and (sign, log|Z_0|): one exp per sector, K_j / |Z_0|^(1/2)."""
    sign, log = log_z0
    scaled = np.exp(table.log_k - 0.5 * log)
    return ((sign * scaled)[:, None] * scaled).ravel() * kernel


def sector_distribution(
    table: PartitionSumTable,
    *,
    boundary_weights: bool = False,
) -> SectorDistribution:
    """Build the normalized distributions carried by `table`.

    With `boundary_weights` the boundary-region weights c_E are filled from
    the dimension data of the table's own graph and family: D_I and D_O of
    every boundary key of the family's bulk-to-boundary `SectorSet`, keys
    with D_I = 0 left out.  Without it c_E is None.  The refusals and c_E
    come from this call; the per-sector and per-pair maps are built on
    first read (see `SectorDistribution`).
    """
    if table.log_k.max(initial=-math.inf) == -math.inf:
        raise EntropyError("table carries no sector weight")
    if table.log_totals[0][0] == 0:
        raise EntropyError("Z_0 = 0: the pair distribution is undefined")

    c_weights: Optional[Dict[str, float]] = None
    if boundary_weights:
        sectors = IsingModel(
            table.sectors.graph, table.sectors.family, ModelKind.bulk_to_boundary()
        ).sector_set()
        codes = list(range(len(sectors.keys)))
        totals = {
            sectors.boundary_ids[c]: d_in * sectors.d_output(c)
            for c, d_in in zip(codes, sectors.d_input(codes))
            if d_in
        }
        grand = sum(totals.values())
        if grand == 0:
            raise EntropyError("family admits no sector with intertwiners")
        c_weights = {bid: d / grand for bid, d in totals.items()}

    return SectorDistribution(c=c_weights, _table=table)


# -- purity reports ------------------------------------------------------


def _feasible(ratios: np.ndarray) -> np.ndarray:
    """True where the exponent X = -log ratio is finite: 0 < ratio < inf."""
    return (ratios > 0.0) & (ratios < math.inf)


@dataclass(frozen=True)
class PurityReport(JsonReport):
    """Average purity with its distributional decomposition.

    `x` maps each pair to the exponent X_{jk} = -log of the per-pair ratio
    (infinite when the swapped kernel vanishes).  `pair_probs` is the pair
    measure used by this report's mode.  Cumulants and their alternating
    partial sums refer to the distribution conditioned on finite X; the
    weight of that condition is `feasible_mass`.  `rt_area_estimate` is
    4 * <X> in the ground-state modes, where X prices the domain-wall cut,
    and None in exact mode.

    `z0`, `z1`, `purity`, `s2`, `feasible_mass`, `provenance` and the
    c_E of `distribution` come from `average_purity`, with every
    refusal.  `s2` = log Z_0 - log Z_1 and `purity` = e^{-S_2} are read
    from the (sign, log|Z_b|) totals, so no total past float64 is
    refused: there `z0` and `z1`, the float totals, read +inf (null in
    the JSON) or 0.  `x`, `pair_probs`, `cumulants`,
    `cumulant_partial_sums`, `rt_area_estimate` and the maps of
    `distribution` are views built on first read, from the per-pair
    ratios and pair measure the call formed (`_ratios` and `_probs`) and
    the table.  Memory: until then the report holds those two S^2 float64
    arrays and its table; the reads build four S^2-entry maps (`x`,
    `pair_probs` and the two pair maps of `distribution`), the S^2
    exponents and the table's `pair_ids`.
    """

    z0: float = json_field("Z_0")
    z1: float = json_field("Z_1")
    purity: float
    s2: float = json_field("S_2")
    feasible_mass: float
    provenance: str
    distribution: SectorDistribution = json_field(None)
    _table: PartitionSumTable = json_field(None, repr=False, compare=False)
    _ratios: np.ndarray = json_field(None, repr=False, compare=False)
    _probs: np.ndarray = json_field(None, repr=False, compare=False)

    @functools.cached_property
    def _exponents(self) -> List[float]:
        # math.log, whose bits numpy's vectorized log need not share.
        return [
            -math.log(r) if r > 0.0 else (math.inf if r == 0.0 else math.nan)
            for r in self._ratios.tolist()
        ]

    @functools.cached_property
    def x(self) -> Mapping[str, float]:
        return dict(zip(self._table.pair_ids, self._exponents))

    @functools.cached_property
    def pair_probs(self) -> Mapping[str, float]:
        return dict(zip(self._table.pair_ids, self._probs.tolist()))

    @functools.cached_property
    def _series(self) -> CumulantSeries:
        feasible = _feasible(self._ratios)
        xs = np.array(self._exponents)[feasible].tolist()
        ps = (self._probs[feasible] / self.feasible_mass).tolist()
        return _cumulant_series(xs, ps, CUMULANT_ORDER)

    @property
    def cumulants(self) -> Tuple[float, ...]:
        return self._series.cumulants

    @property
    def cumulant_partial_sums(self) -> Tuple[float, ...]:
        return self._series.partial_sums

    @property
    def rt_area_estimate(self) -> Optional[float]:
        return None if self.provenance == "exact" else 4.0 * self.cumulants[0]

    def to_json_dict(self) -> dict:
        dist = self.distribution
        return {**super().to_json_dict(), **json_value({
            "X": self.x,
            "pair_probs": self.pair_probs,
            "cumulants": self.cumulants,
            "cumulant_partial_sums": self.cumulant_partial_sums,
            "rt_area_estimate": self.rt_area_estimate,
            "distribution": {
                "p": dist.p,
                "pair_probs": dist.pair_probs,
                "pair_probs_factorized": dist.pair_probs_factorized,
                **({} if dist.c is None else {"c": dist.c}),
            },
        })}


def average_purity(
    table: PartitionSumTable,
    mode: str = "exact",
    *,
    boundary_weights: bool = False,
) -> PurityReport:
    """Assemble the average purity Z_1/Z_0 from a partition table.

    Modes select the per-pair kernels and the pair measure:

    * "exact": kernels are the full replica sums; the measure is
      K_j K_k Z_0^{(j,k)} / Z_0.  The purity is the ratio of the table's
      totals; the assembled expectation equals it up to rounding.
    * "ground_state": the swapped kernel is replaced by its leading
      Boltzmann weight e^{-E_min} and the normalization kernel by 1 (the
      all-up configuration costs nothing), but the measure stays exact:
      Z_0, Z_1 reduce the kernels (Z_0^{(j,k)}, Z_0^{(j,k)} e^{-E_min}).
    * "high_spin": ground-state kernels under the factorized measure
      p_j p_k: Z_0, Z_1 reduce the kernels (1, e^{-E_min}).

    Cumulants are computed up to `CUMULANT_ORDER` on the distribution
    conditioned on finite X.  Tables with signed pair weights (possible for
    boundary-to-boundary models with indefinite overlaps) are rejected:
    the expectation view needs a genuine probability measure.  The
    report's distribution carries c_E with `boundary_weights` (see
    `sector_distribution`).  Every refusal, those of `sector_distribution`
    included, is made here; the per-pair decomposition is built on first
    read (see `PurityReport`).
    """
    if mode not in MODES:
        raise EntropyError(f"unknown mode {mode!r}; expected one of {MODES}")

    z = table.z.reshape(-1, 2)
    z0 = z[:, 0]
    if mode == "exact":
        zero = np.flatnonzero(z0 == 0.0)
        if zero.size:
            j, k = divmod(int(zero[0]), len(table.labels))
            pid = f"{table.labels[j]}|{table.labels[k]}"
            raise EntropyError(f"pair {pid!r} has Z_0^(j,k) = 0")
        with np.errstate(over="ignore"):  # a ratio past float64 is +inf, and X = -inf there
            ratios = z[:, 1] / z0
        sums = table
    else:
        ratios = ground_kernel(table.e_min.reshape(-1, 2)[:, 1])
        pair = z0 if mode == "ground_state" else np.ones_like(z0)
        sums = table.kernel_sums(np.stack([pair, pair * ratios], axis=1).reshape(table.z.shape))
    # Refuses Z_0 = 0 of the exact and ground-state modes, which sum the
    # same kernels Z_0^(j,k), and so share the distribution's measure; the
    # high-spin Z_0 = (sum K)^2 is positive once some K is.
    distribution = sector_distribution(table, boundary_weights=boundary_weights)
    log_z0, log_z1 = sums.log_totals
    probs = _pair_measure(table, 1.0, log_z0) if mode == "high_spin" else distribution._measure
    if (probs < -_SIGN_TOL).any():
        raise EntropyError(
            "pair weights are signed; no probability-average decomposition"
        )
    # max(v, 0.0) entry by entry, on a copy only where some entry is
    # negative, so the report shares the distribution's measure: -0.0 and
    # nan stay as they are.
    if (probs < 0.0).any():
        probs = np.where(probs < 0.0, 0.0, probs)

    purity = _ratio(log_z1, log_z0)
    if log_z0[0] * log_z1[0] <= 0:
        raise EntropyError(f"nonpositive purity {purity!r}")
    s2 = log_z0[1] - log_z1[1]

    mass = math.fsum(probs[_feasible(ratios)].tolist())
    if mass <= 0.0:
        raise EntropyError("no pair carries both weight and a finite exponent")

    provenance = {
        "exact": "exact",
        "ground_state": "ground-state",
        "high_spin": "high-spin",
    }[mode]
    return PurityReport(
        z0=sums.totals[0],
        z1=sums.totals[1],
        purity=purity,
        s2=s2,
        feasible_mass=mass,
        provenance=provenance,
        distribution=distribution,
        _table=table,
        _ratios=ratios,
        _probs=probs,
    )


# -- cumulant expansion --------------------------------------------------


@dataclass(frozen=True)
class CumulantSeries:
    """Cumulants kappa_1..kappa_n of X and the alternating partial sums
    sum_{m<=n} (-1)^{m-1} kappa_m / m! approximating -log <e^{-X}>."""

    cumulants: Tuple[float, ...]
    partial_sums: Tuple[float, ...]


def _normalized_weights(
    x_values: Sequence[float], probabilities: Sequence[float]
) -> Tuple[List[float], List[float]]:
    if len(x_values) != len(probabilities):
        raise EntropyError("X values and probabilities differ in length")
    total = math.fsum(probabilities)
    if total <= 0.0:
        raise EntropyError("probabilities carry no mass")
    xs: List[float] = []
    ps: List[float] = []
    for x, p in zip(x_values, probabilities):
        if p < -_SIGN_TOL:
            raise EntropyError(f"negative probability {p!r}")
        if p <= 0.0:
            continue
        if not math.isfinite(x):
            raise EntropyError(
                "non-finite X with positive weight; condition the "
                "distribution on feasible pairs first"
            )
        xs.append(float(x))
        ps.append(p / total)
    if not xs:
        raise EntropyError("empty distribution")
    return xs, ps


def _cumulant_series(
    xs: Sequence[float], ps: Sequence[float], order: int
) -> CumulantSeries:
    mean = math.fsum(p * x for x, p in zip(xs, ps))
    centered = [x - mean for x in xs]
    moments = [0.0] * (order + 1)
    moments[0] = 1.0
    for n in range(2, order + 1):
        moments[n] = math.fsum(p * y**n for y, p in zip(centered, ps))
    kappas = [0.0] * (order + 1)
    kappas[1] = mean
    for n in range(2, order + 1):
        tail = math.fsum(
            math.comb(n - 1, m - 1) * kappas[m] * moments[n - m]
            for m in range(2, n)
        )
        kappas[n] = moments[n] - tail
    partial = []
    acc = 0.0
    for n in range(1, order + 1):
        acc += (-1) ** (n - 1) * kappas[n] / math.factorial(n)
        partial.append(acc)
    return CumulantSeries(
        cumulants=tuple(kappas[1:]), partial_sums=tuple(partial)
    )


def cumulant_expansion(
    x_values: Union[Mapping[str, float], Sequence[float]],
    probabilities: Union[Mapping[str, float], Sequence[float]],
    order: int,
) -> CumulantSeries:
    """Exact cumulants of the finite (X, P) distribution and the partial
    sums of the alternating series for S_2 = -log <e^{-X}>_P.

    Inputs may be two mappings over the same keys or two parallel
    sequences.  Probabilities are renormalized; entries of weight zero are
    dropped, so an unreachable X = inf point is harmless.  Where the series
    converges (spread of X below pi, roughly), the partial sums approach
    -log <e^{-X}>_P; outside that range they are still the exact truncated
    cumulant data, reported as-is.
    """
    if order < 1:
        raise EntropyError("order must be at least 1")
    if isinstance(x_values, Mapping) != isinstance(probabilities, Mapping):
        raise EntropyError("pass two mappings or two sequences, not a mix")
    if isinstance(x_values, Mapping):
        if set(x_values) != set(probabilities):
            raise EntropyError("X values and probabilities differ in keys")
        keys = sorted(x_values)
        seq_x = [x_values[k] for k in keys]
        seq_p = [probabilities[k] for k in keys]
    else:
        seq_x = list(x_values)
        seq_p = list(probabilities)
    xs, ps = _normalized_weights(seq_x, seq_p)
    return _cumulant_series(xs, ps, order)


# -- averaged area form --------------------------------------------------


@dataclass(frozen=True)
class RTAverage:
    """Area statistics of the minimal surfaces and two entropy readings.

    `s2_cumulant` is 1/4 <A> - 1/32 Var A, the value of the second-order
    cumulant expansion under X = A/4.  `s2_area_formula` flips the variance
    sign to +; both conventions are in circulation for the area form, and
    the report carries both so either can be compared against.  They agree
    whenever the minimal areas are sharp (variance zero).
    """

    per_pair_area: Mapping[str, float]
    area_mean: float
    area_variance: float
    s2_cumulant: float
    s2_area_formula: float
    surfaces: Mapping[str, Tuple[str, ...]]
    distinct_surfaces: Tuple[Tuple[str, ...], ...]


def _surface_items(surface) -> List[Tuple[str, Spin]]:
    if isinstance(surface, Mapping):
        pairs = surface.items()
    else:
        pairs = list(surface)
    return [(str(lid), Spin.parse(sp)) for lid, sp in pairs]


def rt_average(
    surfaces: Mapping[str, object],
    probabilities: Mapping[str, float],
) -> RTAverage:
    """Average the minimal-surface areas A = 4 sum_{e in S} log d over P.

    `surfaces` maps each pair id to its minimal surface, given as
    {link id: spin} (or an iterable of such pairs); the spin fixes the
    crossed link's dimension.  Every pair with positive probability must
    have a surface.
    """
    total = math.fsum(probabilities.values())
    if total <= 0.0:
        raise EntropyError("probabilities carry no mass")
    areas: Dict[str, float] = {}
    links: Dict[str, Tuple[str, ...]] = {}
    weights: Dict[str, float] = {}
    for pid, prob in probabilities.items():
        if prob < -_SIGN_TOL:
            raise EntropyError(f"negative probability for pair {pid!r}")
        if prob <= 0.0:
            continue
        if pid not in surfaces:
            raise EntropyError(f"no minimal surface given for pair {pid!r}")
        items = _surface_items(surfaces[pid])
        areas[pid] = 4.0 * math.fsum(math.log(sp.dim) for _, sp in items)
        links[pid] = tuple(sorted(lid for lid, _ in items))
        weights[pid] = prob / total
    if not areas:
        raise EntropyError("empty distribution")
    mean = math.fsum(weights[pid] * areas[pid] for pid in areas)
    var = math.fsum(
        weights[pid] * (areas[pid] - mean) ** 2 for pid in areas
    )
    return RTAverage(
        per_pair_area=areas,
        area_mean=mean,
        area_variance=var,
        s2_cumulant=mean / 4.0 - var / 32.0,
        s2_area_formula=mean / 4.0 + var / 32.0,
        surfaces=links,
        distinct_surfaces=tuple(sorted(set(links.values()))),
    )


def lqg_area_match(j) -> float:
    """Spin s whose Casimir area matches the entropy weight of a link of
    spin j: solves s(s+1) = log^2(2j+1) for s >= 0.

    Accepts a Spin (or anything Spin.parse takes) as well as a plain
    non-negative real j, which need not be half-integer.
    """
    if isinstance(j, (int, float)) and not isinstance(j, bool):
        j_val = float(j)
    else:
        j_val = Spin.parse(j).j
    if j_val < 0.0:
        raise EntropyError(f"negative spin {j_val!r}")
    log_d = math.log(2.0 * j_val + 1.0)
    return (-1.0 + math.sqrt(1.0 + 4.0 * log_d**2)) / 2.0


# -- coarse averaging closed form ----------------------------------------


@dataclass(frozen=True)
class CoarseAverage:
    """Closed-form purity of the single-global-unitary average.

    `s2_limit` is the large-delta minimum of the two competing phases;
    `page_crossover` is the smallest region size at which the whole-region
    phase takes over (None when delta = 1 and every size gives S_2 = 0).
    """

    purity: float
    s2: float
    s2_limit: float
    page_crossover: Optional[int]


def coarse_average_purity(
    region_size: int,
    boundary_size: int,
    s2_core: float,
    delta: float,
) -> CoarseAverage:
    """Purity of a boundary region of `region_size` out of `boundary_size`
    output legs, each of truncated dimension `delta`, against a core of
    Renyi-2 entropy `s2_core`:

        purity = (delta^(n-a) + e^{-s2_core} delta^a)
                 / (delta^n + e^{-s2_core})

    evaluated in log domain, with the limiting form
    min{s2_core + (n-a) log delta, a log delta}.
    """
    if not 0 <= region_size <= boundary_size:
        raise EntropyError(
            f"region size {region_size} outside 0..{boundary_size}"
        )
    if delta < 1.0:
        raise EntropyError(f"truncated link dimension {delta!r} below 1")
    if s2_core < 0.0:
        raise EntropyError(f"negative core entropy {s2_core!r}")
    log_delta = math.log(delta)
    a = region_size
    comp = boundary_size - region_size
    log_num = np.logaddexp(comp * log_delta, a * log_delta - s2_core)
    log_den = np.logaddexp(boundary_size * log_delta, -s2_core)
    s2 = float(log_den - log_num)
    limit = min(s2_core + comp * log_delta, a * log_delta)
    crossover: Optional[int] = None
    if log_delta > 0.0:
        crossover = math.ceil((s2_core / log_delta + boundary_size) / 2.0)
    return CoarseAverage(
        purity=math.exp(-s2),
        s2=s2,
        s2_limit=limit,
        page_crossover=crossover,
    )


# -- fine averaging closed form ------------------------------------------


@dataclass(frozen=True)
class FineAverage:
    """Closed-form purity of the per-sector average with manual weights.

    `p_tilde` are the link-amplitude-reweighted, renormalized weights; the
    purity is sum p_tilde^2 / dim I.  `solving_weights` is the profile
    p_tilde = dim I / D_I that attains the lower bound 1/D_I, with
    D_I = `d_input` the summed intertwiner dimension of the considered
    sectors.  `single_boundary` records whether those sectors share their
    boundary spins (the case in which the bound is the isometry target).
    """

    purity: float
    p_tilde: Mapping[str, float]
    solving_weights: Mapping[str, float]
    d_input: int
    single_boundary: bool


def fine_average_purity(
    weights: Optional[Mapping],
    family: SectorFamily,
    graph: OpenGraph,
) -> FineAverage:
    """Average purity when each sector carries its own Haar unitary and a
    manual weight p_j:  purity = sum_j p_tilde_j^2 / dim I_j with
    p_tilde proportional to p_j prod_e |g_{j_e}|^2.

    `weights` maps sectors (as SpinSector, canonical key, or label) to
    probabilities summing to one; None means uniform over the family's
    admissible sectors.  Sectors with empty intertwiner space are ignored.
    """
    pool = IsingModel(graph, family, ModelKind.bulk_to_boundary()).sector_set()
    pool = pool.take(np.flatnonzero(np.isfinite(pool.vertex_log_d).all(axis=1)))
    if not len(pool):
        raise EntropyError("family admits no sector with intertwiners")
    labels = pool.labels
    by_label = {label: a for a, label in enumerate(labels)}
    by_key = {sec.key(): a for a, sec in enumerate(pool.sectors)}

    if weights is None:
        probs = {a: 1.0 / len(pool) for a in range(len(pool))}
    else:
        probs = {}
        for key, value in weights.items():
            if isinstance(key, SpinSector):
                a = by_key.get(key.key())
            elif isinstance(key, str):
                a = by_label.get(key)
            else:
                a = by_key.get(key)
            if a is None:
                raise EntropyError(f"weight names unknown sector {key!r}")
            if value < 0.0:
                raise EntropyError(f"negative weight for sector {labels[a]}")
            if a in probs:
                raise EntropyError(f"sector {labels[a]} weighted twice")
            probs[a] = float(value)
        if abs(math.fsum(probs.values()) - 1.0) > 1e-9:
            raise EntropyError("sector weights must sum to one")

    inter_dims = {a: math.prod(pool.vertex_dims[a]) for a in probs}
    d_input = sum(inter_dims.values())

    raw = {a: p * math.prod(m**2 for m in pool.amplitude[a].tolist()) for a, p in probs.items()}
    norm = math.fsum(raw.values())
    if norm <= 0.0:
        raise EntropyError("all weighted sectors have vanishing amplitude")
    p_tilde = {a: v / norm for a, v in raw.items()}

    purity = math.fsum(p_tilde[a] ** 2 / inter_dims[a] for a in p_tilde)
    return FineAverage(
        purity=purity,
        p_tilde={labels[a]: v for a, v in p_tilde.items()},
        solving_weights={labels[a]: d / d_input for a, d in inter_dims.items()},
        d_input=d_input,
        single_boundary=len({pool.key[a] for a in probs}) == 1,
    )


# -- high-spin configuration energies ------------------------------------


def high_spin_energies(
    j: SpinSector,
    k: SpinSector,
    family: Optional[SectorFamily] = None,
) -> Dict[str, float]:
    """Rescaled energies of the competing configurations of the pair (j, k).

    All couplings of sector j, lambda_e = log d_e per link and
    Lambda_x = log D_x per vertex, are divided by beta = log D_O of
    sector j, so the boundary cut has unit cost.  With G the set of
    vertices on which j and k agree, the reported entries are

        H1_up   = sum of Lambda~ over G plus lambda~ over the internal
                  links cut by G ("up" means up on G, down elsewhere),
        H1_down = 1,
        H0_up   = 0,
        H0_down = 1 + s_j,       s_j = log(prod_x D_{j^x}) / log D_O,

    together with s_j and the input/output ratio r_E (computed within
    `family` when given, else from sector j alone).  These are formal
    evaluations of the coupling part of H at the named configurations: the
    up-on-G entry does not price boundary legs at vertices outside G, and
    for pairs with different boundary spins some configurations admit no
    delta-allowed realization at all.  H1_up is infinite when G is empty.
    A vertex of j without intertwiners raises `EngineError`, and D_O = 1
    raises `EntropyError`.
    """
    if j.graph != k.graph:
        raise EntropyError("sectors live on different graphs")
    graph = j.graph
    twice = np.array([j.twice_of(graph.link_ids())], dtype=np.int64)
    dims = vertex_dims(graph, twice)[0]
    for x, dim in zip(graph.vertices, dims):
        if dim == 0:
            raise EngineError(f"vertex {x!r} has an empty intertwiner space in this sector")
    beta = sum(math.log(j.spin(lid).dim) for lid in graph.boundary_ids())
    if beta <= 0.0:
        raise EntropyError("D_O = 1: the rescaled couplings are undefined")
    lam_tilde = {lid: math.log(j.spin(lid).dim) / beta for lid in graph.link_ids()}
    big_tilde = {x: math.log(dim) / beta for x, dim in zip(graph.vertices, dims)}

    agree = agreement_region(j, k)
    if agree:
        # Summed in `internal_links` order: a frozenset's order could change
        # the bits.
        cut = boundary_of_region(graph, agree).cut_links
        h1_up = sum(lam_tilde[e.link_id] for e in graph.internal_links if e.link_id in cut)
        h1_up += math.fsum(big_tilde[x] for x in agree)
    else:
        h1_up = math.inf
    s_j = math.fsum(big_tilde.values())

    if family is not None:
        r = sector_dims(j, graph, family).r
    else:
        d_out = math.prod(
            j.spin(lid).dim for lid in graph.boundary_ids()
        )
        r = math.prod(dims) / d_out
    return {
        "H1_up": h1_up,
        "H1_down": 1.0,
        "H0_up": 0.0,
        "H0_down": 1.0 + s_j,
        "s_j": s_j,
        "r_E": r,
    }
