"""Canned reproductions of three worked scenarios, with purity minimization.

Scenario ``c1``: a two-vertex bridge whose rightmost boundary link carries a
superposition of two spins (3s-1 and 3s) while every other leg scales with s.
Each allowed configuration's coupling combination is read from the engine
(its cut links by dimension, plus the state functionals its Hamiltonian
carries at one probe state) and checked against the engine at the start
state, the six partition sums are assembled term by term and checked
against the kernels of the start state's table, and the averaged purity is
minimized over the positive-semidefinite bulk-block parameters (a, b, d,
u, v, w) by a coarse grid over the parameter simplex followed by
coordinate-descent refinement.  The six sums, the closed-form check at the
start state and the minimizer all read one kernel evaluator,
`_BridgeStructure.kernel`.  The reported dimensions come from the engine:
the superposed link's and the input links' from the sectors' spins, the
intertwiner dimensions from the start state's table.  Each state makes one
batched boundary-to-boundary pass: the probe and start states' passes list
the allowed cells with their Hamiltonians and give the state's table from
the same entries, and the minimizer's is its `partition_table`.

Scenario ``c2``: a census of boundary sectors on a single vertex.  The
dimension-only partition sums Z0 = sum(D^2 + D) and Z1 = sum D_I D_O (D_I +
D_O) are checked against the engine, the per-sector purity is expanded in
r = D_I / D_O, and the cross-sector compatibility conditions are solved
(they force one-dimensional inputs and a sector-independent output).

Scenario ``c3``: two 4-valent vertices joined by a single bulk link, all six
boundary legs at spin (n-1)/2.  The averaged-purity sums split into a small-m
branch (m = 2u+1 <= n), a large-m branch (m = n+2k), and a constant part;
direct summation is compared against harmonic-number closed forms, and the
superposition profile on the bulk link is varied (uniform, square-root of the
dimension product, and proportional to the dimension product).  The engine
cross-check reads its kernels from one partition table over the bulk spins
and its log K and endpoint dimensions from that table's sector set.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .bulk import IntertwinerState
from .graph import BoundaryPartition, OpenGraph, build_graph
from .ising import ContractViolation, IsingModel, JsonReport, ModelKind, PartitionSumTable, json_field, json_value
from .spins import SectorFamily, Spin, SpinSector


class ExperimentError(RuntimeError):
    """A scenario precondition or internal consistency check failed."""


REGIONS = ("rightmost", "upper_right")

_REGION_INPUTS = {"rightmost": ("c",), "upper_right": ("b2",)}

_CONFIGS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_PAIR_KEYS = (("low", "low"), ("high", "high"), ("low", "high"))

#: c1's coarse simplex grid takes steps of 1/C1_GRID in (a, d); the
#: stability check repeats the search at twice that resolution.
C1_GRID = 20

#: c1's coordinate descent halves its step until it is no larger than this.
_REFINE_STEP_TOL = 1e-7

#: c2 inflates every output dimension by each of these factors.
C2_SCALE_FACTORS = (1, 10, 100, 1000)

#: c3 runs its engine cross-check for n up to this bound.
C3_ENGINE_CHECK_MAX_N = 10


def _config_label(config: Tuple[int, int]) -> str:
    return "".join("+" if s > 0 else "-" for s in config)


# -- bridge scenario (c1) -------------------------------------------------
#
# Coupling combinations are integer tuples
# (n_L2, n_L6p, n_L6m, has_S2, has_Sigma) over the basis
#   L2 = log(2s+1),  L6p = log(6s+1),  L6m = log(6s-1),
#   S2 = second Renyi entropy of the normalized 2x2 low-sector block,
#   Sigma = -log[(|u|^2+|v|^2) / (w (a+d))] of the cross column.
# The engine gives each allowed cell its combination: the counts are its cut
# links by dimension, the flags the state functionals its Hamiltonian adds
# to the cut energy.


def _combo_label(combo: Tuple[int, int, int, int, int]) -> str:
    n2, n6p, n6m, cs, cq = combo
    parts = []
    for count, token in ((n2, "L2"), (n6p, "L6p"), (n6m, "L6m")):
        if count == 1:
            parts.append(token)
        elif count > 1:
            parts.append(f"{count}{token}")
    if cs:
        parts.append("S2")
    if cq:
        parts.append("Sigma")
    return "+".join(parts) if parts else "0"


def _combo_value(
    combo: Tuple[int, int, int, int, int],
    couplings: Mapping[str, float],
    s2: float,
    sigma: float,
) -> float:
    n2, n6p, n6m, cs, cq = combo
    value = (
        n2 * couplings["L2"] + n6p * couplings["L6p"] + n6m * couplings["L6m"]
    )
    if cs:
        value += s2
    if cq:
        value += sigma
    return value


_DEFAULT_START = {
    "a": 0.3,
    "d": 0.25,
    "b": 0.1 + 0.05j,
    "u": 0.12 - 0.03j,
    "v": 0.08 + 0.1j,
}


def _bridge_graph() -> OpenGraph:
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


def _bridge_spins(s: int):
    base = {"e": s, "a1": s, "a2": s, "a3": 3 * s, "b1": s, "b2": s}
    low = {**base, "c": Spin(6 * s - 2)}
    high = {**base, "c": Spin(6 * s)}
    return low, high


def _bridge_family(graph: OpenGraph, s: int) -> SectorFamily:
    low, high = _bridge_spins(s)
    allowed = {lid: [sp] for lid, sp in low.items()}
    allowed["c"] = [low["c"], high["c"]]
    return SectorFamily.build(
        graph, lower=0, upper=Spin(6 * s), allowed=allowed, normalize=False
    )


def _resolve_start(start: Optional[Mapping[str, complex]]) -> Dict[str, complex]:
    params = dict(_DEFAULT_START) if start is None else dict(start)
    unknown = set(params) - {"a", "d", "w", "b", "u", "v"}
    if unknown:
        raise ExperimentError(f"unknown start parameters {sorted(unknown)}")
    for key in ("a", "d", "b", "u", "v"):
        if key not in params:
            raise ExperimentError(f"start is missing parameter {key!r}")
    a, d = float(params["a"].real), float(params["d"].real)
    b, u, v = complex(params["b"]), complex(params["u"]), complex(params["v"])
    w = float(params.get("w", 1.0 - a - d).real)
    if a + d <= 0.0 or w <= 0.0 or abs(u) ** 2 + abs(v) ** 2 == 0.0:
        raise ExperimentError(
            "degenerate start: both sector weights and the cross column must "
            "be nonzero so every coupling cell is defined"
        )
    return {"a": a, "d": d, "w": w, "b": b, "u": u, "v": v}


def _bridge_state(graph, sectors, params) -> IntertwinerState:
    sec_low, sec_high = sectors
    a, d, w = params["a"], params["d"], params["w"]
    b, u, v = params["b"], params["u"], params["v"]
    return IntertwinerState.from_blocks(
        graph,
        [sec_low, sec_high],
        {
            (sec_low, sec_low): np.array([[a, b], [np.conj(b), d]]),
            (sec_low, sec_high): np.array([[u], [v]]),
            (sec_high, sec_high): np.array([[w]]),
        },
    )


def _state_functionals(params) -> Tuple[float, float]:
    """(S2 of the normalized low block, Sigma of the cross column)."""
    a, d, w = params["a"], params["d"], params["w"]
    b, u, v = params["b"], params["u"], params["v"]
    wj = a + d
    s2 = -math.log((a * a + d * d + 2.0 * abs(b) ** 2) / (wj * wj))
    sigma = -math.log((abs(u) ** 2 + abs(v) ** 2) / (w * wj))
    return s2, sigma


def _params_from_x(x: Sequence[float]) -> Dict[str, complex]:
    """Bulk-block parameters from simplex coordinates (a, d, t_hat, q_hat).

    t_hat in [0, 1] interpolates |b|^2 between 0 and its rank-deficiency
    bound a d; q_hat scales the cross column along the top eigenvector of
    the low-sector block up to the Schur-complement bound, so every point
    of the box is positive semidefinite by construction.
    """
    a, d, t_hat, q_hat = (float(c) for c in x)
    w = 1.0 - a - d
    b_sq = t_hat * a * d
    b = math.sqrt(b_sq)
    lam_max = 0.5 * ((a + d) + math.sqrt((a - d) ** 2 + 4.0 * b_sq))
    mag = math.sqrt(q_hat * max(w, 0.0) * lam_max)
    if b_sq > 0.0 or a != d:
        vec = np.array([b, lam_max - a])
        norm = math.hypot(*vec)
        vec = vec / norm if norm > 0.0 else np.array([1.0, 0.0])
    else:
        vec = np.array([1.0, 0.0])
    return {
        "a": a,
        "d": d,
        "w": w,
        "b": complex(b),
        "u": complex(mag * vec[0]),
        "v": complex(mag * vec[1]),
    }


def _x_functionals(x) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(w_low, w_high, t, q) of simplex points, t = e^{-S2} and q = e^{-Sigma}.

    `x` holds one point (a, d, t_hat, q_hat) or an (n, 4) array of them; the
    low-sector functionals are 0 where a + d = 0.
    """
    a, d, t_hat, q_hat = np.asarray(x, dtype=float).T
    w = 1.0 - a - d
    wj = a + d
    b_sq = t_hat * a * d
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (a * a + d * d + 2.0 * b_sq) / (wj * wj)
        lam_max = 0.5 * (wj + np.sqrt((a - d) ** 2 + 4.0 * b_sq))
        q = q_hat * lam_max / wj
    empty = wj <= 0.0
    return wj, w, np.where(empty, 0.0, t), np.where(empty, 0.0, q)


#: Simplex point of the state the kernel structure is read at.
_PROBE = (0.3, 0.25, 0.7, 0.5)


@dataclass(frozen=True)
class _BridgeStructure:
    """Kernel structure of the bridge at one input region, read from the
    engine's cut links and Hamiltonians at one probe state.

    `entries[(pair, replica)]` lists (config, exp(-lambda_cut), combo) of
    the allowed configurations in `_CONFIGS` order: the kernel of one is the
    geometric factor times t^has_S2 q^has_Sigma, with t = e^{-S2} and
    q = e^{-Sigma}.  `k_geom` holds the state-independent K factors
    (K_low / w_low, K_high / w_high).  `kernel` is the one evaluator of a
    kernel and `purity`, which reads it, of the averaged purity, for any
    array of states.
    """

    entries: Dict[
        Tuple[Tuple[str, str], int],
        Tuple[Tuple[Tuple[int, int], float, Tuple[int, int, int, int, int]], ...],
    ]
    forbidden: Tuple[Tuple[Tuple[str, str], int, Tuple[int, int]], ...]
    k_geom: Tuple[float, float]

    def kernel(self, pair, replica, t, q):
        """(terms, total) of one kernel at (t, q).  `terms` pairs each
        allowed entry's config with its factor, times t where it has S2,
        then times q where it has Sigma; `total` adds the terms to 0.0 in
        `_CONFIGS` order."""
        terms = []
        total = 0.0
        for config, factor, combo in self.entries[(pair, replica)]:
            term = factor * t if combo[3] else factor
            if combo[4]:
                term = term * q
            terms.append((config, term))
            total = total + term
        return terms, total

    def purity(self, wj, wk, t, q) -> np.ndarray:
        """Averaged purity Z_1 / Z_0 over arrays of (w_low, w_high, t, q),
        +inf where Z_0 <= 0.  Every entry is computed elementwise, so it has
        the bits of a call on that point alone."""
        wj, wk, t, q = (np.asarray(v, dtype=float) for v in (wj, wk, t, q))
        kj = self.k_geom[0] * wj
        kk = self.k_geom[1] * wk
        z = [0.0, 0.0]
        for weight, pair in (
            (kj * kj, ("low", "low")),
            (kk * kk, ("high", "high")),
            (2.0 * kj * kk, ("low", "high")),
        ):
            for replica in (0, 1):
                z[replica] = z[replica] + weight * self.kernel(pair, replica, t, q)[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(z[0] > 0.0, z[1] / z[0], np.inf)


def _bridge_cells(
    model: IsingModel, sectors
) -> Tuple[Dict[Tuple[Tuple[str, str], int, Tuple[int, int]], float], PartitionSumTable]:
    """H of every allowed (pair, replica, config) cell of the bridge at the
    model's state, and the state's table over `sectors` (low, high, at rows
    0 and 1), both from one `_boundary_entries` pass, whose configuration
    order `_CONFIGS` follows.  Both sectors carry weight (`_resolve_start`
    refuses a zero weight, and the probe point has a + d = 0.55 and
    w = 0.45), so the set equals its `weighted()` and the table is the one
    `partition_table` builds."""
    pool = model.sector_set(sectors)
    row, config, cos, log, energy = model._boundary_entries(pool)
    names = ("low", "high")
    cells = {}
    for r, i, h in zip(row.tolist(), config.tolist(), energy.tolist()):
        (a, b), replica = divmod(r // 2, 2), r % 2
        cells[(names[a], names[b]), replica, _CONFIGS[i]] = h
    return cells, PartitionSumTable(pool, model._reduce_entries(len(pool), row, cos, log, energy))


def _extract_structure(
    graph: OpenGraph,
    family: SectorFamily,
    sectors,
    kind: ModelKind,
    dims: Tuple[int, int, int],
) -> _BridgeStructure:
    """Read the kernel structure off the engine at the probe state.

    Every cell, and the probe state's table, come from one `_bridge_cells`
    pass; a cell without an entry is forbidden.  An allowed cell's coupling
    counts are its cut links (the model's cut mask) counted by each
    dimension of the coupling basis `dims`, its geometric factor is
    exp(-lambda) with lambda the sum of log d over those links, and its
    state flags name the one member of
    {0, S2, Sigma, S2 + Sigma} that its H exceeds lambda by.  The K factors
    and the check that the mirrored cross pair has the same kernels read
    that table, low at row 0 and high at row 1.
    """
    params = _params_from_x(_PROBE)
    model = IsingModel(graph, family, kind, state=_bridge_state(graph, sectors, params))
    s2, sigma = _state_functionals(params)
    sec = {"low": sectors[0], "high": sectors[1]}
    allowed, table = _bridge_cells(model, sectors)
    cut_mask, links = model._masks[0], graph.link_ids()
    entries: Dict = {}
    forbidden: List = []
    for pair in _PAIR_KEYS:
        j = sec[pair[0]]
        for replica in (0, 1):
            cells = []
            for i, config in enumerate(_CONFIGS):
                h = allowed.get((pair, replica, config))
                if h is None:
                    forbidden.append((pair, replica, config))
                    continue
                cut = [j.spin(lid).dim for lid, is_cut in zip(links, cut_mask[replica, :, i].tolist()) if is_cut]
                lam = sum(math.log(dim) for dim in cut)
                counts = tuple(cut.count(dim) for dim in dims)
                flags = [
                    (cs, cq)
                    for cs in (0, 1)
                    for cq in (0, 1)
                    if abs(h - lam - cs * s2 - cq * sigma)
                    <= 1e-9 * max(1.0, abs(h))
                ]
                if sum(counts) != len(cut) or len(flags) != 1:
                    raise ExperimentError(
                        f"kernel cell {pair}/{replica}/{_config_label(config)} "
                        f"does not separate into cut links and state parts"
                    )
                cells.append((config, math.exp(-lam), counts + flags[0]))
            entries[(pair, replica)] = tuple(cells)
    # the mirrored cross pair must carry the same kernels
    for replica in (0, 1):
        mirrored, direct = table.z[1, 0, replica], table.z[0, 1, replica]
        if not math.isclose(mirrored, direct, rel_tol=1e-12, abs_tol=1e-300):
            raise ExperimentError("cross-sector kernels are not symmetric")
    k_low, k_high = table.k.tolist()
    return _BridgeStructure(
        entries=entries,
        forbidden=tuple(forbidden),
        k_geom=(k_low / (params["a"] + params["d"]), k_high / params["w"]),
    )


def _coarse_grid(fn, resolution: int):
    """Minimum of `fn` over the simplex grid of step 1/resolution in (a, d)
    and quarter steps in (t_hat, q_hat), all points in one call."""
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    ad = np.array(
        [
            (i / resolution, j / resolution)
            for i in range(resolution + 1)
            for j in range(resolution + 1 - i)
        ]
    )
    tq = np.array([(t_hat, q_hat) for t_hat in levels for q_hat in levels])
    points = np.hstack(
        [np.repeat(ad, len(tq), axis=0), np.tile(tq, (len(ad), 1))]
    )
    values = fn(points)
    best = int(np.argmin(values))
    return points[best].tolist(), float(values[best]), len(points)


def _refine(fn, x0, step0: float):
    x = list(x0)
    best = float(fn(x))
    evals = 1
    step = step0

    def candidate(i: int, delta: float):
        cand = list(x)
        cand[i] = min(max(cand[i] + delta, 0.0), 1.0)
        if (i < 2 and cand[0] + cand[1] > 1.0) or cand == x:
            return None
        return cand

    while step > _REFINE_STEP_TOL:
        moved = True
        while moved:
            moved = False
            for i in range(4):
                walking = True
                while walking:
                    walking = False
                    # both directions in one call; the second counts as an
                    # evaluation only when the first does not improve
                    cands = [candidate(i, step), candidate(i, -step)]
                    cands = [cand for cand in cands if cand is not None]
                    if not cands:
                        continue
                    for cand, value in zip(cands, fn(cands).tolist()):
                        evals += 1
                        if value < best:
                            x, best = cand, value
                            walking = True
                            moved = True
                            break
        step *= 0.5
    return x, best, evals


@dataclass(frozen=True)
class C1Cell(JsonReport):
    """One allowed coupling cell: its combination's value against the
    engine Hamiltonian at the start state."""

    pair: Tuple[str, str]
    replica: int
    config: Tuple[int, int] = json_field(None)
    combo: str
    expected: float
    engine: float
    defect: float

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "config": _config_label(self.config)}


@dataclass(frozen=True)
class C1Sum(JsonReport):
    pair: Tuple[str, str]
    replica: int
    terms: Tuple[Tuple[str, float], ...] = json_field(None)
    total: float
    engine: float
    defect: float

    def to_json_dict(self) -> dict:
        terms = [{"config": label, "value": value} for label, value in self.terms]
        return {**super().to_json_dict(), "terms": json_value(terms)}


@dataclass(frozen=True)
class C1Optimum(JsonReport):
    resolution: int
    coarse_point: Tuple[float, float, float, float]
    coarse_value: float
    a: float
    d: float
    w: float
    t_hat: float
    q_hat: float
    purity: float
    evaluations: int


@dataclass(frozen=True)
class C1Report(JsonReport):
    """Bridge scenario: table verification, six sums, minimized purity."""

    s: int
    region: str
    mode: str
    input_links: Tuple[str, ...]
    couplings: Dict[str, float]
    d_input: int = json_field("D_I")
    sector_dims: Dict[str, Dict[str, float]]
    start: Dict[str, complex] = json_field(None)
    start_s2: float = json_field("start_S2")
    start_sigma: float = json_field("start_Sigma")
    cells: Tuple[C1Cell, ...]
    forbidden: Tuple[Tuple[Tuple[str, str], int, Tuple[int, int]], ...] = json_field(None)
    sums: Tuple[C1Sum, ...]
    diag_purity: Dict[str, float]
    closed_form_defect: float
    optimum: C1Optimum
    doubled: C1Optimum
    stability_distance: float
    engine_purity: float
    engine_defect: float
    target_formula: str
    target_value: float
    target_rel_dev: float
    reference_minimizer: Tuple[float, float, float]
    minimizer_distance: float

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), **json_value({
            "start": {
                key: ([value.real, value.imag] if isinstance(value, complex) else value)
                for key, value in self.start.items()
            },
            "forbidden": [
                {"pair": pair, "replica": replica, "config": _config_label(config)}
                for pair, replica, config in self.forbidden
            ],
        })}


def reproduce_c1(
    s: int,
    region: str = "rightmost",
    *,
    start: Optional[Mapping[str, complex]] = None,
) -> C1Report:
    """Read the bridge coupling structure off the engine, assemble its six
    partition sums, and minimize the averaged purity over the bulk-block
    parameters.

    Each allowed cell's combination comes from the engine's cut links and
    its Hamiltonian at one probe state (`_bridge_cells`, as at the start
    state, where a cell without a Hamiltonian raises `ContractViolation`).
    Each state makes one boundary-to-boundary pass: the probe and start
    states' give their cells and their tables (low at row 0, high at row
    1), and the start table checks the six sums; the minimizer's is its
    `partition_table`.  One kernel evaluator gives the six sums at the
    start state and, through the array evaluator of the purity, the
    closed-form check there and every value of the search: a coarse grid
    (steps of 1/C1_GRID in (a, d)) and its refinement, run again at twice
    that resolution to measure the minimizer's stability.
    `region` selects the input leg: "rightmost" makes the two-spin
    superposed link the input (purity target 1/(12 s)); "upper_right" makes
    one of the plain spin-s legs the input (purity target 1/(2s+1)).
    `start` optionally replaces the default generic bulk block (a, d, b, u,
    v[, w]); it must be a unit-trace positive-semidefinite block with both
    sector weights and the cross column nonzero.  Each check is made once:
    `_resolve_start` raises `ExperimentError` on an unknown or missing
    parameter and on a zero sector weight or cross column, and
    `IntertwinerState.from_blocks`, which builds the start state, raises
    `BulkStateError` on a block whose trace is not 1 or that is not
    positive semidefinite.
    """
    if s != int(s) or s < 1:
        raise ExperimentError(f"scale must be an integer >= 1, got {s!r}")
    s = int(s)
    if region not in REGIONS:
        raise ExperimentError(
            f"unknown region {region!r}; expected one of {REGIONS}"
        )
    basis = {"L2": 2 * s + 1, "L6p": 6 * s + 1, "L6m": 6 * s - 1}
    couplings = {name: math.log(dim) for name, dim in basis.items()}
    graph = _bridge_graph()
    family = _bridge_family(graph, s)
    low, high = _bridge_spins(s)
    sectors = (SpinSector.make(graph, low), SpinSector.make(graph, high))
    partition = BoundaryPartition.from_input(graph, list(_REGION_INPUTS[region]))
    kind = ModelKind.boundary_to_boundary(partition)

    structure = _extract_structure(graph, family, sectors, kind, tuple(basis.values()))

    start_params = _resolve_start(start)
    start_state = _bridge_state(graph, sectors, start_params)
    model = IsingModel(graph, family, kind, state=start_state)
    s2, sigma = _state_functionals(start_params)

    # cell-by-cell verification at the start state before any optimization
    cells = []
    allowed, table = _bridge_cells(model, sectors)
    for (pair, replica), entries in sorted(structure.entries.items()):
        for config, _, combo in entries:
            expected = _combo_value(combo, couplings, s2, sigma)
            engine = allowed.get((pair, replica, config))
            if engine is None:
                raise ContractViolation(
                    f"Hamiltonian undefined on the forbidden configuration "
                    f"{_config_label(config)} of {pair} (replica {replica}) at the start state"
                )
            cells.append(
                C1Cell(
                    pair=pair,
                    replica=replica,
                    config=config,
                    combo=_combo_label(combo),
                    expected=expected,
                    engine=engine,
                    defect=abs(engine - expected),
                )
            )
    for pair, replica, config in structure.forbidden:
        if (pair, replica, config) in allowed:
            raise ExperimentError(
                f"configuration {_config_label(config)} of {pair} is allowed "
                f"at the start state but forbidden at the probe state"
            )

    # the six partition sums, term by term, against the engine's kernels
    row = {"low": 0, "high": 1}
    t_start = math.exp(-s2)
    q_start = math.exp(-sigma)
    sums = []
    for pair in _PAIR_KEYS:
        for replica in (0, 1):
            terms, total = structure.kernel(pair, replica, t_start, q_start)
            engine = float(table.z[row[pair[0]], row[pair[1]], replica])
            sums.append(
                C1Sum(
                    pair=pair,
                    replica=replica,
                    terms=tuple((_config_label(config), value) for config, value in terms),
                    total=total,
                    engine=engine,
                    defect=abs(engine - total) / max(abs(total), 1e-300),
                )
            )

    # sector-diagonal purities and their leading large-s behaviour
    totals = {(item.pair, item.replica): item.total for item in sums}
    diag = {}
    for name in ("low", "high"):
        pair = (name, name)
        z1, z0 = totals[(pair, 1)], totals[(pair, 0)]
        lead = math.exp(
            -min(-math.log(w) for _, w, _ in structure.entries[(pair, 1)])
        )
        diag[name] = z1 / z0
        diag[f"{name}_leading"] = lead
        diag[f"{name}_rel_dev"] = abs(z1 / z0 - lead) / lead
    engine_start = table.totals[1] / table.totals[0]
    wj_start = start_params["a"] + start_params["d"]
    closed_start = float(
        structure.purity(wj_start, start_params["w"], t_start, q_start)
    )
    closed_defect = abs(closed_start - engine_start) / engine_start

    # minimize over the simplex box
    def purity_at(x):
        return structure.purity(*_x_functionals(x))

    def minimize(resolution):
        coarse_pt, coarse_val, coarse_evals = _coarse_grid(purity_at, resolution)
        x, value, evals = _refine(purity_at, coarse_pt, 1.0 / resolution)
        return C1Optimum(
            resolution=resolution,
            coarse_point=tuple(coarse_pt),
            coarse_value=coarse_val,
            a=x[0],
            d=x[1],
            w=1.0 - x[0] - x[1],
            t_hat=x[2],
            q_hat=x[3],
            purity=value,
            evaluations=coarse_evals + evals,
        )

    optimum, doubled = minimize(C1_GRID), minimize(2 * C1_GRID)
    stability = max(
        abs(optimum.a - doubled.a),
        abs(optimum.d - doubled.d),
        abs(optimum.w - doubled.w),
    )

    # engine confirmation at the minimizer
    min_params = _params_from_x((optimum.a, optimum.d, optimum.t_hat, optimum.q_hat))
    min_state = _bridge_state(graph, sectors, min_params)
    min_model = IsingModel(graph, family, kind, state=min_state)
    min_table = min_model.partition_table()
    engine_purity = min_table.totals[1] / min_table.totals[0]
    engine_defect = abs(engine_purity - optimum.purity) / engine_purity

    # D_I sums the input links' dimension products over the distinct input
    # spins of the two sectors.  The targets are the paper's, which the
    # engine is checked against.
    inputs = _REGION_INPUTS[region]
    d_input = sum(math.prod(key) for key in {tuple(sec.spin(lid).dim for lid in inputs) for sec in sectors})
    if region == "rightmost":
        target_formula = "1/(12 s)"
        target = 1.0 / (12 * s)
        reference_min = (0.25, 0.25, 0.5)
    else:
        target_formula = "1/(2 s + 1)"
        target = 1.0 / (2 * s + 1)
        reference_min = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    minimizer_distance = max(
        abs(v - r) for v, r in zip((optimum.a, optimum.d, optimum.w), reference_min)
    )

    dims = {
        name: {"c": float(sec.spin("c").dim), "intertwiner": float(math.prod(vertex)), "k_geometric": k}
        for name, sec, vertex, k in zip(("low", "high"), sectors, table.sectors.vertex_dims, structure.k_geom)
    }
    return C1Report(
        s=s,
        region=region,
        mode="exact",
        input_links=inputs,
        couplings=couplings,
        d_input=d_input,
        sector_dims=dims,
        start=dict(start_params),
        start_s2=s2,
        start_sigma=sigma,
        cells=tuple(cells),
        forbidden=structure.forbidden,
        sums=tuple(sums),
        diag_purity=diag,
        closed_form_defect=closed_defect,
        optimum=optimum,
        doubled=doubled,
        stability_distance=stability,
        engine_purity=engine_purity,
        engine_defect=engine_defect,
        target_formula=target_formula,
        target_value=target,
        target_rel_dev=abs(optimum.purity - target) / target,
        reference_minimizer=reference_min,
        minimizer_distance=minimizer_distance,
    )


# -- single-vertex census (c2) --------------------------------------------


@dataclass(frozen=True)
class C2Sector(JsonReport):
    label: str
    d_input: int = json_field("D_I")
    d_output: int = json_field("D_O")
    d_total: int = json_field("D")
    ratio: float = json_field("r")
    z0_formula: int = json_field("Z_0_formula")
    z1_formula: int = json_field("Z_1_formula")
    z0_engine: float = json_field("Z_0_engine")
    z1_engine: float = json_field("Z_1_engine")
    z0_defect: float = json_field("Z_0_defect")
    z1_defect: float = json_field("Z_1_defect")
    purity_engine: float
    purity_formula: float
    purity_defect: float
    y0: float = json_field("Y_0")
    y1: float = json_field("Y_1")
    expansion_first_order: float
    expansion_remainder: float
    remainder_bounded: bool


@dataclass(frozen=True)
class C2Solution(JsonReport):
    """Joint solution of the cross-sector compatibility conditions.

    Per sector, D (D_I + D_O) = q D_I and D (D + 1) = q D_I^2 must hold for
    one constant q; eliminating q forces D_I = 1 and a sector-independent
    output dimension, in which case q = D + 1 and r = 1/D.
    """

    feasible: bool
    q: Optional[int]
    d_input: Optional[int] = json_field("D_I")
    d_output: Optional[int] = json_field("D_O")
    r_values: Tuple[float, ...]
    sector_q: Tuple[Tuple[str, float, float], ...] = json_field(None)
    failures: Tuple[str, ...]

    def to_json_dict(self) -> dict:
        sector_q = [{"label": label, "q_weight": qw, "q_norm": qn} for label, qw, qn in self.sector_q]
        return {**super().to_json_dict(), "sector_q": json_value(sector_q)}


@dataclass(frozen=True)
class C2Report(JsonReport):
    mode: str
    sectors: Tuple[C2Sector, ...]
    z0_diagonal_formula: int = json_field("Z_0_diagonal_formula")
    z1_formula: int = json_field("Z_1_formula")
    z0_diagonal_engine: float = json_field("Z_0_diagonal_engine")
    z1_diagonal_engine: float = json_field("Z_1_diagonal_engine")
    z0_full_formula: int = json_field("Z_0_full_formula")
    z0_full_engine: float = json_field("Z_0_full_engine")
    z1_full_engine: float = json_field("Z_1_full_engine")
    solution: C2Solution
    high_beta: Tuple[Tuple[int, float, float], ...] = json_field(None)
    high_beta_monotone: bool

    def to_json_dict(self) -> dict:
        high_beta = [{"scale": scale, "purity_defect": pd, "Y_0_defect": yd} for scale, pd, yd in self.high_beta]
        return {**super().to_json_dict(), "high_beta": json_value(high_beta)}


def _solve_cross_sector(dims: Sequence[Tuple[str, int, int]]) -> C2Solution:
    """Solve the paired conditions over the sectors' (label, D_I, D_O).

    With D = D_I D_O, q_weight = D (D_I + D_O) / D_I = D_O (D_I + D_O) and
    q_norm = D (D + 1) / D_I^2 = D_O (D_I D_O + 1) / D_I are equal exactly
    when D_I (D_I + D_O) = D_I D_O + 1, that is D_I^2 = 1, so a sector is
    refused where D_I != 1.  `sector_q` holds both as floats, each the
    exact quotient rounded once (int / int).
    """
    sector_q = []
    failures = []
    r_values = []
    outputs = sorted({d_o for _, _, d_o in dims})
    for label, d_i, d_o in dims:
        d = d_i * d_o
        sector_q.append((label, d * (d_i + d_o) / d_i, d * (d + 1) / (d_i * d_i)))
        r_values.append(1.0 / d)
        if d_i != 1:
            failures.append(
                f"sector {label}: input dimension {d_i} breaks the paired "
                f"conditions (they force a one-dimensional input)"
            )
    if len(outputs) > 1:
        failures.append(
            f"output dimension varies across sectors: {outputs}"
        )
    feasible = not failures
    return C2Solution(
        feasible=feasible,
        q=(dims[0][1] * dims[0][2] + 1) if feasible else None,
        d_input=1 if feasible else None,
        d_output=outputs[0] if feasible else None,
        r_values=tuple(r_values),
        sector_q=tuple(sector_q),
        failures=tuple(failures),
    )


def reproduce_c2(
    family: SectorFamily,
    graph: OpenGraph,
) -> C2Report:
    """Single-vertex sector census against the dimension-only partition sums.

    The census counts every admissible sector of the family, read from the
    family's default table (`IsingModel.partition_table()`).  The report
    carries the diagonal sums (which the dimension formulas describe), the
    full engine totals including cross-sector normalization pairs, the
    cross-sector solution, and the scaling behaviour as the output
    dimension is inflated by each of C2_SCALE_FACTORS.
    """
    if len(graph.vertices) != 1:
        raise ExperimentError(
            f"the sector census needs a single-vertex graph, got "
            f"{len(graph.vertices)} vertices"
        )
    if graph.internal_ids():
        raise ExperimentError(
            "the sector census needs boundary links only (no loops)"
        )
    model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
    table = model.partition_table()
    pool = table.sectors
    if not len(pool):
        raise ExperimentError("the census is empty: the family has no admissible sector")

    sectors = []
    dims = []
    for a, label in enumerate(pool.labels):
        (d_i,) = pool.vertex_dims[a]
        code = int(pool.key[a])
        d_o = pool.d_output(code)
        d = d_i * d_o
        dims.append((label, d_i, d_o))
        z0_f = d * d + d
        z1_f = d_i * d_o * (d_i + d_o)
        z0_e, z1_e = table.z_bar[code]
        r = d_i / d_o
        purity = z1_e / z0_e
        formula = (1.0 / d_i) * (1.0 + r) / (1.0 + r / d_i**2)
        first = (1.0 / d_i) * (1.0 + (1.0 - 1.0 / d_i**2) * r)
        remainder = abs(formula - first)
        sectors.append(
            C2Sector(
                label=label,
                d_input=d_i,
                d_output=d_o,
                d_total=d,
                ratio=r,
                z0_formula=z0_f,
                z1_formula=z1_f,
                z0_engine=z0_e,
                z1_engine=z1_e,
                z0_defect=abs(z0_e - z0_f) / z0_f,
                z1_defect=abs(z1_e - z1_f) / z1_f,
                purity_engine=purity,
                purity_formula=formula,
                purity_defect=abs(purity - formula) / formula,
                y0=z0_e / d**2,
                y1=z1_e / d**2,
                expansion_first_order=first,
                expansion_remainder=remainder,
                remainder_bounded=remainder <= r * r,
            )
        )

    z0_diag_f = sum(item.z0_formula for item in sectors)
    z1_f = sum(item.z1_formula for item in sectors)
    z0_diag_e = sum(item.z0_engine for item in sectors)
    z1_diag_e = sum(item.z1_engine for item in sectors)
    total_d = sum(d_i * d_o for _, d_i, d_o in dims)
    z0_full_f = total_d * total_d + total_d

    solution = _solve_cross_sector(dims)

    high_beta = []
    previous = math.inf
    monotone = True
    for scale in C2_SCALE_FACTORS:
        purity_defect = max(
            abs(
                (d_i + scale * d_o) / (d_i * scale * d_o + 1.0) * d_i - 1.0
            )
            for _, d_i, d_o in dims
        )
        y0_defect = max(1.0 / (d_i * scale * d_o) for _, d_i, d_o in dims)
        if purity_defect >= previous:
            monotone = False
        previous = purity_defect
        high_beta.append((scale, purity_defect, y0_defect))

    return C2Report(
        mode="exact",
        sectors=tuple(sectors),
        z0_diagonal_formula=z0_diag_f,
        z1_formula=z1_f,
        z0_diagonal_engine=z0_diag_e,
        z1_diagonal_engine=z1_diag_e,
        z0_full_formula=z0_full_f,
        z0_full_engine=table.totals[0],
        z1_full_engine=table.totals[1],
        solution=solution,
        high_beta=tuple(high_beta),
        high_beta_monotone=monotone,
    )


# -- single bulk link (c3) ------------------------------------------------


@dataclass(frozen=True)
class C3Branch(JsonReport):
    """One branch of a purity sum: direct value vs closed form.

    `closed` is the regular harmonic-number form (sums running to the last
    positive-dimension step); `formal` continues the tabulated closed form
    through its singular argument via the reflection identities
    psi0(1-n) -> psi0(n), psi1(1-n) -> pi^2 - psi1(n), dropping the
    oscillatory remainder, and only exists for the large-m branch.
    """

    direct: float
    closed: float
    defect: float
    expansion_target: Optional[float] = None
    expansion_defect: Optional[float] = None
    formal: Optional[float] = None
    formal_target: Optional[float] = None
    formal_defect: Optional[float] = None


@dataclass(frozen=True)
class C3Profile(JsonReport):
    name: str
    y1: float = json_field("Y_1")
    y0: float = json_field("Y_0")
    ratio: float
    ratio_times_pair_dim: float
    pair_defect: float


@dataclass(frozen=True)
class C3EngineCheck(JsonReport):
    spins: Tuple[str, ...]
    dims_match: bool
    kernel_defect: float
    k_defect: float
    pairs_checked: int


@dataclass(frozen=True)
class C3Report(JsonReport):
    n: int
    profile: str
    mode: str
    d_output: int = json_field("D_O")
    d_input_schematic: int = json_field("D_I_schematic")
    d_input_pair: int = json_field("D_I_pair")
    spin_count: int
    y1_small: C3Branch = json_field("Y_1_small_m")
    y1_large: C3Branch = json_field("Y_1_large_m")
    y0_small: C3Branch = json_field("Y_0_small_m")
    y0_large: C3Branch = json_field("Y_0_large_m")
    constant_y1: float = json_field("constant_Y_1")
    constant_y0: float = json_field("constant_Y_0")
    parts_ratio_direct: float
    parts_ratio_formal: float
    formal_ratio_window: float
    evaluations: Tuple[C3Profile, ...]
    engine: Optional[C3EngineCheck]
    notes: Tuple[str, ...]


def _c3_z1(dim, dlink, b):
    """Swapped kernel of bulk spin u (dlink = 2u + 1, endpoint dimension dim)."""
    return 1.0 / dim**2 + 2.0 * b / (dim * dlink) + b * b


def _c3_z0(dim, dlink, b):
    """Normalization kernel of bulk spin u, as in `_c3_z1`."""
    return 1.0 + 2.0 * b / (dim * dlink) + (b / dim) ** 2


def _c3_engine_check(n: int) -> C3EngineCheck:
    """Compare the uniform-dimension kernels against the engine on the
    subfamily of bulk spins whose parity admits a nonzero intertwiner.

    One `partition_table` over the family's sectors, in order of bulk
    spin, gives every kernel; its `SectorSet` gives log K and the dimension
    at vertex x."""
    j_twice = n - 1
    graph = build_graph(
        {
            "vertices": [
                {"id": "x", "valence": 4},
                {"id": "y", "valence": 4},
            ],
            "links": [
                {"id": "e", "ends": [["x", 0], ["y", 0]]},
                {"id": "a1", "end": ["x", 1]},
                {"id": "a2", "end": ["x", 2]},
                {"id": "a3", "end": ["x", 3]},
                {"id": "c1", "end": ["y", 1]},
                {"id": "c2", "end": ["y", 2]},
                {"id": "c3", "end": ["y", 3]},
            ],
        }
    )
    valid_m = [m for m in range(1, n + 1) if (m - n) % 2 == 0]
    valid_m += [n + 2 * k for k in range(1, n)]
    boundary = Spin(j_twice)
    allowed = {lid: [boundary] for lid in ("a1", "a2", "a3", "c1", "c2", "c3")}
    allowed["e"] = [Spin(m - 1) for m in valid_m]
    family = SectorFamily.build(
        graph, lower=0, upper=Spin(3 * n - 3), allowed=allowed, normalize=False
    )
    model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
    # e is the first link and every boundary spin is fixed, so the family's
    # own pool comes in order of e.
    sectors = model.sector_set()
    table = model.partition_table(sectors)
    b = 1.0 / n**3
    model_dim = {}
    for m in valid_m:
        model_dim[m] = m if m <= n else n - (m - n) // 2
    x = graph.vertices.index("x")
    dims_match = True
    k_defect = 0.0
    for sector, dims, log_k in zip(sectors.sectors, sectors.vertex_dims, sectors.log_k.tolist()):
        m = sector.spin("e").twice + 1
        if dims[x] != model_dim[m]:
            dims_match = False
        k_expected = math.log(float(n) ** 6) + 2.0 * math.log(model_dim[m])
        k_defect = max(k_defect, abs(log_k - k_expected))
    kernel_defect = 0.0
    pairs = 0
    z = table.z.tolist()
    m_of = [sector.spin("e").twice + 1 for sector in table.sectors.sectors]
    for i, mi in enumerate(m_of):
        for j in range(i, len(m_of)):
            if i == j:
                z1_model = _c3_z1(model_dim[mi], mi, b)
                z0_model = _c3_z0(model_dim[mi], mi, b)
            else:
                z1_model = b * b
                z0_model = 1.0
            z0, z1 = z[i][j]
            kernel_defect = max(
                kernel_defect,
                abs(z1 - z1_model) / z1_model,
                abs(z0 - z0_model) / z0_model,
            )
            pairs += 1
    return C3EngineCheck(
        spins=tuple(str(Spin(m - 1)) for m in valid_m),
        dims_match=dims_match,
        kernel_defect=kernel_defect,
        k_defect=k_defect,
        pairs_checked=pairs,
    )


def _harmonic(x: int, power: int = 1) -> float:
    """H^(power)_x = sum_{k=1}^{x} 1 / k^power, the float terms summed
    exactly (`math.fsum`): psi(x + 1) + gamma for power 1 and
    pi^2/6 - psi_1(x + 1) for power 2, without the cancellation of the
    latter."""
    return math.fsum(1.0 / k**power for k in range(1, x + 1))


def _digamma_gap(start: float, count: int) -> float:
    """psi(start + count) - psi(start) = sum_{k=0}^{count-1} 1 / (start + k),
    summed exactly from the float terms; `start` is an integer or a
    half-integer, so every start + k is exact."""
    return math.fsum(1.0 / (start + k) for k in range(count))


def reproduce_c3(
    n: int,
    profile: str = "unit",
) -> C3Report:
    """Branch sums of the single-bulk-link purity against closed forms.

    All six boundary legs carry spin (n-1)/2, so the output dimension is
    n^6; the bulk spin u runs over the uniform-dimension profile m = 2u+1
    with endpoint dimensions m (m <= n) and n-k (m = n+2k, k < n).  With
    `profile="isometric"` the bulk superposition additionally gets the
    square-root profile |g|^2 ~ sqrt(D_x D_y) and the dimension-
    proportional profile |g|^2 ~ D_x D_y, re-evaluating the purity ratio
    for each; `profile="unit"` keeps the plain g = 1 census.  The engine
    cross-check (parity-admissible subfamily) runs for n <=
    C3_ENGINE_CHECK_MAX_N; beyond, the report's `engine` is None.
    """
    if n != int(n) or n < 2:
        raise ExperimentError(f"n must be an integer >= 2, got {n!r}")
    n = int(n)
    if profile not in ("unit", "isometric"):
        raise ExperimentError(
            f"unknown profile {profile!r}; expected 'unit' or 'isometric'"
        )

    b = 1.0 / n**3
    m_small = np.arange(1, n + 1, dtype=float)
    dims_small = m_small.copy()
    k_vals = np.arange(1, n, dtype=float)
    m_large = n + 2.0 * k_vals
    dims_large = n - k_vals

    z1_small = _c3_z1(dims_small, m_small, b)
    z1_large = _c3_z1(dims_large, m_large, b)
    z0_small = _c3_z0(dims_small, m_small, b)
    z0_large = _c3_z0(dims_large, m_large, b)

    gamma = float(np.euler_gamma)
    pi2 = math.pi**2

    # psi(1.5 n) - psi(0.5 n + 1) and psi(1.5 n + 1) - psi(0.5 n + 1).
    gap, gap_high = _digamma_gap(0.5 * n + 1.0, n - 1), _digamma_gap(0.5 * n + 1.0, n)
    mid = _harmonic(n - 1) + gap

    y1_small_direct = float(np.sum(z1_small))
    y1_small_closed = _harmonic(n, 2) * (1.0 + 2.0 / n**3) + 1.0 / n**5
    y1_large_direct = float(np.sum(z1_large))
    y1_large_closed = _harmonic(n - 1, 2) + (2.0 / (3.0 * n**4)) * mid + (n - 1.0) / n**6
    y0_small_direct = float(np.sum(z0_small))
    y0_small_closed = n + 2.0 * _harmonic(n, 2) / n**3 + _harmonic(n, 2) / n**6
    y0_large_direct = float(np.sum(z0_large))
    y0_large_closed = (n - 1.0) + (2.0 / (3.0 * n**4)) * mid + _harmonic(n - 1, 2) / n**6

    # pi^2 - psi_1(n) and psi(n), with psi_1(n) = pi^2/6 - H^(2)_{n-1} and
    # psi(n) = H_{n-1} - gamma.
    psi1_formal = pi2 - (pi2 / 6.0 - _harmonic(n - 1, 2))
    psi0_formal = _harmonic(n - 1) - gamma
    y1_large_formal = (
        -pi2 * n**5
        + 6.0 * n**5 * psi1_formal
        + 4.0 * gamma * n
        + 4.0 * n * gap_high
        + 4.0 * n * psi0_formal
        + 6.0
    ) / (6.0 * n**5)
    y0_large_formal = (
        6.0 * n**7
        + 4.0 * gamma * n**2
        + 4.0 * n**2 * gap_high
        + 4.0 * n**2 * psi0_formal
        + 6.0 * psi1_formal
        - pi2
    ) / (6.0 * n**6)

    def branch(direct, closed, target=None, formal=None, formal_target=None):
        return C3Branch(
            direct=direct,
            closed=closed,
            defect=abs(direct - closed) / max(abs(closed), 1e-300),
            expansion_target=target,
            expansion_defect=(
                abs(direct - target) if target is not None else None
            ),
            formal=formal,
            formal_target=formal_target,
            formal_defect=(
                abs(formal - formal_target)
                if formal is not None and formal_target is not None
                else None
            ),
        )

    y1_small = branch(
        y1_small_direct, y1_small_closed, target=pi2 / 6.0 - 1.0 / n
    )
    y1_large = branch(
        y1_large_direct,
        y1_large_closed,
        formal=y1_large_formal,
        formal_target=5.0 * pi2 / 6.0 - 1.0 / n,
    )
    y0_small = branch(y0_small_direct, y0_small_closed, target=float(n))
    y0_large = branch(
        y0_large_direct,
        y0_large_closed,
        formal=y0_large_formal,
        formal_target=float(n),
    )

    spin_count = 2 * n - 1
    constant_y1 = (spin_count**2 - spin_count) / n**6
    constant_y0 = float(spin_count**2 - spin_count)
    parts_ratio_direct = (y1_small_direct + y1_large_direct) / (
        y0_small_direct + y0_large_direct
    )
    parts_ratio_formal = (y1_small_closed + y1_large_formal) / (
        y0_small_closed + y0_large_formal
    )
    window = parts_ratio_formal * 2.0 * n / pi2

    d_input_pair = n * (2 * n * n + 1) // 3
    dims_all = np.concatenate([dims_small, dims_large])
    z1_all = np.concatenate([z1_small, z1_large])
    z0_all = np.concatenate([z0_small, z0_large])

    def evaluate(name: str, weights: np.ndarray) -> C3Profile:
        total = float(np.sum(weights))
        sq = float(np.sum(weights**2))
        y1_val = float(np.sum(weights**2 * z1_all)) + b * b * (
            total * total - sq
        )
        y0_val = float(np.sum(weights**2 * z0_all)) + (total * total - sq)
        ratio = y1_val / y0_val
        scaled = ratio * d_input_pair
        return C3Profile(
            name=name,
            y1=y1_val,
            y0=y0_val,
            ratio=ratio,
            ratio_times_pair_dim=scaled,
            pair_defect=abs(scaled - 1.0),
        )

    evaluations = [evaluate("unit", np.ones_like(dims_all))]
    if profile == "isometric":
        evaluations.append(evaluate("sqrt", dims_all / float(np.sum(dims_all))))
        evaluations.append(
            evaluate("dimension", dims_all**2 / float(np.sum(dims_all**2)))
        )

    engine = _c3_engine_check(n) if n <= C3_ENGINE_CHECK_MAX_N else None

    notes = (
        "the final step of the large-m branch carries a vanishing dimension "
        "in a denominator; direct sums and the regular closed forms run to "
        "k = n-1",
        "no oscillatory continuation is evaluated at integer n; formal "
        "values drop it and keep the reflected regular parts",
    )
    return C3Report(
        n=n,
        profile=profile,
        mode="exact",
        d_output=n**6,
        d_input_schematic=n * n,
        d_input_pair=d_input_pair,
        spin_count=spin_count,
        y1_small=y1_small,
        y1_large=y1_large,
        y0_small=y0_small,
        y0_large=y0_large,
        constant_y1=constant_y1,
        constant_y0=constant_y0,
        parts_ratio_direct=parts_ratio_direct,
        parts_ratio_formal=parts_ratio_formal,
        formal_ratio_window=window,
        evaluations=tuple(evaluations),
        engine=engine,
        notes=notes,
    )
