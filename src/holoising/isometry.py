"""Isometry verdicts for bulk-to-boundary and boundary-to-boundary maps.

The transport superoperator built from a superposed network state is an
isometry between operator algebras iff the averaged Renyi-2 purity of the
reduced input state is minimal, 1/D_I.  This module grades that statement
and the ladder of per-sector conditions equivalent to it:

* The purity condition in matrix form: with pair kernels Z_1^{(j,k)} and the
  sector measure p, isometry reads <p, M p> = 0 for M = Z_1 - 1/D_I.
  Writing Z_1 = W(I + alpha) with W the kernel diagonal, the zeroth-order
  necessary condition is sum_j (W^j)^-1 = D_I, solved by W^j = 1/D_{I_j}
  with measure p_j = D_{I_j}/D_I.
* Per boundary sector E, with boundary-fixed sums Zbar over the bulk spins:
  Zbar_1/Zbar_0 = 1/D_{I_E} (maximal sector entropy) and Zbar_0/Z_0 =
  (D_{I_E}/sum_F D_{I_F})^2 (trace-preserving sector weights), equivalently
  Zbar_1 = q D_{I_E} and Zbar_0 = q D_{I_E}^2 for one constant q = k D_O^2.
* Sufficient structural conditions: the all-up configuration minimizes the
  swapped-replica Hamiltonian in every sector, and the combination
  prod_e |g|^2 prod_boundary d is sector independent (which also forces the
  output dimension D_{O_E} to be constant so the sector conditions can hold
  in parallel).
* For pure per-sector states the isometry condition collapses to trace
  preservation: (rho_{E,E})_I = I/D_{I_E}, c_E = D_{I_E}/sum_F D_{I_F}, and
  |K| = sum_E D_{I_E}.  Mixed sector states cannot satisfy both at once and
  are rejected.

Verdicts are graded, never boolean: every condition reports a nonnegative
numeric defect per sector plus a pass flag at the regime's tolerance
`REGIME_TOLERANCES` (relative 1e-3 with exact kernels, 5% in the
ground-state approximation, whose kernels keep only e^{-E_min} of each
pair).

Z_b and Zbar_b are read, not summed here, as (sign, log|.|): the table's
`log_totals` and `log_z_bar` in the exact regime, those of its reducer
`kernel_sums` on e^{-E_min} otherwise.  Each purity and defect is a
scale-free ratio of those logs, so no sum past float64 is refused;
reported scales (`fitted_q`, `mean_value`) read +inf where they leave it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .bulk import IntertwinerState
from .graph import BoundaryPartition, OpenGraph
from .ising import IsingModel, JsonReport, ModelKind, PartitionSumTable, _exp, _ratio, _shares, ground_kernel, json_field, json_value
from .spins import (
    SectorFamily,
    Spin,
    SpinSector,
    boundary_twice,
    twice_intertwiner_dim,
)

#: Supported evaluation regimes and the pass tolerance each grades at.
REGIME_TOLERANCES = {"exact": 1e-3, "ground_state": 0.05}

#: Relative tolerance used when validating state inputs (Hermiticity, purity).
STATE_TOL = 1e-8

#: Pass tolerance of `check_trace_preservation` on its overall defect.
TRACE_PRESERVATION_TOL = 1e-9

class IsometryError(RuntimeError):
    """Raised for inputs outside a check's domain."""


def _regime_tolerance(regime: str) -> float:
    if regime not in REGIME_TOLERANCES:
        raise IsometryError(
            f"unknown regime {regime!r}; expected one of {sorted(REGIME_TOLERANCES)}"
        )
    return REGIME_TOLERANCES[regime]


# -- condition matrix ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConditionMatrix(JsonReport):
    """Purity condition in matrix form, M = Z_1 - 1/D_I, plus diagnostics.

    `quadratic_form` is the defect purity - 1/D_I evaluated with the table's
    own pair measure (K times normalization kernels), so it vanishes exactly
    when the assembled average purity reaches 1/D_I.
    `quadratic_form_factorized` is the literal bilinear value <p, M p> at the
    factorized measure p = K/sum(K); the two coincide when every
    normalization kernel Z_0^{(j,k)} equals 1 (the leading high-spin value).

    `alpha` is the off-diagonal residue of Z_1 = W(I + alpha); it is None
    when some diagonal kernel W^j vanishes.  `candidate_p` normalizes the
    inverse diagonal (W^j)^-1 and equals D_{I_j}/D_I whenever the kernels
    sit at their maximal-entropy values W^j = 1/D_{I_j}.  Determinant
    diagnostics (det Z_1 and the rank-one update det M = det Z_1 times
    (1 - sum_{jk} (Z_1^-1)_{jk}/D_I)) are None for singular Z_1.
    """

    labels: Tuple[str, ...]
    z1: np.ndarray = json_field("Z_1")
    z0: np.ndarray = json_field("Z_0")
    m: np.ndarray = json_field("M")
    w: np.ndarray = json_field("W")
    alpha: Optional[np.ndarray]
    p: np.ndarray
    candidate_p: Optional[np.ndarray]
    d_input: float = json_field("D_I")
    quadratic_form: float
    quadratic_form_factorized: float
    zeroth_order_sum: float
    det_z1: Optional[float] = json_field("det_Z_1")
    det_m: Optional[float] = json_field("det_M")
    rank_one_factor: Optional[float]
    singular: bool

    @property
    def zeroth_order_defect(self) -> float:
        """|sum_j (W^j)^-1 / D_I - 1|, infinite when some W^j vanishes."""
        if not math.isfinite(self.zeroth_order_sum):
            return math.inf
        return abs(self.zeroth_order_sum / self.d_input - 1.0)

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "zeroth_order_defect": json_value(self.zeroth_order_defect)}


def condition_matrix(table: PartitionSumTable, d_input: float) -> ConditionMatrix:
    """Assemble M, its diagonal split, and the zeroth-order diagnostic.

    `d_input` is the total input dimension D_I of the algebra the table's
    sector set spans.  A singular Z_1 (vanishing diagonal kernel or numerical
    rank deficiency) is flagged rather than raised; the determinant
    diagnostics are then undefined and reported as None.
    """
    labels = table.labels
    if not labels:
        raise IsometryError("partition table carries no weighted sector")
    if d_input <= 0.0:
        raise IsometryError(f"total input dimension must be positive, got {d_input!r}")
    n = len(labels)
    z = np.moveaxis(table.z, 2, 0).copy()
    z0, z1 = z[0], z[1]
    p = _shares(table.log_k)
    if not p.size:
        raise IsometryError("sector weights carry no mass")
    m = z1 - 1.0 / d_input
    w = np.diag(z1).copy()
    w_zero = bool(np.any(w == 0.0))
    alpha = None
    candidate = None
    if not w_zero:
        alpha = z1 / w[:, None] - np.eye(n)
        inv_w = 1.0 / w
        candidate = inv_w / inv_w.sum()
    sing_vals = np.linalg.svd(z1, compute_uv=False)
    singular = w_zero or bool(
        sing_vals.min() <= 1e-12 * max(float(sing_vals.max()), 1e-300)
    )
    det_z1 = det_m = rank_one = None
    if not singular:
        det_z1 = float(np.linalg.det(z1))
        rank_one = 1.0 - float(np.linalg.inv(z1).sum()) / d_input
        det_m = det_z1 * rank_one
    zeroth = math.inf if w_zero else float(np.sum(1.0 / w))
    log_z0, log_z1 = table.log_totals
    if log_z0[0] <= 0:
        raise IsometryError("total normalization sum Z_0 is not positive")
    quadratic = _ratio(log_z1, log_z0) - 1.0 / d_input
    factorized = float(p @ m @ p)
    return ConditionMatrix(
        labels=labels,
        z1=z1,
        z0=z0,
        m=m,
        w=w,
        alpha=alpha,
        p=p,
        candidate_p=candidate,
        d_input=float(d_input),
        quadratic_form=quadratic,
        quadratic_form_factorized=factorized,
        zeroth_order_sum=zeroth,
        det_z1=det_z1,
        det_m=det_m,
        rank_one_factor=rank_one,
        singular=singular,
    )


# -- graded verdicts -----------------------------------------------------


@dataclass(frozen=True)
class ConditionRecord(JsonReport):
    """One graded condition: per-sector defects, flags, and extras."""

    name: str
    target: str
    sector_labels: Tuple[str, ...] = json_field(None)
    sector_defects: Tuple[float, ...] = json_field(None)
    sector_passed: Tuple[bool, ...] = json_field(None)
    defect: float
    passed: bool
    extras: Tuple[Tuple[str, float], ...] = json_field(None, default=())

    def to_json_dict(self) -> dict:
        sectors = zip(self.sector_labels, self.sector_defects, self.sector_passed)
        return {**super().to_json_dict(), **json_value({
            "sectors": [{"label": label, "defect": d, "passed": ok} for label, d, ok in sectors],
            "extras": dict(self.extras),
        })}


def _record(
    name: str,
    target: str,
    labels: Sequence[str],
    defects: Sequence[float],
    tol: float,
    extras: Sequence[Tuple[str, float]] = (),
) -> ConditionRecord:
    defects = tuple(max(0.0, float(d)) for d in defects)
    passed = tuple(d <= tol for d in defects)
    overall = max(defects) if defects else 0.0
    return ConditionRecord(
        name=name,
        target=target,
        sector_labels=tuple(labels),
        sector_defects=defects,
        sector_passed=passed,
        defect=overall,
        passed=all(passed),
        extras=tuple(extras),
    )


@dataclass(frozen=True)
class IsometryVerdict(JsonReport):
    """Graded outcome of an isometry check.

    `classification` is "holographic" for a passing bulk-to-boundary map,
    "transparent" for a passing boundary-to-boundary map, and "neither"
    otherwise; `regime` records which kernel approximation produced the
    numbers the grading is based on.
    """

    kind: str
    classification: str
    regime: str
    tolerance: float
    conditions: Tuple[ConditionRecord, ...]
    extras: Tuple[Tuple[str, float], ...] = json_field(None, default=())

    @property
    def passed(self) -> bool:
        return all(cond.passed for cond in self.conditions)

    def condition(self, name: str) -> ConditionRecord:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "passed": self.passed, "extras": json_value(dict(self.extras))}


# -- bulk-to-boundary ----------------------------------------------------


def _boundary_label(key: Tuple[Tuple[str, int], ...]) -> str:
    return ",".join(f"{lid}={Spin(t)}" for lid, t in key)


def _sums(table: PartitionSumTable, regime: str):
    """(Z_0, Z_1) and, per boundary key, (Zbar_0, Zbar_1) of `regime`, each
    sum as (sign, log|.|)."""
    sums = table if regime == "exact" else table.kernel_sums(ground_kernel(table.e_min))
    return sums.log_totals, sums.log_z_bar


def check_bulk_to_boundary(
    family: SectorFamily,
    graph: OpenGraph,
    window: Sequence[Mapping[str, object]],
    regime: str = "exact",
) -> IsometryVerdict:
    """Grade every holography condition over a window of boundary sectors.

    `window` lists the boundary spin assignments E admitted into the input
    algebra (one mapping {boundary link id: spin} per sector).  Conditions:

      ground_state_all_up   the all-up configuration minimizes the swapped
                            Hamiltonian of every full sector in the window
      weight_constancy      prod_e |g|^2 prod_boundary d is sector
                            independent
      output_dim_constancy  D_{O_E} is the same for every window sector
      sector_purity         Zbar_1/Zbar_0 = 1/D_{I_E} per boundary sector
      sector_weight         Zbar_0/Z_0 = (D_{I_E}/sum_F D_{I_F})^2
      normalized_sums       Zbar_1 = q D_{I_E} and Zbar_0 = q D_{I_E}^2 for
                            one fitted constant q (reported with its spread)
      average_purity        the assembled window purity equals 1/D_I

    The total Z_0 in `sector_weight` keeps pairs with different boundary
    spins (their normalization kernels do not vanish), and the input
    dimensions D_{I_E} count every admissible bulk completion inside the
    family's cutoff box.  Each defect passes at `REGIME_TOLERANCES[regime]`.

    Each input is refused once, by the layer that reads it: an empty window,
    a boundary no admissible sector matches and an unknown regime raise
    `IsometryError` here; `IsingModel.window_table` parses each entry with
    `spins.boundary_twice` (`ValueError` where an entry names a link that
    is not a boundary link or leaves one free) and raises `EngineError` on
    a repeated boundary.
    """
    tol = _regime_tolerance(regime)
    window = list(window)
    if not window:
        raise IsometryError("window is empty: the input algebra needs at least one boundary sector")
    model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
    table = model.window_table(window)
    pool = table.sectors
    bnd = graph.boundary_ids()
    # The table lists each boundary's rows in window order.
    e_codes = list(dict.fromkeys(pool.key.tolist()))
    if len(e_codes) < len(window):
        keys = [tuple(map(boundary_twice(graph, entry).__getitem__, bnd)) for entry in window]
        missing = next(key for key in keys if key not in pool.keys)
        raise IsometryError(f"no admissible sector matches boundary {_boundary_label(tuple(zip(bnd, missing)))}")
    totals, zbar = _sums(table, regime)
    if totals[0][0] <= 0:
        raise IsometryError("window normalization sum Z_0 vanishes")

    d_inputs = pool.d_input(e_codes)
    d_input_total = sum(d_inputs)
    e_labels = [_boundary_label(tuple(zip(bnd, pool.keys[c]))) for c in e_codes]

    # (a) all-up minimizes the swapped-replica Hamiltonian, sector by sector.
    # In replica 1 it cuts no link and activates every vertex, so its
    # energy is sum_x log D_x.
    h_up = [sum(row) for row in pool.vertex_log_d.tolist()]
    cond_a = _record(
        "ground_state_all_up",
        "all-up configuration attains E_min of the swapped replica",
        list(pool.labels),
        [h - e for h, e in zip(h_up, np.diagonal(table.e_min[:, :, 1]).tolist())],
        tol,
    )

    # (b) the non-intertwiner part of K is the same for every full sector,
    # each value taken relative to the largest.
    log_b = table.log_k - np.array(h_up)
    top_b = log_b.max()
    values_b = np.exp(log_b - top_b).tolist()
    mean_b = sum(values_b) / len(values_b)
    cond_b = _record(
        "weight_constancy",
        "prod |g|^2 * prod boundary d is sector independent",
        list(pool.labels),
        [abs(v - mean_b) / mean_b for v in values_b],
        tol,
        extras=(("mean_value", mean_b * _exp(top_b)),),
    )

    # (c) constant output dimension across the window.
    d_outs = [pool.d_output(c) for c in e_codes]
    mean_out = sum(d_outs) / len(d_outs)
    cond_c = _record(
        "output_dim_constancy",
        "D_O is the same for every boundary sector",
        e_labels,
        [abs(d - mean_out) / mean_out for d in d_outs],
        tol,
        extras=(("mean_d_output", mean_out),),
    )

    # (d) boundary-fixed sector conditions.
    log_d_total = math.log(d_input_total)
    defects_ratio, defects_weight = [], []
    for c, d_in in zip(e_codes, d_inputs):
        zb0, zb1 = zbar[c]
        if zb0[0] <= 0:
            defects_ratio.append(math.inf)
            defects_weight.append(math.inf)
            continue
        defects_ratio.append(abs(_ratio(zb1, zb0, math.log(d_in)) - 1.0))
        # Zbar_0/Z_0 over its target (d_in / d_input_total)^2
        defects_weight.append(abs(_ratio(zb0, totals[0], 2.0 * (log_d_total - math.log(d_in))) - 1.0))
    cond_d1 = _record(
        "sector_purity",
        "Zbar_1/Zbar_0 = 1/D_I per boundary sector",
        e_labels,
        defects_ratio,
        tol,
    )
    cond_d2 = _record(
        "sector_weight",
        "Zbar_0/Z_0 = (D_I sector share)^2 per boundary sector",
        e_labels,
        defects_weight,
        tol,
    )

    # (e) the same conditions phrased through one normalization constant q,
    # each estimate taken relative to the largest.
    logs = []
    for c, d_in in zip(e_codes, d_inputs):
        (sign0, log0), (sign1, log1) = zbar[c]
        logs += [(sign1, log1 - math.log(d_in)), (sign0, log0 - 2.0 * math.log(d_in))]
    top_q = max(log for _, log in logs)
    estimates = [sign * _exp(log - top_q) for sign, log in logs]
    q_fit = sum(estimates) / len(estimates)
    fitted_q = q_fit * _exp(top_q)
    defects_e = []
    for i in range(len(e_codes)):
        q1, q0 = estimates[2 * i], estimates[2 * i + 1]
        defects_e.append(max(abs(q1 - q_fit), abs(q0 - q_fit)) / q_fit)
    spread = (max(estimates) - min(estimates)) / q_fit
    cond_e = _record(
        "normalized_sums",
        "Zbar_1 = q D_I and Zbar_0 = q D_I^2 with one constant q",
        e_labels,
        defects_e,
        tol,
        extras=(
            ("fitted_q", fitted_q),
            ("q_spread", spread),
            ("fitted_k", fitted_q / mean_out**2),
        ),
    )

    purity = _ratio(totals[1], totals[0])
    cond_purity = _record(
        "average_purity",
        "window purity Z_1/Z_0 equals 1/D_I",
        (),
        [abs(_ratio(totals[1], totals[0], log_d_total) - 1.0)],
        tol,
        extras=(("purity", purity), ("purity_target", 1.0 / d_input_total)),
    )

    conditions = (cond_a, cond_b, cond_c, cond_d1, cond_d2, cond_e, cond_purity)
    classification = "holographic" if all(c.passed for c in conditions) else "neither"
    return IsometryVerdict(
        kind=ModelKind.BULK_TO_BOUNDARY,
        classification=classification,
        regime=regime,
        tolerance=tol,
        conditions=conditions,
        extras=(
            ("d_input", float(d_input_total)),
            ("d_output_mean", float(mean_out)),
            ("purity", purity),
            ("sector_count", float(len(pool))),
            ("boundary_sector_count", float(len(e_codes))),
        ),
    )


def window_groups(family: SectorFamily, graph: OpenGraph) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
    """Admissible boundary sectors grouped by their output dimension.

    A boundary sector is admissible when at least one bulk completion inside
    the family's box has nonzero intertwiner spaces and superposition
    weight: finite `vertex_log_d` and `amplitude` |g| > 0 on every internal
    link.  Keys are D_O values; each value tuple lists the boundary keys,
    doubled spins in `graph.boundary_ids()` order as `SectorSet.keys` holds
    them, in enumeration order of their first admissible sector.  The family's
    `SectorSet` keeps its sector matrix and the two views (8 bytes per
    sector and link, vertex or internal link); the peak comes before them,
    from its per-sector boundary tuples: on a 7-link, 2-vertex family of
    823,543 sectors (cutoffs 0-3) the peak RSS grows by 219 MB.
    """
    pool = IsingModel(graph, family, ModelKind.bulk_to_boundary()).sector_set()
    admissible = np.isfinite(pool.vertex_log_d).all(axis=1) & (pool.amplitude > 0.0).all(axis=1)
    codes = pool.key[admissible]
    _, first = np.unique(codes, return_index=True)
    groups: Dict[int, List[Tuple[int, ...]]] = {}
    for c in codes[np.sort(first)].tolist():
        groups.setdefault(pool.d_output(c), []).append(pool.keys[c])
    return {d: tuple(entries) for d, entries in groups.items()}


def suggest_window(family: SectorFamily, graph: OpenGraph) -> List[Dict[str, Spin]]:
    """Largest group of admissible boundary sectors sharing one D_O.

    Ties between equally large groups go to the larger output dimension
    (the deeper high-spin regime).  The result feeds check_bulk_to_boundary
    directly.
    """
    groups = window_groups(family, graph)
    if not groups:
        raise IsometryError("no admissible boundary sector exists in this family")
    best = max(groups, key=lambda d: (len(groups[d]), d))
    bnd = graph.boundary_ids()
    return [{lid: Spin(t) for lid, t in zip(bnd, key)} for key in groups[best]]


# -- trace preservation --------------------------------------------------


@dataclass(frozen=True)
class TracePreservationReport(JsonReport):
    """Deviation of pure sector states from the trace-preserving form.

    `reduction_defects` is the entrywise max-norm of (rho_{E,E})_I - I/D_I;
    `trace_distances` the corresponding trace distances (1 - 1/D_I for an
    unentangled sector state).  `c_defects` and `k_defect` are only present
    when sector weights and the channel constant were supplied.
    """

    sector_labels: Tuple[str, ...] = json_field(None)
    d_inputs: Tuple[int, ...] = json_field(None)
    reduction_defects: Tuple[float, ...] = json_field(None)
    trace_distances: Tuple[float, ...] = json_field(None)
    c_defects: Optional[Tuple[float, ...]]
    k_defect: Optional[float]
    defect: float
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        sectors = zip(self.sector_labels, self.d_inputs, self.reduction_defects, self.trace_distances)
        return {**super().to_json_dict(), "sectors": json_value([
            {"label": label, "D_I": d, "reduction_defect": r, "trace_distance": t} for label, d, r, t in sectors
        ])}


def _state_key(sector):
    return sector.key() if isinstance(sector, SpinSector) else sector


def _state_label(sector) -> str:
    if isinstance(sector, SpinSector):
        return sector.label()
    if isinstance(sector, tuple):
        try:
            return _boundary_label(sector)
        except (TypeError, ValueError):
            return str(sector)
    return str(sector)


def check_trace_preservation(
    rho_sectors: Mapping,
    dims: Mapping,
    c_weights: Optional[Mapping] = None,
    k_value: Optional[float] = None,
) -> TracePreservationReport:
    """Measure how far pure sector states sit from trace preservation.

    `rho_sectors` maps each sector to its density block on the sector's
    input (x) output space, as a (D_I*D_O, D_I*D_O) matrix; `dims` maps the
    same sectors to (D_I, D_O).  Blocks are normalized by their trace and
    must be Hermitian and pure; a mixed block is rejected, because trace
    preservation and isometry cannot hold together on mixed sector states.
    With `c_weights` the sector weights are compared against D_I/sum(D_I),
    and with `k_value` the channel constant against |K| = sum(D_I).  The
    report passes when its largest defect is at most
    `TRACE_PRESERVATION_TOL`.
    """
    if not rho_sectors:
        raise IsometryError("no sector states supplied")
    dim_table = {_state_key(key): tuple(value) for key, value in dims.items()}
    labels, d_inputs, max_norms, distances = [], [], [], []
    for sector, block in rho_sectors.items():
        key = _state_key(sector)
        label = _state_label(sector)
        if key not in dim_table:
            raise IsometryError(f"no dimensions supplied for sector {label}")
        d_i, d_o = (int(v) for v in dim_table[key])
        rho = np.asarray(block, dtype=complex)
        if rho.shape != (d_i * d_o, d_i * d_o):
            raise IsometryError(
                f"sector {label}: block shape {rho.shape} does not match "
                f"D_I*D_O = {d_i * d_o}"
            )
        scale = max(1.0, float(np.abs(rho).max()))
        if not np.allclose(rho, rho.conj().T, atol=STATE_TOL * scale):
            raise IsometryError(f"sector {label}: density block is not Hermitian")
        trace = float(np.trace(rho).real)
        if trace <= 0.0:
            raise IsometryError(f"sector {label}: density block has no trace")
        rho = rho / trace
        purity = float(np.trace(rho @ rho).real)
        if abs(purity - 1.0) > STATE_TOL:
            raise IsometryError(
                f"sector {label}: state is mixed (Tr rho^2 = {purity:.6g}); "
                f"trace preservation and isometry exclude each other for "
                f"mixed sector states"
            )
        reduced = np.einsum("aobo->ab", rho.reshape(d_i, d_o, d_i, d_o))
        diff = reduced - np.eye(d_i) / d_i
        labels.append(label)
        d_inputs.append(d_i)
        max_norms.append(float(np.abs(diff).max()))
        distances.append(0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum()))
    total_d_input = sum(d_inputs)
    c_defects = None
    if c_weights is not None:
        c_table = {_state_key(key): float(v) for key, v in c_weights.items()}
        c_defects = []
        for sector, d_i in zip(rho_sectors, d_inputs):
            key = _state_key(sector)
            if key not in c_table:
                raise IsometryError(
                    f"no sector weight supplied for {_state_label(sector)}"
                )
            c_defects.append(abs(c_table[key] - d_i / total_d_input))
        c_defects = tuple(c_defects)
    k_defect = None
    if k_value is not None:
        k_defect = abs(abs(float(k_value)) - total_d_input) / total_d_input
    candidates = list(max_norms)
    if c_defects is not None:
        candidates.extend(c_defects)
    if k_defect is not None:
        candidates.append(k_defect)
    overall = max(candidates)
    return TracePreservationReport(
        sector_labels=tuple(labels),
        d_inputs=tuple(d_inputs),
        reduction_defects=tuple(max_norms),
        trace_distances=tuple(distances),
        c_defects=c_defects,
        k_defect=k_defect,
        defect=overall,
        tolerance=TRACE_PRESERVATION_TOL,
        passed=overall <= TRACE_PRESERVATION_TOL,
    )


# -- boundary-to-boundary ------------------------------------------------


@dataclass(frozen=True)
class ClosedFormPurity(JsonReport):
    """Single-vertex boundary-to-boundary purity from dimension data.

    With the normalized input-dimension sequence a_E = D_{I_E}/D_I, the two
    entropy factors are e^{S_1/2(a)} = (sum sqrt(a))^2 and e^{-S_2(a)} =
    sum a^2.  `purity` follows the bracket convention

        purity = [e^{S_1/2(a)} + e^{-S_2(a)}/D_O] / D_I

    whose peaked-a limit is exactly (1 + 1/D_O)/D_I.  `purity_paired` keeps
    the subleading term un-divided by D_I,

        purity_paired = e^{S_1/2(a)}/D_I + e^{-S_2(a)}/D_O,

    which is what the direct pair sum over a product sector set yields; for
    a single input sector it reduces to the bipartite random-state value
    1/D_I + 1/D_O.  The two conventions agree to leading order in 1/D_O.
    """

    a: Tuple[float, ...]
    renyi_half: float
    renyi_two: float
    d_input: int = json_field("D_I")
    d_output: int = json_field("D_O")
    bracket: float
    purity: float
    purity_paired: float


def single_vertex_closed_form(
    input_dims: Sequence[int], output_dims
) -> ClosedFormPurity:
    """Closed-form average purity of a single-vertex two-boundary map.

    `input_dims` lists D_{I_E} per input boundary sector; `output_dims` is
    either the total output dimension or a per-sector list that is summed.
    """
    d_in = [int(d) for d in input_dims]
    if not d_in or any(d <= 0 for d in d_in):
        raise IsometryError(f"input dimensions must be positive, got {input_dims!r}")
    if isinstance(output_dims, (int, np.integer)):
        d_out = int(output_dims)
    else:
        d_out = sum(int(d) for d in output_dims)
    if d_out <= 0:
        raise IsometryError(f"output dimension must be positive, got {output_dims!r}")
    d_input = sum(d_in)
    a = tuple(d / d_input for d in d_in)
    renyi_half = sum(math.sqrt(x) for x in a) ** 2
    renyi_two = sum(x * x for x in a)
    bracket = renyi_half + renyi_two / d_out
    return ClosedFormPurity(
        a=a,
        renyi_half=renyi_half,
        renyi_two=renyi_two,
        d_input=d_input,
        d_output=d_out,
        bracket=bracket,
        purity=bracket / d_input,
        purity_paired=renyi_half / d_input + renyi_two / d_out,
    )


def check_boundary_to_boundary(
    family: SectorFamily,
    graph: OpenGraph,
    partition: BoundaryPartition,
    zeta: IntertwinerState,
    regime: str = "exact",
) -> IsometryVerdict:
    """Grade the transparency condition for a two-boundary-region map.

    `zeta` fixes one bulk intertwiner state; it must be pure (one vector per
    sector), since a mixed bulk state cannot yield a map that is both trace
    preserving and isometric.  The input dimension D_I sums the input-region
    link dimensions over the distinct input boundary sectors the state
    covers.  For a single-vertex graph the dimension-only closed form and
    its two entropy factors are reported alongside the assembled purity.
    Each defect passes at `REGIME_TOLERANCES[regime]`.
    """
    tol = _regime_tolerance(regime)
    if zeta is None:
        raise IsometryError("boundary-to-boundary check needs a bulk state")
    if not zeta.is_pure():
        raise IsometryError(
            "bulk intertwiner state is mixed: trace preservation and isometry "
            "exclude each other, so fix one pure state per sector"
        )
    kind = ModelKind.boundary_to_boundary(partition)
    model = IsingModel(graph, family, kind, state=zeta)
    table = model.partition_table()
    if not table.labels:
        raise IsometryError("the bulk state carries no weighted sector")
    totals, _ = _sums(table, regime)
    if totals[0][0] <= 0:
        raise IsometryError("normalization sum Z_0 vanishes")
    purity = _ratio(totals[1], totals[0])

    in_dims: Dict[Tuple, int] = {}
    out_dims: Dict[Tuple, int] = {}
    for sec in table.sectors.sectors:
        for region, dims in ((partition.input_region, in_dims), (partition.output_region, out_dims)):
            key = tuple(t for lid, t in sec.assignment if lid in region)
            dims.setdefault(key, math.prod(t + 1 for t in key))
    d_input_total = sum(in_dims.values())
    d_output_total = sum(out_dims.values())

    extras = [
        ("purity", purity),
        ("purity_target", 1.0 / d_input_total),
        ("d_input", float(d_input_total)),
        ("d_output", float(d_output_total)),
        ("input_sector_count", float(len(in_dims))),
    ]
    if len(graph.vertices) == 1:
        closed = single_vertex_closed_form(
            sorted(in_dims.values()), d_output_total
        )
        extras.extend(
            [
                ("renyi_half", closed.renyi_half),
                ("renyi_two", closed.renyi_two),
                ("bracket", closed.bracket),
                ("closed_form", closed.purity),
                ("closed_form_paired", closed.purity_paired),
            ]
        )
    cond = _record(
        "average_purity",
        "purity Z_1/Z_0 equals 1/D_I over the input boundary sectors",
        (),
        [abs(_ratio(totals[1], totals[0], math.log(d_input_total)) - 1.0)],
        tol,
        extras=extras,
    )
    classification = "transparent" if cond.passed else "neither"
    return IsometryVerdict(
        kind=ModelKind.BOUNDARY_TO_BOUNDARY,
        classification=classification,
        regime=regime,
        tolerance=tol,
        conditions=(cond,),
        extras=tuple(extras),
    )


# -- coefficient scaling -------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScalingProfile(JsonReport):
    """Superposition profile a single internal link needs for isometry.

    `profile` is the normalized |g_u|^2 proportional to
    sqrt(prod over endpoint vertices of D(E_x, u)), evaluated at the first
    requested boundary sector; `shares`[i] holds, per boundary sector i, the
    normalized inverse products (a_x a_y(u))^-1 whose spread across sectors
    is `independence_defect` (they must not depend on the boundary sector
    for one profile to serve every sector).

    `achieving_profile` is the member of the `r_weights` solution family
    with |g_u|^2 proportional to the dimension product itself: under it the
    formal high-suppression ratio sum_u r_u a_x a_y(u) equals
    1 / sum_u (a_x a_y(u))^-1 exactly, i.e. the per-sector purity hits the
    inverse summed dimension on the nose rather than up to an O(1) factor.
    """

    link_id: str
    spins: Tuple[Spin, ...] = json_field(None)
    profile: Tuple[float, ...]
    achieving_profile: Tuple[float, ...]
    boundary_labels: Tuple[str, ...] = json_field(None)
    products: Tuple[Tuple[float, ...], ...] = json_field(None)
    shares: Tuple[Tuple[float, ...], ...] = json_field(None)
    independence_defect: float

    def r_weights(
        self,
        boundary: Optional[str] = None,
        c: Optional[Sequence[float]] = None,
    ) -> Tuple[float, ...]:
        """Solution family r_u = (a_x a_y(u))^-1 (1/(M S) + c_u), sum(c) = 0.

        S is the summed inverse product and M counts the spins admissible at
        the chosen boundary sector (positive product); inadmissible spins get
        weight 0 and must carry c_u = 0.  With the default c = 0 this is the
        particular solution the profile realizes.  `boundary` selects which
        sector's products to use (default: the first).
        """
        idx = 0
        if boundary is not None:
            try:
                idx = self.boundary_labels.index(boundary)
            except ValueError:
                raise IsometryError(
                    f"unknown boundary sector {boundary!r}"
                ) from None
        products = self.products[idx]
        if c is None:
            c = [0.0] * len(self.spins)
        c = [float(v) for v in c]
        if len(c) != len(self.spins):
            raise IsometryError(
                f"c must have {len(self.spins)} entries, got {len(c)}"
            )
        if abs(sum(c)) > 1e-12:
            raise IsometryError(f"c must sum to zero, got {sum(c)!r}")
        if any(cv != 0.0 for p, cv in zip(products, c) if p == 0.0):
            raise IsometryError("c must vanish on inadmissible spins")
        m = sum(1 for p in products if p > 0.0)
        total = sum(products)
        return tuple(
            p * (1.0 / (m * total) + cv) if p > 0.0 else 0.0
            for p, cv in zip(products, c)
        )

    def to_json_dict(self) -> dict:
        sectors = zip(self.boundary_labels, self.products, self.shares)
        return {**super().to_json_dict(), **json_value({
            "spins": [str(s) for s in self.spins],
            "boundary_sectors": [{"label": label, "products": prod, "shares": share} for label, prod, share in sectors],
        })}


def scaling_constraint_g(
    family: SectorFamily,
    graph: OpenGraph,
    e_range: Sequence[Mapping[str, object]],
    link_id: Optional[str] = None,
) -> ScalingProfile:
    """Profile |g_u|^2 ~ sqrt(D_x D_y) a bulk link must carry for isometry.

    The graph's bulk must factorize around the link: no other internal link
    may touch its endpoint vertices, so the intertwiner dimensions at the
    endpoints depend only on the link spin u and the boundary sector.
    `e_range` lists the boundary sectors over which the normalized inverse
    products are additionally checked for boundary independence.  For a
    loop (both endpoints equal) the product runs over the single vertex.
    Each entry of `e_range` is parsed by `spins.boundary_twice`, which
    raises `ValueError` on a malformed entry; an empty range and a repeated
    boundary raise `IsometryError`.
    """
    internal = graph.internal_ids()
    if link_id is None:
        if len(internal) != 1:
            raise IsometryError(
                f"graph has {len(internal)} internal links; name the one to "
                f"profile via link_id"
            )
        link_id = internal[0]
    elif link_id not in set(internal):
        raise IsometryError(f"{link_id!r} is not an internal link")
    vertices = list(dict.fromkeys(graph.endpoints(link_id)))
    for other in internal:
        if other == link_id:
            continue
        if any(v in vertices for v in graph.endpoints(other)):
            raise IsometryError(
                f"internal link {other!r} shares a vertex with {link_id!r}; "
                f"the bulk does not factorize around the profiled link"
            )
    bnd = graph.boundary_ids()
    keys = [tuple(zip(bnd, map(boundary_twice(graph, entry).__getitem__, bnd))) for entry in e_range]
    if not keys:
        raise IsometryError("e_range is empty: the profile needs at least one boundary sector")
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise IsometryError(f"e_range repeats boundary sector {_boundary_label(key)}")
    spins = tuple(family.allowed[link_id])
    labels, products, shares = [], [], []
    for key in keys:
        fixed = dict(key)
        prods = []
        for u in spins:
            fixed[link_id] = u.twice
            prods.append(float(math.prod(twice_intertwiner_dim(tuple(map(fixed.__getitem__, graph.links_at(v)))) for v in vertices)))
        total = sum(prods)
        if total <= 0.0:
            raise IsometryError(
                f"no admissible spin on {link_id!r} at boundary "
                f"{_boundary_label(key)}"
            )
        labels.append(_boundary_label(key))
        products.append(tuple(prods))
        shares.append(tuple(p / total for p in prods))
    amplitudes = [math.sqrt(p) for p in products[0]]
    norm = sum(amplitudes)
    profile = tuple(a / norm for a in amplitudes)
    defect = 0.0
    for i in range(len(spins)):
        column = [share[i] for share in shares]
        defect = max(defect, max(column) - min(column))
    return ScalingProfile(
        link_id=link_id,
        spins=spins,
        profile=profile,
        achieving_profile=shares[0],
        boundary_labels=tuple(labels),
        products=tuple(products),
        shares=tuple(shares),
        independence_defect=defect,
    )
