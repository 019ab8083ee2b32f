"""The per-configuration scorer of an Ising model: the tests' reference.

`holoising.ising.IsingModel` evaluates Delta and H through one batched pass
per model kind (`_bulk_kernels`, `_boundary_entries`), and its public
`delta_factor` and `hamiltonian` are one-configuration views of those
passes.  The functions here score one configuration at a time straight
from the definitions, link by link and vertex by vertex, with no mask, no
matrix and no shared state; nothing in the package calls them.  The tests
check every kernel, every boundary-to-boundary entry and both views
against them bit for bit:

    configurations  all 2^V configurations, in the model's `_config` order
    evaluate        (Delta, H) of one configuration, H None where Delta = 0
    cut_links       the links whose two ends are antialigned
    cut_energy      sum of log d over the cut links, None where a cut link
                    has different spins in j and k
    boundary_terms  cosine and log terms of the two traced blocks of the
                    boundary-to-boundary kind

and the summation rule of `ising._scaled_sums` on one bucket, which the
package applies to all buckets at once:

    part_sum        sum of one sign's scaled terms, in the order given
    signed_sum      sum of +exp(pos) and -exp(neg) terms given by their logs
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from holoising.ising import IsingConfig, IsingModel
from holoising.spins import SpinSector, twice_intertwiner_dim


def cut_links(model: IsingModel, config: IsingConfig, replica: int) -> List[str]:
    """Ids of the links whose two ends are antialigned."""
    sig = config.sigma
    cut = []
    for lid in model.graph.link_ids():
        src, tgt = model.graph.endpoints(lid)
        s = sig[src]
        t = sig[tgt] if tgt in sig else model.boundary_pin(lid, replica)
        if s * t < 0:
            cut.append(lid)
    return cut


def evaluate(
    model: IsingModel, j: SpinSector, k: SpinSector, config: IsingConfig, replica: int
) -> Tuple[float, Optional[float]]:
    """(Delta value, Hamiltonian) of one configuration.

    Delta == 0 means the configuration is forbidden; the Hamiltonian is
    then None.  A +inf Hamiltonian (empty intertwiner space on an active
    vertex) contributes zero weight but is reported as allowed.
    """
    model._check_pair(j, k, replica)
    lam_cut = cut_energy(model, j, k, config, replica)
    if lam_cut is None:
        return 0.0, None
    if not model.kind.is_boundary_to_boundary:
        b = -1 if replica == 1 else +1
        sig = config.sigma
        energy = lam_cut
        for x in model.graph.vertices:
            if (1 - b * sig[x]) // 2 == 1:
                spins = j.vertex_twice(x)
                if spins != k.vertex_twice(x):
                    return 0.0, None
                dim = twice_intertwiner_dim(spins)
                energy += math.log(dim) if dim > 0 else math.inf
        return 1.0, energy
    terms = boundary_terms(model, j, k, config)
    if terms is None:
        return 0.0, None
    cos, half_log_1, half_log_2 = terms
    return cos, lam_cut - half_log_1 - half_log_2


def cut_energy(
    model: IsingModel, j: SpinSector, k: SpinSector, config: IsingConfig, replica: int
) -> Optional[float]:
    """Sum of log d_e over the cut links, or None where a cut link has
    different spins in j and k (Delta = 0)."""
    cut = cut_links(model, config, replica)
    for lid in cut:
        if j.spin(lid) != k.spin(lid):
            return None
    return sum(math.log(j.spin(lid).dim) for lid in cut)


def boundary_terms(
    model: IsingModel, j: SpinSector, k: SpinSector, config: IsingConfig
) -> Optional[Tuple[float, float, float]]:
    """(cosine, 0.5 log(n1^2 / w_j^2), 0.5 log(n2^2 / w_k^2)) of the two
    traced blocks of a configuration, or None where Delta = 0.  Neither
    depends on the replica; only the cut energy does."""
    state = model.state
    up = {x for x, s in config.values if s > 0}
    down = [x for x in model.graph.vertices if x not in up]
    up_links = set()
    for lid in model.graph.link_ids():
        if any(v in up for v in model.graph.endpoints(lid)):
            up_links.add(lid)
    j_spins, k_spins = j.spins(), k.spins()
    mixed_1 = SpinSector.make(
        model.graph,
        {
            lid: (j_spins[lid] if lid in up_links else k_spins[lid])
            for lid in model.graph.link_ids()
        },
    )
    mixed_2 = SpinSector.make(
        model.graph,
        {
            lid: (k_spins[lid] if lid in up_links else j_spins[lid])
            for lid in model.graph.link_ids()
        },
    )
    b1 = state.traced_block(j, mixed_1, down)
    b2 = state.traced_block(k, mixed_2, down)
    n1_sq = float(np.sum(np.abs(b1) ** 2))
    n2_sq = float(np.sum(np.abs(b2) ** 2))
    w_j, w_k = state.weight(j), state.weight(k)
    if n1_sq == 0.0 or n2_sq == 0.0 or w_j <= 0.0 or w_k <= 0.0:
        return None
    overlap = float(np.trace(b1 @ b2).real)
    cos = overlap / math.sqrt(n1_sq * n2_sq)
    if cos == 0.0:
        return None
    return cos, 0.5 * math.log(n1_sq / w_j**2), 0.5 * math.log(n2_sq / w_k**2)


def configurations(model: IsingModel) -> Iterable[IsingConfig]:
    """All configurations; the i-th has spin -1 on vertex p exactly when
    bit V-1-p of i is set (the first vertex varies slowest)."""
    vertices = model.graph.vertices
    model._check_limit()
    for bits in itertools.product((1, -1), repeat=len(vertices)):
        yield IsingConfig(tuple(zip(vertices, bits)))


def part_sum(values: Sequence[float]) -> float:
    """The first value plus the pairwise sum (`np.sum`) of the rest; 0 for
    no value."""
    values = np.asarray(values, dtype=float)
    return float(values[0] + np.sum(values[1:])) if len(values) else 0.0


def signed_sum(pos: Sequence[float], neg: Sequence[float]) -> Tuple[float, Tuple[int, float], float]:
    """Sum of +exp(pos) and -exp(neg) terms given by their logs, each list
    in its order: (the float, +/-inf where it overflows; (sign,
    log|sum|); log of the larger part over |sum|).  Both parts are scaled
    by the largest log m of either (0 where there is none or it is -inf):
    P and N are the `part_sum`s of exp(log - m), and the sum is
    exp(m) (P - N).  Exponentials and logs are numpy's, as the package's
    are."""
    pos, neg = np.asarray(pos, dtype=float), np.asarray(neg, dtype=float)
    m = max(pos.max(initial=-math.inf), neg.max(initial=-math.inf))
    m = float(m) if m > -math.inf else 0.0
    p, n = part_sum(np.exp(pos - m)), part_sum(np.exp(neg - m))
    if p == n:
        return 0.0, (0, -math.inf), (math.inf if p > 0.0 else 0.0)
    sign, log = (1 if p > n else -1), float(m + np.log(abs(p - n)))
    with np.errstate(over="ignore"):
        total = float(np.exp(m) * (p - n))
        if math.isinf(total):
            total = sign * float(np.exp(log))
    return total, (sign, log), float(np.log(max(p, n)) - np.log(abs(p - n)))
