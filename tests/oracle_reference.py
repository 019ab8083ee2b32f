"""References the oracle tests compare package results against.

Nothing in the package calls these.  A helper lives here only while some
test checks a package result against it; once no test does, it goes,
as `paper_operators.py` keeps the paper's operators only for the tests
that read them:

    replica_purity      the exact averaged purity, region trace over the
                        empty-region trace of `exact_replica_average`: the
                        exact side of every `mc_purity` check
    lay_out             a row array scattered onto the dense (region x
                        rest) grid of a `RegionGrid`, against which the
                        block layout of `GridBlocks` is checked
    hs_isometry_defect  the two-copy swap and Gram defects of sector
                        density blocks, against which
                        `check_trace_preservation` is checked
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from holoising.oracle import CMap, HilbertIndex, OracleError, RegionGrid, exact_replica_average


def replica_purity(
    index: HilbertIndex,
    region,
    *,
    cmap: CMap,
    grade: str = "medium",
    weights: Optional[Mapping] = None,
) -> float:
    """Averaged replica purity of `cmap`: the region trace over the empty-region trace."""
    z1 = exact_replica_average(index, region, cmap=cmap, grade=grade, weights=weights)
    z0 = exact_replica_average(index, (), cmap=cmap, grade=grade, weights=weights)
    if z0 <= 0:
        raise OracleError("normalization trace is not positive")
    return z1 / z0


def lay_out(grid: RegionGrid, values: np.ndarray) -> np.ndarray:
    """Scatter `values`, one per row, onto the (keep_dim, rest_dim) grid."""
    out = np.zeros(grid.keep_dim * grid.rest_dim, dtype=complex)
    out[grid.cell] = values
    return out.reshape(grid.keep_dim, grid.rest_dim)


def hs_isometry_defect(
    rho_sectors: Mapping,
    dims: Mapping,
    c_weights: Mapping,
    window: Sequence,
) -> float:
    """Worst-sector defect of the two-copy swap condition plus the Gram defect.

    All four arguments are keyed by the window's sector keys.  The first
    part measures, per sector, how far c^2 K^2 Tr_{O^2}[(rho (x) rho) S_O]
    is from the input swap; the second compares the channel's Gram matrix
    on matrix units with the identity's.
    """
    k_total = sum(dims[key][0] for key in window)
    worst = 0.0
    for key in window:
        d_i, d_o = dims[key]
        c = float(c_weights[key])
        rho4 = np.asarray(rho_sectors[key], dtype=complex).reshape(d_i, d_o, d_i, d_o)
        two_copy = np.einsum("aobp,cpdo->acbd", rho4, rho4).reshape(d_i * d_i, d_i * d_i)
        swap_in = np.zeros((d_i * d_i, d_i * d_i), dtype=complex)
        for a in range(d_i):
            for b in range(d_i):
                swap_in[a * d_i + b, b * d_i + a] = 1.0
        delta = (c * k_total) ** 2 * two_copy - swap_in
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh((delta + delta.conj().T) / 2)))))
        # Gram defect over the sector's matrix units.
        images = (c * k_total) * rho4  # images[b, o, a, p] = T(e_ab)[o, p]
        gram = np.einsum("boap,fodp->abdf", np.conj(images), images)
        ident = np.einsum("ad,bf->abdf", np.eye(d_i), np.eye(d_i))
        worst = max(worst, float(np.max(np.abs(gram - ident))))
    return worst
