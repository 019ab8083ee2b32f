"""The paper's operators of the boundary-to-boundary construction.

`holoising.bulk.IntertwinerState.traced_block` is all the engine reads.  The
paper states the same construction through these operators; nothing in
the package calls them, so they live here, as the paper's reference for
`test_bulk.py`:

    X operator      partial trace of the trace-normalized state over the
                    spin-up vertices' intertwiner factors at a fixed spin-up
                    link assignment: a block matrix over every sector of the
                    state that agrees with that assignment, blocks labelled
                    by the spin-down restriction
    Sigma_B         1/2 S_2(X) + 1/2 S_2(Y) - log cos(theta_HS), the
                    entropy-like energy of a sector pair at one configuration
    fidelity angle  cos^2(theta_F) = (Tr sqrt(sqrt(X) Y sqrt(X)))^2

They differ from the engine's data in three ways: X collects every
compatible sector of the state into one matrix where the engine takes one
block per configuration; X is normalized by the state's trace where the
engine normalizes by the two sector weights; and `sigma_b` returns +inf
for a cosine <= 0, where the engine keeps a negative cosine as a signed
Delta factor of the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from holoising.bulk import BulkStateError, IntertwinerState, SectorKey, vertex_block_dims
from holoising.graph import OpenGraph
from holoising.spins import Spin, SpinSector


# -- X operators ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class XOperator:
    """Block matrix over the spin-down intertwiner product spaces.

    Rows and columns are indexed by spin-down sector assignments (the
    restriction of a full sector to the links not touching any spin-up
    vertex); within a label the index runs over the down vertices'
    intertwiner product space.
    """

    labels: Tuple[SectorKey, ...]
    sizes: Tuple[int, ...]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0]) if self.matrix.size else 0

    def offsets(self) -> Tuple[int, ...]:
        out, acc = [], 0
        for s in self.sizes:
            out.append(acc)
            acc += s
        return tuple(out)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real) if self.matrix.size else 0.0

    def hs_inner(self, other: "XOperator") -> float:
        """Hilbert-Schmidt inner product Tr[X Y] (real for Hermitian inputs)."""
        if self.matrix.shape != other.matrix.shape or self.labels != other.labels:
            raise BulkStateError("X operators have incompatible block structure")
        return float(np.trace(self.matrix @ other.matrix).real)

    def hs_norm(self) -> float:
        return math.sqrt(max(float(np.trace(self.matrix @ self.matrix).real), 0.0))

    def renyi2(self) -> float:
        """S_2 = -log( Tr[X^2] / Tr[X]^2 )."""
        tr = self.trace()
        if tr <= 0.0:
            raise BulkStateError("Renyi-2 of a traceless operator")
        return -math.log(float(np.trace(self.matrix @ self.matrix).real) / tr**2)


def _up_links(graph: OpenGraph, sigma: Mapping[str, int]) -> Tuple[str, ...]:
    """Links incident to at least one spin-up vertex."""
    up = {x for x in graph.vertices if sigma[x] > 0}
    out = []
    for lid in graph.link_ids():
        ends = graph.endpoints(lid)
        if any(v in up for v in ends):
            out.append(lid)
    return tuple(out)


def x_operator(
    state: IntertwinerState, j_up: object, sigma: Mapping[str, int]
) -> XOperator:
    """Partial trace of the normalized state over spin-up intertwiner factors.

    `j_up` fixes the spins of every link touching a spin-up vertex (a
    SpinSector or a {link id: spin} mapping); `sigma` maps each graph vertex
    to +1/-1.  Sectors of the state that disagree with `j_up` on those links
    do not contribute; the surviving sectors are distinguished by their
    spin-down restriction, which labels the blocks of the result.
    """
    sig = getattr(sigma, "sigma", sigma)
    missing = [x for x in state.graph.vertices if x not in sig]
    if missing:
        raise BulkStateError(f"configuration misses vertices {missing}")
    if isinstance(j_up, SpinSector):
        up_assign = {lid: sp.twice for lid, sp in j_up.spins().items()}
    else:
        up_assign = {lid: Spin.parse(sp).twice for lid, sp in dict(j_up).items()}
    ups = _up_links(state.graph, sig)
    lacking = [lid for lid in ups if lid not in up_assign]
    if lacking:
        raise BulkStateError(f"spin-up assignment misses links {lacking}")
    down_vertices = [x for x in state.graph.vertices if sig[x] < 0]

    norm = state.trace()
    if norm <= 0.0:
        raise BulkStateError("state has non-positive trace")

    def down_label(sec: SpinSector) -> SectorKey:
        return tuple((lid, t) for lid, t in sec.assignment if lid not in set(ups))

    candidates = [
        s
        for s in state.sectors
        if all(s.spin(lid).twice == up_assign[lid] for lid in ups)
    ]
    labels = sorted({down_label(s) for s in candidates})
    by_label = {down_label(s): s for s in candidates}
    sizes = []
    for lab in labels:
        sec = by_label[lab]
        dims = [
            d
            for x, d in zip(state.graph.vertices, vertex_block_dims(state.graph, sec))
            if x in set(down_vertices)
        ]
        sizes.append(int(np.prod(dims, dtype=np.int64)) if dims else 1)
    total = sum(sizes)
    matrix = np.zeros((total, total), dtype=complex)
    offs = np.concatenate([[0], np.cumsum(sizes)]) if sizes else np.array([0])
    for i, la in enumerate(labels):
        for j, lb in enumerate(labels):
            blk = state.traced_block(by_label[la], by_label[lb], down_vertices)
            matrix[
                offs[i] : offs[i] + sizes[i], offs[j] : offs[j] + sizes[j]
            ] = blk / norm
    return XOperator(labels=tuple(labels), sizes=tuple(sizes), matrix=matrix)


# -- entropic quantities -------------------------------------------------


def sigma_b(x: XOperator, y: XOperator) -> Tuple[float, float]:
    """Entropy-like energy of a sector pair and its Hilbert-Schmidt angle.

    Returns (Sigma_B, cos theta_HS) with

        Tr[X Y] = ||X|| ||Y|| cos(theta)
        Sigma_B = 1/2 S_2(X) + 1/2 S_2(Y) - log cos(theta).

    The cosine can vanish (or go negative for indefinite operators); such
    factors belong in the Delta-constraint of the Ising model, so Sigma_B is
    +inf there and the cosine is still reported.
    """
    nx, ny = x.hs_norm(), y.hs_norm()
    if nx == 0.0 or ny == 0.0:
        raise BulkStateError("Sigma_B undefined for a zero-norm operator")
    cos = x.hs_inner(y) / (nx * ny)
    s2x, s2y = x.renyi2(), y.renyi2()
    if cos <= 0.0:
        return math.inf, cos
    return 0.5 * s2x + 0.5 * s2y - math.log(cos), cos


def psd_sqrt(matrix: np.ndarray, clamp: float = 1e-12) -> np.ndarray:
    """Hermitian square root via eigendecomposition.

    Eigenvalues in [-clamp, 0) (relative to the largest magnitude) are
    treated as round-off and clamped to zero; anything more negative is a
    genuine violation and raises.
    """
    mat = np.asarray(matrix, dtype=complex)
    if not np.allclose(mat, mat.conj().T, atol=1e-10):
        raise BulkStateError("matrix square root needs a Hermitian input")
    w, v = np.linalg.eigh(mat)
    floor = -clamp * max(1.0, float(abs(w).max()) if w.size else 1.0)
    if w.size and w.min() < floor:
        raise BulkStateError(
            f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity_angle(x: XOperator, y: XOperator) -> float:
    """cos^2(theta_F) = (Tr sqrt( sqrt(X) Y sqrt(X) ))^2 at unit traces.

    Both operators are normalized to unit trace first; the result is 1 iff
    the normalized operators coincide, and 0 for orthogonal supports.
    """
    tx, ty = x.trace(), y.trace()
    if tx <= 0.0 or ty <= 0.0:
        raise BulkStateError("fidelity needs positive-trace operators")
    xm = x.matrix / tx
    ym = y.matrix / ty
    rx = psd_sqrt(xm)
    inner = psd_sqrt(rx @ ym @ rx)
    return float(np.trace(inner).real) ** 2


def matrix_renyi2(matrix: np.ndarray) -> float:
    """S_2 of a PSD matrix, normalized by its trace."""
    mat = np.asarray(matrix, dtype=complex)
    tr = float(np.trace(mat).real)
    if tr <= 0.0:
        raise BulkStateError("Renyi-2 of a traceless matrix")
    return -math.log(float(np.trace(mat @ mat).real) / tr**2)


def reduced_entropies(
    state: IntertwinerState, region: Iterable[str]
) -> Dict[SectorKey, float]:
    """Renyi-2 entropies of each diagonal sector block reduced to `region`.

    Each block is normalized by its own weight before the entropy is taken;
    sectors with zero weight are skipped.  `region` is a set of vertex ids
    (a single id is accepted).
    """
    if isinstance(region, str):
        region = (region,)
    keep = list(region)
    out: Dict[SectorKey, float] = {}
    for sec in state.sectors:
        w = state.weight(sec)
        if w <= 0.0:
            continue
        red = state.traced_block(sec, sec, keep)
        out[sec.key()] = matrix_renyi2(red)
    return out
