"""Bulk intertwiner states and the operators derived from them.

A bulk state assigns amplitudes (or density-matrix blocks) to the abstract
intertwiner factors of a set of spin sectors.  Per vertex x the intertwiner
space of a sector is an abstract index of dimension D(j^x); a sector's bulk
space is the tensor product over vertices, and the full state lives on the
direct sum over its sectors, including cross-sector blocks.

The boundary-to-boundary Ising engine (`ising.IsingModel`) builds its data
from `IntertwinerState.traced_block` alone.  Per sector pair (j, k) and
configuration it stitches two mixed sectors (j on the links at spin-up
vertices and k elsewhere, and the reverse), takes the two blocks
(j, mixed_1) and (k, mixed_2) traced over the spin-up vertices' factors,
and uses their squared Hilbert-Schmidt norms (relative to the sector
weights Tr rho_jj, Tr rho_kk) and their Hilbert-Schmidt cosine.

This module also provides the operators of that construction in the
paper's form; only tests call them:

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

All matrices are dense complex; intertwiner dimensions at the scales treated
here are tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .graph import OpenGraph
from .spins import SpinSector, intertwiner_dim

SectorKey = Tuple[Tuple[str, int], ...]


class BulkStateError(ValueError):
    """Raised for ill-formed bulk states or incompatible operator inputs."""


def vertex_block_dims(graph: OpenGraph, sector: SpinSector) -> Tuple[int, ...]:
    """Per-vertex intertwiner dimensions of `sector`, in graph vertex order."""
    return tuple(intertwiner_dim(sector.vertex_spins(x)) for x in graph.vertices)


def _as_block(array, shape_a: Tuple[int, ...], shape_b: Tuple[int, ...]) -> np.ndarray:
    """Coerce a block given as matrix or tensor into matrix form."""
    arr = np.asarray(array, dtype=complex)
    da = int(np.prod(shape_a, dtype=np.int64))
    db = int(np.prod(shape_b, dtype=np.int64))
    if arr.shape == (da, db):
        return arr.copy()
    if arr.shape == tuple(shape_a) + tuple(shape_b):
        return arr.reshape(da, db).copy()
    if arr.ndim == 0 and da == 1 and db == 1:
        return arr.reshape(1, 1).copy()
    raise BulkStateError(
        f"block of shape {arr.shape} does not match intertwiner dims "
        f"{shape_a} x {shape_b}"
    )


@dataclass(frozen=True, eq=False)
class IntertwinerState:
    """State of the bulk intertwiner degrees of freedom over a sector set.

    `blocks[(a, b)]` is the (ket sector a, bra sector b) density block as a
    matrix over the flattened per-vertex intertwiner product spaces (vertex
    order = graph order, row-major).  A pure state additionally keeps its
    amplitude vectors.  States are not required to be normalized; every
    derived quantity divides by the trace where the construction demands it.
    """

    graph: OpenGraph
    sectors: Tuple[SpinSector, ...]
    blocks: Mapping[Tuple[SectorKey, SectorKey], np.ndarray]
    amplitudes: Optional[Mapping[SectorKey, np.ndarray]] = None
    _dims: Dict[SectorKey, Tuple[int, ...]] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        # Eager, so the work of a call never depends on the calls before it.
        self._dims.update((s.key(), vertex_block_dims(self.graph, s)) for s in self.sectors)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_pure(
        graph: OpenGraph, amplitudes: Mapping[SpinSector, object]
    ) -> "IntertwinerState":
        """Build |zeta><zeta| from per-sector amplitude tensors."""
        sectors = tuple(amplitudes.keys())
        if not sectors:
            raise BulkStateError("pure state needs at least one sector")
        vecs: Dict[SectorKey, np.ndarray] = {}
        for sec, amp in amplitudes.items():
            dims = vertex_block_dims(graph, sec)
            if 0 in dims:
                raise BulkStateError(
                    f"sector {sec.label()} has an empty intertwiner space"
                )
            vec = np.asarray(amp, dtype=complex).reshape(-1)
            size = int(np.prod(dims, dtype=np.int64))
            if vec.size != size:
                raise BulkStateError(
                    f"amplitude for {sec.label()} has {vec.size} entries, "
                    f"expected {size}"
                )
            vecs[sec.key()] = vec.copy()
        blocks = {
            (a.key(), b.key()): np.outer(vecs[a.key()], vecs[b.key()].conj())
            for a in sectors
            for b in sectors
        }
        return IntertwinerState(
            graph=graph, sectors=sectors, blocks=blocks, amplitudes=vecs
        )

    @staticmethod
    def from_blocks(
        graph: OpenGraph,
        sectors: Sequence[SpinSector],
        blocks: Mapping[Tuple[SpinSector, SpinSector], object],
        require_density: bool = True,
        tol: float = 1e-10,
    ) -> "IntertwinerState":
        """Build a density-matrix form state from explicit sector blocks.

        Blocks may be given for one triangle only; the missing conjugate
        blocks are filled in.  With `require_density` the assembled matrix
        must be Hermitian, positive semidefinite (within `tol`), and of unit
        trace.
        """
        sectors = tuple(sectors)
        dims = {s.key(): vertex_block_dims(graph, s) for s in sectors}
        for s in sectors:
            if 0 in dims[s.key()]:
                raise BulkStateError(
                    f"sector {s.label()} has an empty intertwiner space"
                )
        table: Dict[Tuple[SectorKey, SectorKey], np.ndarray] = {}
        for (a, b), arr in blocks.items():
            ka, kb = a.key(), b.key()
            if ka not in dims or kb not in dims:
                raise BulkStateError("block references a sector outside the set")
            mat = _as_block(arr, dims[ka], dims[kb])
            if (ka, kb) in table and not np.array_equal(table[(ka, kb)], mat):
                raise BulkStateError(f"conflicting duplicate block ({a.label()}, {b.label()})")
            table[(ka, kb)] = mat
        for (ka, kb) in list(table.keys()):
            rev = (kb, ka)
            if rev not in table:
                table[rev] = table[(ka, kb)].conj().T.copy()
        state = IntertwinerState(
            graph=graph, sectors=sectors, blocks=table, amplitudes=None
        )
        if require_density:
            full = state.assemble()
            if not np.allclose(full, full.conj().T, atol=tol):
                raise BulkStateError("state matrix is not Hermitian")
            eigs = np.linalg.eigvalsh(full)
            if eigs.min() < -tol * max(1.0, float(abs(eigs).max())):
                raise BulkStateError(
                    f"state matrix is not positive semidefinite "
                    f"(min eigenvalue {eigs.min():.3e})"
                )
            if abs(np.trace(full).real - 1.0) > tol:
                raise BulkStateError(
                    f"density matrix trace {np.trace(full).real!r} is not 1"
                )
        return state

    # -- bookkeeping -----------------------------------------------------

    def sector_keys(self) -> Tuple[SectorKey, ...]:
        return tuple(s.key() for s in self.sectors)

    def sector_by_key(self, key: SectorKey) -> SpinSector:
        for s in self.sectors:
            if s.key() == key:
                return s
        raise KeyError(key)

    def dims(self, key: SectorKey) -> Tuple[int, ...]:
        return self._dims[key]

    def _block_dims(self, sector: SpinSector) -> Tuple[int, ...]:
        """`vertex_block_dims` of any sector, read where it is the state's."""
        dims = self._dims.get(sector.key())
        return dims if dims is not None else vertex_block_dims(self.graph, sector)

    def block(self, a: SectorKey, b: SectorKey) -> np.ndarray:
        blk = self.blocks.get((a, b))
        if blk is not None:
            return blk
        da = int(np.prod(self.dims(a), dtype=np.int64))
        db = int(np.prod(self.dims(b), dtype=np.int64))
        return np.zeros((da, db), dtype=complex)

    def weight(self, sector: SpinSector) -> float:
        """Tr of the diagonal block: the state's weight on `sector`.

        Sectors outside the state's support simply have weight zero.
        """
        blk = self.blocks.get((sector.key(), sector.key()))
        return float(np.trace(blk).real) if blk is not None else 0.0

    def trace(self) -> float:
        return sum(self.weight(s) for s in self.sectors)

    def assemble(self) -> np.ndarray:
        """Dense matrix over the direct sum of the sector bulk spaces."""
        keys = self.sector_keys()
        sizes = [int(np.prod(self.dims(k), dtype=np.int64)) for k in keys]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        total = int(offsets[-1])
        out = np.zeros((total, total), dtype=complex)
        for i, ka in enumerate(keys):
            for j, kb in enumerate(keys):
                out[
                    offsets[i] : offsets[i] + sizes[i],
                    offsets[j] : offsets[j] + sizes[j],
                ] = self.block(ka, kb)
        return out

    def conjugate(self) -> "IntertwinerState":
        """Entrywise complex conjugate of every block (same sector set)."""
        return IntertwinerState(
            graph=self.graph,
            sectors=self.sectors,
            blocks={key: blk.conj() for key, blk in self.blocks.items()},
            amplitudes=(
                None
                if self.amplitudes is None
                else {key: vec.conj() for key, vec in self.amplitudes.items()}
            ),
        )

    def is_pure(self, tol: float = 1e-10) -> bool:
        if self.amplitudes is not None:
            return True
        full = self.assemble()
        tr = np.trace(full).real
        if tr <= 0:
            return False
        return bool(abs(np.trace(full @ full).real / tr**2 - 1.0) <= tol)

    # -- partial traces --------------------------------------------------

    def traced_block(
        self,
        ket: SpinSector,
        bra: SpinSector,
        keep_vertices: Iterable[str],
    ) -> np.ndarray:
        """Partial trace of block (ket, bra) over the vertices not kept.

        The traced vertices must carry identical spin tuples in both sectors
        (otherwise the trace pairs indices of different ranges).  Returns a
        matrix over the kept vertices' product spaces: rows from the ket
        sector, columns from the bra sector.  An empty keep set yields a
        1 x 1 matrix holding the full trace.
        """
        keep = set(keep_vertices)
        order = self.graph.vertices
        unknown = keep - set(order)
        if unknown:
            raise BulkStateError(f"unknown vertices {sorted(unknown)}")
        for x in order:
            if x not in keep and ket.vertex_twice(x) != bra.vertex_twice(x):
                raise BulkStateError(
                    f"cannot trace vertex {x!r}: sector spin tuples differ"
                )
        dims_k = self._block_dims(ket)
        dims_b = self._block_dims(bra)
        kept_dims_k = [dims_k[i] for i in range(len(order)) if order[i] in keep]
        kept_dims_b = [dims_b[i] for i in range(len(order)) if order[i] in keep]
        out_rows = int(np.prod(kept_dims_k, dtype=np.int64)) if kept_dims_k else 1
        out_cols = int(np.prod(kept_dims_b, dtype=np.int64)) if kept_dims_b else 1
        blk = self.blocks.get((ket.key(), bra.key()))
        if blk is None:
            # Blocks the state never populated (e.g. sectors stitched together
            # from two others when evaluating a mixed configuration) are zero.
            return np.zeros((out_rows, out_cols), dtype=complex)
        tensor = blk.reshape(dims_k + dims_b)
        n = len(order)
        # Trace matching ket/bra axes for every vertex outside `keep`.
        # Axis bookkeeping: after each np.trace the two removed axes shift
        # later indices down, so walk vertices in reverse order.
        removed_after = 0
        for idx in range(n - 1, -1, -1):
            if order[idx] in keep:
                continue
            ket_axis = idx
            bra_axis = idx + (n - removed_after)
            tensor = np.trace(tensor, axis1=ket_axis, axis2=bra_axis)
            removed_after += 1
        return tensor.reshape(out_rows, out_cols)


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
        from .spins import Spin

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
