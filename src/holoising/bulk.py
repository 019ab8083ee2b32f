"""Bulk intertwiner states and their traced blocks.

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
weights Tr rho_jj, Tr rho_kk) and their Hilbert-Schmidt cosine.  Its
batched pass asks for each (configuration, ket, bra) block once and
shares it among the pairs that read it.

The paper states the same construction through X operators, Sigma_B and a
fidelity angle.  Nothing in the package calls them, so they live with the
tests, in `tests/paper_operators.py`.

All matrices are dense complex; intertwiner dimensions at the scales treated
here are tiny.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .graph import OpenGraph
from .spins import SpinSector, intertwiner_dim

SectorKey = Tuple[Tuple[str, int], ...]

#: Absolute tolerance of the density-matrix checks: Hermiticity, positivity
#: (relative to the largest eigenvalue), unit trace and purity.
DENSITY_TOL = 1e-10


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
    ) -> "IntertwinerState":
        """Build a density-matrix form state from explicit sector blocks.

        Blocks may be given for one triangle only; the missing conjugate
        blocks are filled in.  With `require_density` the assembled matrix
        must be Hermitian, positive semidefinite and of unit trace, each
        within `DENSITY_TOL`.
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
            if not np.allclose(full, full.conj().T, atol=DENSITY_TOL):
                raise BulkStateError("state matrix is not Hermitian")
            eigs = np.linalg.eigvalsh(full)
            if eigs.min() < -DENSITY_TOL * max(1.0, float(abs(eigs).max())):
                raise BulkStateError(
                    f"state matrix is not positive semidefinite "
                    f"(min eigenvalue {eigs.min():.3e})"
                )
            if abs(np.trace(full).real - 1.0) > DENSITY_TOL:
                raise BulkStateError(
                    f"density matrix trace {np.trace(full).real!r} is not 1"
                )
        return state

    # -- bookkeeping -----------------------------------------------------

    def sector_keys(self) -> Tuple[SectorKey, ...]:
        return tuple(s.key() for s in self.sectors)

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

    def is_pure(self) -> bool:
        if self.amplitudes is not None:
            return True
        full = self.assemble()
        tr = np.trace(full).real
        if tr <= 0:
            return False
        return bool(abs(np.trace(full @ full).real / tr**2 - 1.0) <= DENSITY_TOL)

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
