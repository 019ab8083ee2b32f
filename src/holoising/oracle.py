"""Exact small-Hilbert-space simulator used to cross-check the Ising engine.

Everything here is deliberately low-tech linear algebra on explicitly built
truncated vertex spaces: singlet contractions are materialised as support
masks and amplitudes on the global basis, replica averages are sums over
swap patterns evaluated by tensor contraction, and Monte Carlo states are
normalized complex Gaussians.  None of the combinatorial shortcuts of the
Ising dual (couplings, kernels, dimension counting) are used, so agreement
between the two routes is a real consistency check rather than a tautology.

The basis of a vertex space is the direct sum over the vertex's admissible
spin combinations of (intertwiner index) x (one magnetic index per port).
Blocks are ordered lexicographically by their doubled-spin tuples and the
intertwiner index varies fastest inside a block.  The global index is the
row-major product over vertices in declaration order.

Swap-pattern traces.  For a linear map C (the product of link projectors,
optionally contracted with a bulk input state) and a replica swap on a slot
set R, each vertex-subset pattern U contributes

    T = Tr[(C (x) C) S_U (C^+ (x) C^+) S_R]

which is evaluated by grouping the rows of C into classes that share the
labels outside R ("pair classes") and contracting two partial Gram tensors
per class.  The pattern sum with unit weights reproduces the Ising engine's
unnormalized partition totals; normalized grades reweight the same traces.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.random import Generator, Philox

from .bulk import IntertwinerState
from .graph import OpenGraph, PortRef
from .ising import ModelKind
from .spins import SectorFamily, Spin, SpinSector, enumerate_sectors, intertwiner_dim

DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "HOLOISING_DIM_CAP"

_PAIR_GUARD = 20_000_000  # hard ceiling on row pairs in a pair basis


class OracleError(RuntimeError):
    """Raised when an oracle computation cannot be carried out honestly."""


def dim_cap(explicit: Optional[int] = None) -> int:
    """Effective dimension limit: explicit argument, else environment, else default."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(DIM_CAP_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise OracleError(f"{DIM_CAP_ENV} must be an integer, got {env!r}") from exc
        if value <= 0:
            raise OracleError(f"{DIM_CAP_ENV} must be positive, got {value}")
        return value
    return DEFAULT_DIM_CAP


# ---------------------------------------------------------------------------
# Hilbert index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexBlock:
    """One spin combination of a vertex: an intertwiner factor times the ports."""

    port_spins: Tuple[Spin, ...]
    intertwiner_dim: int
    offset: int

    @property
    def port_dims(self) -> Tuple[int, ...]:
        return tuple(s.dim for s in self.port_spins)

    @property
    def size(self) -> int:
        n = self.intertwiner_dim
        for d in self.port_dims:
            n *= d
        return n


class VertexSpace:
    """Basis tables for one vertex: blocks, decode arrays, slot keys."""

    def __init__(self, graph: OpenGraph, family: SectorFamily, vertex: str):
        self.vertex = vertex
        self.port_links: Tuple[str, ...] = graph.links_at(vertex)
        combos: List[VertexBlock] = []
        offset = 0
        options = [family.allowed[lid] for lid in self.port_links]
        for spins in _lex_product(options):
            di = intertwiner_dim(spins)
            if di == 0:
                continue  # empty block: no invariant subspace
            blk = VertexBlock(port_spins=spins, intertwiner_dim=di, offset=offset)
            combos.append(blk)
            offset += blk.size
        self.blocks: Tuple[VertexBlock, ...] = tuple(combos)
        self.dim = offset
        self._block_of = {b.port_spins: i for i, b in enumerate(self.blocks)}

        # Decode tables over the local index: block id, intertwiner index,
        # magnetic digit per port, and per-slot alphabet keys.
        nports = len(self.port_links)
        self.block_id = np.zeros(self.dim, dtype=np.int64)
        self.int_idx = np.zeros(self.dim, dtype=np.int64)
        self.port_digit = [np.zeros(self.dim, dtype=np.int64) for _ in range(nports)]
        self.int_key = np.zeros(self.dim, dtype=np.int64)
        self.port_key = [np.zeros(self.dim, dtype=np.int64) for _ in range(nports)]

        # Per-port alphabet: all (spin, m) labels the port can carry.
        self.port_alpha_offset: List[Dict[int, int]] = []
        self.port_alpha_size: List[int] = []
        for lid in self.port_links:
            table: Dict[int, int] = {}
            acc = 0
            for s in family.allowed[lid]:
                table[s.twice] = acc
                acc += s.dim
            self.port_alpha_offset.append(table)
            self.port_alpha_size.append(acc)
        self.int_alpha_size = sum(b.intertwiner_dim for b in self.blocks)

        int_base = 0
        for bid, blk in enumerate(self.blocks):
            dims = blk.port_dims
            idx = np.arange(blk.size, dtype=np.int64)
            a = idx % blk.intertwiner_dim
            rest = idx // blk.intertwiner_dim
            digits = []
            for d in reversed(dims):
                digits.append(rest % d)
                rest //= d
            digits.reverse()
            sl = slice(blk.offset, blk.offset + blk.size)
            self.block_id[sl] = bid
            self.int_idx[sl] = a
            self.int_key[sl] = int_base + a
            for p, dig in enumerate(digits):
                self.port_digit[p][sl] = dig
                off = self.port_alpha_offset[p][blk.port_spins[p].twice]
                self.port_key[p][sl] = off + dig
            int_base += blk.intertwiner_dim

    def block_index(self, spins: Sequence[Spin]) -> Optional[int]:
        return self._block_of.get(tuple(spins))

    def port_stride(self, block: VertexBlock, port: int) -> int:
        stride = block.intertwiner_dim
        for d in block.port_dims[port + 1 :]:
            stride *= d
        return stride


def _lex_product(options: Sequence[Sequence[Spin]]) -> Iterable[Tuple[Spin, ...]]:
    if not options:
        yield ()
        return
    head, *tail = options
    for s in sorted(head):
        for rest in _lex_product(tail):
            yield (s,) + rest


Slot = Tuple  # ("I", vertex) or ("L", vertex, port_position)


class HilbertIndex:
    """Deterministic basis enumeration of the truncated product space."""

    def __init__(self, graph: OpenGraph, family: SectorFamily, cap: Optional[int] = None):
        self.graph = graph
        self.family = family
        self.spaces: Tuple[VertexSpace, ...] = tuple(
            VertexSpace(graph, family, x) for x in graph.vertices
        )
        dim = 1
        for space in self.spaces:
            dim *= space.dim
        limit = dim_cap(cap)
        if dim > limit:
            raise OracleError(
                f"total dimension {dim} exceeds the cap of {limit}; tighten the "
                f"spin lists or raise {DIM_CAP_ENV}"
            )
        self.dim = dim
        self.vstrides: Tuple[int, ...] = tuple(
            int(np.prod([s.dim for s in self.spaces[i + 1 :]], dtype=np.int64))
            for i in range(len(self.spaces))
        )
        self._digits: Optional[List[np.ndarray]] = None
        self._sectors: Optional[Tuple[SpinSector, ...]] = None
        self._sector_cols: Dict[Tuple, np.ndarray] = {}

    # -- bookkeeping -----------------------------------------------------

    @property
    def vertex_dims(self) -> Tuple[int, ...]:
        return tuple(s.dim for s in self.spaces)

    def space(self, vertex: str) -> VertexSpace:
        return self.spaces[self.graph.vertices.index(vertex)]

    def digits(self) -> List[np.ndarray]:
        """Per-vertex local index of every global basis label."""
        if self._digits is None:
            g = np.arange(self.dim, dtype=np.int64)
            self._digits = [
                (g // stride) % space.dim if space.dim else np.zeros(0, dtype=np.int64)
                for stride, space in zip(self.vstrides, self.spaces)
            ]
        return self._digits

    def slots(self) -> Tuple[Slot, ...]:
        out: List[Slot] = []
        for space in self.spaces:
            out.append(("I", space.vertex))
            for p in range(len(space.port_links)):
                out.append(("L", space.vertex, p))
        return tuple(out)

    def slot_key(self, slot: Slot) -> Tuple[np.ndarray, int]:
        """(alphabet key of the slot for every global label, alphabet size)."""
        kind = slot[0]
        vi = self.graph.vertices.index(slot[1])
        space = self.spaces[vi]
        dig = self.digits()[vi]
        if kind == "I":
            return space.int_key[dig], space.int_alpha_size
        if kind == "L":
            p = slot[2]
            return space.port_key[p][dig], space.port_alpha_size[p]
        raise OracleError(f"unknown slot token {slot!r}")

    def boundary_slot(self, link_id: str) -> Slot:
        x = self.graph.boundary_vertex(link_id)
        space = self.space(x)
        # A boundary link uses exactly one port of its vertex.
        for p, lid in enumerate(space.port_links):
            if lid == link_id:
                return ("L", x, p)
        raise OracleError(f"link {link_id!r} has no port at vertex {x!r}")

    # -- family sectors --------------------------------------------------

    def family_sectors(self) -> Tuple[SpinSector, ...]:
        """Sectors of the family whose every vertex block is non-empty."""
        if self._sectors is None:
            keep = []
            for sec in enumerate_sectors(self.family, self.graph):
                ok = all(
                    space.block_index(sec.vertex_spins(space.vertex)) is not None
                    for space in self.spaces
                )
                if ok:
                    keep.append(sec)
            self._sectors = tuple(keep)
        return self._sectors

    def sector_block_ids(self, sector: SpinSector) -> Tuple[int, ...]:
        ids = []
        for space in self.spaces:
            bid = space.block_index(sector.vertex_spins(space.vertex))
            if bid is None:
                raise OracleError(f"sector {sector.label()} has an empty vertex block")
            ids.append(bid)
        return tuple(ids)

    def sector_local_ranges(self, sector: SpinSector) -> List[np.ndarray]:
        out = []
        for space, bid in zip(self.spaces, self.sector_block_ids(sector)):
            blk = space.blocks[bid]
            out.append(np.arange(blk.offset, blk.offset + blk.size, dtype=np.int64))
        return out

    def sector_columns(self, sector: SpinSector) -> np.ndarray:
        """Flat global indices of the sector's block, row-major over vertices."""
        key = sector.key()
        if key not in self._sector_cols:
            flat = np.zeros(1, dtype=np.int64)
            for rng, stride in zip(self.sector_local_ranges(sector), self.vstrides):
                flat = (flat[:, None] + rng[None, :] * stride).reshape(-1)
            self._sector_cols[key] = flat
        return self._sector_cols[key]

    def bulk_key(self) -> Tuple[np.ndarray, int]:
        """Combined intertwiner-slot key of every global label (row-major)."""
        keys = np.zeros(self.dim, dtype=np.int64)
        size = 1
        for space, dig in zip(self.spaces, self.digits()):
            keys = keys * space.int_alpha_size + space.int_key[dig]
            size *= space.int_alpha_size
        return keys, size


def build_hilbert(
    graph: OpenGraph, family: SectorFamily, cap: Optional[int] = None
) -> HilbertIndex:
    """Enumerate the truncated vertex spaces, refusing oversized products."""
    return HilbertIndex(graph, family, cap=cap)


# ---------------------------------------------------------------------------
# Link projectors
# ---------------------------------------------------------------------------


def singlet_projector(index: HilbertIndex, link_id: str) -> np.ndarray:
    """Weighted singlet projector of one internal link, on its two port alphabets.

    The spin-j block carries weight |g_j|^2 on the normalized two-port
    singlet (1/sqrt d) sum_k (-1)^k |k>|d-1-k>.  This is the operator whose
    single insertion per replica copy defines the averaged traces; the map
    built by build_cmap uses its amplitude square root per side instead, so
    that the sandwich C rho C^+ composes to the same weight.
    """
    link = next(
        (e for e in index.graph.internal_links if e.link_id == link_id), None
    )
    if link is None:
        raise OracleError(f"link {link_id!r} is not an internal link")
    allowed = index.family.allowed[link_id]
    offsets: Dict[int, int] = {}
    acc = 0
    for s in allowed:
        offsets[s.twice] = acc
        acc += s.dim
    out = np.zeros((acc * acc, acc * acc), dtype=complex)
    for s in allowed:
        d = s.dim
        off = offsets[s.twice]
        vec = np.zeros(acc * acc, dtype=complex)
        for k in range(d):
            vec[(off + k) * acc + (off + d - 1 - k)] = (-1.0) ** k / np.sqrt(d)
        out += abs(index.family.g(link_id, s)) ** 2 * np.outer(vec, vec.conj())
    return out


# ---------------------------------------------------------------------------
# Pair bases: row classes for partial swaps on non-factorizing labels
# ---------------------------------------------------------------------------


class PairBasis:
    """All row pairs of an output space that agree outside the swap region R.

    Rows are grouped by their labels outside R; within a group every ordered
    pair contributes.  Pairs are classified by the compressed R-labels of
    their two members, which is exactly the index structure of a partial
    trace onto R.
    """

    def __init__(self, keys_r: List[np.ndarray], keys_rest: List[np.ndarray], dim: int):
        rid = _compress_rows(keys_r, dim)
        bid = _compress_rows(keys_rest, dim)
        self.keep_dim = int(rid.max()) + 1 if dim else 0
        order = np.lexsort((rid, bid))
        bid_sorted = bid[order]
        cuts = np.flatnonzero(np.diff(bid_sorted)) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [dim]))
        sizes = ends - starts
        total = int(np.sum(sizes * sizes))
        if total > _PAIR_GUARD:
            raise OracleError(
                f"{total} row pairs needed for this swap region; the instance is "
                f"too large for the exact contraction"
            )
        i1 = np.empty(total, dtype=np.int64)
        i2 = np.empty(total, dtype=np.int64)
        pos = 0
        for s, e in zip(starts, ends):
            grp = order[s:e]
            n = e - s
            i1[pos : pos + n * n] = np.repeat(grp, n)
            i2[pos : pos + n * n] = np.tile(grp, n)
            pos += n * n
        c1 = rid[i1]
        c2 = rid[i2]
        csort = np.lexsort((c2, c1))
        self.i1 = i1[csort]
        self.i2 = i2[csort]
        c1 = c1[csort]
        c2 = c2[csort]
        self.classes: Dict[Tuple[int, int], Tuple[int, int]] = {}
        if total:
            stacked = np.stack([c1, c2], axis=1)
            change = np.any(np.diff(stacked, axis=0) != 0, axis=1)
            cls_starts = np.concatenate(([0], np.flatnonzero(change) + 1))
            cls_ends = np.concatenate((cls_starts[1:], [total]))
            for s, e in zip(cls_starts, cls_ends):
                self.classes[(int(c1[s]), int(c2[s]))] = (int(s), int(e))
        self.rid = rid


def _compress_rows(key_arrays: List[np.ndarray], dim: int) -> np.ndarray:
    if not key_arrays:
        return np.zeros(dim, dtype=np.int64)
    stacked = np.stack(key_arrays, axis=1)
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    return inverse.astype(np.int64)


# ---------------------------------------------------------------------------
# The averaged map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrozenVertices:
    """A fixed (non-averaged) joint state on a subset of vertices.

    `amplitudes` is indexed row-major over the named vertices' local bases in
    the order given.
    """

    vertices: Tuple[str, ...]
    amplitudes: np.ndarray


class CMap:
    """A concrete linear map from averaged vertex states to an output space.

    components holds (weight, matrix) pairs; a pure bulk input has a single
    component, a mixed one carries its eigendecomposition.
    """

    def __init__(
        self,
        index: HilbertIndex,
        kind: ModelKind,
        components: Sequence[Tuple[float, np.ndarray]],
        out_slots: Tuple[Slot, ...],
        out_keys: Mapping[Slot, Tuple[np.ndarray, int]],
        in_vertices: Tuple[str, ...],
        col_dims: Tuple[int, ...],
    ):
        self.index = index
        self.kind = kind
        self.components = tuple((float(w), np.ascontiguousarray(m)) for w, m in components)
        self.out_slots = out_slots
        self.out_keys = dict(out_keys)
        self.in_vertices = in_vertices
        self.col_dims = col_dims
        self.out_dim = self.components[0][1].shape[0] if self.components else 0
        self.in_dim = self.components[0][1].shape[1] if self.components else 0
        self._pair_cache: Dict[Tuple[Slot, ...], PairBasis] = {}
        self._gram_cache: Dict[Tuple, np.ndarray] = {}

    def pair_basis(self, region: Tuple[Slot, ...]) -> PairBasis:
        key = tuple(sorted(region))
        if key not in self._pair_cache:
            missing = [s for s in key if s not in self.out_slots]
            if missing:
                raise OracleError(f"swap region names absent slots: {missing}")
            keys_r = [self.out_keys[s][0] for s in key]
            keys_rest = [
                self.out_keys[s][0] for s in self.out_slots if s not in set(key)
            ]
            self._pair_cache[key] = PairBasis(keys_r, keys_rest, self.out_dim)
        return self._pair_cache[key]

    def gram(self, n: int, m: int, colkey, cols: Optional[np.ndarray]) -> np.ndarray:
        key = (n, m, colkey)
        if key not in self._gram_cache:
            if len(self._gram_cache) > 6:
                self._gram_cache.clear()
            f1 = self.components[n][1]
            f2 = self.components[m][1]
            if cols is not None:
                f1 = f1[:, cols]
                f2 = f2[:, cols]
            self._gram_cache[key] = f1 @ f2.conj().T
        return self._gram_cache[key]


def _singlet_support(index: HilbertIndex) -> Tuple[np.ndarray, np.ndarray]:
    """Support mask and contraction amplitude of all internal-link singlets.

    A global label survives iff on every internal link the two port spins
    agree and the magnetic digits pair up; its amplitude is the product of
    the per-link bra amplitudes conj(g_j) (-1)^k / sqrt(d).
    """
    graph = index.graph
    digits = index.digits()
    support = np.ones(index.dim, dtype=bool)
    amp = np.ones(index.dim, dtype=complex)
    for link in graph.internal_links:
        xi = graph.vertices.index(link.source.vertex)
        yi = graph.vertices.index(link.target.vertex)
        sx, sy = index.spaces[xi], index.spaces[yi]
        p, q = link.source.port, link.target.port
        ix, iy = digits[xi], digits[yi]
        ts = np.array([b.port_spins[p].twice for b in sx.blocks], dtype=np.int64)[
            sx.block_id[ix]
        ]
        tt = np.array([b.port_spins[q].twice for b in sy.blocks], dtype=np.int64)[
            sy.block_id[iy]
        ]
        kx = sx.port_digit[p][ix]
        ky = sy.port_digit[q][iy]
        link_ok = np.zeros(index.dim, dtype=bool)
        link_amp = np.zeros(index.dim, dtype=complex)
        for s in index.family.allowed[link.link_id]:
            d = s.dim
            m = (ts == s.twice) & (tt == s.twice) & (ky == d - 1 - kx)
            if not m.any():
                continue
            link_ok |= m
            g = np.conj(index.family.g(link.link_id, s)) / np.sqrt(d)
            link_amp[m] = g * np.where(kx[m] % 2 == 0, 1.0, -1.0)
        support &= link_ok
        amp *= link_amp
    return support, amp


def build_cmap(
    index: HilbertIndex,
    kind: ModelKind,
    state: Optional[IntertwinerState] = None,
    fixed: Optional[FrozenVertices] = None,
) -> CMap:
    """Materialize the averaged map for either model kind.

    Internal links are contracted against their weighted singlet bras, so
    the output space carries only intertwiner and boundary-port labels (the
    bulk-to-boundary kind) or boundary-port labels alone (the
    boundary-to-boundary kind, which also contracts the bulk input state).
    Coherences between sectors that share boundary data survive this way,
    exactly as in the projected states.
    """
    graph = index.graph
    support, amp = _singlet_support(index)
    sup = np.flatnonzero(support)

    bulk_slots = [("I", x) for x in graph.vertices]
    bnd_slots = [index.boundary_slot(s.link_id) for s in graph.boundary_links]
    if kind.is_boundary_to_boundary:
        out_slots = tuple(bnd_slots)
    else:
        out_slots = tuple(bulk_slots + bnd_slots)

    key_arrays = [index.slot_key(s)[0][sup] for s in out_slots]
    inverse = _compress_rows(key_arrays, sup.size)
    out_dim = int(inverse.max()) + 1 if sup.size else 0

    if kind.is_boundary_to_boundary:
        if state is None:
            raise OracleError("the boundary-to-boundary map needs a bulk input state")
        weights, vectors = _bulk_eigenstates(index, state)
        bulk_keys, _ = index.bulk_key()
        comps = []
        for w, vec in zip(weights, vectors):
            f = np.zeros((out_dim, index.dim), dtype=complex)
            np.add.at(f, (inverse, sup), vec.conj()[bulk_keys[sup]] * amp[sup])
            comps.append((w, f))
    else:
        f = np.zeros((out_dim, index.dim), dtype=complex)
        f[inverse, sup] = amp[sup]
        comps = [(1.0, f)]

    out_keys: Dict[Slot, Tuple[np.ndarray, int]] = {}
    for slot, keys in zip(out_slots, key_arrays):
        arr = np.zeros(out_dim, dtype=np.int64)
        arr[inverse] = keys
        out_keys[slot] = (arr, index.slot_key(slot)[1])

    cmap = CMap(
        index,
        kind,
        comps,
        out_slots,
        out_keys,
        in_vertices=graph.vertices,
        col_dims=index.vertex_dims,
    )
    if fixed is not None:
        cmap = _freeze_vertices(cmap, fixed)
    return cmap


def _bulk_eigenstates(
    index: HilbertIndex, state: IntertwinerState
) -> Tuple[List[float], List[np.ndarray]]:
    """Eigendecomposition of the bulk input on the product intertwiner basis."""
    _, bulk_dim = index.bulk_key()
    rho = np.zeros((bulk_dim, bulk_dim), dtype=complex)
    ids = {}
    for sec in state.sectors:
        flat = np.zeros(1, dtype=np.int64)
        for space in index.spaces:
            bid = space.block_index(sec.vertex_spins(space.vertex))
            if bid is None:
                raise OracleError(
                    f"state sector {sec.label()} has an empty intertwiner block"
                )
            base = sum(b.intertwiner_dim for b in space.blocks[:bid])
            rng = np.arange(base, base + space.blocks[bid].intertwiner_dim)
            flat = (flat[:, None] * space.int_alpha_size + rng[None, :]).reshape(-1)
        ids[sec.key()] = flat
    for ket in state.sectors:
        for bra in state.sectors:
            block = state.block(ket.key(), bra.key())
            rho[np.ix_(ids[ket.key()], ids[bra.key()])] = block
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > max(1e-14, evals.max() * 1e-14) if evals.size else []
    weights = [float(v) for v in evals[keep]]
    vectors = [np.ascontiguousarray(evecs[:, i]) for i in np.flatnonzero(keep)]
    if not weights:
        raise OracleError("bulk input state has no positive weight")
    return weights, vectors


def _out_sector_rows(cmap: CMap, sector: SpinSector) -> Tuple[np.ndarray, int]:
    """Rows of the output space belonging to one sector, with its bulk dim.

    Output rows are sorted by (intertwiner keys, boundary keys), so the
    returned rows are row-major over (intertwiner indices, boundary magnetic
    digits) and reshape directly to (d_bulk, d_boundary).
    """
    index = cmap.index
    mask = np.ones(cmap.out_dim, dtype=bool)
    d_i = 1
    for space, bid in zip(index.spaces, index.sector_block_ids(sector)):
        slot = ("I", space.vertex)
        if slot not in cmap.out_keys:
            raise OracleError("this map's output has no bulk labels to resolve")
        keys = cmap.out_keys[slot][0]
        base = sum(b.intertwiner_dim for b in space.blocks[:bid])
        width = space.blocks[bid].intertwiner_dim
        mask &= (keys >= base) & (keys < base + width)
        d_i *= width
    return np.flatnonzero(mask), d_i


def _freeze_vertices(cmap: CMap, fixed: FrozenVertices) -> CMap:
    graph = cmap.index.graph
    order = [graph.vertices.index(x) for x in fixed.vertices]
    if len(set(order)) != len(order):
        raise OracleError("frozen vertices must be distinct")
    dims = tuple(cmap.col_dims[i] for i in order)
    core = np.asarray(fixed.amplitudes, dtype=complex).reshape(dims)
    remaining = tuple(
        x for x in cmap.in_vertices if x not in set(fixed.vertices)
    )
    comps = []
    for w, f in cmap.components:
        t = f.reshape((f.shape[0],) + cmap.col_dims)
        t = np.tensordot(t, core, axes=(tuple(1 + i for i in order), tuple(range(len(order)))))
        comps.append((w, t.reshape(f.shape[0], -1)))
    col_dims = tuple(
        d for i, d in enumerate(cmap.col_dims) if i not in set(order)
    )
    return CMap(
        cmap.index,
        cmap.kind,
        comps,
        cmap.out_slots,
        cmap.out_keys,
        in_vertices=remaining,
        col_dims=col_dims,
    )


# ---------------------------------------------------------------------------
# Swap-pattern traces
# ---------------------------------------------------------------------------


def resolve_region(index: HilbertIndex, region) -> Tuple[Slot, ...]:
    """Normalize a region argument to a tuple of slot tokens."""
    if region is None:
        return ()
    if isinstance(region, str):
        if region == "bulk":
            return tuple(("I", x) for x in index.graph.vertices)
        region = [region]
    out: List[Slot] = []
    for item in region:
        if isinstance(item, tuple) and item and item[0] in ("I", "L"):
            out.append(item)
        elif isinstance(item, str):
            out.append(index.boundary_slot(item))
        else:
            raise OracleError(f"cannot interpret region item {item!r}")
    return tuple(out)


def _pattern_trace(
    cmap: CMap,
    pb: PairBasis,
    subset: Tuple[int, ...],
    n: int,
    m: int,
    colsel1: Optional[List[np.ndarray]],
    colsel2: Optional[List[np.ndarray]],
    colkey1,
    colkey2,
) -> complex:
    """Tr[(C (x) C) S_subset (C^+ (x) C^+) S_R] for one vertex subset."""
    f1 = cmap.components[n][1]
    f2 = cmap.components[m][1]
    nvert = len(cmap.col_dims)
    if len(subset) == nvert and colkey1 == colkey2:
        # Fully swapped pattern: two Gram gathers instead of per-class tensors.
        cols = _flat_cols(cmap, colsel1)
        g12 = cmap.gram(n, m, colkey1, cols)
        total = 0.0 + 0.0j
        for (a, b), (lo, hi) in pb.classes.items():
            tlo, thi = pb.classes[(b, a)]
            m1 = g12[np.ix_(pb.i1[lo:hi], pb.i2[tlo:thi])]
            m2 = np.conj(g12[np.ix_(pb.i2[lo:hi], pb.i1[tlo:thi])])
            total += np.einsum("pq,pq->", m1, m2)
        return total
    g1 = _pattern_tensor(f1, cmap.col_dims, colsel1, subset)
    g2 = _pattern_tensor(f2, cmap.col_dims, colsel2, subset)
    total = 0.0 + 0.0j
    for (a, b), (lo, hi) in pb.classes.items():
        tlo, thi = pb.classes[(b, a)]
        psi1 = np.tensordot(
            g1[pb.i1[lo:hi]], np.conj(g1[pb.i2[lo:hi]]), axes=[(0, 2), (0, 2)]
        )
        psi2 = np.tensordot(
            g2[pb.i1[tlo:thi]], np.conj(g2[pb.i2[tlo:thi]]), axes=[(0, 2), (0, 2)]
        )
        total += np.einsum("uv,vu->", psi1, psi2)
    return total


def _flat_cols(cmap: CMap, colsel: Optional[List[np.ndarray]]) -> Optional[np.ndarray]:
    if colsel is None:
        return None
    flat = np.zeros(1, dtype=np.int64)
    for rng, dim in zip(colsel, cmap.col_dims):
        flat = (flat[:, None] * dim + rng[None, :]).reshape(-1)
    return flat


def _pattern_tensor(
    f: np.ndarray,
    col_dims: Tuple[int, ...],
    colsel: Optional[List[np.ndarray]],
    subset: Tuple[int, ...],
) -> np.ndarray:
    rows = f.shape[0]
    t = f.reshape((rows,) + col_dims)
    if colsel is not None:
        t = t[np.ix_(np.arange(rows), *colsel)]
    in_subset = set(subset)
    axes = (
        [0]
        + [1 + i for i in range(len(col_dims)) if i in in_subset]
        + [1 + i for i in range(len(col_dims)) if i not in in_subset]
    )
    t = np.transpose(t, axes)
    n_u = int(np.prod([t.shape[1 + k] for k in range(len(subset))], dtype=np.int64)) if subset else 1
    return np.ascontiguousarray(t.reshape(rows, n_u, -1))


def _component_pattern_sum(
    cmap: CMap,
    pb: PairBasis,
    subsets: Sequence[Tuple[int, ...]],
    colsel1=None,
    colsel2=None,
    colkey1=None,
    colkey2=None,
    threads: int = 1,
) -> complex:
    jobs = []
    for subset in subsets:
        for n, (wn, _) in enumerate(cmap.components):
            for m, (wm, _) in enumerate(cmap.components):
                jobs.append((subset, n, m, wn * wm))

    def run(job):
        subset, n, m, w = job
        return w * _pattern_trace(
            cmap, pb, subset, n, m, colsel1, colsel2, colkey1, colkey2
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, jobs))
    else:
        parts = [run(job) for job in jobs]
    return sum(parts)


def _all_subsets(n: int) -> List[Tuple[int, ...]]:
    out = []
    for mask in range(1 << n):
        out.append(tuple(i for i in range(n) if mask & (1 << i)))
    return out


def exact_replica_average(
    index: HilbertIndex,
    region,
    kind: Optional[ModelKind] = None,
    grade: str = "medium",
    state: Optional[IntertwinerState] = None,
    weights: Optional[Mapping] = None,
    fixed: Optional[FrozenVertices] = None,
    cmap: Optional[CMap] = None,
    threads: int = 1,
) -> float:
    """Exact replica trace summed over swap patterns of the requested grade.

    medium and coarse grades return the unnormalized pattern sum (the same
    convention as the Ising partition totals); the fine grades include their
    sector weights and dimension normalizations.  `region` is the replica
    swap: () for the denominator, "bulk" for the intertwiner slots, or an
    iterable of boundary link ids / slot tokens.
    """
    if cmap is None:
        if kind is None:
            kind = ModelKind.bulk_to_boundary()
        cmap = build_cmap(index, kind, state=state, fixed=fixed)
    slots = resolve_region(index, region)
    pb = cmap.pair_basis(slots)
    nvert = len(cmap.in_vertices)

    if grade == "medium":
        value = _component_pattern_sum(
            cmap, pb, _all_subsets(nvert), threads=threads
        )
    elif grade == "coarse":
        subsets = [(), tuple(range(nvert))]
        value = _component_pattern_sum(cmap, pb, subsets, threads=threads)
    elif grade in ("fine", "fine-high"):
        value = _fine_pattern_sum(cmap, pb, weights, grade, threads)
    else:
        raise OracleError(f"unknown averaging grade {grade!r}")

    scale = abs(value)
    if abs(value.imag) > 1e-8 * (scale + 1.0):
        raise OracleError(f"replica trace came out non-real: {value}")
    return float(value.real)


def _fine_weights(index: HilbertIndex, weights) -> Dict[Tuple, float]:
    sectors = index.family_sectors()
    if not sectors:
        raise OracleError("no admissible sectors for the fine average")
    if weights is None:
        p = {sec.key(): 1.0 for sec in sectors}
    else:
        p = {}
        for key, val in weights.items():
            if isinstance(key, SpinSector):
                key = key.key()
            p[key] = float(val)
        for key in p:
            if key not in {sec.key() for sec in sectors}:
                raise OracleError(f"weight given for unknown sector {key}")
        if any(v < 0 for v in p.values()):
            raise OracleError("sector weights must be non-negative")
    total = sum(p.values())
    if total <= 0:
        raise OracleError("sector weights must have positive mass")
    return {k: v / total for k, v in p.items()}


def _fine_pattern_sum(
    cmap: CMap, pb: PairBasis, weights, grade: str, threads: int
) -> complex:
    index = cmap.index
    if cmap.in_vertices != index.graph.vertices:
        raise OracleError("fine averaging requires all vertices to be averaged")
    p = _fine_weights(index, weights)
    sectors = [s for s in index.family_sectors() if p.get(s.key(), 0.0) > 0.0]
    ranges = {s.key(): index.sector_local_ranges(s) for s in sectors}
    block_dims = {
        s.key(): [r.size for r in ranges[s.key()]] for s in sectors
    }
    total = 0.0 + 0.0j
    # Identity part: every ordered sector pair, no swap anywhere.
    for sj in sectors:
        for sk in sectors:
            nj = int(np.prod(block_dims[sj.key()], dtype=np.int64))
            nk = int(np.prod(block_dims[sk.key()], dtype=np.int64))
            t = _component_pattern_sum(
                cmap,
                pb,
                [()],
                colsel1=ranges[sj.key()],
                colsel2=ranges[sk.key()],
                colkey1=sj.key(),
                colkey2=sk.key(),
                threads=1,
            )
            total += p[sj.key()] * p[sk.key()] * t / (nj * nk)
    # Diagonal correction: the full per-vertex average inside each sector.
    subsets = _all_subsets(len(index.graph.vertices))
    for sj in sectors:
        key = sj.key()
        nj = int(np.prod(block_dims[key], dtype=np.int64))
        t_all = _component_pattern_sum(
            cmap,
            pb,
            subsets,
            colsel1=ranges[key],
            colsel2=ranges[key],
            colkey1=key,
            colkey2=key,
            threads=threads,
        )
        t_id = _component_pattern_sum(
            cmap,
            pb,
            [()],
            colsel1=ranges[key],
            colsel2=ranges[key],
            colkey1=key,
            colkey2=key,
            threads=1,
        )
        if grade == "fine":
            norm = 1.0
            for nx in block_dims[key]:
                norm *= nx * (nx + 1.0)
            total += p[key] ** 2 * (t_all / norm - t_id / (nj * nj))
        else:  # fine-high: both corrections carry the squared sector dimension
            total += p[key] ** 2 * (t_all - t_id) / (nj * nj)
    return total


def replica_purity(
    index: HilbertIndex,
    region,
    kind: Optional[ModelKind] = None,
    grade: str = "medium",
    state: Optional[IntertwinerState] = None,
    weights: Optional[Mapping] = None,
    fixed: Optional[FrozenVertices] = None,
    cmap: Optional[CMap] = None,
    threads: int = 1,
) -> float:
    """Averaged replica purity: the region trace over the empty-region trace."""
    if cmap is None:
        if kind is None:
            kind = ModelKind.bulk_to_boundary()
        cmap = build_cmap(index, kind, state=state, fixed=fixed)
    z1 = exact_replica_average(
        index, region, grade=grade, weights=weights, cmap=cmap, threads=threads
    )
    z0 = exact_replica_average(
        index, (), grade=grade, weights=weights, cmap=cmap, threads=threads
    )
    if z0 <= 0:
        raise OracleError("normalization trace is not positive")
    return z1 / z0


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def _gaussian_vector(seed: int, shot: int, vertex: int, block: int, n: int) -> np.ndarray:
    key = np.array(
        [np.uint64(seed), np.uint64((shot << 20) ^ (vertex << 10) ^ block)],
        dtype=np.uint64,
    )
    gen = Generator(Philox(key=key))
    raw = gen.standard_normal(2 * n)
    return (raw[:n] + 1j * raw[n:]) / np.sqrt(2.0)


def haar_sample(
    index: HilbertIndex,
    grade: str = "medium",
    seed: int = 0,
    shot: int = 0,
    weights: Optional[Mapping] = None,
) -> np.ndarray:
    """One random global state of the requested averaging grade.

    Haar vectors are realized as normalized standard complex Gaussians; the
    generator is keyed by (seed, shot, vertex, block) counters so results are
    identical no matter how the shots are scheduled.
    """
    if grade == "medium":
        vec = np.ones(1, dtype=complex)
        for vi, space in enumerate(index.spaces):
            v = _gaussian_vector(seed, shot, vi, 0, space.dim)
            v /= np.linalg.norm(v)
            vec = np.kron(vec, v)
        return vec
    if grade == "coarse":
        v = _gaussian_vector(seed, shot, 0, 1, index.dim)
        return v / np.linalg.norm(v)
    if grade == "fine":
        p = _fine_weights(index, weights)
        vec = np.zeros(index.dim, dtype=complex)
        for si, sec in enumerate(index.family_sectors()):
            w = p.get(sec.key(), 0.0)
            if w == 0.0:
                continue
            block = np.ones(1, dtype=complex)
            for vi, rng in enumerate(index.sector_local_ranges(sec)):
                v = _gaussian_vector(seed, shot, vi, 2 + si, rng.size)
                v /= np.linalg.norm(v)
                block = np.kron(block, v)
            vec[index.sector_columns(sec)] += np.sqrt(w) * block
        return vec
    raise OracleError(f"unknown averaging grade {grade!r}")


# ---------------------------------------------------------------------------
# Reductions of explicit states
# ---------------------------------------------------------------------------


def reduced_density(
    source,
    phi: np.ndarray,
    subsystem,
) -> np.ndarray:
    """Partial trace of a pure state onto a slot subsystem.

    `source` is a HilbertIndex (states on the global basis) or a CMap (states
    on its output space).  `subsystem` follows resolve_region; the result is
    indexed by the compressed labels of the kept slots.
    """
    index, pb = _reduction_basis(source, subsystem)
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    rho = np.zeros((pb.keep_dim, pb.keep_dim), dtype=complex)
    np.add.at(rho, (pb.rid[pb.i1], pb.rid[pb.i2]), phi[pb.i1] * np.conj(phi[pb.i2]))
    return rho


def _reduction_basis(source, subsystem) -> Tuple[HilbertIndex, PairBasis]:
    if isinstance(source, CMap):
        index = source.index
        slots = resolve_region(index, subsystem)
        return index, source.pair_basis(slots)
    index = source
    slots = resolve_region(index, subsystem)
    key_r = [index.slot_key(s)[0] for s in slots]
    rest = [index.slot_key(s)[0] for s in index.slots() if s not in set(slots)]
    return index, PairBasis(key_r, rest, index.dim)


def sector_states(source, phi: np.ndarray) -> Dict[SpinSector, Tuple[float, np.ndarray]]:
    """Split a state into sectors: {sector: (weight, block as (d_bulk, d_rest))}.

    With a CMap source, `phi` lives on the map's output space and the block
    columns are boundary labels; with a HilbertIndex source, `phi` is a
    global state and the columns collect every port factor.  Weights are
    relative squared norms.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    total = float(np.vdot(phi, phi).real)
    if total <= 0:
        raise OracleError("cannot sector-resolve a null state")
    out: Dict[SpinSector, Tuple[float, np.ndarray]] = {}
    if isinstance(source, CMap):
        index = source.index
        for sec in index.family_sectors():
            rows, d_i = _out_sector_rows(source, sec)
            block = phi[rows]
            w = float(np.vdot(block, block).real) / total
            out[sec] = (w, block.reshape(d_i, -1))
        return out
    index = source
    for sec in index.family_sectors():
        cols = index.sector_columns(sec)
        block = phi[cols]
        w = float(np.vdot(block, block).real) / total
        shape: List[int] = []
        int_axes: List[int] = []
        port_axes: List[int] = []
        for space, bid in zip(index.spaces, index.sector_block_ids(sec)):
            blk = space.blocks[bid]
            for d in blk.port_dims:
                port_axes.append(len(shape))
                shape.append(d)
            int_axes.append(len(shape))
            shape.append(blk.intertwiner_dim)
        tensor = block.reshape(shape)
        tensor = np.transpose(tensor, int_axes + port_axes)
        d_i = int(np.prod([shape[i] for i in int_axes], dtype=np.int64))
        out[sec] = (w, tensor.reshape(d_i, -1))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    """Ratio estimate of an averaged purity with a delta-method error bar."""

    value: float
    sigma: float
    mean_numerator: float
    mean_denominator: float
    shots: int
    seed: int


def mc_purity(
    index: HilbertIndex,
    region,
    kind: Optional[ModelKind] = None,
    state: Optional[IntertwinerState] = None,
    shots: int = 10_000,
    seed: int = 0,
    grade: str = "medium",
    weights: Optional[Mapping] = None,
    cmap: Optional[CMap] = None,
    batch: int = 256,
) -> MCEstimate:
    """Monte Carlo estimate of the averaged purity over random vertex states."""
    if cmap is None:
        if kind is None:
            kind = ModelKind.bulk_to_boundary()
        cmap = build_cmap(index, kind, state=state)
    if cmap.in_vertices != index.graph.vertices:
        raise OracleError("Monte Carlo sampling requires all vertices averaged")
    slots = resolve_region(index, region)
    pb = cmap.pair_basis(slots)
    z1 = np.empty(shots)
    z0 = np.empty(shots)
    done = 0
    while done < shots:
        n = min(batch, shots - done)
        psi = np.stack(
            [haar_sample(index, grade, seed, done + s, weights) for s in range(n)],
            axis=1,
        )
        rho = np.zeros((pb.keep_dim, pb.keep_dim, n), dtype=complex)
        trace = np.zeros(n)
        for w, f in cmap.components:
            phi = f @ psi
            np.add.at(
                rho,
                (pb.rid[pb.i1], pb.rid[pb.i2]),
                w * phi[pb.i1] * np.conj(phi[pb.i2]),
            )
            trace += w * np.sum(np.abs(phi) ** 2, axis=0)
        z1[done : done + n] = np.einsum("abs,bas->s", rho, rho).real
        z0[done : done + n] = trace**2
        done += n
    m1 = float(np.mean(z1))
    m0 = float(np.mean(z0))
    ratio = m1 / m0
    v11 = float(np.var(z1))
    v00 = float(np.var(z0))
    v10 = float(np.mean((z1 - m1) * (z0 - m0)))
    var = (v11 - 2.0 * ratio * v10 + ratio * ratio * v00) / (shots * m0 * m0)
    return MCEstimate(
        value=ratio,
        sigma=float(np.sqrt(max(var, 0.0))),
        mean_numerator=m1,
        mean_denominator=m0,
        shots=shots,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Channel diagnostics on sector data
# ---------------------------------------------------------------------------


def choi_map(
    rho_sectors: Mapping,
    x_ops: Mapping,
    dims: Mapping,
    c_weights: Mapping,
    window: Sequence,
) -> Dict:
    """Bulk-to-boundary superoperator applied to a sector-diagonal operator.

    rho_sectors maps each window sector to its (dI*dO, dI*dO) density block;
    x_ops maps sectors to (dI, dI) operators.  Off-window or sector-mixing
    inputs are rejected.  Returns {sector: boundary operator}, scaled by the
    total input dimension.
    """
    window = list(window)
    win = {_sector_key(s) for s in window}
    for key in x_ops:
        if _sector_key(key) not in win:
            raise OracleError("operator input mixes sectors outside the window")
    k_total = sum(dims[_sector_key(s)][0] for s in window)
    out: Dict = {}
    for s in window:
        key = _sector_key(s)
        d_i, d_o = dims[key]
        x = None
        for cand in x_ops:
            if _sector_key(cand) == key:
                x = np.asarray(x_ops[cand], dtype=complex)
        if x is None:
            continue
        if x.shape != (d_i, d_i):
            raise OracleError(f"operator block for {key} has shape {x.shape}")
        rho4 = np.asarray(rho_sectors[key], dtype=complex).reshape(d_i, d_o, d_i, d_o)
        # Tr_I[(X (x) 1) rho] contracts X against the two intertwiner axes.
        out[key] = k_total * c_weights[key] * np.einsum("ab,boap->op", x, rho4)
    return out


def _sector_key(s):
    return s.key() if isinstance(s, SpinSector) else s


def hs_isometry_defect(
    rho_sectors: Mapping,
    dims: Mapping,
    c_weights: Mapping,
    window: Sequence,
) -> float:
    """Worst-sector defect of the two-copy swap condition plus the Gram defect.

    The first part measures, per sector, how far c^2 K^2 Tr_{O^2}[(rho (x)
    rho) S_O] is from the input swap; the second compares the channel's Gram
    matrix on matrix units with the identity's.
    """
    window = list(window)
    k_total = sum(dims[_sector_key(s)][0] for s in window)
    worst = 0.0
    for s in window:
        key = _sector_key(s)
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


@dataclass(frozen=True)
class LocalisationReport:
    """Sampled covariance between sector weight and sector purity."""

    covariance: float
    sigma: float
    mean_weight: float
    mean_purity: float
    shots: int


def localisation_probe(
    index: HilbertIndex,
    sector: SpinSector,
    shots: int,
    seed: int = 0,
    cmap: Optional[CMap] = None,
) -> LocalisationReport:
    """Covariance of (squared sector weight, bulk purity of the sector block)."""
    if cmap is None:
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
    if len(cmap.components) != 1:
        raise OracleError("the localisation probe expects a single-component map")
    f = cmap.components[0][1]
    rows, d_i = _out_sector_rows(cmap, sector)
    a_vals = np.empty(shots)
    b_vals = np.empty(shots)
    for s in range(shots):
        psi = haar_sample(index, "medium", seed, s)
        phi = f @ psi
        norm = float(np.vdot(phi, phi).real)
        block = phi[rows].reshape(d_i, -1)
        wsec = float(np.sum(np.abs(block) ** 2))
        a_vals[s] = (wsec / norm) ** 2
        gram = block @ block.conj().T
        b_vals[s] = float(np.einsum("ab,ba->", gram, gram).real) / max(wsec, 1e-300) ** 2
    cov = float(np.mean((a_vals - a_vals.mean()) * (b_vals - b_vals.mean())))
    spread = (a_vals - a_vals.mean()) * (b_vals - b_vals.mean()) - cov
    sigma = float(np.std(spread) / np.sqrt(shots))
    return LocalisationReport(
        covariance=cov,
        sigma=sigma,
        mean_weight=float(a_vals.mean()),
        mean_purity=float(b_vals.mean()),
        shots=shots,
    )
