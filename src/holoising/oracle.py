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

    T_U = Tr[(C (x) C) S_U (C^+ (x) C^+) S_R].

The components of a mixed bulk input are stacked as A = [sqrt(w_n) C_n],
built straight from the singlet support as its nonzero entries: support
label i is input column i of the output row of its labels, one entry per
component.  A map takes O(nnz) memory, not out_dim x dim x 16 B per
component, and frozen vertices are contracted on the entries.  An
output row sits in the (region x rest) cell of its compressed labels inside
and outside R, so for each U the entries form a sparse X_U with rows (region
cell, inputs of U) and columns (rest cell, component, other inputs); X_U X_U^+
is a partial trace onto R and U, and T_U = ||X_U^+ X_U||_F^2 (the Haar
average of random tensor networks, Hayden et al., arXiv:1601.01694).  Where
each column (row) of X_U holds one entry, X_U X_U^+ (X_U^+ X_U) is diagonal
and T_U sums squared grouped row (column) norms: for U = {} on every map
without frozen vertices, which has at most one nonzero per input column and
component, and for every pattern of a one-vertex pure map.  Other patterns
take one Gram of entry pairs (`_pair_gram`): the entries that share a row
(or, where that pairs fewer, a column) are paired, and each Gram cell sums
its pairs' products with `bincount`, in chunks of whole Gram rows of at
most PAIR_BLOCK pairs.  The fine grades restrict each replica to sector
columns, Tr(P_j P_k) = ||X_j^+ X_k||_F^2, the same pair Gram across the two
restrictions.  Row and column keys are ranked before any `bincount`
(`_ranked`): ranks are dense and keep the keys' order, so exact traces need
memory linear in the entries, whatever their key ranges, plus one chunk of
pairs (more only where one Gram row pairs more), and their bits depend on
the entries and the order of their keys, not on how the keys are spaced.

Monte Carlo multiplies each block of shots by A through a `ShotProduct`:
the map's entries sorted by their target and split by their rank within
it, so one block is a few gathers of Haar amplitudes written straight into
its layout.  The (keep x rest x components) grid of a region is
block-diagonal by spin sector: its occupied cells split into connected
blocks whose keep labels share no column, so each shot's Gram is block
diagonal.  `GridBlocks` lays a shot out on those blocks only, each a
dense sub-grid, the blocks of one shape side by side so that each shape
is one batched Gram per block of shots; memory and Gram work follow the
occupied blocks, not keep x rest.  A block of shots takes at most
SHOT_BLOCK shots and only as many as fit in GRID_BLOCK layout entries, at
least one, so its layout stays within 4 MB unless one shot's is larger.
GRID_LIMIT caps each such array, and the dense grid `reduced_density`
lays one state out on; exact traces never build either, so the limit does
not apply to them.  The pattern sum with unit weights reproduces the
Ising engine's unnormalized partition totals; normalized grades reweight
the same traces.

Haar streams.  A Haar vector is a normalized standard complex Gaussian.
The Gaussians of (vertex, block) for shot s come from chunk c = s //
HAAR_CHUNK of a Philox stream with key (seed, vertex << 32 | block) and
counter word 1 equal to c: one fill of 2 n HAAR_CHUNK normals per (chunk,
vertex, block), read as interleaved (re, im) pairs, row s % HAAR_CHUNK.
Rows therefore do not depend on how shots are batched, and the chunk size
is part of the stream's definition.  A batch is one array of its rows,
shots varying fastest, drawn one chunk at a time: the medium grade of a
one-vertex index holds that array and one chunk while it draws, and more
vertices add their row-wise Kronecker products.  Since a batch depends only
on (index, grade, seed, shot range, fine weights), the index holds the last
batch a Monte Carlo estimate drew on it, and the next estimate over the
same shots reads it instead of drawing it again.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.random import Generator, Philox

from .bulk import IntertwinerState
from .graph import OpenGraph, PortRef
from .ising import ModelKind
from .spins import SectorFamily, Spin, SpinSector, enumerate_sectors, intertwiner_dim

DEFAULT_DIM_CAP = 4096

# Monte Carlo shots are drawn in aligned chunks of this many rows; the
# chunk size is part of the definition of the Haar streams.
HAAR_CHUNK = 64

# Shots per Monte Carlo batch, for mc_purity and localisation_probe:
# estimates with one seed cut the same shot ranges, so they can share a
# batch held by the index.
MC_BATCH = 256

# Most shots per Monte Carlo product and layout block: a block's gathers
# and its layout stay small next to the batch.
SHOT_BLOCK = 64

# Most complex entries (4 MB) the layout of one Monte Carlo block holds,
# one shot's occupied grid blocks (`GridBlocks.size` cells) per shot: a
# block takes SHOT_BLOCK shots where their layouts fit in it, else as many
# as fit, at least one.
GRID_BLOCK = 1 << 18

# Most complex entries, 16 bytes each, one grid array may hold: a Monte
# Carlo layout (shots times the occupied blocks' cells), or the dense
# keep x rest grid `reduced_density` lays a state out on.
GRID_LIMIT = 1 << 24

# Most entry pairs one chunk of a pair Gram lists at once (about 100 bytes
# each while it is summed).
PAIR_BLOCK = 1 << 14


class OracleError(RuntimeError):
    """Raised when an oracle computation cannot be carried out honestly."""


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
        for spins in itertools.product(*map(sorted, options)):
            di = intertwiner_dim(spins)
            if di == 0:
                continue  # empty block: no invariant subspace
            blk = VertexBlock(port_spins=spins, intertwiner_dim=di, offset=offset)
            combos.append(blk)
            offset += blk.size
        self.blocks: Tuple[VertexBlock, ...] = tuple(combos)
        self.dim = offset
        self._block_of = {b.port_spins: i for i, b in enumerate(self.blocks)}

        # Decode tables over the local index: block id, magnetic digit per
        # port, and per-slot alphabet keys.
        nports = len(self.port_links)
        self.block_id = np.zeros(self.dim, dtype=np.int64)
        self.port_digit = [np.zeros(self.dim, dtype=np.int64) for _ in range(nports)]
        self.int_key = np.zeros(self.dim, dtype=np.int64)
        self.port_key = [np.zeros(self.dim, dtype=np.int64) for _ in range(nports)]

        # Per-port alphabet: all (spin, m) labels the port can carry.
        alphabets = [_alphabet(family.allowed[lid]) for lid in self.port_links]
        self.port_alpha_offset: List[Dict[int, int]] = [table for table, _ in alphabets]
        self.port_alpha_size: List[int] = [size for _, size in alphabets]
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
            self.int_key[sl] = int_base + a
            for p, dig in enumerate(digits):
                self.port_digit[p][sl] = dig
                off = self.port_alpha_offset[p][blk.port_spins[p].twice]
                self.port_key[p][sl] = off + dig
            int_base += blk.intertwiner_dim

    def block_index(self, spins: Sequence[Spin]) -> Optional[int]:
        return self._block_of.get(tuple(spins))


def _alphabet(spins: Sequence[Spin]) -> Tuple[Dict[int, int], int]:
    """Offset of each spin's labels in a port's (spin, m) alphabet, and its size."""
    offsets, size = {}, 0
    for s in spins:
        offsets[s.twice], size = size, size + s.dim
    return offsets, size


Slot = Tuple  # ("I", vertex) or ("L", vertex, port_position)


class HilbertIndex:
    """Deterministic basis enumeration of the truncated product space.

    Besides its basis caches (`_digits`, `_sectors`, `_sector_cols`) the
    index holds, in `_haar`, the most recent Monte Carlo Haar batch that
    `mc_purity` or `localisation_probe` drew on it, keyed by (grade, seed,
    shot range, normalized fine weights), so that a second estimate over the
    same shots reads it instead of drawing it again.  That is one batch of
    at most MC_BATCH x dim complex entries (16 B each: 2.4 MB at dim 600),
    held while the index lives.
    """

    def __init__(self, graph: OpenGraph, family: SectorFamily, cap: Optional[int] = None):
        self.graph = graph
        self.family = family
        self.spaces: Tuple[VertexSpace, ...] = tuple(
            VertexSpace(graph, family, x) for x in graph.vertices
        )
        dim = 1
        for space in self.spaces:
            dim *= space.dim
        limit = DEFAULT_DIM_CAP if cap is None else int(cap)
        if dim > limit:
            raise OracleError(
                f"total dimension {dim} exceeds the cap of {limit}; tighten the "
                f"spin lists or pass a larger cap"
            )
        self.dim = dim
        self.vstrides: Tuple[int, ...] = tuple(
            int(np.prod([s.dim for s in self.spaces[i + 1 :]], dtype=np.int64))
            for i in range(len(self.spaces))
        )
        self._digits: Optional[List[np.ndarray]] = None
        self._sectors: Optional[Tuple[SpinSector, ...]] = None
        self._sector_cols: Dict[Tuple, np.ndarray] = {}
        self._haar: Optional[Tuple[Tuple, np.ndarray]] = None

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
    offsets, acc = _alphabet(allowed)
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
# Region grids: output rows laid out by their labels inside and outside R
# ---------------------------------------------------------------------------


class RegionGrid:
    """The rows of an output space on a dense (region x rest) grid.

    Row r sits in cell (rid[r], bid[r]), its compressed labels inside and
    outside the swap region R.  Distinct rows have distinct cells, so an
    array over the rows becomes a (keep_dim, rest_dim) array that is zero
    where no row lands, and a partial trace onto R is one matrix product.
    Only `lay_out` (for `reduced_density`) allocates the dense grid, which
    GRID_LIMIT caps; Monte Carlo lays shots out on its occupied blocks
    (`GridBlocks`), and exact traces read the entries.
    """

    def __init__(self, keys_r: List[np.ndarray], keys_rest: List[np.ndarray], dim: int):
        self.rid = _compress_rows(keys_r, dim)
        self.bid = _compress_rows(keys_rest, dim)
        self.keep_dim = int(self.rid.max()) + 1 if dim else 0
        self.rest_dim = int(self.bid.max()) + 1 if dim else 0
        self.cell = self.rid * self.rest_dim + self.bid

    def lay_out(self, values: np.ndarray) -> np.ndarray:
        """Scatter `values`, one per row, onto the (keep_dim, rest_dim) grid."""
        what = f"laying rows out on the {self.keep_dim} x {self.rest_dim} (region x rest) grid"
        out = _limited_zeros((self.keep_dim * self.rest_dim,), what)
        out[self.cell] = values
        return out.reshape(self.keep_dim, self.rest_dim)


def _limited_zeros(shape: Tuple[int, ...], what: str, hint: str = "") -> np.ndarray:
    """A complex zero array of `shape`, refused above GRID_LIMIT entries
    with an error that says `what` the array is for, then `hint`."""
    entries = math.prod(shape)
    if entries > GRID_LIMIT:
        raise OracleError(
            f"{what} needs an array of {' x '.join(map(str, shape))} = {entries} "
            f"entries, above GRID_LIMIT = {GRID_LIMIT}; raise "
            f"holoising.oracle.GRID_LIMIT (16 bytes per entry) or tighten the "
            f"spin lists{hint}"
        )
    return np.zeros(shape, dtype=complex)


def _compress_rows(key_arrays: List[np.ndarray], dim: int) -> np.ndarray:
    """Rank of each row's label tuple (one key per slot) among the distinct
    tuples in lexicographic order, as np.unique(axis=0) numbers them: one
    lexsort of the rows, then a running count of the places where some key
    changes between neighbours."""
    code = np.zeros(dim, dtype=np.int64)
    if not key_arrays:
        return code
    order = np.lexsort(key_arrays[::-1])
    changed = np.zeros(dim, dtype=bool)
    for keys in key_arrays:
        ranked = keys[order]
        changed[1:] |= ranked[1:] != ranked[:-1]
    code[order] = np.cumsum(changed)
    return code


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

    A pure bulk input has a single component, a mixed one carries its
    eigendecomposition: `weights` holds the eigenvalues w_n, and `entries`
    the nonzero entries of A = [sqrt(w_n) C_n] as arrays (output row, input
    column, component, value), ordered by component and then row-major, as
    np.nonzero lists them.  Memory is O(nnz); no dense out_dim x in_dim
    component is kept.  Input columns are row-major over `col_dims`, one
    axis per vertex of `in_vertices`.  Exact traces read the entries
    directly, in memory linear in them; Monte Carlo applies A to blocks of
    shots through a `ShotProduct`, one per swap region (`grid_product`,
    onto the occupied blocks of that region's grid) plus one onto the
    stacked output rows (`row_product`), each built on first use and kept
    with the map.
    """

    def __init__(
        self,
        index: HilbertIndex,
        kind: ModelKind,
        weights: Sequence[float],
        entries: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        out_dim: int,
        out_slots: Tuple[Slot, ...],
        out_keys: Mapping[Slot, Tuple[np.ndarray, int]],
        in_vertices: Tuple[str, ...],
        col_dims: Tuple[int, ...],
    ):
        self.index = index
        self.kind = kind
        self.weights = tuple(float(w) for w in weights)
        self.entries = entries
        self.out_slots = out_slots
        self.out_keys = dict(out_keys)
        self.in_vertices = in_vertices
        self.col_dims = col_dims
        self.out_dim = out_dim
        self.in_dim = math.prod(col_dims)
        self._grid_cache: Dict[Tuple[Slot, ...], RegionGrid] = {}
        self._product_cache: Dict[Tuple[Slot, ...], GridBlocks] = {}

    def pair_basis(self, region: Tuple[Slot, ...]) -> RegionGrid:
        """The (region x rest) grid of the output rows for swap region R."""
        key = tuple(sorted(region))
        if key not in self._grid_cache:
            missing = [s for s in key if s not in self.out_slots]
            if missing:
                raise OracleError(f"swap region names absent slots: {missing}")
            keys_r = [self.out_keys[s][0] for s in key]
            keys_rest = [
                self.out_keys[s][0] for s in self.out_slots if s not in set(key)
            ]
            self._grid_cache[key] = RegionGrid(keys_r, keys_rest, self.out_dim)
        return self._grid_cache[key]

    def grid_product(self, region: Tuple[Slot, ...]) -> GridBlocks:
        """A onto the occupied blocks of the grid of swap region R, the
        components along the rest axis: a block of shots becomes (shots,
        `size`), each shape's blocks one dense run (see GridBlocks)."""
        key = tuple(sorted(region))
        if key not in self._product_cache:
            self._product_cache[key] = GridBlocks(self.entries, self.pair_basis(key), len(self.weights))
        return self._product_cache[key]

    @functools.cached_property
    def row_product(self) -> ShotProduct:
        """A onto its stacked output rows: target r * n + m is row r of C_m."""
        row, _, comp, _ = self.entries
        n = len(self.weights)
        return ShotProduct(self.entries, row * n + comp)


class ShotProduct:
    """A map's entries routed onto dense targets, for blocks of shots.

    The targets are the stacked output rows (`CMap.row_product`) or the
    positions of a region grid's block layout (`GridBlocks`, which builds
    on this class).  Entries are sorted by target, the targets by how many
    entries they hold (most first), and the entries split by their rank
    within their target: rank k holds one entry of each of the first
    `len(cols[k])` targets, in that order, and within a target the ranks
    follow the input columns in ascending order.  A block (shots, in_dim)
    is then one gather per rank, accumulated into a (shots, targets) array,
    and one scatter onto the target axis of `out`.  Memory is O(nnz).  One
    gather of every entry and one `np.add.reduceat` over the targets does
    the same with less code, but on the 268 maps of an oracle-xcheck run
    (seed 5, at most 4 ranks) it took 193-205 us per 64-shot block against
    94-109 us here.
    """

    def __init__(self, entries, target: np.ndarray):
        _, col, _, value = entries
        order = np.argsort(target, kind="stable")  # columns ascend in a target
        target, col, value = target[order], col[order], value[order]
        first = np.flatnonzero(np.diff(target, prepend=-1))
        counts = np.diff(first, append=target.size)
        rank = np.arange(target.size) - np.repeat(first, counts)
        by_count = np.argsort(-counts, kind="stable")
        place = np.empty_like(by_count)
        place[by_count] = np.arange(by_count.size)
        place = np.repeat(place, counts)  # each entry's target position
        self.cells = target[first[by_count]]
        at = np.lexsort((place, rank))
        bounds = np.cumsum(np.bincount(rank))[:-1]
        self.cols: List[np.ndarray] = np.split(col[at], bounds)
        self.values: List[np.ndarray] = np.split(value[at], bounds)

    def __call__(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write (A psi[s])[t] into out[s, t] for every shot s and covered
        target t, and return `out`.  Targets no entry reaches keep what
        `out` held: pass zeros (once; later blocks overwrite the same
        cells)."""
        acc = psi[:, self.cols[0]] * self.values[0]
        for cols, values in zip(self.cols[1:], self.values[1:]):
            acc[:, : cols.size] += psi[:, cols] * values
        out[:, self.cells] = acc
        return out


class GridBlocks(ShotProduct):
    """A onto the occupied blocks of a region grid, the layout on which
    Monte Carlo takes each shot's Gram.

    Entry (row, m) occupies cell (rid[row], bid[row] * n + m) of the
    (keep_dim, rest_dim * n) grid, the components along the rest axis.  The
    occupied cells split into connected blocks, a keep label and a width
    column joined where their cell is occupied, so keep labels of
    different blocks share no column: a shot's Gram G = X X^+ is block
    diagonal, ||G||_F^2 sums ||X_b X_b^+||_F^2 over the blocks and Tr G
    their traces.  Each block is laid out as a dense k x w sub-grid of its
    keep labels and width columns, both ascending, zero where no entry
    lands; blocks of one shape are adjacent, shapes ordered by (k, w) and
    the blocks of a shape by their least keep label.  `runs` lists
    (start, count, k, w) per shape and `size` the cells of one shot, so
    memory follows the occupied blocks, not keep_dim x rest_dim.  A grid
    whose occupied cells form one block keeps the dense order, less any
    label or column no entry reaches.
    """

    def __init__(self, entries, grid: RegionGrid, n: int):
        row, _, comp, _ = entries
        self.grid, self.n = grid, n
        # Nodes: the keep labels, then the width columns, that hold an entry.
        edge_k = grid.rid[row]
        edge_w = grid.keep_dim + grid.bid[row] * n + comp
        used = np.zeros(grid.keep_dim + grid.rest_dim * n, dtype=bool)
        used[edge_k] = used[edge_w] = True
        node = np.cumsum(used) - 1
        knode, wnode = node[edge_k], node[edge_w]
        label = _components(knode, wnode, int(np.count_nonzero(used)))
        # Blocks numbered by their least node, a keep label.
        block = (np.cumsum(label == np.arange(label.size)) - 1)[label]
        nk = int(np.count_nonzero(used[: grid.keep_dim]))
        k_of = np.bincount(block[:nk])
        w_of = np.bincount(block[nk:], minlength=k_of.size)
        # Each node's rank in its block: keep labels first, both ascending.
        by_block = np.argsort(block, kind="stable")
        counts = k_of + w_of
        rank = np.empty_like(by_block)
        rank[by_block] = np.arange(by_block.size) - np.repeat(np.cumsum(counts) - counts, counts)
        # Blocks by shape, then by number; each shape's blocks one run.
        shapes = list(zip(k_of.tolist(), w_of.tolist()))
        start = np.empty(len(shapes), dtype=np.int64)
        runs: List[List[int]] = []
        at = 0
        for i in sorted(range(len(shapes)), key=shapes.__getitem__):
            k, w = shapes[i]
            if runs and runs[-1][2:] == [k, w]:
                runs[-1][1] += 1
            else:
                runs.append([at, 1, k, w])
            start[i] = at
            at += k * w
        self.size = at
        self.runs: List[Tuple[int, int, int, int]] = [tuple(r) for r in runs]
        b = block[knode]
        super().__init__(entries, start[b] + rank[knode] * w_of[b] + rank[wnode] - k_of[b])

    def zeros(self, shots: int) -> np.ndarray:
        """A complex zero layout for `shots` shots, refused above GRID_LIMIT
        entries."""
        grid = self.grid
        return _limited_zeros(
            (shots, self.size),
            f"laying {shots} shots out on the occupied blocks of the {grid.keep_dim} x "
            f"{grid.rest_dim * self.n} (region x rest) grid ({sum(c for _, c, _, _ in self.runs)} "
            f"blocks, {self.size} cells a shot)",
            f".  Monte Carlo lays out one block of shots at a time: at most SHOT_BLOCK = "
            f"{SHOT_BLOCK}, and only as many as fit in GRID_BLOCK = {GRID_BLOCK} layout "
            f"entries, at least one",
        )


def _components(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """The least node of the connected component of each of `size` nodes,
    for the graph with edges (a[i], b[i]): every root hooks onto the least
    root across its edges, and labels jump to their roots, until no edge
    joins two roots."""
    label = np.arange(size)
    while True:
        la, lb = label[a], label[b]
        low = np.minimum(la, lb)
        hooked = label.copy()
        np.minimum.at(hooked, la, low)
        np.minimum.at(hooked, lb, low)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            return label
        label = hooked


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
    """Build the averaged map for either model kind, as its nonzero entries.

    Internal links are contracted against their weighted singlet bras, so
    the output space carries only intertwiner and boundary-port labels (the
    bulk-to-boundary kind) or boundary-port labels alone (the
    boundary-to-boundary kind, which also contracts the bulk input state).
    Coherences between sectors that share boundary data survive this way,
    exactly as in the projected states.  The bulk-to-boundary map reads no
    state and refuses one.
    """
    if kind.is_boundary_to_boundary and state is None:
        raise OracleError("the boundary-to-boundary map needs a bulk input state")
    if not kind.is_boundary_to_boundary and state is not None:
        raise OracleError("the bulk-to-boundary map reads no bulk state; pass state=None")
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

    # Support label sup[i] is input column sup[i] of output row inverse[i];
    # these (row, column) pairs are distinct, one per support label.  sup
    # ascends, so a stable sort by row lists them row-major.
    order = np.argsort(inverse, kind="stable")
    row, col = inverse[order], sup[order]
    if kind.is_boundary_to_boundary:
        weights, vectors = _bulk_eigenstates(index, state)
        bulk_keys, _ = index.bulk_key()
        # 0j + turns -0.0 parts into +0.0, as a sum into a zero matrix
        # would, so that the entries equal the dense reference's bit for bit.
        values = [0j + vec.conj()[bulk_keys[col]] * amp[col] for vec in vectors]
    else:
        weights, values = [1.0], [amp[col]]
    parts = []
    for n, (w, value) in enumerate(zip(weights, values)):
        keep = np.flatnonzero(value)  # zero-|g| spins and zero eigenvector entries
        parts.append((row[keep], col[keep], np.full(keep.size, n), np.sqrt(w) * value[keep]))
    entries = tuple(np.concatenate(arrays) for arrays in zip(*parts))

    out_keys: Dict[Slot, Tuple[np.ndarray, int]] = {}
    for slot, keys in zip(out_slots, key_arrays):
        arr = np.zeros(out_dim, dtype=np.int64)
        arr[inverse] = keys
        out_keys[slot] = (arr, index.slot_key(slot)[1])

    cmap = CMap(
        index,
        kind,
        weights,
        entries,
        out_dim,
        out_slots,
        out_keys,
        in_vertices=graph.vertices,
        col_dims=index.vertex_dims,
    )
    if fixed is not None:
        cmap = _freeze_vertices(cmap, fixed)
    return cmap


def _check_map(index: HilbertIndex, cmap: CMap) -> None:
    """Refuse a map that was not built on `index`."""
    if cmap.index is not index:
        raise OracleError(
            f"the map was built on another index (dimension {cmap.index.dim}, this one "
            f"{index.dim}); build the map on this index with build_cmap(index, ...)"
        )


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
    """Contract the frozen vertices' input digits against their joint state,
    entry by entry: each entry is multiplied by the state's amplitude at its
    frozen digits and summed into its (component, row, remaining column)."""
    graph = cmap.index.graph
    order = [graph.vertices.index(x) for x in fixed.vertices]
    if len(set(order)) != len(order):
        raise OracleError("frozen vertices must be distinct")
    dims = tuple(cmap.col_dims[i] for i in order)
    core = np.asarray(fixed.amplitudes, dtype=complex).reshape(dims)
    remaining = tuple(
        x for x in cmap.in_vertices if x not in set(fixed.vertices)
    )
    col_dims = tuple(
        d for i, d in enumerate(cmap.col_dims) if i not in set(order)
    )
    row, col, comp, value = cmap.entries
    digits = np.unravel_index(col, cmap.col_dims)
    rest = np.zeros_like(col)  # the remaining digits, row-major over col_dims
    for i, d in enumerate(cmap.col_dims):
        if i not in order:
            rest = rest * d + digits[i]
    width = math.prod(col_dims)
    key = (comp * cmap.out_dim + row) * width + rest
    keys, slot = np.unique(key, return_inverse=True)
    summed = np.zeros(keys.size, dtype=complex)
    np.add.at(summed, slot, value * core[tuple(digits[i] for i in order)])
    keep = np.flatnonzero(summed)
    keys = keys[keep]
    entries = (keys // width % cmap.out_dim, keys % width, keys // (width * cmap.out_dim), summed[keep])
    return CMap(
        cmap.index,
        cmap.kind,
        cmap.weights,
        entries,
        cmap.out_dim,
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


def _pattern_matrix(cmap: CMap, grid: RegionGrid, colsel, subset: Tuple[int, ...]):
    """X_U as (rows, columns, values) of its entries.  `colsel` keeps, per
    averaged vertex, the listed input columns only; an input's index at a
    vertex becomes its position in that list."""
    row, col, comp, value = cmap.entries
    dims = cmap.col_dims
    digits = list(np.unravel_index(col, dims)) if dims else []
    if colsel is not None:
        for i, cols in enumerate(colsel):
            position = np.full(dims[i], -1)
            position[cols] = np.arange(len(cols))
            digits[i] = position[digits[i]]
        keep = np.all([d >= 0 for d in digits], axis=0)
        row, comp, value = row[keep], comp[keep], value[keep]
        digits = [d[keep] for d in digits]
        dims = tuple(len(cols) for cols in colsel)
    x_row, x_col = grid.rid[row], grid.bid[row] * len(cmap.weights) + comp
    for i, (digit, dim) in enumerate(zip(digits, dims)):
        if i in subset:
            x_row = x_row * dim + digit
        else:
            x_col = x_col * dim + digit
    return x_row, x_col, value


def _ranked(keys: np.ndarray) -> np.ndarray:
    """Each key's rank among the distinct keys: dense, in the keys' order, so
    a `bincount` over them has no empty bin whatever the keys' spacing."""
    return np.unique(keys, return_inverse=True)[1]


def _pattern_trace(x1, x2) -> float:
    """Tr(X1 X1^+ X2 X2^+) = ||X1^+ X2||_F^2.  For x2 is x1: grouped squared
    moduli where X X^+ (one entry per column) or X^+ X (one entry per row)
    is diagonal, else the pair Gram on the side whose product pairs fewer
    entries (X^+ X pairs the entries of a row, X X^+ those of a column).
    Row and column keys are ranked first.  Ranks are dense and keep the
    keys' order, so every grouped sum, their dot and every pair Gram add
    the same values in the same order however the keys are spaced: the
    trace's bits are a function of the entries and the keys' order."""
    row, col, value = x1
    if x2 is x1:
        row, col = _ranked(row), _ranked(col)
        w = value.real**2 + value.imag**2
        counts = [np.bincount(keys) for keys in (col, row)]
        for group, lines in zip((row, col), counts):
            if not (lines > 1).any():
                d = np.bincount(group, w)
                return float(d @ d)
        if counts[1] @ counts[1] > counts[0] @ counts[0]:
            row, col = col, row
        return _pair_gram(row, col, value, row, col, value)
    row2, col2, value2 = x2
    # One ranking of both replicas' rows keeps which entries share a row.
    rows = _ranked(np.concatenate((row, row2)))
    return _pair_gram(rows[: row.size], col, value, rows[row.size :], _ranked(col2), value2)


def _pair_gram(shared1, other1, value1, shared2, other2, value2) -> float:
    """||G||_F^2 for G[a, b] = sum of conj(value1[i]) value2[j] over the
    entry pairs with shared1[i] == shared2[j], other1[i] == a and
    other2[j] == b.  The shared keys and other2 size its arrays, so callers
    rank them (`_ranked`).  Each entry of the first set meets the run of
    second entries with its shared index, so its pairs are listed with
    `repeat`.
    The first set is taken in order of a, in chunks of whole rows of G that
    list at most PAIR_BLOCK pairs (a row with more is a chunk of its own):
    chunks fill disjoint rows of G, so ||G||_F^2 is the sum over chunks.  In
    a chunk, np.unique numbers the pairs' cells (the rank of a among the
    rows, then b) and each cell sums its products with one `bincount` per
    real part, in the order of the first set."""
    order = np.argsort(shared2, kind="stable")
    counts = np.bincount(shared2, minlength=int(shared1.max(initial=-1)) + 1)
    starts = np.cumsum(counts) - counts
    by_row = np.argsort(other1, kind="stable")
    shared1, other1, value1 = shared1[by_row], other1[by_row], value1[by_row]
    reach = counts[shared1]
    # Rows of G begin at `heads`, after `before` pairs; a is ranked by row.
    new_row = np.diff(other1, prepend=-1) != 0
    rank = (np.cumsum(new_row) - 1) * (int(other2.max(initial=-1)) + 1)
    heads = np.append(np.flatnonzero(new_row), other1.size)
    before = np.append(0, np.cumsum(reach))[heads]
    total = 0.0
    h = 0
    while h + 1 < heads.size:
        # The most whole rows from row h whose pairs fit in PAIR_BLOCK, or row h.
        end = max(h + 1, int(np.searchsorted(before, before[h] + PAIR_BLOCK, "right")) - 1)
        lo, hi = heads[h], heads[end]
        r = reach[lo:hi]
        offsets = np.cumsum(r) - r
        left = np.repeat(np.arange(lo, hi), r)
        right = order[np.arange(left.size) + np.repeat(starts[shared1[lo:hi]] - offsets, r)]
        product = value1[left].conj() * value2[right]
        cell = np.unique(rank[left] + other2[right], return_inverse=True)[1]
        re = np.bincount(cell, product.real)
        im = np.bincount(cell, product.imag)
        total += float(re @ re + im @ im)
        h = end
    return total


def _component_pattern_sum(
    cmap: CMap,
    grid: RegionGrid,
    subsets: Sequence[Tuple[int, ...]],
    colsel1: Optional[List[np.ndarray]] = None,
    colsel2: Optional[List[np.ndarray]] = None,
) -> float:
    """Sum over the subsets U of T_U, the first replica restricted to the
    input columns colsel1 and the second to colsel2 (None keeps all)."""
    total = 0.0
    for subset in subsets:
        x1 = _pattern_matrix(cmap, grid, colsel1, subset)
        x2 = x1 if colsel2 is colsel1 else _pattern_matrix(cmap, grid, colsel2, subset)
        total += _pattern_trace(x1, x2)
    return total


def _all_subsets(n: int) -> List[Tuple[int, ...]]:
    out = []
    for mask in range(1 << n):
        out.append(tuple(i for i in range(n) if mask & (1 << i)))
    return out


def exact_replica_average(
    index: HilbertIndex,
    region,
    *,
    cmap: CMap,
    grade: str = "medium",
    weights: Optional[Mapping] = None,
) -> float:
    """Exact replica trace of `cmap` summed over swap patterns of the requested grade.

    medium and coarse grades return the unnormalized pattern sum (the same
    convention as the Ising partition totals); the fine grades include their
    sector weights (`weights`, uniform when None; the other grades refuse
    them) and dimension normalizations.  `region` is the replica
    swap: () for the denominator, "bulk" for the intertwiner slots, or an
    iterable of boundary link ids / slot tokens.  `cmap`, built on `index`,
    fixes the model kind, bulk state and frozen vertices (`build_cmap`).
    """
    _check_weights(grade, weights)
    _check_map(index, cmap)
    slots = resolve_region(index, region)
    grid = cmap.pair_basis(slots)
    nvert = len(cmap.in_vertices)

    if grade == "medium":
        return _component_pattern_sum(cmap, grid, _all_subsets(nvert))
    if grade == "coarse":
        return _component_pattern_sum(cmap, grid, [(), tuple(range(nvert))])
    if grade in ("fine", "fine-high"):
        return _fine_pattern_sum(cmap, grid, weights, grade)
    raise OracleError(f"unknown averaging grade {grade!r}")


def _check_weights(grade: str, weights: Optional[Mapping]) -> None:
    """Refuse sector weights at a grade that reads none."""
    if weights is not None and grade in ("medium", "coarse"):
        raise OracleError(
            f"grade {grade!r} reads no sector weights; weights apply to the "
            f"fine grades only, pass weights=None"
        )


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


def _fine_pattern_sum(cmap: CMap, grid: RegionGrid, weights, grade: str) -> float:
    index = cmap.index
    if cmap.in_vertices != index.graph.vertices:
        raise OracleError("fine averaging requires all vertices to be averaged")
    p = _fine_weights(index, weights)
    sectors = [s for s in index.family_sectors() if p.get(s.key(), 0.0) > 0.0]
    w = [p[s.key()] for s in sectors]
    ranges = [index.sector_local_ranges(s) for s in sectors]
    size = [math.prod(r.size for r in rng) for rng in ranges]
    total = 0.0
    t_id = {}
    # Identity part: every ordered sector pair, no swap anywhere.
    for a, b in itertools.product(range(len(sectors)), repeat=2):
        t = t_id[a, b] = _component_pattern_sum(cmap, grid, [()], ranges[a], ranges[b])
        total += w[a] * w[b] * t / (size[a] * size[b])
    # Diagonal correction: the full per-vertex average inside each sector.
    subsets = _all_subsets(len(index.graph.vertices))
    for a, rng in enumerate(ranges):
        t_all = _component_pattern_sum(cmap, grid, subsets, rng, rng)
        if grade == "fine":
            norm = math.prod(r.size * (r.size + 1.0) for r in rng)
            total += w[a] ** 2 * (t_all / norm - t_id[a, a] / (size[a] * size[a]))
        else:  # fine-high: both corrections carry the squared sector dimension
            total += w[a] ** 2 * (t_all - t_id[a, a]) / (size[a] * size[a])
    return total


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


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def _unit_gaussians(
    seed: int, shots: range, vertex: int, block: int, n: int
) -> np.ndarray:
    """Normalized standard complex Gaussian vectors, one row per shot.

    Shots come in aligned chunks of HAAR_CHUNK.  Chunk c of (vertex, block)
    is the stream of a fresh Philox(key=(seed, vertex << 32 | block),
    counter=(0, c, 0, 0)): its first 2 n HAAR_CHUNK standard normals, read
    as interleaved (re, im) pairs, fill the chunk's rows in shot order.  A
    row thus depends only on (seed, shot, vertex, block), however the shots
    are batched; resetting one generator's state per chunk gives the fresh
    stream.  Each row's re and im parts are divided by the square root of
    its einsum sum of squares.  Chunks are drawn into one HAAR_CHUNK-row
    buffer and their rows written into one F-contiguous array (shots vary
    fastest), the layout a `ShotProduct` gathers from: the rows plus one
    chunk of memory.
    """
    out = np.empty((n, len(shots)), dtype=complex)
    chunk = np.empty((HAAR_CHUNK, n), dtype=complex)
    draws = chunk.view(np.float64)
    # A seed, unlike key=..., draws no OS entropy; the key is replaced below.
    bitgen = Philox(0)
    gen = Generator(bitgen)
    state = bitgen.state  # fresh: counter zero, buffer empty
    state["state"]["key"][:] = (seed, (vertex << 32) | block)
    for c in range(shots.start // HAAR_CHUNK, -(-shots.stop // HAAR_CHUNK)):
        state["state"]["counter"][1] = c
        bitgen.state = state
        gen.standard_normal(out=draws)
        first = c * HAAR_CHUNK
        lo, hi = max(shots.start, first), min(shots.stop, first + HAAR_CHUNK)
        flat = draws[lo - first : hi - first]
        flat /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
        out[:, lo - shots.start : hi - shots.start] = chunk[lo - first : hi - first].T
    return out.T


def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product: row s is kron(a[s], b[s]).  The result
    is F-contiguous (shots vary fastest), so each input column a
    `ShotProduct` gathers for a block of shots is one contiguous run."""
    out = np.empty((a.shape[1], b.shape[1], a.shape[0]), dtype=complex)
    np.multiply(a.T[:, None, :], b.T[None, :, :], out=out)
    return out.reshape(-1, a.shape[0]).T


def _vertex_product(seed: int, shots: range, block: int, dims: Sequence[int]) -> np.ndarray:
    """Row-wise Kronecker product over the vertices of their unit Gaussians
    of `block`, one factor of dims[v] columns per vertex v, F-contiguous.
    The first vertex's draw is taken as is: with a row of ones before it,
    the first product would be 1.0 x, which equals x bit for bit."""
    rows = None
    for vi, n in enumerate(dims):
        draw = _unit_gaussians(seed, shots, vi, block, n)
        rows = draw if rows is None else _outer_rows(rows, draw)
    return np.ones((len(shots), 1), dtype=complex) if rows is None else rows


def _haar_rows(
    index: HilbertIndex,
    grade: str,
    seed: int,
    shots: range,
    weights: Optional[Mapping] = None,
) -> np.ndarray:
    """haar_sample for every shot in `shots`, one row per shot, bit for bit,
    F-contiguous.  The medium grade of a one-vertex index is that vertex's
    draw itself, so the batch is the one array `_unit_gaussians` fills."""
    if grade == "medium":
        return _vertex_product(seed, shots, 0, index.vertex_dims)
    if grade == "coarse":
        return _unit_gaussians(seed, shots, 0, 1, index.dim)
    if grade == "fine":
        p = _fine_weights(index, weights)
        rows = np.zeros((index.dim, len(shots)), dtype=complex).T
        for si, sec in enumerate(index.family_sectors()):
            w = p.get(sec.key(), 0.0)
            if w == 0.0:
                continue
            dims = [rng.size for rng in index.sector_local_ranges(sec)]
            rows[:, index.sector_columns(sec)] += np.sqrt(w) * _vertex_product(seed, shots, 2 + si, dims)
        return rows
    raise OracleError(f"unknown averaging grade {grade!r}")


def _held_haar_rows(
    index: HilbertIndex,
    grade: str,
    seed: int,
    shots: range,
    weights: Optional[Mapping] = None,
) -> np.ndarray:
    """_haar_rows through the index's one-batch slot, read-only.

    A call with the grade, seed, shot range and normalized fine weights of
    the batch the index holds returns that batch; any other call replaces
    it with a new draw.
    """
    fine = None
    if grade == "fine":
        p = _fine_weights(index, weights)
        fine = tuple(p.get(sec.key(), 0.0) for sec in index.family_sectors())
    key = (grade, seed, shots, fine)
    if index._haar is None or index._haar[0] != key:
        index._haar = None  # freed before the new batch is allocated
        rows = _haar_rows(index, grade, seed, shots, weights)
        rows.flags.writeable = False
        index._haar = (key, rows)
    return index._haar[1]


def _check_at_least(name: str, value: int, low: int, why: str = "") -> None:
    if value < low:
        raise OracleError(f"{name}={value!r} is out of range: {name} must be at least {low}{why}")


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 1 << 64:
        raise OracleError(
            f"seed={seed!r} is out of range: 0 <= seed < 2**64 (a Philox key word)"
        )


def haar_sample(
    index: HilbertIndex,
    grade: str = "medium",
    seed: int = 0,
    shot: int = 0,
    weights: Optional[Mapping] = None,
) -> np.ndarray:
    """One random global state of the requested averaging grade.

    Haar vectors are realized as normalized standard complex Gaussians from
    Philox streams keyed by (seed, vertex << 32 | block), with the shot's
    chunk shot // HAAR_CHUNK in counter word 1, so results are identical no
    matter how the shots are scheduled or batched.  One sample still draws
    the whole HAAR_CHUNK-row chunk of every (vertex, block) it uses; batch
    shots through `_haar_rows` where many are needed.  Every call draws
    afresh and returns a writable array of its own: it neither reads nor
    replaces the batch that `mc_purity` and `localisation_probe` share
    through the index.  shot >= 0 and 0 <= seed < 2**64; `weights` is
    read by the fine grade only.
    """
    _check_at_least("shot", shot, 0)
    _check_seed(seed)
    _check_weights(grade, weights)
    return _haar_rows(index, grade, seed, range(shot, shot + 1), weights)[0]


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
    grid = _reduction_grid(source, subsystem)
    phi = grid.lay_out(np.asarray(phi, dtype=complex).reshape(-1))
    return phi @ phi.conj().T


def _reduction_grid(source, subsystem) -> RegionGrid:
    if isinstance(source, CMap):
        return source.pair_basis(resolve_region(source.index, subsystem))
    index = source
    slots = resolve_region(index, subsystem)
    key_r = [index.slot_key(s)[0] for s in slots]
    rest = [index.slot_key(s)[0] for s in index.slots() if s not in set(slots)]
    return RegionGrid(key_r, rest, index.dim)


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


def _row_sq_norms(x: np.ndarray) -> np.ndarray:
    """Sum of |x|^2 over all but the first axis."""
    flat = np.ascontiguousarray(x).reshape(x.shape[0], -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _shot_blocks(index, grade, seed, shots, block, weights=None):
    """(first shot, Haar rows) for blocks of at most `block` shots that tile
    [0, shots), read from batches of MC_BATCH shots drawn through the batch
    the index holds."""
    for done in range(0, shots, MC_BATCH):
        psi = _held_haar_rows(index, grade, seed, range(done, min(done + MC_BATCH, shots)), weights)
        for lo in range(0, psi.shape[0], block):
            yield done + lo, psi[lo : lo + block]


def mc_purity(
    index: HilbertIndex,
    region,
    *,
    cmap: CMap,
    shots: int = 10_000,
    seed: int = 0,
    grade: str = "medium",
    weights: Optional[Mapping] = None,
) -> MCEstimate:
    """Monte Carlo estimate of the averaged purity of `cmap` over random vertex states.

    Shots are drawn in the ranges [0, MC_BATCH), [MC_BATCH, 2 MC_BATCH),
    ... through the batch the index holds (see HilbertIndex).  An estimate
    whose shots fit in one batch reads the draw of the estimate made just
    before it on the same index, when that one also fit in one batch and
    had the same grade, seed, shot count and fine weights: a second
    `mc_purity` under the other model kind, state or region, or a
    medium-grade estimate before or after a `localisation_probe`.  A longer
    estimate draws every batch.  Either way the estimate keeps every
    bit.  Each batch is applied in blocks of at most SHOT_BLOCK shots, and
    of only as many as fit in GRID_BLOCK layout entries (at least one): the
    map's `grid_product` writes a block straight onto the occupied blocks
    of the region grid (`GridBlocks`), and each shot's purity and trace
    sum over those blocks, each shape's blocks one batched Gram on its
    smaller side.  Memory is the held batch plus one block's layout, which
    no shot's value depends on.  shots >= 2 (a one-shot error bar is
    undefined) and 0 <= seed < 2**64; `weights` is read by the fine grade
    only.
    """
    _check_at_least("shots", shots, 2, " (a one-shot error bar is undefined)")
    _check_seed(seed)
    _check_weights(grade, weights)
    _check_map(index, cmap)
    if cmap.in_vertices != index.graph.vertices:
        raise OracleError("Monte Carlo sampling requires all vertices averaged")
    product = cmap.grid_product(resolve_region(index, region))
    block = min(SHOT_BLOCK, MC_BATCH, shots, max(1, GRID_BLOCK // max(product.size, 1)))
    # One layout array for every block: a block rewrites the same cells.
    layout = product.zeros(block)
    z1 = np.zeros(shots)
    trace = np.zeros(shots)
    for start, psi in _shot_blocks(index, grade, seed, shots, block, weights):
        n = psi.shape[0]
        laid = product(psi, layout[:n])
        # Tr(rho_R^2) = ||G||_F^2 and Tr(rho) = Tr(G), summed over the grid
        # blocks, for the smaller Gram G of each block of each shot.
        for at, count, k, w in product.runs:
            x = laid[:, at : at + count * k * w].reshape(n, count, k, w)
            if k <= w:
                gram = x @ x.conj().transpose(0, 1, 3, 2)
            else:
                gram = x.conj().transpose(0, 1, 3, 2) @ x
            z1[start : start + n] += _row_sq_norms(gram)
            trace[start : start + n] += np.einsum("scii->s", gram).real
    z0 = trace**2
    m1 = float(np.mean(z1))
    m0 = float(np.mean(z0))
    ratio = m1 / m0
    # Delta method: the variance of z1 - ratio z0, taken directly.  Expanding
    # it into var(z1), cov(z1, z0) and var(z0) cancels catastrophically
    # where every shot has the same ratio.
    var = float(np.var(z1 - ratio * z0)) / (shots * m0 * m0)
    return MCEstimate(
        value=ratio,
        sigma=float(np.sqrt(var)),
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
    *,
    cmap: CMap,
) -> LocalisationReport:
    """Covariance of (squared sector weight, bulk purity of the sector block) under `cmap`.

    Medium-grade shots are drawn in batches of MC_BATCH through the batch
    the index holds, as `mc_purity` draws them: with shots <= MC_BATCH, a
    probe made right after a medium-grade `mc_purity` or another probe on
    the same index, with the same seed and shot count, reads that draw.
    shots >= 2 and 0 <= seed < 2**64.
    """
    _check_at_least("shots", shots, 2, " (a one-shot error bar is undefined)")
    _check_seed(seed)
    _check_map(index, cmap)
    if len(cmap.weights) != 1:
        raise OracleError("the localisation probe expects a single-component map")
    rows, d_i = _out_sector_rows(cmap, sector)
    a_vals = np.empty(shots)
    b_vals = np.empty(shots)
    out = np.zeros((min(SHOT_BLOCK, shots), cmap.out_dim), dtype=complex)
    for start, psi in _shot_blocks(index, "medium", seed, shots, SHOT_BLOCK):
        n = psi.shape[0]
        phi = cmap.row_product(psi, out[:n])
        block = phi[:, rows].reshape(n, d_i, -1)
        wsec = _row_sq_norms(block)
        gram = block @ block.conj().transpose(0, 2, 1)
        a_vals[start : start + n] = (wsec / _row_sq_norms(phi)) ** 2
        b_vals[start : start + n] = _row_sq_norms(gram) / np.maximum(wsec, 1e-300) ** 2
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
