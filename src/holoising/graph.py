"""Open spin-network graphs: vertices, internal links, boundary semilinks.

A graph consists of vertices of fixed valence whose ports (numbered 0..D-1)
are each used by exactly one link.  Links come in two kinds: internal links
joining two ports, and boundary semilinks (open ends).  The set of internal
links is the maximal closed subgraph; the semilinks form the boundary.

Boundary semilinks are internally treated as links ending on virtual
one-valent vertices.  Virtual vertices exist only for bookkeeping (boundary
pinning of Ising configurations); they never carry dynamical Ising spins.

Vertices and links carry stable string ids so that all downstream tables are
reproducible across runs; spin tuples at a vertex are ordered by port number.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True, order=True)
class PortRef:
    """A (vertex, port) pair."""

    vertex: str
    port: int


@dataclass(frozen=True)
class Link:
    """Internal link between two distinct ports."""

    link_id: str
    source: PortRef
    target: PortRef


@dataclass(frozen=True)
class Semilink:
    """Boundary semilink: a single open port."""

    link_id: str
    end: PortRef


class GraphError(ValueError):
    """Raised for ill-formed graph specifications."""


def virtual_vertex(link_id: str) -> str:
    """Id of the virtual 1-valent vertex closing a boundary semilink."""
    return "bnd:" + link_id


@dataclass(frozen=True)
class OpenGraph:
    """Validated open graph.  Immutable; freely shareable across threads."""

    vertices: Tuple[str, ...]
    valence: Mapping[str, int]
    internal_links: Tuple[Link, ...]
    boundary_links: Tuple[Semilink, ...]

    def __post_init__(self):
        # Incidence tables, built once: every lookup below reads them.
        ports: Dict[PortRef, str] = {}
        ends: Dict[str, Tuple[str, str]] = {}
        for e in self.internal_links:
            ports[e.source] = e.link_id
            ports[e.target] = e.link_id
            ends[e.link_id] = (e.source.vertex, e.target.vertex)
        for s in self.boundary_links:
            ports[s.end] = s.link_id
            ends[s.link_id] = (s.end.vertex, virtual_vertex(s.link_id))
        internal = tuple(e.link_id for e in self.internal_links)
        boundary = tuple(s.link_id for s in self.boundary_links)
        incident = {
            x: tuple(ports[PortRef(x, p)] for p in range(self.valence[x]))
            for x in self.vertices
        }
        object.__setattr__(self, "_ports", MappingProxyType(ports))
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_internal_ids", internal)
        object.__setattr__(self, "_boundary_ids", boundary)
        object.__setattr__(self, "_link_ids", internal + boundary)
        object.__setattr__(self, "_incident", incident)

    # -- lookups ---------------------------------------------------------

    def internal_ids(self) -> Tuple[str, ...]:
        return self._internal_ids

    def boundary_ids(self) -> Tuple[str, ...]:
        return self._boundary_ids

    def link_ids(self) -> Tuple[str, ...]:
        """All link ids, internal first, in declaration order."""
        return self._link_ids

    def port_map(self) -> Mapping[PortRef, str]:
        """Read-only map of every (vertex, port) to the id of the link using it."""
        return self._ports

    def links_at(self, vertex: str) -> Tuple[str, ...]:
        """Link ids incident to `vertex`, ordered by port number."""
        return self._incident[vertex]

    def endpoints(self, link_id: str) -> Tuple[str, str]:
        """Endpoint vertex ids (virtual vertex for the open end of a semilink)."""
        return self._ends[link_id]

    def boundary_vertex(self, link_id: str) -> str:
        """Real vertex a boundary semilink is attached to."""
        if link_id not in self._boundary_ids:
            raise KeyError(link_id)
        return self._ends[link_id][0]


def build_graph(spec: dict) -> OpenGraph:
    """Build and validate an OpenGraph from a plain-dict description.

    Expected shape::

        {"vertices": [{"id": "x", "valence": 4}, ...],
         "links": [{"id": "e0", "ends": [["x", 0], ["y", 0]]},   # internal
                   {"id": "b0", "end": ["x", 1]},                # semilink
                   ...]}

    Raises GraphError on duplicate port use, dangling endpoints, valence
    mismatch, or duplicate ids.
    """
    try:
        vspecs = list(spec["vertices"])
        lspecs = list(spec["links"])
    except (KeyError, TypeError) as exc:
        raise GraphError(f"graph spec needs 'vertices' and 'links': {exc}")

    vertices: List[str] = []
    valence: Dict[str, int] = {}
    for vs in vspecs:
        vid = str(vs["id"])
        if vid in valence:
            raise GraphError(f"duplicate vertex id {vid!r}")
        deg = int(vs["valence"])
        if deg < 1:
            raise GraphError(f"vertex {vid!r} has non-positive valence {deg}")
        vertices.append(vid)
        valence[vid] = deg

    internal: List[Link] = []
    boundary: List[Semilink] = []
    seen_ids: set = set()
    used_ports: set = set()

    def check_port(lid: str, vertex: str, port: int) -> PortRef:
        if vertex not in valence:
            raise GraphError(f"link {lid!r} references unknown vertex {vertex!r}")
        if not 0 <= port < valence[vertex]:
            raise GraphError(
                f"link {lid!r}: port {port} out of range for vertex "
                f"{vertex!r} (valence {valence[vertex]})"
            )
        ref = PortRef(vertex, port)
        if ref in used_ports:
            raise GraphError(f"port {ref} used twice")
        used_ports.add(ref)
        return ref

    for ls in lspecs:
        lid = str(ls["id"])
        if lid in seen_ids or lid in valence:
            raise GraphError(f"duplicate id {lid!r}")
        seen_ids.add(lid)
        if "ends" in ls:
            (v0, p0), (v1, p1) = ls["ends"]
            src = check_port(lid, str(v0), int(p0))
            tgt = check_port(lid, str(v1), int(p1))
            if src == tgt:
                raise GraphError(f"link {lid!r} has coincident endpoints")
            internal.append(Link(lid, src, tgt))
        elif "end" in ls:
            v0, p0 = ls["end"]
            boundary.append(Semilink(lid, check_port(lid, str(v0), int(p0))))
        else:
            raise GraphError(f"link {lid!r} needs 'ends' or 'end'")

    for v, deg in valence.items():
        missing = [p for p in range(deg) if PortRef(v, p) not in used_ports]
        if missing:
            raise GraphError(f"vertex {v!r} has unused ports {missing}")

    return OpenGraph(
        vertices=tuple(vertices),
        valence=dict(valence),
        internal_links=tuple(internal),
        boundary_links=tuple(boundary),
    )


# -- regions -------------------------------------------------------------

VertexRegion = FrozenSet[str]


@dataclass(frozen=True)
class BoundaryPartition:
    """Complementary split of the boundary semilinks into input and output."""

    input_region: FrozenSet[str]
    output_region: FrozenSet[str]

    @staticmethod
    def from_input(graph: OpenGraph, input_ids: Sequence[str]) -> "BoundaryPartition":
        all_ids = frozenset(graph.boundary_ids())
        inp = frozenset(str(i) for i in input_ids)
        if not inp <= all_ids:
            raise GraphError(f"input region {sorted(inp - all_ids)} not on the boundary")
        return BoundaryPartition(inp, all_ids - inp)

    def validate(self, graph: OpenGraph) -> None:
        all_ids = frozenset(graph.boundary_ids())
        if self.input_region | self.output_region != all_ids:
            raise GraphError("partition does not cover the boundary")
        if self.input_region & self.output_region:
            raise GraphError("partition regions overlap")


@dataclass(frozen=True)
class RegionBoundary:
    """Links crossing a vertex region's border."""

    cut_links: FrozenSet[str]          # internal links with one endpoint inside
    touched_boundary: FrozenSet[str]   # semilinks attached to the region


def agreement_region(j, k) -> VertexRegion:
    """Vertices where two sectors carry identical spin tuples.

    Both sectors must live on the same graph.  Symmetric in its arguments.
    """
    if j.graph is not k.graph and j.graph != k.graph:
        raise GraphError("sectors live on different graphs")
    return frozenset(
        x for x in j.graph.vertices if j.vertex_spins(x) == k.vertex_spins(x)
    )


def boundary_of_region(graph: OpenGraph, region: VertexRegion) -> RegionBoundary:
    """Internal cut and touched semilinks of a vertex subset."""
    region = frozenset(region)
    unknown = region - set(graph.vertices)
    if unknown:
        raise GraphError(f"region contains unknown vertices {sorted(unknown)}")
    cut = frozenset(
        e.link_id
        for e in graph.internal_links
        if (e.source.vertex in region) != (e.target.vertex in region)
    )
    touched = frozenset(
        s.link_id for s in graph.boundary_links if s.end.vertex in region
    )
    return RegionBoundary(cut_links=cut, touched_boundary=touched)
