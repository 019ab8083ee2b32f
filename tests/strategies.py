"""The drawn test instances: `hypothesis` strategies and one collector.

Every randomly drawn instance of the suite comes from here.  A draw is a
graph of one or two vertices (three where a test asks), 3- or 4-valent (a
tree, sometimes closed into one cycle), with a spin family of spins 0-2,
complex link weights (some spins of weight 0), and for the
boundary-to-boundary kind a bulk state and an input region.  A test may
cap a draw's Hilbert dimension (`max_dim`), which the exact oracle needs
and which bounds the draw's size; the strategies reject the draws above
the cap.  Tests draw with `@given` under the suite's derandomized profile
(`conftest.py`); fixtures that want a fixed list take it from `examples`.
"""

import cmath
import functools
import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holoising.bulk import IntertwinerState, vertex_block_dims
from holoising.graph import BoundaryPartition, build_graph
from holoising.oracle import OracleError, build_hilbert
from holoising.spins import SectorFamily, Spin, enumerate_sectors, intertwiner_dim

SPINS = ("0", "1/2", "1", "3/2", "2")
LINK_SPINS = st.sampled_from(SPINS[:3])


def phased(low):
    """Complex numbers of modulus `low` to 1 and any phase."""
    return st.builds(cmath.rect, st.floats(low, 1.0), st.floats(-math.pi, math.pi))


WEIGHT = phased(0.2)


def draw_graph(draw, nv):
    """A tree of `nv` 3- or 4-valent vertices v0, v1, ..., each joined to
    an earlier one by link e_i; where nv > 1, sometimes one more internal
    link x0 between two vertices with two free ports or more, which closes
    a cycle; and a boundary leg b_n on every free port, so every vertex
    keeps one.  Returns the graph and the (vertex, port) of each leg."""
    valences = [draw(st.integers(3, 4)) for _ in range(nv)]
    free = {i: list(range(valences[i])) for i in range(nv)}
    links = []
    for i in range(1, nv):
        j = draw(st.integers(0, i - 1))
        links.append({"id": f"e{i}", "ends": [[f"v{j}", free[j].pop(0)], [f"v{i}", free[i].pop(0)]]})
    if nv > 1 and draw(st.booleans()):
        ends = st.sampled_from([i for i in range(nv) if len(free[i]) > 1])
        a, b = draw(st.lists(ends, min_size=2, max_size=2, unique=True))
        links.append({"id": "x0", "ends": [[f"v{a}", free[a].pop(0)], [f"v{b}", free[b].pop(0)]]})
    legs = [(i, p) for i in range(nv) for p in free[i]]
    links += [{"id": f"b{n}", "end": [f"v{i}", p]} for n, (i, p) in enumerate(legs)]
    graph = build_graph({"vertices": [{"id": f"v{i}", "valence": valences[i]} for i in range(nv)], "links": links})
    return graph, legs


def capped_index(graph, family, max_dim):
    """The Hilbert index of a draw, which is rejected where the space
    exceeds `max_dim`."""
    try:
        return build_hilbert(graph, family, cap=max_dim)
    except OracleError:
        assume(False)


@functools.cache
def fitting(spins):
    """The spins 0-2 that give a vertex whose other links carry `spins` (a
    sorted tuple) intertwiners; there is always one."""
    return tuple(t for t in SPINS if intertwiner_dim((*map(Spin.parse, spins), Spin.parse(t))) > 0)


def fitted_family(draw, vertex_counts):
    """(graph, family, product legs) on a `draw_graph` of as many vertices
    as `vertex_counts` draws.

    Every link takes a first spin 0-1, but the last leg of each vertex
    takes one that fits the vertex's other links, so the sector of first
    spins has intertwiners at every vertex.  An alternative of a link is a
    second spin with which that sector still has them.  Two or three
    vertices sometimes give an alternative to two legs of different
    vertices, the product legs, so that all four sectors of their spins
    have intertwiners.  Otherwise one vertex superposes up to two links,
    and more vertices one (an internal link about as often as any link),
    with an alternative or, half as often, any other spin 0-2, which may
    leave a vertex without intertwiners.  Each internal spin has a complex
    weight; a superposed internal link may give its second spin weight 0,
    never the first, so the sector of first spins has K > 0."""
    nv = draw(vertex_counts)
    graph, legs = draw_graph(draw, nv)
    last = {i: n for n, (i, _) in enumerate(legs)}
    fitted = {f"b{n}": f"v{i}" for i, n in last.items()}
    spins = {lid: draw(LINK_SPINS) for lid in graph.link_ids() if lid not in fitted}

    def fits(lid, x):
        return fitting(tuple(sorted(spins[link] for link in graph.links_at(x) if link != lid)))

    for lid, x in fitted.items():
        spins[lid] = draw(st.sampled_from(fits(lid, x)))

    def alternatives(lid):
        ends = [fits(lid, x) for x in graph.endpoints(lid) if x in graph.vertices]
        return [t for t in SPINS if t != spins[lid] and all(t in fit for fit in ends)]

    allowed = {lid: [spin] for lid, spin in spins.items()}
    pairs = []
    if nv > 1 and draw(st.booleans()):
        legs = [lid for lid in graph.boundary_ids() if alternatives(lid)]
        pairs = [pair for pair in itertools.combinations(legs, 2) if len(set(map(graph.boundary_vertex, pair))) == 2]
    product_legs = draw(st.sampled_from(pairs)) if pairs else ()
    superposed = {}
    if not product_legs:
        links = st.sampled_from(graph.link_ids())
        if nv > 1:
            links = st.sampled_from(graph.internal_ids()) | links
        for lid in draw(st.lists(links, min_size=nv > 1, max_size=2 if nv == 1 else 1, unique=True)):
            fit = alternatives(lid)
            if not (fit and draw(st.integers(0, 2))):
                fit = [t for t in SPINS if t != spins[lid]]
            superposed[lid] = draw(st.sampled_from(fit))
    for lid in product_legs:
        superposed[lid] = draw(st.sampled_from(alternatives(lid)))
    zeros = {lid for lid in superposed if lid in graph.internal_ids() and draw(st.booleans())}
    for lid, second in superposed.items():
        allowed[lid] = sorted([spins[lid], second], key=Spin.parse)
    weights = {
        lid: {spin: 0j if lid in zeros and spin == superposed[lid] else draw(WEIGHT) for spin in allowed[lid]}
        for lid in graph.internal_ids()
    }
    return graph, SectorFamily.build(graph, "0", "2", allowed=allowed, weights=weights), product_legs


@st.composite
def bulk_instances(draw, vertex_counts=st.integers(1, 2), max_dim=600):
    """(graph, family) of a bulk-to-boundary model from `fitted_family`;
    with `max_dim`, draws whose Hilbert space exceeds it are rejected."""
    graph, family, _ = fitted_family(draw, vertex_counts)
    if max_dim is not None:
        capped_index(graph, family, max_dim)
    return graph, family


def intertwined_sectors(graph, family):
    """The family's sectors with intertwiners at every vertex, in
    enumeration order (the oracle's `HilbertIndex.family_sectors`)."""
    return [
        sec for sec in enumerate_sectors(family, graph) if all(intertwiner_dim(sec.vertex_spins(x)) for x in graph.vertices)
    ]


@st.composite
def boundary_instances(draw, vertex_counts=st.integers(1, 2), max_dim=600):
    """(graph, family, state, partition, Hilbert index) of a
    boundary-to-boundary model: the graph and family of `fitted_family`, a
    pure or rank-2 mixed bulk state on 1-3 sectors with intertwiners at
    every vertex, and a proper, nonempty input region.  Where the draw has
    product legs, the first is input and the other output, and the state
    sits on the family's four sectors, which take every pair of their
    spins there, as `test_golden.signed_b2b_model` does: a pair that
    differs on both legs can have a negative Hilbert-Schmidt cosine.  The
    index is None without `max_dim`; with it, draws whose Hilbert space
    exceeds it are rejected."""
    graph, family, product_legs = fitted_family(draw, vertex_counts)
    index = None if max_dim is None else capped_index(graph, family, max_dim)
    sectors = intertwined_sectors(graph, family)
    if product_legs:
        picks = sectors
    else:
        picks = draw(st.lists(st.sampled_from(sectors), min_size=1, max_size=3, unique=True))
    sizes = [math.prod(vertex_block_dims(graph, sec)) for sec in picks]
    amplitude = phased(0.1)
    if draw(st.booleans()):
        vectors = [np.array(draw(st.lists(amplitude, min_size=n, max_size=n))) for n in sizes]
        norm = math.sqrt(sum(float(np.vdot(v, v).real) for v in vectors))
        state = IntertwinerState.from_pure(graph, {sec: v / norm for sec, v in zip(picks, vectors)})
    else:
        total = sum(sizes)
        r = np.array(draw(st.lists(amplitude, min_size=2 * total, max_size=2 * total))).reshape(total, 2)
        rho = r @ r.conj().T
        rho /= np.trace(rho).real
        at = np.cumsum([0] + sizes)
        blocks = {
            (x, y): rho[at[a] : at[a + 1], at[b] : at[b + 1]]
            for a, x in enumerate(picks)
            for b, y in enumerate(picks)
            if a <= b
        }
        state = IntertwinerState.from_blocks(graph, picks, blocks)
    bnd = sorted(graph.boundary_ids())
    inputs = draw(st.lists(st.sampled_from(bnd), min_size=1, max_size=len(bnd) - 1, unique=True))
    if product_legs:
        inputs = [lid for lid in inputs if lid not in product_legs] + [product_legs[0]]
    return graph, family, state, BoundaryPartition.from_input(graph, inputs), index


def examples(strategy, count):
    """The first `count` draws of `strategy`.  The loaded profile is
    derandomized, so every call returns the same list."""
    found = []

    @settings(max_examples=count)
    @given(strategy)
    def collect(example):
        found.append(example)

    collect()
    assert len(found) == count, (len(found), count)
    return found
