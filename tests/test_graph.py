import pytest

from holoising.graph import (
    BoundaryPartition,
    GraphError,
    agreement_region,
    boundary_of_region,
    build_graph,
)
from holoising.spins import SpinSector


def single_vertex_spec(valence=4):
    return {
        "vertices": [{"id": "x", "valence": valence}],
        "links": [{"id": f"b{p}", "end": ["x", p]} for p in range(valence)],
    }


def two_vertex_spec():
    # two 4-valent vertices joined by one internal link, six semilinks
    links = [{"id": "e0", "ends": [["x", 0], ["y", 0]]}]
    for p in range(1, 4):
        links.append({"id": f"bx{p}", "end": ["x", p]})
        links.append({"id": f"by{p}", "end": ["y", p]})
    return {
        "vertices": [{"id": "x", "valence": 4}, {"id": "y", "valence": 4}],
        "links": links,
    }


def test_single_vertex_graph():
    g = build_graph(single_vertex_spec())
    assert g.internal_ids() == ()
    assert len(g.boundary_ids()) == 4
    assert g.links_at("x") == ("b0", "b1", "b2", "b3")


def test_two_vertex_graph():
    g = build_graph(two_vertex_spec())
    assert g.internal_ids() == ("e0",)
    assert len(g.boundary_ids()) == 6
    assert g.endpoints("e0") == ("x", "y")
    assert g.endpoints("bx1") == ("x", "bnd:bx1")


def test_duplicate_port_rejected():
    spec = single_vertex_spec()
    spec["links"][1]["end"] = ["x", 0]  # reuse port 0
    with pytest.raises(GraphError):
        build_graph(spec)


def test_unused_port_rejected():
    spec = single_vertex_spec()
    del spec["links"][3]
    with pytest.raises(GraphError):
        build_graph(spec)


def test_dangling_endpoint_rejected():
    spec = two_vertex_spec()
    spec["links"][0]["ends"][1][0] = "z"  # unknown vertex
    with pytest.raises(GraphError):
        build_graph(spec)


def test_coincident_endpoints_rejected():
    spec = {
        "vertices": [{"id": "x", "valence": 2}],
        "links": [{"id": "e", "ends": [["x", 0], ["x", 0]]}],
    }
    with pytest.raises(GraphError):
        build_graph(spec)


def test_region_cut_equals_complement_cut():
    g = build_graph(two_vertex_spec())
    for region in [frozenset(), {"x"}, {"y"}, {"x", "y"}]:
        cut = boundary_of_region(g, region).cut_links
        cocut = boundary_of_region(g, set(g.vertices) - set(region)).cut_links
        assert cut == cocut


def test_region_boundary_extremes():
    g = build_graph(two_vertex_spec())
    empty = boundary_of_region(g, frozenset())
    assert empty.cut_links == frozenset() and empty.touched_boundary == frozenset()
    full = boundary_of_region(g, set(g.vertices))
    assert full.cut_links == frozenset()
    assert full.touched_boundary == frozenset(g.boundary_ids())


def test_region_boundary_single_vertex_of_pair():
    g = build_graph(two_vertex_spec())
    rb = boundary_of_region(g, {"x"})
    assert rb.cut_links == {"e0"}
    assert rb.touched_boundary == {"bx1", "bx2", "bx3"}


def test_agreement_region():
    g = build_graph(two_vertex_spec())
    base = {"e0": "1/2", "bx1": "1/2", "bx2": "1/2", "bx3": "1/2",
            "by1": "1/2", "by2": "1/2", "by3": "1/2"}
    j = SpinSector.make(g, base)
    k = SpinSector.make(g, dict(base, by3="3/2"))
    assert agreement_region(j, j) == frozenset(g.vertices)
    assert agreement_region(j, k) == frozenset({"x"})
    assert agreement_region(j, k) == agreement_region(k, j)
    everywhere_different = SpinSector.make(g, {lid: "1" for lid in base})
    assert agreement_region(j, everywhere_different) == frozenset()


def test_boundary_partition():
    g = build_graph(two_vertex_spec())
    part = BoundaryPartition.from_input(g, ["by1", "by2"])
    part.validate(g)
    assert part.output_region == {"bx1", "bx2", "bx3", "by3"}
    with pytest.raises(GraphError):
        BoundaryPartition.from_input(g, ["e0"])
