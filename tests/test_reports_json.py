"""Every report is strict JSON: `to_json_dict` maps each float that is not
finite to None (`ising.json_value`), and `to_json` writes no NaN or
Infinity token.  Every report's JSON is pinned by its digest."""

import json
import math

import numpy as np
import pytest

from holoising.entropy import MODES, average_purity
from holoising.experiments import reproduce_c1, reproduce_c2, reproduce_c3
from holoising.graph import build_graph
from holoising.ising import IsingModel, ModelKind, json_value
from holoising.isometry import (
    check_boundary_to_boundary,
    check_bulk_to_boundary,
    check_trace_preservation,
    condition_matrix,
    scaling_constraint_g,
    single_vertex_closed_form,
    suggest_window,
)
from holoising.spins import SectorFamily
from test_golden import json_sha, signed_b2b_model, star_table, zero_weight_bridge
from test_ising import chain_graph


def bulk_table(graph, family):
    return IsingModel(graph, family, ModelKind.bulk_to_boundary()).partition_table()


def overflowing_table():
    """The V = 16, spin-1000 chain: Z_0 and Zbar_0 leave float64."""
    graph = chain_graph(16, legs=2)
    return bulk_table(graph, SectorFamily.build(graph, "1000", "1000"))


def zero_weight_table():
    """Infeasible swapped pairs: infinite E_min and exponents X."""
    return bulk_table(*zero_weight_bridge())


def product_states():
    rhos, dims = {}, {("a",): (2, 3), ("b",): (3, 4)}
    for key, (d_i, d_o) in dims.items():
        vec = np.zeros(d_i * d_o, dtype=complex)
        vec[0] = 1.0
        rhos[key] = np.outer(vec, vec.conj())
    return check_trace_preservation(rhos, dims, c_weights={("a",): 0.4, ("b",): 0.6}, k_value=5.0)


def bulk_verdict():
    graph, family = zero_weight_bridge()
    return check_bulk_to_boundary(family, graph, suggest_window(family, graph))


def b2b_verdict():
    model = signed_b2b_model()
    return check_boundary_to_boundary(model.family, model.graph, model.kind.partition, model.state)


def census():
    graph, family = star_table()
    return reproduce_c2(family, graph)


def scaling_profile():
    graph = build_graph(
        {
            "vertices": [{"id": "v", "valence": 4}],
            "links": [
                {"id": "e", "ends": [["v", 0], ["v", 1]]},
                {"id": "b1", "end": ["v", 2]},
                {"id": "b2", "end": ["v", 3]},
            ],
        }
    )
    family = SectorFamily.build(graph, 0, 1)
    return scaling_constraint_g(family, graph, [{"b1": "1/2", "b2": "1/2"}])


REPORTS = {
    "overflowing_table": overflowing_table,
    "zero_weight_table": zero_weight_table,
    "b2b_table": lambda: signed_b2b_model().partition_table(),
    **{
        f"purity_{mode}": (lambda mode=mode: average_purity(zero_weight_table(), mode=mode))
        for mode in MODES
    },
    "bulk_verdict": bulk_verdict,
    "b2b_verdict": b2b_verdict,
    "condition_matrix": lambda: condition_matrix(zero_weight_table(), 7.0),
    "trace_preservation": product_states,
    "closed_form": lambda: single_vertex_closed_form([2, 3], 5),
    "scaling_profile": scaling_profile,
    "c1": lambda: reproduce_c1(1),
    "c2": census,
    "c3": lambda: reproduce_c3(3, "isometric"),
}

# `test_golden.json_sha` of each report's `to_json_dict()`.  The
# overflowing table's digest moved once, when integers beyond 2^53 (its
# 166-digit D_total) began to be written as decimal strings.  Every digest
# but those of c3 and of the trace-preservation, closed-form and
# scaling-profile reports was regenerated when kernels and K-weighted sums
# moved to one scaled-sum reducer (`ising._scaled_sums`): each float moved
# by at most 1e-12 relative, residues (defects) by at most 1e-13 absolute.
# The zero-weight and b2b table, purity, verdict and condition-matrix
# digests were regenerated when the reports began to read the (sign, log)
# totals and the boundary rows' y its one log-domain path: each float moved
# by at most 1e-13 relative, residues near 0 by at most 3e-16 absolute.
DIGESTS = {
    "overflowing_table": "8ac1b9c02b151da3e805fd86b440d2a3174fd36c39042cb17fb850554dec41ee",
    "zero_weight_table": "6e3084d931e2806b85444803430b4aabb1fc432abda8d9350b9e6dc90c1150c1",
    "b2b_table": "48c3ebe1d005a38cf48d8272e178cac8ebade41b48f48876b446bc35fe3f5138",
    "purity_exact": "5eb126b4e723398f70ca22fba05b7a7e0e4d9c68d8c75072355e01772f243890",
    "purity_ground_state": "2bcdbb2336008688abcb63c35273e1b8a1fb2979fcb53738eef036b7afc3924a",
    "purity_high_spin": "70006928658f7d8aec0bb1dcbe0fec308c2735453ddefaf40a9f6ed8fe625163",
    "bulk_verdict": "61efbc08e39cd951343167176d8bdddf40e50b9d074d73c0526b52f6e654200c",
    "b2b_verdict": "9a38c246e069b4582ac9254e3c68015b5aaa1559bbdad3183fc957a60a2785ba",
    "condition_matrix": "bebeb836f646fe010a4a9138fc7b02a16a0a3ebaf0fd4f215fa5446b7c1da52b",
    "trace_preservation": "7784ce7b2d6dff6cbaa8c27db383dcc192282ccceba49dc0560bb4b8a4eda878",
    "closed_form": "698cf30a5167ea425a54af600aa7ad112e5a9783d779f3f644d7c411f2f56605",
    "scaling_profile": "d165d0f2e426bd9f850af8e5b986c4d42ef5c73fbf110a3d848eb4477756d5d2",
    "c1": "6cf2ff519a7201dc4bc8101cba863e433ab7743f15291352d71d60a38621e43e",
    "c2": "c1c363f6381877a95b109bc8351bc8b971a777e5d764a49cfa9187f8aa26e648",
    "c3": "44d18c13de79cdb0c058ae947b3cad6de58f5cf9d70bae4cf011528a2e50b7c0",
}


def test_json_value_maps_non_finite_floats_to_none():
    value = {
        "a": (1.5, math.inf),
        "b": [-math.inf, {"c": math.nan}],
        "d": np.array([[0.25, np.inf], [np.nan, -2.0]]),
        "e": (1, True, "x", None),
    }
    assert json_value(value) == {
        "a": [1.5, None],
        "b": [None, {"c": None}],
        "d": [[0.25, None], [None, -2.0]],
        "e": [1, True, "x", None],
    }


def test_json_value_writes_ints_beyond_float64_as_strings():
    big = 2**53
    assert json_value([big, -big, big + 1, -big - 1, True]) == [big, -big, str(big + 1), str(-big - 1), True]
    assert json_value(np.array([big + 1])) == [str(big + 1)]


@pytest.mark.parametrize("name", REPORTS)
def test_every_report_is_strict_json(name):
    blob = REPORTS[name]().to_json_dict()
    text = json.dumps(blob, allow_nan=False)
    assert json.loads(text) == blob


@pytest.mark.parametrize("name", REPORTS)
def test_report_json_digest(name):
    assert json_sha(REPORTS[name]().to_json_dict()) == DIGESTS[name]


def test_overflowing_totals_read_null():
    table = overflowing_table()
    assert table.totals[0] == math.inf
    blob = table.to_json_dict()
    assert blob["totals"]["Z_0"] is None
    assert blob["totals"]["Z_1"] == table.totals[1]
    (row,) = blob["boundary_sums"]
    assert row["Z_bar_0"] is None and row["Z_bar_1"] == table.totals[1]
    assert row["D_total"] == str(table.d_total[0])


def test_table_rows_are_reports():
    """A table's JSON `rows` and `boundary_sums` are the `to_json_dict` of
    its `PairRow`s and `BoundarySumRow`s, under the table's keys."""
    for name in ("overflowing_table", "zero_weight_table", "b2b_table"):
        table = REPORTS[name]()
        blob = table.to_json_dict()
        assert blob["rows"] == [row.to_json_dict() for row in table.rows]
        assert blob["boundary_sums"] == [row.to_json_dict() for row in table.boundary_rows]
        assert {key for row in blob["rows"] for key in row} == {"sector_pair_id", "replica", "Z", "E_min", "degeneracy", "gap"}
        assert {key for row in blob["boundary_sums"] for key in row} == {
            "boundary_id", "Z_bar_0", "Z_bar_1", "Y_0", "Y_1", "D_total", "log_Z_bar_0", "log_Z_bar_1"
        }
