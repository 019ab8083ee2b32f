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
# 166-digit D_total) began to be written as decimal strings.
DIGESTS = {
    "overflowing_table": "737b19248a16e82176a0dc1c6659a270395bf48f053f58f35c4722ae8b5e69ba",
    "zero_weight_table": "fcff64e8d19db25cedd7b43b264e26f85cd432b01ceec34afa6fdac7508a77ff",
    "b2b_table": "27b89c428662c92c4be6ee1a17bf367425593f60ae843f0e6eb7d1bd930a45b6",
    "purity_exact": "1e6efe2e52ead6a29bc1262c54ade276220c65a90a407e323013c4ddc25523e4",
    "purity_ground_state": "f21f679f6eeb79fd5c93f7a35a9c29da282a42f0d1a206fdc45fd1dd8ef508cb",
    "purity_high_spin": "7886e46c6bc228c26d84f4999d228ac8db456fc56d254888e67b433ebc253566",
    "bulk_verdict": "f6c826f0c8f642ffc4baef88afacb158eb2214923b628bf7c55aa6e68e538f9a",
    "b2b_verdict": "3269c4d7926318b08c221998ecf984bf6ae44a01d4a33744f4dffd622ca4e111",
    "condition_matrix": "2156f97a527ccb56267b86c3e33b2f18ba5928ffe6f891d16d881e7eaf698867",
    "trace_preservation": "7784ce7b2d6dff6cbaa8c27db383dcc192282ccceba49dc0560bb4b8a4eda878",
    "closed_form": "698cf30a5167ea425a54af600aa7ad112e5a9783d779f3f644d7c411f2f56605",
    "scaling_profile": "d165d0f2e426bd9f850af8e5b986c4d42ef5c73fbf110a3d848eb4477756d5d2",
    "c1": "24838199e2548998989c51dc857348369d19737296f1f1b0218a10806e78c50f",
    "c2": "0a0f85c4c0e5577869bc15efff825f186727c1f023f40ab504befe1b2beccfd1",
    "c3": "f8e27260eb899b567660065b4aedfa636e2d254358eeaab840c948a4a0ab661a",
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
def test_every_report_is_strict_json(name, tmp_path):
    report = REPORTS[name]()
    blob = report.to_json_dict()
    text = json.dumps(blob, allow_nan=False)
    assert json.loads(text) == blob
    if hasattr(report, "to_json"):
        path = tmp_path / "report.json"
        report.to_json(path)
        written = path.read_text()
        assert "Infinity" not in written and "NaN" not in written
        assert json.loads(written) == blob


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
