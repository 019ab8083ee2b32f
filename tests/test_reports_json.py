"""Every report is strict JSON: `to_json_dict` maps each float that is not
finite to None (`ising.json_value`), and `to_json` writes no NaN or
Infinity token."""

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
from test_golden import signed_b2b_model, star_table, zero_weight_bridge
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


def test_overflowing_totals_read_null():
    table = overflowing_table()
    assert table.totals[0] == math.inf
    blob = table.to_json_dict()
    assert blob["totals"]["Z_0"] is None
    assert blob["totals"]["Z_1"] == table.totals[1]
    (row,) = blob["boundary_sums"]
    assert row["Z_bar_0"] is None and row["Z_bar_1"] == table.totals[1]
