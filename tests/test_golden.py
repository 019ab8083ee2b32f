"""Golden bytes: SHA-256 digests of the serialized engine outputs.

Each digest pins the exact bytes of one output (a table's kernel arrays
and JSON dict, a purity report in every mode, an isometry verdict, a c1,
c2 or c3 report) on a fixed small instance.  The instances cover
cross-boundary pairs whose swapped kernel is infeasible, sectors with zero
weight K (a vanishing superposition amplitude, a vertex without
intertwiners) and a boundary-to-boundary table with negative pair kernels.  Any change of a
printed digit, of row order or of a key changes a digest.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import bridge_family, bridge_graph
from holoising.bulk import IntertwinerState
from holoising.entropy import MODES, average_purity
from holoising.experiments import REGIONS, reproduce_c1, reproduce_c2, reproduce_c3
from holoising.graph import BoundaryPartition, build_graph
from holoising.ising import IsingModel, ModelKind
from holoising.isometry import (
    check_boundary_to_boundary,
    check_bulk_to_boundary,
    condition_matrix,
    suggest_window,
)
from holoising.spins import SectorFamily, SpinSector


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_sha(obj) -> str:
    return sha(json.dumps(obj, sort_keys=True).encode())


def star_graph(legs):
    return build_graph(
        {
            "vertices": [{"id": "x", "valence": legs}],
            "links": [{"id": f"b{i}", "end": ["x", i]} for i in range(legs)],
        }
    )


def chain2_graph():
    """Two 3-valent vertices: v0 carries legs l and t0, v1 carries r and t1."""
    return build_graph(
        {
            "vertices": [{"id": "v0", "valence": 3}, {"id": "v1", "valence": 3}],
            "links": [
                {"id": "e1", "ends": [["v0", 1], ["v1", 0]]},
                {"id": "l", "end": ["v0", 0]},
                {"id": "r", "end": ["v1", 1]},
                {"id": "t0", "end": ["v0", 2]},
                {"id": "t1", "end": ["v1", 2]},
            ],
        }
    )


def star_table():
    """Four legs, two of them superposed: pairs with different boundary
    spins have no allowed swapped configuration."""
    graph = star_graph(4)
    family = SectorFamily.build(
        graph,
        "1/2",
        "3/2",
        allowed={"b0": ["1/2", "3/2"], "b1": ["1/2"], "b2": ["1/2"], "b3": ["1/2", "1"]},
    )
    return graph, family


def zero_weight_bridge():
    """Bridge whose internal link superposes spins 1, 2, 3 with a zero
    amplitude on spin 2; leg c = 3 leaves vertex y without intertwiners."""
    graph = build_graph(
        {
            "vertices": [{"id": "x", "valence": 3}, {"id": "y", "valence": 3}],
            "links": [
                {"id": "e", "ends": [["x", 0], ["y", 0]]},
                {"id": "a1", "end": ["x", 1]},
                {"id": "a2", "end": ["x", 2]},
                {"id": "c1", "end": ["y", 1]},
                {"id": "c2", "end": ["y", 2]},
            ],
        }
    )
    family = SectorFamily.build(
        graph,
        "1/2",
        "3",
        allowed={
            "e": ["1", "2", "3"],
            "a1": ["1", "2"],
            "a2": ["1", "2"],
            "c1": ["1"],
            "c2": ["1", "3"],
        },
        weights={"e": {"1": 0.6 + 0.2j, "2": 0.0, "3": -0.3 + 0.5j}},
    )
    return graph, family


def signed_b2b_model():
    """Four sectors differing on legs t0 and t1; with t1 as input, the swapped
    replica of a pair that differs on both legs allows one configuration
    whose Hilbert-Schmidt cosine is negative."""
    graph = chain2_graph()
    allowed = {lid: ["1"] for lid in ("e1", "l", "r")}
    allowed.update({"t0": ["1", "2"], "t1": ["1", "2"]})
    family = SectorFamily.build(graph, "1", "2", allowed=allowed, normalize=False)
    amps = (0.5 + 0.1j, -0.4 + 0.3j, 0.2 - 0.5j, -0.35 - 0.25j)
    norm = sum(abs(a) ** 2 for a in amps) ** 0.5
    spins = [(t0, t1) for t0 in ("1", "2") for t1 in ("1", "2")]
    vectors = {}
    for (t0, t1), amp in zip(spins, amps):
        sector = SpinSector.make(graph, {"e1": "1", "l": "1", "r": "1", "t0": t0, "t1": t1})
        vectors[sector] = np.array([amp / norm])
    state = IntertwinerState.from_pure(graph, vectors)
    kind = ModelKind.boundary_to_boundary(BoundaryPartition.from_input(graph, ["t1"]))
    return IsingModel(graph, family, kind, state=state)


def bulk_model(graph, family):
    return IsingModel(graph, family, ModelKind.bulk_to_boundary())


def table_digests(table):
    """The table's labels and the raw bytes (with their dtype) of its
    kernel arrays `z`, `e_min`, `degeneracy` and `gap`, which keep every
    bit and tell inf from NaN, and its JSON dict."""
    digest = hashlib.sha256(json.dumps(list(table.labels)).encode())
    for array in (table.z, table.e_min, table.degeneracy, table.gap):
        digest.update(array.dtype.str.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return {"kernels": digest.hexdigest(), "json": json_sha(table.to_json_dict())}


def purity_digests(table, boundary_weights=False):
    return {
        mode: json_sha(average_purity(table, mode=mode, boundary_weights=boundary_weights).to_json_dict())
        for mode in MODES
    }


#: Digests generated with the engine before its tables became arrays.  The
#: purity reports (every mode) and the isometry verdicts except two were
#: regenerated when their consumers started to read Z_b and Zbar_b from the
#: table's log-domain reducer instead of summing the pairs again (an fsum in
#: `average_purity`, a left-to-right loop in the verdicts): their totals,
#: pair probabilities, purities and defects moved in the last bits.  The
#: `signed_b2b` ground-state verdict and the `bridge_verdict` ground-state
#: verdict kept their bytes.  Every table, condition matrix, c1, c2 and c3
#: digest was unchanged then.  The c3 digests for n = 2, 3 and 10 were
#: regenerated when c3's closed forms became finite harmonic sums instead
#: of scipy's digamma and trigamma: one closed value and some formal values
#: moved by one unit in the last place, each as close as before or closer
#: to the exact value; n = 6 kept its bytes.  The three table JSON
#: digests (star, zero_weight_bridge, signed_b2b) were regenerated when the
#: table's JSON gained its log-domain totals, `log_totals` and each boundary
#: row's `log_Z_bar_0`/`log_Z_bar_1`; with those keys removed, each dict
#: is the one pinned before, and no CSV or other digest moved.  The CSV
#: digests were replaced by the "kernels" digests, made on the tree that
#: still wrote the CSV files, when the table's CSV writer was removed.
#: Every table JSON, purity, verdict, condition-matrix, c1 and c2 digest
#: here and the signed_b2b kernels digest were regenerated when kernels and
#: K-weighted sums moved to one scaled-sum reducer (`ising._scaled_sums`):
#: each float moved by at most 1e-12 relative, residues (defects) by at
#: most 1e-13 absolute, and E_min, degeneracy, gap and labels kept their
#: bytes.  The star and zero_weight_bridge kernels digests, both
#: bridge_verdict digests, the signed_b2b ground-state verdict and every c3
#: digest kept theirs.  Every purity, verdict and condition-matrix digest
#: and the zero_weight_bridge and signed_b2b table JSON digests were
#: regenerated when the reports began to read the (sign, log) totals
#: (S_2 = log Z_0 - log Z_1, purities, defects, p_j and the pair measure)
#: and the boundary rows' y its one log-domain path: each float moved by at
#: most 1e-13 relative, residues near 0 (defects) by at most 3e-16
#: absolute.  The kernels digests, the star table JSON and every c1, c2
#: and c3 digest kept their bytes.
GOLDEN = {
    "star": {
        "kernels": "8676dcb35d2464d83fff7cf2e6b40da9c585065f93bf0df3a0ffde42fa188899",
        "json": "306f12534beb49413ad2a07323b2d3790283af41f1b60adbdafe82ddb322bd57",
        "exact": "9fe8f7b21cafd8d6b3326ad7ef94bfa55c1d9a66ec805e44e68120bcdf5a1565",
        "ground_state": "6b66a40739091db8df3e8b29aca4aea74e210b35a2f92c625fe01c80129806ff",
        "high_spin": "abcd67ffa10fd2ff28b0dcbc5a800d74e052646d8666893930ca4a13086cd574"
    },
    "zero_weight_bridge": {
        "kernels": "d1c8056f723769ef286c019b2acb24a332d86fb591ce6c6ab32623a69ce3e1fb",
        "json": "6e3084d931e2806b85444803430b4aabb1fc432abda8d9350b9e6dc90c1150c1",
        "exact": "5eb126b4e723398f70ca22fba05b7a7e0e4d9c68d8c75072355e01772f243890",
        "ground_state": "2bcdbb2336008688abcb63c35273e1b8a1fb2979fcb53738eef036b7afc3924a",
        "high_spin": "70006928658f7d8aec0bb1dcbe0fec308c2735453ddefaf40a9f6ed8fe625163",
        "verdict": "61efbc08e39cd951343167176d8bdddf40e50b9d074d73c0526b52f6e654200c",
        "verdict_gs": "800dcb62f67f858eedb5e3b863252e666a47d6675733602a1e811206d007ed4d",
        "condition_matrix": "bebeb836f646fe010a4a9138fc7b02a16a0a3ebaf0fd4f215fa5446b7c1da52b"
    },
    "signed_b2b": {
        "kernels": "0ea3111f12d800bdb24fb1a55c24554d422c812a54fbfc1ea7a22d03d5d734e0",
        "json": "48c3ebe1d005a38cf48d8272e178cac8ebade41b48f48876b446bc35fe3f5138",
        "verdict_exact": "9a38c246e069b4582ac9254e3c68015b5aaa1559bbdad3183fc957a60a2785ba",
        "verdict_ground_state": "641aa5698d8d2f6e58d13f9d4c77e96a35d67c783de6e37a2caf4ed6b85b0368"
    },
    "bridge_verdict": {
        "exact": "1ea9f6ee0b100777d322ecda29a4d32e0da3b50c981d8386620426d41e2e278b",
        "ground_state": "7c951a2b68eeb4f55608d27b6390b56daaac5fdc17ad68732042db341e26ed5e"
    },
    "c2_4": "cac0ce76fcca2503433818ed04c847f6d59e1119a1ed373d9bcb296eddcf1ffb",
    "c2_5": "0398410e45453501a6307c1c9b5f3ed8a8b29a32c7beb1fcf316c361bc6ba86c",
    "c1_1_rightmost": "6cf2ff519a7201dc4bc8101cba863e433ab7743f15291352d71d60a38621e43e",
    "c1_1_upper_right": "06cfbfa7d7cf6e8c41ca4fdd3235d39bc8b00a12fd8a5ad8a24dfc295fd07c27",
    "c1_2_rightmost": "752d0272c0c0f4e159b2783f3eb492a769dc9b0af7b4898cbf1cc4bd433ef224",
    "c1_2_upper_right": "86115266a0c56148517e284eda1f96b7cc8acc8639cb4bdf253be280a79bf9ce",
    "c3_2_unit": "483311a689789f8e08c3c2903a338bb37e1269d7bbf74e3e86ea88f7f3f18c99",
    "c3_2_isometric": "d57d2160f0fab393cf73aaed7bb1effaff2a6adbee437c3816c029304ffe2a32",
    "c3_3_unit": "6843621e225aff398d4560619bc6dd5e085d407c597c124add21f1237d7b69f7",
    "c3_3_isometric": "f8e27260eb899b567660065b4aedfa636e2d254358eeaab840c948a4a0ab661a",
    "c3_6_unit": "aac2df7cfb0ad8a8bf5889635a574da22a72e9c760178e39958f2585055f9009",
    "c3_6_isometric": "b136c5a36b814b79c30d1718cc0e98f14f57537dee84ade9d2680898a62ed0a6",
    "c3_10_unit": "ff5ccb144b0486e1ace524be4988a2719362fe3cae6238d708ba592551113b22",
    "c3_10_isometric": "2573f442d59f2f731cb70a16d0846fe29a9630c504dbb49ade673c26bc8e280a"
}


def test_signed_instance_has_negative_kernels():
    table = signed_b2b_model().partition_table()
    assert any(row.z < 0.0 for row in table.rows)


def test_zero_weight_instance_drops_sectors():
    graph, family = zero_weight_bridge()
    model = bulk_model(graph, family)
    weighted = {label for label, _ in model.partition_table().k_factors}
    assert 0 < len(weighted) < len(model.sector_set().sectors)


def test_star_table():
    graph, family = star_table()
    table = bulk_model(graph, family).partition_table()
    got = table_digests(table)
    got.update(purity_digests(table, boundary_weights=True))
    assert got == GOLDEN["star"]


def test_zero_weight_bridge():
    graph, family = zero_weight_bridge()
    table = bulk_model(graph, family).partition_table()
    got = table_digests(table)
    got.update(purity_digests(table))
    window = suggest_window(family, graph)
    got["verdict"] = json_sha(check_bulk_to_boundary(family, graph, window).to_json_dict())
    got["verdict_gs"] = json_sha(
        check_bulk_to_boundary(family, graph, window, regime="ground_state").to_json_dict()
    )
    got["condition_matrix"] = json_sha(condition_matrix(table, 7.0).to_json_dict())
    assert got == GOLDEN["zero_weight_bridge"]


def test_signed_b2b_table():
    model = signed_b2b_model()
    got = table_digests(model.partition_table())
    for regime in ("exact", "ground_state"):
        verdict = check_boundary_to_boundary(
            model.family, model.graph, model.kind.partition, model.state, regime=regime
        )
        got[f"verdict_{regime}"] = json_sha(verdict.to_json_dict())
    assert got == GOLDEN["signed_b2b"]


def test_bridge_verdict():
    graph = bridge_graph()
    family = bridge_family(graph, 1)
    window = suggest_window(family, graph)
    got = {
        regime: json_sha(check_bulk_to_boundary(family, graph, window, regime=regime).to_json_dict())
        for regime in ("exact", "ground_state")
    }
    assert got == GOLDEN["bridge_verdict"]


@pytest.mark.parametrize("legs", [4, 5])
def test_c2_report(legs):
    graph = star_graph(legs)
    allowed = {f"b{i}": ["1/2"] for i in range(legs)}
    allowed.update({"b0": ["1/2", "1"], f"b{legs - 1}": ["1/2", "1", "3/2"]})
    family = SectorFamily.build(graph, "1/2", "3/2", allowed=allowed)
    assert json_sha(reproduce_c2(family, graph).to_json_dict()) == GOLDEN[f"c2_{legs}"]


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("s", [1, 2])
def test_c1_report(s, region):
    """The c1 digests were made with the scenario code that fitted each cell
    at three probe states and checked it against a hand-written table: its
    `to_json_dict()` with the per-cell keys `alt_combo`, `alt_value` and
    `consistent` and the per-sum key `variant_total` removed, and with the
    rightmost cell (low, high), replica 0, config `-+` labelled `3L2+L6p`,
    as the engine's cut links and Hamiltonian give it (the table wrote
    `3L2+L6p+Sigma`, a Sigma that vanishes on R spin-up cross cells)."""
    digest = json_sha(reproduce_c1(s, region).to_json_dict())
    assert digest == GOLDEN[f"c1_{s}_{region}"]


@pytest.mark.parametrize("profile", ["unit", "isometric"])
@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_c3_report(n, profile):
    """The c3 digests were made with the scenario code whose engine check
    asked the engine pair by pair (two `partition_sum_fixed` calls per
    sector pair, one `k_factor` call per sector), before it read one
    partition table."""
    digest = json_sha(reproduce_c3(n, profile).to_json_dict())
    assert digest == GOLDEN[f"c3_{n}_{profile}"]
