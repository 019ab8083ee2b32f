"""Golden bytes: SHA-256 digests of the serialized engine outputs.

Each digest pins the exact bytes of one output (a table's CSV file and
JSON dict, a purity report in every mode, an isometry verdict, a c1, c2
or c3 report) on a fixed small instance.  The instances cover
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


def table_digests(table, tmp_path):
    path = tmp_path / "table.csv"
    table.to_csv(path)
    return {"csv": sha(path.read_bytes()), "json": json_sha(table.to_json_dict())}


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
#: is the one pinned before, and no CSV or other digest moved.
GOLDEN = {
    "star": {
        "csv": "1421be80d820478a75c1d6127c19c77d50aababc1fd472a1c83e850ae44bcae6",
        "json": "d91ad501b348e89f52883c3a5db966ae589fa004213ff4e8ad96a0de5f0f8430",
        "exact": "b6354ab6ecc046bdadc42fd4dbf1e99619b0d10ad3fef9cc86083f51a75a3696",
        "ground_state": "a7971bc8664b97c131c4fd1dd8f517099033316a52f192d2806c63eee3d479a9",
        "high_spin": "6d0fd728631a88547d71a0f3faa401df709878d02130d88555dfdd0f6f8ffa50"
    },
    "zero_weight_bridge": {
        "csv": "34a17e2f5e0b252e23f719cec643081380cfb2c811b0a9018bdea304d37d4a91",
        "json": "fcff64e8d19db25cedd7b43b264e26f85cd432b01ceec34afa6fdac7508a77ff",
        "exact": "1e6efe2e52ead6a29bc1262c54ade276220c65a90a407e323013c4ddc25523e4",
        "ground_state": "f21f679f6eeb79fd5c93f7a35a9c29da282a42f0d1a206fdc45fd1dd8ef508cb",
        "high_spin": "7886e46c6bc228c26d84f4999d228ac8db456fc56d254888e67b433ebc253566",
        "verdict": "f6c826f0c8f642ffc4baef88afacb158eb2214923b628bf7c55aa6e68e538f9a",
        "verdict_gs": "21b6877b4936665f615f625eb9dc8dec07a7915e915fa74b4e9d6f3b9a0e9c94",
        "condition_matrix": "2156f97a527ccb56267b86c3e33b2f18ba5928ffe6f891d16d881e7eaf698867"
    },
    "signed_b2b": {
        "csv": "e7328ee30ccbf93216892e64a5444652067f09187cd219c597a6b18e78b59136",
        "json": "27b89c428662c92c4be6ee1a17bf367425593f60ae843f0e6eb7d1bd930a45b6",
        "verdict_exact": "3269c4d7926318b08c221998ecf984bf6ae44a01d4a33744f4dffd622ca4e111",
        "verdict_ground_state": "c322bfa561aee20636aa9f243cd4d3a336592f5846442327e12d69fd7320debd"
    },
    "bridge_verdict": {
        "exact": "1ea9f6ee0b100777d322ecda29a4d32e0da3b50c981d8386620426d41e2e278b",
        "ground_state": "7c951a2b68eeb4f55608d27b6390b56daaac5fdc17ad68732042db341e26ed5e"
    },
    "c2_4": "9859ebff2ae5addefc0bacc64ecb57efba975fb822890034b051fabfb1587a14",
    "c2_5": "b665270410c0db5caa5908d0bf580ec6d32ecba50fcd947c0de7832f5d4e110d",
    "c1_1_rightmost": "24838199e2548998989c51dc857348369d19737296f1f1b0218a10806e78c50f",
    "c1_1_upper_right": "c075a4c14ee57ea29c5f3880f512590633361004d2e44a6573b1520b9dba13f0",
    "c1_2_rightmost": "ede28904f89aa1a416cc9863ff375913b4d38cc3f54feac53bc44261de410faf",
    "c1_2_upper_right": "527f2783030a6a1ed81db573f70f0742fde703356298002ceb8a2e877821f1e6",
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
    assert 0 < len(weighted) < len(model.default_sectors())


def test_star_table(tmp_path):
    graph, family = star_table()
    table = bulk_model(graph, family).partition_table()
    got = table_digests(table, tmp_path)
    got.update(purity_digests(table, boundary_weights=True))
    assert got == GOLDEN["star"]


def test_zero_weight_bridge(tmp_path):
    graph, family = zero_weight_bridge()
    table = bulk_model(graph, family).partition_table()
    got = table_digests(table, tmp_path)
    got.update(purity_digests(table))
    window = suggest_window(family, graph)
    got["verdict"] = json_sha(check_bulk_to_boundary(family, graph, window).to_json_dict())
    got["verdict_gs"] = json_sha(
        check_bulk_to_boundary(family, graph, window, regime="ground_state").to_json_dict()
    )
    got["condition_matrix"] = json_sha(condition_matrix(table, 7.0).to_json_dict())
    assert got == GOLDEN["zero_weight_bridge"]


def test_signed_b2b_table(tmp_path):
    model = signed_b2b_model()
    got = table_digests(model.partition_table(), tmp_path)
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
