"""Assembly tests: distributions, purity reports, cumulants, closed forms.

The load-bearing checks are the exact identities: the probability-average
decomposition must reproduce the raw ratio of totals, the first cumulant
must be the mean exponent, and the full-order cumulant series must recover
S_2 on an instance whose exponent spread lies inside the series' range.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import array_table, bridge_family, bridge_graph, four_leg_graph, glued_graph, two_sector_vertex_family
from strategies import boundary_instances, bulk_instances, examples
from test_golden import json_sha, signed_b2b_model, star_graph
from test_sector_arrays import reference_sector_dims

from holoising.entropy import (
    CUMULANT_ORDER,
    EntropyError,
    average_purity,
    coarse_average_purity,
    cumulant_expansion,
    fine_average_purity,
    high_spin_energies,
    lqg_area_match,
    rt_average,
    sector_distribution,
)
from holoising.graph import build_graph
from holoising.ising import EngineError, IsingModel, ModelKind
from holoising.spins import (
    SectorFamily,
    Spin,
    SpinSector,
    enumerate_sectors,
    intertwiner_dim,
    sector_dims,
)


def glued_family(graph):
    """Two same-boundary sectors differing on the internal link spin."""
    return SectorFamily.build(
        graph,
        "1/2",
        "3/2",
        allowed={
            "e": ["1/2", "3/2"],
            "a1": ["1"],
            "a2": ["1/2"],
            "b1": ["1"],
            "b2": ["1/2"],
        },
        weights={"e": {"1/2": 0.8, "3/2": 0.6}},
    )


def tadpole_graph():
    """A loop on one vertex plus two boundary legs: beta = log 4 < pi, so
    the exponent spread stays inside the cumulant series' range."""
    return build_graph(
        {
            "vertices": [{"id": "x", "valence": 4}],
            "links": [
                {"id": "e", "ends": [["x", 0], ["x", 1]]},
                {"id": "p1", "end": ["x", 2]},
                {"id": "p2", "end": ["x", 3]},
            ],
        }
    )


def tadpole_family(graph):
    return SectorFamily.build(
        graph,
        "0",
        "1",
        allowed={"e": ["0", "1"], "p1": ["1/2"], "p2": ["1/2"]},
        weights={"e": {"0": 0.6, "1": 0.8}},
    )


def bulk_table(graph, family, sectors=None):
    model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
    return model.partition_table(sectors=sectors)


# -- distributions -------------------------------------------------------


class TestSectorDistribution:
    def test_normalizations(self):
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        dist = sector_distribution(bulk_table(graph, family), boundary_weights=True)
        assert abs(math.fsum(dist.p.values()) - 1.0) < 1e-12
        assert abs(math.fsum(dist.pair_probs.values()) - 1.0) < 1e-12
        assert abs(math.fsum(dist.pair_probs_factorized.values()) - 1.0) < 1e-12
        assert abs(math.fsum(dist.c.values()) - 1.0) < 1e-12

    def test_sector_weights_match_k_factors(self):
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        table = bulk_table(graph, family)
        dist = sector_distribution(table)
        total = math.fsum(k for _, k in table.k_factors)
        for label, k in table.k_factors:
            assert dist.p[label] == pytest.approx(k / total, rel=1e-14)
        assert dist.c is None

    def test_boundary_weights_are_dimension_ratios(self):
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        dist = sector_distribution(bulk_table(graph, family), boundary_weights=True)
        dims = {}
        for sec in enumerate_sectors(family, graph):
            d = sector_dims(sec, graph, family)
            dims[sec.label()] = d.d_total
        total = sum(dims.values())
        for bid, weight in dist.c.items():
            assert weight == pytest.approx(dims[bid] / total, rel=1e-14)

    def test_boundary_weights_match_the_sector_loop(self):
        # c_E reads D_I and D_O from the family's SectorSet; the loop over
        # enumerate_sectors and the per-sector dimension loop it replaced is
        # the reference, compared in keys, order and bits.
        def by_sector_loop(graph, family):
            totals = {}
            bnd = graph.boundary_ids()
            for sec in enumerate_sectors(family, graph):
                boundary_id = ",".join(f"{lid}={Spin(t)}" for lid, t in zip(bnd, sec.twice_of(bnd)))
                if boundary_id in totals:
                    continue
                dims = reference_sector_dims(sec, graph, family)
                if dims.d_input == 0:
                    continue
                totals[boundary_id] = dims.d_total
            grand = sum(totals.values())
            return {bid: d / grand for bid, d in totals.items()}

        three = build_graph(
            {
                "vertices": [{"id": "v", "valence": 3}],
                "links": [{"id": f"b{i}", "end": ["v", i]} for i in range(3)],
            }
        )
        cases = [
            (four_leg_graph(), two_sector_vertex_family(four_leg_graph())),
            (glued_graph(), glued_family(glued_graph())),
            (tadpole_graph(), tadpole_family(tadpole_graph())),
            (bridge_graph(), bridge_family(bridge_graph(), 1)),
            # the key (1/2, 1/2, 1/2) has D_I = 0 and is left out
            (three, SectorFamily.build(three, "1/2", "1", allowed={"b0": ["1/2", "1"], "b1": ["1/2"], "b2": ["1/2"]})),
        ]
        skipped = []

        def check(drawn):
            graph, family = drawn
            dist = sector_distribution(bulk_table(graph, family), boundary_weights=True)
            reference = by_sector_loop(graph, family)
            assert list(dist.c.items()) == list(reference.items())
            keys = {sec.twice_of(graph.boundary_ids()) for sec in enumerate_sectors(family, graph)}
            skipped.append(len(keys) - len(dist.c))

        for case in cases:
            check(case)
        assert skipped[-1] > 0
        settings(max_examples=25)(given(bulk_instances(max_dim=400))(check))()
        assert sum(skipped[len(cases) :]) > 0, skipped

    def test_factorized_form_is_product(self):
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        dist = sector_distribution(bulk_table(graph, family))
        for pid, value in dist.pair_probs_factorized.items():
            lj, lk = pid.split("|")
            assert value == pytest.approx(dist.p[lj] * dist.p[lk], rel=1e-14)


# -- purity reports ------------------------------------------------------


class TestAveragePurity:
    def test_expectation_equals_raw_ratio(self):
        for graph, family in [
            (four_leg_graph(), None),
            (glued_graph(), None),
        ]:
            if family is None:
                family = (
                    two_sector_vertex_family(graph)
                    if not graph.internal_ids()
                    else glued_family(graph)
                )
            table = bulk_table(graph, family)
            report = average_purity(table)
            raw = table.totals[1] / table.totals[0]
            assert report.purity == pytest.approx(raw, abs=1e-12)
            assert report.s2 == pytest.approx(-math.log(raw), abs=1e-12)

    def test_single_sector_closed_form(self):
        graph = four_leg_graph()
        family = SectorFamily.build(graph, "1/2", "1/2")
        report = average_purity(bulk_table(graph, family))
        sec = next(enumerate_sectors(family, graph))
        dims = sector_dims(sec, graph, family)
        d_e = dims.d_total
        expected = (1 / dims.d_input + 1 / dims.d_output) * d_e**2 / (
            d_e**2 + d_e
        )
        assert report.purity == pytest.approx(expected, abs=1e-12)

    def test_spin_zero_family_is_pure(self):
        graph = build_graph(
            {
                "vertices": [{"id": "x", "valence": 3}],
                "links": [
                    {"id": "p1", "end": ["x", 0]},
                    {"id": "p2", "end": ["x", 1]},
                    {"id": "p3", "end": ["x", 2]},
                ],
            }
        )
        family = SectorFamily.build(graph, "0", "0")
        report = average_purity(bulk_table(graph, family))
        assert report.purity == 1.0
        assert report.s2 == 0.0

    def test_first_cumulant_is_mean_exponent(self):
        graph = glued_graph()
        family = glued_family(graph)
        report = average_purity(bulk_table(graph, family))
        assert report.feasible_mass == pytest.approx(1.0, abs=1e-12)
        mean = math.fsum(
            report.pair_probs[pid] * report.x[pid] for pid in report.x
        )
        assert report.cumulants[0] == pytest.approx(mean, abs=1e-12)

    def test_mass_weighted_reconstruction(self):
        # Cross-boundary pairs carry weight but no finite exponent; the
        # conditioned expectation times the feasible mass must still give
        # the purity exactly.
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        report = average_purity(bulk_table(graph, family))
        assert report.feasible_mass < 1.0
        recon = math.fsum(
            report.pair_probs[pid] * math.exp(-report.x[pid])
            for pid in report.x
            if math.isfinite(report.x[pid])
        )
        assert recon == pytest.approx(report.purity, abs=1e-14)
        assert any(math.isinf(v) for v in report.x.values())

    def test_full_order_series_recovers_s2(self):
        graph = tadpole_graph()
        family = tadpole_family(graph)
        report = average_purity(bulk_table(graph, family))
        feasible = [pid for pid, x in report.x.items() if math.isfinite(x)]
        series = cumulant_expansion(
            {pid: report.x[pid] for pid in feasible},
            {pid: report.pair_probs[pid] for pid in feasible},
            40,
        )
        spread = max(v for v in report.x.values()) - min(report.x.values())
        assert spread < math.pi
        assert series.partial_sums[-1] == pytest.approx(report.s2, abs=1e-12)
        assert series.partial_sums[:CUMULANT_ORDER] == pytest.approx(
            report.cumulant_partial_sums, abs=1e-12
        )

    def test_second_order_is_mean_minus_half_variance(self):
        graph = tadpole_graph()
        family = tadpole_family(graph)
        report = average_purity(bulk_table(graph, family))
        xs = np.array([report.x[pid] for pid in sorted(report.x)])
        ps = np.array([report.pair_probs[pid] for pid in sorted(report.x)])
        mean = float(ps @ xs)
        var = float(ps @ (xs - mean) ** 2)
        assert report.cumulant_partial_sums[1] == pytest.approx(
            mean - var / 2.0, abs=1e-12
        )

    def test_ground_state_mode(self):
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        table = bulk_table(graph, family)
        report = average_purity(table, mode="ground_state")
        kmap = dict(table.k_factors)
        z0 = math.fsum(
            kmap[r.pair_id.split("|")[0]] * kmap[r.pair_id.split("|")[1]] * r.z
            for r in table.rows
            if r.replica == 0
        )
        z1 = math.fsum(
            kmap[r.pair_id.split("|")[0]]
            * kmap[r.pair_id.split("|")[1]]
            * next(
                s.z for s in table.rows
                if s.pair_id == r.pair_id and s.replica == 0
            )
            * (math.exp(-r.e_min) if math.isfinite(r.e_min) else 0.0)
            for r in table.rows
            if r.replica == 1
        )
        assert report.provenance == "ground-state"
        assert report.purity == pytest.approx(z1 / z0, rel=1e-12)
        assert report.rt_area_estimate == pytest.approx(
            4.0 * report.cumulants[0], rel=1e-14
        )

    def test_high_spin_mode_single_sector(self):
        graph = four_leg_graph()
        family = SectorFamily.build(graph, "1/2", "1/2")
        report = average_purity(bulk_table(graph, family), mode="high_spin")
        sec = next(enumerate_sectors(family, graph))
        dims = sector_dims(sec, graph, family)
        # One pair: the swapped ground state is the cheaper of the all-up
        # (intertwiner cost) and all-down (boundary cut) configurations.
        assert report.provenance == "high-spin"
        assert report.purity == pytest.approx(
            1.0 / min(dims.d_input, dims.d_output), rel=1e-12
        )

    def test_exact_mode_rt_estimate_absent(self):
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        report = average_purity(bulk_table(graph, family))
        assert report.provenance == "exact"
        assert report.rt_area_estimate is None

    def test_random_instances_stay_in_range(self):
        @settings(max_examples=5)
        @given(bulk_instances(max_dim=400))
        def check(drawn):
            table = bulk_table(*drawn)
            report = average_purity(table)
            assert 0.0 < report.purity <= 1.0 + 1e-12
            assert report.s2 >= -1e-12
            raw = table.totals[1] / table.totals[0]
            assert report.purity == pytest.approx(raw, rel=1e-12)

        check()

    def test_unknown_mode_rejected(self):
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        table = bulk_table(graph, family)
        with pytest.raises(EntropyError):
            average_purity(table, mode="leading")

    def test_vanishing_normalization_rejected(self):
        table = array_table(("A",), k=(1.0,), z=np.zeros((1, 1, 2)))
        assert table.totals == (0.0, 0.0)
        with pytest.raises(EntropyError):
            average_purity(table)  # per-pair Z_0 = 0
        with pytest.raises(EntropyError):
            average_purity(table, mode="ground_state")  # total Z_0 = 0

    def test_signed_pair_weights_rejected(self):
        z = [[(1.0, 0.5), (-0.5, 0.1)], [(-0.5, 0.1), (1.0, 0.5)]]
        e_min = np.broadcast_to([0.0, 0.2], (2, 2, 2))
        table = array_table(("A", "B"), k=(1.0, 1.0), z=z, e_min=e_min)
        assert table.totals == pytest.approx((1.0, 1.2), rel=1e-15)
        with pytest.raises(EntropyError, match="signed"):
            average_purity(table)

    def test_json_round_trip(self):
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        report = average_purity(bulk_table(graph, family), boundary_weights=True)
        blob = report.to_json_dict()
        # Infinite exponents must serialize as null, not break json.
        assert any(v is None for v in blob["X"].values())
        loaded = json.loads(json.dumps(blob, allow_nan=False))
        assert loaded["purity"] == pytest.approx(report.purity, rel=1e-15)
        assert loaded["provenance"] == "exact"
        assert abs(sum(loaded["distribution"]["c"].values()) - 1.0) < 1e-12


def one_pair_table(z, k=1.0, e_min=None):
    """A one-sector table whose only pair has kernels `z` = (Z_0, Z_1)."""
    return array_table(("A",), k=(k,), z=[z], e_min=e_min)


def no_intertwiner_table():
    """The signed boundary-to-boundary state's table under a family whose
    leg l = 1/2 leaves vertex v0 without intertwiners in every sector: the
    table carries weight, the family no D_I."""
    model = signed_b2b_model()
    allowed = {"e1": ["1"], "l": ["1/2"], "r": ["1"], "t0": ["1", "2"], "t1": ["1", "2"]}
    family = SectorFamily.build(model.graph, "1/2", "2", allowed=allowed, normalize=False)
    return IsingModel(model.graph, family, model.kind, state=model.state).partition_table()


SIGNED = [[(1.0, 0.5), (-0.5, 0.1)], [(-0.5, 0.1), (1.0, 0.5)]]

#: (table maker, keyword arguments of `average_purity`, exception, message).
REFUSALS = {
    "unknown_mode": (lambda: one_pair_table((1.0, 0.5)), {"mode": "leading"}, EntropyError, "unknown mode"),
    "no_sector_weight": (lambda: one_pair_table((1.0, 0.5), k=0.0), {}, EntropyError, "no sector weight"),
    "pair_z0_zero": (lambda: one_pair_table((0.0, 0.0)), {}, EntropyError, r"Z_0\^\(j,k\) = 0"),
    "total_z0_zero": (lambda: one_pair_table((0.0, 0.0)), {"mode": "ground_state"}, EntropyError, "Z_0 = 0"),
    "signed_pair_weights": (
        lambda: array_table(("A", "B"), k=(1.0, 1.0), z=SIGNED, e_min=np.broadcast_to([0.0, 0.2], (2, 2, 2))),
        {},
        EntropyError,
        "signed",
    ),
    "nonpositive_purity": (lambda: one_pair_table((1.0, -0.5), e_min=[(0.0, 0.7)]), {}, EntropyError, "nonpositive purity"),
    # Z_1 / Z_0 overflows to +inf: the purity is positive, but X = -inf on
    # the only pair, so no pair is feasible.
    "no_feasible_mass": (lambda: one_pair_table((1e-300, 1e10)), {}, EntropyError, "finite exponent"),
    "no_intertwiners": (no_intertwiner_table, {"boundary_weights": True}, EntropyError, "no sector with intertwiners"),
}


class TestCallTimeRefusals:
    """Every refusal of `average_purity` comes from the call itself, before
    the per-pair decomposition is built, not from its first read."""

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refused_at_the_call(self, case):
        make, kwargs, error, message = REFUSALS[case]
        table = make()
        with pytest.raises(error, match=message):
            average_purity(table, **kwargs)

    @pytest.mark.parametrize("k", [1e-200, 1e200])
    def test_totals_past_float_range_answer(self, k):
        """K^2 Z_0 leaves float64 (0 or +inf), but the purity 0.5 is read
        from the log totals, within the rounding of logs near 921."""
        report = average_purity(one_pair_table((1.0, 0.5), k=k))
        assert report.purity == pytest.approx(0.5, rel=1e-12)
        assert report.s2 == pytest.approx(math.log(2.0), rel=1e-12)
        assert report.pair_probs["A|A"] == pytest.approx(1.0, rel=1e-12)

    def test_no_intertwiner_table_passes_without_boundary_weights(self):
        """The boundary-weights case is refused for its family alone: the
        same table yields a report without `boundary_weights`."""
        assert average_purity(no_intertwiner_table()).purity > 0.0


class TestLazyDecomposition:
    """The per-pair decomposition is built on first read: a report read
    for its purity and S_2 builds neither the table's pair ids nor its
    rows, and the views, once read, have the bits they had when the call
    built them."""

    #: `test_golden.json_sha` of the exact report's `to_json_dict()` on
    #: the star below, made while the call built every per-pair field, and
    #: regenerated when the table's sums moved to `ising._scaled_sums`, and
    #: again when the report began to read the (sign, log) totals.
    DIGEST = "5f5846011d32ab0d19c3822ec211622e9a83bf6219f15a8bee9e242482506b47"

    def test_purity_reads_build_no_pair_maps(self):
        graph = star_graph(5)
        table = bulk_table(graph, SectorFamily.build(graph, "1", "2"))
        assert len(table.labels) == 122
        report = average_purity(table)
        assert 0.0 < report.purity <= 1.0
        assert report.s2 == -math.log(report.purity)
        assert "pair_ids" not in vars(table)
        assert "rows" not in vars(table)
        assert not {"x", "pair_probs", "_series"} & set(vars(report))
        assert not {"p", "pair_probs", "pair_probs_factorized"} & set(vars(report.distribution))
        read = (
            report.x,
            report.pair_probs,
            report.cumulants,
            report.cumulant_partial_sums,
            report.rt_area_estimate,
            report.distribution.p,
            report.distribution.pair_probs,
            report.distribution.pair_probs_factorized,
        )
        assert len(read[0]) == len(read[1]) == 122**2
        assert json_sha(report.to_json_dict()) == self.DIGEST
        assert "rows" not in vars(table)


# -- cumulant expansion --------------------------------------------------


class TestOneReduction:
    """Every K-weighted total the reports read comes from the table's one
    reducer: exact reports and verdicts read the table's own totals, bit
    for bit, S_2 and the purities their (sign, log) forms, the
    ground-state and high-spin sums come from
    `PartitionSumTable.kernel_sums`, and each agrees with a `math.fsum`
    over the same cells."""

    REL = 1e-13

    @pytest.fixture(scope="class")
    def instances(self):
        """(model, window or None) on random instances of both kinds, the
        golden star and the golden zero-weight bridge; the window is the
        suggested one of a bulk-to-boundary model."""
        from test_golden import star_table, zero_weight_bridge

        from holoising.isometry import suggest_window

        found = []
        for graph, family, state, part, _ in examples(boundary_instances(), 12):
            found.append(IsingModel(graph, family, ModelKind.bulk_to_boundary()))
            found.append(IsingModel(graph, family, ModelKind.boundary_to_boundary(part), state=state))
        for graph, family in (star_table(), zero_weight_bridge()):
            found.append(IsingModel(graph, family, ModelKind.bulk_to_boundary()))
        return [
            (model, None if model.kind.is_boundary_to_boundary else suggest_window(model.family, model.graph))
            for model in found
        ]

    @staticmethod
    def reference(table, kernel, block=None):
        """math.fsum of K_j K_k kernel[j, k, b] per replica b, over the
        sector indices in `block` (all by default)."""
        index = np.arange(len(table.labels)) if block is None else block
        k = table.k
        return tuple(
            math.fsum(k[j] * k[i] * kernel[j, i, b] for j in index.tolist() for i in index.tolist())
            for b in (0, 1)
        )

    def assert_close(self, got, want):
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=self.REL, abs=0.0), (got, want)

    def test_reports_read_the_reducer(self, instances):
        from holoising.ising import ground_kernel

        checked = set()
        for model, _ in instances:
            table = model.partition_table()
            ground = ground_kernel(table.e_min[:, :, 1])
            kernels = {
                "exact": table.z,
                "ground_state": np.stack([table.z[:, :, 0], table.z[:, :, 0] * ground], axis=2),
                "high_spin": np.stack([np.ones_like(ground), ground], axis=2),
            }
            for mode, kernel in kernels.items():
                try:
                    report = average_purity(table, mode=mode)
                except EntropyError as exc:
                    assert "signed" in str(exc) or "Z_0^(j,k) = 0" in str(exc), exc
                    continue
                checked.add((model.kind.mode, mode))
                self.assert_close((report.z0, report.z1), self.reference(table, kernel))
                (_, log_z0), (_, log_z1) = table.kernel_sums(kernel).log_totals
                assert report.s2.hex() == (log_z0 - log_z1).hex()
                if mode == "exact":
                    assert report.z0.hex() == table.totals[0].hex()
                    assert report.z1.hex() == table.totals[1].hex()
                if mode != "high_spin":
                    assert report.pair_probs == report.distribution.pair_probs
        assert len(checked) == 6

    def test_verdicts_read_the_reducer(self, instances):
        from holoising.ising import ground_kernel
        from holoising.isometry import check_boundary_to_boundary, check_bulk_to_boundary

        checked = set()
        for model, window in instances:
            graph, family = model.graph, model.family
            if window is None:
                if not model.state.is_pure():
                    continue
                table = model.partition_table()
            else:
                table = model.partition_table(
                    [s for fixed in window for s in enumerate_sectors(family, graph, boundary_filter=fixed)]
                )
            ground = table.kernel_sums(ground_kernel(table.e_min))
            for regime, sums, kernel in (
                ("exact", table, table.z),
                ("ground_state", ground, ground_kernel(table.e_min)),
            ):
                if window is None:
                    verdict = check_boundary_to_boundary(
                        family, graph, model.kind.partition, model.state, regime=regime
                    )
                else:
                    verdict = check_bulk_to_boundary(family, graph, window, regime=regime)
                purity = dict(verdict.extras)["purity"]
                (sign0, log_z0), (sign1, log_z1) = sums.log_totals
                assert purity.hex() == (sign0 * sign1 * math.exp(log_z1 - log_z0)).hex()
                self.assert_close(sums.totals, self.reference(table, kernel))
                for c in table.boundary_keys:
                    block = np.flatnonzero(table.sectors.key == c)
                    self.assert_close(sums.z_bar[c], self.reference(table, kernel, block))
                checked.add((model.kind.mode, regime))
        assert len(checked) == 4


class TestScaleInvariance:
    """Scaling every internal |g| by one factor c scales every K by the same
    factor, which each report divides out: purities, S_2, the measures,
    the condition matrix's quadratic forms and every verdict defect and
    flag are those of c = 1, also where the totals leave float64 (on the
    chain's seven internal links c = 1e40 puts Z_0 near e^2601 and c =
    1e-40 near e^-2557, against e^22 at c = 1)."""

    REL = 1e-12

    @pytest.fixture(scope="class")
    def instances(self):
        """(graph, family) of the all-spin-1 `chain_graph(8)` and of 16
        drawn bulk-to-boundary instances."""
        from test_ising import chain_graph

        graph = chain_graph(8)
        family = SectorFamily.build(graph, "1", "1", normalize=False)
        return [(graph, family)] + examples(bulk_instances(), 16)

    @staticmethod
    def scaled(graph, family, scale):
        weights = {lid: {str(Spin(t)): scale * v for t, v in w.items()} for lid, w in family.weights.items()}
        allowed = {lid: [str(s) for s in spins] for lid, spins in family.allowed.items()}
        return SectorFamily.build(graph, family.lower, family.upper, allowed=allowed, weights=weights, normalize=False)

    @staticmethod
    def readings(graph, family):
        """Every scale-free reading of the reports, or the refusal."""
        from holoising.isometry import check_bulk_to_boundary, condition_matrix, suggest_window

        table = IsingModel(graph, family, ModelKind.bulk_to_boundary()).partition_table()
        out = {}
        for mode in ("exact", "ground_state", "high_spin"):
            try:
                report = average_purity(table, mode=mode, boundary_weights=True)
            except EntropyError as exc:
                out[mode] = str(exc)
                continue
            dist = report.distribution
            out[mode] = (report.purity, report.s2, report.pair_probs, dist.p, dist.pair_probs,
                         dist.pair_probs_factorized, dist.c)
        matrix = condition_matrix(table, 7.0)
        out["condition_matrix"] = (matrix.quadratic_form, matrix.quadratic_form_factorized)
        window = suggest_window(family, graph)
        for regime in ("exact", "ground_state"):
            verdict = check_bulk_to_boundary(family, graph, window, regime=regime)
            out[regime + " verdict"] = (verdict.classification, *(
                (cond.name, cond.sector_defects, cond.defect, cond.sector_passed, cond.passed)
                for cond in verdict.conditions
            ))
        return out

    def assert_close(self, got, want, where):
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=self.REL), where
        elif isinstance(want, dict):
            assert got.keys() == want.keys(), where
            for key in want:
                self.assert_close(got[key], want[key], f"{where}/{key}")
        elif isinstance(want, tuple):
            assert len(got) == len(want), where
            for i, (g, w) in enumerate(zip(got, want)):
                self.assert_close(g, w, f"{where}[{i}]")
        else:
            assert got == want, where

    @pytest.mark.parametrize("scale", [1e-40, 1e40])
    def test_reports_do_not_see_a_common_k_factor(self, instances, scale):
        for n, (graph, family) in enumerate(instances):
            want = self.readings(graph, self.scaled(graph, family, 1.0))
            got = self.readings(graph, self.scaled(graph, family, scale))
            self.assert_close(got, want, f"instance {n}")


class TestCumulantExpansion:
    def test_constant_exponent(self):
        series = cumulant_expansion([1.7, 1.7, 1.7], [0.2, 0.5, 0.3], 5)
        for partial in series.partial_sums:
            assert partial == pytest.approx(1.7, abs=1e-14)
        for kappa in series.cumulants[1:]:
            assert abs(kappa) < 1e-13

    def test_order_two_formula(self):
        xs = [0.3, 0.9, 1.4]
        ps = [0.5, 0.2, 0.3]
        series = cumulant_expansion(xs, ps, 2)
        mean = sum(p * x for x, p in zip(xs, ps))
        var = sum(p * (x - mean) ** 2 for x, p in zip(xs, ps))
        assert series.partial_sums[1] == pytest.approx(
            mean - var / 2.0, abs=1e-14
        )

    def test_two_point_series_converges(self):
        # Spread 0.8 < pi: the alternating series converges to the exact
        # -log <e^-X>.
        xs = [0.3, 1.1]
        ps = [0.4, 0.6]
        series = cumulant_expansion(xs, ps, 30)
        exact = -math.log(sum(p * math.exp(-x) for x, p in zip(xs, ps)))
        assert series.partial_sums[-1] == pytest.approx(exact, rel=1e-10)

    def test_mapping_inputs_align_on_keys(self):
        xs = {"a": 0.2, "b": 1.0}
        ps = {"b": 0.7, "a": 0.3}
        series = cumulant_expansion(xs, ps, 3)
        flat = cumulant_expansion([0.2, 1.0], [0.3, 0.7], 3)
        assert series.cumulants == pytest.approx(flat.cumulants, abs=1e-15)

    def test_shift_moves_only_the_mean(self):
        xs = [0.1, 0.6, 1.2, 2.0]
        ps = [0.1, 0.4, 0.3, 0.2]
        base = cumulant_expansion(xs, ps, 4)
        shifted = cumulant_expansion([x + 0.75 for x in xs], ps, 4)
        assert shifted.cumulants[0] == pytest.approx(
            base.cumulants[0] + 0.75, abs=1e-12
        )
        for n in range(1, 4):
            assert shifted.cumulants[n] == pytest.approx(
                base.cumulants[n], abs=1e-12
            )

    def test_zero_weight_infinity_is_dropped(self):
        series = cumulant_expansion([0.5, math.inf], [1.0, 0.0], 2)
        assert series.cumulants[0] == pytest.approx(0.5, abs=1e-15)
        assert abs(series.cumulants[1]) < 1e-15

    def test_invalid_inputs(self):
        with pytest.raises(EntropyError):
            cumulant_expansion([0.5], [1.0], 0)
        with pytest.raises(EntropyError):
            cumulant_expansion([0.5, math.inf], [0.5, 0.5], 2)
        with pytest.raises(EntropyError):
            cumulant_expansion([0.5, 0.6], [0.8, -0.3], 2)
        with pytest.raises(EntropyError):
            cumulant_expansion({"a": 0.5}, {"b": 1.0}, 2)
        with pytest.raises(EntropyError):
            cumulant_expansion({"a": 0.5}, [1.0], 2)
        with pytest.raises(EntropyError):
            cumulant_expansion([0.5, 0.6], [1.0], 2)


# -- averaged area form --------------------------------------------------


class TestRTAverage:
    def test_single_sector_sharp_area(self):
        surfaces = {"j|j": {"e1": "1", "e2": "3/2"}}
        report = rt_average(surfaces, {"j|j": 1.0})
        sharp = math.log(3) + math.log(4)
        assert report.area_mean == pytest.approx(4.0 * sharp, rel=1e-14)
        assert report.area_variance == 0.0
        assert report.s2_cumulant == pytest.approx(sharp, rel=1e-14)
        assert report.s2_area_formula == pytest.approx(sharp, rel=1e-14)
        assert report.distinct_surfaces == (("e1", "e2"),)

    def test_two_point_mean_and_variance(self):
        surfaces = {"j|j": {"e": "1/2"}, "k|k": {"e": "3/2"}}
        report = rt_average(surfaces, {"j|j": 0.5, "k|k": 0.5})
        a1 = 4.0 * math.log(2)
        a2 = 4.0 * math.log(4)
        assert report.area_mean == pytest.approx((a1 + a2) / 2, rel=1e-14)
        assert report.area_variance == pytest.approx(
            ((a1 - a2) / 2) ** 2, rel=1e-14
        )
        assert report.s2_cumulant == pytest.approx(
            report.area_mean / 4 - report.area_variance / 32, rel=1e-14
        )
        assert report.s2_area_formula == pytest.approx(
            report.area_mean / 4 + report.area_variance / 32, rel=1e-14
        )

    def test_equal_areas_have_zero_variance(self):
        # Different link sets, same total area: the variance term vanishes
        # even though two distinct surfaces are in play.
        surfaces = {
            "j|j": {"e1": "1/2", "e2": "1/2"},
            "k|k": {"f": "3/2"},
        }
        report = rt_average(surfaces, {"j|j": 0.25, "k|k": 0.75})
        assert report.area_variance == pytest.approx(0.0, abs=1e-24)
        assert len(report.distinct_surfaces) == 2

    def test_probabilities_are_renormalized(self):
        surfaces = {"a": {"e": "1"}, "b": {"e": "2"}}
        one = rt_average(surfaces, {"a": 0.5, "b": 0.5})
        two = rt_average(surfaces, {"a": 2.0, "b": 2.0})
        assert one.area_mean == pytest.approx(two.area_mean, rel=1e-14)

    def test_missing_surface_rejected(self):
        with pytest.raises(EntropyError, match="surface"):
            rt_average({"a": {"e": "1"}}, {"a": 0.5, "b": 0.5})


class TestLqgAreaMatch:
    def test_spin_zero(self):
        assert lqg_area_match(0) == 0.0

    def test_unit_solution(self):
        j = (math.exp(math.sqrt(2.0)) - 1.0) / 2.0
        assert lqg_area_match(j) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_root(self):
        for j in (0.5, 2, 13, "7/2"):
            s = lqg_area_match(j)
            j_val = j if isinstance(j, (int, float)) else 3.5
            target = math.log(2 * j_val + 1) ** 2
            assert s * (s + 1) == pytest.approx(target, rel=1e-12)
        assert lqg_area_match(13) == pytest.approx(2.8335477568670346, abs=1e-12)

    def test_monotone_in_spin(self):
        values = [lqg_area_match(j / 2.0) for j in range(0, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(EntropyError):
            lqg_area_match(-0.5)


# -- coarse averaging ----------------------------------------------------


class TestCoarseAverage:
    def test_empty_region_is_exactly_pure(self):
        report = coarse_average_purity(0, 6, 1.3, 7.0)
        assert report.purity == 1.0
        assert report.s2 == 0.0

    def test_whole_boundary_limit(self):
        report = coarse_average_purity(6, 6, 2.4, 30.0)
        assert report.s2_limit == pytest.approx(
            min(6 * math.log(30.0), 2.4), rel=1e-14
        )
        # s2_core is the binding branch here.
        assert report.s2_limit == pytest.approx(2.4, rel=1e-14)

    def test_min_formula_close_for_moderate_delta(self):
        # Exactly at the Page crossover both phases contribute equally and
        # the min-formula overshoots by log 2 no matter how large delta is,
        # so the 1% agreement is quantified away from the crossing; the
        # log 2 bound itself is checked everywhere.
        for delta in (20.0, 30.0, 50.0):
            for s2_core in (0.9, 1.7, 3.3):
                crossing = (s2_core / math.log(delta) + 6) / 2.0
                for size in range(0, 7):
                    report = coarse_average_purity(size, 6, s2_core, delta)
                    assert report.s2 <= report.s2_limit + 1e-12
                    assert report.s2_limit - report.s2 < math.log(2) + 0.01
                    if abs(size - crossing) < 1.0:
                        continue
                    if report.s2 == 0.0:
                        assert report.s2_limit == 0.0
                        continue
                    assert (
                        abs(report.s2 - report.s2_limit) / report.s2 < 0.01
                    )

    def test_page_crossover(self):
        # delta = e makes log delta = 1: crossing at (s2_core + n) / 2.
        report = coarse_average_purity(3, 7, 3.0, math.e)
        assert report.page_crossover == 5
        report = coarse_average_purity(3, 7, 3.5, math.e)
        assert report.page_crossover == 6
        # The increasing branch wins strictly below the crossover.
        for size in range(0, 5):
            low = coarse_average_purity(size, 7, 3.0, math.e)
            assert low.s2_limit == pytest.approx(size * 1.0, rel=1e-14)

    def test_unit_delta_degenerates(self):
        report = coarse_average_purity(3, 7, 2.0, 1.0)
        assert report.purity == 1.0
        assert report.page_crossover is None

    def test_invalid_inputs(self):
        with pytest.raises(EntropyError):
            coarse_average_purity(8, 6, 1.0, 5.0)
        with pytest.raises(EntropyError):
            coarse_average_purity(-1, 6, 1.0, 5.0)
        with pytest.raises(EntropyError):
            coarse_average_purity(2, 6, 1.0, 0.5)
        with pytest.raises(EntropyError):
            coarse_average_purity(2, 6, -0.1, 5.0)


# -- fine averaging ------------------------------------------------------


def fine_family(graph):
    """Sectors (0,0,1,1) and (1,1,1,1): intertwiner dimensions 1 and 3."""
    return SectorFamily.build(
        graph,
        "0",
        "1",
        allowed={
            "p1": ["0", "1"],
            "p2": ["0", "1"],
            "p3": ["1"],
            "p4": ["1"],
        },
    )


class TestFineAverage:
    def test_single_sector(self):
        graph = four_leg_graph()
        family = SectorFamily.build(graph, "1/2", "1/2")
        report = fine_average_purity(None, family, graph)
        sec = next(enumerate_sectors(family, graph))
        dim = intertwiner_dim(sec.vertex_spins("x"))
        assert report.purity == pytest.approx(1.0 / dim, rel=1e-14)
        assert report.d_input == dim

    def test_two_sector_arithmetic(self):
        graph = four_leg_graph()
        family = fine_family(graph)
        labels = {
            intertwiner_dim(s.vertex_spins("x")): s.label()
            for s in enumerate_sectors(family, graph)
            if intertwiner_dim(s.vertex_spins("x")) > 0
        }
        weights = {labels[1]: 0.25, labels[3]: 0.75}
        report = fine_average_purity(weights, family, graph)
        assert report.d_input == 4
        assert report.purity == pytest.approx(0.25, rel=1e-14)
        assert report.solving_weights[labels[1]] == pytest.approx(0.25)
        assert report.solving_weights[labels[3]] == pytest.approx(0.75)

    def test_solving_weights_attain_the_bound(self):
        graph = four_leg_graph()
        family = fine_family(graph)
        probe = fine_average_purity(None, family, graph)
        report = fine_average_purity(probe.solving_weights, family, graph)
        assert report.purity == pytest.approx(1.0 / report.d_input, rel=1e-14)

    def test_cauchy_schwarz_bound(self):
        graph = four_leg_graph()
        family = fine_family(graph)
        labels = [
            s.label()
            for s in enumerate_sectors(family, graph)
            if intertwiner_dim(s.vertex_spins("x")) > 0
        ]
        rng = np.random.default_rng(7)
        for _ in range(20):
            raw = rng.random(len(labels))
            raw /= raw.sum()
            weights = dict(zip(labels, raw))
            report = fine_average_purity(weights, family, graph)
            assert report.purity >= 1.0 / report.d_input - 1e-15

    def test_off_profile_weights_exceed_the_bound(self):
        graph = four_leg_graph()
        family = fine_family(graph)
        report = fine_average_purity(None, family, graph)  # uniform != solving
        assert report.purity > 1.0 / report.d_input + 1e-6

    def test_internal_amplitudes_reweight(self):
        graph = glued_graph()
        family = glued_family(graph)
        sectors = list(enumerate_sectors(family, graph))
        weights = {sec: 0.5 for sec in sectors}  # SpinSector keys
        report = fine_average_purity(weights, family, graph)
        amps = {
            sec.label(): abs(family.g("e", sec.spin("e"))) ** 2
            for sec in sectors
        }
        norm = sum(0.5 * amp for amp in amps.values())
        for label, amp in amps.items():
            assert report.p_tilde[label] == pytest.approx(
                0.5 * amp / norm, rel=1e-14
            )
        assert report.single_boundary

    def test_invalid_weights(self):
        graph = four_leg_graph()
        family = fine_family(graph)
        labels = [
            s.label()
            for s in enumerate_sectors(family, graph)
            if intertwiner_dim(s.vertex_spins("x")) > 0
        ]
        with pytest.raises(EntropyError, match="sum to one"):
            fine_average_purity({labels[0]: 0.7}, family, graph)
        with pytest.raises(EntropyError, match="unknown"):
            fine_average_purity({"nope": 1.0}, family, graph)
        with pytest.raises(EntropyError, match="negative"):
            fine_average_purity(
                {labels[0]: 1.3, labels[1]: -0.3}, family, graph
            )


# -- high-spin energies --------------------------------------------------


class TestHighSpinEnergies:
    def test_diagonal_pair(self):
        graph = glued_graph()
        family = glued_family(graph)
        sec = next(enumerate_sectors(family, graph))
        table = high_spin_energies(sec, sec)
        beta = math.fsum(
            math.log(sec.spin(lid).dim) for lid in graph.boundary_ids()
        )
        s_j = math.fsum(
            math.log(intertwiner_dim(sec.vertex_spins(x)))
            for x in graph.vertices
        ) / beta
        assert table["H1_up"] == pytest.approx(s_j, abs=1e-14)
        assert table["H1_down"] == 1.0
        assert table["H0_up"] == 0.0
        assert table["H0_down"] == pytest.approx(1.0 + s_j, abs=1e-14)
        assert table["s_j"] == pytest.approx(s_j, abs=1e-14)

    def test_single_agreeing_vertex(self):
        graph = glued_graph()
        family = SectorFamily.build(
            graph,
            "1/2",
            "3/2",
            allowed={
                "e": ["1/2"],
                "a1": ["1"],
                "a2": ["1/2"],
                "b1": ["1", "3/2"],
                "b2": ["1/2"],
            },
        )
        j, k = enumerate_sectors(family, graph)
        table = high_spin_energies(j, k)
        beta = math.fsum(
            math.log(j.spin(lid).dim) for lid in graph.boundary_ids()
        )
        expected = (
            math.log(intertwiner_dim(j.vertex_spins("x")))
            + math.log(j.spin("e").dim)
        ) / beta
        assert table["H1_up"] == pytest.approx(expected, abs=1e-14)

    def test_no_agreeing_vertex_is_unreachable(self):
        graph = glued_graph()
        family = glued_family(graph)
        j, k = enumerate_sectors(family, graph)
        # Different internal spin flips both vertex tuples.
        assert math.isinf(high_spin_energies(j, k)["H1_up"])

    def test_input_output_ratio(self):
        graph = glued_graph()
        family = glued_family(graph)
        sec = next(enumerate_sectors(family, graph))
        solo = high_spin_energies(sec, sec)
        within = high_spin_energies(sec, sec, family=family)
        dims = sector_dims(sec, graph, family)
        assert within["r_E"] == pytest.approx(dims.r, rel=1e-14)
        own = math.prod(
            intertwiner_dim(sec.vertex_spins(x)) for x in graph.vertices
        )
        assert solo["r_E"] == pytest.approx(own / dims.d_output, rel=1e-14)

    def test_empty_intertwiner_space_raises(self):
        """Spins (0, 0, 1, 0) at one vertex have no intertwiner, so Lambda
        = log D has no value there."""
        graph = four_leg_graph()
        sec = SpinSector.make(graph, {"p1": 0, "p2": 0, "p3": 1, "p4": 0})
        with pytest.raises(EngineError, match="vertex 'x' has an empty intertwiner space"):
            high_spin_energies(sec, sec)

    def test_trivial_output_rejected(self):
        graph = build_graph(
            {
                "vertices": [{"id": "x", "valence": 3}],
                "links": [
                    {"id": "p1", "end": ["x", 0]},
                    {"id": "p2", "end": ["x", 1]},
                    {"id": "p3", "end": ["x", 2]},
                ],
            }
        )
        family = SectorFamily.build(graph, "0", "0")
        sec = next(enumerate_sectors(family, graph))
        with pytest.raises(EntropyError, match="D_O"):
            high_spin_energies(sec, sec)

    def test_mismatched_graphs_rejected(self):
        g1 = glued_graph()
        g2 = four_leg_graph()
        sec1 = next(enumerate_sectors(glued_family(g1), g1))
        sec2 = next(
            enumerate_sectors(two_sector_vertex_family(g2), g2)
        )
        with pytest.raises(EntropyError, match="graphs"):
            high_spin_energies(sec1, sec2)
