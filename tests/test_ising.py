"""Tests for the constrained random Ising engine."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ising_reference as reference
from conftest import bridge_family, bridge_graph, bridge_sectors, bridge_state, four_leg_graph, two_sector_vertex_family
from strategies import boundary_instances, bulk_instances, examples, intertwined_sectors
from test_golden import signed_b2b_model
from holoising import ising, spins
from holoising.bulk import IntertwinerState, vertex_block_dims
from holoising.graph import BoundaryPartition, build_graph
from holoising.ising import (
    TIE_TOL,
    ContractViolation,
    EngineError,
    GroundState,
    IsingConfig,
    IsingModel,
    ModelKind,
    _scaled_sums,
    _unique_bool_rows,
)
from holoising.spins import SectorEnumerationError, SectorFamily, Spin, SpinSector, intertwiner_dim


def single_vertex_graph():
    return build_graph(
        {
            "vertices": [{"id": "x", "valence": 4}],
            "links": [
                {"id": "p1", "end": ["x", 0]},
                {"id": "p2", "end": ["x", 1]},
                {"id": "p3", "end": ["x", 2]},
                {"id": "p4", "end": ["x", 3]},
            ],
        }
    )


def single_vertex_family(graph, spin_lists):
    return SectorFamily.build(
        graph,
        lower=0,
        upper=max(Spin.parse(s) for opts in spin_lists.values() for s in opts),
        allowed=spin_lists,
        normalize=False,
    )


def config(graph, **sigma):
    return IsingConfig.make(graph, sigma)


class TestSingleVertexKernels:
    """One 4-valent vertex: kernels against closed forms."""

    def setup_model(self, spins=("1/2", "1/2", "1/2", "1/2")):
        graph = single_vertex_graph()
        lists = {f"p{i}": [spins[i - 1]] for i in range(1, 5)}
        family = single_vertex_family(graph, lists)
        sec = SpinSector.make(graph, {f"p{i}": spins[i - 1] for i in range(1, 5)})
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        d_i = intertwiner_dim(sec.vertex_spins("x"))
        d_o = 1
        for i in range(1, 5):
            d_o *= Spin.parse(spins[i - 1]).dim
        return graph, model, sec, d_i, d_o

    def test_diagonal_kernels(self):
        _, model, sec, d_i, d_o = self.setup_model()
        assert d_i == 2 and d_o == 16
        z1 = model.partition_sum_fixed(sec, sec, 1)
        z0 = model.partition_sum_fixed(sec, sec, 0)
        assert z1 == pytest.approx(1 / d_i + 1 / d_o, rel=1e-12)
        assert z0 == pytest.approx(1 + 1 / (d_i * d_o), rel=1e-12)

    def test_k_factor_is_total_dimension(self):
        _, model, sec, d_i, d_o = self.setup_model()
        kf = model.k_factor(sec)
        assert kf.value == pytest.approx(d_i * d_o, rel=1e-12)
        assert kf.value / kf.d_output == pytest.approx(d_i, rel=1e-12)
        assert kf.d_output == d_o

    def test_hamiltonian_single_vertex_examples(self):
        graph, model, sec, d_i, d_o = self.setup_model()
        up = config(graph, x=1)
        dn = config(graph, x=-1)
        assert model.hamiltonian(sec, sec, up, 1) == pytest.approx(math.log(d_i))
        assert model.hamiltonian(sec, sec, dn, 1) == pytest.approx(math.log(d_o))
        assert model.hamiltonian(sec, sec, up, 0) == 0.0

    def test_ground_state_prefers_smaller_dimension(self):
        graph, model, sec, d_i, d_o = self.setup_model()
        gs = model.ground_state(sec, sec, 1)
        assert d_i < d_o
        assert gs.config.sigma == {"x": 1}
        assert gs.energy == pytest.approx(math.log(d_i))
        assert gs.degeneracy == 1
        assert gs.gap == pytest.approx(math.log(d_o) - math.log(d_i))
        gs0 = model.ground_state(sec, sec, 0)
        assert gs0.config.sigma == {"x": 1}
        assert gs0.energy == 0.0

    def test_totals_keep_cross_boundary_terms(self):
        # Two boundary sectors: the Z_0 total must contain the (E, F) cross
        # products of the trace average, while Z_1 stays boundary-diagonal.
        graph = single_vertex_graph()
        lists = {"p1": ["1/2", "3/2"], "p2": ["1/2"], "p3": ["1/2"], "p4": ["1/2"]}
        family = single_vertex_family(graph, lists)
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        table = model.partition_table()
        dims = []
        for tw in (1, 3):
            sec = SpinSector.make(
                graph, {"p1": Spin(tw), "p2": "1/2", "p3": "1/2", "p4": "1/2"}
            )
            d_i = intertwiner_dim(sec.vertex_spins("x"))
            assert d_i > 0
            d_o = Spin(tw).dim * 8
            dims.append((d_i, d_o))
        z0_expected = sum(di * do for di, do in dims) ** 2 + sum(
            di * do for di, do in dims
        )
        z1_expected = sum(di * do * (di + do) for di, do in dims)
        assert table.totals[0] == pytest.approx(z0_expected, rel=1e-12)
        assert table.totals[1] == pytest.approx(z1_expected, rel=1e-12)
        # Boundary-diagonal rows carry the printed per-sector sums.
        for row, (d_i, d_o) in zip(table.boundary_rows, dims):
            d_e = d_i * d_o
            assert row.z_bar[0] == pytest.approx(d_e**2 + d_e, rel=1e-12)
            assert row.z_bar[1] == pytest.approx(d_i * d_o * (d_i + d_o), rel=1e-12)
            assert row.y[0] == pytest.approx(1 + 1 / d_e, rel=1e-12)
            assert row.y[1] == pytest.approx(1 / d_i + 1 / d_o, rel=1e-12)


class TestMixedSectorConstraints:
    def setup_bulk_family(self):
        # Bulk superposition on the internal link: e in {0, 1} with equal
        # weight; boundary legs fixed at spin 1 so every sector is admissible.
        graph = bridge_graph()
        allowed = {
            "e": [0, 1],
            "a1": [1],
            "a2": [1],
            "a3": [1],
            "b1": [1],
            "b2": [1],
            "c": [1],
        }
        family = SectorFamily.build(graph, 0, 1, allowed=allowed, normalize=True)
        base = {"a1": 1, "a2": 1, "a3": 1, "b1": 1, "b2": 1, "c": 1}
        sec_j = SpinSector.make(graph, {**base, "e": 0})
        sec_k = SpinSector.make(graph, {**base, "e": 1})
        return graph, family, sec_j, sec_k

    def test_agreement_region_constraints(self):
        graph, family, sec_j, sec_k = self.setup_bulk_family()
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        # The sectors disagree on the internal link, so both vertex tuples
        # differ: the agreement region is empty.
        for bits in itertools.product((1, -1), repeat=2):
            cfg = config(graph, L=bits[0], R=bits[1])
            up = {v for v, s in cfg.sigma.items() if s > 0}
            down = {v for v, s in cfg.sigma.items() if s < 0}
            d1 = model.delta_factor(sec_j, sec_k, cfg, 1)
            d0 = model.delta_factor(sec_j, sec_k, cfg, 0)
            assert (d1 != 0.0) == (len(up) == 0)
            assert (d0 != 0.0) == (len(down) == 0)

    def test_z0_all_up_contributes_one(self):
        graph, family, sec_j, sec_k = self.setup_bulk_family()
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        cfg = config(graph, L=1, R=1)
        assert model.delta_factor(sec_j, sec_k, cfg, 0) == 1.0
        assert model.hamiltonian(sec_j, sec_k, cfg, 0) == 0.0
        assert model.partition_sum_fixed(sec_j, sec_k, 0) >= 1.0

    def test_forbidden_configuration_raises(self):
        graph, family, sec_j, sec_k = self.setup_bulk_family()
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        cfg = config(graph, L=1, R=-1)
        with pytest.raises(ContractViolation):
            model.hamiltonian(sec_j, sec_k, cfg, 1)

    def test_boundary_sum_row_matches_manual_loop(self):
        graph, family, sec_j, sec_k = self.setup_bulk_family()
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        boundary = {lid: 1 for lid in graph.boundary_ids()}
        sums = model.window_table([boundary]).boundary_rows[0]
        for replica in (0, 1):
            manual = 0.0
            for a in (sec_j, sec_k):
                for b in (sec_j, sec_k):
                    manual += (
                        model.k_factor(a).value
                        * model.k_factor(b).value
                        * model.partition_sum_fixed(a, b, replica)
                    )
            assert sums.z_bar[replica] == pytest.approx(manual, rel=1e-12)
            assert sums.y[replica] == pytest.approx(
                manual / sums.d_total**2, rel=1e-12
            )


class TestInvariants:
    def iter_pairs(self):
        graph = bridge_graph()
        allowed = {
            "e": ["1/2", "3/2"],
            "a1": ["1/2"],
            "a2": [1],
            "a3": [1],
            "b1": ["1/2"],
            "b2": ["1/2"],
            "c": ["1/2", "3/2"],
        }
        family = SectorFamily.build(graph, 0, 2, allowed=allowed, normalize=False)
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        sectors = list(model.sector_set().sectors)
        return graph, model, sectors

    def test_hamiltonian_bounds(self):
        graph, model, sectors = self.iter_pairs()
        for sec_j in sectors:
            for sec_k in sectors:
                for replica in (0, 1):
                    bound = sum(
                        math.log(sec_j.spin(lid).dim) for lid in graph.link_ids()
                    ) + sum(
                        math.log(max(intertwiner_dim(sec_j.vertex_spins(x)), 1))
                        for x in graph.vertices
                    )
                    for bits in itertools.product((1, -1), repeat=2):
                        cfg = config(graph, L=bits[0], R=bits[1])
                        delta = model.delta_factor(sec_j, sec_k, cfg, replica)
                        if delta == 0.0:
                            continue
                        h = model.hamiltonian(sec_j, sec_k, cfg, replica)
                        if math.isinf(h):
                            continue
                        assert 0.0 <= h <= bound + 1e-12

    def test_partition_bounds_and_interval(self):
        graph, model, sectors = self.iter_pairs()
        for sec_j in sectors:
            dim_i = 1
            for x in graph.vertices:
                dim_i *= intertwiner_dim(sec_j.vertex_spins(x))
            if dim_i == 0:
                continue
            z1 = model.partition_sum_fixed(sec_j, sec_j, 1)
            z0 = model.partition_sum_fixed(sec_j, sec_j, 0)
            purity = z1 / z0
            assert 1 / dim_i - 1e-12 <= purity <= 1 + 1e-12
            for replica, z in ((0, z0), (1, z1)):
                gs = model.ground_state(sec_j, sec_j, replica)
                n = len(graph.vertices)
                lower = gs.degeneracy * math.exp(-gs.energy)
                upper = 2**n * math.exp(-gs.energy)
                assert lower - 1e-12 <= z <= upper + 1e-12

    def test_pair_swap_symmetry(self):
        graph, model, sectors = self.iter_pairs()
        for sec_j in sectors:
            for sec_k in sectors:
                for replica in (0, 1):
                    a = model.partition_sum_fixed(sec_j, sec_k, replica)
                    b = model.partition_sum_fixed(sec_k, sec_j, replica)
                    assert a == pytest.approx(b, abs=1e-14)

    def test_single_sector_matches_standalone_network_model(self):
        """With one sector the engine must reproduce a fixed-bond-dimension
        network average, recomputed here from scratch."""
        graph = bridge_graph()
        spins = {"e": 1, "a1": "1/2", "a2": 1, "a3": "3/2", "b1": 1, "b2": 1, "c": 2}
        allowed = {lid: [sp] for lid, sp in spins.items()}
        family = SectorFamily.build(graph, 0, 2, allowed=allowed, normalize=False)
        sec = SpinSector.make(graph, spins)
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())

        bond = {lid: Spin.parse(sp).dim for lid, sp in spins.items()}
        bulk = {
            "L": intertwiner_dim(sec.vertex_spins("L")),
            "R": intertwiner_dim(sec.vertex_spins("R")),
        }
        incident = {
            "L": ["a1", "a2", "a3"],
            "R": ["b1", "b2", "c"],
        }

        def standalone(replica):
            field = -1 if replica == 1 else +1
            total = 0.0
            for sl, sr in itertools.product((1, -1), repeat=2):
                weight = 1.0
                if sl * sr < 0:
                    weight /= bond["e"]
                for v, s in (("L", sl), ("R", sr)):
                    if s < 0:  # boundary legs pinned up
                        for lid in incident[v]:
                            weight /= bond[lid]
                    if (1 - field * s) // 2 == 1:
                        weight /= bulk[v]
                total += weight
            return total

        for replica in (0, 1):
            assert model.partition_sum_fixed(sec, sec, replica) == pytest.approx(
                standalone(replica), rel=1e-12
            )


# Parameters of the bridge bulk state, chosen weakly diagonally dominant
# (guaranteed positive semidefinite) with unit trace.
A, D, W = 0.3, 0.25, 0.45
B = 0.1 + 0.05j
U, V = 0.12 - 0.03j, 0.08 + 0.1j


class TestBoundaryToBoundary:
    def make_model(self, s=1):
        graph = bridge_graph()
        family = bridge_family(graph, s)
        sec_low, sec_high = bridge_sectors(graph, s)
        state = bridge_state(graph, (sec_low, sec_high), A, D, B, U, V, W)
        kind = ModelKind.boundary_to_boundary(
            BoundaryPartition.from_input(graph, ["c"])
        )
        model = IsingModel(graph, family, kind, state=state)
        return graph, model, sec_low, sec_high

    def logs(self, s):
        return (
            math.log(2 * s + 1),
            math.log(6 * s + 1),
            math.log(6 * s - 1),
        )

    def test_needs_state(self):
        graph = bridge_graph()
        family = bridge_family(graph, 1)
        kind = ModelKind.boundary_to_boundary(
            BoundaryPartition.from_input(graph, ["c"])
        )
        with pytest.raises(EngineError, match="state"):
            IsingModel(graph, family, kind)

    def test_mixed_delta_patterns(self):
        graph, model, sec_low, sec_high = self.make_model()
        allowed_1 = {(1, -1), (-1, -1)}
        allowed_0 = {(1, 1), (-1, 1)}
        for bits in itertools.product((1, -1), repeat=2):
            cfg = config(graph, L=bits[0], R=bits[1])
            d1 = model.delta_factor(sec_low, sec_high, cfg, 1)
            d0 = model.delta_factor(sec_low, sec_high, cfg, 0)
            assert (d1 != 0.0) == (bits in allowed_1)
            assert (d0 != 0.0) == (bits in allowed_0)

    def test_diagonal_deltas_are_unity(self):
        graph, model, sec_low, sec_high = self.make_model()
        for sec in (sec_low, sec_high):
            for bits in itertools.product((1, -1), repeat=2):
                cfg = config(graph, L=bits[0], R=bits[1])
                for replica in (0, 1):
                    assert model.delta_factor(sec, sec, cfg, replica) == (
                        pytest.approx(1.0)
                    )

    def test_hamiltonian_cells(self):
        graph, model, sec_low, sec_high = self.make_model()
        l2, l6p, l6m = self.logs(1)
        s2 = -math.log((A**2 + D**2 + 2 * abs(B) ** 2) / (A + D) ** 2)
        sigma_q = -math.log((abs(U) ** 2 + abs(V) ** 2) / (W * (A + D)))
        cases = [
            (sec_low, sec_low, (1, 1), 1, l6m),
            (sec_low, sec_low, (1, -1), 1, 3 * l2 + s2),
            (sec_low, sec_low, (-1, 1), 1, 3 * l2 + l6p + l6m),
            (sec_low, sec_low, (-1, -1), 1, 4 * l2 + l6p + s2),
            (sec_low, sec_low, (1, -1), 0, 3 * l2 + l6m + s2),
            (sec_low, sec_low, (-1, 1), 0, 3 * l2 + l6p),
            (sec_high, sec_high, (-1, -1), 1, 4 * l2 + l6p),
            (sec_high, sec_high, (1, -1), 0, 3 * l2 + l6p),
            (sec_low, sec_high, (1, -1), 1, 3 * l2 + sigma_q),
            (sec_low, sec_high, (-1, -1), 1, 4 * l2 + l6p + sigma_q),
            (sec_low, sec_high, (1, 1), 0, 0.0),
            (sec_low, sec_high, (-1, 1), 0, 3 * l2 + l6p),
        ]
        for sec_a, sec_b, bits, replica, expected in cases:
            cfg = config(graph, L=bits[0], R=bits[1])
            assert model.hamiltonian(sec_a, sec_b, cfg, replica) == pytest.approx(
                expected, abs=1e-12
            )

    def test_partition_sums_against_closed_forms(self):
        graph, model, sec_low, sec_high = self.make_model()
        l2, l6p, l6m = self.logs(1)
        t = (A**2 + D**2 + 2 * abs(B) ** 2) / (A + D) ** 2
        q = (abs(U) ** 2 + abs(V) ** 2) / (W * (A + D))
        e = math.exp
        expected = {
            (0, "low"): 1
            + e(-3 * l2 - l6m) * t
            + e(-3 * l2 - l6p)
            + e(-4 * l2 - l6m - l6p) * t,
            (1, "low"): e(-l6m)
            + e(-3 * l2) * t
            + e(-3 * l2 - l6p - l6m)
            + e(-4 * l2 - l6p) * t,
            (0, "high"): 1 + 2 * e(-3 * l2 - l6p) + e(-4 * l2 - 2 * l6p),
            (1, "high"): e(-l6p)
            + e(-3 * l2)
            + e(-3 * l2 - 2 * l6p)
            + e(-4 * l2 - l6p),
            (0, "cross"): 1 + e(-3 * l2 - l6p),
            (1, "cross"): q * (e(-3 * l2) + e(-4 * l2 - l6p)),
        }
        pairs = {
            "low": (sec_low, sec_low),
            "high": (sec_high, sec_high),
            "cross": (sec_low, sec_high),
        }
        for (replica, name), value in expected.items():
            sec_a, sec_b = pairs[name]
            got = model.partition_sum_fixed(sec_a, sec_b, replica)
            assert got == pytest.approx(value, rel=1e-12), (replica, name)

    def test_k_factors(self):
        graph, model, sec_low, sec_high = self.make_model()
        # d = 3 on four legs, 7 on the 3s leg, and 5 or 7 on leg c.
        assert model.k_factor(sec_low).value == pytest.approx(
            81 * 7 * 5 * (A + D), rel=1e-12
        )
        assert model.k_factor(sec_high).value == pytest.approx(
            81 * 49 * W, rel=1e-12
        )

    def test_swap_with_conjugated_state(self):
        graph, model, sec_low, sec_high = self.make_model()
        family = bridge_family(graph, 1)
        # The bridge state has density blocks only: conjugate each one.
        state = model.state
        blocks = {key: blk.conj() for key, blk in state.blocks.items()}
        conjugated = IntertwinerState(graph=state.graph, sectors=state.sectors, blocks=blocks)
        conj = IsingModel(graph, family, model.kind, state=conjugated)
        for replica in (0, 1):
            assert model.partition_sum_fixed(
                sec_low, sec_high, replica
            ) == pytest.approx(
                conj.partition_sum_fixed(sec_high, sec_low, replica), rel=1e-12
            )

    def test_ground_state_of_infeasible_pair(self):
        # Restricting the family to configurations where the cross pair has
        # no allowed configuration is impossible here, so emulate one: the
        # numerator of the swapped replica forbids spin-up on the right
        # vertex, and a state without cross blocks kills the rest.
        graph = bridge_graph()
        family = bridge_family(graph, 1)
        sec_low, sec_high = bridge_sectors(graph, 1)
        state = bridge_state(graph, (sec_low, sec_high), A, D, B, 0.0, 0.0, W)
        kind = ModelKind.boundary_to_boundary(
            BoundaryPartition.from_input(graph, ["c"])
        )
        model = IsingModel(graph, family, kind, state=state)
        gs = model.ground_state(sec_low, sec_high, 1)
        assert not gs.feasible
        assert gs.degeneracy == 0
        assert model.partition_sum_fixed(sec_low, sec_high, 1) == 0.0

    def test_boundary_dimensions_are_read_on_demand(self, monkeypatch):
        """A boundary-to-boundary table over a one-sector state needs only
        that sector for its kernels and totals; D_I of its boundary key
        enumerates the family's bulk box (four spins of e), which the guard
        refuses, and is first asked for when a dimension view is read."""
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
        legs = {lid: ["1/2"] for lid in ("a1", "a2", "c1", "c2")}
        family = SectorFamily.build(graph, "1/2", "2", allowed={**legs, "e": ["1/2", "1", "3/2", "2"]})
        sector = SpinSector.make(graph, {"e": "1", **{lid: "1/2" for lid in legs}})
        state = IntertwinerState.from_pure(graph, {sector: np.ones(1)})
        kind = ModelKind.boundary_to_boundary(BoundaryPartition.from_input(graph, ["a1"]))
        model = IsingModel(graph, family, kind, state=state)
        reference = model.partition_table()
        assert reference.d_total == [16]
        monkeypatch.setattr(spins, "SECTOR_LIMIT", 3)
        table = model.partition_table()
        assert table.z.tobytes() == reference.z.tobytes()
        assert [float(v).hex() for v in table.totals] == [float(v).hex() for v in reference.totals]
        assert table.log_totals == reference.log_totals
        assert table.z_bar == reference.z_bar
        for read in (
            lambda: table.d_total,
            lambda: table.y,
            lambda: table.boundary_rows,
            lambda: table.to_json_dict(),
            lambda: model.window_table([{lid: "1/2" for lid in legs}]).boundary_rows[0],
        ):
            with pytest.raises(SectorEnumerationError, match="4 sectors exceed the guard of 3"):
                read()


def refused_calls():
    """{case: call} for each input the engine cannot use: bulk-to-boundary
    models of the bridge, and one sector of the four-leg vertex, a graph of
    its own."""
    graph = bridge_graph()
    family = bridge_family(graph, 1)
    low, high = bridge_sectors(graph, 1)
    state = bridge_state(graph, (low, high), A, D, B, U, V, W)
    bulk = ModelKind.bulk_to_boundary()
    model = IsingModel(graph, family, bulk)
    legs = four_leg_graph()
    leg_family = two_sector_vertex_family(legs)
    foreign = next(spins.enumerate_sectors(leg_family, legs))
    return {
        "bulk_kind_with_state": lambda: IsingModel(graph, family, bulk, state=state),
        "replica_2": lambda: model.partition_sum_fixed(low, high, 2),
        "j_of_another_graph": lambda: model.partition_sum_fixed(foreign, low, 0),
        "k_of_another_graph": lambda: model.ground_state(low, foreign, 1),
        "sector_set_of_another_graph": lambda: model.sector_set([low, foreign]),
        "unknown_kind": lambda: ModelKind("bogus"),
        "boundary_kind_without_partition": lambda: ModelKind.boundary_to_boundary(None),
        "bulk_kind_with_partition": lambda: ModelKind(
            ModelKind.BULK_TO_BOUNDARY, BoundaryPartition.from_input(graph, ["c"])
        ),
    }


REFUSALS = {
    "bulk_kind_with_state": "bulk-to-boundary model reads no bulk state; pass state=None",
    "replica_2": "replica must be 0 or 1, got 2",
    "j_of_another_graph": "sector j belongs to a different graph",
    "k_of_another_graph": "sector k belongs to a different graph",
    "sector_set_of_another_graph": "sector belongs to a different graph",
    "unknown_kind": "unknown model kind 'bogus'; expected one of ('bulk_to_boundary', 'boundary_to_boundary')",
    "boundary_kind_without_partition": "boundary-to-boundary kind needs a boundary partition",
    "bulk_kind_with_partition": "bulk-to-boundary kind has no boundary partition; pass partition=None",
}


class TestRefusals:
    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_unusable_input_raises_its_name(self, case):
        with pytest.raises(EngineError, match=f"^{re.escape(REFUSALS[case])}$"):
            refused_calls()[case]()


class TestTableSerialization:
    def make_table(self):
        graph = single_vertex_graph()
        lists = {"p1": ["1/2", "3/2"], "p2": ["1/2"], "p3": ["1/2"], "p4": ["1/2"]}
        family = single_vertex_family(graph, lists)
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        return model.partition_table()

    def test_json_round_trip(self):
        table = self.make_table()
        data = json.loads(json.dumps(table.to_json_dict(), allow_nan=False))
        assert data["totals"]["Z_0"] == pytest.approx(table.totals[0])
        assert data["totals"]["Z_1"] == pytest.approx(table.totals[1])
        # Cross-boundary numerator pairs are infeasible: null minima.
        infeasible = [
            r for r in data["rows"] if r["replica"] == 1 and r["Z"] == 0.0
        ]
        assert infeasible
        assert all(r["E_min"] is None for r in infeasible)

    def test_repeated_table_is_identical(self):
        graph = single_vertex_graph()
        lists = {"p1": ["1/2", "3/2"], "p2": ["1/2"], "p3": ["1/2"], "p4": ["1/2"]}
        family = single_vertex_family(graph, lists)
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        first = model.partition_table()
        second = model.partition_table()
        fresh = IsingModel(graph, family, ModelKind.bulk_to_boundary()).partition_table()
        assert first.totals == second.totals == fresh.totals
        assert first.rows == second.rows == fresh.rows

    def test_exhaustive_limit(self, monkeypatch):
        graph = bridge_graph()
        family = bridge_family(graph, 1)
        sec_low, _ = bridge_sectors(graph, 1)
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        monkeypatch.setattr(ising, "EXHAUSTIVE_LIMIT", 1)
        with pytest.raises(EngineError, match="2 vertices exceed EXHAUSTIVE_LIMIT = 1; "):
            model.partition_sum_fixed(sec_low, sec_low, 0)


# -- compiled kernels against configuration-by-configuration evaluation ----


def brute_force(model, j, k, replica):
    """(z, E_min, degeneracy, gap, representative) from the reference
    scorer alone."""
    pos, neg, found = [], [], []
    for cfg in reference.configurations(model):
        delta, energy = reference.evaluate(model, j, k, cfg, replica)
        if delta == 0.0 or energy is None:
            continue
        # An infinite energy (an active vertex without intertwiners) is a
        # term e^-inf = 0 of the sum, never a ground state.
        (pos if delta > 0 else neg).append(math.log(abs(delta)) - energy)
        if not math.isinf(energy):
            found.append((energy, cfg))
    z = reference.signed_sum(pos, neg)[0]
    if not found:
        return z, math.inf, 0, math.inf, None
    e_min = min(e for e, _ in found)
    ties = [cfg for e, cfg in found if e - e_min <= TIE_TOL]
    rep = min(ties, key=lambda cfg: tuple(sorted(x for x, s in cfg.values if s < 0)))
    above = [e for e, _ in found if e - e_min > TIE_TOL]
    gap = (min(above) - e_min) if above else math.inf
    return z, e_min, len(ties), gap, rep


def chain_graph(nv, legs=1):
    """Chain of (2 + legs)-valent vertices: port 0 left, port 1 right, and
    boundary legs t (port 2) and, with legs=2, u (port 3)."""
    links = [
        {"id": f"e{i}", "ends": [[f"v{i - 1}", 1], [f"v{i}", 0]]} for i in range(1, nv)
    ]
    links += [{"id": "l", "end": ["v0", 0]}, {"id": "r", "end": [f"v{nv - 1}", 1]}]
    for port, name in zip((2, 3), "tu"[:legs]):
        links += [{"id": f"{name}{i}", "end": [f"v{i}", port]} for i in range(nv)]
    vertices = [{"id": f"v{i}", "valence": 2 + legs} for i in range(nv)]
    return build_graph({"vertices": vertices, "links": links})


def hexed(z, e_min, degeneracy, gap, *rep):
    """A kernel's (z, E_min, degeneracy, gap), floats by `float.hex`, and
    any representative after them, for comparing bits."""
    return (float(z).hex(), float(e_min).hex(), int(degeneracy), float(gap).hex(), *rep)


def single_kernel(model, j, k, replica):
    """`hexed` of `model._kernel(j, k, replica)`, its representative last."""
    z, ground = model._kernel(j, k, replica)
    return hexed(z, ground.energy, ground.degeneracy, ground.gap, ground.config)


class TestCompiledKernel:
    def assert_matches(self, model, sectors):
        """Every ordered pair and replica agrees bit for bit."""
        for j, k in itertools.product(sectors, repeat=2):
            for replica in (0, 1):
                assert single_kernel(model, j, k, replica) == hexed(*brute_force(model, j, k, replica))

    def test_random_instances(self):
        """The first six default sectors of each draw of one to three
        vertices."""
        seen = dict.fromkeys(("zero_dim", "mismatched"), 0)

        @settings(max_examples=12)
        @given(bulk_instances(st.integers(1, 3)))
        def check(drawn):
            graph, family = drawn
            model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
            sectors = model.sector_set().sectors[:6]
            self.assert_matches(model, sectors)
            found = kernel_coverage(model, sectors, model._bulk_kernels(model.sector_set(sectors)))
            for key in seen:
                seen[key] += found[key]

        check()
        assert all(seen.values()), seen

    def test_boundary_to_boundary_single_pass(self):
        @settings(max_examples=3)
        @given(boundary_instances())
        def check(drawn):
            graph, family, state, part, _ = drawn
            model = IsingModel(graph, family, ModelKind.boundary_to_boundary(part), state=state)
            self.assert_matches(model, model.sector_set().sectors)

        check()

    def test_public_methods_wrap_the_kernel(self):
        graph = bridge_graph()
        family = bridge_family(graph, 1)
        low, high = bridge_sectors(graph, 1)
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        for replica in (0, 1):
            z, ground = model._kernel(low, high, replica)
            assert model.partition_sum_fixed(low, high, replica) == z
            assert model.ground_state(low, high, replica) == ground

    def test_one_pass_per_single_pair_query(self, monkeypatch):
        """`ground_state` and `partition_sum_fixed` make one
        `_boundary_entries` pass each in the boundary-to-boundary kind, and
        no `_bulk_kernels` call in the bulk-to-boundary kind, on feasible
        cells (the diagonal ones) and on infeasible ones."""
        graph, boundary, low, high = TestBoundaryToBoundary().make_model()
        bulk = IsingModel(graph, boundary.family, ModelKind.bulk_to_boundary())
        passes = []

        def counted(method):
            def call(self, *args):
                passes.append(method.__name__)
                return method(self, *args)

            return call

        for name in ("_boundary_entries", "_bulk_kernels"):
            monkeypatch.setattr(IsingModel, name, counted(getattr(IsingModel, name)))
        for model, per_query in ((boundary, ["_boundary_entries"]), (bulk, [])):
            for (j, k), replica in itertools.product(((low, low), (low, high)), (0, 1)):
                for query in (model.ground_state, model.partition_sum_fixed):
                    passes.clear()
                    query(j, k, replica)
                    assert passes == per_query
            assert all(model.ground_state(low, low, replica).feasible for replica in (0, 1))

    def test_boundary_query_walks_its_own_cell(self, monkeypatch):
        """A boundary-to-boundary single-pair query takes the traced blocks
        of its own (pair, replica) alone, each once: the distinct blocks
        that the reference scorer takes over the same cell."""
        graph, model, low, high = TestBoundaryToBoundary().make_model()
        traced_block = IntertwinerState.traced_block
        calls = []

        def record(self, ket, bra, keep):
            calls.append((frozenset(keep), ket.key(), bra.key()))
            return traced_block(self, ket, bra, keep)

        monkeypatch.setattr(IntertwinerState, "traced_block", record)
        for (j, k), replica in itertools.product(((low, high), (high, low), (low, low)), (0, 1)):
            calls.clear()
            for cfg in reference.configurations(model):
                reference.evaluate(model, j, k, cfg, replica)
            walked = set(calls)
            calls.clear()
            model.ground_state(j, k, replica)
            assert len(calls) == len(set(calls))
            assert set(calls) == walked

    def test_bulk_query_prices_one_sector(self, monkeypatch):
        """A bulk-to-boundary single-pair query, and a one-configuration
        view, prices the energies of sector j alone, in the asked replica
        alone."""
        model = six_vertex_chain_model()
        sectors = model.sector_set().sectors
        pairs = [(sectors[0], sectors[0]), (sectors[0], sectors[-1]), (sectors[-1], sectors[1])]
        priced = []
        energies = IsingModel._bulk_energies

        def spy(sector_set, cut, actives):
            priced.append((len(sector_set), len(actives)))
            return energies(sector_set, cut, actives)

        monkeypatch.setattr(IsingModel, "_bulk_energies", staticmethod(spy))
        config = model._config(5)
        for (j, k), replica in itertools.product(pairs, (0, 1)):
            model.partition_sum_fixed(j, k, replica)
            model.ground_state(j, k, replica)
            model.delta_factor(j, k, config, replica)
        assert priced == [(1, 1)] * 3 * len(pairs) * 2


# -- the batched evaluator and its scaled sums -----------------------------


class TestScaledSums:
    """`_scaled_sums` sums every bucket at once with the bits of
    `reference.signed_sum` on that bucket alone."""

    def buckets(self, rng):
        """Signed buckets of lengths 0-20 and around numpy's 8-wide
        unrolled sums, its 128-entry pairwise blocks and 1024: plain draws,
        tied maxima, wide spreads, one-signed buckets, terms e^-inf = 0,
        an exactly cancelling bucket and totals past float64."""
        lengths = [*range(21), *range(21), 127, 128, 129, 255, 256, 257, 1023, 1024, 1025]
        for n in rng.permutation(lengths).tolist():
            logs = rng.normal(size=n) * rng.choice([0.5, 40.0, 2000.0])
            negative = rng.random(n) < rng.choice([0.0, 0.3, 1.0])
            if n > 3 and rng.random() < 0.3:
                logs[rng.integers(0, n, size=n // 3)] = logs.max()
            if n > 1 and rng.random() < 0.2:
                logs[rng.integers(0, n, size=n // 2)] = -math.inf
            yield logs, negative
        yield np.array([3.0, 3.0]), np.array([False, True])
        yield np.array([-math.inf, -math.inf]), np.array([False, True])
        yield np.array([800.0, 1.0, 799.0]), np.array([False, False, True])
        yield np.array([800.0, 800.0]), np.array([True, False])

    def test_matches_the_one_bucket_rule(self):
        rng = np.random.default_rng(43)
        seen = dict.fromkeys(("cancel", "zero_terms", "overflow", "signed", "long"), 0)
        buckets = list(self.buckets(rng))
        # The buckets' terms interleaved at random, each kept in its order.
        owner = rng.permutation(np.repeat(np.arange(len(buckets)), [len(logs) for logs, _ in buckets]))
        logs, negative = np.empty(len(owner)), np.empty(len(owner), dtype=bool)
        for b, (terms, signs) in enumerate(buckets):
            logs[owner == b], negative[owner == b] = terms, signs
        total, sign, log, cancellation = _scaled_sums(owner, logs, negative, len(buckets))
        for b, (terms, signs) in enumerate(buckets):
            want_total, (want_sign, want_log), want_cancellation = reference.signed_sum(terms[~signs], terms[signs])
            got = (total[b].hex(), int(sign[b]), log[b].hex(), cancellation[b].hex())
            assert got == (want_total.hex(), want_sign, want_log.hex(), want_cancellation.hex()), b
            seen["cancel"] += len(terms) > 0 and sign[b] == 0 and cancellation[b] == math.inf
            seen["zero_terms"] += np.isneginf(terms).any()
            seen["overflow"] += math.isinf(total[b]) and math.isfinite(log[b])
            seen["signed"] += signs.any() and not signs.all()
            seen["long"] += len(terms) > 1000
        assert all(seen.values()), seen
        assert not np.isnan(np.concatenate([total, log, cancellation])).any()


def six_vertex_chain_model():
    """A chain of six 3-valent vertices.  Spin-0 islands at both ends make
    flips free there, so ground states tie; the superposed middle link
    reaches an empty intertwiner space at spin 3, and the half-integer leg
    at spin 1/2."""
    graph = chain_graph(6)
    allowed = {lid: ["1"] for lid in graph.link_ids()}
    allowed.update({lid: ["0"] for lid in ("l", "t0", "e1", "e5", "r", "t5")})
    allowed.update({"e3": ["1", "2", "3"], "t1": ["1/2", "1"]})
    family = SectorFamily.build(graph, "0", "3", allowed=allowed, normalize=False)
    return IsingModel(graph, family, ModelKind.bulk_to_boundary())


def near_tie_chain_model():
    """A chain of four 4-valent vertices whose half-integer and integer
    legs give sums of logs that tie up to rounding, so a different
    summation order or an exact tie test would change bits or tie counts
    here."""
    graph = chain_graph(4, legs=2)
    allowed = {lid: ["1"] for lid in graph.link_ids()}
    allowed.update({lid: ["1/2"] for lid in ("e2", "t2", "u0", "u2")})
    allowed.update({"e1": ["1", "2"], "r": ["1/2", "3/2"], "u1": ["3/2"]})
    family = SectorFamily.build(graph, "1/2", "2", allowed=allowed, normalize=False)
    return IsingModel(graph, family, ModelKind.bulk_to_boundary())


def allowed_count(model, j, k, replica):
    """How many configurations of (j, k) in `replica` have Delta != 0 and a
    finite energy, from the reference scorer alone."""
    found = (reference.evaluate(model, j, k, cfg, replica) for cfg in reference.configurations(model))
    return sum(d != 0.0 and e is not None and not math.isinf(e) for d, e in found)


def count_class_chain_model(extra=None):
    """A 4-valent chain of five vertices with e2 over {1, 2} and t3 over
    {1/2, 3/2}: the difference sets {}, {e2}, {t3} and {e2, t3} allow 32,
    16, 8, 4 or no configurations.  The other spins vary from link to link,
    so that kernel sums are sensitive to their order.  `extra` adds
    allowed spins."""
    graph = chain_graph(5, legs=2)
    spins = "l=3/2 e1=5/2 e3=3/2 e4=1 r=2 t0=1/2 t1=1/2 t2=5/2 t4=5/2 u0=3/2 u1=1 u2=2 u3=1 u4=1/2"
    allowed = {lid: [spin] for lid, spin in (item.split("=") for item in spins.split())}
    allowed.update({"e2": ["1", "2"], "t3": ["1/2", "3/2"]}, **(extra or {}))
    family = SectorFamily.build(graph, "1/2", "8", allowed=allowed, normalize=False)
    return IsingModel(graph, family, ModelKind.bulk_to_boundary())


def kernel_coverage(model, sectors, kernels):
    """How many (pair, replica) cells of `kernels` (a `_PairKernels` of
    `sectors`) have a sector j with a zero-intertwiner vertex, a mismatched
    pair, a tied ground state, and a tied ground state represented by a
    configuration with spin-down vertices."""
    seen = dict.fromkeys(("zero_dim", "mismatched", "ties", "tied_down_rep"), 0)
    for (a, j), (b, k) in itertools.product(enumerate(sectors), repeat=2):
        for replica in (0, 1):
            tied = kernels.degeneracy[a, b, replica] > 1
            seen["zero_dim"] += any(intertwiner_dim(j.vertex_spins(x)) == 0 for x in model.graph.vertices)
            seen["mismatched"] += j != k
            seen["ties"] += tied
            seen["tied_down_rep"] += tied and any(s < 0 for _, s in model.ground_state(j, k, replica).config.values)
    return seen


def assert_kernels_match(model, sectors, kernels):
    """Every ordered pair of `sectors` and replica of `kernels` (a
    `_PairKernels`) has the bits of `brute_force`, and so has the pair's
    single kernel `_kernel`, its representative included."""
    for (a, j), (b, k) in itertools.product(enumerate(sectors), repeat=2):
        for replica in (0, 1):
            want = hexed(*brute_force(model, j, k, replica))
            assert hexed(*kernels.at((a, b, replica))) == want[:4]
            assert single_kernel(model, j, k, replica) == want


class TestBatchedKernels:
    """`_bulk_kernels` on whole sector lists, pair by pair, against the
    per-configuration `brute_force`."""

    def assert_matches(self, model, sectors):
        """Returns the number of distinct sets of differing links."""
        assert_kernels_match(model, sectors, model._bulk_kernels(model.sector_set(sectors)))
        links = model.graph.link_ids()
        return len({tuple(j.spin(lid) != k.spin(lid) for lid in links) for j in sectors for k in sectors})

    def test_random_instances(self):
        """Every default sector of each draw of one to three vertices; the
        draws meet at least two whose sectors differ on two links
        independently (four sets of differing links)."""
        sets = []

        @settings(max_examples=32)
        @given(bulk_instances(st.integers(1, 3), max_dim=None))
        def check(drawn):
            graph, family = drawn
            model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
            sets.append(self.assert_matches(model, model.sector_set().sectors))

        check()
        assert sets.count(4) >= 2, sets

    def test_six_vertex_chain(self):
        model = six_vertex_chain_model()
        sectors = model.sector_set().sectors
        assert len(sectors) == 6
        assert self.assert_matches(model, sectors) == 4
        seen = kernel_coverage(model, sectors, model._bulk_kernels(model.sector_set(sectors)))
        assert all(seen.values()), seen

    def test_near_ties(self):
        model = near_tie_chain_model()
        sectors = model.sector_set().sectors
        assert len(sectors) == 4
        assert self.assert_matches(model, sectors) == 4

    def test_rows_with_empty_intertwiners(self):
        """Spin 3 on leg t2 (or spin 0 on t1 next to spins 1/2 and 3/2)
        leaves a vertex without intertwiners, so some energy rows mix finite
        and infinite entries.  Summing such a row with its infinite entries
        as zeros moves the finite ones to other pairwise-sum slots and
        changes bits; the evaluator drops them row by row."""
        graph = chain_graph(3)
        allowed = {"e1": ["1/2"], "e2": ["3/2"], "l": ["1"], "r": ["1/2"], "t0": ["3/2"]}
        allowed.update({"t1": ["0", "1"], "t2": ["1", "3"]})
        family = SectorFamily.build(graph, "0", "3", allowed=allowed, normalize=False)
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        sectors = model.sector_set().sectors
        assert any(
            intertwiner_dim(sec.vertex_spins(x)) == 0
            for sec in sectors
            for x in graph.vertices
        )
        assert self.assert_matches(model, sectors) == 4

    def test_empty_sector_list(self):
        """Spins (1, 1, 3) leave v0 without intertwiners: every sector has
        K = 0, so the table has no rows and zero totals."""
        graph = chain_graph(2)
        allowed = {lid: ["1"] for lid in graph.link_ids()}
        allowed["t0"] = ["3"]
        family = SectorFamily.build(graph, "1", "3", allowed=allowed, normalize=False)
        table = IsingModel(graph, family, ModelKind.bulk_to_boundary()).partition_table()
        assert table.rows == () and table.k_factors == () and table.boundary_rows == ()
        assert table.totals == (0.0, 0.0)

    def test_count_classes(self):
        """Rows of different difference sets share count classes, and
        several classes hold rows of 8 or more entries.  There, summing a
        row padded with zeros to the full 2^V width, or summing its entries
        in sequence, would change the kernel's bits."""
        model = count_class_chain_model()
        sectors = model.sector_set().sectors
        counts = {
            allowed_count(model, j, k, replica)
            for j, k in itertools.product(sectors, repeat=2)
            for replica in (0, 1)
        }
        assert counts == {0, 4, 8, 16, 32}
        assert self.assert_matches(model, sectors) == 4

    def test_infeasible_rows_beside_feasible_ones(self):
        """In replica 1 the set {t3} allows nothing: t3 stays uncut only
        with v3 up, and its flip needs v3 inactive, that is down.  Those
        rows reduce to no configuration while other rows of the same
        replica, the diagonal ones among them, do not.  Spin 8 on u4 leaves
        v4 without intertwiners, so that sector's rows also drop every
        configuration with v4 active, and its list differs from its set's
        other rows."""
        model = count_class_chain_model({"u4": ["1/2", "8"]})
        sectors = model.sector_set().sectors
        empty = [a for a, sec in enumerate(sectors) if intertwiner_dim(sec.vertex_spins("v4")) == 0]
        assert 0 < len(empty) < len(sectors)
        assert self.assert_matches(model, sectors) == 8
        kernels = model._bulk_kernels(model.sector_set(sectors))
        infeasible = [
            (a, b)
            for (a, j), (b, k) in itertools.product(enumerate(sectors), repeat=2)
            if {j.spin("t3"), k.spin("t3")} == {Spin.parse("1/2"), Spin.parse("3/2")}
        ]
        assert infeasible
        for a, b in infeasible:
            assert kernels.at((a, b, 1)) == (0.0, math.inf, 0, math.inf)
            assert kernels.z[a, b, 0] > 0.0
        assert (kernels.degeneracy[:, :, 1] > 0).any()
        # Diagonal pairs share the empty set of differing links; a sector
        # without intertwiners at v4 allows only the half with v4 inactive.
        full = [a for a in range(len(sectors)) if a not in empty]
        for replica in (0, 1):
            assert allowed_count(model, sectors[empty[0]], sectors[empty[0]], replica) == 16
            assert allowed_count(model, sectors[full[0]], sectors[full[0]], replica) == 32
        assert model.ground_state(sectors[empty[0]], sectors[empty[0]], 0).config.sigma["v4"] == 1

    def test_empty_sector_list_kernels(self):
        model = six_vertex_chain_model()
        kernels = model._bulk_kernels(model.sector_set([]))
        for field in (kernels.z, kernels.e_min, kernels.degeneracy, kernels.gap):
            assert field.shape == (0, 0, 2)

    def test_single_kernel_is_the_two_sector_case(self):
        """`_kernel`, one pass over the pair alone, has the bits of that
        pair's cell of the batched kernels of the whole list on both fixed
        chains, and `brute_force`'s representative."""
        for model in (six_vertex_chain_model(), near_tie_chain_model()):
            sectors = model.sector_set().sectors
            kernels = model._bulk_kernels(model.sector_set(sectors))
            for (a, j), (b, k) in itertools.product(enumerate(sectors), repeat=2):
                for replica in (0, 1):
                    at = (a, b, replica)
                    z, ground = model._kernel(j, k, replica)
                    assert z.hex() == float(kernels.z[at]).hex()
                    assert ground.energy.hex() == float(kernels.e_min[at]).hex()
                    assert ground.degeneracy == kernels.degeneracy[at]
                    assert ground.gap.hex() == float(kernels.gap[at]).hex()
                    assert ground.config == brute_force(model, j, k, replica)[4]

    def test_ties_break_by_sorted_down_ids(self):
        """The representative of tied ground states is the one whose sorted
        tuple of spin-down vertex ids is least, where the id order is not
        the graph's vertex order: the mixed pairs tie four configurations
        in replica 1, and the least is --+-+ (down set {a, b, d}), where a
        rule in graph order would give --+++."""
        ids = ["d", "b", "e", "a", "c"]
        graph = build_graph(
            {
                "vertices": [{"id": x, "valence": 3} for x in ids],
                "links": [{"id": f"l{p}", "ends": [[ids[p], 0], [ids[p + 1], 1]]} for p in range(4)]
                + [{"id": f"t{p}", "end": [x, 2]} for p, x in enumerate(ids)]
                + [{"id": "u0", "end": ["d", 1]}, {"id": "u4", "end": ["c", 0]}],
            }
        )
        allowed = {lid: ["1"] for lid in graph.link_ids()}
        allowed.update({"l0": ["1", "2"], "l2": ["0"], "l3": ["0"], "t3": ["0"]})
        family = SectorFamily.build(graph, "0", "2", allowed=allowed, normalize=False)
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        j, k = model.sector_set().sectors
        for a, b in ((j, k), (k, j)):
            ground = model.ground_state(a, b, 1)
            assert ground.degeneracy == 4
            assert ground.config.label() == "--+-+"
            assert ground.config == brute_force(model, a, b, 1)[4]

    @pytest.mark.parametrize("width", [0, 1, 5, 40, 64, 65, 130])
    def test_packed_grouping_matches_unique(self, width):
        # Keys wider than 64 bits span several words; repeated rows make
        # groups with more than one member.
        rng = np.random.default_rng(width)
        for rows, density in [(0, 0.5), (1, 0.5), (300, 0.1), (625, 0.5)]:
            keys = rng.random((rows, width)) < density
            keys[rows // 2 :] = keys[: rows - rows // 2]
            lists, group = _unique_bool_rows(keys)
            ref_lists, ref_group = np.unique(keys, axis=0, return_inverse=True)
            assert lists.dtype == bool
            assert np.array_equal(lists, ref_lists)
            assert np.array_equal(group, ref_group.reshape(-1))


# -- boundary-to-boundary kernels against brute force and the oracle --------


def sequential_sum(terms):
    """The sum of e^terms scaled as `reference.signed_sum` scales it, with
    the scaled terms added one after another, where numpy sums 8 or more
    in pairwise blocks."""
    top = terms.max()
    total = 0.0
    for value in np.exp(terms - top).tolist():
        total += value
    return float(np.exp(top) * total)


def assert_entries_match(model, sectors):
    """`_boundary_entries` of `sectors` lists exactly the (pair, replica,
    configuration) cells that the reference scorer allows, each with the
    bits of its cosine (Delta), of its weight's log and of its energy.
    Returns the cosines."""
    row, config, cos, log, energy = model._boundary_entries(model.sector_set(sectors))
    got = {
        (r, i): (cos.hex(), lg.hex(), h.hex())
        for r, i, cos, lg, h in zip(row.tolist(), config.tolist(), cos.tolist(), log.tolist(), energy.tolist())
    }
    assert len(got) == len(row)
    want = {}
    for (a, j), (b, k) in itertools.product(enumerate(sectors), repeat=2):
        for replica in (0, 1):
            r = (a * len(sectors) + b) * 2 + replica
            for i, cfg in enumerate(reference.configurations(model)):
                delta, h = reference.evaluate(model, j, k, cfg, replica)
                if delta:
                    want[r, i] = (delta.hex(), (math.log(abs(delta)) - h).hex(), h.hex())
    assert got == want
    return cos


class TestBoundaryKernels:
    """`_boundary_entries` and the kernels reduced from them on whole
    tables against the per-configuration reference scorer and
    `brute_force`.  The totals against the exact oracle are the gate's,
    `test_oracle.py::TestEngineEquivalence::test_random_instances_agree`."""

    def test_drawn_instances(self, monkeypatch):
        """On every draw: each kernel has the bits of `brute_force`, and
        the pass takes each traced block at most once per (configuration,
        ket, bra).  The draws have Hilbert spaces of at most 8,000; a
        second series draws three vertices only.  The draws cover pure and
        mixed states, cells with a negative cosine, three-vertex diagonal
        pairs that allow all 8 configurations, some of whose kernels a
        sequential sum of their terms would change, and tied ground states
        represented by a configuration with spin-down vertices."""
        names = ("pure", "mixed", "negative_cosine", "three_vertex_rows_of_8", "order_sensitive", "tied_down_rep")
        seen = dict.fromkeys(names, 0)
        traced_block = IntertwinerState.traced_block

        def check(drawn):
            graph, family, state, part, _ = drawn
            kind = ModelKind.boundary_to_boundary(part)
            model = IsingModel(graph, family, kind, state=state)
            calls = []

            def record(self, ket, bra, keep):
                calls.append((frozenset(keep), ket.key(), bra.key()))
                return traced_block(self, ket, bra, keep)

            with monkeypatch.context() as patch:
                patch.setattr(IntertwinerState, "traced_block", record)
                table = model.partition_table()
            assert len(calls) == len(set(calls))
            sectors = table.sectors.sectors
            assert_kernels_match(model, sectors, table._kernels)
            seen["tied_down_rep"] += kernel_coverage(model, sectors, table._kernels)["tied_down_rep"]
            seen["negative_cosine"] += int(np.count_nonzero(assert_entries_match(model, sectors) < 0))
            seen["pure" if state.amplitudes is not None else "mixed"] += 1
            if len(graph.vertices) < 3:
                return
            for j, replica in itertools.product(sectors, (0, 1)):
                found = (reference.evaluate(model, j, j, cfg, replica) for cfg in reference.configurations(model))
                logs = np.array([math.log(abs(delta)) - energy for delta, energy in found if delta])
                if len(logs) == 8:
                    seen["three_vertex_rows_of_8"] += 1
                    seen["order_sensitive"] += reference.signed_sum(logs, [])[0].hex() != sequential_sum(logs).hex()

        for vertex_counts, count in ((st.integers(1, 3), 60), (st.just(3), 40)):
            settings(max_examples=count)(given(boundary_instances(vertex_counts, max_dim=8000))(check))()
        assert all(seen.values()), seen

    def test_entries_where_a_block_vanishes_or_the_cosine_is_zero(self):
        """Sectors j and k differ on leg a3 at L only.  The state holds no
        (j, k) block, so where every vertex is down, replica 1 (input a3)
        allows the cut but the traced block (j, k) vanishes.  Their reduced
        states at R are orthogonal, so where L is up and R down, replica 0
        allows the cut but the two nonzero blocks have zero overlap.  The
        pass must drop both cells, as the reference scorer does."""
        graph = bridge_graph()
        allowed = {"e": ["1"], "a1": ["1"], "a2": ["1"], "a3": ["2", "3"], "b1": ["1"], "b2": ["1"], "c": ["2"]}
        family = SectorFamily.build(graph, "1", "3", allowed=allowed, normalize=False)
        spins = {lid: spin[0] for lid, spin in allowed.items()}
        j, k = (SpinSector.make(graph, {**spins, "a3": a3}) for a3 in "23")
        assert (vertex_block_dims(graph, j), vertex_block_dims(graph, k)) == ((2, 2), (1, 2))
        state = IntertwinerState.from_blocks(
            graph,
            [j, k],
            {(j, j): np.kron(np.eye(2) / 4, np.diag([1.0, 0.0])), (k, k): np.diag([0.0, 0.5])},
        )
        part = BoundaryPartition.from_input(graph, ["a3"])
        model = IsingModel(graph, family, ModelKind.boundary_to_boundary(part), state=state)
        all_down = IsingConfig.make(graph, {"L": -1, "R": -1})
        assert reference.cut_energy(model, j, k, all_down, 1) is not None
        assert not state.traced_block(j, k, ["L", "R"]).any()
        assert reference.evaluate(model, j, k, all_down, 1) == (0.0, None)
        up_down = IsingConfig.make(graph, {"L": 1, "R": -1})
        assert reference.cut_energy(model, j, k, up_down, 0) is not None
        b1, b2 = state.traced_block(j, j, ["R"]), state.traced_block(k, k, ["R"])
        assert b1.any() and b2.any() and np.trace(b1 @ b2) == 0.0
        assert reference.evaluate(model, j, k, up_down, 0) == (0.0, None)
        assert_entries_match(model, [j, k])

    def test_empty_lists(self):
        """No sector, or a pair the state does not hold."""
        graph = bridge_graph()
        low, high = bridge_sectors(graph, 1)
        state = bridge_state(graph, (low, high), 0.3, 0.2, 0.1, 0.1j, 0.05)
        part = BoundaryPartition.from_input(graph, ["c"])
        model = IsingModel(graph, bridge_family(graph, 1), ModelKind.boundary_to_boundary(part), state=state)
        table = model.partition_table([])
        assert table.z.shape == (0, 0, 2) and table.totals == (0.0, 0.0)
        other = SpinSector.make(graph, {**{lid: low.spin(lid) for lid in graph.link_ids()}, "a3": "1"})
        for replica in (0, 1):
            assert model._kernel(low, other, replica) == (0.0, GroundState(None, math.inf, 0, math.inf))

    def test_zero_trace_sector_reached_as_mixed_sector(self):
        """A state that is no density matrix: sector m has a traceless
        diagonal block but nonzero blocks with the others, so `weighted()`
        drops m from the table.  Pair (j, k) differs on leg a3 at L and on
        leg c at R; where L is up and R down its first mixed sector is m,
        and replica 1 allows it (input region {b1, b2, c}).  So the kernels
        must look mixed sectors up among the state's sectors, not the
        table's."""
        graph = bridge_graph()
        allowed = {"e": ["1"], "a1": ["1"], "a2": ["1"], "a3": ["2", "3"], "b1": ["1"], "b2": ["1"], "c": ["2", "3"]}
        family = SectorFamily.build(graph, "1", "3", allowed=allowed, normalize=False)
        spins = {lid: spin[0] for lid, spin in allowed.items()}
        j, k, m, n = (SpinSector.make(graph, {**spins, "a3": a3, "c": c}) for a3, c in ("22", "33", "23", "32"))
        rng = np.random.default_rng(5)
        sizes = {sec: math.prod(vertex_block_dims(graph, sec)) for sec in (j, k, m, n)}
        blocks = {
            (x, y): rng.normal(size=(sizes[x], sizes[y])) + 1j * rng.normal(size=(sizes[x], sizes[y]))
            for x, y in itertools.combinations([j, k, m, n], 2)
        }
        for sec in (j, k, n):
            r = rng.normal(size=(sizes[sec], 2))
            blocks[(sec, sec)] = r @ r.T
        assert sizes[m] == 2
        blocks[(m, m)] = np.array([[0.5, 0.25j], [-0.25j, -0.5]])
        # `from_blocks` refuses a state that is no density matrix, so the
        # constructor takes the blocks, each conjugate block filled in here.
        blocks = {(x.key(), y.key()): np.asarray(blk, dtype=complex) for (x, y), blk in blocks.items()}
        blocks.update({(y, x): blk.conj().T.copy() for (x, y), blk in list(blocks.items()) if x != y})
        state = IntertwinerState(graph, (j, k, m, n), blocks)
        part = BoundaryPartition.from_input(graph, ["b1", "b2", "c"])
        model = IsingModel(graph, family, ModelKind.boundary_to_boundary(part), state=state)
        table = model.partition_table()
        assert table.sectors.sectors == (j, k, n)
        delta, _ = reference.evaluate(model, j, k, IsingConfig.make(graph, {"L": 1, "R": -1}), 1)
        assert delta != 0.0
        assert_kernels_match(model, table.sectors.sectors, table._kernels)


# -- the one-configuration views against the reference scorer ---------------


def assert_views_match(model, sectors, seen):
    """`delta_factor` and `hamiltonian` of every (pair, replica,
    configuration) of `sectors` have the bits of the reference scorer, and
    `hamiltonian` raises `ContractViolation` exactly where Delta = 0.
    Counts the forbidden cells, the cells with H = +inf and those with a
    negative Delta in `seen`."""
    for j, k in itertools.product(sectors, repeat=2):
        for replica, cfg in itertools.product((0, 1), reference.configurations(model)):
            delta, energy = reference.evaluate(model, j, k, cfg, replica)
            assert model.delta_factor(j, k, cfg, replica).hex() == float(delta).hex()
            if delta == 0.0:
                with pytest.raises(ContractViolation, match=re.escape(f"forbidden configuration {cfg.label()} (replica {replica})")):
                    model.hamiltonian(j, k, cfg, replica)
                seen["forbidden"] += 1
                continue
            assert model.hamiltonian(j, k, cfg, replica).hex() == float(energy).hex()
            seen["infinite"] += math.isinf(energy)
            seen["negative"] += delta < 0.0


class TestViews:
    """`delta_factor` and `hamiltonian` read one configuration of the
    batched passes; the reference scorer of `ising_reference` checks them
    cell by cell."""

    def test_drawn_bulk_instances(self):
        """Every default sector of each draw (of one to three vertices, with
        a Hilbert space of at most 600), those without intertwiners at some
        vertex included: active there, they give Delta = 1 and H = +inf."""
        seen = dict.fromkeys(("forbidden", "infinite", "negative"), 0)

        @settings(max_examples=40)
        @given(bulk_instances(st.integers(1, 3), max_dim=600))
        def check(drawn):
            graph, family = drawn
            model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
            assert_views_match(model, model.sector_set().sectors, seen)

        check()
        assert seen["forbidden"] and seen["infinite"], seen
        assert not seen["negative"]

    def test_drawn_boundary_instances(self):
        """Up to three of the state's sectors of each draw (of two or three
        vertices, with a Hilbert space of at most 8,000), three of a leg
        product among them, and where the state holds fewer than three, one
        sector of its family that it does not hold, if there is one."""
        seen = dict.fromkeys(("forbidden", "infinite", "negative", "unheld"), 0)

        @settings(max_examples=60)
        @given(boundary_instances(st.integers(2, 3), max_dim=8000), st.data())
        def check(drawn, data):
            graph, family, state, part, _ = drawn
            model = IsingModel(graph, family, ModelKind.boundary_to_boundary(part), state=state)
            sectors = list(state.sectors[:3])
            unheld = [sec for sec in intertwined_sectors(graph, family) if sec not in state.sectors]
            if unheld and len(sectors) < 3:
                sectors.append(data.draw(st.sampled_from(unheld)))
                seen["unheld"] += 1
            assert_views_match(model, sectors, seen)

        check()
        assert seen["forbidden"] and seen["unheld"] and seen["negative"], seen

    def test_signed_cosines(self):
        """The signed instance of `test_golden` has cells whose cosine is
        negative; both views give them with their sign."""
        model = signed_b2b_model()
        seen = dict.fromkeys(("forbidden", "infinite", "negative"), 0)
        assert_views_match(model, model.sector_set().sectors, seen)
        assert seen["negative"] and seen["forbidden"], seen

    def bridge_models(self):
        graph = bridge_graph()
        family = bridge_family(graph, 1)
        low, high = bridge_sectors(graph, 1)
        state = bridge_state(graph, (low, high), A, D, B, U, V, W)
        part = BoundaryPartition.from_input(graph, ["c"])
        kinds = ((ModelKind.bulk_to_boundary(), None), (ModelKind.boundary_to_boundary(part), state))
        return graph, (low, high), [IsingModel(graph, family, kind, state=held) for kind, held in kinds]

    def test_views_take_any_vertex_count(self, monkeypatch):
        """Past `EXHAUSTIVE_LIMIT` the kernels refuse the bridge, but both
        views still answer on each configuration, under both kinds, with
        the bits of the reference scorer."""
        graph, (low, high), models = self.bridge_models()
        monkeypatch.setattr(ising, "EXHAUSTIVE_LIMIT", 1)
        for model in models:
            with pytest.raises(EngineError, match="2 vertices exceed EXHAUSTIVE_LIMIT = 1"):
                model.partition_sum_fixed(low, high, 0)
            answered = 0
            for (j, k), replica, bits in itertools.product(
                ((low, low), (low, high), (high, low)), (0, 1), itertools.product((1, -1), repeat=2)
            ):
                cfg = config(graph, L=bits[0], R=bits[1])
                delta, energy = reference.evaluate(model, j, k, cfg, replica)
                assert model.delta_factor(j, k, cfg, replica).hex() == float(delta).hex()
                if delta:
                    assert model.hamiltonian(j, k, cfg, replica).hex() == float(energy).hex()
                    answered += 1
            assert answered

    def test_views_check_the_configuration(self):
        """A configuration without vertex R, or with an unknown vertex Q,
        is refused by name under both kinds."""
        _, (low, high), models = self.bridge_models()
        missing = IsingConfig((("L", 1),))
        unknown = IsingConfig((("L", 1), ("R", -1), ("Q", 1)))
        for model in models:
            for view in (model.delta_factor, model.hamiltonian):
                with pytest.raises(EngineError, match=r"configuration misses vertices \['R'\]"):
                    view(low, high, missing, 1)
                with pytest.raises(EngineError, match=r"configuration names unknown vertices \['Q'\]"):
                    view(low, high, unknown, 1)


# -- totals in log domain ----------------------------------------------------


class TestLogDomainTotals:
    """A 4-valent chain with V=16 and every spin 1000 has 2 log K ~ 760, past
    the float64 range (e^709).  The table keeps its totals in log domain
    and reports the floats as +inf instead of raising."""

    @pytest.fixture(scope="class")
    def big(self):
        graph = chain_graph(16, legs=2)
        family = SectorFamily.build(graph, "1000", "1000")
        model = IsingModel(graph, family, ModelKind.bulk_to_boundary())
        return model, model.partition_table()

    def test_log_totals_are_two_log_k_plus_log_kernel(self, big):
        model, table = big
        (sector,) = model.sector_set().sectors
        log_k = model.k_factor(sector).log_value
        assert 2 * log_k > 709.8
        for replica in (0, 1):
            z = model.partition_sum_fixed(sector, sector, replica)
            sign, log = table.log_totals[replica]
            assert sign == 1
            assert log == pytest.approx(2 * log_k + math.log(z), rel=1e-15)
        # Z_0 leaves float64; Z_1 (the swapped kernel is small) does not.
        assert table.totals[0] == math.inf
        assert table.totals[1] == pytest.approx(math.exp(table.log_totals[1][1]), rel=1e-12)

    def test_boundary_sums_in_log_domain(self, big):
        model, table = big
        (row,) = table.boundary_rows
        assert row.z_bar == table.totals
        assert row.log_z_bar == table.log_totals
        # D_E^2 alone leaves float64; y is read from the logs.
        log_d = math.log(row.d_total)
        assert 2 * log_d > 709.8
        for replica in (0, 1):
            assert row.y[replica] == pytest.approx(
                math.exp(table.log_totals[replica][1] - 2 * log_d), rel=1e-12
            )

    def test_json_keeps_the_log_totals(self, big):
        """Z_0 leaves float64, so its float reads null in the JSON, but
        `log_totals.Z_0` and the boundary row's `log_Z_bar_0` hold it as a
        finite [sign, log], in a dump that is strict JSON."""
        _, table = big
        data = json.loads(json.dumps(table.to_json_dict(), allow_nan=False))
        assert data["totals"]["Z_0"] is None
        sign, log = data["log_totals"]["Z_0"]
        assert sign == 1 and 760.0 < log < 760.3
        assert [sign, log] == list(table.log_totals[0])
        assert data["log_totals"]["Z_1"] == list(table.log_totals[1])
        (row,) = data["boundary_sums"]
        assert row["Z_bar_0"] is None
        assert row["log_Z_bar_0"] == [sign, log] and row["log_Z_bar_1"] == data["log_totals"]["Z_1"]

    def test_consumers_answer_past_float_range(self, big):
        """Z_0 leaves float64, yet every consumer answers from the log
        totals: S_2 = log Z_0 - log Z_1 in each mode of `average_purity`,
        and the condition matrix and the verdict read the purity e^{-S_2}."""
        from holoising.entropy import average_purity
        from holoising.ising import ground_kernel
        from holoising.isometry import check_bulk_to_boundary, condition_matrix

        model, table = big
        ground = ground_kernel(table.e_min[:, :, 1])
        kernels = {
            "exact": table.z,
            "ground_state": np.stack([table.z[:, :, 0], table.z[:, :, 0] * ground], axis=2),
            "high_spin": np.stack([np.ones_like(ground), ground], axis=2),
        }
        for mode, kernel in kernels.items():
            (_, log_z0), (_, log_z1) = table.kernel_sums(kernel).log_totals
            report = average_purity(table, mode=mode)
            assert report.s2 == log_z0 - log_z1
            assert report.purity == math.exp(log_z1 - log_z0)
        s2 = table.log_totals[0][1] - table.log_totals[1][1]
        assert report.z0 == math.inf and 121.6 < s2 < 121.7
        assert condition_matrix(table, 2.0).quadratic_form == math.exp(-s2) - 0.5
        window = [{lid: "1000" for lid in model.graph.boundary_ids()}]
        verdict = check_bulk_to_boundary(model.family, model.graph, window)
        assert dict(verdict.extras)["purity"] == math.exp(-s2)
        assert verdict.condition("sector_purity").defect == verdict.condition("average_purity").defect

    def test_signed_sum_log_form(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pos = rng.normal(scale=3.0, size=int(rng.integers(0, 5))).tolist()
            neg = rng.normal(scale=3.0, size=int(rng.integers(0, 5))).tolist()
            total, (sign, log), _ = reference.signed_sum(pos, neg)
            if total == 0.0:
                assert sign == 0 and log == -math.inf
                continue
            assert sign == (1 if total > 0 else -1)
            assert math.exp(log) == pytest.approx(abs(total), rel=1e-9, abs=1e-12)
        total, (sign, log), _ = reference.signed_sum([800.0, 1.0], [799.0])
        assert total == math.inf and sign == 1
        assert log == pytest.approx(800.0 + math.log1p(-math.exp(-1.0)), rel=1e-15)


# -- k_factor and window tables as views ----------------------------------------


class TestTableViews:
    """`k_factor` and the window table of one boundary answer from the
    same arrays as the full `partition_table`, bit for bit, under both
    model kinds."""

    @pytest.fixture(scope="class")
    def models(self):
        """24 drawn instances under both kinds, plus the six-vertex chain,
        whose superposed middle link puts two weighted sectors and one of
        zero weight behind each boundary."""
        found = []
        for graph, family, state, part, _ in examples(boundary_instances(), 24):
            found.append(IsingModel(graph, family, ModelKind.bulk_to_boundary()))
            found.append(IsingModel(graph, family, ModelKind.boundary_to_boundary(part), state=state))
        graph = chain_graph(6)
        allowed = {lid: ["1"] for lid in graph.link_ids()}
        allowed.update({lid: ["0"] for lid in ("l", "t0", "e1", "e5", "r", "t5")})
        allowed.update({"e3": ["1", "2", "3"], "t1": ["1/2", "1"]})
        family = SectorFamily.build(graph, "0", "3", allowed=allowed, normalize=False)
        found.append(IsingModel(graph, family, ModelKind.bulk_to_boundary()))
        return [(model, model.partition_table()) for model in found]

    def test_k_factor_is_the_table_log_k(self, models):
        for model, table in models:
            sectors = table.sectors
            for sector, log, k in zip(sectors.sectors, sectors.log_k.tolist(), table.k.tolist()):
                factor = model.k_factor(sector)
                assert factor.log_value.hex() == log.hex(), sector.label()
                assert factor.value == k
        # Past float64 and at zero weight, K reads as the table's `k` does.
        assert ising.KFactor(800.0, 1).value == math.inf
        assert ising.KFactor(-math.inf, 1).value == 0.0

    def test_window_tables_are_the_table_rows(self, models):
        kinds, shared = set(), 0
        for model, table in models:
            boundary_ids = model.graph.boundary_ids()
            for c in table.boundary_keys:
                key = table.sectors.keys[c]
                window = model.window_table([{lid: str(Spin(t)) for lid, t in zip(boundary_ids, key)}])
                sums = window.boundary_rows[0]
                assert [v.hex() for v in sums.z_bar] == [v.hex() for v in table.z_bar[c]]
                assert [v.hex() for v in sums.y] == [v.hex() for v in table.y[c]]
                assert sums.d_total == table.d_total[c]
                assert [(s, v.hex()) for s, v in sums.log_z_bar] == [
                    (s, v.hex()) for s, v in table.log_z_bar[c]
                ]
                assert len(window.labels) == int(np.count_nonzero(table.sectors.key == c))
                kinds.add(model.kind.mode)
                shared += len(window.labels) > 1
        assert len(kinds) == 2 and shared

    def test_window_of_a_boundary_without_sectors_has_no_row(self):
        legs = four_leg_graph()
        model = IsingModel(legs, two_sector_vertex_family(legs), ModelKind.bulk_to_boundary())
        table = model.window_table([{"p1": "1", "p2": "1/2", "p3": "1/2", "p4": "1/2"}])
        assert table.labels == () and table.boundary_rows == ()
        assert [v.hex() for v in table.totals] == [0.0.hex()] * 2
