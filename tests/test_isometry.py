"""Isometry verdict tests: condition matrix, graded checks, closed forms.

The anchor cases are analytic: a window of permuted boundary spins on one
vertex is exactly holographic in the ground-state regime and misses by the
predictable 1/D_O corrections with exact kernels; a synthetic table whose
diagonal kernels sit at 1/D_{I_j} zeroes every diagnostic at once; and the
trace-preservation distances of product sector states are 1 - 1/D_I.
"""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import array_table
from oracle_reference import hs_isometry_defect

from holoising.bulk import IntertwinerState
from holoising.graph import BoundaryPartition, build_graph
from holoising.ising import (
    EngineError,
    IsingConfig,
    IsingModel,
    ModelKind,
)
from holoising.isometry import (
    IsometryError,
    check_boundary_to_boundary,
    check_bulk_to_boundary,
    check_trace_preservation,
    condition_matrix,
    scaling_constraint_g,
    single_vertex_closed_form,
    suggest_window,
    window_groups,
)
from holoising.entropy import average_purity
from holoising.spins import SectorFamily, Spin, enumerate_sectors

CONDITION_NAMES = (
    "ground_state_all_up",
    "weight_constancy",
    "output_dim_constancy",
    "sector_purity",
    "sector_weight",
    "normalized_sums",
    "average_purity",
)


def three_leg_graph():
    return build_graph(
        {
            "vertices": [{"id": "v", "valence": 3}],
            "links": [
                {"id": "b1", "end": ["v", 0]},
                {"id": "b2", "end": ["v", 1]},
                {"id": "b3", "end": ["v", 2]},
            ],
        }
    )


def perm_window():
    """Six boundary sectors sharing D_O = 24 and D_I = 1."""
    return [
        dict(zip(("b1", "b2", "b3"), perm))
        for perm in itertools.permutations(("1/2", "1", "3/2"))
    ]


def bridge_graph():
    return build_graph(
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


def synthetic_table(labels, k, z0, z1):
    """Assemble a PartitionSumTable directly from kernel matrices."""
    return array_table(labels, k, np.stack([z0, z1], axis=-1))


def random_isometry_state(rng, d_i, d_o):
    """Density block of a maximally mixed-marginal pure state (d_o >= d_i)."""
    g = rng.normal(size=(d_o, d_i)) + 1j * rng.normal(size=(d_o, d_i))
    q, _ = np.linalg.qr(g)
    psi = q.T / math.sqrt(d_i)
    vec = psi.reshape(-1)
    return np.outer(vec, vec.conj())


class TestConditionMatrix:
    def setup_method(self):
        g = three_leg_graph()
        fam = SectorFamily.build(g, 0, "3/2")
        model = IsingModel(g, fam, ModelKind.bulk_to_boundary())
        self.table = model.partition_table()
        self.d_input = float(len(self.table.k_factors))
        self.cm = condition_matrix(self.table, self.d_input)

    def test_labels_and_shapes(self):
        n = len(self.table.k_factors)
        assert self.cm.labels == tuple(l for l, _ in self.table.k_factors)
        assert self.cm.z1.shape == (n, n)
        assert self.cm.m.shape == (n, n)
        assert np.allclose(self.cm.m, self.cm.z1 - 1.0 / self.d_input)

    def test_kernel_matrix_is_symmetric(self):
        assert np.allclose(self.cm.z1, self.cm.z1.T)
        assert np.allclose(self.cm.z0, self.cm.z0.T)

    def test_quadratic_form_matches_totals(self):
        expected = self.table.totals[1] / self.table.totals[0] - 1.0 / self.d_input
        assert math.isclose(self.cm.quadratic_form, expected, rel_tol=1e-12)

    def test_factorized_form_is_bilinear_value(self):
        assert math.isclose(
            self.cm.p @ self.cm.m @ self.cm.p,
            self.cm.quadratic_form_factorized,
            rel_tol=1e-12,
        )
        # near the uniform high-spin regime the two measures stay close
        assert abs(self.cm.quadratic_form - self.cm.quadratic_form_factorized) < 0.05

    def test_diagonal_split_reconstructs_z1(self):
        rebuilt = self.cm.w[:, None] * (np.eye(len(self.cm.w)) + self.cm.alpha)
        assert np.allclose(rebuilt, self.cm.z1)
        assert np.all(np.diag(self.cm.alpha) == 0.0)

    def test_candidate_measure_normalized(self):
        assert math.isclose(sum(self.cm.candidate_p), 1.0, rel_tol=1e-12)
        assert np.all(self.cm.candidate_p > 0.0)

    def test_solution_table_zeroes_every_diagnostic(self):
        # two sectors with D_I = 2 each, kernels at their maximal-entropy
        # values W = 1/D_I, normalization kernels at 1
        table = synthetic_table(
            ("s0", "s1"),
            k=(2.0, 2.0),
            z0=((1.0, 1.0), (1.0, 1.0)),
            z1=((0.5, 0.0), (0.0, 0.5)),
        )
        cm = condition_matrix(table, d_input=4.0)
        assert abs(cm.quadratic_form) < 1e-15
        assert math.isclose(cm.zeroth_order_sum, 4.0, rel_tol=1e-15)
        assert cm.zeroth_order_defect < 1e-15
        assert np.allclose(cm.candidate_p, (0.5, 0.5))
        assert abs(cm.candidate_p @ cm.m @ cm.candidate_p) < 1e-15
        assert not cm.singular
        assert abs(cm.det_m) < 1e-15
        assert abs(cm.rank_one_factor) < 1e-15

    def test_zero_diagonal_kernel_flags_singular(self):
        table = synthetic_table(
            ("s0", "s1"),
            k=(1.0, 1.0),
            z0=((1.0, 1.0), (1.0, 1.0)),
            z1=((0.5, 0.0), (0.0, 0.0)),
        )
        cm = condition_matrix(table, d_input=4.0)
        assert cm.singular
        assert cm.alpha is None
        assert cm.candidate_p is None
        assert cm.det_z1 is None and cm.det_m is None
        assert math.isinf(cm.zeroth_order_sum)
        assert math.isinf(cm.zeroth_order_defect)

    def test_rejects_bad_inputs(self):
        with pytest.raises(IsometryError):
            condition_matrix(self.table, 0.0)
        empty = array_table((), k=(), z=np.zeros((0, 0, 2)))
        with pytest.raises(IsometryError):
            condition_matrix(empty, 4.0)

    def test_json_dict(self):
        data = json.loads(json.dumps(self.cm.to_json_dict()))
        assert data["labels"] == list(self.cm.labels)
        assert len(data["M"]) == len(self.cm.labels)
        assert data["D_I"] == self.d_input
        assert data["singular"] is False


class TestBulkToBoundary:
    def setup_method(self):
        self.graph = three_leg_graph()
        self.family = SectorFamily.build(self.graph, 0, "3/2")
        self.window = perm_window()

    def test_ground_state_regime_is_holographic(self):
        verdict = check_bulk_to_boundary(
            self.family, self.graph, self.window, regime="ground_state"
        )
        assert verdict.classification == "holographic"
        assert verdict.passed
        for cond in verdict.conditions:
            assert cond.defect < 1e-12, cond.name

    def test_exact_regime_sees_finite_size_defects(self):
        verdict = check_bulk_to_boundary(
            self.family, self.graph, self.window, regime="exact"
        )
        assert verdict.classification == "neither"
        # m = 6 equal sectors with D_I = 1, D_O = 24: the only deviations
        # are the cross-sector normalization kernels, of relative size
        # m(m-1)/D_O / (m^2 + m/D_O)
        m, d_o = 6, 24
        expected = m * (m - 1) / d_o / (m**2 + m / d_o)
        assert math.isclose(
            verdict.condition("sector_weight").defect, expected, rel_tol=1e-9
        )
        assert math.isclose(
            verdict.condition("average_purity").defect, expected, rel_tol=1e-9
        )
        assert verdict.condition("sector_purity").defect == 0.0
        assert verdict.condition("normalized_sums").defect < 1e-12

    def test_every_defect_within_five_percent(self):
        verdict = check_bulk_to_boundary(
            self.family, self.graph, self.window, regime="exact"
        )
        assert verdict.classification == "neither"
        assert all(cond.defect <= 0.05 for cond in verdict.conditions)

    def test_mixed_output_dims_fail(self):
        window = self.window + [{"b1": 1, "b2": 1, "b3": 1}]
        verdict = check_bulk_to_boundary(
            self.family, self.graph, window, regime="ground_state"
        )
        assert verdict.classification == "neither"
        assert not verdict.condition("output_dim_constancy").passed
        assert not verdict.condition("weight_constancy").passed
        assert not verdict.condition("sector_weight").passed

    def test_window_validation(self):
        # Each refusal comes from the layer that reads the input: the
        # verdict (IsometryError), `spins.boundary_twice` (ValueError) or
        # `IsingModel.window_table` (EngineError).
        with pytest.raises(IsometryError, match="window is empty"):
            check_bulk_to_boundary(self.family, self.graph, [])
        with pytest.raises(ValueError, match="it leaves b3 free"):
            check_bulk_to_boundary(self.family, self.graph, [{"b1": 1, "b2": 1}])
        with pytest.raises(ValueError, match="non-boundary link 'b4'"):
            check_bulk_to_boundary(
                self.family,
                self.graph,
                [{"b1": 1, "b2": 1, "b3": 1, "b4": 1}],
            )
        with pytest.raises(EngineError, match="listed twice"):
            check_bulk_to_boundary(
                self.family,
                self.graph,
                [self.window[0], dict(self.window[0])],
            )
        with pytest.raises(IsometryError, match="no admissible sector"):
            check_bulk_to_boundary(
                self.family,
                self.graph,
                [{"b1": "1/2", "b2": "1/2", "b3": "1/2"}],
            )
        with pytest.raises(IsometryError, match="unknown regime"):
            check_bulk_to_boundary(
                self.family, self.graph, self.window, regime="thermal"
            )

    def test_window_keys_come_from_the_table_in_window_order(self):
        # Labels follow the window, not the table's sorted key order, and
        # a missing boundary is named though admissible ones precede it.
        window = self.window + [{"b1": 1, "b2": 1, "b3": 1}]
        for entries in (window, window[::-1]):
            verdict = check_bulk_to_boundary(self.family, self.graph, entries)
            expected = [",".join(f"{lid}={Spin.parse(b[lid])}" for lid in ("b1", "b2", "b3")) for b in entries]
            assert list(verdict.condition("sector_purity").sector_labels) == expected
        with pytest.raises(IsometryError, match="no admissible sector matches boundary b1=1/2,b2=1/2,b3=1/2"):
            check_bulk_to_boundary(self.family, self.graph, [*self.window, {"b1": "1/2", "b2": "1/2", "b3": "1/2"}])

    def test_condition_names_and_lookup(self):
        verdict = check_bulk_to_boundary(self.family, self.graph, self.window)
        assert tuple(c.name for c in verdict.conditions) == CONDITION_NAMES
        assert verdict.condition("sector_purity").passed
        with pytest.raises(KeyError):
            verdict.condition("unknown")

    def test_json_has_one_record_per_condition(self):
        verdict = check_bulk_to_boundary(self.family, self.graph, self.window)
        data = json.loads(json.dumps(verdict.to_json_dict(), allow_nan=False))
        assert data["kind"] == "bulk_to_boundary"
        assert data["regime"] == "exact"
        assert [c["name"] for c in data["conditions"]] == list(CONDITION_NAMES)
        for record in data["conditions"]:
            assert set(record) == {"name", "target", "defect", "passed", "sectors", "extras"}

    def test_exact_purity_matches_entropy_assembly(self):
        verdict = check_bulk_to_boundary(
            self.family, self.graph, self.window, regime="exact"
        )
        model = IsingModel(self.graph, self.family, ModelKind.bulk_to_boundary())
        pool = []
        for entry in self.window:
            fixed = {lid: Spin.parse(sp) for lid, sp in entry.items()}
            pool.extend(enumerate_sectors(self.family, self.graph, boundary_filter=fixed))
        table = model.partition_table(sectors=pool)
        report = average_purity(table, mode="exact")
        assert math.isclose(
            dict(verdict.extras)["purity"], report.purity, rel_tol=1e-9
        )

    def test_ground_state_defects_match_engine(self):
        verdict = check_bulk_to_boundary(self.family, self.graph, self.window)
        model = IsingModel(self.graph, self.family, ModelKind.bulk_to_boundary())
        cond = verdict.condition("ground_state_all_up")
        fixed = {lid: Spin.parse(sp) for lid, sp in self.window[0].items()}
        sec = next(iter(enumerate_sectors(self.family, self.graph, boundary_filter=fixed)))
        idx = cond.sector_labels.index(sec.label())
        gs = model.ground_state(sec, sec, 1)
        all_up = IsingConfig.make(self.graph, {"v": +1})
        expected = model.hamiltonian(sec, sec, all_up, 1) - gs.energy
        assert math.isclose(cond.sector_defects[idx], max(0.0, expected), abs_tol=1e-12)


class TestTracePreservation:
    def entangled_sectors(self):
        dims = {("a",): (2, 3), ("b",): (3, 4)}
        rhos = {}
        for key, (d_i, d_o) in dims.items():
            psi = np.zeros((d_i, d_o), dtype=complex)
            for i in range(d_i):
                psi[i, i] = 1.0 / math.sqrt(d_i)
            vec = psi.reshape(-1)
            rhos[key] = np.outer(vec, vec.conj())
        return rhos, dims

    def test_maximally_entangled_passes(self):
        rhos, dims = self.entangled_sectors()
        report = check_trace_preservation(
            rhos,
            dims,
            c_weights={("a",): 2 / 5, ("b",): 3 / 5},
            k_value=5.0,
        )
        assert report.passed
        assert report.defect < 1e-12
        assert report.k_defect < 1e-15
        assert all(d < 1e-15 for d in report.trace_distances)

    def test_product_states_fail_with_known_distance(self):
        dims = {("a",): (2, 3), ("b",): (3, 4)}
        rhos = {}
        for key, (d_i, d_o) in dims.items():
            vec = np.zeros(d_i * d_o, dtype=complex)
            vec[0] = 1.0
            rhos[key] = np.outer(vec, vec.conj())
        report = check_trace_preservation(rhos, dims)
        assert not report.passed
        for (d_i, _), dist, norm in zip(
            dims.values(), report.trace_distances, report.reduction_defects
        ):
            assert math.isclose(dist, 1.0 - 1.0 / d_i, rel_tol=1e-12)
            assert math.isclose(norm, 1.0 - 1.0 / d_i, rel_tol=1e-12)

    def test_random_isometry_blocks_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            d_i = int(rng.integers(2, 5))
            d_o = int(rng.integers(d_i, 7))
            rho = random_isometry_state(rng, d_i, d_o)
            report = check_trace_preservation({("s",): rho}, {("s",): (d_i, d_o)})
            assert report.defect < 1e-12

    def test_joint_with_two_copy_swap_defect(self):
        rng = np.random.default_rng(11)
        dims = {("a",): (2, 4), ("b",): (3, 5)}
        rhos = {
            key: random_isometry_state(rng, d_i, d_o)
            for key, (d_i, d_o) in dims.items()
        }
        c = {key: d[0] / 5 for key, d in dims.items()}
        report = check_trace_preservation(rhos, dims, c_weights=c, k_value=5.0)
        oracle_defect = hs_isometry_defect(rhos, dims, c, list(dims))
        assert report.defect < 1e-9 and oracle_defect < 1e-9
        # perturb one block towards a product state: both defects light up
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
        mix = 0.9 * rhos[("a",)] + 0.1 * np.outer(vec, vec.conj())
        val = np.linalg.eigvalsh(mix)[-1]
        top = np.linalg.eigh(mix)[1][:, -1]
        pure = np.outer(top, top.conj())
        report2 = check_trace_preservation({("a",): pure}, {("a",): dims[("a",)]})
        oracle2 = hs_isometry_defect(
            {("a",): pure}, {("a",): dims[("a",)]}, {("a",): 1.0}, [("a",)]
        )
        assert report2.defect > 1e-3 and oracle2 > 1e-3

    def test_mixed_state_rejected(self):
        dims = {("a",): (2, 2)}
        rho = np.eye(4, dtype=complex) / 4.0
        with pytest.raises(IsometryError, match="mixed"):
            check_trace_preservation({("a",): rho}, dims)

    def test_non_hermitian_rejected(self):
        dims = {("a",): (2, 2)}
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 1] = 1.0
        rho[0, 0] = 1.0
        with pytest.raises(IsometryError, match="Hermitian"):
            check_trace_preservation({("a",): rho}, dims)

    def test_shape_and_key_validation(self):
        with pytest.raises(IsometryError):
            check_trace_preservation({}, {})
        with pytest.raises(IsometryError, match="dimensions"):
            check_trace_preservation({("a",): np.eye(4)}, {("b",): (2, 2)})
        with pytest.raises(IsometryError, match="shape"):
            check_trace_preservation({("a",): np.eye(3)}, {("a",): (2, 2)})

    def test_weight_and_constant_defects(self):
        rhos, dims = self.entangled_sectors()
        report = check_trace_preservation(
            rhos,
            dims,
            c_weights={("a",): 0.5, ("b",): 0.5},
            k_value=6.0,
        )
        assert not report.passed
        assert math.isclose(report.c_defects[0], abs(0.5 - 2 / 5), rel_tol=1e-12)
        assert math.isclose(report.k_defect, abs(6.0 - 5.0) / 5.0, rel_tol=1e-12)

    def test_spin_sector_keys(self):
        g = three_leg_graph()
        fam = SectorFamily.build(g, 0, 1)
        sec = next(
            iter(
                enumerate_sectors(
                    fam, g, boundary_filter={"b1": "1/2", "b2": "1/2", "b3": 1}
                )
            )
        )
        rho = random_isometry_state(np.random.default_rng(3), 2, 6)
        report = check_trace_preservation({sec: rho}, {sec: (2, 6)})
        assert report.sector_labels == (sec.label(),)
        assert report.defect < 1e-12

    def test_json_dict(self):
        rhos, dims = self.entangled_sectors()
        report = check_trace_preservation(rhos, dims)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert len(data["sectors"]) == 2
        assert data["passed"] is True


class TestClosedForm:
    def test_peaked_distribution_brackets_exactly(self):
        for d_i, d_o in ((4, 2), (1, 5), (12, 7)):
            cf = single_vertex_closed_form([d_i], d_o)
            assert cf.bracket == 1.0 + 1.0 / d_o
            assert math.isclose(cf.purity, (1.0 + 1.0 / d_o) / d_i, rel_tol=1e-15)
            assert math.isclose(
                cf.purity_paired, 1.0 / d_i + 1.0 / d_o, rel_tol=1e-15
            )

    def test_uniform_distribution_counts_sectors(self):
        cf = single_vertex_closed_form([3, 3, 3, 3], 10)
        assert math.isclose(cf.renyi_half, 4.0, rel_tol=1e-12)
        assert math.isclose(cf.renyi_two, 0.25, rel_tol=1e-12)

    def test_random_assignments_satisfy_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            d_in = [int(rng.integers(1, 9)) for _ in range(n)]
            d_o = int(rng.integers(1, 30))
            cf = single_vertex_closed_form(d_in, d_o)
            assert math.isclose(sum(cf.a), 1.0, rel_tol=1e-12)
            assert math.isclose(
                cf.purity,
                (cf.renyi_half + cf.renyi_two / d_o) / cf.d_input,
                rel_tol=1e-15,
            )
            assert cf.renyi_half >= 1.0 - 1e-12
            assert cf.renyi_two <= 1.0 + 1e-12

    def test_output_dims_may_be_listed(self):
        assert single_vertex_closed_form([2], [3, 4]).d_output == 7

    def test_rejects_bad_dims(self):
        with pytest.raises(IsometryError):
            single_vertex_closed_form([], 3)
        with pytest.raises(IsometryError):
            single_vertex_closed_form([0, 2], 3)
        with pytest.raises(IsometryError):
            single_vertex_closed_form([2], 0)


class TestBoundaryToBoundary:
    def setup_method(self):
        self.graph = three_leg_graph()
        self.family = SectorFamily.build(self.graph, 0, "3/2")
        self.partition = BoundaryPartition.from_input(self.graph, ["b1"])

    def sector_with(self, b1, b2, b3):
        found = list(
            enumerate_sectors(
                self.family,
                self.graph,
                boundary_filter={"b1": b1, "b2": b2, "b3": b3},
            )
        )
        assert found
        return found[0]

    def test_single_sector_is_transparent_in_ground_state(self):
        sec = self.sector_with("1/2", "3/2", "1")
        state = IntertwinerState.from_pure(self.graph, {sec: 1.0})
        verdict = check_boundary_to_boundary(
            self.family, self.graph, self.partition, state, regime="ground_state"
        )
        assert verdict.classification == "transparent"
        extras = dict(verdict.extras)
        assert extras["d_input"] == 2.0
        assert extras["d_output"] == 12.0
        assert math.isclose(extras["purity"], 0.5, rel_tol=1e-12)

    def test_exact_regime_carries_output_correction(self):
        sec = self.sector_with("1/2", "3/2", "1")
        state = IntertwinerState.from_pure(self.graph, {sec: 1.0})
        verdict = check_boundary_to_boundary(
            self.family, self.graph, self.partition, state, regime="exact"
        )
        extras = dict(verdict.extras)
        d_i, d_o = 2, 12
        expected = (1 / d_i + 1 / d_o) / (1 + 1 / (d_i * d_o))
        assert math.isclose(extras["purity"], expected, rel_tol=1e-12)
        assert verdict.classification == "neither"
        assert verdict.conditions[0].defect <= 0.2

    def test_single_vertex_extras_match_closed_form(self):
        sec = self.sector_with("1/2", "3/2", "1")
        state = IntertwinerState.from_pure(self.graph, {sec: 1.0})
        verdict = check_boundary_to_boundary(
            self.family, self.graph, self.partition, state
        )
        extras = dict(verdict.extras)
        cf = single_vertex_closed_form([2], 12)
        assert math.isclose(extras["bracket"], cf.bracket, rel_tol=1e-12)
        assert math.isclose(extras["closed_form"], cf.purity, rel_tol=1e-12)
        assert math.isclose(
            extras["closed_form_paired"], cf.purity_paired, rel_tol=1e-12
        )
        assert math.isclose(extras["renyi_half"], 1.0, rel_tol=1e-12)

    def test_superposition_counts_distinct_input_dims(self):
        s1 = self.sector_with("1/2", "3/2", "1")
        s2 = self.sector_with("3/2", "3/2", "1")
        state = IntertwinerState.from_pure(
            self.graph, {s1: 1 / math.sqrt(2), s2: 1 / math.sqrt(2)}
        )
        verdict = check_boundary_to_boundary(
            self.family, self.graph, self.partition, state
        )
        extras = dict(verdict.extras)
        assert extras["d_input"] == 6.0
        assert extras["input_sector_count"] == 2.0

    def test_mixed_bulk_state_rejected(self):
        s1 = self.sector_with("1/2", "3/2", "1")
        s2 = self.sector_with("3/2", "3/2", "1")
        mixed = IntertwinerState.from_blocks(
            self.graph,
            [s1, s2],
            {(s1, s1): [[0.5]], (s2, s2): [[0.5]]},
        )
        with pytest.raises(IsometryError, match="mixed"):
            check_boundary_to_boundary(
                self.family, self.graph, self.partition, mixed
            )

    def test_state_required(self):
        with pytest.raises(IsometryError):
            check_boundary_to_boundary(
                self.family, self.graph, self.partition, None
            )


class TestScalingConstraint:
    def asym_graph(self):
        return build_graph(
            {
                "vertices": [
                    {"id": "x", "valence": 4},
                    {"id": "y", "valence": 3},
                ],
                "links": [
                    {"id": "e", "ends": [["x", 0], ["y", 0]]},
                    {"id": "a1", "end": ["x", 1]},
                    {"id": "a2", "end": ["x", 2]},
                    {"id": "a3", "end": ["x", 3]},
                    {"id": "c1", "end": ["y", 1]},
                    {"id": "c2", "end": ["y", 2]},
                ],
            }
        )

    def test_uniform_products_give_uniform_profile(self):
        g = bridge_graph()
        fam = SectorFamily.build(g, 0, 1, allowed={"e": [0, 1]})
        prof = scaling_constraint_g(fam, g, [{"a1": 1, "a2": 1, "c1": 1, "c2": 1}])
        assert prof.profile == (0.5, 0.5)
        assert prof.independence_defect == 0.0

    def test_sqrt_of_dimension_products(self):
        g = self.asym_graph()
        fam = SectorFamily.build(g, 0, 2, allowed={"e": [0, 1, 2]})
        prof = scaling_constraint_g(
            fam, g, [{"a1": 1, "a2": 1, "a3": 1, "c1": 1, "c2": 1}]
        )
        # D_x(u) = 1, 3, 2 against D_y(u) = 1 for u = 0, 1, 2
        assert prof.products[0] == (1.0, 3.0, 2.0)
        expected = np.sqrt([1.0, 3.0, 2.0])
        expected /= expected.sum()
        assert np.allclose(prof.profile, expected)

    def test_loop_profiles_single_vertex(self):
        g = build_graph(
            {
                "vertices": [{"id": "v", "valence": 4}],
                "links": [
                    {"id": "e", "ends": [["v", 0], ["v", 1]]},
                    {"id": "b1", "end": ["v", 2]},
                    {"id": "b2", "end": ["v", 3]},
                ],
            }
        )
        fam = SectorFamily.build(g, 0, 1)
        prof = scaling_constraint_g(fam, g, [{"b1": "1/2", "b2": "1/2"}])
        # D(u, u, 1/2, 1/2) for u = 0, 1/2, 1
        assert prof.products[0] == (1.0, 2.0, 2.0)

    def test_boundary_independence_defect(self):
        g = bridge_graph()
        fam = SectorFamily.build(g, 0, 1)
        symmetric = scaling_constraint_g(
            fam, g, [{"a1": 1, "a2": 0, "c1": 1, "c2": 0}, {"a1": 0, "a2": 1, "c1": 0, "c2": 1}]
        )
        assert symmetric.independence_defect == 0.0
        skewed = scaling_constraint_g(
            fam, g, [{"a1": 1, "a2": 1, "c1": 1, "c2": 1}, {"a1": 1, "a2": 1, "c1": 1, "c2": 0}]
        )
        assert skewed.independence_defect > 0.1

    def test_r_weights_solve_the_constraint(self):
        g = self.asym_graph()
        fam = SectorFamily.build(g, 0, 2, allowed={"e": [0, 1, 2]})
        prof = scaling_constraint_g(
            fam, g, [{"a1": 1, "a2": 1, "a3": 1, "c1": 1, "c2": 1}]
        )
        products = prof.products[0]
        target = 1.0 / sum(products)
        for c in (None, [0.05, -0.02, -0.03]):
            r = prof.r_weights(c=c)
            lhs = sum(rv / pv for rv, pv in zip(r, products) if pv > 0)
            assert math.isclose(lhs, target, rel_tol=1e-12)
        # the realized profile is the particular solution: r ~ |g|^4
        r0 = prof.r_weights()
        v = np.asarray(prof.profile) ** 2
        ratio = v / np.asarray(r0)
        assert np.allclose(ratio, ratio[0])

    def test_achieving_profile_hits_inverse_summed_dimension(self):
        g = self.asym_graph()
        fam = SectorFamily.build(g, 0, 2, allowed={"e": [0, 1, 2]})
        prof = scaling_constraint_g(
            fam, g, [{"a1": 1, "a2": 1, "a3": 1, "c1": 1, "c2": 1}]
        )
        products = np.asarray(prof.products[0])
        v = np.asarray(prof.achieving_profile)
        assert np.allclose(v, products / products.sum())
        # the formal ratio sum v^2 / P lands exactly on 1 / sum P ...
        ratio = float(np.sum(v**2 / products))
        assert math.isclose(ratio, 1.0 / products.sum(), rel_tol=1e-12)
        # ... while the sqrt profile misses it by an O(1) factor
        # (Cauchy-Schwarz: M / (sum sqrt(P))^2 >= 1 / sum P, strict for
        # non-uniform products)
        w = np.asarray(prof.profile)
        sqrt_ratio = float(np.sum(w**2 / products))
        assert sqrt_ratio * products.sum() > 1.01
        # r = v^2 sits inside the constraint family (sum c = 0)
        c = v**2 / products - 1.0 / (len(v) * products.sum())
        r = prof.r_weights(c=list(c))
        assert np.allclose(r, v**2)

    def test_r_weights_validation(self):
        g = bridge_graph()
        fam = SectorFamily.build(g, 0, 1)
        prof = scaling_constraint_g(fam, g, [{"a1": 1, "a2": 1, "c1": 1, "c2": 1}])
        with pytest.raises(IsometryError):
            prof.r_weights(c=[0.1, 0.0, 0.0])
        with pytest.raises(IsometryError):
            prof.r_weights(c=[0.1, -0.1])
        with pytest.raises(IsometryError):
            prof.r_weights(boundary="nope")
        # c on the parity-forbidden middle spin must vanish
        with pytest.raises(IsometryError, match="inadmissible"):
            prof.r_weights(c=[0.1, 0.2, -0.3])

    def test_graph_validation(self):
        g = bridge_graph()
        fam = SectorFamily.build(g, 0, 1)
        with pytest.raises(IsometryError):
            scaling_constraint_g(fam, g, [{"a1": 1, "a2": 1, "c1": 1, "c2": 1}], link_id="a1")
        with pytest.raises(IsometryError, match="no admissible"):
            scaling_constraint_g(fam, g, [{"a1": 1, "a2": 0, "c1": "1/2", "c2": 0}])
        chain = build_graph(
            {
                "vertices": [
                    {"id": "x", "valence": 3},
                    {"id": "y", "valence": 3},
                    {"id": "z", "valence": 3},
                ],
                "links": [
                    {"id": "e1", "ends": [["x", 0], ["y", 0]]},
                    {"id": "e2", "ends": [["y", 1], ["z", 0]]},
                    {"id": "a", "end": ["x", 1]},
                    {"id": "b", "end": ["x", 2]},
                    {"id": "c", "end": ["y", 2]},
                    {"id": "d", "end": ["z", 1]},
                    {"id": "f", "end": ["z", 2]},
                ],
            }
        )
        chain_fam = SectorFamily.build(chain, 0, 1)
        with pytest.raises(IsometryError, match="link_id"):
            scaling_constraint_g(chain_fam, chain, [{"a": 1, "b": 1, "c": 1, "d": 1, "f": 1}])
        with pytest.raises(IsometryError, match="factorize"):
            scaling_constraint_g(
                chain_fam,
                chain,
                [{"a": 1, "b": 1, "c": 1, "d": 1, "f": 1}],
                link_id="e1",
            )

    def test_range_validation(self):
        g = bridge_graph()
        fam = SectorFamily.build(g, 0, 1)
        entry = {"a1": 1, "a2": 1, "c1": 1, "c2": 1}
        with pytest.raises(IsometryError, match="e_range is empty"):
            scaling_constraint_g(fam, g, [])
        with pytest.raises(IsometryError, match="repeats boundary sector a1=1,a2=1,c1=1,c2=1"):
            scaling_constraint_g(fam, g, [entry, {**entry, "a1": "1"}])
        with pytest.raises(ValueError, match="it leaves c2 free"):
            scaling_constraint_g(fam, g, [{"a1": 1, "a2": 1, "c1": 1}])
        with pytest.raises(ValueError, match="non-boundary link 'x'"):
            scaling_constraint_g(fam, g, [{**entry, "x": 1}])

    def test_json_dict(self):
        g = bridge_graph()
        fam = SectorFamily.build(g, 0, 1)
        prof = scaling_constraint_g(fam, g, [{"a1": 1, "a2": 1, "c1": 1, "c2": 1}])
        data = json.loads(json.dumps(prof.to_json_dict()))
        assert data["link_id"] == "e"
        assert len(data["boundary_sectors"]) == 1


class TestWindowSuggestion:
    def test_groups_keyed_by_output_dimension(self):
        g = three_leg_graph()
        fam = SectorFamily.build(g, 0, "3/2")
        groups = window_groups(fam, g)
        assert 24 in groups
        assert len(groups[24]) == 6
        assert g.boundary_ids() == ("b1", "b2", "b3")
        for key in groups[24]:
            assert sorted(key) == [1, 2, 3]

    def test_suggestion_picks_largest_group(self):
        g = three_leg_graph()
        fam = SectorFamily.build(g, 0, "3/2")
        window = suggest_window(fam, g)
        assert len(window) == 6
        verdict = check_bulk_to_boundary(
            fam, g, window, regime="ground_state"
        )
        assert verdict.classification == "holographic"

    def test_zero_weight_internal_spins_excluded(self):
        g = bridge_graph()
        fam = SectorFamily.build(
            g, 0, 1, weights={"e": {0: 0.0, "1/2": 0.0, 1: 1.0}}
        )
        groups = window_groups(fam, g)
        for keys in groups.values():
            for key in keys:
                # y must fuse with the only weighted internal spin, 1
                assert sorted(key) != [0, 0, 0, 2]

    def test_no_admissible_sector_raises(self):
        g = three_leg_graph()
        fam = SectorFamily.build(
            g,
            0,
            "1/2",
            allowed={"b1": ["1/2"], "b2": ["1/2"], "b3": ["1/2"]},
        )
        with pytest.raises(IsometryError):
            suggest_window(fam, g)
