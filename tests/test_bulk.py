"""Tests for bulk intertwiner states and, through the paper's operators
(`paper_operators`), X-operator entropics."""

import math

import numpy as np
import pytest

from holoising.bulk import BulkStateError, IntertwinerState, vertex_block_dims
from holoising.graph import build_graph
from holoising.spins import SpinSector
from paper_operators import (
    XOperator,
    fidelity_angle,
    matrix_renyi2,
    psd_sqrt,
    reduced_entropies,
    sigma_b,
    x_operator,
)


def two_vertex_graph():
    """Two 4-valent vertices, one internal link, six boundary legs."""
    return build_graph(
        {
            "vertices": [
                {"id": "L", "valence": 4},
                {"id": "R", "valence": 4},
            ],
            "links": [
                {"id": "e", "ends": [["L", 3], ["R", 3]]},
                {"id": "a1", "end": ["L", 0]},
                {"id": "a2", "end": ["L", 1]},
                {"id": "a3", "end": ["L", 2]},
                {"id": "b1", "end": ["R", 0]},
                {"id": "b2", "end": ["R", 1]},
                {"id": "c", "end": ["R", 2]},
            ],
        }
    )


def two_vertex_sectors(graph):
    """Sectors differing only in the spin of boundary leg `c` (5/2 vs 3)."""
    base = {"e": 1, "a1": 1, "a2": 1, "a3": 3, "b1": 1, "b2": 1}
    sec_j = SpinSector.make(graph, {**base, "c": 2})
    sec_k = SpinSector.make(graph, {**base, "c": 3})
    return sec_j, sec_k


# Weakly diagonally dominant Hermitian matrix -> guaranteed PSD.
A, D, W = 0.3, 0.25, 0.45
B = 0.1 + 0.05j
U, V = 0.12 - 0.03j, 0.08 + 0.1j


def cross_sector_state(graph, sec_j, sec_k):
    return IntertwinerState.from_blocks(
        graph,
        [sec_j, sec_k],
        {
            (sec_j, sec_j): np.array([[A, B], [np.conj(B), D]]),
            (sec_j, sec_k): np.array([[U], [V]]),
            (sec_k, sec_k): np.array([[W]]),
        },
    )


class TestConstruction:
    def test_block_dims(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        assert vertex_block_dims(graph, sec_j) == (1, 2)
        assert vertex_block_dims(graph, sec_k) == (1, 1)

    def test_from_pure_single_sector(self):
        graph = two_vertex_graph()
        _, sec_k = two_vertex_sectors(graph)
        amp = np.array([0.6 + 0.8j])
        state = IntertwinerState.from_pure(graph, {sec_k: amp})
        assert state.weight(sec_k) == pytest.approx(1.0)
        assert state.is_pure()
        full = state.traced_block(sec_k, sec_k, ["L", "R"])
        assert np.allclose(full, np.outer(amp, amp.conj()))
        total = state.traced_block(sec_k, sec_k, [])
        assert total.shape == (1, 1)
        assert total[0, 0] == pytest.approx(1.0)

    def test_from_pure_rejects_wrong_size(self):
        graph = two_vertex_graph()
        sec_j, _ = two_vertex_sectors(graph)
        with pytest.raises(BulkStateError):
            IntertwinerState.from_pure(graph, {sec_j: np.ones(3)})

    def test_from_blocks_fills_conjugate(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        state = cross_sector_state(graph, sec_j, sec_k)
        kj = state.block(sec_k.key(), sec_j.key())
        assert np.allclose(kj, np.array([[np.conj(U), np.conj(V)]]))
        assert state.trace() == pytest.approx(1.0)
        full = state.assemble()
        assert np.allclose(full, full.conj().T)

    def test_rejects_non_psd(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        with pytest.raises(BulkStateError, match="semidefinite"):
            IntertwinerState.from_blocks(
                graph,
                [sec_j, sec_k],
                {
                    (sec_j, sec_j): np.array([[0.1, 0.3], [0.3, 0.1]]),
                    (sec_k, sec_k): np.array([[0.8]]),
                },
            )

    def test_rejects_bad_trace(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        with pytest.raises(BulkStateError, match="trace"):
            IntertwinerState.from_blocks(
                graph,
                [sec_j, sec_k],
                {
                    (sec_j, sec_j): np.diag([0.3, 0.3]),
                    (sec_k, sec_k): np.array([[0.3]]),
                },
            )

    def test_rejects_shape_mismatch(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        with pytest.raises(BulkStateError, match="shape"):
            IntertwinerState.from_blocks(
                graph,
                [sec_j, sec_k],
                {
                    (sec_j, sec_j): np.diag([0.5, 0.5]) / 2,
                    (sec_k, sec_k): np.diag([0.5, 0.5]) / 2,
                },
            )


class TestPartialTrace:
    def test_trace_needs_matching_spins(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        state = cross_sector_state(graph, sec_j, sec_k)
        # R carries different spin tuples in the two sectors.
        with pytest.raises(BulkStateError, match="differ"):
            state.traced_block(sec_j, sec_k, ["L"])

    def test_cross_block_traced_over_matching_vertex(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        state = cross_sector_state(graph, sec_j, sec_k)
        blk = state.traced_block(sec_j, sec_k, ["R"])
        assert blk.shape == (2, 1)
        assert np.allclose(blk, np.array([[U], [V]]))

    def test_two_site_partial_trace_matches_reshape(self):
        graph = two_vertex_graph()
        sec_j, _ = two_vertex_sectors(graph)
        rng = np.random.default_rng(7)
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = IntertwinerState.from_pure(graph, {sec_j: vec})
        rho = np.outer(vec, vec.conj())
        # L is one-dimensional here, so reducing to R returns rho itself
        # and reducing to L returns its full trace.
        assert np.allclose(state.traced_block(sec_j, sec_j, ["R"]), rho)
        only_l = state.traced_block(sec_j, sec_j, ["L"])
        assert only_l.shape == (1, 1)
        assert only_l[0, 0] == pytest.approx(np.trace(rho))


class TestXOperator:
    def test_all_down_recovers_full_density(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        state = cross_sector_state(graph, sec_j, sec_k)
        x = x_operator(state, {}, {"L": -1, "R": -1})
        assert x.labels == (sec_j.key(), sec_k.key())
        assert np.allclose(x.matrix, state.assemble())
        assert x.trace() == pytest.approx(1.0)

    def test_all_up_is_sector_weight(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        state = cross_sector_state(graph, sec_j, sec_k)
        x = x_operator(state, sec_j, {"L": 1, "R": 1})
        assert x.matrix.shape == (1, 1)
        assert x.trace() == pytest.approx(A + D)
        y = x_operator(state, sec_k, {"L": 1, "R": 1})
        assert y.trace() == pytest.approx(W)

    def test_mixed_configuration_bundles_cross_blocks(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        state = cross_sector_state(graph, sec_j, sec_k)
        # With L up the sectors agree on every spin-up link, so both
        # survive and the cross blocks appear off the diagonal.
        x = x_operator(state, sec_j, {"L": 1, "R": -1})
        assert x.matrix.shape == (3, 3)
        assert np.allclose(x.matrix, state.assemble())

    def test_missing_up_assignment_raises(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        state = cross_sector_state(graph, sec_j, sec_k)
        with pytest.raises(BulkStateError, match="misses links"):
            x_operator(state, {"e": 1}, {"L": 1, "R": -1})

    def test_incompatible_up_assignment_gives_empty_operator(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        state = cross_sector_state(graph, sec_j, sec_k)
        other = {"e": 2, "a1": 1, "a2": 1, "a3": 3, "b1": 1, "b2": 1, "c": 2}
        x = x_operator(state, other, {"L": 1, "R": 1})
        assert x.labels == ()
        assert x.trace() == 0.0


def random_psd_x(rng, n, label):
    r = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = r @ r.conj().T
    return XOperator(labels=(label,), sizes=(n,), matrix=mat)


class TestEntropics:
    def test_sigma_b_diagonal_is_renyi2(self):
        rng = np.random.default_rng(11)
        x = random_psd_x(rng, 5, (("z", 1),))
        value, cos = sigma_b(x, x)
        assert cos == pytest.approx(1.0)
        assert value == pytest.approx(x.renyi2())

    def test_hs_and_fidelity_decompositions_agree(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 5, 8):
            x = random_psd_x(rng, n, (("z", 1),))
            y = random_psd_x(rng, n, (("z", 1),))
            direct = float(np.trace(x.matrix @ y.matrix).real)
            value, cos = sigma_b(x, y)
            via_sigma = math.exp(-value) * x.trace() * y.trace()
            assert via_sigma == pytest.approx(direct, rel=1e-10)
            xm = x.matrix / x.trace()
            ym = y.matrix / y.trace()
            mid = psd_sqrt(psd_sqrt(xm) @ ym @ psd_sqrt(xm))
            via_fid = (
                x.trace()
                * y.trace()
                * fidelity_angle(x, y)
                * math.exp(-matrix_renyi2(mid))
            )
            assert via_fid == pytest.approx(direct, rel=1e-10)

    def test_fidelity_angle_unity_iff_equal(self):
        rng = np.random.default_rng(3)
        x = random_psd_x(rng, 4, (("z", 1),))
        scaled = XOperator(labels=x.labels, sizes=x.sizes, matrix=2.5 * x.matrix)
        assert fidelity_angle(x, scaled) == pytest.approx(1.0, abs=1e-12)
        y = random_psd_x(rng, 4, (("z", 1),))
        assert fidelity_angle(x, y) < 1.0

    def test_sigma_b_rejects_mismatched_blocks(self):
        rng = np.random.default_rng(5)
        x = random_psd_x(rng, 3, (("z", 1),))
        y = random_psd_x(rng, 3, (("z", 2),))
        with pytest.raises(BulkStateError):
            sigma_b(x, y)

    def test_psd_sqrt_clamps_roundoff_only(self):
        ok = psd_sqrt(np.diag([1.0, -1e-13]))
        assert np.allclose(ok, np.diag([1.0, 0.0]))
        with pytest.raises(BulkStateError, match="semidefinite"):
            psd_sqrt(np.diag([1.0, -1e-6]))

    def test_renyi2_of_traceless_raises(self):
        x = XOperator(labels=((("z", 1),),), sizes=(2,), matrix=np.zeros((2, 2)))
        with pytest.raises(BulkStateError):
            x.renyi2()


class TestCrossSectorValues:
    """Hand-computed values for the two-vertex, two-sector state."""

    def test_reduced_entropies(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        state = cross_sector_state(graph, sec_j, sec_k)
        ents = reduced_entropies(state, ["R"])
        t = (A**2 + D**2 + 2 * abs(B) ** 2) / (A + D) ** 2
        assert ents[sec_j.key()] == pytest.approx(-math.log(t), rel=1e-12)
        assert ents[sec_k.key()] == pytest.approx(0.0, abs=1e-12)

    def test_cross_term_overlap(self):
        graph = two_vertex_graph()
        sec_j, sec_k = two_vertex_sectors(graph)
        state = cross_sector_state(graph, sec_j, sec_k)
        b1 = state.traced_block(sec_j, sec_k, ["R"])
        b2 = state.traced_block(sec_k, sec_j, ["R"])
        overlap = float(np.trace(b1 @ b2).real)
        expected = abs(U) ** 2 + abs(V) ** 2
        assert overlap == pytest.approx(expected, rel=1e-12)
        q = overlap / (state.weight(sec_k) * state.weight(sec_j))
        assert q == pytest.approx(expected / (W * (A + D)), rel=1e-12)
