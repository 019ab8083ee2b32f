"""Exact-simulator tests: basis bookkeeping, replica traces, sampling.

The heart of the file is the engine-equivalence block: the exact pattern
sums must reproduce the Ising partition totals on instances small enough to
enumerate, for both map kinds, without sharing any code with the engine.
"""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from conftest import four_leg_graph, glued_graph, two_sector_vertex_family
from strategies import boundary_instances, examples

from holoising import oracle
from holoising.bulk import IntertwinerState
from holoising.graph import BoundaryPartition, build_graph
from holoising.ising import IsingModel, ModelKind
from holoising.oracle import (
    FrozenVertices,
    OracleError,
    _all_subsets,
    _component_pattern_sum,
    _haar_rows,
    build_cmap,
    build_hilbert,
    choi_map,
    exact_replica_average,
    haar_sample,
    hs_isometry_defect,
    localisation_probe,
    mc_purity,
    reduced_density,
    replica_purity,
    resolve_region,
    sector_states,
    singlet_projector,
)
from holoising.spins import SectorFamily


def fresh_philox_row(seed, shot, vertex, block, n):
    """The Haar stream's row for `shot`, from a fresh generator: chunk
    shot // 64 of (vertex, block) is the first 2 n 64 normals of
    Philox(key=(seed, vertex << 32 | block), counter=(0, chunk, 0, 0)),
    read as interleaved (re, im) pairs; each part is divided by the square
    root of the row's einsum sum of squares."""
    key = np.array([seed, (vertex << 32) | block], dtype=np.uint64)
    counter = np.array([0, shot // 64, 0, 0], dtype=np.uint64)
    raw = Generator(Philox(key=key, counter=counter)).standard_normal(2 * n * 64)
    flat = raw.reshape(64, 2 * n)[shot % 64 : shot % 64 + 1]
    return (flat / np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]).view(complex)[0]


def glued_family(graph):
    return SectorFamily.build(
        graph,
        "1/2",
        "3/2",
        allowed={
            "e": ["1/2", "3/2"],
            "a1": ["1/2", "1"],
            "a2": ["1/2"],
            "b1": ["1"],
            "b2": ["1/2"],
        },
        weights={"e": {"1/2": 0.8, "3/2": 0.6j}},
    )


def tiny_glued_family(graph):
    """Two sectors (a2 = 0 or 1) in a 64-dimensional space."""
    return SectorFamily.build(
        graph,
        "0",
        "1",
        allowed={"e": ["1/2"], "a1": ["1/2"], "a2": ["0", "1"], "b1": ["1/2"], "b2": ["0"]},
        weights={"e": {"1/2": 0.7 - 0.2j}},
        normalize=False,
    )


class TestHilbertIndex:
    def test_four_valent_half_dimension(self):
        graph = four_leg_graph()
        family = SectorFamily.build(graph, "1/2", "1/2")
        index = build_hilbert(graph, family)
        # One block: intertwiner dim 2 times four spin-1/2 ports.
        assert index.dim == 2 * 2**4

    def test_empty_blocks_are_excluded(self):
        graph = build_graph(
            {
                "vertices": [{"id": "x", "valence": 3}],
                "links": [{"id": f"p{i}", "end": ["x", i]} for i in range(3)],
            }
        )
        family = SectorFamily.build(graph, "1/2", "1/2")
        index = build_hilbert(graph, family)
        assert index.dim == 0

    def test_two_vertex_dimension_is_product(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        assert index.vertex_dims == (36, 36)
        assert index.dim == 1296

    def test_block_order_and_intertwiner_fastest(self):
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        space = build_hilbert(graph, family).spaces[0]
        spins = [b.port_spins[0].twice for b in space.blocks]
        assert spins == sorted(spins)
        first = space.blocks[0]
        # Within a block the intertwiner index cycles fastest; block 0's
        # intertwiner keys start at 0, so they are its intertwiner indices.
        idx = np.arange(first.size)
        assert np.array_equal(
            space.int_key[: first.size], idx % first.intertwiner_dim
        )

    def test_cap_and_env_override(self):
        graph = glued_graph()
        family = glued_family(graph)
        with pytest.raises(OracleError, match="larger cap"):
            build_hilbert(graph, family, cap=100)
        assert build_hilbert(graph, family, cap=2000).dim == 1296


class TestSingletProjector:
    def test_half_block_is_rank_one_singlet(self):
        graph = glued_graph()
        family = SectorFamily.build(
            graph, "1/2", "1/2", weights={"e": {"1/2": 0.5}}, normalize=False
        )
        index = build_hilbert(graph, family)
        op = singlet_projector(index, "e")
        assert op.shape == (4, 4)
        evals = np.linalg.eigvalsh(op)
        assert np.allclose(evals[:3], 0.0, atol=1e-12)
        assert abs(evals[-1] - 0.25) < 1e-12  # |g|^2 = 0.25
        vec = np.zeros(4, dtype=complex)
        vec[0 * 2 + 1] = 1 / np.sqrt(2)
        vec[1 * 2 + 0] = -1 / np.sqrt(2)
        assert abs(vec.conj() @ op @ vec - 0.25) < 1e-12

    def test_block_traces_are_weight_squares(self):
        graph = glued_graph()
        family = glued_family(graph)
        index = build_hilbert(graph, family)
        op = singlet_projector(index, "e")
        expect = sum(abs(family.g("e", s)) ** 2 for s in family.allowed["e"])
        assert abs(np.trace(op).real - expect) < 1e-12

    def test_square_rescales_each_block(self):
        graph = glued_graph()
        family = glued_family(graph)
        index = build_hilbert(graph, family)
        op = singlet_projector(index, "e")
        # Each spin block is |g|^2 times a rank-one projector, so squaring
        # turns the block weights |g|^2 into |g|^4 and nothing else moves.
        expect = sorted(
            [0.0] * (op.shape[0] - 2)
            + [abs(family.g("e", s)) ** 4 for s in family.allowed["e"]]
        )
        assert np.allclose(np.linalg.eigvalsh(op @ op), expect, atol=1e-12)

    def test_boundary_link_rejected(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        with pytest.raises(OracleError):
            singlet_projector(index, "a1")


class TestHaarSampling:
    def test_unit_norms(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        sec = index.family_sectors()[0]
        for grade, kw in [
            ("medium", {}),
            ("coarse", {}),
            ("fine", {"weights": {sec: 1.0}}),
        ]:
            v = haar_sample(index, grade, seed=1, shot=4, **kw)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_counter_reproducibility(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        a = haar_sample(index, "medium", seed=9, shot=3)
        b = haar_sample(index, "medium", seed=9, shot=3)
        c = haar_sample(index, "medium", seed=9, shot=4)
        d = haar_sample(index, "medium", seed=8, shot=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_second_moment(self):
        graph = four_leg_graph()
        family = SectorFamily.build(graph, "1/2", "1/2")
        index = build_hilbert(graph, family)
        shots = 500
        acc = np.zeros(index.dim)
        for s in range(shots):
            acc += np.abs(haar_sample(index, "medium", seed=2, shot=s)) ** 2
        mean = acc / shots
        # Each |psi_i|^2 has mean 1/n and variance below 1/n^2.
        sigma = 1.0 / index.dim / np.sqrt(shots)
        assert np.all(np.abs(mean - 1.0 / index.dim) < 4 * sigma)

    def test_matches_fresh_philox_streams(self):
        # Reference: a fresh Philox per (seed, chunk, vertex, block) and a
        # Kronecker product over the vertices.
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        s1, s2 = index.family_sectors()
        for shot in (0, 5, 300):
            vec = np.ones(1, dtype=complex)
            for vi, space in enumerate(index.spaces):
                vec = np.kron(vec, fresh_philox_row(7, shot, vi, 0, space.dim))
            assert np.array_equal(haar_sample(index, "medium", 7, shot), vec)
            coarse = fresh_philox_row(7, shot, 0, 1, index.dim)
            assert np.array_equal(haar_sample(index, "coarse", 7, shot), coarse)
            fine = np.zeros(index.dim, dtype=complex)
            for si, (sec, w) in enumerate([(s1, 0.25), (s2, 0.75)]):
                block = np.ones(1, dtype=complex)
                for vi, rng in enumerate(index.sector_local_ranges(sec)):
                    block = np.kron(block, fresh_philox_row(7, shot, vi, 2 + si, rng.size))
                fine[index.sector_columns(sec)] += np.sqrt(w) * block
            got = haar_sample(index, "fine", 7, shot, weights={s1: 1.0, s2: 3.0})
            assert np.array_equal(got, fine)

    @pytest.mark.parametrize("grade", ["medium", "coarse", "fine"])
    def test_chunk_boundary_shots_equal_one_batch(self, grade):
        # Shots 63 and 64 fall in different chunks of the stream.
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        weights = {s: 1.0 + i for i, s in enumerate(index.family_sectors())} if grade == "fine" else None
        rows = _haar_rows(index, grade, 3, range(63, 66), weights)
        for s, row in enumerate(rows):
            assert np.array_equal(row, haar_sample(index, grade, 3, 63 + s, weights))
        assert not np.array_equal(rows[0], rows[1])

    def test_vertex_and_block_keys_do_not_collide(self):
        # (vertex 0, block 1024) and (vertex 1, block 0) are distinct
        # streams; a key packed as vertex << 10 ^ block would merge them.
        a = oracle._unit_gaussians(4, range(0, 3), 0, 1024, 6)
        b = oracle._unit_gaussians(4, range(0, 3), 1, 0, 6)
        assert not np.any(np.all(a == b, axis=1))

    @pytest.mark.parametrize("batch", [1, 17, 256])
    def test_batch_rows_equal_single_samples(self, batch):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        for start in (0, 2 * batch):
            rows = _haar_rows(index, "medium", 11, range(start, start + batch))
            assert rows.shape == (batch, index.dim)
            for s, row in enumerate(rows):
                assert np.array_equal(row, haar_sample(index, "medium", 11, start + s))

    def test_fine_sample_supported_on_weighted_sectors(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        s1 = index.family_sectors()[0]
        v = haar_sample(index, "fine", seed=5, shot=0, weights={s1: 1.0})
        mask = np.zeros(index.dim, dtype=bool)
        mask[index.sector_columns(s1)] = True
        assert np.allclose(v[~mask], 0.0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class TestEngineEquivalence:
    def test_single_vertex_totals(self):
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        index = build_hilbert(graph, family)
        kind = ModelKind.bulk_to_boundary()
        totals = IsingModel(graph, family, kind).partition_table().totals
        cmap = build_cmap(index, kind)
        z0 = exact_replica_average(index, (), cmap=cmap)
        z1 = exact_replica_average(index, "bulk", cmap=cmap)
        assert z0 == pytest.approx(totals[0], rel=1e-10)
        assert z1 == pytest.approx(totals[1], rel=1e-10)

    def test_glued_totals_keep_cross_sector_terms(self):
        graph = glued_graph()
        family = glued_family(graph)
        index = build_hilbert(graph, family)
        kind = ModelKind.bulk_to_boundary()
        totals = IsingModel(graph, family, kind).partition_table().totals
        cmap = build_cmap(index, kind)
        z0 = exact_replica_average(index, (), cmap=cmap)
        z1 = exact_replica_average(index, "bulk", cmap=cmap)
        assert z0 == pytest.approx(totals[0], rel=1e-10)
        assert z1 == pytest.approx(totals[1], rel=1e-10)
        # The sector-diagonal part alone undercounts: cross-sector terms with
        # matching boundary labels contribute to the swapped trace too.
        pb = cmap.pair_basis(resolve_region(index, "bulk"))
        per_sector = 0.0
        for sec in index.family_sectors():
            cols = index.sector_local_ranges(sec)
            per_sector += sum(
                _component_pattern_sum(cmap, pb, [u], colsel1=cols, colsel2=cols)
                for u in _all_subsets(2)
            )
        assert per_sector < z1 - 1.0

    def test_b2b_pure_state_totals(self):
        graph = glued_graph()
        family = glued_family(graph)
        index = build_hilbert(graph, family)
        s1, s2 = index.family_sectors()
        state = IntertwinerState.from_pure(graph, {s1: [0.6], s2: [0.8]})
        part = BoundaryPartition.from_input(graph, ["a1", "a2"])
        kind = ModelKind.boundary_to_boundary(part)
        totals = IsingModel(graph, family, kind, state=state).partition_table().totals
        cmap = build_cmap(index, kind, state=state)
        z0 = exact_replica_average(index, (), cmap=cmap)
        z1 = exact_replica_average(index, sorted(part.input_region), cmap=cmap)
        assert z0 == pytest.approx(totals[0], rel=1e-10)
        assert z1 == pytest.approx(totals[1], rel=1e-10)

    def test_b2b_mixed_state_totals(self):
        graph = glued_graph()
        family = SectorFamily.build(
            graph,
            "1/2",
            "2",
            allowed={
                "e": ["1"],
                "a1": ["1"],
                "a2": ["1"],
                "b1": ["1"],
                "b2": ["1", "2"],
            },
        )
        index = build_hilbert(graph, family)
        s1, s2 = index.family_sectors()
        state = IntertwinerState.from_blocks(
            graph,
            [s1, s2],
            {
                (s1, s1): np.array([[0.5]]),
                (s1, s2): np.array([[0.25 + 0.1j]]),
                (s2, s2): np.array([[0.5]]),
            },
        )
        part = BoundaryPartition.from_input(graph, ["a1", "b1"])
        kind = ModelKind.boundary_to_boundary(part)
        totals = IsingModel(graph, family, kind, state=state).partition_table().totals
        cmap = build_cmap(index, kind, state=state)
        assert len(cmap.weights) == 2
        z0 = exact_replica_average(index, (), cmap=cmap)
        z1 = exact_replica_average(index, sorted(part.input_region), cmap=cmap)
        assert z0 == pytest.approx(totals[0], rel=1e-10)
        assert z1 == pytest.approx(totals[1], rel=1e-10)

    def test_random_instances_agree(self):
        """The engine-oracle gate: on every draw, the totals of
        `partition_table` under both kinds equal the oracle's exact replica
        averages of region () and of the swap region (the bulk, or the
        input region).  60 draws have two or three vertices, a second
        series of 20 one vertex.  The draws meet one vertex, a cycle, three
        vertices, a pure and a mixed state, a spin of weight 0 and a cell
        with a negative cosine."""
        seen = dict.fromkeys(
            ("one_vertex", "cycle", "three_vertices", "pure", "mixed", "zero_weight", "negative_cosine"), 0
        )

        def check(drawn):
            graph, family, state, part, index = drawn
            routes = (
                (ModelKind.bulk_to_boundary(), None, "bulk"),
                (ModelKind.boundary_to_boundary(part), state, sorted(part.input_region)),
            )
            for kind, held, region in routes:
                model = IsingModel(graph, family, kind, state=held)
                table = model.partition_table()
                cmap = build_cmap(index, kind, state=held)
                assert table.totals[0] == pytest.approx(exact_replica_average(index, (), cmap=cmap), rel=1e-9)
                assert table.totals[1] == pytest.approx(exact_replica_average(index, region, cmap=cmap), rel=1e-9)
            seen["one_vertex"] += len(graph.vertices) == 1
            seen["cycle"] += "x0" in graph.link_ids()
            seen["three_vertices"] += len(graph.vertices) == 3
            seen["pure" if state.amplitudes is not None else "mixed"] += 1
            seen["zero_weight"] += any(g == 0 for weights in family.weights.values() for g in weights.values())
            seen["negative_cosine"] += int(np.count_nonzero(model._boundary_entries(table.sectors)[2] < 0))

        for vertex_counts, count in ((st.integers(2, 3), 60), (st.just(1), 20)):
            settings(max_examples=count)(given(boundary_instances(vertex_counts, max_dim=8000))(check))()
        assert all(seen.values()), seen


class TestOneMapPerQuestion:
    """An oracle quantity is taken on the map it is given, which must be
    built on the index it is given."""

    @pytest.mark.parametrize(
        "compute",
        [
            lambda index, cmap: exact_replica_average(index, "bulk", cmap=cmap),
            lambda index, cmap: replica_purity(index, "bulk", cmap=cmap),
            lambda index, cmap: mc_purity(index, "bulk", cmap=cmap, shots=256),
            lambda index, cmap: localisation_probe(index, index.family_sectors()[0], cmap=cmap, shots=60),
        ],
        ids=["exact_replica_average", "replica_purity", "mc_purity", "localisation_probe"],
    )
    def test_a_map_of_another_index_is_refused(self, compute):
        graph = four_leg_graph()
        index = build_hilbert(graph, two_sector_vertex_family(graph))
        kind = ModelKind.bulk_to_boundary()
        compute(index, build_cmap(index, kind))
        for other in (
            build_hilbert(graph, SectorFamily.build(graph, "1/2", "1/2")),
            build_hilbert(graph, two_sector_vertex_family(graph)),
        ):
            with pytest.raises(OracleError, match="built on another index") as err:
                compute(index, build_cmap(other, kind))
            assert f"dimension {other.dim}, this one {index.dim}" in str(err.value)
            assert "build the map on this index" in str(err.value)


class TestGrades:
    def test_fine_peaked_equals_restricted_medium(self):
        graph = glued_graph()
        family = glued_family(graph)
        index = build_hilbert(graph, family)
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        s1 = next(s for s in index.family_sectors() if s.spin("e").twice == 1)
        # A family restricted to the sector's spins, with the same internal
        # weight: the plain vertex average over it reproduces the peaked
        # fine average up to the per-vertex normalizations n(n+1).
        restricted = SectorFamily.build(
            graph,
            "1/2",
            "3/2",
            allowed={lid: [s1.spin(lid)] for lid in graph.link_ids()},
            weights={"e": {s1.spin("e"): family.g("e", s1.spin("e"))}},
            normalize=False,
        )
        rindex = build_hilbert(graph, restricted)
        rcmap = build_cmap(rindex, ModelKind.bulk_to_boundary())
        sizes = [r.size for r in index.sector_local_ranges(s1)]
        norm = float(np.prod([n * (n + 1.0) for n in sizes]))
        for region in [(), "bulk"]:
            fine = exact_replica_average(
                index, region, grade="fine", weights={s1: 1.0}, cmap=cmap
            )
            medium = exact_replica_average(rindex, region, cmap=rcmap)
            assert fine == pytest.approx(medium / norm, rel=1e-10)

    def test_fine_single_sector_ratio_formula(self):
        graph = four_leg_graph()
        family = SectorFamily.build(graph, "1/2", "1/2")
        index = build_hilbert(graph, family)
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        z0 = exact_replica_average(index, (), grade="fine", cmap=cmap)
        z1 = exact_replica_average(index, "bulk", grade="fine", cmap=cmap)
        d_i, d_o = 2, 16
        assert z1 / z0 == pytest.approx((d_i + d_o) / (d_i * d_o + 1.0), rel=1e-12)

    def test_coarse_is_endpoint_pattern_sum(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        pb = cmap.pair_basis(resolve_region(index, "bulk"))
        expect = (
            _component_pattern_sum(cmap, pb, [()])
            + _component_pattern_sum(cmap, pb, [(0, 1)])
        )
        coarse = exact_replica_average(index, "bulk", grade="coarse", cmap=cmap)
        assert coarse == pytest.approx(expect, rel=1e-12)

    def test_fine_grades_match_explicit_assembly(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        secs = index.family_sectors()
        w = {secs[0]: 0.4, secs[1]: 0.6}
        pb = cmap.pair_basis(resolve_region(index, "bulk"))
        cols = {s: index.sector_local_ranges(s) for s in secs}
        size = {
            s: int(np.prod([r.size for r in cols[s]], dtype=np.int64)) for s in secs
        }

        def t_sum(sj, sk, subsets):
            return _component_pattern_sum(
                cmap, pb, subsets, colsel1=cols[sj], colsel2=cols[sk]
            )

        ident = sum(
            w[sj] * w[sk] * t_sum(sj, sk, [()]) / (size[sj] * size[sk])
            for sj in secs
            for sk in secs
        )
        fine = ident
        high = ident
        for s in secs:
            t_all = t_sum(s, s, _all_subsets(2))
            t_id = t_sum(s, s, [()])
            norm = float(np.prod([r.size * (r.size + 1.0) for r in cols[s]]))
            fine += w[s] ** 2 * (t_all / norm - t_id / size[s] ** 2)
            high += w[s] ** 2 * (t_all - t_id) / size[s] ** 2
        got_fine = exact_replica_average(
            index, "bulk", grade="fine", weights=w, cmap=cmap
        )
        got_high = exact_replica_average(
            index, "bulk", grade="fine-high", weights=w, cmap=cmap
        )
        assert got_fine == pytest.approx(fine, rel=1e-12)
        assert got_high == pytest.approx(high, rel=1e-12)

    def test_unknown_grade_rejected(self):
        graph = four_leg_graph()
        index = build_hilbert(graph, SectorFamily.build(graph, "1/2", "1/2"))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        with pytest.raises(OracleError):
            exact_replica_average(index, (), cmap=cmap, grade="smooth")

    def test_repeated_average_is_identical(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        kind = ModelKind.bulk_to_boundary()
        cmap = build_cmap(index, kind)
        a = exact_replica_average(index, "bulk", cmap=cmap)
        b = exact_replica_average(index, "bulk", cmap=cmap)
        c = exact_replica_average(index, "bulk", cmap=build_cmap(index, kind))
        assert a == b == c

    def test_grid_limit_names_itself_and_the_way_around(self, monkeypatch):
        """GRID_LIMIT caps the dense grid Monte Carlo lays out (288 entries
        for 4 shots here); exact traces never build that grid, so a limit
        below it leaves them as they are."""
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        kind = ModelKind.bulk_to_boundary()
        unpatched = exact_replica_average(index, "bulk", cmap=build_cmap(index, kind))
        monkeypatch.setattr(oracle, "GRID_LIMIT", 100)
        cmap = build_cmap(index, kind)
        assert exact_replica_average(index, "bulk", cmap=cmap).hex() == unpatched.hex()
        with pytest.raises(OracleError) as err:
            mc_purity(index, "bulk", cmap=cmap, shots=4)
        message = str(err.value)
        assert "GRID_LIMIT = 100" in message
        assert "raise holoising.oracle.GRID_LIMIT" in message


def dense_components(index, kind, state=None, fixed=None):
    """[(w_n, C_n)]: the averaged map's components as dense out_dim x in_dim
    matrices, the reference the sparse build is checked against.  Output
    rows are the distinct label tuples of the singlet support in
    lexicographic order (np.unique), and support label s is entry (its
    row, s): amp[s] for the bulk-to-boundary kind, and the conjugate bulk
    eigenvector's entry times amp[s], summed into a zero matrix with
    np.add.at, for the boundary-to-boundary kind.  Frozen vertices are
    contracted with tensordot."""
    graph = index.graph
    support, amp = oracle._singlet_support(index)
    sup = np.flatnonzero(support)
    slots = [index.boundary_slot(s.link_id) for s in graph.boundary_links]
    if not kind.is_boundary_to_boundary:
        slots = [("I", x) for x in graph.vertices] + slots
    labels = np.stack([index.slot_key(s)[0][sup] for s in slots], axis=1)
    inverse = np.unique(labels, axis=0, return_inverse=True)[1].reshape(-1)
    out_dim = int(inverse.max()) + 1 if sup.size else 0
    if kind.is_boundary_to_boundary:
        weights, vectors = oracle._bulk_eigenstates(index, state)
        bulk_keys, _ = index.bulk_key()
        comps = []
        for w, vec in zip(weights, vectors):
            f = np.zeros((out_dim, index.dim), dtype=complex)
            np.add.at(f, (inverse, sup), vec.conj()[bulk_keys[sup]] * amp[sup])
            comps.append((w, f))
    else:
        f = np.zeros((out_dim, index.dim), dtype=complex)
        f[inverse, sup] = amp[sup]
        comps = [(1.0, f)]
    if fixed is not None:
        dims = index.vertex_dims
        order = [graph.vertices.index(x) for x in fixed.vertices]
        core = np.asarray(fixed.amplitudes, dtype=complex).reshape([dims[i] for i in order])
        axes = ([1 + i for i in order], list(range(len(order))))
        comps = [
            (w, np.tensordot(f.reshape((out_dim,) + dims), core, axes=axes).reshape(out_dim, -1))
            for w, f in comps
        ]
    return comps


def nonzero_entries(components):
    """(row, column, component, value) of A = [sqrt(w_n) C_n], read off
    dense components with np.nonzero."""
    parts = []
    for n, (w, f) in enumerate(components):
        r, c = np.nonzero(f)
        parts.append((r, c, np.full(r.size, n), np.sqrt(w) * f[r, c]))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def assert_same_entries(got, want):
    """Equal entry arrays, bit for bit (signed zeros included)."""
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def with_reference(index, kind, state=None, fixed=None):
    """The map build_cmap makes and its dense reference components."""
    return (
        build_cmap(index, kind, state=state, fixed=fixed),
        dense_components(index, kind, state=state, fixed=fixed),
    )


def brute_patterns(cmap, components, region, subsets, cols1=None, cols2=None):
    """[sum_{n,m} w_n w_m Tr[(C_n (x) C_m) S_U (C_n^+ (x) C_m^+) S_R] for U
    in subsets], with the operators built as explicit dense matrices from
    the reference `components` of `cmap`.  cols1/cols2 keep only those
    global input columns of each replica."""
    out, n_in = cmap.out_dim, cmap.in_dim
    # S_R on (out x out): swap the region labels of the two rows, where
    # both swapped rows exist.
    region = sorted(region)
    rest = [s for s in cmap.out_slots if s not in region]
    labels = [
        (
            tuple(int(cmap.out_keys[s][0][r]) for s in region),
            tuple(int(cmap.out_keys[s][0][r]) for s in rest),
        )
        for r in range(out)
    ]
    row_of = {lab: r for r, lab in enumerate(labels)}
    s_r = np.zeros((out * out, out * out))
    for r1, r2 in itertools.product(range(out), range(out)):
        q1 = row_of.get((labels[r2][0], labels[r1][1]))
        q2 = row_of.get((labels[r1][0], labels[r2][1]))
        if q1 is not None and q2 is not None:
            s_r[q1 * out + q2, r1 * out + r2] = 1.0

    def swap_in(subset):
        """S_U on (in x in) as the permutation it is: swap the digits of
        the vertices in U between the two input labels."""
        digits = np.array(np.unravel_index(np.arange(n_in), cmap.col_dims))
        a1, a2 = (g.reshape(-1) for g in np.meshgrid(np.arange(n_in), np.arange(n_in), indexing="ij"))
        d1, d2 = digits[:, a1], digits[:, a2]
        u = list(subset)
        d1[u], d2[u] = d2[u].copy(), d1[u].copy()
        return np.ravel_multi_index(tuple(d1), cmap.col_dims) * n_in + np.ravel_multi_index(
            tuple(d2), cmap.col_dims
        )

    def restrict(f, cols):
        if cols is None:
            return f
        g = np.zeros_like(f)
        g[:, cols] = f[:, cols]
        return g

    perms = [swap_in(u) for u in subsets]
    totals = np.zeros(len(subsets), dtype=complex)
    for (wn, fn), (wm, fm) in itertools.product(components, repeat=2):
        cc = np.kron(restrict(fn, cols1), restrict(fm, cols2))
        cc_dag = cc.conj().T
        for i, perm in enumerate(perms):
            m = cc @ cc_dag[perm]  # (C (x) C) S_U (C^+ (x) C^+)
            totals[i] += wn * wm * np.sum(m * s_r.T)  # Tr(m S_R)
    assert np.all(np.abs(totals.imag) <= 1e-12 * np.abs(totals) + 1e-300)
    return totals.real


def pattern_cases(draws):
    """(cmap, reference components, regions) for the tiny named instances
    and random draws."""
    cases = []
    graph = four_leg_graph()
    index = build_hilbert(graph, SectorFamily.build(graph, "1/2", "1/2"))
    cases.append((*with_reference(index, ModelKind.bulk_to_boundary()), [(), "bulk", ["p2", "p4"]]))
    sec = index.family_sectors()[0]
    state = IntertwinerState.from_blocks(
        graph, [sec], {(sec, sec): np.array([[0.7, 0.1j], [-0.1j, 0.3]])}
    )
    part = BoundaryPartition.from_input(graph, ["p1", "p3"])
    kind = ModelKind.boundary_to_boundary(part)
    cases.append((*with_reference(index, kind, state=state), [(), ["p1", "p3"], ["p2"]]))

    graph = glued_graph()
    index = build_hilbert(graph, tiny_glued_family(graph))
    s1, s2 = index.family_sectors()
    cases.append((*with_reference(index, ModelKind.bulk_to_boundary()), [(), "bulk", ["a2", "b1"]]))
    state = IntertwinerState.from_blocks(
        graph,
        [s1, s2],
        {(s1, s1): np.array([[0.6]]), (s1, s2): np.array([[0.2 - 0.3j]]), (s2, s2): np.array([[0.4]])},
    )
    part = BoundaryPartition.from_input(graph, ["a1", "a2"])
    kind = ModelKind.boundary_to_boundary(part)
    cases.append((*with_reference(index, kind, state=state), [["a1", "a2"]]))

    def small(drawn):
        """The explicit (out^2 x in^2) matrices stay small."""
        cmap = build_cmap(drawn[4], ModelKind.bulk_to_boundary())
        return cmap.out_dim * cmap.in_dim <= 1024

    for graph, family, state, part, index in examples(boundary_instances(max_dim=64).filter(small), draws):
        bnd = sorted(graph.boundary_ids())
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        cases.append((cmap, dense_components(index, cmap.kind), [(), "bulk", bnd[:1]]))
        kind = ModelKind.boundary_to_boundary(part)
        cmap = build_cmap(index, kind, state=state)
        if cmap.out_dim * cmap.in_dim <= 1024:
            comps = dense_components(index, kind, state=state)
            cases.append((cmap, comps, [(), sorted(part.input_region), bnd[-1:]]))
    return cases


class TestPatternBruteForce:
    """Every swap pattern against (C (x) C) S_U (C^+ (x) C^+) S_R built as
    explicit dense matrices."""

    def test_every_pattern_matches_explicit_operators(self):
        seen = set()
        for cmap, comps, regions in pattern_cases(draws=6):
            index = cmap.index
            kind = "b2b" if cmap.kind.is_boundary_to_boundary else "bulk"
            if len(cmap.weights) > 1:
                seen.add("mixed")
            for region in regions:
                slots = resolve_region(index, region)
                grid = cmap.pair_basis(slots)
                seen.add((kind, "bulk" if region == "bulk" else bool(slots)))
                subsets = _all_subsets(len(cmap.in_vertices))
                want = brute_patterns(cmap, comps, slots, subsets)
                for subset, expect in zip(subsets, want):
                    got = _component_pattern_sum(cmap, grid, [subset])
                    assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)
        assert {"mixed", ("bulk", False), ("bulk", "bulk"), ("bulk", True)} <= seen
        assert {("b2b", False), ("b2b", True)} <= seen

    def test_fine_sector_columns_match_explicit_operators(self):
        graph = glued_graph()
        index = build_hilbert(graph, tiny_glued_family(graph))
        secs = index.family_sectors()
        assert len(secs) == 2
        s1, s2 = secs
        state = IntertwinerState.from_pure(graph, {s1: [0.6], s2: [0.8j]})
        part = BoundaryPartition.from_input(graph, ["a2"])
        cmaps = [
            (*with_reference(index, ModelKind.bulk_to_boundary()), [(), "bulk"]),
            (*with_reference(index, ModelKind.boundary_to_boundary(part), state=state), [["a2"]]),
        ]
        for cmap, comps, regions in cmaps:
            for region in regions:
                slots = resolve_region(index, region)
                grid = cmap.pair_basis(slots)
                for sj, sk in itertools.product(secs, repeat=2):
                    rj, rk = index.sector_local_ranges(sj), index.sector_local_ranges(sk)
                    cj, ck = index.sector_columns(sj), index.sector_columns(sk)
                    subsets = _all_subsets(2) if sj == sk else [()]
                    want = brute_patterns(cmap, comps, slots, subsets, cj, ck)
                    for subset, expect in zip(subsets, want):
                        got = _component_pattern_sum(cmap, grid, [subset], colsel1=rj, colsel2=rk)
                        assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)


class TestMonteCarlo:
    def test_within_three_sigma_of_exact(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        exact = replica_purity(index, "bulk", cmap=cmap)
        est = mc_purity(index, "bulk", cmap=cmap, shots=3000, seed=13)
        assert abs(est.value - exact) < 3 * est.sigma
        assert est.sigma < 0.05

    def test_b2b_within_three_sigma(self):
        graph = glued_graph()
        family = glued_family(graph)
        index = build_hilbert(graph, family)
        s1, s2 = index.family_sectors()
        state = IntertwinerState.from_pure(graph, {s1: [0.6], s2: [0.8]})
        part = BoundaryPartition.from_input(graph, ["a1", "a2"])
        kind = ModelKind.boundary_to_boundary(part)
        cmap = build_cmap(index, kind, state=state)
        region = sorted(part.input_region)
        exact = replica_purity(index, region, cmap=cmap)
        est = mc_purity(index, region, cmap=cmap, shots=3000, seed=5)
        assert abs(est.value - exact) < 3 * est.sigma

    def test_batching_does_not_change_the_estimate(self, monkeypatch):
        graph = four_leg_graph()
        index = build_hilbert(graph, SectorFamily.build(graph, "1/2", "1/2"))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        monkeypatch.setattr(oracle, "MC_BATCH", 17)
        a = mc_purity(index, "bulk", cmap=cmap, shots=300, seed=3)
        monkeypatch.setattr(oracle, "MC_BATCH", 256)
        b = mc_purity(index, "bulk", cmap=cmap, shots=300, seed=3)
        assert a.value == b.value
        assert a.sigma == b.sigma

    def test_sigma_where_every_shot_is_pure(self):
        """Spin-0 legs leave a one-dimensional space: every shot has purity
        exactly 1 and sigma is exactly 0.  On the glued family an empty
        region also has purity 1 in every shot, up to the roundoff between
        the Gram and the norm; sigma stays at that roundoff.  Expanding the
        variance of z1 - ratio z0 into three moments read up to 4e-10
        here."""
        graph = four_leg_graph()
        index = build_hilbert(graph, SectorFamily.build(graph, "0", "0"))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        est = mc_purity(index, "bulk", cmap=cmap, shots=256, seed=0)
        assert est.value == 1.0 and est.sigma == 0.0
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        for shots, seed in ((256, 0), (3000, 1), (3000, 2)):
            est = mc_purity(index, None, cmap=cmap, shots=shots, seed=seed)
            assert abs(est.value - 1.0) < 1e-15
            assert est.sigma < 1e-15

    @pytest.mark.parametrize("grade, weights", [("coarse", None), ("fine", None), ("fine", (1.0, 3.0))])
    def test_coarse_and_fine_grades_within_six_sigma(self, grade, weights):
        """Each grade draws its own Haar states (one vector on the whole
        space for coarse, one per sector and vertex for fine); the estimate
        of each agrees with the exact purity of that grade."""
        graph = four_leg_graph()
        index = build_hilbert(graph, two_sector_vertex_family(graph))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        if weights is not None:
            weights = dict(zip(index.family_sectors(), weights))
        exact = replica_purity(index, ["p1", "p2"], cmap=cmap, grade=grade, weights=weights)
        est = mc_purity(index, ["p1", "p2"], cmap=cmap, shots=4000, seed=3, grade=grade, weights=weights)
        assert abs(est.value - exact) < 6 * est.sigma
        assert 0.0 < est.sigma < 0.01


def count_draws(monkeypatch):
    """Count `_unit_gaussians` calls: one per (vertex, block) a batch draws."""
    calls = []
    draw = oracle._unit_gaussians

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(oracle, "_unit_gaussians", counted)
    return calls


def hex_fields(est):
    return [x.hex() for x in (est.value, est.sigma, est.mean_numerator, est.mean_denominator)]


def b2b_setup(index):
    """The glued family's boundary-to-boundary map on a pure two-sector state."""
    graph = index.graph
    s1, s2 = index.family_sectors()
    state = IntertwinerState.from_pure(graph, {s1: [0.6], s2: [0.8]})
    part = BoundaryPartition.from_input(graph, ["a1", "a2"])
    cmap = build_cmap(index, ModelKind.boundary_to_boundary(part), state=state)
    return cmap, sorted(part.input_region)


class TestHaarBatchReuse:
    def test_second_estimate_reads_the_first_draw(self, monkeypatch):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        calls = count_draws(monkeypatch)
        mc_purity(index, "bulk", cmap=build_cmap(index, ModelKind.bulk_to_boundary()), shots=256, seed=5)
        assert calls
        calls.clear()
        cmap, region = b2b_setup(index)
        est = mc_purity(index, region, cmap=cmap, shots=256, seed=5)
        assert calls == []
        fresh = build_hilbert(graph, glued_family(graph))
        cmap, region = b2b_setup(fresh)
        ref = mc_purity(fresh, region, cmap=cmap, shots=256, seed=5)
        assert calls
        assert hex_fields(est) == hex_fields(ref)

    @pytest.mark.parametrize(
        "change, draws",
        [
            ({}, False),
            ({"weights": {0: 2.0, 1: 2.0}}, False),  # same normalized weights
            ({"seed": 6}, True),
            ({"shots": 200}, True),
            ({"grade": "medium", "weights": None}, True),
            ({"weights": {0: 1.0, 1: 3.0}}, True),
        ],
    )
    def test_another_draw_only_where_the_batch_differs(self, monkeypatch, change, draws):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        sectors = index.family_sectors()
        base = {"shots": 256, "seed": 5, "grade": "fine", "weights": {0: 1.0, 1: 1.0}}
        calls = count_draws(monkeypatch)
        for kw in (base, {**base, **change}):
            if kw["weights"] is not None:
                kw = {**kw, "weights": {sectors[i]: w for i, w in kw["weights"].items()}}
            calls.clear()
            est = mc_purity(index, "bulk", cmap=cmap, **kw)
        assert bool(calls) == draws
        fresh = build_hilbert(graph, glued_family(graph))
        ref = mc_purity(fresh, "bulk", cmap=build_cmap(fresh, ModelKind.bulk_to_boundary()), **kw)
        assert hex_fields(est) == hex_fields(ref)

    def test_a_longer_estimate_draws_every_batch(self, monkeypatch):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        calls = count_draws(monkeypatch)
        monkeypatch.setattr(oracle, "MC_BATCH", 128)
        mc_purity(index, "bulk", cmap=cmap, shots=300, seed=5)
        first = len(calls)
        calls.clear()
        mc_purity(index, "bulk", cmap=cmap, shots=300, seed=5)
        assert len(calls) == first == 3 * len(index.spaces)

    def test_probe_after_mc_purity_draws_nothing(self, monkeypatch):
        graph = four_leg_graph()
        index = build_hilbert(graph, two_sector_vertex_family(graph))
        sec = index.family_sectors()[0]
        calls = count_draws(monkeypatch)
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        mc_purity(index, "bulk", cmap=cmap, shots=60, seed=4)
        calls.clear()
        report = localisation_probe(index, sec, cmap=cmap, shots=60, seed=4)
        assert calls == []
        fresh = build_hilbert(graph, two_sector_vertex_family(graph))
        fresh_cmap = build_cmap(fresh, ModelKind.bulk_to_boundary())
        assert report == localisation_probe(fresh, fresh.family_sectors()[0], cmap=fresh_cmap, shots=60, seed=4)

    def test_written_samples_change_no_estimate(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        first = mc_purity(index, "bulk", cmap=cmap, shots=256, seed=5)
        rows = _haar_rows(index, "medium", 5, range(0, 256))
        rows[:] = 0.0
        sample = haar_sample(index, "medium", seed=5, shot=0)
        sample[:] = 0.0
        held = index._haar[1]
        with pytest.raises(ValueError):
            held[0, 0] = 0.0
        again = mc_purity(index, "bulk", cmap=cmap, shots=256, seed=5)
        assert index._haar[1] is held
        assert hex_fields(again) == hex_fields(first)


def refuses_without_drawing(monkeypatch, index, name, call):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a Haar batch")

    monkeypatch.setattr(oracle, "_unit_gaussians", no_draw)
    with pytest.raises(OracleError, match=rf"^{name}=.* out of range"):
        call()
    assert index._haar is None


BAD_SEEDS = [({"seed": -1}, "seed"), ({"seed": 2**64}, "seed")]


class TestArgumentRanges:
    @pytest.mark.parametrize(
        "kw, name",
        [
            ({"shots": 0}, "shots"),
            ({"shots": 1}, "shots"),
            ({"shots": -5}, "shots"),
            *BAD_SEEDS,
        ],
    )
    def test_mc_purity(self, monkeypatch, kw, name):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        args = {"shots": 256, "seed": 0, **kw}
        refuses_without_drawing(monkeypatch, index, name, lambda: mc_purity(index, "bulk", cmap=cmap, **args))

    @pytest.mark.parametrize("kw, name", [({"shot": -1}, "shot"), *BAD_SEEDS])
    def test_haar_sample(self, monkeypatch, kw, name):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        refuses_without_drawing(monkeypatch, index, name, lambda: haar_sample(index, **kw))

    @pytest.mark.parametrize(
        "kw, name", [({"shots": 0}, "shots"), ({"shots": 1}, "shots"), *BAD_SEEDS]
    )
    def test_localisation_probe(self, monkeypatch, kw, name):
        graph = four_leg_graph()
        index = build_hilbert(graph, two_sector_vertex_family(graph))
        sec = index.family_sectors()[0]
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        args = {"shots": 60, **kw}
        refuses_without_drawing(monkeypatch, index, name, lambda: localisation_probe(index, sec, cmap=cmap, **args))

    def test_edges_of_the_ranges_draw(self, monkeypatch):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        v = haar_sample(index, seed=2**64 - 1, shot=0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        monkeypatch.setattr(oracle, "MC_BATCH", 1)
        est = mc_purity(index, "bulk", cmap=cmap, shots=2, seed=2**64 - 1)
        assert est.shots == 2 and np.isfinite(est.sigma)


def refused_calls(index):
    """{case: call} for each input the oracle cannot use, on the glued
    index: a state handed to the bulk-to-boundary map or missing from the
    boundary-to-boundary one, sector weights at a grade that reads none,
    and fine weights that do not make a distribution over the family's
    sectors."""
    s1, s2 = index.family_sectors()
    state = IntertwinerState.from_pure(index.graph, {s1: [0.6], s2: [0.8]})
    cmap = build_cmap(index, ModelKind.bulk_to_boundary())
    part = BoundaryPartition.from_input(index.graph, ["a1", "a2"])
    weights = {s1: 1.0, s2: 3.0}

    def held_then_weighted():
        # the batch the index now holds has this grade, seed and shot range
        mc_purity(index, "bulk", cmap=cmap, shots=64)
        mc_purity(index, "bulk", cmap=cmap, shots=64, weights=weights)

    return {
        "bulk_map_with_state": lambda: build_cmap(index, ModelKind.bulk_to_boundary(), state=state),
        "boundary_map_without_state": lambda: build_cmap(index, ModelKind.boundary_to_boundary(part)),
        "exact_medium": lambda: exact_replica_average(index, "bulk", cmap=cmap, weights=weights),
        "exact_coarse": lambda: exact_replica_average(index, (), cmap=cmap, grade="coarse", weights=weights),
        "purity_medium": lambda: replica_purity(index, "bulk", cmap=cmap, weights=weights),
        "mc_medium_held": held_then_weighted,
        "mc_coarse": lambda: mc_purity(index, "bulk", cmap=cmap, shots=64, grade="coarse", weights=weights),
        "haar_medium": lambda: haar_sample(index, weights=weights),
        "haar_coarse": lambda: haar_sample(index, "coarse", weights=weights),
        "fine_unknown_sector": lambda: exact_replica_average(index, "bulk", cmap=cmap, grade="fine", weights={"bogus": 1.0}),
        "fine_negative": lambda: haar_sample(index, "fine", weights={s1: 1.0, s2: -0.5}),
        "fine_no_mass": lambda: mc_purity(index, "bulk", cmap=cmap, shots=64, grade="fine", weights={s1: 0.0}),
    }


def graded(grade):
    return f"grade {grade!r} reads no sector weights; weights apply to the fine grades only, pass weights=None"


REFUSALS = {
    "bulk_map_with_state": "the bulk-to-boundary map reads no bulk state; pass state=None",
    "boundary_map_without_state": "the boundary-to-boundary map needs a bulk input state",
    "exact_medium": graded("medium"),
    "exact_coarse": graded("coarse"),
    "purity_medium": graded("medium"),
    "mc_medium_held": graded("medium"),
    "mc_coarse": graded("coarse"),
    "haar_medium": graded("medium"),
    "haar_coarse": graded("coarse"),
    "fine_unknown_sector": "weight given for unknown sector bogus",
    "fine_negative": "sector weights must be non-negative",
    "fine_no_mass": "sector weights must have positive mass",
}


class TestRefusals:
    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_unusable_input_raises_its_name(self, case):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        with pytest.raises(OracleError, match=f"^{re.escape(REFUSALS[case])}$"):
            refused_calls(index)[case]()


class TestReductions:
    def test_trace_and_purity_bounds(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        cmap, ((_, f),) = with_reference(index, ModelKind.bulk_to_boundary())
        psi = haar_sample(index, "medium", seed=21, shot=0)
        phi = f @ psi
        phi /= np.linalg.norm(phi)
        rho = reduced_density(cmap, phi, "bulk")
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        purity = float(np.einsum("ab,ba->", rho, rho).real)
        assert 1.0 / rho.shape[0] - 1e-12 <= purity <= 1.0 + 1e-12

    def test_product_state_reduction_is_rank_one(self):
        graph = build_graph(
            {
                "vertices": [{"id": "x", "valence": 3}, {"id": "y", "valence": 3}],
                "links": [{"id": f"s{i}", "end": ["x", i]} for i in range(3)]
                + [{"id": f"t{i}", "end": ["y", i]} for i in range(3)],
            }
        )
        family = SectorFamily.build(
            graph, "1/2", "1", allowed={"s0": ["1"], "t0": ["1"]}
        )
        index = build_hilbert(graph, family)
        rng = np.random.default_rng(3)
        dx, dy = index.vertex_dims
        vx = rng.normal(size=dx) + 1j * rng.normal(size=dx)
        vy = rng.normal(size=dy) + 1j * rng.normal(size=dy)
        phi = np.kron(vx / np.linalg.norm(vx), vy / np.linalg.norm(vy))
        keep = [("I", "x"), ("L", "x", 0), ("L", "x", 1), ("L", "x", 2)]
        rho = reduced_density(index, phi, keep)
        evals = np.linalg.eigvalsh(rho)
        assert abs(evals[-1] - 1.0) < 1e-10
        assert np.all(np.abs(evals[:-1]) < 1e-10)

    def test_sector_states_weights_sum_to_one(self):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        cmap, ((_, f),) = with_reference(index, ModelKind.bulk_to_boundary())
        psi = haar_sample(index, "medium", seed=2, shot=7)
        phi = f @ psi
        split = sector_states(cmap, phi)
        assert sum(w for w, _ in split.values()) == pytest.approx(1.0, abs=1e-12)
        for sec, (w, block) in split.items():
            d_i = int(
                np.prod(
                    [
                        space.blocks[b].intertwiner_dim
                        for space, b in zip(
                            index.spaces, index.sector_block_ids(sec)
                        )
                    ]
                )
            )
            assert block.shape[0] == d_i

    def test_sector_states_of_a_global_state(self):
        """On a global state each sector block holds the state's entries
        at `sector_columns`, its rows the intertwiner digits and its
        columns the port digits, both row-major over the vertices, and its
        weight is its columns' share of the squared norm."""
        rng = np.random.default_rng(17)
        for graph, family in ((glued_graph(), glued_family), (four_leg_graph(), two_sector_vertex_family)):
            index = build_hilbert(graph, family(graph))
            phi = rng.normal(size=index.dim) + 1j * rng.normal(size=index.dim)
            split = sector_states(index, phi)
            assert list(split) == list(index.family_sectors())
            norm = float(np.vdot(phi, phi).real)
            for sec, (w, block) in split.items():
                cols = index.sector_columns(sec)
                assert w == pytest.approx(float(np.vdot(phi[cols], phi[cols]).real) / norm, rel=1e-12)
                rows, columns = np.zeros_like(cols), np.zeros_like(cols)
                for space, bid, digits in zip(index.spaces, index.sector_block_ids(sec), index.digits()):
                    blk, local = space.blocks[bid], digits[cols]
                    # The intertwiner index varies fastest inside a block.
                    rows = rows * blk.intertwiner_dim + (local - blk.offset) % blk.intertwiner_dim
                    for p, d in enumerate(blk.port_dims):
                        columns = columns * d + space.port_digit[p][local]
                assert block.size == cols.size
                assert np.array_equal(block[rows, columns], phi[cols])
        # The last index has one vertex: its family's sectors tile it, so
        # the weights sum to 1.
        tiles = np.sort(np.concatenate([index.sector_columns(sec) for sec in split]))
        assert np.array_equal(tiles, np.arange(index.dim))
        assert sum(w for w, _ in split.values()) == pytest.approx(1.0, abs=1e-12)

    def test_region_resolution_errors(self):
        graph = glued_graph()
        family = glued_family(graph)
        index = build_hilbert(graph, family)
        s1 = index.family_sectors()[0]
        state = IntertwinerState.from_pure(graph, {s1: [1.0]})
        part = BoundaryPartition.from_input(graph, ["a1"])
        kind = ModelKind.boundary_to_boundary(part)
        cmap = build_cmap(index, kind, state=state)
        # A boundary-to-boundary map has no intertwiner slots to swap.
        with pytest.raises(OracleError):
            cmap.pair_basis(resolve_region(index, "bulk"))
        with pytest.raises(KeyError):
            resolve_region(index, ["nope"])


class TestChannelDiagnostics:
    @staticmethod
    def max_entangled_data(d_i=2, d_o=4):
        phi = np.zeros((d_i, d_o), dtype=complex)
        for a in range(d_i):
            phi[a, a] = 1.0 / np.sqrt(d_i)
        rho = np.outer(phi.reshape(-1), phi.reshape(-1).conj())
        key = (("only", 1),)
        return {key: rho}, {key: (d_i, d_o)}, {key: 1.0}, [key]

    def test_max_entangled_state_has_zero_defect(self):
        rhos, dims, cs, window = self.max_entangled_data()
        assert hs_isometry_defect(rhos, dims, cs, window) < 1e-12

    def test_choi_identity_has_trace_k(self):
        rhos, dims, cs, window = self.max_entangled_data()
        key = window[0]
        out = choi_map(rhos, {key: np.eye(2)}, dims, cs, window)
        assert abs(np.trace(out[key]).real - dims[key][0]) < 1e-12

    def test_choi_transposes_on_max_entangled(self):
        rhos, dims, cs, window = self.max_entangled_data()
        key = window[0]
        x = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        out = choi_map(rhos, {key: x}, dims, cs, window)[key]
        # K c Tr_I[(X (x) 1) rho] embeds the transpose of X, so the trace and
        # the two-norm content of X survive unchanged.
        assert np.trace(out).real == pytest.approx(np.trace(x).real, abs=1e-12)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(
            np.sum(np.abs(x) ** 2), abs=1e-12
        )

    def test_random_state_has_positive_defect(self):
        rng = np.random.default_rng(7)
        d_i, d_o = 2, 4
        vec = rng.normal(size=d_i * d_o) + 1j * rng.normal(size=d_i * d_o)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        key = (("only", 1),)
        defect = hs_isometry_defect({key: rho}, {key: (d_i, d_o)}, {key: 1.0}, [key])
        assert defect > 1e-3

    def test_mixed_state_preserves_trace_but_fails_gram(self):
        d_i, d_o = 2, 3
        sigma = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rho = np.kron(np.eye(d_i) / d_i, sigma)
        key = (("only", 1),)
        out = choi_map(
            {key: rho}, {key: np.eye(d_i)}, {key: (d_i, d_o)}, {key: 1.0}, [key]
        )
        # Trace preservation holds for the identity input...
        assert abs(np.trace(out[key]).real - d_i) < 1e-12
        # ...while the two-copy and Gram defects stay strictly positive.
        defect = hs_isometry_defect({key: rho}, {key: (d_i, d_o)}, {key: 1.0}, [key])
        assert defect > 1e-3

    def test_sector_mixing_rejected(self):
        rhos, dims, cs, window = self.max_entangled_data()
        with pytest.raises(OracleError):
            choi_map(rhos, {("other", 2): np.eye(2)}, dims, cs, window)


class TestLocalisation:
    def test_single_sector_probe_is_exactly_zero(self):
        graph = four_leg_graph()
        family = SectorFamily.build(graph, "1/2", "1/2")
        index = build_hilbert(graph, family)
        sec = index.family_sectors()[0]
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        report = localisation_probe(index, sec, cmap=cmap, shots=40, seed=1)
        # The single sector carries everything, so the weight never moves.
        assert abs(report.covariance) < 1e-15
        assert report.mean_weight == pytest.approx(1.0, abs=1e-12)

    def test_two_sector_probe_reports_finite_statistics(self):
        graph = four_leg_graph()
        family = two_sector_vertex_family(graph)
        index = build_hilbert(graph, family)
        sec = index.family_sectors()[0]
        cmap = build_cmap(index, ModelKind.bulk_to_boundary())
        report = localisation_probe(index, sec, cmap=cmap, shots=60, seed=4)
        assert np.isfinite(report.covariance)
        assert report.sigma > 0.0
        assert 0.0 < report.mean_weight < 1.0


class TestFrozenVertices:
    def test_freezing_matches_explicit_contraction(self):
        graph = glued_graph()
        family = glued_family(graph)
        index = build_hilbert(graph, family)
        kind = ModelKind.bulk_to_boundary()
        ((_, f),) = dense_components(index, kind)
        rng = np.random.default_rng(8)
        dx, dy = index.vertex_dims
        core = rng.normal(size=dy) + 1j * rng.normal(size=dy)
        frozen = build_cmap(
            index, kind, fixed=FrozenVertices(vertices=("y",), amplitudes=core)
        )
        assert frozen.in_vertices == ("x",)
        psi_x = rng.normal(size=dx) + 1j * rng.normal(size=dx)
        full = f @ np.kron(psi_x, core)
        part = frozen.row_product(psi_x[None, :], np.zeros((1, frozen.out_dim), dtype=complex))[0]
        assert np.allclose(full, part, atol=1e-12)


class TestMapEntries:
    """build_cmap's entries against np.nonzero of the dense reference, bit
    for bit."""

    def test_random_instances_match_dense_reference(self):
        seen = set()

        @settings(max_examples=32)
        @given(boundary_instances(max_dim=256))
        def check(drawn):
            graph, family, state, part, index = drawn
            for kind, held in ((ModelKind.bulk_to_boundary(), None), (ModelKind.boundary_to_boundary(part), state)):
                cmap, comps = with_reference(index, kind, state=held)
                assert cmap.weights == tuple(w for w, _ in comps)
                assert (cmap.out_dim, cmap.in_dim) == comps[0][1].shape
                assert_same_entries(cmap.entries, nonzero_entries(comps))
                seen.add(("b2b" if kind.is_boundary_to_boundary else "bulk", len(comps)))

        check()
        assert {("bulk", 1), ("b2b", 1), ("b2b", 2)} <= seen

    def test_zero_weight_spin_entries_are_dropped(self):
        graph = glued_graph()
        family = SectorFamily.build(
            graph,
            "1/2",
            "3/2",
            allowed={"e": ["1/2", "3/2"], "a1": ["1/2", "1"], "a2": ["1/2"], "b1": ["1"], "b2": ["1/2"]},
            weights={"e": {"1/2": 0.8, "3/2": 0.0}},
        )
        index = build_hilbert(graph, family)
        s1, s2 = index.family_sectors()
        state = IntertwinerState.from_blocks(
            graph,
            [s1, s2],
            {(s1, s1): np.array([[0.6]]), (s1, s2): np.array([[0.2 - 0.3j]]), (s2, s2): np.array([[0.4]])},
        )
        part = BoundaryPartition.from_input(graph, ["a1", "a2"])
        support = oracle._singlet_support(index)[0]
        for kind, st in [
            (ModelKind.bulk_to_boundary(), None),
            (ModelKind.boundary_to_boundary(part), state),
        ]:
            cmap, comps = with_reference(index, kind, state=st)
            assert_same_entries(cmap.entries, nonzero_entries(comps))
            row, col, comp, value = cmap.entries
            assert np.all(value != 0)
            # Every support label with e = 3/2 carries amplitude zero.
            assert np.sum(comp == 0) < np.count_nonzero(support)
        assert len(cmap.weights) == 2

    def test_empty_support(self):
        """The port spins of e never match: x admits only e = 1, y only
        e = 1/2, so no label survives the singlet."""
        graph = glued_graph()
        family = SectorFamily.build(
            graph,
            "1/2",
            "1",
            allowed={"e": ["1/2", "1"], "a1": ["1/2"], "a2": ["1/2"], "b1": ["1/2"], "b2": ["1"]},
        )
        index = build_hilbert(graph, family)
        assert index.dim > 0 and not oracle._singlet_support(index)[0].any()
        cmap, comps = with_reference(index, ModelKind.bulk_to_boundary())
        assert (cmap.out_dim, cmap.in_dim) == comps[0][1].shape == (0, index.dim)
        assert_same_entries(cmap.entries, nonzero_entries(comps))
        shots = np.ones((3, index.dim), dtype=complex)
        assert cmap.row_product(shots, np.zeros((3, 0), dtype=complex)).shape == (3, 0)
        assert exact_replica_average(index, (), cmap=cmap) == 0.0

    def test_one_vertex_map_stays_sparse_in_memory(self):
        """A one-vertex map on 2976 labels has 2976 output rows, so one dense
        component takes 2976^2 x 16 B = 142 MB; the build stays below 20 MB."""
        graph = four_leg_graph()
        family = SectorFamily.build(graph, "1/2", "3/2", allowed={f"p{i}": ["1/2", "3/2"] for i in range(1, 5)})
        index = build_hilbert(graph, family)
        assert index.dim == 2976
        kind = ModelKind.bulk_to_boundary()
        tracemalloc.start()
        try:
            cmap = build_cmap(index, kind)
            entries = cmap.entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cmap.out_dim == cmap.in_dim == index.dim
        assert peak < 20 * 2**20
        got, peak = traced_peak(lambda: exact_replica_average(index, ["p1", "p2"], cmap=cmap))
        assert peak < 20 * 2**20
        comps = dense_components(index, kind)
        assert_same_entries(entries, nonzero_entries(comps))
        ref = oracle.CMap(
            index, kind, [1.0], nonzero_entries(comps), cmap.out_dim,
            cmap.out_slots, cmap.out_keys, cmap.in_vertices, cmap.col_dims,
        )
        del comps
        assert exact_replica_average(index, ["p1", "p2"], cmap=ref).hex() == got.hex()

    def test_frozen_map_stays_sparse_in_memory(self):
        """71,824 labels and 2,320 output rows: one dense component would
        take 2.7 GB, the frozen map (y fixed) stays below 20 MB."""
        graph = glued_graph()
        half = ["1/2", "3/2"]
        family = SectorFamily.build(
            graph, "1/2", "2", allowed={"e": ["1", "2"], "a1": half, "a2": half, "b1": half, "b2": half}
        )
        index = build_hilbert(graph, family, cap=80_000)
        dy = index.space("y").dim
        core = np.random.default_rng(5).normal(size=dy) + 0j
        tracemalloc.start()
        try:
            cmap = build_cmap(index, ModelKind.bulk_to_boundary(), fixed=FrozenVertices(("y",), core))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.dim == 71_824 and cmap.out_dim == 2_320
        assert cmap.in_dim == index.space("x").dim
        assert cmap.entries[0].size > 0
        assert peak < 20 * 2**20
        # Pattern (x) pairs 303,808 entries that share a row: the pair Gram
        # lists them in chunks of PAIR_BLOCK, so the trace peaks near the
        # 1.3 MB of a sparse matrix product, not at the 15 MB of every pair.
        region = ["a1", "a2"]
        got, peak = traced_peak(lambda: exact_replica_average(index, region, cmap=cmap))
        assert peak < 4 * 2**20
        grid = cmap.pair_basis(resolve_region(index, region))
        want = sum(scipy_gram_sq(oracle._pattern_matrix(cmap, grid, None, u)) for u in [(), (0,)])
        assert got == pytest.approx(want, rel=1e-12)

    def test_one_vertex_traces_take_memory_of_their_entries(self):
        """Pattern {} of region () keys its 2,976 columns by (rest cell,
        input column), a range of 2976^2: a bincount over that range takes
        71 MB, over the ranked keys 24 KB."""
        index, cmap = four_leg_map()
        for region in [(), ["p1", "p2"]]:
            _, peak = traced_peak(lambda: exact_replica_average(index, region, cmap=cmap))
            assert peak < 2 * 2**20, region

    def test_one_vertex_estimate_stays_near_its_batch(self, monkeypatch):
        """The held 256-shot batch is 256 x 2976 x 16 B = 12 MB.  The 2,976
        rows fill 16 blocks of the 30 x 1296 bulk grid, so a shot's layout
        is 2,976 cells, not 38,880, and a block takes all 64 shots
        (64 x 2976 x 16 B = 3 MB; the dense grid would take 40 MB).  The
        estimate keeps the bits of 16-shot batches, whose blocks are 16
        shots."""
        index, cmap = four_leg_map()
        grid = cmap.pair_basis(resolve_region(index, "bulk"))
        assert (grid.keep_dim, grid.rest_dim) == (30, 1296)
        assert cmap.grid_product(resolve_region(index, "bulk")).size == 2976
        est, peak = traced_peak(lambda: mc_purity(index, "bulk", cmap=cmap, shots=256, seed=3))
        assert peak < 24 * 2**20
        monkeypatch.setattr(oracle, "MC_BATCH", 16)
        small = mc_purity(index, "bulk", cmap=cmap, shots=256, seed=3)
        assert hex_fields(small) == hex_fields(est)


def block_layout(cmap, grid):
    """(targets, blocks): the grid target (cell * n + m) of each position
    of the region's Monte Carlo layout as `GridBlocks` documents it, and the
    number of blocks.  The occupied cells' connected blocks come from
    scipy; each is a dense sub-grid of its keep labels and width columns,
    both ascending, the blocks ordered by shape (k, w) and then by least
    keep label."""
    row, _, comp, _ = cmap.entries
    width_dim = grid.rest_dim * len(cmap.weights)
    keep, width = grid.rid[row], grid.bid[row] * len(cmap.weights) + comp
    nodes = grid.keep_dim + width_dim
    graph = scipy.sparse.coo_array((np.ones(keep.size), (keep, grid.keep_dim + width)), shape=(nodes, nodes))
    label = scipy.sparse.csgraph.connected_components(graph, directed=False)[1][keep]
    blocks = []
    for b in np.unique(label):
        ks, ws = np.unique(keep[label == b]), np.unique(width[label == b])
        blocks.append(((ks.size, ws.size, ks[0]), np.add.outer(ks * width_dim, ws).ravel()))
    blocks.sort(key=lambda block: block[0])
    return np.concatenate([cells for _, cells in blocks] or [np.zeros(0, dtype=np.int64)]), len(blocks)


def assert_matches_dense_grid(est, grid, phi):
    """Check a Monte Carlo estimate against its shots laid out on the dense
    (keep x rest) grid, one Gram per shot, within rel 1e-13; `phi` holds A
    psi as (shots, out_dim, components).  Returns the reference value."""
    shots, _, ncomp = phi.shape
    big = np.zeros((shots, grid.keep_dim * grid.rest_dim, ncomp), dtype=complex)
    big[:, grid.cell] = phi
    big = big.reshape(shots, grid.keep_dim, grid.rest_dim * ncomp)
    rho = big @ big.conj().transpose(0, 2, 1)
    z1 = np.sum(np.abs(rho) ** 2, axis=(1, 2))
    z0 = np.sum(np.abs(phi) ** 2, axis=(1, 2)) ** 2
    m1, m0 = z1.mean(), z0.mean()
    ratio = m1 / m0
    cov = np.mean((z1 - m1) * (z0 - m0))
    var = (z1.var() - 2 * ratio * cov + ratio**2 * z0.var()) / (shots * m0**2)
    assert est.mean_numerator == pytest.approx(m1, rel=1e-13)
    assert est.mean_denominator == pytest.approx(m0, rel=1e-13)
    assert est.value == pytest.approx(ratio, rel=1e-13)
    assert est.sigma == pytest.approx(np.sqrt(var), rel=1e-13)
    return ratio


def partial_block_map():
    """A one-vertex boundary-to-boundary map of a rank-2 bulk state whose
    input region's grid is one 16 x 36 block with 336 occupied cells."""
    graph = build_graph(
        {
            "vertices": [{"id": "x", "valence": 4}],
            "links": [{"id": f"b{i}", "end": ["x", i]} for i in range(4)],
        }
    )
    allowed = {"b0": ["1", "2"], "b1": ["1/2", "3/2"], "b2": ["1/2"], "b3": ["1"]}
    index = build_hilbert(graph, SectorFamily.build(graph, "1/2", "2", allowed=allowed))
    # The state leaves out the fourth sector, (2, 3/2, 1/2, 1).
    sectors = list(index.family_sectors())[:3]
    sizes = [index.space("x").blocks[index.sector_block_ids(s)[0]].intertwiner_dim for s in sectors]
    assert sizes == [2, 2, 1]
    rng = np.random.default_rng(7)
    r = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    rho = r @ r.conj().T / np.linalg.norm(r) ** 2
    offs = np.cumsum([0, *sizes])
    blocks = {
        (si, sj): rho[offs[i] : offs[i + 1], offs[j] : offs[j + 1]]
        for i, si in enumerate(sectors)
        for j, sj in enumerate(sectors)
    }
    state = IntertwinerState.from_blocks(graph, sectors, blocks)
    kind = ModelKind.boundary_to_boundary(BoundaryPartition.from_input(graph, ["b0", "b2"]))
    return index, build_cmap(index, kind, state=state)


def four_leg_map():
    """The 2,976-label one-vertex index and its bulk-to-boundary map."""
    graph = four_leg_graph()
    family = SectorFamily.build(graph, "1/2", "3/2", allowed={f"p{i}": ["1/2", "3/2"] for i in range(1, 5)})
    index = build_hilbert(graph, family)
    return index, build_cmap(index, ModelKind.bulk_to_boundary())


def traced_peak(compute):
    """compute() and the peak of the memory tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = compute()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scipy_matrix(rows, cols, values, nrows=None):
    """The entries as a scipy CSR matrix, `nrows` rows (default: the last
    row with an entry)."""
    nrows = rows.max(initial=-1) + 1 if nrows is None else nrows
    return scipy.sparse.csr_array((values, (rows, cols)), shape=(nrows, cols.max(initial=-1) + 1))


def scipy_gram_sq(x1, x2=None, side="rows"):
    """||X1^+ X2||_F^2 (side "rows") or ||X1 X1^+||_F^2 (side "columns",
    x2 None) from scipy.sparse products of the entries."""
    if x2 is None and side == "columns":
        a = scipy_matrix(*x1)
        g = a @ a.conj().T
    else:
        x2 = x1 if x2 is None else x2
        nrows = max(x1[0].max(initial=-1), x2[0].max(initial=-1)) + 1
        g = scipy_matrix(*x1, nrows).conj().T @ scipy_matrix(*x2, nrows)
    return float(np.vdot(g.data, g.data).real)


# -- sparse averaged maps against dense references --------------------------


class TestSparseMaps:
    def test_frozen_vertex_patterns_match_explicit_operators(self, monkeypatch):
        """A frozen vertex leaves many entries per input column, so some
        patterns take the general pair Gram."""
        grams = []
        pair_gram = oracle._pair_gram

        def counted(*args):
            grams.append(args[0].size)
            return pair_gram(*args)

        monkeypatch.setattr(oracle, "_pair_gram", counted)
        graph = glued_graph()
        index = build_hilbert(graph, tiny_glued_family(graph))
        s1, s2 = index.family_sectors()
        state = IntertwinerState.from_blocks(
            graph,
            [s1, s2],
            {
                (s1, s1): np.array([[0.6]]),
                (s1, s2): np.array([[0.2 - 0.3j]]),
                (s2, s2): np.array([[0.4]]),
            },
        )
        part = BoundaryPartition.from_input(graph, ["a1", "a2"])
        rng = np.random.default_rng(31)
        cases = []
        for vertex in ("x", "y"):
            dim = index.space(vertex).dim
            core = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            fixed = FrozenVertices(vertices=(vertex,), amplitudes=core)
            bulk = with_reference(index, ModelKind.bulk_to_boundary(), fixed=fixed)
            cases.append((*bulk, [(), "bulk", ["a1"], ["b1"], ["a2", "b1"]]))
            b2b = with_reference(index, ModelKind.boundary_to_boundary(part), state=state, fixed=fixed)
            assert len(b2b[0].weights) == 2
            cases.append((*b2b, [(), ["a1", "a2"], ["b1"]]))
        for cmap, comps, regions in cases:
            assert len(cmap.in_vertices) == 1
            for region in regions:
                slots = resolve_region(index, region)
                grid = cmap.pair_basis(slots)
                subsets = _all_subsets(1)
                want = brute_patterns(cmap, comps, slots, subsets)
                for subset, expect in zip(subsets, want):
                    got = _component_pattern_sum(cmap, grid, [subset])
                    assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)
        assert grams

    @pytest.mark.parametrize("mixed", [False, True])
    def test_mc_purity_matches_dense_products(self, mixed, monkeypatch):
        graph = glued_graph()
        index = build_hilbert(graph, glued_family(graph))
        s1, s2 = index.family_sectors()
        if mixed:
            state = IntertwinerState.from_blocks(
                graph,
                [s1, s2],
                {
                    (s1, s1): np.array([[0.55]]),
                    (s1, s2): np.array([[0.1 + 0.2j]]),
                    (s2, s2): np.array([[0.45]]),
                },
            )
            part = BoundaryPartition.from_input(graph, ["a1", "a2"])
            cmap, comps = with_reference(index, ModelKind.boundary_to_boundary(part), state=state)
            region = ["a1", "a2"]
            assert len(cmap.weights) == 2
        else:
            cmap, comps = with_reference(index, ModelKind.bulk_to_boundary())
            region = ["a1", "b1"]
        shots, seed = 300, 17
        monkeypatch.setattr(oracle, "MC_BATCH", 128)
        est = mc_purity(index, region, cmap=cmap, shots=shots, seed=seed)

        # Reference: the dense stacked map, each shot laid out on the grid.
        ncomp = len(cmap.weights)
        stacked = np.stack([np.sqrt(w) * f for w, f in comps], axis=1)
        psi = _haar_rows(index, "medium", seed, range(shots))
        phi = (psi @ stacked.reshape(-1, cmap.in_dim).T).reshape(shots, cmap.out_dim, ncomp)
        ratio = assert_matches_dense_grid(est, cmap.pair_basis(resolve_region(index, region)), phi)
        assert 0.0 < ratio < 1.0

    @pytest.mark.parametrize("case", ["one-vertex bulk", "partial block"])
    def test_mc_purity_on_several_and_partial_blocks(self, case):
        """The block layout against the dense grid: on the four-leg map's
        bulk region, 2,976 rows on a 30 x 1,296 grid (38,880 cells) in 16
        full blocks; on a boundary-to-boundary map of a mixed state, 336
        occupied cells in one 16 x 36 block.  The layout holds exactly the
        cells of the occupied cells' connected blocks."""
        if case == "one-vertex bulk":
            index, cmap = four_leg_map()
            region, shots = "bulk", 16
        else:
            index, cmap = partial_block_map()
            region, shots = ["b0", "b2"], 64
        slots = resolve_region(index, region)
        grid = cmap.pair_basis(slots)
        product = cmap.grid_product(slots)
        row, col, comp, value = cmap.entries
        ncomp = len(cmap.weights)
        occupied = np.unique(grid.cell[row] * ncomp + comp).size
        cells, nblocks = block_layout(cmap, grid)
        assert product.size == cells.size and sum(count for _, count, _, _ in product.runs) == nblocks
        if case == "one-vertex bulk":
            assert (grid.keep_dim * grid.rest_dim, cmap.out_dim, nblocks) == (38_880, 2_976, 16)
            assert product.size == occupied == 2_976
        else:
            assert (grid.keep_dim, grid.rest_dim * ncomp, ncomp) == (16, 36, 2)
            assert product.runs == [(0, 1, 16, 36)] and occupied == 336

        seed = 23
        est = mc_purity(index, region, cmap=cmap, shots=shots, seed=seed)
        stacked = scipy.sparse.csr_array((value, (row * ncomp + comp, col)), shape=(cmap.out_dim * ncomp, cmap.in_dim))
        psi = _haar_rows(index, "medium", seed, range(shots))
        phi = (stacked @ psi.T).T.reshape(shots, cmap.out_dim, ncomp)
        ratio = assert_matches_dense_grid(est, grid, phi)
        assert 0.0 < ratio < 1.0

    def test_compress_rows_matches_unique(self):
        rng = np.random.default_rng(8)
        cases = [
            [rng.integers(0, 3, 200) for _ in range(4)],
            # Radixes whose product is above 2**63.
            [rng.integers(0, 1 << 21, 500) for _ in range(4)],
            [np.array([5, 0, 5, 2], dtype=np.int64)],
            [np.array([7], dtype=np.int64), np.array([1], dtype=np.int64)],
            [np.zeros(0, dtype=np.int64)],
            [np.zeros(0, dtype=np.int64) for _ in range(3)],
        ]
        for keys in cases:
            dim = len(keys[0])
            for k in keys:  # repeat the first half's rows
                k[dim // 2 :] = k[: dim - dim // 2]
            ref = np.unique(np.stack(keys, axis=1), axis=0, return_inverse=True)[1]
            assert np.array_equal(oracle._compress_rows(keys, dim), ref.reshape(-1))
        assert np.array_equal(oracle._compress_rows([], 3), np.zeros(3, dtype=np.int64))
        assert np.array_equal(oracle._compress_rows([], 0), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("n", [1, 3, 4, 37, 576])
    @pytest.mark.parametrize("batch", [1, 17, 256])
    def test_unit_gaussians_match_fresh_philox_and_norm(self, n, batch):
        seed, vertex, block = 23, 1, 2
        start = 5 * batch
        rows = oracle._unit_gaussians(seed, range(start, start + batch), vertex, block, n)
        assert rows.shape == (batch, n)
        for s, row in enumerate(rows):
            assert np.array_equal(row, fresh_philox_row(seed, start + s, vertex, block, n))


# -- numpy kernels against scipy.sparse references ---------------------------


def kernel_maps():
    """(index, map) pairs: both kinds on random instances, mixed bulk states
    (two or more components) among them, and maps of the glued graph with
    x or y frozen, which take the general pair Gram."""
    rng = np.random.default_rng(20261018)
    maps = []
    for _, _, state, part, index in examples(boundary_instances(max_dim=256), 24):
        maps.append((index, build_cmap(index, ModelKind.bulk_to_boundary())))
        maps.append((index, build_cmap(index, ModelKind.boundary_to_boundary(part), state=state)))
    graph = glued_graph()
    index = build_hilbert(graph, glued_family(graph))
    s1, s2 = index.family_sectors()
    state = IntertwinerState.from_blocks(
        graph,
        [s1, s2],
        {(s1, s1): np.array([[0.55]]), (s1, s2): np.array([[0.1 + 0.2j]]), (s2, s2): np.array([[0.45]])},
    )
    b2b = ModelKind.boundary_to_boundary(BoundaryPartition.from_input(graph, ["a1", "a2"]))
    for vertex in ("x", "y"):
        dim = index.space(vertex).dim
        core = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        fixed = FrozenVertices(vertices=(vertex,), amplitudes=core)
        maps.append((index, build_cmap(index, ModelKind.bulk_to_boundary(), fixed=fixed)))
        maps.append((index, build_cmap(index, b2b, state=state, fixed=fixed)))
    return maps


def kernel_regions(cmap):
    """No swap, the first output slot, and every other output slot."""
    return [(), cmap.out_slots[:1], cmap.out_slots[::2]]


def ranks(keys):
    return np.unique(keys, return_inverse=True)[1]


@st.composite
def trace_entries(draw, nrows, ncols, one_per_column=False):
    """(row, column, value) arrays of a sparse X, keys below nrows and
    ncols, in a drawn entry order: one entry per column, or else row 0 and
    column 0 hold two entries each (nrows, ncols >= 2), so that neither
    X X^+ nor X^+ X is diagonal."""
    if one_per_column:
        cols = np.arange(ncols)
        rows = np.array(draw(st.lists(st.integers(0, nrows - 1), min_size=ncols, max_size=ncols)))
    else:
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
        cells = draw(st.sets(cells, max_size=96)) | {(0, 0), (0, 1), (1, 0)}
        rows, cols = np.array(sorted(cells)).T
    order = np.array(draw(st.permutations(range(rows.size))))
    part = st.floats(-4.0, 4.0, allow_subnormal=False)
    pairs = draw(st.lists(st.tuples(part, part), min_size=rows.size, max_size=rows.size))
    value = np.array([complex(re, im) for re, im in pairs])
    return rows[order], cols[order], value


@st.composite
def increasing_map(draw, keys):
    """`keys` (ranks) through a strictly increasing map with drawn gaps:
    narrow ones (0-2 a step, from a start below 2^11), which leave a few
    empty bins in a `bincount` over the values, or wide ones (up to 2^10 a
    step, from a start below 2^20).  Values stay below about 2^21, so that
    a trace that failed to rank them would count them in a few MB."""
    size = int(keys.max()) + 1
    widest = draw(st.sampled_from([2, 1 << 10]))
    gaps = np.array(draw(st.lists(st.integers(0, widest), min_size=size, max_size=size)), dtype=np.int64)
    start = draw(st.integers(0, widest << 10))
    return (start + np.arange(size) + np.cumsum(gaps))[keys]


@st.composite
def grouped_traces(draw):
    """X with one entry per column, so that X X^+ is diagonal, and X
    relabelled.  Its row keys are the groups whose sums of squared moduli
    are squared and summed."""
    row, col, value = draw(trace_entries(draw(st.integers(1, 40)), draw(st.integers(1, 40)), one_per_column=True))
    row = ranks(row)
    return (row, col, value), (draw(increasing_map(row)), draw(increasing_map(col)), value)


@st.composite
def gram_traces(draw):
    """X1, X2 on the same rows and X1, X2 relabelled with any gaps: rows by
    one map, each replica's columns by its own.  Self traces of X1 take
    the pair Gram; the grouped path is `grouped_traces`'."""
    nrows, ncols = draw(st.integers(2, 30)), draw(st.integers(2, 30))
    x1, x2 = draw(trace_entries(nrows, ncols)), draw(trace_entries(nrows, ncols))
    row = ranks(np.concatenate((x1[0], x2[0])))
    x1 = (row[: x1[0].size], ranks(x1[1]), x1[2])
    x2 = (row[x1[0].size :], ranks(x2[1]), x2[2])
    rows = draw(increasing_map(row))
    y1 = (rows[: x1[0].size], draw(increasing_map(x1[1])), x1[2])
    y2 = (rows[x1[0].size :], draw(increasing_map(x2[1])), x2[2])
    return (x1, x2), (y1, y2)


def relabelling(strategy, check):
    """Run check on every draw of strategy: 150 examples."""
    settings(max_examples=150)(given(strategy)(check))()


def narrow_gaps(keys):
    """Whether the keys leave empty bins below their maximum, but fewer
    than 16 a key: a few empty bins in a `bincount` over them."""
    return np.unique(keys).size <= keys.max() < 16 * keys.size


class TestRankedKeys:
    """_pattern_trace ranks its row and column keys, so its bits do not
    change under an order-preserving relabelling of the keys, whatever
    gaps the relabelling leaves: an unranked `bincount` whose empty bins
    move can make the BLAS dot of its sums round otherwise."""

    def test_grouped_sums_keep_their_bits(self):
        seen = {"16+ groups": 0, "narrow gaps": 0, "wide gaps": 0}

        def check(case):
            (row, col, value), (rows, cols, _) = case
            for x, y in [((row, col, value), (rows, cols, value)), ((col, row, value), (cols, rows, value))]:
                assert oracle._pattern_trace(y, y).hex() == oracle._pattern_trace(x, x).hex()
            seen["16+ groups"] += row.max() >= 15
            seen["narrow gaps" if narrow_gaps(rows) else "wide gaps"] += 1

        relabelling(grouped_traces(), check)
        assert all(seen.values()), seen

    def test_pair_grams_keep_their_bits(self, monkeypatch):
        grams = []
        pair_gram = oracle._pair_gram

        def counted(*args):
            grams.append(args[0] is args[3])
            return pair_gram(*args)

        monkeypatch.setattr(oracle, "_pair_gram", counted)
        seen = {"narrow gaps": 0, "wide gaps": 0}

        def check(case):
            (x1, x2), (y1, y2) = case
            grams.clear()
            assert oracle._pattern_trace(y1, y1).hex() == oracle._pattern_trace(x1, x1).hex()
            assert grams == [True, True]
            assert oracle._pattern_trace(y1, y2).hex() == oracle._pattern_trace(x1, x2).hex()
            assert oracle._pattern_trace(y2, y1).hex() == oracle._pattern_trace(x2, x1).hex()
            seen["narrow gaps" if narrow_gaps(np.concatenate((y1[0], y2[0]))) else "wide gaps"] += 1

        relabelling(gram_traces(), check)
        assert all(seen.values()), seen


class TestNumpyKernels:
    """The pair Gram and the shot products against scipy.sparse."""

    @pytest.fixture(scope="class")
    def maps(self):
        maps = kernel_maps()
        assert any(len(cmap.weights) >= 2 for _, cmap in maps)
        assert any(len(cmap.in_vertices) < len(index.graph.vertices) for index, cmap in maps)
        return maps

    def test_gram_on_both_sides_matches_scipy(self, maps):
        general = 0
        for _, cmap in maps:
            for region in kernel_regions(cmap):
                grid = cmap.pair_basis(region)
                for subset in _all_subsets(len(cmap.in_vertices)):
                    x = oracle._pattern_matrix(cmap, grid, None, subset)
                    row, col, value = x
                    by_rows, by_cols = scipy_gram_sq(x), scipy_gram_sq(x, side="columns")
                    assert by_rows == pytest.approx(by_cols, rel=1e-12, abs=1e-300)
                    assert oracle._pair_gram(row, col, value, row, col, value) == pytest.approx(
                        by_rows, rel=1e-12, abs=1e-300
                    )
                    assert oracle._pair_gram(col, row, value, col, row, value) == pytest.approx(
                        by_cols, rel=1e-12, abs=1e-300
                    )
                    assert oracle._pattern_trace(x, x) == pytest.approx(by_rows, rel=1e-12, abs=1e-300)
                    general += (np.bincount(row) > 1).any() and (np.bincount(col) > 1).any()
        assert general > 0

    def test_cross_traces_match_scipy(self, maps):
        crossed = 0
        for index, cmap in maps:
            if cmap.in_vertices != index.graph.vertices:
                continue
            ranges = [index.sector_local_ranges(sec) for sec in index.family_sectors()]
            for region in kernel_regions(cmap):
                grid = cmap.pair_basis(region)
                xs = [oracle._pattern_matrix(cmap, grid, rng, ()) for rng in ranges]
                for x1, x2 in itertools.product(xs, repeat=2):
                    want = scipy_gram_sq(x1, x2)
                    assert oracle._pattern_trace(x1, x2) == pytest.approx(want, rel=1e-12, abs=1e-300)
                    crossed += x1 is not x2 and want > 0
        assert crossed > 0

    def test_pair_gram_on_random_sparse_matrices(self, monkeypatch):
        """Sparse and dense Grams, with keys far apart and close together,
        summed in one chunk, in chunks of several rows of G, and one row
        per chunk (each row lists more pairs than a chunk holds)."""
        rng = np.random.default_rng(11)

        def entries(nrows, ncols, nnz):
            flat = rng.choice(nrows * ncols, size=nnz, replace=False)
            value = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
            return flat // ncols, flat % ncols, value

        shapes = [(6, 5, 24), (3, 10**6, 40), (10**6, 3, 40), (40, 40, 90)]
        cases = [(entries(r, c, nnz), entries(r, 2 * c, nnz)) for r, c, nnz in shapes]
        for block in (oracle.PAIR_BLOCK, 7, 1):
            monkeypatch.setattr(oracle, "PAIR_BLOCK", block)
            for x1, x2 in cases:
                for a, b in [(x1, x1), (x1, x2), (x2, x1)]:
                    got = oracle._pair_gram(a[0], a[1], a[2], b[0], b[1], b[2])
                    assert got == pytest.approx(scipy_gram_sq(a, b), rel=1e-12)
                got = oracle._pair_gram(x1[1], x1[0], x1[2], x1[1], x1[0], x1[2])
                assert got == pytest.approx(scipy_gram_sq(x1, side="columns"), rel=1e-12)
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))
        assert oracle._pair_gram(*empty, *empty) == 0.0
        assert oracle._pattern_trace(empty, empty) == 0.0

    def test_components_match_scipy(self):
        """Each node's label is the least node of its connected component,
        on random multigraphs and on a path listed in shuffled order."""
        rng = np.random.default_rng(5)
        cases = [(rng.integers(0, n, m), rng.integers(0, n, m), n) for n, m in rng.integers(1, 60, (200, 2))]
        path = rng.permutation(2000)
        cases += [(path[:-1], path[1:], 2000), (np.zeros(0, dtype=np.int64),) * 2 + (0,)]
        for a, b, n in cases:
            graph = scipy.sparse.coo_array((np.ones(a.size), (a, b)), shape=(n, n))
            ref = scipy.sparse.csgraph.connected_components(graph, directed=False)[1]
            least = np.full(n, n)
            np.minimum.at(least, ref, np.arange(n))
            assert np.array_equal(oracle._components(a, b, n), least[ref])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_shot_products_match_stacked_product_and_lay_out(self, maps, order):
        rng = np.random.default_rng(3)
        for _, cmap in maps:
            row, col, comp, value = cmap.entries
            n = len(cmap.weights)
            stacked = scipy.sparse.csr_array(
                (value, (row * n + comp, col)), shape=(cmap.out_dim * n, cmap.in_dim)
            )
            shots = 5
            psi = np.asarray(rng.normal(size=(shots, cmap.in_dim)) + 1j * rng.normal(size=(shots, cmap.in_dim)), order=order)
            phi = (stacked @ psi.T).T
            tol = 1e-14 * max(1.0, np.abs(phi).max(initial=0.0))
            out = np.zeros((shots, cmap.out_dim * n), dtype=complex)
            np.testing.assert_allclose(cmap.row_product(psi, out), phi, rtol=0, atol=tol)
            phi = phi.reshape(shots, cmap.out_dim, n)
            for region in kernel_regions(cmap):
                grid = cmap.pair_basis(region)
                want = np.stack(
                    [np.stack([grid.lay_out(phi[s, :, m]) for m in range(n)], axis=-1) for s in range(shots)]
                ).reshape(shots, -1)
                product = cmap.grid_product(region)
                cells, nblocks = block_layout(cmap, grid)
                assert product.size == cells.size and sum(count for _, count, _, _ in product.runs) == nblocks
                assert not np.delete(want, cells, axis=1).any()
                out = product.zeros(shots)
                # A second block over the same array rewrites every cell it reaches.
                product(np.ones_like(psi), out)
                np.testing.assert_allclose(product(psi, out), want[:, cells], rtol=0, atol=tol)
                assert cmap.grid_product(region) is product
