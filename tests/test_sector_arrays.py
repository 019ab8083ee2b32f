"""Sector pools as arrays, the dimension evaluator and the bucketed
kernel-sum reducer.

The references live here: the per-key `signed_sum` loop that
`ising._kernel_sums` sums in one `_scaled_sums` call, the per-sector loop that
`isometry.window_groups` replaced, and the `enumerate_sectors` +
`intertwiner_dim` loops that `spins.sector_dims` and
`entropy.fine_average_purity` replaced.  The array versions must give
their results bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ising_reference as reference
from strategies import boundary_instances, bulk_instances
from holoising import spins
from holoising.bulk import IntertwinerState
from holoising.entropy import EntropyError, FineAverage, fine_average_purity, high_spin_energies
from holoising.experiments import ExperimentError, reproduce_c2
from holoising.graph import BoundaryPartition, build_graph
from holoising.ising import IsingModel, ModelKind, SectorSet, _kernel_sums
from holoising.isometry import window_groups
from holoising.spins import (
    SectorDims,
    SectorEnumerationError,
    SectorFamily,
    Spin,
    SpinSector,
    enumerate_sectors,
    intertwiner_dim,
    sector_dims,
    sector_matrix,
)


# -- references ------------------------------------------------------------


def reference_kernel_sums(z, log_k, key, nkeys):
    """One `reference.signed_sum` per replica over all pairs and per (replica,
    boundary key) over the key's diagonal block, each bucket in row-major
    pair order; plus log(larger part / |total|) per replica."""
    count = len(log_k)
    log_kk = (log_k[:, None] + log_k[None, :]).ravel()
    same = (key[:, None] == key[None, :]).ravel()
    key_of_pair = np.repeat(key, count)
    by_key = [[None, None] for _ in range(nkeys)]
    has_row = np.zeros(nkeys, dtype=bool)
    totals, cancellation = [], []
    for replica in (0, 1):
        flat = z[:, :, replica].ravel()
        nonzero = np.flatnonzero(flat)
        values = flat[nonzero]
        logs = log_kk[nonzero] + np.log(np.abs(values))
        pos = values > 0.0
        *total, ratio = reference.signed_sum(logs[pos], logs[~pos])
        totals.append(tuple(total))
        cancellation.append(ratio)
        diagonal = same[nonzero]
        owner = key_of_pair[nonzero]
        for c in range(nkeys):
            block = diagonal & (owner == c)
            has_row[c] |= block.any()
            by_key[c][replica] = reference.signed_sum(logs[block & pos], logs[block & ~pos])[:2]
    return totals, by_key, tuple(np.flatnonzero(has_row).tolist()), cancellation


def reference_window_groups(family, graph):
    """The per-sector loop: each boundary key (doubled spins in
    `graph.boundary_ids()` order) at its first admissible sector in
    enumeration order, grouped by D_O."""
    seen = set()
    groups = {}
    bnd = graph.boundary_ids()
    for sec in enumerate_sectors(family, graph):
        key = sec.twice_of(bnd)
        if key in seen:
            continue
        admissible = all(
            intertwiner_dim(sec.vertex_spins(x)) > 0 for x in graph.vertices
        ) and all(
            abs(family.g(lid, sec.spin(lid))) > 0.0 for lid in graph.internal_ids()
        )
        if not admissible:
            continue
        seen.add(key)
        d_out = 1
        for t in key:
            d_out *= Spin(t).dim
        groups.setdefault(d_out, []).append(key)
    return {d: tuple(entries) for d, entries in groups.items()}


def reference_sector_dims(sector, graph, family):
    """The per-sector loop: D_I(E) from one `enumerate_sectors` pass over
    the bulk spins at the sector's boundary, one `intertwiner_dim` call per
    sector and vertex."""
    ldims = {lid: Spin(t).dim for lid, t in sector.assignment}
    idims = {x: intertwiner_dim(sector.vertex_spins(x)) for x in graph.vertices}
    bulk_prod = 1
    for x in graph.vertices:
        bulk_prod *= idims[x]
    d_out = 1
    for lid in graph.boundary_ids():
        d_out *= ldims[lid]
    bnd = graph.boundary_ids()
    boundary = {lid: Spin(t) for lid, t in zip(bnd, sector.twice_of(bnd))}
    d_in = 0
    for sec in enumerate_sectors(family, graph, boundary_filter=boundary):
        prod = 1
        for x in graph.vertices:
            prod *= intertwiner_dim(sec.vertex_spins(x))
        d_in += prod
    dim_sector = 1
    for x in graph.vertices:
        dim_sector *= idims[x]
        for lid in graph.links_at(x):
            dim_sector *= ldims[lid]
    return SectorDims(
        link_dims=ldims,
        intertwiner_dims=idims,
        bulk_intertwiner_product=bulk_prod,
        d_input=d_in,
        d_output=d_out,
        dim_sector=dim_sector,
    )


def reference_fine_average(weights, family, graph):
    """The per-sector loop of the fine closed form: the sectors of
    `enumerate_sectors` with every D(j^x) > 0, uniform weights or weights
    given by label, D(j^x) from `intertwiner_dim`."""
    sectors = [
        sec
        for sec in enumerate_sectors(family, graph)
        if all(intertwiner_dim(sec.vertex_spins(x)) > 0 for x in graph.vertices)
    ]
    if not sectors:
        raise EntropyError("family admits no sector with intertwiners")
    by_label = {sec.label(): sec for sec in sectors}
    if weights is None:
        probs = {sec.label(): 1.0 / len(sectors) for sec in sectors}
    else:
        probs = {label: float(value) for label, value in weights.items()}
    support = [by_label[label] for label in probs]
    inter_dims = {}
    for sec in support:
        inter_dims[sec.label()] = math.prod(intertwiner_dim(sec.vertex_spins(x)) for x in graph.vertices)
    d_input = sum(inter_dims.values())
    raw = {}
    for sec in support:
        amp = math.prod(abs(family.g(lid, sec.spin(lid))) ** 2 for lid in graph.internal_ids())
        raw[sec.label()] = probs[sec.label()] * amp
    norm = math.fsum(raw.values())
    if norm <= 0.0:
        raise EntropyError("all weighted sectors have vanishing amplitude")
    p_tilde = {label: v / norm for label, v in raw.items()}
    return FineAverage(
        purity=math.fsum(p_tilde[label] ** 2 / inter_dims[label] for label in p_tilde),
        p_tilde=p_tilde,
        solving_weights={label: inter_dims[label] / d_input for label in inter_dims},
        d_input=d_input,
        single_boundary=len({sec.twice_of(graph.boundary_ids()) for sec in support}) == 1,
    )


def hexed(value):
    """`value` with every float written by `float.hex`, mappings as item
    lists and dataclasses as field dicts, so that == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (FineAverage, SectorDims)):
        return hexed(vars(value))
    if isinstance(value, dict):
        return [(k, hexed(v)) for k, v in value.items()]
    return value


def _hex(pair):
    total, (sign, log) = pair
    return float(total).hex(), sign, float(log).hex()


# -- the bucketed reducer ----------------------------------------------------


class TestKernelSums:
    def cases(self):
        """Signed kernels with zeros on S = 1..30 sectors and 1..S keys:
        single-term and empty buckets, all-negative blocks, and log K large
        enough that totals leave float64."""
        rng = np.random.default_rng(1307)
        for count in range(1, 31):
            for trial in range(6):
                nkeys = int(rng.integers(1, count + 1))
                key = rng.integers(0, nkeys, count)
                z = rng.normal(size=(count, count, 2)) * np.exp(rng.normal(scale=2.0, size=(count, count, 2)))
                z[rng.random((count, count, 2)) < rng.choice([0.0, 0.5, 0.9])] = 0.0
                if trial == 1:
                    z = np.abs(z)
                if trial == 2:
                    block = key == key[0]
                    z[np.ix_(block, block)] = -np.abs(z[np.ix_(block, block)])
                log_k = rng.normal(scale=2.0, size=count)
                if trial == 3:
                    log_k += 400.0
                yield z, log_k, key, nkeys
        yield from self.wide_cases()
        yield from self.zero_weight_cases()
        yield self.cancelling_case()

    def wide_cases(self):
        """Signed kernels whose log K spans 1,500 across the boundary keys:
        the keys carry weight offsets spread evenly over [-760, 760], none
        within 150 of 0, so no sum lies near 1 and the totals leave
        float64."""
        rng = np.random.default_rng(1500)
        for count, nkeys in ((6, 2), (17, 4), (30, 6)):
            key = rng.permutation(np.arange(count) % nkeys)
            offset = np.linspace(-760.0, 760.0, nkeys)
            log_k = offset[key] + rng.normal(scale=2.0, size=count)
            z = rng.normal(size=(count, count, 2)) * np.exp(rng.normal(scale=2.0, size=(count, count, 2)))
            yield z, log_k, key, nkeys

    def zero_weight_cases(self):
        """Sectors of zero weight (log K = -inf) beside weighted ones, and a
        key whose sectors all have zero weight."""
        rng = np.random.default_rng(0)
        for count, nkeys in ((3, 1), (8, 3), (12, 4)):
            key = np.arange(count) % nkeys
            z = rng.normal(size=(count, count, 2))
            log_k = rng.normal(size=count)
            log_k[key == 0] = -math.inf
            log_k[count - 1] = -math.inf
            yield z, log_k, key, nkeys

    def cancelling_case(self):
        """Two sectors of one key and equal weight whose cross kernels are
        +1.5 and -1.5: every bucket cancels exactly."""
        z = np.zeros((2, 2, 2))
        z[0, 1], z[1, 0] = 1.5, -1.5
        return z, np.full(2, 0.25), np.zeros(2, dtype=np.int64), 1

    def test_matches_the_per_key_loop(self):
        kinds = {"inf": 0, "single": 0, "empty": 0, "negative": 0}
        for z, log_k, key, nkeys in self.cases():
            got = _kernel_sums(z, log_k, key, nkeys)
            totals, by_key, keys_with_rows, cancellation = reference_kernel_sums(z, log_k, key, nkeys)
            assert [_hex(p) for p in zip(got.totals, got.log_totals)] == [_hex(p) for p in totals]
            assert [_hex(p) for c in range(nkeys) for p in zip(got.z_bar[c], got.log_z_bar[c])] == [
                _hex(p) for sums in by_key for p in sums
            ]
            assert got.keys_with_rows == keys_with_rows
            assert [v.hex() for v in got.log_cancellation] == [v.hex() for v in cancellation]
            kinds["inf"] += any(math.isinf(t) for t in got.totals)
            kinds["empty"] += len(keys_with_rows) < nkeys
            kinds["negative"] += any(sign < 0 for row in got.log_z_bar for sign, _ in row)
            for c in range(nkeys):
                block = key == c
                kinds["single"] += np.count_nonzero(z[np.ix_(block, block)][:, :, 0]) == 1
        assert all(kinds.values()), kinds

    def test_wide_weights_against_fsum(self):
        """Every log_totals and log_z_bar entry is within 1e-14 relative of
        a per-pair `math.fsum` of the terms, each scaled by its bucket's
        largest term."""

        def fsum_log(z, log_kk, block):
            values = z[block]
            logs = log_kk[block][values != 0.0] + np.log(np.abs(values[values != 0.0]))
            top = logs.max()
            total = math.fsum((np.sign(values[values != 0.0]) * np.exp(logs - top)).tolist())
            return top + math.log(abs(total))

        checked = 0
        for z, log_k, key, nkeys in self.wide_cases():
            assert np.ptp(log_k) >= 1500.0
            got = _kernel_sums(z, log_k, key, nkeys)
            log_kk = log_k[:, None] + log_k[None, :]
            diagonal = key[:, None] == key[None, :]
            for replica in (0, 1):
                blocks = [np.ones_like(diagonal)] + [diagonal & (key[:, None] == c) for c in range(nkeys)]
                logs = [got.log_totals[replica]] + [row[replica] for row in got.log_z_bar]
                for block, (sign, log) in zip(blocks, logs):
                    assert log == pytest.approx(fsum_log(z[:, :, replica], log_kk, block), rel=1e-14, abs=0.0)
                    checked += 1
            assert math.isinf(got.totals[0]) and math.isinf(got.totals[1])
        assert checked == 2 * (3 + 5 + 7)

    def test_zero_weight_sectors(self):
        """A bucket whose every term has zero weight sums to (0, -inf), and
        no sum is NaN."""
        for z, log_k, key, nkeys in self.zero_weight_cases():
            got = _kernel_sums(z, log_k, key, nkeys)
            assert got.z_bar[0] == (0.0, 0.0) and got.log_z_bar[0] == ((0, -math.inf), (0, -math.inf))
            values = [*got.totals, *got.log_cancellation, *(v for row in got.z_bar for v in row)]
            values += [log for row in got.log_z_bar for _, log in row] + [log for _, log in got.log_totals]
            assert not any(math.isnan(v) for v in values)
            weighted = np.isfinite(log_k).any()
            assert all((sign != 0) == weighted for sign, _ in got.log_totals)

    def test_exact_cancellation(self):
        got = _kernel_sums(*self.cancelling_case())
        assert got.totals == (0.0, 0.0) and got.log_totals == ((0, -math.inf), (0, -math.inf))
        assert got.z_bar == [(0.0, 0.0)] and got.log_z_bar == [((0, -math.inf), (0, -math.inf))]
        assert got.log_cancellation == (math.inf, math.inf) and got.keys_with_rows == (0,)

    def test_empty_table(self):
        sums = _kernel_sums(np.zeros((0, 0, 2)), np.zeros(0), np.zeros(0, dtype=np.int64), 0)
        assert sums.totals == (0.0, 0.0) and sums.log_totals == ((0, -math.inf), (0, -math.inf))
        assert sums.z_bar == [] and sums.keys_with_rows == () and sums.log_cancellation == (0.0, 0.0)


def signed_bridge():
    """Two 3-valent vertices x, y joined by link e, with boundary legs
    a, b at x and c, d at y; a and c take spins 1 or 2.  The state over
    the four sectors has a negative entry between (a=2, c=1) and
    (a=2, c=2), so the swapped replica's kernels of the pairs that differ
    in both a and c are negative."""
    graph = build_graph(
        {
            "vertices": [{"id": "x", "valence": 3}, {"id": "y", "valence": 3}],
            "links": [
                {"id": "e", "ends": [["x", 0], ["y", 0]]},
                {"id": "a", "end": ["x", 1]},
                {"id": "b", "end": ["x", 2]},
                {"id": "c", "end": ["y", 1]},
                {"id": "d", "end": ["y", 2]},
            ],
        }
    )
    family = SectorFamily.build(
        graph, "0", "2", allowed={"e": ["1"], "a": ["1", "2"], "b": ["1"], "c": ["1", "2"], "d": ["1"]}
    )
    sectors = [
        SpinSector.make(graph, {"e": "1", "a": a, "b": "1", "c": c, "d": "1"})
        for a in ("1", "2")
        for c in ("1", "2")
    ]
    rho = np.array(
        [
            [0.3, 0.12, 0.1, 0.05],
            [0.12, 0.2, 0.05, -0.1],
            [0.1, 0.05, 0.3, -0.12],
            [0.05, -0.1, -0.12, 0.2],
        ]
    )
    blocks = {(sectors[i], sectors[j]): np.array([[rho[i, j]]]) for i in range(4) for j in range(i, 4)}
    state = IntertwinerState.from_blocks(graph, sectors, blocks)
    kind = ModelKind.boundary_to_boundary(BoundaryPartition.from_input(graph, ["c"]))
    return IsingModel(graph, family, kind, state=state)


class TestCancellation:
    def test_signed_boundary_to_boundary_table(self):
        table = signed_bridge().partition_table()
        assert (table.z[:, :, 1] < 0).any() and (table.z[:, :, 0] >= 0).all()
        sectors = table.sectors
        _, _, _, expected = reference_kernel_sums(table.z, sectors.log_k, sectors.key, len(sectors.keys))
        assert [v.hex() for v in table.log_cancellation] == [v.hex() for v in expected]
        assert table.log_cancellation[0] == 0.0 and table.log_cancellation[1] > 0.0

    def test_bulk_to_boundary_ratio_is_one(self):
        @settings(max_examples=12)
        @given(bulk_instances())
        def check(drawn):
            graph, family = drawn
            table = IsingModel(graph, family, ModelKind.bulk_to_boundary()).partition_table()
            assert table.log_cancellation == (0.0, 0.0)
            assert [math.exp(v) for v in table.log_cancellation] == [1.0, 1.0]

        check()


# -- sector matrices ---------------------------------------------------------


def star_graph():
    """One 3-valent vertex with three boundary legs: no internal link."""
    return build_graph(
        {
            "vertices": [{"id": "x", "valence": 3}],
            "links": [{"id": lid, "end": ["x", p]} for p, lid in enumerate(("a", "b", "c"))],
        }
    )


class TestSectorMatrix:
    @pytest.fixture(params=["star", "bridge"])
    def family(self, request):
        if request.param == "star":
            graph = star_graph()
            allowed = {"a": ["1/2", "3/2"], "b": ["1", "2"], "c": ["1/2", "1", "3/2"]}
        else:
            graph = signed_bridge().graph
            allowed = {"e": ["1", "2"], "a": ["1", "2"], "b": ["1/2", "1"], "c": ["1", "2"], "d": ["1"]}
        return graph, SectorFamily.build(graph, "0", "2", allowed=allowed)

    def test_equals_enumerate_sectors(self, family):
        graph, fam = family
        links = graph.link_ids()
        bnd = graph.boundary_ids()
        filters = [None] + [
            dict(zip(bnd, sec.twice_of(bnd))) for sec in list(enumerate_sectors(fam, graph))[:3]
        ]
        for boundary in filters:
            spins = None if boundary is None else {lid: Spin(t) for lid, t in boundary.items()}
            got = sector_matrix(fam, graph, boundary_filter=spins)
            want = [sec.twice_of(links) for sec in enumerate_sectors(fam, graph, boundary_filter=spins)]
            assert got.dtype == np.int64 and got.shape == (len(want), len(links))
            assert got.tolist() == [list(row) for row in want]

    def test_guard_and_filter_errors_unchanged(self, family, monkeypatch):
        graph, fam = family
        total = len(sector_matrix(fam, graph))
        message = (
            f"{total} sectors exceed the guard of {total - 1}; tighten cutoffs "
            f"or restrict per-link spin lists"
        )
        pool = IsingModel(graph, fam, ModelKind.bulk_to_boundary()).sector_set()
        bulk = math.prod(len(fam.allowed[lid]) for lid in graph.internal_ids())
        monkeypatch.setattr(spins, "SECTOR_LIMIT", total - 1)
        with pytest.raises(SectorEnumerationError) as generator_error:
            next(enumerate_sectors(fam, graph))
        with pytest.raises(SectorEnumerationError) as matrix_error:
            sector_matrix(fam, graph)
        monkeypatch.setattr(spins, "SECTOR_LIMIT", bulk - 1)
        with pytest.raises(SectorEnumerationError, match=f"^{bulk} sectors exceed the guard of {bulk - 1}; "):
            pool.d_input([0])
        assert str(matrix_error.value) == str(generator_error.value) == message
        bad = [{"nowhere": "1"}, {graph.boundary_ids()[0]: "1"}]
        for boundary in bad:
            with pytest.raises(ValueError) as matrix_error:
                sector_matrix(fam, graph, boundary_filter=boundary)
            with pytest.raises(ValueError) as generator_error:
                next(enumerate_sectors(fam, graph, boundary_filter=boundary))
            assert str(matrix_error.value) == str(generator_error.value)


# -- sector sets ---------------------------------------------------------------


class TestSectorSet:
    def test_sectors_built_only_for_kept_rows(self):
        graph = signed_bridge().graph
        family = SectorFamily.build(
            graph, "0", "2", allowed={"e": ["1", "2"], "a": ["1", "2"], "b": ["1"], "c": ["1", "2"], "d": ["1"]},
            weights={"e": {"1": 1.0, "2": 0.0}},
        )
        pool = IsingModel(graph, family, ModelKind.bulk_to_boundary()).sector_set()
        weighted = pool.weighted()
        assert 0 < len(weighted) < len(pool)
        assert "sectors" not in pool.__dict__ and "sectors" not in weighted.__dict__
        all_sectors = list(enumerate_sectors(family, graph))
        kept = [sec for sec, log in zip(all_sectors, pool.log_k.tolist()) if math.isfinite(log)]
        assert list(weighted.sectors) == kept
        assert "sectors" not in pool.__dict__

    def test_take_keeps_built_views(self):
        model = signed_bridge()
        pool = IsingModel(model.graph, model.family, ModelKind.bulk_to_boundary()).sector_set()
        built = (pool.sectors, pool.labels, pool.vertex_dims, pool.log_k)
        index = np.array([3, 0, 2])
        subset = pool.take(index)
        for name in ("sectors", "labels", "vertex_dims", "log_k", "link_log_d", "amplitude", "vertex_log_d"):
            assert name in subset.__dict__
            if name in SectorSet.ARRAYS:
                assert subset.__dict__[name].tolist() == pool.__dict__[name][index].tolist()
        assert list(subset.sectors) == [built[0][i] for i in index]
        assert list(subset.labels) == [built[1][i] for i in index]
        fresh = IsingModel(model.graph, model.family, ModelKind.bulk_to_boundary()).sector_set(subset.sectors)
        assert fresh.labels == subset.labels and fresh.vertex_dims == subset.vertex_dims
        assert fresh.log_k.tolist() == subset.log_k.tolist()
        assert fresh.keys == subset.keys and fresh.key.tolist() == subset.key.tolist()

    def test_boundary_pools(self):
        model = signed_bridge()
        links = model.graph.link_ids()
        boundaries = [{"a": "2", "b": "1", "c": "1", "d": "1"}, {"a": "1", "b": "1", "c": "2", "d": "1"}]
        bulk = IsingModel(model.graph, model.family, ModelKind.bulk_to_boundary())
        want = [
            sec.twice_of(links)
            for boundary in boundaries
            for sec in enumerate_sectors(model.family, model.graph, boundary_filter=boundary)
        ]
        assert bulk.window_table(boundaries).sectors.twice.tolist() == [list(row) for row in want]
        state_table = model.window_table(boundaries)
        state_sectors = [
            sec
            for boundary in boundaries
            for sec in model.state.sectors
            if all(sec.spin(lid) == Spin.parse(sp) for lid, sp in boundary.items())
        ]
        assert list(state_table.sectors.sectors) == state_sectors
        assert state_table.z.tolist() == model.partition_table(state_sectors).z.tolist()
        with pytest.raises(ValueError, match="fix every boundary link"):
            model.window_table([{"a": "1"}])
        with pytest.raises(ValueError, match="fix every boundary link"):
            bulk.window_table([{"a": "1"}])

    def test_empty_census_window(self):
        """Three spin-1/2 legs cannot couple to spin 0."""
        graph = star_graph()
        family = SectorFamily.build(graph, "1/2", "1/2")
        with pytest.raises(ExperimentError, match="census is empty"):
            reproduce_c2(family, graph)


# -- window groups -------------------------------------------------------------


def late_admissible(weights=None):
    """Two 3-valent vertices joined by link e in {1/2, 3/2}.  x carries
    a = 2 and b in {1/2, 3/2}; y carries c = 1 and d = 1/2.  Boundary
    b = 1/2 enumerates first, but its first sector (e = 1/2) has no
    intertwiner at x; only e = 3/2 admits it."""
    graph = build_graph(
        {
            "vertices": [{"id": "x", "valence": 3}, {"id": "y", "valence": 3}],
            "links": [
                {"id": "e", "ends": [["x", 0], ["y", 0]]},
                {"id": "a", "end": ["x", 1]},
                {"id": "b", "end": ["x", 2]},
                {"id": "c", "end": ["y", 1]},
                {"id": "d", "end": ["y", 2]},
            ],
        }
    )
    allowed = {"e": ["1/2", "3/2"], "a": ["2"], "b": ["1/2", "3/2"], "c": ["1"], "d": ["1/2"]}
    return graph, SectorFamily.build(graph, "1/2", "2", allowed=allowed, weights=weights)


class TestFactorViews:
    """The factor views of `SectorSet` against a direct recomputation, and
    log K against their terms summed row by row in the stated order:
    boundary links, internal links, then the vertices or the state weight."""

    @staticmethod
    def check(model):
        pool = model.sector_set()
        graph, family = model.graph, model.family
        internal = graph.internal_ids()
        for a, sec in enumerate(pool.sectors):
            d = [math.log(sec.spin(lid).dim) for lid in graph.link_ids()]
            g = [abs(family.g(lid, sec.spin(lid))) for lid in internal]
            dims = [spins.twice_intertwiner_dim(sec.vertex_twice(x)) for x in graph.vertices]
            big_d = [math.log(dim) if dim else -math.inf for dim in dims]
            assert pool.link_log_d[a].tolist() == d
            assert pool.amplitude[a].tolist() == g
            assert pool.vertex_log_d[a].tolist() == big_d
            terms = d[len(internal) :] + [math.log(m**2) if m**2 > 0.0 else -math.inf for m in g]
            if model.kind.is_boundary_to_boundary:
                weight = model.state.weight(sec)
                terms.append(math.log(weight) if weight > 0.0 else -math.inf)
            else:
                terms += big_d
            log_k = 0.0
            for term in terms:
                log_k += term
            assert float(pool.log_k[a]).hex() == log_k.hex()
        return pool

    def test_bulk_instances(self):
        seen = {"empty_vertex": 0, "zero_amplitude": 0}

        @settings(max_examples=20)
        @given(bulk_instances(st.integers(1, 3), max_dim=None))
        def check(drawn):
            pool = self.check(IsingModel(*drawn, ModelKind.bulk_to_boundary()))
            seen["empty_vertex"] += int(np.isneginf(pool.vertex_log_d).any())
            seen["zero_amplitude"] += int((pool.amplitude == 0.0).any())

        check()
        assert all(seen.values()), seen

    def test_boundary_instances(self):
        @settings(max_examples=20)
        @given(boundary_instances(max_dim=None))
        def check(drawn):
            graph, family, state, partition, _ = drawn
            self.check(IsingModel(graph, family, ModelKind.boundary_to_boundary(partition), state))

        check()


class TestWindowGroups:
    def test_matches_the_sector_loop_on_random_families(self):
        @settings(max_examples=30)
        @given(bulk_instances())
        def check(drawn):
            graph, family = drawn
            assert list(window_groups(family, graph).items()) == list(reference_window_groups(family, graph).items())

        check()

    def test_key_placed_at_its_first_admissible_sector(self):
        graph, family = late_admissible()
        groups = window_groups(family, graph)
        assert list(groups.items()) == list(reference_window_groups(family, graph).items())
        # b = 3/2 (D_O = 120) is admissible first, though b = 1/2 (D_O = 60)
        # enumerates first.
        assert list(groups) == [120, 60]
        assert graph.boundary_ids() == ("a", "b", "c", "d")
        assert groups[60] == ((4, 1, 2, 1),)

    def test_tiny_amplitude_stays_admissible(self):
        graph, family = late_admissible(weights={"e": {"1/2": 1.0, "3/2": 1e-200}})
        assert 0.0 < abs(family.g("e", Spin(3))) and abs(family.g("e", Spin(3))) ** 2 == 0.0
        groups = window_groups(family, graph)
        assert list(groups.items()) == list(reference_window_groups(family, graph).items())
        assert list(groups) == [120, 60]
        # The only admissible sector of b = 1/2 has log K = -inf.
        pool = IsingModel(graph, family, ModelKind.bulk_to_boundary()).sector_set()
        rows = [i for i, row in enumerate(pool.twice.tolist()) if row[2] == 1]
        assert not np.isfinite(pool.log_k[rows]).any()


# -- the dimension evaluator -------------------------------------------------


class TestDimensionEvaluator:
    def test_matches_the_sector_loops_on_random_families(self):
        counts = {"sector_dims": 0, "fine": 0, "high_spin": 0, "single_boundary": 0}

        @settings(max_examples=60)
        @given(bulk_instances())
        def check(drawn):
            graph, family = drawn
            sectors = list(enumerate_sectors(family, graph))
            for sec in sectors[:: max(1, len(sectors) // 3)]:
                assert hexed(sector_dims(sec, graph, family)) == hexed(reference_sector_dims(sec, graph, family))
                counts["sector_dims"] += 1
            uniform = fine_average_purity(None, family, graph)
            reference = reference_fine_average(None, family, graph)
            assert hexed(uniform) == hexed(reference)
            solving = reference.solving_weights
            assert hexed(fine_average_purity(solving, family, graph)) == hexed(
                reference_fine_average(solving, family, graph)
            )
            counts["fine"] += 1
            counts["single_boundary"] += reference.single_boundary
            # high_spin_energies needs D(j^x) > 0 at every vertex and D_O > 1.
            admissible = [
                sec for sec in sectors
                if all(intertwiner_dim(sec.vertex_spins(x)) > 0 for x in graph.vertices)
                and math.prod(sec.spin(lid).dim for lid in graph.boundary_ids()) > 1
            ]
            for j, k in zip(admissible[:2], admissible[::-1]):
                dims = reference_sector_dims(j, graph, family)
                expected = dict(high_spin_energies(j, k))
                assert expected["r_E"].hex() == (dims.bulk_intertwiner_product / dims.d_output).hex()
                expected["r_E"] = dims.r
                assert hexed(high_spin_energies(j, k, family=family)) == hexed(expected)
                counts["high_spin"] += 1

        check()
        assert counts["fine"] == 60 and all(counts.values()), counts
