"""The engine's one held family pool: the default bulk-to-boundary table of a
(family, graph) keeps its pool and kernels, and every later bulk-to-boundary
question of that family slices them instead of enumerating again."""

import dataclasses
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bridge_graph
from strategies import boundary_instances, bulk_instances
from holoising import ising, spins
from holoising.entropy import sector_distribution
from holoising.experiments import reproduce_c2
from holoising.graph import build_graph
from holoising.ising import EngineError, IsingModel, ModelKind, PartitionSumTable
from holoising.isometry import IsometryError, check_bulk_to_boundary, suggest_window
from holoising.spins import SectorEnumerationError, SectorFamily, Spin

BULK = ModelKind.bulk_to_boundary()


def star_graph():
    return build_graph(
        {
            "vertices": [{"id": "x", "valence": 4}],
            "links": [{"id": f"p{i}", "end": ["x", i]} for i in range(4)],
        }
    )


def star_family(graph):
    """36 sectors, some with empty intertwiner spaces."""
    allowed = {"p0": ["1/2", "1", "3/2"], "p1": ["1/2", "1"], "p2": ["1", "3/2"], "p3": ["1/2", "1", "3/2"]}
    return SectorFamily.build(graph, lower=0, upper="3/2", allowed=allowed, normalize=False)


def bridge_box_family(graph):
    """The bridge graph with its internal link superposed over three spins
    and the legs `a3` and `c` over two each: 3 sectors per boundary, 12 in
    all."""
    allowed = {lid: ["1"] for lid in graph.link_ids()}
    allowed.update({"e": ["1", "2", "3"], "a3": ["1", "2"], "c": ["1", "2"]})
    return SectorFamily.build(graph, lower=0, upper=3, allowed=allowed, normalize=False)


INSTANCES = [(star_graph, star_family), (bridge_graph, bridge_box_family)]


def canon(value):
    """`value` with every float written by `float.hex`, for comparing bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return canon(value.tolist())
    if isinstance(value, np.generic):
        return canon(value.item())
    if isinstance(value, PartitionSumTable):
        names = ("labels", "log_k", "z", "e_min", "degeneracy", "gap", "totals", "log_totals",
                 "log_cancellation", "boundary_keys", "z_bar", "log_z_bar", "y", "d_total")
        return canon({name: getattr(value, name) for name in names})
    if dataclasses.is_dataclass(value):
        return tuple((f.name, canon(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, Mapping):
        return tuple((canon(k), canon(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    return value


def outcome(call, *args, **kwargs):
    """The canonical result of a call, or the type and message it raises."""
    try:
        return canon(call(*args, **kwargs))
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def boundary_sums(model, boundary):
    """The sums at one boundary: the one boundary row of its window table,
    and the table's sector count."""
    table = model.window_table([boundary])
    return table.boundary_rows[0], len(table.labels)


def raised(result) -> bool:
    return isinstance(result[0], str)


def consumers(graph, family, table):
    """Every bulk-to-boundary consumer of the family after its default
    table, each through a model of its own."""
    out = [outcome(sector_distribution, table, boundary_weights=True), outcome(suggest_window, family, graph)]
    try:
        window = suggest_window(family, graph)
    except IsometryError:
        return out
    # Both window orders: a window's pool lists its boundaries in turn.
    for regime in ("exact", "ground_state"):
        for entries in (window, window[::-1]):
            out.append(outcome(check_bulk_to_boundary, family, graph, entries, regime))
    for boundary in window:
        out.append(outcome(boundary_sums, IsingModel(graph, family, BULK), boundary))
    if len(graph.vertices) == 1 and not graph.internal_ids():
        out.append(outcome(reproduce_c2, family, graph))
    return out


def empty_slot(model, pool, weighted, kernels, plan):
    """`ising._hold` that leaves the slot empty and returns the table."""
    return PartitionSumTable(weighted, kernels)


def count_draws(monkeypatch):
    """Record each kernel batch and each sector enumeration from now on."""
    calls = []
    bulk, matrix = IsingModel._eliminate, spins.sector_matrix

    def counted_bulk(self, *args):
        calls.append("kernels")
        return bulk(self, *args)

    def counted_matrix(*args, **kwargs):
        calls.append("pool")
        return matrix(*args, **kwargs)

    monkeypatch.setattr(IsingModel, "_eliminate", counted_bulk)
    monkeypatch.setattr(spins, "sector_matrix", counted_matrix)
    monkeypatch.setattr(ising, "sector_matrix", counted_matrix)
    return calls


class TestHeldFamilyPool:
    @pytest.mark.parametrize("build_graph_, build_family", INSTANCES)
    def test_consumers_draw_nothing_after_the_default_table(self, monkeypatch, build_graph_, build_family):
        graph = build_graph_()
        family = build_family(graph)
        table = IsingModel(graph, family, BULK).partition_table()
        window = suggest_window(family, graph)
        assert len(window) >= 2
        calls = count_draws(monkeypatch)
        results = consumers(graph, family, table)
        assert calls == []
        assert not any(map(raised, results))
        assert IsingModel(graph, family, BULK).sector_set() is ising._held.pool
        assert calls == []

    def test_random_instances_keep_their_bits(self, monkeypatch):
        @settings(max_examples=60)
        @given(bulk_instances())
        def check(drawn):
            graph, family = drawn
            with monkeypatch.context() as m:
                m.setattr(ising, "_held", None)
                m.setattr(ising, "_hold", empty_slot)
                ref_table = IsingModel(graph, family, BULK).partition_table()
                reference = consumers(graph, family, ref_table)
                assert ising._held is None
            table = IsingModel(graph, family, BULK).partition_table()
            assert ising._held.family is family
            with monkeypatch.context() as m:
                calls = count_draws(m)
                again = IsingModel(graph, family, BULK).partition_table()
                assert canon(table) == canon(again) == canon(ref_table)
                assert consumers(graph, family, table) == reference
            assert "kernels" not in calls

        check()

    def test_another_family_or_graph_replaces_the_slot(self, monkeypatch):
        graph = star_graph()
        family = star_family(graph)
        IsingModel(graph, family, BULK).partition_table()
        held = ising._held
        calls = count_draws(monkeypatch)
        rebuilt = star_family(graph)
        assert rebuilt == family
        IsingModel(graph, rebuilt, BULK).partition_table()
        assert calls == ["pool", "kernels"] and ising._held.family is rebuilt
        other = star_graph()
        IsingModel(other, rebuilt, BULK).partition_table()
        assert calls[2:] == ["pool", "kernels"] and ising._held.graph is other
        IsingModel(graph, family, BULK).partition_table()
        assert calls[4:] == ["pool", "kernels"] and ising._held is not held
        assert ising._held.family is family and ising._held.graph is graph

    def test_boundary_to_boundary_neither_reads_nor_fills(self, monkeypatch):
        @settings(max_examples=5)
        @given(boundary_instances())
        def check(drawn):
            graph, family, state, part, _ = drawn
            monkeypatch.setattr(ising, "_held", None)
            model = IsingModel(graph, family, ModelKind.boundary_to_boundary(part), state=state)
            table = model.partition_table()
            assert ising._held is None
            IsingModel(graph, family, BULK).partition_table()
            held = ising._held
            assert model.sector_set() is not held.pool
            assert canon(model.partition_table()) == canon(table)
            assert ising._held is held

        check()

    def test_exhaustive_limit_still_applies(self, monkeypatch):
        graph = bridge_graph()
        family = bridge_box_family(graph)
        IsingModel(graph, family, BULK).partition_table()
        low = IsingModel(graph, family, BULK)
        window = suggest_window(family, graph)
        monkeypatch.setattr(ising, "EXHAUSTIVE_LIMIT", 1)
        with pytest.raises(EngineError, match="EXHAUSTIVE_LIMIT = 1"):
            low.partition_table()
        with pytest.raises(EngineError, match="EXHAUSTIVE_LIMIT = 1"):
            low.window_table(window)
        with pytest.raises(EngineError, match="EXHAUSTIVE_LIMIT = 1"):
            boundary_sums(low, window[0])

    def test_held_reads_plan_nothing(self, monkeypatch):
        """A held `partition_table()` read, a `window_table` on the held
        pool and a verdict over such a window, each through a fresh model,
        make no `_plan` and build no `_order`: the limit check reads the width
        of the widest table of the held plan."""
        graph = bridge_graph()
        family = bridge_box_family(graph)
        table = IsingModel(graph, family, BULK).partition_table()
        window = suggest_window(family, graph)

        def refuse(*args):
            raise AssertionError("a held read planned an elimination")

        monkeypatch.setattr(IsingModel, "_plan", refuse)
        monkeypatch.setattr(IsingModel, "_order", property(refuse))
        assert IsingModel(graph, family, BULK).partition_table() is table
        assert 0 < len(IsingModel(graph, family, BULK).window_table(window).labels) < len(table.labels)
        assert check_bulk_to_boundary(family, graph, window, "exact").kind == "bulk_to_boundary"

    def test_held_arrays_are_read_only_and_sub_tables_their_own(self):
        graph = bridge_graph()
        family = bridge_box_family(graph)
        model = IsingModel(graph, family, BULK)
        table = model.partition_table()
        held = ising._held
        assert table is held.table
        names = ("link_log_d", "amplitude", "vertex_log_d")
        views = [getattr(sectors, name) for sectors in (held.pool, table.sectors) for name in names]
        for array in (table.z, table.e_min, table.degeneracy, table.gap, table.log_k,
                      held.pool.twice, held.pool.log_k, table.sectors.twice, *views):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0
        before = canon(table)
        window = suggest_window(family, graph)
        sub = model.window_table(window[:1])
        assert 0 < len(sub.labels) < len(table.labels)
        for array in (sub.z, sub.e_min, sub.degeneracy, sub.gap):
            assert array.flags.writeable and not np.shares_memory(array, table.z)
            array += 1
        assert canon(model.partition_table()) == before


class TestWindowWithoutWholeFamily:
    """An explicit window is enumerated boundary by boundary, never through
    the whole family, and a bad filter reads the same with a held pool."""

    def test_window_under_a_limit_below_the_family(self, monkeypatch):
        graph = bridge_graph()
        family = bridge_box_family(graph)
        window = suggest_window(family, graph)
        model = IsingModel(graph, family, BULK)
        expected = [outcome(check_bulk_to_boundary, family, graph, window),
                    outcome(boundary_sums, model, window[0])]
        assert not any(map(raised, expected))
        monkeypatch.setattr(spins, "SECTOR_LIMIT", 6)
        with pytest.raises(SectorEnumerationError):
            IsingModel(graph, family, BULK).sector_set()
        fresh = IsingModel(graph, family, BULK)
        got = [outcome(check_bulk_to_boundary, family, graph, window),
               outcome(boundary_sums, fresh, window[0])]
        assert got == expected
        assert ising._held is None

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda b: {**b, "e": "1"}, "boundary filter names non-boundary link 'e'"),
            (lambda b: {k: v for k, v in b.items() if k != "c"}, "boundary filter must fix every boundary link; it leaves c free"),
        ],
    )
    def test_filter_errors_with_and_without_a_held_pool(self, spoil, message):
        graph = bridge_graph()
        family = bridge_box_family(graph)
        boundary = spoil(suggest_window(family, graph)[0])
        model = IsingModel(graph, family, BULK)
        for _ in ("empty", "held"):
            with pytest.raises(ValueError) as err:
                model.window_table([boundary])
            assert str(err.value) == message
            model.partition_table()
            assert ising._held is not None


class TestWindowTable:
    """`IsingModel.window_table` slices the default table, keeps the bits
    of the table of the window's sectors and reuses the held labels."""

    def test_random_windows_keep_their_bits(self, monkeypatch):
        @settings(max_examples=60)
        @given(boundary_instances(), st.data())
        def check(drawn, data):
            graph, family, state, part, _ = drawn
            for kind, kind_state in ((BULK, None), (ModelKind.boundary_to_boundary(part), state)):
                model = IsingModel(graph, family, kind, state=kind_state)
                pool = model.sector_set()
                keys = [dict(zip(graph.boundary_ids(), map(Spin, key))) for key in pool.keys]
                window = data.draw(st.permutations(keys))[:3]
                for entries in (window, window[::-1], window[:1]):
                    codes = [pool.keys.index(tuple(b[lid].twice for lid in graph.boundary_ids())) for b in entries]
                    sectors = [pool.sectors[a] for c in codes for a in np.flatnonzero(pool.key == c)]
                    with monkeypatch.context() as m:
                        m.setattr(ising, "_held", None)
                        m.setattr(ising, "_hold", empty_slot)
                        expected = canon(model.partition_table(sectors))
                        assert canon(model.window_table(entries)) == expected
                    model.partition_table()
                    assert canon(model.window_table(entries)) == expected

        check()

    def test_window_outside_the_allowed_spins(self):
        graph = bridge_graph()
        family = bridge_box_family(graph)
        first = suggest_window(family, graph)[0]
        window = [first, {**first, "c": "3"}]
        model = IsingModel(graph, family, BULK)
        table = model.window_table(window)
        assert 6 in table.sectors.twice[:, graph.link_ids().index("c")]
        expected = [canon(table), outcome(check_bulk_to_boundary, family, graph, window)]
        assert ising._held is None
        model.partition_table()
        assert ising._held is not None
        assert [canon(model.window_table(window)), outcome(check_bulk_to_boundary, family, graph, window)] == expected

    def test_c2_reads_the_held_table(self, monkeypatch):
        graph = star_graph()
        family = star_family(graph)
        held = IsingModel(graph, family, BULK).partition_table()
        tables, sums = [], []
        read, kernel_sums = IsingModel.partition_table, ising._kernel_sums

        def spied(self, *args, **kwargs):
            tables.append(read(self, *args, **kwargs))
            return tables[-1]

        def counted(*args):
            sums.append(args)
            return kernel_sums(*args)

        monkeypatch.setattr(IsingModel, "partition_table", spied)
        monkeypatch.setattr(ising, "_kernel_sums", counted)
        reproduce_c2(family, graph)
        assert tables == [held] and tables[0] is held
        assert sums == []

    @pytest.mark.parametrize("build_graph_, build_family", INSTANCES)
    def test_window_consumers_build_no_labels(self, monkeypatch, build_graph_, build_family):
        graph = build_graph_()
        family = build_family(graph)
        IsingModel(graph, family, BULK).partition_table()
        window = suggest_window(family, graph)
        parts, build = [], ising.SectorSet._parts

        def counted(*args):
            parts.append(args)
            return build(*args)

        monkeypatch.setattr(ising.SectorSet, "_parts", staticmethod(counted))
        for regime in ("exact", "ground_state"):
            check_bulk_to_boundary(family, graph, window, regime)
        # A boundary row's id is a label, so read the arrays it is made of.
        for boundary in window:
            table = IsingModel(graph, family, BULK).window_table([boundary])
            assert len(table.labels) and table.d_total[0] > 0 and len(table.y[0]) == 2
        if len(graph.vertices) == 1:
            reproduce_c2(family, graph)
        assert parts == []
