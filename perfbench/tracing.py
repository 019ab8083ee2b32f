"""Per-layer tracing for the benchmark's traced run.

The layers are the modules of `holoising`.  Tracing wraps their public
functions and methods from outside (the library is not edited) and removes
the wrappers again afterwards.  Two kinds of wrapper exist:

* spans, around the coarse entry points (a partition table, a verdict, an
  oracle map, a canned scenario).  Each span records name, start, end,
  parent span and op id; records stay in memory until the run ends.
* counted timers, around the hot tiny calls (`port_map`, `intertwiner_dim`,
  one kernel sum, ...), which run tens of thousands of times per op.  They
  add their busy time and call count to per-function totals but leave no
  record, so that tracing does not swamp the run.

Both kinds share one frame stack, so a function's self time is its duration
minus the time its wrapped callees took.  Unwrapped helpers count towards
the layer that called them.  All work is single-threaded, so self time is
busy time; no layer waits on another.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from holoising import bulk, entropy, experiments, graph, ising, isometry, oracle, spins

MODULES = {
    m.__name__.rsplit(".", 1)[1]: m
    for m in (graph, spins, bulk, ising, entropy, isometry, oracle, experiments)
}

# Record fields.
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.records: List[list] = []
        self.frames: List[list] = []        # [start, time in wrapped callees]
        self.open_spans: List[int] = []
        self.stats: Dict[str, list] = {}    # name -> [calls, self seconds, layer]
        self.counts: Counter = Counter()
        self.cancellation: List[float] = []   # one sample per table and replica
        self.op: Optional[int] = None
        self._undo: List[tuple] = []

    def _stat(self, layer: str, name: str) -> list:
        return self.stats.setdefault(f"{layer}.{name}", [0, 0.0, layer])

    # -- frames --------------------------------------------------------

    def _open_span(self, name: str) -> None:
        now = perf_counter()
        idx = len(self.records)
        parent = self.open_spans[-1] if self.open_spans else -1
        self.records.append([name, now, None, parent, self.op])
        self.open_spans.append(idx)
        self.frames.append([now, 0.0])

    def _close_span(self, stat: list) -> None:
        end = perf_counter()
        start, child = self.frames.pop()
        duration = end - start
        stat[1] += duration - child
        if self.frames:
            self.frames[-1][1] += duration
        self.records[self.open_spans.pop()][END] = end

    def run_op(self, op_index: int, fn: Callable[[], Any]) -> Any:
        """Run one benchmark op under its root span (layer `bench`)."""
        stat = self._stat("bench", "op")
        stat[0] += 1
        self.op = op_index
        self._open_span("op")
        try:
            return fn()
        finally:
            self._close_span(stat)
            self.op = None

    # -- wrappers --------------------------------------------------------

    def _timer(self, stat: list, fn):
        """Counted timer: call count and self time, no record."""
        frames = self.frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            frames.append([perf_counter(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                start, child = frames.pop()
                duration = end - start
                stat[1] += duration - child
                if frames:
                    frames[-1][1] += duration

        return wrapper

    def _wrap(self, layer: str, name: str, fn, span: bool, hook=None):
        stat = self._stat(layer, name)
        call = self._span(stat, f"{layer}.{name}", fn) if span else self._timer(stat, fn)
        if hook is None:
            return call
        hook_timer = self._timer(self._stat("trace", "hooks"), hook)
        tracer = self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            result = call(*args, **kwargs)
            hook_timer(tracer, args, kwargs, result)
            return result

        return hooked

    def _span(self, stat: list, qual: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            tracer._open_span(qual)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close_span(stat)

        return wrapper

    def _wrap_generator(self, layer: str, name: str, fn):
        stat = self._stat(layer, name)
        frames = self.frames
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                frames.append([perf_counter(), 0.0])
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    start, child = frames.pop()
                    stat[1] += end - start - child
                    if frames:
                        frames[-1][1] += end - start
                counts["spins.sectors_yielded"] += 1
                yield item

        return wrapper

    def _patch_method(self, cls, layer: str, name: str, span: bool, hook=None) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._wrap(layer, name, original, span, hook))
        self._undo.append((cls, name, original))

    def _patch_function(self, layer: str, name: str, span: bool, hook=None, generator=False) -> None:
        module = MODULES[layer]
        original = getattr(module, name)
        if generator:
            wrapper = self._wrap_generator(layer, name, original)
        else:
            wrapper = self._wrap(layer, name, original, span, hook)
        # Modules import each other's functions by name: patch every alias.
        for mod in MODULES.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        pm = self._patch_method
        pf = self._patch_function
        pm(graph.OpenGraph, "graph", "port_map", False)
        pm(graph.OpenGraph, "graph", "links_at", False)
        pm(graph.OpenGraph, "graph", "endpoints", False)
        pm(spins.SpinSector, "spins", "vertex_spins", False)
        pf("spins", "intertwiner_dim", False)
        pf("spins", "sector_dims", False)
        pf("spins", "enumerate_sectors", False, generator=True)
        pm(ising.IsingModel, "ising", "partition_table", True, _table_hook)
        pm(ising.IsingModel, "ising", "partition_sum_fixed", False, _kernel_hook)
        pm(ising.IsingModel, "ising", "ground_state", False, _ground_hook)
        pm(ising.IsingModel, "ising", "k_factor", False)
        pm(ising.IsingModel, "ising", "hamiltonian", False)
        pm(bulk.IntertwinerState, "bulk", "traced_block", False)
        pf("entropy", "average_purity", True, _purity_hook)
        pf("isometry", "suggest_window", True)
        pf("isometry", "check_bulk_to_boundary", True)
        pf("oracle", "build_hilbert", True, _hilbert_hook)
        pf("oracle", "build_cmap", True)
        pf("oracle", "exact_replica_average", True)
        pf("oracle", "mc_purity", True, _mc_hook)
        for name in ("reproduce_c1", "reproduce_c2", "reproduce_c3"):
            pf("experiments", name, True)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def consistency(self, wall_s: float) -> List[str]:
        """Problems found in the recorded spans; empty when consistent."""
        problems = []
        if self.frames or self.open_spans:
            problems.append(f"{len(self.frames)} frames still open")
        roots: Dict[int, int] = Counter()
        root_total = 0.0
        for i, rec in enumerate(self.records):
            if rec[END] is None or rec[END] < rec[START]:
                problems.append(f"span {i} {rec[NAME]} not closed")
                continue
            if rec[PARENT] < 0:
                roots[rec[OP]] += 1
                root_total += rec[END] - rec[START]
                if rec[NAME] != "op":
                    problems.append(f"span {i} {rec[NAME]} has no parent")
                continue
            parent = self.records[rec[PARENT]]
            if parent[END] is None or not (
                parent[START] <= rec[START] and rec[END] <= parent[END]
            ) or parent[OP] != rec[OP]:
                problems.append(f"span {i} {rec[NAME]} lies outside its parent")
        for op, n in roots.items():
            if n != 1:
                problems.append(f"op {op} has {n} root spans")
        total_self = sum(stat[1] for stat in self.stats.values())
        if total_self > wall_s + 1e-6:
            problems.append(f"self time {total_self:.6f} s exceeds traced wall {wall_s:.6f} s")
        if abs(total_self - root_total) > 1e-6 * max(1, len(self.records)):
            problems.append(
                f"self times sum to {total_self:.6f} s, root spans cover {root_total:.6f} s"
            )
        return problems

    def tables_per_verdict(self) -> float:
        verdicts = sum(1 for r in self.records if r[NAME] == "isometry.check_bulk_to_boundary")
        if not verdicts:
            return 0.0
        inside = 0
        for rec in self.records:
            if rec[NAME] != "ising.partition_table":
                continue
            parent = rec[PARENT]
            while parent >= 0:
                if self.records[parent][NAME] == "isometry.check_bulk_to_boundary":
                    inside += 1
                    break
                parent = self.records[parent][PARENT]
        return inside / verdicts

    def layer_metrics(self, n_ops: int) -> Dict[str, tuple]:
        """Per-layer metrics, per op unless the name says otherwise."""
        c = Counter(self.exact_counts())
        s = {name: stat[1] for name, stat in self.stats.items()}
        layer: Dict[str, float] = defaultdict(float)
        for _, own, lay in self.stats.values():
            layer[lay] += own
        per = 1.0 / n_ops
        configs = c["ising.configs_evaluated"]
        kernels = c["ising.partition_sum_fixed.calls"]
        cancel = self.cancellation
        out = {
            "graph.port_map.calls": (c["graph.port_map.calls"] * per, "count"),
            "graph.endpoints.calls": (c["graph.endpoints.calls"] * per, "count"),
            "graph.links_at.calls": (c["graph.links_at.calls"] * per, "count"),
            "graph.self_s": (layer["graph"] * per, "s"),
            "spins.vertex_spins.calls": (c["spins.vertex_spins.calls"] * per, "count"),
            "spins.intertwiner_dim.calls": (c["spins.intertwiner_dim.calls"] * per, "count"),
            "spins.sectors_yielded": (c["spins.sectors_yielded"] * per, "count"),
            "spins.self_s": (layer["spins"] * per, "s"),
            "ising.configs_evaluated": (configs * per, "count"),
            "ising.partition_table.calls": (c["ising.partition_table.calls"] * per, "count"),
            "ising.partition_sum_fixed.calls": (kernels * per, "count"),
            "ising.ground_state.calls": (c["ising.ground_state.calls"] * per, "count"),
            "ising.self_s": (layer["ising"] * per, "s"),
            "ising.s_per_config": (layer["ising"] / configs if configs else 0.0, "s"),
            "ising.nonzero_kernel_frac": (
                c["ising.nonzero_kernels"] / kernels if kernels else 0.0,
                "fraction",
            ),
            "ising.cancellation": (sum(cancel) / len(cancel) if cancel else 0.0, "ratio"),
            "bulk.traced_block.calls": (c["bulk.traced_block.calls"] * per, "count"),
            "bulk.self_s": (layer["bulk"] * per, "s"),
            "entropy.pair_cells": (c["entropy.pair_cells"] * per, "count"),
            "entropy.average_purity.self_s": (s.get("entropy.average_purity", 0.0) * per, "s"),
            "isometry.tables_per_verdict": (self.tables_per_verdict(), "count"),
            "isometry.self_s": (layer["isometry"] * per, "s"),
            "oracle.build_cmap.self_s": (s.get("oracle.build_cmap", 0.0) * per, "s"),
            "oracle.exact_replica_average.self_s": (s.get("oracle.exact_replica_average", 0.0) * per, "s"),
            "oracle.mc_purity.self_s": (s.get("oracle.mc_purity", 0.0) * per, "s"),
            "oracle.self_s": (layer["oracle"] * per, "s"),
            "oracle.hilbert_dim": (c["oracle.hilbert_dim"] * per, "count"),
            "oracle.mc_shots": (c["oracle.mc_shots"] * per, "count"),
            "experiments.self_s": (layer["experiments"] * per, "s"),
            "bench.self_s": (layer["bench"] * per, "s"),
        }
        return out

    def exact_counts(self) -> Dict[str, float]:
        """Every count the trace made; these repeat exactly for a seed."""
        counts = dict(self.counts)
        counts.update((name + ".calls", stat[0]) for name, stat in self.stats.items())
        return dict(sorted(counts.items()))


# -- hooks: counts taken from arguments and results ----------------------


def _configs(tracer: Tracer, model) -> None:
    tracer.counts["ising.configs_evaluated"] += 2 ** len(model.graph.vertices)


def _kernel_hook(tracer, args, kwargs, z) -> None:
    _configs(tracer, args[0])
    if z != 0.0:
        tracer.counts["ising.nonzero_kernels"] += 1


def _ground_hook(tracer, args, kwargs, result) -> None:
    _configs(tracer, args[0])


def _table_hook(tracer, args, kwargs, table) -> None:
    """Cancellation of the signed totals: sum K_j K_k |z| over |total|."""
    k = dict(table.k_factors)
    for replica, total in enumerate(table.totals):
        if total == 0.0:
            continue
        mass = 0.0
        for row in table.rows:
            if row.replica == replica and row.z != 0.0:
                j, kk = row.pair_id.split("|")
                mass += k[j] * k[kk] * abs(row.z)
        tracer.cancellation.append(mass / abs(total))


def _purity_hook(tracer, args, kwargs, report) -> None:
    table = args[0] if args else kwargs["table"]
    tracer.counts["entropy.pair_cells"] += len({row.pair_id for row in table.rows})


def _hilbert_hook(tracer, args, kwargs, index) -> None:
    tracer.counts["oracle.hilbert_dim"] += index.dim


def _mc_hook(tracer, args, kwargs, estimate) -> None:
    tracer.counts["oracle.mc_shots"] += estimate.shots
