"""Bit-level digests of every engine result a benchmark op list builds.

Runs the op list of one benchmark workload (generated by
`perfbench/workloads.py`, which is imported and not modified) and records
each partition table, window table, kernel, purity report, condition
matrix, isometry verdict, c1/c2/c3 report, exact oracle replica average
(`oracle.exact_replica_average`) and oracle map (`oracle.build_cmap`, as
its entry arrays: output rows, input columns, components and values)
that the ops build.  Each `average_purity` call
is also recorded in its other modes, each `check_bulk_to_boundary` call
in its other regime, and each boundary-to-boundary `partition_table` as
the `check_boundary_to_boundary` verdict of its model in every regime (the
result, or the type of the exception the call raises: a mixed bulk state
raises `IsometryError`), so that the ground-state consumers and the
boundary-to-boundary verdict are compared though no op asks for them.
On the sector-wide workload each op's family is also recorded through
`fine_average_purity` at uniform weights and the `sector_dims` of its
weighted sectors, which no op calls either.  The one-configuration views
`IsingModel.delta_factor` and `hamiltonian`, which no op calls, are
recorded on the first sector pair of each op's bulk-to-boundary model and
of each boundary-to-boundary table's model: every configuration in both
replicas, each cell's value or the type of the exception it raises.  The
single kernel `partition_sum_fixed` and `ground_state`, whose
representative no table holds, are recorded on that pair too, in both
replicas (`IsingModel.<name>[first pair]`).  No op
builds a condition matrix, so `isometry.condition_matrix` of that bulk
model's default table is recorded too, at the total input dimension of
the table's boundary rows.  On
sector-wide, `entropy.high_spin_energies` of that bulk pair is recorded
too.  Each report among the results (a purity report, condition matrix,
isometry verdict or c1/c2/c3 report, in every mode and regime recorded)
is also recorded by its `to_json_dict()`, as a result of its own kind,
the call's kind with `:to_json_dict` appended; that form keeps JSON
objects as objects, so its digest ignores the order of their keys, as
`json.dumps(..., sort_keys=True)` does.  Partition tables are left out of
that kind: their JSON lists the rows their own digests cover.
Monte Carlo estimates (`oracle.mc_purity`) are left out of the digests:
they follow the definition of the Haar streams and the order of their
sums, which can change while the engine and the oracle's exact traces keep
their bits.  Each result is reduced to a canonical JSON form in which
every float is written with `float.hex`, so two trees can be compared bit
for bit:

    python3 tools/parity.py --workload sector-wide --seed 5 --out a.txt
    (in the other checkout, same arguments)         --out b.txt
    diff a.txt b.txt

It imports `holoising` from the `src/` of the checkout it sits in, and
re-executes itself with PYTHONHASHSEED=0 and one BLAS thread, as the
benchmark does.  The first lines of the output list one digest per
result in call order; the last line is a digest over all of them.

Where two trees are meant to differ in the last bits, `--values PATH`
also writes each result's canonical form, one JSON line per result, and
each Monte Carlo estimate's value, sigma and numerator and denominator
means as results of their own kind, `oracle.mc_purity`.  `--compare A B`
reads two such files and matches their results within each op and kind:
first the results whose canonical forms are equal, then the rest in
order, listing those that only one file holds, so a tree that drops a
repeated call reads as that call, not as every later result shifted.  It
prints, per result kind, how many results differ, the largest relative
difference of a float (with the path of the float that has it), the
largest relative and absolute differences per field (the path with its
indices dropped), so that a residue near 0 whose relative difference is
large reads as the small move it is, and every
difference that is not a float (a bool, int, string, label, key or
length):

    python3 tools/parity.py --workload sector-wide --seed 5 --out a.txt --values a.jsonl
    (in the other checkout, same arguments)  --out b.txt --values b.jsonl
    python3 tools/parity.py --compare a.jsonl b.jsonl
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import math
import os
import re
import sys
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from holoising import entropy, experiments, ising, isometry, oracle, spins  # noqa: E402

BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Fields compared for these result types.  The boundary rows leave out
# their log-domain field (`log_z_bar`), so that trees with and without it
# compare equal.  A purity report and a sector distribution build their
# per-pair parts on first read, as views that are not dataclass fields;
# they are compared under the names, in the order, of the fields they had
# when all of them were.
FIELDS = {
    "BoundarySumRow": ("boundary_id", "z_bar", "y", "d_total"),
    "MCEstimate": ("value", "sigma", "mean_numerator", "mean_denominator"),
    "PurityReport": (
        "z0", "z1", "purity", "s2", "x", "pair_probs", "cumulants", "cumulant_partial_sums",
        "feasible_mass", "rt_area_estimate", "provenance", "distribution",
    ),
    "SectorDistribution": ("p", "pair_probs", "pair_probs_factorized", "c"),
}

# Calls recorded in the --values file only, not in the digests (see the
# module docstring).
VALUES_ONLY = {"mc_purity"}

# Calls also recorded with every other value of one argument: function
# name -> (argument, its values).
VARIANTS = {
    "average_purity": ("mode", entropy.MODES),
    "check_bulk_to_boundary": ("regime", tuple(isometry.REGIME_TOLERANCES)),
}

# Taken before `Recorder.install` wraps it, so the verdicts recorded for
# boundary-to-boundary tables call the unwrapped function.
CHECK_B2B = isometry.check_boundary_to_boundary


def canon(obj: Any) -> Any:
    """A JSON-ready form of `obj` with every float as `float.hex`."""
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real.hex(), obj.imag.hex()]
    if isinstance(obj, np.ndarray):
        return {"shape": list(obj.shape), "dtype": str(obj.dtype), "data": canon(obj.tolist())}
    if isinstance(obj, oracle.CMap):
        return {"out_dim": obj.out_dim, "in_dim": obj.in_dim, "entries": canon(obj.entries)}
    if isinstance(obj, ising.PartitionSumTable):
        return {
            "rows": canon(obj.rows),
            "k_factors": canon(obj.k_factors),
            "boundary_rows": canon(obj.boundary_rows),
            "totals": canon(obj.totals),
        }
    if dataclasses.is_dataclass(obj):
        name = type(obj).__name__
        names = FIELDS.get(name) or [f.name for f in dataclasses.fields(obj)]
        return {"type": name, **{n: canon(getattr(obj, n)) for n in names}}
    if isinstance(obj, dict) or hasattr(obj, "items"):
        return [[canon(k), canon(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canon_json(obj: Any) -> Any:
    """A `to_json_dict` result with every float as `float.hex`."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {key: canon_json(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [canon_json(item) for item in obj]
    return obj


def outcome(fn: Callable, *args, **kwargs) -> Any:
    """`fn(*args, **kwargs)`, or {"raises": the type name of the exception
    it raises}."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # recorded, as the call's outcome
        return {"raises": type(exc).__name__}


class Recorder:
    def __init__(self, values=None):
        self.lines: List[str] = []
        self.kinds: Counter = Counter()
        self.op = -1
        self.values = values
        self.paused = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    def record(self, kind: str, result: Any, digest: bool = True) -> None:
        self._write(kind, canon(result), digest)
        if hasattr(result, "to_json_dict") and not isinstance(result, ising.PartitionSumTable):
            self._write(f"{kind}:to_json_dict", canon_json(result.to_json_dict()), digest)

    def _write(self, kind: str, value: Any, digest: bool) -> None:
        if digest:
            blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
            self.kinds[kind] += 1
            self.lines.append(f"op {self.op} {kind} {hashlib.sha256(blob.encode()).hexdigest()[:32]}")
        if self.values is not None:
            self.values.write(json.dumps({"op": self.op, "kind": kind, "value": value}, sort_keys=True) + "\n")

    def _wrapper(self, kind: str, fn: Callable) -> Callable:
        recorder = self
        variant = VARIANTS.get(fn.__name__)
        digest = fn.__name__ not in VALUES_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not recorder.paused:
                recorder.record(kind, result, digest)
                if variant is not None:
                    recorder.record_variants(kind, fn, args, kwargs, *variant)
                if fn.__name__ == "partition_table" and args[0].kind.is_boundary_to_boundary:
                    recorder.record_verdicts(kind, args[0])
                    recorder.record_views(f"{kind}:", args[0])
            return result

        return wrapper

    def record_variants(self, kind: str, fn: Callable, args, kwargs, name: str, values) -> None:
        """Record `fn(*args, **kwargs)` once more for every other value of
        argument `name`: its result, or the type of the exception it
        raises.  The calls go to the unwrapped `fn`, and the wrapped calls
        they make are not recorded."""
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        used = bound.arguments[name]
        self.paused += 1
        try:
            for value in values:
                if value == used:
                    continue
                bound.arguments[name] = value
                self.record_outcome(f"{kind}[{name}={value}]", fn, bound.args, bound.kwargs)
        finally:
            self.paused -= 1

    def record_verdicts(self, kind: str, model) -> None:
        """Record `check_boundary_to_boundary` on the graph, family,
        partition and state of a boundary-to-boundary model in every
        regime, through the unwrapped function, with recording paused."""
        args = (model.family, model.graph, model.kind.partition, model.state)
        self.paused += 1
        try:
            for regime in isometry.REGIME_TOLERANCES:
                self.record_outcome(
                    f"{kind}:check_boundary_to_boundary[regime={regime}]", CHECK_B2B, args, {"regime": regime}
                )
        finally:
            self.paused -= 1

    def record_family(self, family, graph) -> None:
        """Record `fine_average_purity` of a family at uniform weights (or
        the type of the exception it raises), and the `sector_dims` of its
        weighted sectors as one list."""
        self.record_outcome("entropy.fine_average_purity[weights=None]", entropy.fine_average_purity,
                            (None, family, graph), {})
        model = ising.IsingModel(graph, family, ising.ModelKind.bulk_to_boundary())
        weighted = model.sector_set().weighted().sectors
        self.record("spins.sector_dims", [spins.sector_dims(sec, graph, family) for sec in weighted])

    def record_views(self, prefix: str, model) -> Optional[Tuple[Any, Any]]:
        """Record `delta_factor` and `hamiltonian` of the model's first
        sector pair, the first two weighted sectors of its default set (the
        first twice where it has one), over every configuration in both
        replicas: one result per view, listing each cell's outcome, replica
        by replica, configurations in `itertools.product((1, -1), ...)`
        order over the graph's vertices.  A value is recorded as a float,
        so that an H summed over no term compares equal whether it comes
        back as the int 0 or as 0.0.  Then record `partition_sum_fixed`
        and `ground_state` of the pair, one result each listing the
        outcomes of replicas 0 and 1.  Recording is paused meanwhile.
        Returns the pair, or None (recording nothing) where the set is
        empty."""
        self.paused += 1
        try:
            sectors = model.sector_set().weighted().sectors
            if not sectors:
                return None
            pair = sectors[0], sectors[min(1, len(sectors) - 1)]
            vertices = model.graph.vertices
            configs = [ising.IsingConfig.make(model.graph, dict(zip(vertices, bits)))
                       for bits in itertools.product((1, -1), repeat=len(vertices))]
            for name in ("delta_factor", "hamiltonian"):
                view = getattr(model, name)
                cells = [outcome(lambda: float(view(*pair, config, replica))) for replica in (0, 1) for config in configs]
                self.record(f"{prefix}IsingModel.{name}", cells)
            for name in ("partition_sum_fixed", "ground_state"):
                view = getattr(model, name)
                self.record(f"{prefix}IsingModel.{name}[first pair]", [outcome(view, *pair, r) for r in (0, 1)])
            return pair
        finally:
            self.paused -= 1

    def record_condition_matrix(self, model) -> None:
        """Record `condition_matrix` of the model's default table at the
        summed D_I of its boundary rows (or the type of the exception it
        raises), with recording paused."""
        def matrix():
            table = model.partition_table()
            return isometry.condition_matrix(table, sum(table.sectors.d_input(table.boundary_keys)))

        self.paused += 1
        try:
            self.record_outcome("isometry.condition_matrix", matrix, (), {})
        finally:
            self.paused -= 1

    def record_outcome(self, kind: str, fn: Callable, args, kwargs) -> None:
        """Record `fn(*args, **kwargs)`: its result, or the type of the
        exception it raises."""
        self.record(kind, outcome(fn, *args, **kwargs))

    def patch_method(self, cls, name: str) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._wrapper(f"{cls.__name__}.{name}", original))
        self._undo.append((cls, name, original))

    def patch_function(self, module, name: str) -> None:
        original = getattr(module, name)
        wrapper = self._wrapper(f"{module.__name__.rsplit('.', 1)[1]}.{name}", original)
        # Modules import each other's functions by name: patch every alias.
        for mod in (ising, entropy, isometry, experiments, oracle):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        for name in ("partition_table", "window_table", "partition_sum_fixed", "ground_state"):
            self.patch_method(ising.IsingModel, name)
        self.patch_function(entropy, "average_purity")
        for name in ("condition_matrix", "check_bulk_to_boundary", "check_boundary_to_boundary"):
            self.patch_function(isometry, name)
        for name in ("reproduce_c1", "reproduce_c2", "reproduce_c3"):
            self.patch_function(experiments, name)
        for name in ("build_cmap", "exact_replica_average", "mc_purity"):
            self.patch_function(oracle, name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# float.hex spellings; anything else in a canonical form is compared as is.
_HEX_FLOAT = re.compile(r"-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|inf)|nan")


def _float(value: Any) -> Optional[float]:
    """The float a canonical string spells, None for any other value."""
    if isinstance(value, str) and _HEX_FLOAT.fullmatch(value):
        return float.fromhex(value) if "x" in value else float(value)
    return None


def _rel(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values (also equal infinities
    and two NaNs), inf where only one is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _differences(a: Any, b: Any, path: str, floats: List[Tuple[float, float, str]], other: List[str]) -> None:
    """Walk two canonical forms side by side: differing floats go to
    `floats` as (relative difference, absolute difference, path),
    everything else to `other`.  A finite relative difference has two
    finite floats; the absolute difference is inf where it is not."""
    fa, fb = _float(a), _float(b)
    if fa is not None and fb is not None:
        rel = _rel(fa, fb)
        if rel:
            floats.append((rel, abs(fa - fb) if math.isfinite(rel) else math.inf, path))
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            other.append(f"{path}: keys {sorted(a.keys() ^ b.keys())}")
        for key in a.keys() & b.keys():
            _differences(a[key], b[key], f"{path}/{key}", floats, other)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            other.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _differences(x, y, f"{path}[{i}]", floats, other)
    elif a != b:
        other.append(f"{path}: {a!r} != {b!r}")


def _matched(a: List[Dict[str, Any]], b: List[Dict[str, Any]]):
    """Pair the records of two files within each (op, kind): first those
    whose canonical values are equal, in order, then the rest in order.
    Returns the pairs and the records of A and of B left unmatched."""
    groups: Dict[Tuple[int, str], Tuple[list, list]] = {}
    for side, records in enumerate((a, b)):
        for record in records:
            groups.setdefault((record["op"], record["kind"]), ([], []))[side].append(record)
    pairs, only_a, only_b = [], [], []
    for ra, rb in groups.values():
        waiting: Dict[str, List[int]] = {}
        for j in reversed(range(len(rb))):
            waiting.setdefault(json.dumps(rb[j]["value"], sort_keys=True), []).append(j)
        rest_a, taken = [], set()
        for record in ra:
            same = waiting.get(json.dumps(record["value"], sort_keys=True))
            if same:
                j = same.pop()
                taken.add(j)
                pairs.append((record, rb[j]))
            else:
                rest_a.append(record)
        rest_b = [record for j, record in enumerate(rb) if j not in taken]
        pairs.extend(zip(rest_a, rest_b))
        only_a.extend(rest_a[len(rest_b):])
        only_b.extend(rest_b[len(rest_a):])
    return pairs, only_a, only_b


def compare(path_a: str, path_b: str) -> int:
    """Print per result kind how two `--values` files differ; 1 where some
    difference is not a float or some result has no match in the other
    file.  Results are matched within each op and kind, equal ones first
    and the rest by order (`_matched`), so a kind that only one tree
    records, or a repeated result that only one tree makes, is listed as
    such, not misaligned."""
    records = []
    for path in (path_a, path_b):
        with open(path) as handle:
            records.append([json.loads(line) for line in handle])
    pairs, only_a, only_b = _matched(*records)
    status = 0
    if only_a or only_b:
        print(f"the files list different results ({len(records[0])} and {len(records[1])} records)")
        for name, only in (("A", only_a), ("B", only_b)):
            ops: Dict[str, List[int]] = {}
            for record in only:
                ops.setdefault(record["kind"], []).append(record["op"])
            for kind, listed in sorted(ops.items()):
                print(f"    only in {name}: {len(listed)} {kind} (ops {', '.join(map(str, listed[:10]))}"
                      f"{', ...' if len(listed) > 10 else ''})")
        status = 1
    report: Dict[str, Dict[str, Any]] = {}
    for ra, rb in pairs:
        floats: List[Tuple[float, float, str]] = []
        other: List[str] = []
        _differences(ra["value"], rb["value"], "", floats, other)
        entry = report.setdefault(ra["kind"], {"count": 0, "differ": 0, "max": (0.0, ""), "fields": {}, "other": []})
        entry["count"] += 1
        entry["differ"] += bool(floats or other)
        entry["max"] = max([entry["max"], *((rel, where) for rel, _, where in floats)])
        for rel, gap, where in floats:
            field = re.sub(r"\[\d+\]", "", where)
            largest = entry["fields"].get(field, (0.0, 0.0))
            entry["fields"][field] = (max(largest[0], rel), max(largest[1], gap))
        entry["other"].extend(f"op {ra['op']} {line}" for line in other)
    for kind, entry in sorted(report.items()):
        rel, where = entry["max"]
        print(f"{kind}: {entry['differ']} of {entry['count']} differ, largest relative float "
              f"difference {rel:.3g}{f' at {where}' if rel else ''}, "
              f"{len(entry['other'])} non-float differences")
        for field, (rel, gap) in sorted(entry["fields"].items()):
            print(f"    {field or '/'}: {rel:.3g} relative, {gap:.3g} absolute")
        for line in entry["other"][:20]:
            print(f"    {line}")
        status |= bool(entry["other"])
    return status


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.update((name, "1") for name in BLAS_THREADS)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0, help="run length the op count is drawn for")
    parser.add_argument("--out")
    parser.add_argument("--values", metavar="PATH", help="also write each result's canonical JSON, one line each")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --values files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None or args.out is None:
        parser.error("--workload, --seed and --out are required unless --compare is given")

    ops = workloads.build_ops(args.workload, args.seed, workloads.op_count(args.workload, args.seconds))
    values = open(args.values, "w") if args.values else None
    recorder = Recorder(values)
    recorder.install()
    failures = []
    try:
        for op in ops:
            recorder.op = op.index
            try:
                workloads.execute(op)
            except Exception as exc:  # recorded, like a failed benchmark op
                failures.append(f"op {op.index} {op.kind} failed: {type(exc).__name__}: {exc}")
            pair = None
            if hasattr(op.inst, "family"):  # an Instance; canned scenarios take an int
                bulk = ising.IsingModel(op.inst.graph, op.inst.family, ising.ModelKind.bulk_to_boundary())
                pair = recorder.record_views("", bulk)
                recorder.record_condition_matrix(bulk)
            if args.workload == "sector-wide":
                recorder.record_family(op.inst.family, op.inst.graph)
                if pair is not None:
                    recorder.record_outcome("entropy.high_spin_energies", entropy.high_spin_energies,
                                            pair, {"family": op.inst.family})
    finally:
        recorder.uninstall()
        if values is not None:
            values.close()
    total = hashlib.sha256("\n".join(recorder.lines).encode()).hexdigest()
    with open(args.out, "w") as handle:
        handle.write(f"# {args.workload} seed {args.seed}: {len(ops)} ops\n")
        handle.writelines(line + "\n" for line in recorder.lines)
        handle.writelines(line + "\n" for line in failures)
        for kind, n in sorted(recorder.kinds.items()):
            handle.write(f"count {kind} {n}\n")
        handle.write(f"total {total}\n")
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, {len(recorder.lines)} results, "
          f"{len(failures)} failed ops, digest {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
