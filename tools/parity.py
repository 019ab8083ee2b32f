"""Bit-level digests of every engine result a benchmark op list builds.

Runs the op list of one benchmark workload (generated by
`perfbench/workloads.py`, which is imported and not modified) and records
each partition table, kernel, boundary-fixed sum, purity report, condition
matrix, isometry verdict, c1/c2/c3 report and exact oracle replica
average (`oracle.exact_replica_average`) that the ops build.  Monte Carlo
estimates are left out: they follow the definition of the Haar streams,
which can change while the engine and the oracle's grids keep their bits.
Each result is reduced to a canonical JSON form in which every float is
written with `float.hex`, so two trees can be compared bit for bit:

    python3 tools/parity.py --workload sector-wide --seed 5 --out a.txt
    (in the other checkout, same arguments)         --out b.txt
    diff a.txt b.txt

It imports `holoising` from the `src/` of the checkout it sits in, and
re-executes itself with PYTHONHASHSEED=0 and one BLAS thread, as the
benchmark does.  The first lines of the output list one digest per
result in call order; the last line is a digest over all of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
from collections import Counter
from typing import Any, Callable, List, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from holoising import entropy, experiments, ising, isometry, oracle  # noqa: E402

import workloads  # noqa: E402

BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Fields compared for these result types.  The boundary sums leave out
# their log-domain field (`log_z_bar`), and the c1 cells and sums the
# reference-table variants (`alt_combo`, `alt_value`, `consistent`,
# `variant_total`) that only older trees report, so that trees with and
# without them compare equal.
FIELDS = {
    "BoundarySumRow": ("boundary_id", "z_bar", "y", "d_total"),
    "BoundaryFixedSums": ("z_bar", "y", "d_total", "sector_count"),
    "C1Cell": ("pair", "replica", "config", "combo", "expected", "engine", "defect"),
    "C1Sum": ("pair", "replica", "terms", "total", "engine", "defect"),
}


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


class Recorder:
    def __init__(self):
        self.lines: List[str] = []
        self.kinds: Counter = Counter()
        self.op = -1
        self._undo: List[Tuple[Any, str, Any]] = []

    def record(self, kind: str, result: Any) -> None:
        blob = json.dumps(canon(result), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:32]
        self.kinds[kind] += 1
        self.lines.append(f"op {self.op} {kind} {digest}")

    def _wrapper(self, kind: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            recorder.record(kind, result)
            return result

        return wrapper

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
        for name in ("partition_table", "partition_sum_fixed", "ground_state", "boundary_fixed_sums"):
            self.patch_method(ising.IsingModel, name)
        self.patch_function(entropy, "average_purity")
        for name in ("condition_matrix", "check_bulk_to_boundary", "check_boundary_to_boundary"):
            self.patch_function(isometry, name)
        for name in ("reproduce_c1", "reproduce_c2", "reproduce_c3"):
            self.patch_function(experiments, name)
        self.patch_function(oracle, "exact_replica_average")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.update((name, "1") for name in BLAS_THREADS)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="run length the op count is drawn for")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    ops = workloads.build_ops(args.workload, args.seed, workloads.op_count(args.workload, args.seconds))
    recorder = Recorder()
    recorder.install()
    failures = []
    try:
        for op in ops:
            recorder.op = op.index
            try:
                workloads.execute(op)
            except Exception as exc:  # recorded, like a failed benchmark op
                failures.append(f"op {op.index} {op.kind} failed: {type(exc).__name__}: {exc}")
    finally:
        recorder.uninstall()
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
