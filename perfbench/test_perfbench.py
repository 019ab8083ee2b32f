"""The benchmark repeats itself: for one seed, the generated inputs, every
op's pass/fail outcome and every per-layer count come out identical.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.bootstrap()

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Short op lists; index 3 of oracle-xcheck is the known c1 failure.
SHORT = {"chain-kernel": 2, "sector-wide": 3, "oracle-xcheck": 5}


def _traced_pass(ops):
    wall, outcomes, tracer = run.traced_pass(ops)
    return outcomes, tracer.exact_counts(), tracer.consistency(wall)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs_outcomes_and_counts(workload):
    n = SHORT[workload]
    first = workloads.build_ops(workload, 5, n)
    second = workloads.build_ops(workload, 5, n)
    digest = workloads.inputs_digest(first)
    assert workloads.inputs_digest(second) == digest
    assert workloads.inputs_digest(workloads.build_ops(workload, 6, n)) != digest

    _, plain, _, _ = run.run_calibrated(first, run.guarded(workloads.execute))
    out1, counts1, problems1 = _traced_pass(first)
    out2, counts2, problems2 = _traced_pass(second)
    assert problems1 == [] and problems2 == []
    assert run.outcome_digest(first, plain) == run.outcome_digest(first, out1)
    assert run.outcome_digest(first, out1) == run.outcome_digest(second, out2)
    assert counts1 == counts2
    for op, err in zip(first, plain):
        assert err is None or workloads.is_known_failure(op.kind, err[0]), err


def test_tracing_restores_the_library():
    from holoising import graph, ising, spins

    before = (graph.OpenGraph.port_map, ising.intertwiner_dim, spins.enumerate_sectors)
    tracer = tracing.Tracer()
    tracer.install()
    assert graph.OpenGraph.port_map is not before[0]
    tracer.uninstall()
    assert (graph.OpenGraph.port_map, ising.intertwiner_dim, spins.enumerate_sectors) == before


@pytest.mark.parametrize(
    "twices, expected",
    [((1, 1), 1), ((1, 1, 1), 0), ((4, 4, 4), 1), ((1, 1, 1, 1), 2), ((2, 2, 2, 2), 3), ((2, 6), 0)],
)
def test_reference_invariant_count(twices, expected):
    assert reference.invariant_count(twices) == expected


def test_calibrated_run_gives_every_op_a_nearby_slice():
    ops = workloads.build_ops("chain-kernel", 5, 2)
    pauses = []
    durations, outcomes, speeds, slices = run.run_calibrated(
        ops, lambda op: None, lambda: pauses.append(len(pauses)), 3
    )
    assert pauses == [0, 1, 2]        # before op 0, before op 1, after op 1
    assert outcomes == [None, None] and len(durations) == len(speeds) == 2
    assert len(slices) == 3           # before each op after a pause, and after the last
    assert speeds == [statistics.median(v for _, v in slices)] * 2


def test_tail_ranks_failures_last():
    durations = [float(i) for i in range(20)]
    outcomes = [None] * 20
    outcomes[0] = ("ExperimentError", "known")
    value, pct, n = run.tail(durations, outcomes)
    assert (value, pct, n) == (10.0, 50.0, 20)
