"""Tests for the canned scenarios c1, c2 and c3."""

import pytest

from holoising.experiments import (
    REGIONS,
    ExperimentError,
    reproduce_c1,
    reproduce_c2,
    reproduce_c3,
)
from holoising.graph import build_graph
from holoising.spins import SectorFamily

TOL = 1e-12


class TestC1:
    @pytest.mark.parametrize("region", REGIONS)
    @pytest.mark.parametrize("s", [1, 2])
    def test_defects_vanish(self, s, region):
        report = reproduce_c1(s, region)
        assert report.region == region
        assert len(report.cells) == 20
        assert max(cell.defect for cell in report.cells) <= TOL
        assert len(report.sums) == 6
        assert max(term.defect for term in report.sums) <= TOL
        assert report.closed_form_defect <= TOL
        assert report.engine_defect <= TOL

    def test_default_region_runs(self):
        report = reproduce_c1(1)
        assert report.region == "rightmost"
        # The reference table's three alternative combinations disagree
        # with the engine; every other cell is consistent.
        assert sum(not cell.consistent for cell in report.cells) == 3

    def test_rejects_bad_scale(self):
        with pytest.raises(ExperimentError, match="scale"):
            reproduce_c1(0)


class TestC2:
    def test_small_star(self):
        graph = build_graph(
            {
                "vertices": [{"id": "x", "valence": 4}],
                "links": [{"id": f"b{i}", "end": ["x", i]} for i in range(4)],
            }
        )
        family = SectorFamily.build(
            graph,
            "1/2",
            "1",
            allowed={"b0": ["1/2", "1"], "b1": ["1/2"], "b2": ["1/2"], "b3": ["1/2", "1"]},
        )
        report = reproduce_c2(family, graph)
        assert len(report.sectors) == 2
        for sector in report.sectors:
            assert max(sector.z0_defect, sector.z1_defect, sector.purity_defect) <= TOL
        assert report.z0_full_engine == pytest.approx(report.z0_full_formula, rel=TOL)
        assert report.z0_diagonal_engine == pytest.approx(
            report.z0_diagonal_formula, rel=TOL
        )
        assert report.z1_diagonal_engine == pytest.approx(report.z1_formula, rel=TOL)
        # Two-dimensional inputs and two output dimensions: no solution.
        assert not report.solution.feasible
        assert len(report.solution.failures) == 3
        assert report.high_beta_monotone


class TestC3:
    def test_n2(self):
        report = reproduce_c3(2)
        for name in ("y1_small", "y1_large", "y0_small", "y0_large"):
            assert getattr(report, name).defect <= TOL
        engine = report.engine
        assert engine is not None and engine.dims_match
        assert max(engine.kernel_defect, engine.k_defect) <= TOL
