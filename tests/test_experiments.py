"""Tests for the canned scenarios c1, c2 and c3."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from holoising import experiments
from holoising.experiments import (
    REGIONS,
    ExperimentError,
    reproduce_c1,
    reproduce_c2,
    reproduce_c3,
)
from holoising.graph import build_graph
from holoising.ising import ContractViolation
from holoising.spins import SectorFamily

TOL = 1e-12

#: The paper's coupling table for the rightmost input region: one
#: combination (n_L2, n_L6p, n_L6m, has_S2, has_Sigma) over L2 = log(2s+1),
#: L6p = log(6s+1), L6m = log(6s-1), S2 and Sigma per allowed
#: (sector pair, replica, configuration) cell, and for three cells the
#: alternative combination the paper also prints (one boundary-link
#: coupling dropped, or a sector coupling flipped).  Sigma vanishes on the
#: cross cells with R spin-up, so a Sigma token there carries no value.
PAPER_TABLE = {
    (("low", "low"), 0, (1, 1)): ((0, 0, 0, 0, 0), None),
    (("low", "low"), 0, (1, -1)): ((3, 0, 1, 1, 0), None),
    (("low", "low"), 0, (-1, 1)): ((3, 1, 0, 0, 0), (3, 0, 1, 0, 0)),
    (("low", "low"), 0, (-1, -1)): ((4, 1, 1, 1, 0), None),
    (("low", "low"), 1, (1, 1)): ((0, 0, 1, 0, 0), None),
    (("low", "low"), 1, (1, -1)): ((3, 0, 0, 1, 0), None),
    (("low", "low"), 1, (-1, 1)): ((3, 1, 1, 0, 0), None),
    (("low", "low"), 1, (-1, -1)): ((4, 1, 0, 1, 0), None),
    (("high", "high"), 0, (1, 1)): ((0, 0, 0, 0, 0), None),
    (("high", "high"), 0, (1, -1)): ((3, 1, 0, 0, 0), None),
    (("high", "high"), 0, (-1, 1)): ((3, 1, 0, 0, 0), None),
    (("high", "high"), 0, (-1, -1)): ((4, 2, 0, 0, 0), None),
    (("high", "high"), 1, (1, 1)): ((0, 1, 0, 0, 0), None),
    (("high", "high"), 1, (1, -1)): ((3, 0, 0, 0, 0), None),
    (("high", "high"), 1, (-1, 1)): ((3, 2, 0, 0, 0), None),
    (("high", "high"), 1, (-1, -1)): ((4, 1, 0, 0, 0), None),
    (("low", "high"), 0, (1, 1)): ((0, 0, 0, 0, 0), None),
    (("low", "high"), 0, (-1, 1)): ((3, 1, 0, 0, 1), (2, 1, 0, 0, 1)),
    (("low", "high"), 1, (1, -1)): ((3, 0, 0, 0, 1), None),
    (("low", "high"), 1, (-1, -1)): ((4, 1, 0, 0, 1), (3, 1, 0, 0, 1)),
}


def paper_value(combo, config, report):
    """Value of a paper combination at the report's start state."""
    n2, n6p, n6m, has_s2, has_sigma = combo
    couplings = report.couplings
    value = n2 * couplings["L2"] + n6p * couplings["L6p"] + n6m * couplings["L6m"]
    if has_s2:
        value += report.start_s2
    if has_sigma and config[1] < 0:
        value += report.start_sigma
    return value


def check_paper_table(report):
    """Engine combinations equal the paper's, up to the Sigma token on
    R-spin-up cross cells; every alternative misses the engine value."""
    cells = {(cell.pair, cell.replica, cell.config): cell for cell in report.cells}
    assert set(cells) == set(PAPER_TABLE)
    for key, (combo, alt) in PAPER_TABLE.items():
        pair, _, config = key
        got, want = cells[key].combo, experiments._combo_label(combo)
        if pair == ("low", "high") and config[1] > 0:
            got, want = got.replace("+Sigma", ""), want.replace("+Sigma", "")
        assert got == want, key
        if alt is not None:
            assert abs(paper_value(alt, config, report) - cells[key].engine) > 1e-6, key


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
        check_paper_table(report)

    @pytest.mark.parametrize("s", [2, 5])
    def test_engine_combos_match_paper_table(self, s):
        check_paper_table(reproduce_c1(s, "rightmost"))

    @pytest.mark.parametrize("region", REGIONS)
    def test_grid_values_match_point_calls(self, region, monkeypatch):
        calls = []
        coarse_grid = experiments._coarse_grid

        def recording(fn, resolution):
            def record(points):
                values = fn(points)
                calls.append((fn, resolution, points, values))
                return values

            return coarse_grid(record, resolution)

        monkeypatch.setattr(experiments, "_coarse_grid", recording)
        report = reproduce_c1(1, region)
        fn, resolution, points, values = calls[0]
        assert resolution == 20 and points.shape == (5775, 4)
        assert not np.isnan(values).any()
        assert [float(v).hex() for v in values] == [float(fn(p)).hex() for p in points]
        first_min = min(range(len(values)), key=lambda idx: (values[idx], idx))
        assert tuple(points[first_min]) == report.optimum.coarse_point

    def test_custom_start(self):
        start = {"a": 0.2, "d": 0.35, "b": 0.05 - 0.1j, "u": 0.1 + 0.02j, "v": -0.07 + 0.05j}
        report = reproduce_c1(1, start=start)
        assert report.start["w"] == pytest.approx(0.45)
        assert report.closed_form_defect <= TOL
        assert report.engine_defect <= TOL

    def test_rejects_bad_scale(self):
        with pytest.raises(ExperimentError, match="scale"):
            reproduce_c1(0)

    @pytest.mark.parametrize(
        "dropped_at, error, message",
        [
            (0, ExperimentError, "allowed at the start state but forbidden at the probe state"),
            (1, ContractViolation, "Hamiltonian undefined on the forbidden configuration"),
        ],
    )
    def test_cells_must_agree_between_probe_and_start(self, monkeypatch, dropped_at, error, message):
        """The probe state (first bridge state built) or the start state
        (second) loses its cross block, so the cross cells whose traced
        blocks it feeds are forbidden there and allowed at the other."""
        bridge_state = experiments._bridge_state
        built = []

        def dropping_cross_block(graph, sectors, params):
            if len(built) == dropped_at:
                params = {**params, "u": 0j, "v": 0j}
            built.append(params)
            return bridge_state(graph, sectors, params)

        monkeypatch.setattr(experiments, "_bridge_state", dropping_cross_block)
        with pytest.raises(error, match=message):
            reproduce_c1(1)


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


class TestC3HarmonicSums:
    """c3's closed forms as finite sums, for n = 2..60: against exact
    rational sums and against scipy.special's digamma and trigamma."""

    @staticmethod
    def rel(value, exact):
        return abs(Fraction(value) - exact) / abs(exact)

    def test_match_exact_fractions(self):
        for n in range(2, 61):
            for x in (n - 1, n):
                for power in (1, 2):
                    exact = sum(Fraction(1, k**power) for k in range(1, x + 1))
                    assert self.rel(experiments._harmonic(x, power), exact) <= 4e-16
            start = Fraction(n, 2) + 1
            for count in (n - 1, n):
                exact = sum(1 / (start + k) for k in range(count))
                assert self.rel(experiments._digamma_gap(0.5 * n + 1.0, count), exact) <= 4e-16

    def test_match_scipy_special(self):
        digamma, polygamma = scipy.special.digamma, scipy.special.polygamma
        harmonic, gap = experiments._harmonic, experiments._digamma_gap
        gamma, zeta2 = float(np.euler_gamma), math.pi**2 / 6.0
        for n in range(2, 61):
            pairs = [
                (harmonic(n - 1) - gamma, digamma(n)),
                (zeta2 - harmonic(n - 1, 2), polygamma(1, n)),
                (gap(0.5 * n + 1.0, n - 1), digamma(1.5 * n) - digamma(0.5 * n + 1.0)),
                (gap(0.5 * n + 1.0, n), digamma(1.5 * n + 1.0) - digamma(0.5 * n + 1.0)),
            ]
            for x in (n - 1, n):
                pairs.append((harmonic(x), digamma(x + 1) + gamma))
                pairs.append((harmonic(x, 2), zeta2 - polygamma(1, x + 1)))
            for got, want in pairs:
                assert abs(got - want) <= 1e-13 * abs(want)
