"""Tests for the area-growth harness: regions, fits, verdicts, sweeps."""

import math

import numpy as np
import pytest

from ektau.core import SpaceParams
from ektau.errors import ConvergenceError, HypothesisViolationError, UnsupportedSpaceError
from ektau.graphs import BaseDomain, GraphSurface
from ektau.growth import (
    RegionFamily,
    _extrinsic_area,
    _intrinsic_distances,
    calibration_check,
    collin_krust_sweep,
    fit_with_stderr,
    growth_verdict,
    intrinsic_area_table,
    region_area,
    table1_suite,
)
from ektau.surfaces import affine_plane, catenoid, fmp_surface, umbrella


def _umbrella_area_nil(tau, R):
    return 2.0 * math.pi / (3.0 * tau**2) * ((1.0 + tau**2 * R * R) ** 1.5 - 1.0)


class TestRegionFamilies:
    def test_tag_validation(self):
        with pytest.raises(ValueError):
            RegionFamily("sphere")

    def test_umbrella_families_coincide(self):
        surf = umbrella(SpaceParams(0.0, 1.0))
        R = 2.0
        exact = _umbrella_area_nil(1.0, R)
        for tag in ("cylinder", "extrinsic_ball", "intrinsic_ball"):
            area = region_area(surf, RegionFamily(tag), R)
            assert math.isclose(area, exact, rel_tol=1e-6), tag

    def test_umbrella_extrinsic_without_flag(self):
        # drop the structural flag so the generic ray-membership path runs
        surf = umbrella(SpaceParams(0.0, 1.0))
        R = 2.0
        area = region_area(surf.graph, RegionFamily("extrinsic_ball"), R)
        assert math.isclose(area, _umbrella_area_nil(1.0, R), rel_tol=1e-4)

    def test_cylinder_area_monotone(self):
        surf = fmp_surface(1.0, 0.0)
        fam = RegionFamily("cylinder")
        areas = [region_area(surf, fam, R) for R in (1.0, 2.0, 4.0)]
        assert areas[0] < areas[1] < areas[2]

    def test_intrinsic_table_raises_when_not_converged(self):
        g = umbrella(SpaceParams(0.0, 1.0)).graph
        with pytest.raises(ConvergenceError) as info:
            intrinsic_area_table(g, [1.0, 2.0], n0=5, stability=0.0)
        # best holds the finest of the four levels, n = 5, 9, 17, 33
        dist, area_w, cell = _intrinsic_distances(g, 2.0, 33)
        finest = [np.sum(area_w[dist <= R]) * cell for R in (1.0, 2.0)]
        assert np.array_equal(info.value.best, finest)

    def test_extrinsic_area_rejects_sl2(self):
        # u = x is no umbrella, so the ambient-ball path runs and needs a distance
        sp = SpaceParams(-1.0, 1.0)
        g = GraphSurface(sp, BaseDomain.full_plane(), lambda x, y: np.asarray(x, float))
        with pytest.raises(UnsupportedSpaceError):
            _extrinsic_area(g, 1.0)
        with pytest.raises(UnsupportedSpaceError):
            region_area(g, RegionFamily("extrinsic_ball"), 1.0)

    def test_intrinsic_table_close_to_exact_for_umbrella(self):
        g = umbrella(SpaceParams(0.0, 1.0)).graph
        radii = [1.0, 2.0]
        areas = intrinsic_area_table(g, radii)
        for R, a in zip(radii, areas):
            exact = _umbrella_area_nil(1.0, R)
            assert abs(a - exact) / exact < 0.08

    def test_ordering_invariant_fmp(self):
        surf = fmp_surface(1.0, 0.0)
        for R in (2.0, 4.0):
            intr = region_area(surf, RegionFamily("intrinsic_ball"), R)
            extr = region_area(surf, RegionFamily("extrinsic_ball"), R)
            cyl = region_area(surf, RegionFamily("cylinder"), R)
            assert intr <= extr * 1.02
            assert extr <= cyl * 1.02


class TestFitsAndVerdicts:
    def test_fit_with_stderr_exact(self):
        radii = np.array([1.0, 2.0, 4.0, 8.0])
        slope, se, rms = fit_with_stderr(radii, 3.0 * radii**2.5, "power")
        assert math.isclose(slope, 2.5, abs_tol=1e-12)
        assert rms < 1e-12

    def test_verdict_exact_power(self):
        radii = [1, 2, 3, 4.5, 6, 8]
        areas = [2.0 * r**3 for r in radii]
        verdict, fit = growth_verdict(radii, areas, {"model": "power", "value": 3.0})
        assert verdict == "consistent"
        assert math.isclose(fit.power_exponent, 3.0, abs_tol=1e-12)

    def test_verdict_violation(self):
        radii = [1, 2, 3, 4.5, 6, 8]
        areas = [2.0 * r**5 for r in radii]
        verdict, _ = growth_verdict(radii, areas, {"model": "power", "value": 3.0})
        assert verdict == "violated"

    def test_verdict_inconclusive_on_noise(self):
        rng = np.random.default_rng(0)
        radii = [1, 2, 3, 4.5, 6, 8]
        areas = np.exp(rng.uniform(0.0, 3.0, size=6))
        verdict, _ = growth_verdict(radii, areas, {"model": "power", "value": 3.0})
        assert verdict == "inconclusive"

    def test_verdict_one_sided(self):
        radii = [1, 2, 3, 4.5, 6, 8]
        areas = [2.0 * r**2 for r in radii]
        v_at_most, _ = growth_verdict(
            radii, areas, {"model": "power", "value": 3.0, "comparison": "at_most"}
        )
        v_at_least, _ = growth_verdict(
            radii, areas, {"model": "power", "value": 3.0, "comparison": "at_least"}
        )
        assert v_at_most == "consistent"
        assert v_at_least == "violated"

    def test_verdict_exponential(self):
        radii = [3, 4, 5, 6, 7, 8]
        areas = [5.0 * math.exp(1.02 * r) for r in radii]
        verdict, fit = growth_verdict(
            radii, areas, {"model": "exponential", "value": 1.0}
        )
        assert verdict == "consistent"
        assert fit.preferred == "exponential"


class TestCalibration:
    def test_umbrella_margin_zero(self):
        sp = SpaceParams(0.0, 1.0)
        g = GraphSurface(
            sp, BaseDomain.disk(2.0), lambda x, y: np.full(np.shape(x), 1.7)
        )
        area_g, area_u, margin = calibration_check(g)
        assert abs(margin) < 1e-10

    def test_nonconstant_margin_positive(self):
        sp = SpaceParams(0.0, 1.0)
        g = GraphSurface(sp, BaseDomain.disk(2.0), lambda x, y: 0.1 * x)
        _, _, margin = calibration_check(g)
        assert margin > 1e-4

    def test_requires_disk_domain(self):
        g = umbrella(SpaceParams(0.0, 1.0)).graph
        with pytest.raises(HypothesisViolationError):
            calibration_check(g)


class TestCollinKrust:
    def test_catenoid_linear_growth(self):
        surf = catenoid(1.0, 1.0, 1e4)
        radii = np.linspace(50.0, 200.0, 7)
        sweep = collin_krust_sweep(surf.graph, radii)
        assert np.all(np.diff(sweep.M) >= 0.0)
        assert sweep.liminf_linear > 0.5 * 1.0  # > 0.5 E tau
        assert sweep.liminf_quadratic is not None
        assert sweep.liminf_quadratic < sweep.liminf_linear

    def test_zero_graph_rejected(self):
        surf = umbrella(SpaceParams(0.0, 1.0))
        with pytest.raises(HypothesisViolationError):
            collin_krust_sweep(surf.graph, [1.0, 2.0, 4.0])

    def test_nonzero_boundary_rejected(self):
        sp = SpaceParams(0.0, 1.0)
        g = GraphSurface(sp, BaseDomain.disk(2.0), lambda x, y: x + 5.0)
        with pytest.raises(HypothesisViolationError):
            collin_krust_sweep(g, [0.5, 1.0, 1.5])

    def test_halfplane_linear_graph(self):
        # u = a y over the halfplane y > 0 vanishes on the edge and has
        # M(r)/r -> a
        sp = SpaceParams(0.0, 1.0)
        a = 0.7

        def edge(s):
            t = 20.0 * (np.asarray(s) - 0.5)
            return t, np.zeros(np.shape(t))

        from ektau.graphs import BoundaryArc

        domain = BaseDomain(
            lambda x, y: np.asarray(y) > 0.0, (BoundaryArc(edge),), "halfplane"
        )
        g = GraphSurface(sp, domain, lambda x, y: np.where(y > 0.0, a * y, 0.0))
        sweep = collin_krust_sweep(g, [2.0, 4.0, 6.0, 8.0])
        assert abs(sweep.liminf_linear - a) < 0.02


class TestTableSuite:
    def test_umbrella_nil_row(self):
        (rep,) = table1_suite(["umbrella-nil"])
        assert rep.verdict == "consistent"
        assert rep.family == "extrinsic_ball"
        assert abs(rep.fit.power_exponent - 3.0) < 0.4
        assert len(rep.samples) == 6
