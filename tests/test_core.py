"""Tests for the model, frame, metric and connection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ektau.core import (
    BasePoint,
    FrameVector,
    PointE,
    SpaceParams,
    _mu,
    base_circle_length,
    base_disk_area,
    base_disk_model_radius,
    base_intrinsic_radius,
    connection_term,
    coord_to_frame,
    covariant_derivative,
    frame_to_coord,
    frame_vectors_coord,
    lambda_factor,
    metric_matrix,
    volume_form,
)
from ektau.errors import ModelDomainError

SPACES = [
    SpaceParams(0.0, 0.0),
    SpaceParams(0.0, 1.0),
    SpaceParams(-1.0, 0.0),
    SpaceParams(-1.0, 1.0),
    SpaceParams(-2.5, 0.7),
]


def _interior_point(sp, x, y, z):
    scale = 1.0 if sp.kappa == 0.0 else 0.4 * sp.model_radius
    return PointE(scale * x, scale * y, z)


coords = st.floats(-0.95, 0.95)


class TestSpaceParams:
    def test_positive_kappa_rejected(self):
        with pytest.raises(ValueError):
            SpaceParams(0.5, 1.0)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            SpaceParams(0.0, -1.0)

    def test_classification(self):
        assert SpaceParams(0.0, 0.0).is_euclidean
        assert SpaceParams(0.0, 2.0).is_nil
        assert SpaceParams(-1.0, 0.0).is_product
        assert SpaceParams(-1.0, 2.0).is_sl2

    def test_model_radius(self):
        assert SpaceParams(0.0, 1.0).model_radius == math.inf
        assert SpaceParams(-4.0, 0.0).model_radius == 1.0


class TestFrame:
    @given(coords, coords, coords, coords, coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, x, y, z, v1, v2, v3):
        for sp in SPACES:
            p = _interior_point(sp, x, y, z)
            fv = coord_to_frame(sp, p, (v1, v2, v3))
            back = frame_to_coord(sp, p, fv)
            assert np.allclose(back, [v1, v2, v3], atol=1e-12)

    def test_frame_is_orthonormal(self):
        for sp in SPACES:
            p = _interior_point(sp, 0.3, -0.5, 0.2)
            g = metric_matrix(sp, p)
            E = frame_vectors_coord(sp, p)
            gram = E @ g @ E.T
            assert np.allclose(gram, np.eye(3), atol=1e-12)

    def test_frame_norm_is_metric_norm(self):
        sp = SpaceParams(-1.5, 0.8)
        p = _interior_point(sp, 0.4, 0.1, -0.3)
        v = np.array([0.3, -0.7, 0.5])
        fv = coord_to_frame(sp, p, v)
        g = metric_matrix(sp, p)
        assert math.isclose(fv.norm() ** 2, float(v @ g @ v), rel_tol=1e-12)

    def test_outside_model_raises(self):
        sp = SpaceParams(-1.0, 0.0)
        with pytest.raises(ModelDomainError):
            lambda_factor(sp, BasePoint(3.0, 0.0))


MU_KAPPAS = st.sampled_from([0.0, -0.5, -1.0, -4.0])
# model coordinates inside, outside and exactly on the rims r = 1 and r = 2
MU_COORDS = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1.0, -1.0, 2.0, -2.0]))


class TestMu:
    """The conformal factor's one owner, against mu = 1 + kappa (x^2 + y^2) / 4."""

    @settings(max_examples=300, deadline=None)
    @given(MU_KAPPAS, MU_COORDS, MU_COORDS, st.booleans())
    def test_scalar(self, kappa, x, y, numpy_scalar):
        sp = SpaceParams(kappa, 0.5)
        if numpy_scalar:
            x, y = np.float64(x), np.float64(y)
        expect = 1.0 + kappa * (x * x + y * y) / 4.0
        if expect <= 0.0:
            with pytest.raises(ModelDomainError):
                _mu(sp, x, y)
        else:
            assert _mu(sp, x, y) == expect
            assert _mu(sp, math.hypot(x, y)) == pytest.approx(expect, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(MU_KAPPAS, st.lists(st.tuples(MU_COORDS, MU_COORDS), min_size=1, max_size=8))
    def test_array(self, kappa, points):
        sp = SpaceParams(kappa, 0.5)
        x, y = np.array(points).T
        expect = 1.0 + kappa * (x * x + y * y) / 4.0
        if np.any(expect <= 0.0):
            with pytest.raises(ModelDomainError):
                _mu(sp, x, y)
            with pytest.raises(ModelDomainError):
                _mu(sp, x.reshape(-1, 1), y.reshape(-1, 1))
        else:
            assert np.array_equal(_mu(sp, x, y), expect)
            assert _mu(sp, x.reshape(-1, 1), y.reshape(-1, 1)).shape == (len(points), 1)


class TestBaseDisk:
    """Model radius, circle length and area of the base disk of radius R."""

    SPACES = [SpaceParams(0.0, 1.0), SpaceParams(-0.5, 0.0), SpaceParams(-1.0, 1.0),
              SpaceParams(-4.0, 0.3)]

    def test_circle_length_closed_forms(self):
        assert math.isclose(base_circle_length(SpaceParams(0.0, 1.0), 2.0),
                            4.0 * math.pi, rel_tol=1e-14)
        assert math.isclose(base_circle_length(SpaceParams(-1.0, 0.0), 2.0),
                            2.0 * math.pi * math.sinh(2.0), rel_tol=1e-14)

    def test_disk_area_closed_forms(self):
        assert math.isclose(base_disk_area(SpaceParams(0.0, 1.0), 2.0),
                            4.0 * math.pi, rel_tol=1e-15)
        # 2 pi (cosh R - 1) for kappa = -1
        assert math.isclose(base_disk_area(SpaceParams(-1.0, 0.0), 2.0),
                            2.0 * math.pi * (math.cosh(2.0) - 1.0), rel_tol=1e-14)

    @pytest.mark.parametrize("R", [0.1, 1.0, 3.0])
    def test_in_the_model(self, R):
        # the circle is the model circle scaled by lambda, the disk's area is
        # the integral of lambda^2 over the model disk
        for sp in self.SPACES:
            rho = base_disk_model_radius(sp, R)
            lam = lambda r: 1.0 / (1.0 + 0.25 * sp.kappa * r * r)
            assert math.isclose(base_circle_length(sp, R), 2.0 * math.pi * rho * lam(rho),
                                rel_tol=1e-9)
            area = quad(lambda r: 2.0 * math.pi * r * lam(r) ** 2, 0.0, rho,
                        epsabs=0.0, epsrel=1e-12)[0]
            assert math.isclose(base_disk_area(sp, R), area, rel_tol=1e-9)
            assert math.isclose(base_intrinsic_radius(sp, rho), R, rel_tol=1e-9)

    @pytest.mark.parametrize("R", [0.1, 1.0, 3.0, 7.5])
    def test_area_derivative_is_circle_length(self, R):
        h = 1e-5 * R
        for sp in self.SPACES:
            slope = (base_disk_area(sp, R + h) - base_disk_area(sp, R - h)) / (2.0 * h)
            assert math.isclose(slope, base_circle_length(sp, R), rel_tol=1e-8)

    def test_intrinsic_radius_is_vectorized(self):
        sp = SpaceParams(-1.0, 0.0)
        R = np.array([0.5, 1.0, 2.0])
        rho = np.array([base_disk_model_radius(sp, r) for r in R])
        assert np.allclose(base_intrinsic_radius(sp, rho), R, rtol=1e-14)


class TestConnection:
    def test_metric_compatibility(self):
        # <nabla Ei Ej, Ek> + <Ej, nabla Ei Ek> = 0 since |Ej| are constant
        for sp in SPACES:
            p = _interior_point(sp, 0.3, -0.4, 0.0)
            for i in range(3):
                gamma = np.array([connection_term(sp, p, i, j) for j in range(3)])
                assert np.allclose(gamma + gamma.T, 0.0, atol=1e-12)

    def test_torsion_free(self):
        # nabla_X Y - nabla_Y X = [X, Y] for the coordinate-independent check
        # via finite differences of the frame fields themselves
        sp = SpaceParams(-1.2, 0.9)
        p = _interior_point(sp, 0.25, -0.15, 0.1)

        def field(i):
            return lambda q: FrameVector(*(1.0 * (np.arange(3) == i)))

        for i in range(3):
            for j in range(3):
                dij = covariant_derivative(sp, field(i), field(j), p).as_array()
                dji = covariant_derivative(sp, field(j), field(i), p).as_array()
                bracket = _frame_bracket(sp, p, i, j)
                assert np.allclose(dij - dji, bracket, atol=1e-8)

    def test_covariant_derivative_of_varying_field(self):
        # product rule: nabla_X (f Y) = X(f) Y + f nabla_X Y with f = x
        sp = SpaceParams(0.0, 1.0)
        p = PointE(0.3, 0.2, 0.0)
        X = lambda q: FrameVector(1.0, 0.0, 0.0)
        Y = lambda q: FrameVector(0.0, q.x, 0.0)
        got = covariant_derivative(sp, X, Y, p).as_array()
        # X(f) = E1(x) = mu = 1 for kappa = 0
        expect = np.array([0.0, 1.0, 0.0]) + p.x * connection_term(sp, p, 0, 1)
        assert np.allclose(got, expect, atol=1e-8)


def _frame_bracket(sp, p, i, j):
    """[Ei, Ej] at p in frame components, via coordinate differentiation."""
    h = 1e-6

    def frame_coord(q, k):
        return frame_vectors_coord(sp, q)[k]

    def flow(q, k, s):
        d = frame_coord(q, k)
        return PointE(q.x + s * d[0], q.y + s * d[1], q.z + s * d[2])

    # coordinate components of the bracket by central differences
    di = (frame_coord(flow(p, i, h), j) - frame_coord(flow(p, i, -h), j)) / (2 * h)
    dj = (frame_coord(flow(p, j, h), i) - frame_coord(flow(p, j, -h), i)) / (2 * h)
    return coord_to_frame(sp, p, di - dj).as_array()


class TestVolumeForm:
    def test_lambda_squared(self):
        sp = SpaceParams(-1.0, 0.7)
        p = PointE(0.5, 0.2, 1.0)
        lam = lambda_factor(sp, p)
        assert math.isclose(volume_form(sp, p), lam * lam, rel_tol=1e-15)

    def test_metric_determinant(self):
        # the Riemannian density is sqrt(det g)
        for sp in SPACES:
            p = _interior_point(sp, 0.3, -0.2, 0.4)
            det = np.linalg.det(metric_matrix(sp, p))
            assert math.isclose(volume_form(sp, p), math.sqrt(det), rel_tol=1e-10)
