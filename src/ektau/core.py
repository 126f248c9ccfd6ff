"""Coordinate model of the homogeneous 3-manifolds E(kappa, tau), kappa <= 0.

The model is the set {(x, y, z) : 1 + (kappa/4)(x^2 + y^2) > 0} carrying the
unique Riemannian metric for which

    E1 = mu*dx_vec - tau*y*dz_vec,   E2 = mu*dy_vec + tau*x*dz_vec,   E3 = dz_vec

is an orthonormal frame, where mu = 1/lambda = 1 + (kappa/4)(x^2 + y^2).
The projection (x, y, z) -> (x, y) is a Riemannian submersion onto the
constant-curvature surface M^2(kappa), and E3 is a unit Killing field whose
integral curves are the fibers.

This module alone knows the base surface: mu (``_mu``, which checks the
model domain) and the model radius, its inverse, circle length and area of
the base disk of radius R, each split once into kappa = 0 and kappa < 0.

All functions here are pure; the value types are frozen dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelDomainError

__all__ = [
    "SpaceParams",
    "PointE",
    "BasePoint",
    "FrameVector",
    "lambda_factor",
    "base_disk_model_radius",
    "base_intrinsic_radius",
    "base_circle_length",
    "base_disk_area",
    "coord_to_frame",
    "frame_to_coord",
    "metric_matrix",
    "frame_vectors_coord",
    "connection_term",
    "covariant_derivative",
    "volume_form",
]

FD_STEP = 1e-5  # central-difference step for field derivatives


@dataclass(frozen=True)
class SpaceParams:
    """The pair (kappa, tau) selecting the ambient space.

    kappa <= 0 is the base curvature, tau >= 0 the bundle curvature; both
    are finite.
    """

    kappa: float
    tau: float

    def __post_init__(self):
        if not (-math.inf < self.kappa <= 0.0):
            raise ValueError(f"kappa must be finite and <= 0, got {self.kappa}")
        if not (0.0 <= self.tau < math.inf):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")

    @property
    def is_euclidean(self) -> bool:
        return self.kappa == 0.0 and self.tau == 0.0

    @property
    def is_nil(self) -> bool:
        return self.kappa == 0.0 and self.tau > 0.0

    @property
    def is_product(self) -> bool:
        return self.kappa < 0.0 and self.tau == 0.0

    @property
    def is_sl2(self) -> bool:
        return self.kappa < 0.0 and self.tau > 0.0

    @property
    def model_radius(self) -> float:
        """Euclidean radius of the model disk (inf for kappa = 0)."""
        if self.kappa == 0.0:
            return math.inf
        return 2.0 / math.sqrt(-self.kappa)


@dataclass(frozen=True)
class PointE:
    """A point of E(kappa, tau) in model coordinates."""

    x: float
    y: float
    z: float

    def base(self) -> "BasePoint":
        return BasePoint(self.x, self.y)


@dataclass(frozen=True)
class BasePoint:
    """A point of the base surface M^2(kappa) in model coordinates."""

    x: float
    y: float


@dataclass(frozen=True)
class FrameVector:
    """A tangent vector by its coefficients in the orthonormal frame."""

    a1: float
    a2: float
    a3: float

    def norm(self) -> float:
        return math.sqrt(self.a1**2 + self.a2**2 + self.a3**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3])


def _mu(sp: SpaceParams, x, y=0.0):
    """mu = 1/lambda at the points (x, y), scalars or arrays; _mu(sp, r) at radius r.

    ModelDomainError if mu <= 0 anywhere.  A scalar costs one float
    comparison, and kappa = 0 (mu = 1) is not checked.
    """
    mu = 1.0 + 0.25 * sp.kappa * (x * x + y * y)
    if sp.kappa < 0.0 and (mu <= 0.0 if isinstance(mu, float) else np.any(mu <= 0.0)):
        raise ModelDomainError(f"point outside the model disk of kappa={sp.kappa}")
    return mu


def lambda_factor(sp: SpaceParams, p) -> float:
    """Conformal factor lambda = (1 + (kappa/4)(x^2+y^2))^(-1) at p.

    p may be a BasePoint or a PointE (only x, y are used).
    """
    return 1.0 / _mu(sp, p.x, p.y)


def base_disk_model_radius(sp: SpaceParams, R: float) -> float:
    """Model (Euclidean) radius of the base disk of intrinsic radius R."""
    if sp.kappa == 0.0:
        return R
    return sp.model_radius * math.tanh(0.5 * math.sqrt(-sp.kappa) * R)


def base_intrinsic_radius(sp: SpaceParams, rho):
    """Vectorized inverse of base_disk_model_radius (the rim reads as 1 ulp inside)."""
    if sp.kappa == 0.0:
        return rho
    sk = math.sqrt(-sp.kappa)
    return (2.0 / sk) * np.arctanh(np.minimum(0.5 * sk * rho, 1.0 - 1e-16))


def base_circle_length(sp: SpaceParams, R: float) -> float:
    """Length of the base circle of intrinsic radius R in M^2(kappa)."""
    if sp.kappa == 0.0:
        return 2.0 * math.pi * R
    sk = math.sqrt(-sp.kappa)
    return (2.0 * math.pi / sk) * math.sinh(sk * R)


def base_disk_area(sp: SpaceParams, R: float) -> float:
    """Area of the base disk of intrinsic radius R in M^2(kappa)."""
    if sp.kappa == 0.0:
        return math.pi * R**2
    return (4.0 * math.pi / -sp.kappa) * math.sinh(0.5 * math.sqrt(-sp.kappa) * R) ** 2


def coord_to_frame(sp: SpaceParams, p: PointE, v) -> FrameVector:
    """Convert a coordinate vector (x', y', z') at p to frame coefficients."""
    xp, yp, zp = v
    mu = _mu(sp, p.x, p.y)
    a1 = xp / mu
    a2 = yp / mu
    a3 = zp + sp.tau * (p.y * xp - p.x * yp) / mu
    return FrameVector(a1, a2, a3)


def frame_to_coord(sp: SpaceParams, p: PointE, fv: FrameVector) -> np.ndarray:
    """Convert frame coefficients at p back to a coordinate vector."""
    mu = _mu(sp, p.x, p.y)
    xp = fv.a1 * mu
    yp = fv.a2 * mu
    zp = fv.a3 - sp.tau * p.y * fv.a1 + sp.tau * p.x * fv.a2
    return np.array([xp, yp, zp])


def frame_vectors_coord(sp: SpaceParams, p: PointE) -> np.ndarray:
    """Coordinate components of (E1, E2, E3) at p, one frame vector per row."""
    mu = _mu(sp, p.x, p.y)
    return np.array(
        [
            [mu, 0.0, -sp.tau * p.y],
            [0.0, mu, sp.tau * p.x],
            [0.0, 0.0, 1.0],
        ]
    )


def metric_matrix(sp: SpaceParams, p: PointE) -> np.ndarray:
    """Coordinate matrix of the metric at p.

    Built from the dual coframe w1 = lam*dx, w2 = lam*dy,
    w3 = dz + tau*lam*(y*dx - x*dy).
    """
    lam = lambda_factor(sp, p)
    w1 = np.array([lam, 0.0, 0.0])
    w2 = np.array([0.0, lam, 0.0])
    w3 = np.array([sp.tau * lam * p.y, -sp.tau * lam * p.x, 1.0])
    return np.outer(w1, w1) + np.outer(w2, w2) + np.outer(w3, w3)


def connection_term(sp: SpaceParams, p: PointE, i: int, j: int) -> np.ndarray:
    """Frame coefficients of nabla_{E_i} E_j at p (i, j in {0, 1, 2}).

    The kappa-terms of nabla_{E1}E1, nabla_{E1}E2, nabla_{E2}E1 and
    nabla_{E2}E2 carry the model coordinates y resp. x of p; the remaining
    entries are constant multiples of tau.
    """
    k2 = 0.5 * sp.kappa
    t = sp.tau
    x, y = p.x, p.y
    table = {
        (0, 0): (0.0, k2 * y, 0.0),
        (0, 1): (-k2 * y, 0.0, t),
        (0, 2): (0.0, -t, 0.0),
        (1, 0): (0.0, -k2 * x, -t),
        (1, 1): (k2 * x, 0.0, 0.0),
        (1, 2): (t, 0.0, 0.0),
        (2, 0): (0.0, -t, 0.0),
        (2, 1): (t, 0.0, 0.0),
        (2, 2): (0.0, 0.0, 0.0),
    }
    return np.array(table[(i, j)])


def covariant_derivative(sp: SpaceParams, X, Y, p: PointE) -> FrameVector:
    """Levi-Civita derivative nabla_X Y at p for frame-coefficient fields.

    X and Y are callables PointE -> FrameVector.  The derivative of Y's
    coefficients along X is taken by central finite differences with the
    coordinate step FD_STEP (analytic fields can be pre-differentiated by the
    caller by baking the derivative into a custom Y).
    """
    xv = X(p).as_array()
    yv = Y(p).as_array()
    direction = frame_to_coord(sp, p, FrameVector(*xv))
    # derivative of Y's frame coefficients along the coordinate flow of X
    h = FD_STEP
    pp = PointE(p.x + h * direction[0], p.y + h * direction[1], p.z + h * direction[2])
    pm = PointE(p.x - h * direction[0], p.y - h * direction[1], p.z - h * direction[2])
    dy = (Y(pp).as_array() - Y(pm).as_array()) / (2.0 * h)
    out = dy.copy()
    for i in range(3):
        for j in range(3):
            out += xv[i] * yv[j] * connection_term(sp, p, i, j)
    return FrameVector(*out)


def volume_form(sp: SpaceParams, p: PointE) -> float:
    """Density of the Riemannian volume against dx dy dz, equal to lambda^2."""
    return lambda_factor(sp, p) ** 2
