"""Geodesic balls: bounding cylinders, membership, Monte Carlo volume, growth fits.

Ball volumes are estimated by rejection sampling against a bounding
cylinder (exponential-map Jacobians are avoided because of conjugate
points).  Ball centers other than the origin reduce to the origin by the
ambient isometries, so volumes are computed for origin-centered balls.
These are invariant under rotation about the z-axis, as are the volume
density and the cylinder, so a sample is drawn as its horizontal radius and
height only.  ``ball_membership`` decides membership in every space that
has an exact distance; in Nil3 each sample solves the one-dimensional
geodesic reduction of ``geodesics.nil_distance_reduced`` until it is
decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PointE, SpaceParams
from .errors import UnsupportedSpaceError
from .geodesics import (
    ball_height,
    base_disk_model_radius,
    distance,
    hyperbolic_distance,
    nil_distance_reduced,
    nil_group_translate,
    sl2_max_height_bound,
)

__all__ = [
    "BallSpec",
    "VolumeEstimate",
    "GrowthFit",
    "bounding_cylinder",
    "ball_membership",
    "in_ball",
    "mc_volume",
    "comparison_cylinder_volume",
    "sl2_volume_bracket",
    "volume_growth_fit",
]

MC_CHUNK = 1 << 16  # samples per RNG stream; fixed so results are chunk-count independent


@dataclass(frozen=True)
class BallSpec:
    """A geodesic ball B_R(center) of E(kappa, tau)."""

    sp: SpaceParams
    center: PointE
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo volume with its sampling standard error."""

    value: float
    std_error: float
    samples: int
    bounding_volume: float


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares growth fits of a volume/area sequence in the radius.

    Both the power model log v = c + e log R and the exponential model
    log v = c + r R are fitted; ``preferred`` names the model with the
    smaller residual but neither is discarded.
    """

    power_exponent: float
    power_coeff: float
    power_residual: float
    exp_rate: float
    exp_coeff: float
    exp_residual: float
    preferred: str


def bounding_cylinder(ball: BallSpec) -> tuple[float, float]:
    """(base-disk model radius, half-height) of a cylinder containing the ball.

    The base disk has intrinsic radius R, hence Euclidean model radius
    (2/sqrt(-kappa)) tanh(sqrt(-kappa) R / 2) for kappa < 0.  The height is
    sharp except for kappa < 0, tau > 0, where it is an upper bound.
    """
    sp, R = ball.sp, ball.radius
    return base_disk_model_radius(sp, R), ball_height(sp, R)


def ball_membership(sp: SpaceParams, rho, z, R: float):
    """Vectorized membership of the points at model radius rho, height z in B_R(0).

    Nil3 solves the exact one-dimensional geodesic reduction; R^3 and
    H^2 x R use d^2 = d_base^2 + z^2 < R^2.  kappa < 0, tau > 0 has no
    exact distance and raises UnsupportedSpaceError.
    """
    if sp.is_nil:
        return nil_distance_reduced(sp.tau, rho, z, radius=R)
    if sp.is_sl2:
        raise UnsupportedSpaceError(
            "exact kappa<0, tau>0 ball membership unavailable; use sl2_volume_bracket"
        )
    d_base = rho
    if sp.is_product:
        sk = math.sqrt(-sp.kappa)
        d_base = (2.0 / sk) * np.arctanh(np.minimum(0.5 * sk * rho, 1.0 - 1e-16))
    return d_base * d_base + z * z < R * R


def in_ball(ball: BallSpec, p: PointE, tol: float = 1e-10) -> bool:
    """Whether p lies in the open ball, pre-filtered by the bounding cylinder."""
    sp = ball.sp
    disk_r, height = bounding_cylinder(ball)
    if sp.is_nil:
        q = nil_group_translate(sp.tau, ball.center, p)
        rho = math.hypot(q.x, q.y)
        if rho >= disk_r + tol or abs(q.z) >= height + tol:
            return False
        return bool(ball_membership(sp, rho, q.z, ball.radius))
    if sp.is_product or sp.is_sl2:
        if (
            hyperbolic_distance(sp.kappa, ball.center.base(), p.base())
            >= ball.radius + tol
            or abs(p.z - ball.center.z) >= height + tol
        ):
            return False
    return distance(sp, ball.center, p, tol=tol) < ball.radius


# ---------------------------------------------------------------------------
# Monte Carlo volume
# ---------------------------------------------------------------------------

def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, chunk]))


def _sample_cylinder(rng, n, disk_r, height):
    """Uniform Lebesgue samples (rho, z) in the model cylinder, rho = hypot(x, y).

    The chunk's stream holds rows of radius, angle and height draws.  The
    angle row is drawn but not read, so that the stream layout, and with it
    every published volume, stays fixed.
    """
    u = rng.random((3, n))
    return disk_r * np.sqrt(u[0]), height * (2.0 * u[2] - 1.0)


def comparison_cylinder_volume(tau: float, R: float) -> float:
    """Riemannian volume of D_R x ]-tau R^2, tau R^2[ in Nil3; 2 pi tau R^4."""
    return 2.0 * math.pi * tau * R**4


def mc_volume(ball: BallSpec, n_samples: int, seed: int) -> VolumeEstimate:
    """Monte Carlo ball volume, deterministic in (ball, n_samples, seed).

    Samples are drawn uniformly in the bounding cylinder in fixed-size
    chunks with counter-based per-chunk RNG streams, so the result does not
    depend on how chunks are scheduled.  The integrand is the model volume
    density lambda^2 times the ball indicator (the density is 1 for
    kappa = 0); the standard error is the sample standard deviation of that
    integrand, which reduces to the binomial-proportion formula when the
    density is constant.  kappa < 0, tau > 0 raises UnsupportedSpaceError
    (see sl2_volume_bracket).
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    sp, R = ball.sp, ball.radius
    disk_r, height = bounding_cylinder(ball)
    lebesgue = math.pi * disk_r**2 * 2.0 * height

    total = 0.0
    total_sq = 0.0
    n_done = 0
    chunk = 0
    while n_done < n_samples:
        n = min(MC_CHUNK, n_samples - n_done)
        rng = _chunk_rng(seed, chunk)
        rho, z = _sample_cylinder(rng, n, disk_r, height)
        hit = ball_membership(sp, rho, z, R)
        if sp.is_product:  # kappa < 0, tau = 0
            lam = 1.0 / (1.0 + 0.25 * sp.kappa * rho * rho)
            vals = hit * lam**2
            total += float(np.sum(vals))
            total_sq += float(np.sum(vals * vals))
        else:  # the integrand is the ball indicator, which is its own square
            hits = int(np.count_nonzero(hit))
            total += hits
            total_sq += hits
        n_done += n
        chunk += 1

    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    value = lebesgue * mean
    std_error = lebesgue * math.sqrt(var / n_samples)
    return VolumeEstimate(value, std_error, n_samples, lebesgue * _mean_density(sp, disk_r))


def _mean_density(sp: SpaceParams, disk_r: float) -> float:
    """Mean of lambda^2 over the model cylinder (1 for kappa = 0)."""
    if sp.kappa == 0.0:
        return 1.0
    # integral of lambda(rho)^2 * 2 pi rho over the disk / (pi disk_r^2)
    a = -0.25 * sp.kappa
    return 1.0 / (1.0 - a * disk_r**2)


def sl2_volume_bracket(ball: BallSpec) -> tuple[float, float]:
    """Certified (lower, upper) volume bracket for kappa < 0, tau > 0.

    Lower: the region {d_base + |z| <= R}, contained in the ball because
    the lifted base segment plus a fiber segment is a curve of that length;
    its Riemannian volume is closed-form.  Upper: the weighted volume of
    the bounding cylinder.
    """
    sp, R = ball.sp, ball.radius
    if not sp.is_sl2:
        raise UnsupportedSpaceError("bracket is specific to kappa<0, tau>0")
    a = math.sqrt(-sp.kappa)
    lower = (4.0 * math.pi / (a * a)) * (math.sinh(a * R) / a - R)
    disk_area = (4.0 * math.pi / -sp.kappa) * math.sinh(0.5 * a * R) ** 2
    upper = disk_area * 2.0 * sl2_max_height_bound(sp, R)
    return lower, upper


# ---------------------------------------------------------------------------
# Growth fitting
# ---------------------------------------------------------------------------

def volume_growth_fit(radii, values) -> GrowthFit:
    """Fit power and exponential growth models to (radius, value) data.

    Requires at least 6 increasing radii bounded away from zero and
    strictly positive finite values.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.size < 6:
        raise ValueError("need at least 6 radii")
    if not np.all(np.diff(radii) > 0.0) or radii[0] <= 1e-9:
        raise ValueError("radii must be increasing and bounded away from 0")
    if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
        raise ValueError("values must be finite and positive")
    logv = np.log(values)
    pw, pw_res = _linfit(np.log(radii), logv)
    ex, ex_res = _linfit(radii, logv)
    preferred = "power" if pw_res <= ex_res else "exponential"
    return GrowthFit(
        power_exponent=pw[0],
        power_coeff=math.exp(pw[1]),
        power_residual=pw_res,
        exp_rate=ex[0],
        exp_coeff=math.exp(ex[1]),
        exp_residual=ex_res,
        preferred=preferred,
    )


def _linfit(x, y):
    coef, res, *_ = np.polyfit(x, y, 1, full=True)
    rms = math.sqrt(float(res[0]) / len(x)) if res.size else 0.0
    return (float(coef[0]), float(coef[1])), rms
