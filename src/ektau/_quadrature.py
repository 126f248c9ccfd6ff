"""Tensor-product quadrature with doubling refinement.

Integrands are vectorized callables f(x, y) over model coordinates.  Disks
and annuli use Gauss-Legendre in the radius and a uniform (spectrally
accurate, periodic) rule in the angle; the refinement loop doubles the
resolution, from BASE_N radial nodes, until two consecutive levels agree to
REL_TOL, relative, and reports the last inter-level difference as the error
estimate; a level that reads inf or nan stops it with ConvergenceError.
A level evaluates trigonometric functions once per angle and forms the
nodes' coordinates as radius-by-angle products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = ["QuadratureResult", "integrate_annulus", "leggauss"]

MAX_DOUBLINGS = 8
BASE_N = 32      # Gauss-Legendre radii of the first level; twice as many angles
REL_TOL = 1e-6   # relative agreement of two consecutive levels that ends the refinement
_CHUNK_POINTS = 1 << 22  # cap on grid points evaluated at once


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral plus the two-level refinement error estimate."""

    value: float
    error: float
    levels: int

    def __float__(self):
        return self.value


@functools.lru_cache(maxsize=64)
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights of order n, cached by order.

    numpy solves an eigenproblem for them, at a cost growing about as n^3,
    while callers ask for the same few orders over and over.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _annulus_level(f, r0, r1, n_r, n_theta):
    """One tensor-product level: n_r Gauss-Legendre radii, n_theta angles.

    f receives (angles, radii) grids, in chunks of at most _CHUNK_POINTS
    points; cos and sin are taken once per angle, not once per node.
    """
    nodes, weights = leggauss(n_r)
    s = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    if r0 > 0.0:
        # r = r0 + (r1 - r0) s^2 absorbs inverse-square-root edge
        # singularities at the inner radius (e.g. catenoid-type densities)
        h = r1 - r0
        r = r0 + h * s * s
        wr = ws * 2.0 * h * s
    else:
        r = r1 * s
        wr = ws * r1
    # midpoint angles: no node lies on a ray at a multiple of 2 pi / n_theta,
    # where a domain cut such as a quadrant's edge would put it
    wt = 2.0 * math.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * wt
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    total = 0.0
    step = max(1, _CHUNK_POINTS // n_r)
    for i in range(0, n_theta, step):
        x, y = r * cos_t[i : i + step, None], r * sin_t[i : i + step, None]
        vals = f(x, y) * r
        total += float(np.sum(vals * wr[None, :]))
    return total * wt


def integrate_annulus(f, r0: float, r1: float) -> QuadratureResult:
    """Integral of f(x, y) dx dy over the annulus r0 <= r <= r1."""
    if not (0.0 <= r0 < r1):
        raise ValueError("need 0 <= r0 < r1")
    n_r, n_theta = BASE_N, 2 * BASE_N
    prev = None
    for level in range(1, MAX_DOUBLINGS + 2):
        cur = _annulus_level(f, r0, r1, n_r, n_theta)
        if not math.isfinite(cur):
            # inf or nan cannot pass the level test, and finer levels cost 4x each
            raise ConvergenceError(f"quadrature level {level} is not finite", best=cur)
        if prev is not None:
            err = abs(cur - prev)
            if err <= REL_TOL * max(abs(cur), 1e-300):
                return QuadratureResult(cur, err, level)
        prev = cur
        n_r *= 2
        n_theta *= 2
    raise ConvergenceError(
        f"quadrature did not reach rel_tol={REL_TOL}", best=prev
    )
