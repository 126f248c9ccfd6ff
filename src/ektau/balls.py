"""Geodesic balls: bounding cylinders, membership, Monte Carlo volume, growth fits.

Ball volumes are estimated by rejection sampling against a bounding
cylinder (exponential-map Jacobians are avoided because of conjugate
points).  The space is homogeneous, so every ball is the image of the ball
of the same radius at the origin: ``in_ball`` moves the point by the
isometry that takes the centre to the origin (``geodesics.to_origin``), and
volumes are computed for origin-centred balls.  These are invariant under
rotation about the z-axis, as are the volume density and the cylinder, so
a point or a sample is its horizontal radius and height only, and
``geodesics.ball_distance`` with a radius decides its membership.  This
module decides no distance itself: its only space tests are the volume
density of ``mc_volume`` and the kappa < 0, tau > 0 guard of
``sl2_volume_bracket``.

When the process may run on two or more CPUs, Monte Carlo chunks draw
their radius row on one persistent helper thread, started on first use,
while the calling thread draws the height row (the caller draws the
radius row too if the helper has not started it by then).  Each row has
its own counter-based generator, so the samples are bit-identical to a
serial draw.  A child made by ``fork()`` starts a helper of its own.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .core import PointE, SpaceParams, _mu, base_disk_area, base_disk_model_radius
from .errors import UnsupportedSpaceError
from .geodesics import ball_distance, ball_height, sl2_max_height_bound, to_origin

__all__ = [
    "BallSpec",
    "VolumeEstimate",
    "GrowthFit",
    "bounding_cylinder",
    "in_ball",
    "mc_volume",
    "comparison_cylinder_volume",
    "sl2_volume_bracket",
    "volume_growth_fit",
]

MC_CHUNK = 1 << 16  # samples per RNG stream; fixed so results are chunk-count independent


@dataclass(frozen=True)
class BallSpec:
    """A geodesic ball B_R(center) of E(kappa, tau).

    The radius is positive and finite, and the centre a finite point of the
    model (ModelDomainError outside the model disk).
    """

    sp: SpaceParams
    center: PointE
    radius: float

    def __post_init__(self):
        if not (0.0 < self.radius < math.inf):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        c = self.center
        if not all(map(math.isfinite, (c.x, c.y, c.z))):
            raise ValueError(f"center must have finite coordinates, got {c}")
        _mu(self.sp, c.x, c.y)  # ModelDomainError outside the model disk


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
    log v = c + r R are fitted, each with its rms log-residual and the
    standard error of its slope; ``preferred`` names the model with the
    smaller residual but neither is discarded.
    """

    power_exponent: float
    power_coeff: float
    power_residual: float
    power_stderr: float
    exp_rate: float
    exp_coeff: float
    exp_residual: float
    exp_stderr: float
    preferred: str


def bounding_cylinder(ball: BallSpec) -> tuple[float, float]:
    """(base-disk model radius, half-height) of a cylinder containing the ball.

    The base disk has intrinsic radius R.  The height is sharp except for
    kappa < 0, tau > 0, where it is an upper bound.
    """
    sp, R = ball.sp, ball.radius
    return base_disk_model_radius(sp, R), ball_height(sp, R)


def in_ball(ball: BallSpec, p: PointE) -> bool:
    """Whether p lies in the open ball: ``ball_distance`` with the radius, of
    p after the isometry that takes the centre to the origin (``to_origin``).

    ValueError for a non-finite p, ModelDomainError for p outside the model
    disk; kappa < 0, tau > 0 raises UnsupportedSpaceError for every p.
    """
    rho, z = to_origin(ball.sp, ball.center, p)
    return bool(ball_distance(ball.sp, rho, z, radius=ball.radius))


# ---------------------------------------------------------------------------
# Monte Carlo volume
# ---------------------------------------------------------------------------

def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, chunk]))


_row_jobs: queue.SimpleQueue | None = None  # the helper's inbox, None until first use
_row_jobs_lock = threading.Lock()


def _fill_rows(jobs: queue.SimpleQueue) -> None:
    """Helper thread: run each job, holding none of its arrays between jobs."""
    while True:
        _fill_row(*jobs.get())


def _fill_row(seed, chunk, row, claim, reply) -> None:
    """Fill row with the chunk's first draws and reply with None, or with the
    exception the fill raised.  A job whose claim the caller took first is
    skipped: the caller drew the row."""
    if not claim.acquire(blocking=False):
        return
    try:
        _chunk_rng(seed, chunk).random(out=row)
    except Exception as exc:  # raised again on the waiting caller
        reply.put(exc)
    else:
        reply.put(None)


def _helper_jobs() -> queue.SimpleQueue:
    """The helper thread's inbox; the thread is started on first use."""
    global _row_jobs
    with _row_jobs_lock:
        if _row_jobs is None:
            jobs = queue.SimpleQueue()
            threading.Thread(target=_fill_rows, args=(jobs,), name="ektau-mc-rows",
                             daemon=True).start()
            _row_jobs = jobs
        return _row_jobs


def _forget_helper() -> None:
    """A forked child has no helper thread: let it start its own, under a
    fresh lock, since another thread may have held the lock at the fork."""
    global _row_jobs, _row_jobs_lock
    _row_jobs, _row_jobs_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _cpu_count() -> int:
    """CPUs this process may run on, by its affinity mask.  A cgroup CPU
    quota is not detected: a process held to one CPU's time on a many-core
    host counts the host's CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sample_cylinder(seed, chunk, out, disk_r, height, use_helper):
    """Fill the rows (rho, z) of out with uniform Lebesgue samples in the
    model cylinder and return them.

    The chunk's Philox stream holds rows of radius, angle and height draws,
    one 64-bit word per draw, four words per counter step.  The angle row
    is not needed, so the height row is drawn from a second generator whose
    counter starts at the block holding word 2n, after discarding the words
    of that block before it.  Both rows, and with them every published
    volume, are bit-identical to a (3, n) draw.  With use_helper the
    radius row is offered to the helper thread while this thread draws the
    height row (numpy releases the GIL during a fill).  Whichever thread
    takes the job's claim first fills the row, so a helper that has not
    been scheduled by then never delays the chunk, and an exception of the
    helper's fill is raised here.  Without it (one CPU, where the two fills
    would only take turns) both run here.  The rest runs here once both
    rows are drawn.
    """
    rho, z = out
    if not use_helper:
        _chunk_rng(seed, chunk).random(out=rho)
        _height_row(seed, chunk, z)
    else:
        claim = threading.Lock()
        reply = queue.SimpleQueue()  # one per call, so a reply left by an interrupted wait is never read
        _helper_jobs().put((seed, chunk, rho, claim, reply))
        try:
            _height_row(seed, chunk, z)
        finally:
            here = claim.acquire(blocking=False)
            err = None if here else reply.get()  # the helper writes rho until it replies
        if here:
            _chunk_rng(seed, chunk).random(out=rho)
        elif err is not None:
            raise err
    np.sqrt(rho, out=rho)
    rho *= disk_r
    z *= 2.0
    z -= 1.0
    z *= height
    return rho, z


def _height_row(seed, chunk, z):
    """Fill z with the chunk's height draws, words 2n to 3n - 1 of its stream."""
    n = z.shape[0]
    bits = np.random.Philox(key=[seed, chunk], counter=(2 * n) // 4)
    bits.random_raw((2 * n) % 4)
    np.random.Generator(bits).random(out=z)


def comparison_cylinder_volume(tau: float, R: float) -> float:
    """Riemannian volume of D_R x ]-tau R^2, tau R^2[ in Nil3; 2 pi tau R^4."""
    return 2.0 * math.pi * tau * R**4


def mc_volume(ball: BallSpec, n_samples: int, seed: int) -> VolumeEstimate:
    """Monte Carlo ball volume, deterministic in (ball, n_samples, seed).

    The volume does not depend on the centre, since an isometry takes the
    ball to the one of the same radius at the origin.  Samples are drawn
    uniformly in the bounding cylinder in fixed-size chunks with
    counter-based per-chunk RNG streams, so the result does not depend on
    how chunks are scheduled, nor on which thread draws each chunk's
    radius row (``_sample_cylinder``).  The integrand is the model volume
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
    buf = np.empty((2, min(MC_CHUNK, n_samples)))
    use_helper = _cpu_count() >= 2
    while n_done < n_samples:
        n = min(MC_CHUNK, n_samples - n_done)
        rho, z = _sample_cylinder(seed, chunk, buf[:, :n], disk_r, height, use_helper)
        hit = ball_distance(sp, rho, z, radius=R)
        if sp.is_product:  # kappa < 0, tau = 0
            lam = 1.0 / _mu(sp, rho)
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
    return VolumeEstimate(value, std_error, n_samples, base_disk_area(sp, R) * 2.0 * height)


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
    upper = base_disk_area(sp, R) * 2.0 * sl2_max_height_bound(sp, R)
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
    pw, pw_res, pw_se = _linfit(np.log(radii), logv)
    ex, ex_res, ex_se = _linfit(radii, logv)
    preferred = "power" if pw_res <= ex_res else "exponential"
    return GrowthFit(
        power_exponent=pw[0],
        power_coeff=math.exp(pw[1]),
        power_residual=pw_res,
        power_stderr=pw_se,
        exp_rate=ex[0],
        exp_coeff=math.exp(ex[1]),
        exp_residual=ex_res,
        exp_stderr=ex_se,
        preferred=preferred,
    )


def _linfit(x, y):
    """(slope, intercept), rms residual and slope standard error of a line fit."""
    coef, cov = np.polyfit(x, y, 1, cov=True)
    rms = math.sqrt(float(np.mean((y - np.polyval(coef, x)) ** 2)))
    return (float(coef[0]), float(coef[1])), rms, math.sqrt(max(float(cov[0, 0]), 0.0))
