"""Classical breathing dynamics of the box size about the strained minimum.

A single coordinate eta (wall displacement from the strained equilibrium,
units d) carries the size change.  The particle is treated adiabatically:
at every instant it contributes exactly its ground-state energy for the
instantaneous size, 1/(ell + eta)^2, while the spring stores
(K/2)(ell - 1 + eta)^2 and the wall inertia mu supplies the kinetic term.
Small oscillations then run at omega = sqrt(K'/mu) with the stiffened
force constant K', and the particle and spring energies swing in
antiphase: their linear responses to eta are equal and opposite because
the linear term of the total energy vanishes at equilibrium.

Integration is velocity Verlet (symplectic, time reversible), in a plain
Python kernel over preallocated output arrays.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    AnalysisError,
    DomainError,
    NumericalError,
    ValidationError,
    ZpboxError,
)
from .equilibrium import StrainSolution
from .model import check_count, check_finite, check_positive

#: Time steps per small-oscillation period of the default dt.
STEPS_PER_PERIOD = 1000


class Trajectory(NamedTuple):
    """Sampled time series of a breathing-mode integration (reduced units)."""

    times: np.ndarray
    eta: np.ndarray
    velocity: np.ndarray
    particle_energy: np.ndarray  # 1/(ell + eta)^2
    strain_energy: np.ndarray  # (K/2)(strain + eta)^2
    kinetic_energy: np.ndarray  # (mu/2) v^2
    total_energy: np.ndarray


def restoring_force(y: float, sol: StrainSolution) -> float:
    """Force on the breathing coordinate at displacement y from equilibrium.

    -dE/d(eta) = 2/(ell + y)^3 - K(ell - 1 + y): the zero-point push minus
    the spring pull.  Vanishes at y = 0 and behaves as -K' y nearby.  The cube
    is a product of three sizes, not libm's pow, and past size 5.6e102 it is
    inf, so the push is 0, far below an ulp of the pull.  A non-finite y is
    a ValidationError; where the pull itself overflows, NumericalError.
    """
    y = check_finite(y, "displacement y")
    size = sol.ell + y
    if not size > 0.0:
        raise DomainError(f"box collapse: ell + y = {size} must stay positive")
    pull = sol.K * (sol.strain + y)
    if math.isinf(pull):
        raise NumericalError(f"the spring pull K (strain + y) overflows at y = {y!r}")
    return 2.0 / (size * size * size) - pull


def _verlet_kernel(ell, strain, K, mu, y0, v0, dt, n_steps, stride, eta_out, vel_out):
    """Kick-drift-kick Verlet; records every stride-th step plus the last.

    The spring force is K (strain + y), from the solved strain: at large K
    the strain is far below the float resolution of ell - 1.  The push
    2/u**3, u = ell + y, takes the cube as u * u * u, the same bits on every
    host, where libm's pow differs between its FMA and plain variants.

    Returns (number of samples written, collapse step index or -1).
    """
    y = y0
    v = v0
    u = ell + y
    a = (2.0 / (u * u * u) - K * (strain + y)) / mu
    eta_out[0] = y
    vel_out[0] = v
    k = 1
    for i in range(1, n_steps + 1):
        v_half = v + 0.5 * dt * a
        y = y + dt * v_half
        u = ell + y
        if u <= 0.0:
            return k, i
        a = (2.0 / (u * u * u) - K * (strain + y)) / mu
        v = v_half + 0.5 * dt * a
        if i % stride == 0 or i == n_steps:
            eta_out[k] = y
            vel_out[k] = v
            k += 1
    return k, -1


def time_step(
    sol: StrainSolution, mu: float, steps_per_period=STEPS_PER_PERIOD, name=None
) -> tuple[float, float]:
    """(omega, dt): omega = sqrt(K'/mu) and dt = 2 pi/(steps_per_period omega).

    ValidationError, led by ``name`` (default: mu and steps_per_period), where
    dt is not positive and finite, or omega*dt >= 2 (see ``integrate``).  The
    rate float(steps_per_period) omega, a Python float whatever the argument's
    type, is checked before it divides, so 0 never does.
    """
    mu = check_positive(mu, "wall mass ratio mu")
    name = name or f"mu {mu!r} with steps_per_period {steps_per_period!r}"
    omega = math.sqrt(sol.effective_stiffness / mu)
    try:
        rate = float(steps_per_period) * omega
    except OverflowError:  # an int past the float range: dt would be 0
        rate = math.inf
    dt = 2.0 * math.pi / rate if rate > 0.0 else math.inf
    if not 0.0 < dt < math.inf:
        raise ValidationError(
            f"{name} gives no positive, finite time step "
            f"2*pi/(steps_per_period*sqrt(K'/mu))"
        )
    return omega, _stable(omega, dt, name)


def verlet_frequency(omega: float, dt: float) -> float:
    """(2/dt) asin(omega dt/2): the angular frequency at which velocity Verlet
    with step dt turns a linear oscillation of frequency omega (Hairer,
    Lubich & Wanner 2006); above omega.  ValidationError where omega or dt is
    not positive and finite, or omega dt >= 2, as in ``time_step``;
    NumericalError where the frequency lies past the float range."""
    omega = check_positive(omega, "angular frequency omega")
    dt = check_positive(dt, "time step dt")
    _stable(omega, dt, f"time step dt = {dt!r}")
    x = omega * dt / 2.0
    if 2.0 / dt == math.inf:  # a subnormal dt: omega asin(x)/x, and omega at x = 0
        frequency = omega * (math.asin(x) / x) if x else omega
    else:
        frequency = 2.0 / dt * math.asin(x)
    if math.isinf(frequency):
        raise NumericalError(
            f"the Verlet frequency overflows at omega = {omega!r}, dt = {dt!r}"
        )
    return frequency


def _stable(omega: float, dt: float, name: str) -> float:
    """dt, or ValidationError led by name where omega*dt >= 2."""
    if omega * dt < 2.0:
        return dt
    raise ValidationError(
        f"{name} gives omega*dt = {omega * dt!r} >= 2, past velocity "
        f"Verlet's stability limit (omega = sqrt(K'/mu) = {omega!r})"
    )


def integrate(
    sol: StrainSolution,
    mu: float,
    y0: float,
    v0: float = 0.0,
    dt: float | None = None,
    n_steps: int = 10 * STEPS_PER_PERIOD,
    record_every: int = 1,
) -> Trajectory:
    """Integrate the breathing coordinate from (y0, v0) for n_steps of dt.

    Args:
        sol: strained equilibrium the motion oscillates about.
        mu: wall inertia in units of the particle mass.
        y0: initial displacement; must satisfy |y0| < sol.strain, the
            window in which the equilibrium expansion is meaningful.
        v0: initial velocity (d per reduced time).
        dt: time step; defaults to ``time_step(sol, mu)``.  Velocity Verlet
            is stable only for omega*dt < 2, omega = sqrt(K'/mu) (Hairer,
            Lubich & Wanner 2006), which an explicit dt must also meet.
        n_steps: number of Verlet steps.
        record_every: stride between stored samples (the final state is
            always stored); lets multi-million-step runs stay in memory.

    Raises:
        ValidationError: if mu or dt is not positive and finite, omega*dt >= 2,
            y0 or v0 is not finite, or n_steps or record_every is not an
            integer >= 1.
        NumericalError: if the box collapses mid-run (reports the step) or
            an energy sample overflows the float range.
        ZpboxError: if the sample arrays cannot be allocated.
    """
    mu = check_positive(mu, "wall mass ratio mu")
    y0 = check_finite(y0, "initial displacement y0")
    v0 = check_finite(v0, "initial velocity v0")
    if not abs(y0) < sol.strain:
        raise DomainError(
            f"|y0| = {abs(y0)!r} must stay below the strain {sol.strain!r}"
        )
    if dt is None:
        _, dt = time_step(sol, mu)
    else:
        dt = check_positive(dt, "time step dt")
        _stable(math.sqrt(sol.effective_stiffness / mu), dt, f"time step dt = {dt!r}")
    n_steps = check_count(n_steps, "n_steps")
    # any stride past n_steps samples steps 0 and n_steps, as n_steps does; the
    # clamp keeps np.arange, which sizes in float, from dropping a sample
    record_every = min(check_count(record_every, "record_every"), n_steps)

    try:
        # sample k is taken after step k * record_every, the last after n_steps
        steps = np.arange(0, n_steps + record_every, record_every)
        steps[-1] = n_steps
        eta = np.empty(len(steps))
        vel = np.empty(len(steps))
    except (MemoryError, ValueError):  # ValueError: beyond numpy's size limit
        raise ZpboxError(
            f"cannot allocate a trajectory of at least "
            f"{n_steps // record_every + 1} samples"
        ) from None
    written, collapse_step = _verlet_kernel(
        sol.ell, sol.strain, sol.K, mu, y0, v0, dt, n_steps, record_every, eta, vel
    )
    if collapse_step >= 0:
        raise NumericalError(f"box collapse at step {collapse_step}")
    assert written == len(steps)

    sizes = sol.ell + eta
    with np.errstate(over="ignore"):  # each term is >= 0, so inf shows in total
        particle = 1.0 / (sizes * sizes)
        strain = 0.5 * sol.K * (sol.strain + eta) ** 2
        kinetic = 0.5 * mu * vel * vel
        total = particle + strain + kinetic
    if not np.isfinite(total).all():
        raise NumericalError(f"an energy overflows the float range from v0 = {v0!r}")
    return Trajectory(
        times=steps * dt,
        eta=eta,
        velocity=vel,
        particle_energy=particle,
        strain_energy=strain,
        kinetic_energy=kinetic,
        total_energy=total,
    )


def measured_frequency(traj: Trajectory) -> float:
    """Angular frequency pi 2m / (c[2m] - c[0]) from the interpolated zero
    crossings c of eta minus its mean, at least four, over the largest even
    number 2m of half periods: the cubic term of the potential makes
    consecutive half periods alternate long and short.
    """
    s = traj.eta - traj.eta.mean()
    t = traj.times
    idx = np.nonzero(s[:-1] * s[1:] < 0.0)[0]
    if len(idx) < 4:
        raise AnalysisError(
            f"need at least 4 zero crossings to estimate a frequency, "
            f"found {len(idx)}"
        )
    crossings = t[idx] - s[idx] * (t[idx + 1] - t[idx]) / (s[idx + 1] - s[idx])
    two_m = (len(crossings) - 1) // 2 * 2
    return math.pi * two_m / float(crossings[two_m] - crossings[0])


def energy_exchange_stats(traj: Trajectory) -> tuple[float, float]:
    """Quantify the particle <-> strain energy exchange along a trajectory.

    Returns ``(correlation, max_antisymmetry_defect)``: the Pearson
    correlation between the particle- and strain-energy deviations (close
    to -1 for small oscillations) and the largest residual of their sum,
    normalized by the largest particle-energy deviation (the linear
    responses cancel, so this shrinks with amplitude).
    """
    if len(traj.times) < 100:
        raise AnalysisError(
            f"need at least 100 samples, got {len(traj.times)}"
        )
    dp = traj.particle_energy - traj.particle_energy.mean()
    ds = traj.strain_energy - traj.strain_energy.mean()
    norm_p = float(np.abs(dp).max())
    norm_s = float(np.abs(ds).max())
    # a resting trajectory is constant up to the rounding of the mean
    eps = np.finfo(float).eps
    if norm_p <= 8 * eps * abs(float(traj.particle_energy.mean())) or norm_s <= 8 * eps * abs(
        float(traj.strain_energy.mean())
    ):
        raise AnalysisError("energy series are constant; exchange is undefined")
    correlation = float(np.dot(dp, ds) / math.sqrt(np.dot(dp, dp) * np.dot(ds, ds)))
    defect = float(np.abs(dp + ds).max() / norm_p)
    return correlation, defect
