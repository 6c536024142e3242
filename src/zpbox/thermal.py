"""Finite-temperature behavior: occupancies, mean wall force, ell(T).

Temperatures are measured in units of T0 = eps0/k_B.  Level occupancies
follow the Boltzmann weights exp(-(n^2 - 1) eps0'/t) with eps0' = 1/ell^2
the ground-state energy of the box at its current size, so the thermal
average and the strain are solved self-consistently: hotter particles
push harder, the box yields further, the level spacing shrinks.

The size ell(t) is the root of K (ell - 1) = <F>(ell, t), found by the
same bracketed Newton solve in the strain s = ell - 1 as the zero-
temperature equilibrium, which is also the lower end of the bracket.  The
expansion coefficient follows from implicit differentiation of that
balance, with every term taken from the Boltzmann weights of the root.

Below t ~ 1 the ground state dominates and the strain saturates at its
zero-point value; the expansion coefficient therefore vanishes at low t
and turns positive around t ~ 1.  Nothing in this model contracts the
box, so the coefficient is never negative here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, ZpboxError
from .equilibrium import StrainSolution, _bracketed_newton, solve_equilibrium
from .spectrum import MAX_LEVEL, _check_size

_TAIL_EXPONENT = 37.0  # discarded occupancy tail < e^-37 ~ 1e-16
_MIN_LEVELS = 4


@dataclass(frozen=True)
class ThermalPoint:
    """Self-consistent state of the box at one temperature."""

    t: float  # temperature, units T0
    ell_t: float  # self-consistent relative box size
    occupancies: tuple[float, ...]  # p_1 .. p_{n_max} at (t, ell_t)
    mean_force: float  # occupancy-weighted wall force at ell_t
    alpha: float  # (1/ell) d ell/dt; NaN where t - max(1e-3, t/100) <= 0
    n_max: int


def _check_temperature(t: float) -> float:
    t = float(t)
    if math.isnan(t) or t < 0.0:
        raise ValidationError(f"temperature t must be >= 0, got {t!r}")
    return t


def _n_levels(t: float, t_scaled: float) -> int:
    if t_scaled == 0.0:
        return _MIN_LEVELS
    x = 1.0 / t_scaled  # level-spacing unit eps0'/t; inf if t_scaled is subnormal
    if x == 0.0:
        raise ValidationError(f"temperature t = {t!r} is too large to truncate")
    n = int(math.sqrt(_TAIL_EXPONENT / x + 1.0)) + 1
    n = max(n, _MIN_LEVELS)
    if n > MAX_LEVEL:
        raise ValidationError(
            f"temperature t = {t!r} needs more than {MAX_LEVEL} levels"
        )
    return n


def occupancies(t: float, ell: float = 1.0) -> np.ndarray:
    """Boltzmann occupation probabilities p_1..p_{n_max} at temperature t.

    Truncated at the first level whose weight drops below e^-37 (at least
    four levels are always reported).  At t = 0 only the ground state is
    occupied.
    """
    t = _check_temperature(t)
    ell = _check_size(ell)
    # t over the level-spacing unit eps0' = 1/ell^2; where the first excited
    # weight exp(-3/t_scaled) underflows to 0, every other one does as well
    t_scaled = ell * ell * t
    n_max = _n_levels(t, t_scaled)
    if t_scaled == 0.0 or math.exp(-3.0 / t_scaled) == 0.0:
        p = np.zeros(n_max)
        p[0] = 1.0
        return p
    n = np.arange(1, n_max + 1, dtype=float)
    exponents = -(n * n - 1.0) / t_scaled
    exponents[0] = 0.0
    weights = np.exp(exponents)
    return weights / weights.sum()


def _level_forces(n_max: int, ell: float) -> np.ndarray:
    n = np.arange(1, n_max + 1, dtype=float)
    # per-level forces mirror wall_force's arithmetic exactly, so the t = 0
    # reduction to the zero-point force is bitwise
    return 2.0 * ((n * n) / (ell * ell)) / ell


def mean_wall_force(t: float, ell: float = 1.0) -> float:
    """Occupancy-averaged outward wall force at temperature t.

    At t = 0 this is exactly the zero-point force wall_force(1, ell);
    thermal excitation only ever adds to it.
    """
    p = occupancies(t, ell)
    return float((p * _level_forces(len(p), ell)).sum())


@dataclass(frozen=True)
class _State:
    """Boltzmann weights and wall-force moments at one (t, ell)."""

    t: float
    ell: float
    p: np.ndarray
    mean_force: float
    force_variance: float  # var(F_n) over the occupancies

    @property
    def dforce_dell(self) -> float:
        """d<F>/d ell = -3 <F>/ell + var(F_n)/t (t > 0)."""
        return self.force_variance / self.t - 3.0 * self.mean_force / self.ell


def _state(t: float, ell: float) -> _State:
    p = occupancies(t, ell)
    forces = _level_forces(len(p), ell)
    mean = float((p * forces).sum())
    dev = forces - mean
    return _State(t, ell, p, mean, float((p * dev * dev).sum()))


def _solve_ell(K: float, t: float, seed: StrainSolution) -> _State:
    """Root of G(s) = K s - <F>(1 + s, t) in the strain s = ell - 1.

    <F> falls as ell grows, so G increases.  The zero-temperature strain
    s0 has G(s0) <= 0 because heat only adds force, and G(<F>(1 + s0)/K)
    >= 0, which closes the bracket.  The Newton step
    s <- (<F> - s d<F>/d ell) / (K - d<F>/d ell) is a weighted mean of s
    and <F>/K, so it needs no subtraction and stays inside the bracket.
    ``seed`` is the zero-temperature solution at K.
    """
    last = _state(t, seed.ell)
    if t == 0.0 or K * seed.strain >= last.mean_force:
        return last  # heat adds no force at float resolution

    def newton(s: float) -> tuple[float, float]:
        nonlocal last
        if 1.0 + s != last.ell:
            last = _state(t, 1.0 + s)
        slope = last.dforce_dell
        return K * s - last.mean_force, (last.mean_force - s * slope) / (K - slope)

    hi = last.mean_force / K
    s = _bracketed_newton(newton, seed.strain, hi, seed.strain, scale=1.0)
    if 1.0 + s != last.ell:
        last = _state(t, 1.0 + s)
    return last


def _alpha(K: float, state: _State) -> float:
    """(1/ell) d ell/dt by implicit differentiation of K (ell - 1) = <F>.

    alpha = (d<F>/dt) / [ell (K - d<F>/d ell)] with d<F>/dt =
    cov(F_n, E_n)/t^2.  E_n = ell F_n / 2 turns the covariance into
    (ell/2) var(F_n), and the factor ell cancels.
    """
    t = state.t
    return 0.5 * state.force_variance / (t * t * (K - state.dforce_dell))


def equilibrium_size_at_t(K: float, t: float) -> ThermalPoint:
    """Self-consistent box size and occupancies at temperature t.

    Solves K (ell - 1) = <F>(ell, t) by a bracketed Newton solve in the
    strain; at t = 0 this reduces exactly to the zero-temperature
    equilibrium.  The expansion coefficient comes from implicit
    differentiation with the same Boltzmann weights, and is NaN where the
    finite-difference cross-check with the default step would cross t = 0.
    """
    return _point(K, _check_temperature(t), solve_equilibrium(K))


def _point(K: float, t: float, seed: StrainSolution) -> ThermalPoint:
    """ThermalPoint at a checked t, from the zero-temperature solution at K."""
    state = _solve_ell(K, t, seed)
    alpha = _alpha(K, state) if t - _default_step(t) > 0.0 else math.nan
    return ThermalPoint(
        t=t,
        ell_t=state.ell,
        occupancies=tuple(float(v) for v in state.p),
        mean_force=state.mean_force,
        alpha=alpha,
        n_max=len(state.p),
    )


def _default_step(t: float) -> float:
    return max(1e-3, t / 100.0)


def expansion_coefficient(K: float, t: float, step: float | None = None) -> float:
    """Relative expansion rate (1/ell) d ell/dt by centered finite difference.

    A cross-check on the implicit ``alpha`` of :func:`equilibrium_size_at_t`:
    three solves at t - step, t and t + step from one zero-temperature solution.
    """
    t = _check_temperature(t)
    if step is None:
        step = _default_step(t)
    step = float(step)
    if not math.isfinite(step) or step <= 0.0:
        raise ValidationError(f"step must be positive and finite, got {step!r}")
    if not t - step > 0.0:
        raise ValidationError(
            f"need t - step > 0 for a centered difference (t={t}, step={step})"
        )
    seed = solve_equilibrium(K)
    ell_plus = _solve_ell(K, t + step, seed).ell
    ell_minus = _solve_ell(K, t - step, seed).ell
    ell_mid = _solve_ell(K, t, seed).ell
    return (ell_plus - ell_minus) / (2.0 * step * ell_mid)


def thermal_sweep(K: float, t_grid) -> list[ThermalPoint]:
    """Evaluate the self-consistent state over an increasing temperature grid."""
    grid = [float(t) for t in t_grid]
    if not grid:
        raise ValidationError("temperature grid must be non-empty")
    for t in grid:
        if math.isnan(t) or math.isinf(t) or t < 0.0:
            raise ValidationError(f"grid temperatures must be finite and >= 0, got {t!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("temperature grid must be strictly increasing")
    seed = solve_equilibrium(K)  # the same at every t; validates K
    points = []
    for t in grid:
        try:
            points.append(_point(K, t, seed))
        except ZpboxError as exc:
            raise NumericalError(f"thermal sweep failed at t={t}: {exc}") from exc
    return points
