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
A temperature grid is solved as levels x points arrays in bounded blocks,
one temperature as one point; no point depends on the others, and level
sums pair adjacent levels (other orders differ by a few 1e-15 relative).

Below t ~ 1 the ground state dominates and the strain saturates at its
zero-point value; the expansion coefficient therefore vanishes at low t
and turns positive around t ~ 1.  Nothing in this model contracts the
box, so the coefficient is never negative here.
"""

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .equilibrium import StrainSolution, _bracketed_newton, check_grid, solve_equilibrium
from .spectrum import MAX_LEVEL, check_size, wall_force

_TAIL_EXPONENT = 37.0  # discarded occupancy tail < e^-37 ~ 1e-16
_MIN_LEVELS = 4
_BLOCK_CELLS = 1 << 14  # level x point cells per block: memory not set by the grid


class ThermalPoint(NamedTuple):
    """Self-consistent state of the box at one temperature."""

    t: float  # temperature, units T0
    ell_t: float  # self-consistent relative box size
    occupancies: tuple[float, ...]  # p_1 .. p_{n_max} at (t, ell_t)
    mean_force: float  # occupancy-weighted wall force at ell_t
    alpha: float  # (1/ell) d ell/dt; NaN for t <= 1e-3
    n_max: int


ThermalBlock = namedtuple("ThermalBlock", "t ell p n_max mean_force alpha")


def _states(t, ell):
    """Boltzmann weights and wall-force moments at the points (t[j], ell[j]).

    Returns (w, z, n_max, <F>, var(F_n)) with occupancies w/z, w as levels x
    points: n_max levels, up to the first weight below e^-37 and at least
    four, then zero rows.  n_max > MAX_LEVEL (inf where t ell^2 overflows)
    flags a point that cannot be truncated; its w is cut short.  F_n = n^2 F_1
    gives <F> = F_1 (1 + <m>) and var(F_n) = F_1^2 (<m^2> - <m>^2) for
    m = n^2 - 1, 0 on the ground state: <m>^2 stays below 0.35 <m^2>.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_scaled = ell * ell * t  # t over the level-spacing unit eps0' = 1/ell^2
        # 1/t_scaled is inf at t = 0, which keeps four levels
        n_max = np.floor(np.sqrt(_TAIL_EXPONENT / (1.0 / t_scaled) + 1.0)) + 1.0
        n_max = np.maximum(n_max, _MIN_LEVELS)
        n = np.arange(1.0, n_max[n_max <= MAX_LEVEL].max(initial=_MIN_LEVELS) + 1.0)
        m = (n * n - 1.0)[:, None]
        sums = np.empty((len(m), 3, len(t)), order="F")  # w, m w, m^2 w
        # where exp(-3/t_scaled) underflows, every excited weight does as well
        weights = np.exp(np.divide(-m, t_scaled, order="F"), out=sums[:, 0])
        weights[0] = 1.0  # 0/0 at t = 0
        weights *= np.less_equal(n[:, None], n_max, order="F")
        np.multiply(weights, m, out=sums[:, 1])
        np.multiply(sums[:, 1], m, out=sums[:, 2])
        z, m1, m2 = _sum_levels(sums)
        m1, m2 = m1 / z, m2 / z
        f1 = 2.0 * (1.0 / (ell * ell)) / ell  # wall_force(1, ell), bit for bit
        return weights, z, n_max, f1 * (1.0 + m1), f1 * f1 * (m2 - m1 * m1)


def _sum_levels(a):
    """Sums over the first (level) axis, adding adjacent pairs of levels: the
    pairing depends on the level index alone, so appended zero levels and
    other points change no sum, and the error grows as log(levels)."""
    while len(a) > 1:
        h, odd = divmod(len(a), 2)
        pairs = np.empty_like(a[: h + odd])  # in a's memory order
        np.add(a[0 : 2 * h : 2], a[1 : 2 * h : 2], out=pairs[:h])
        pairs[h:] = a[2 * h :]
        a = pairs
    return a[0]


def _check(t, ell, n_max, error=ValidationError):
    """Raise ``error`` naming the first point that cannot be truncated."""
    bad = np.flatnonzero(n_max > MAX_LEVEL)
    if bad.size:
        t, ell = t[bad[0]].item(), ell[bad[0]].item()
        reason = f"needs more than {MAX_LEVEL} levels"
        if 1.0 / (ell * ell * t) == 0.0:
            reason = "is too large to truncate"
        raise error(f"temperature t = {t!r} {reason}")


def _one_point(t: float, ell: float):
    t, ell = check_grid([t], "temperature t"), np.array([check_size(ell)])
    w, z, n_max, mean, _ = _states(t, ell)
    _check(t, ell, n_max)
    return w[:, 0] / z[0], mean.item()


def occupancies(t: float, ell: float = 1.0) -> np.ndarray:
    """Boltzmann occupation probabilities p_1..p_{n_max} at temperature t.

    Truncated at the first level whose weight drops below e^-37 (at least
    four levels are always reported).  At t = 0 only the ground state is
    occupied.
    """
    return _one_point(t, ell)[0]


def mean_wall_force(t: float, ell: float = 1.0) -> float:
    """Occupancy-averaged outward wall force at temperature t.

    At t = 0 this is exactly the zero-point force wall_force(1, ell);
    thermal excitation only ever adds to it.
    """
    return _one_point(t, ell)[1]


def _solve(seed: StrainSolution, t: np.ndarray) -> ThermalBlock:
    """Roots of G(s) = K s - <F>(1 + s, t) in the strain s = ell - 1.

    <F> falls as ell grows, so G increases.  The zero-temperature strain s0
    (``seed``) has G(s0) <= 0 as heat only adds force, and G(<F>(1 + s0)/K)
    >= 0 closes each point's bracket.  The Newton step s <- (<F> - s d<F>/d
    ell) / (K - d<F>/d ell), d<F>/d ell = var(F_n)/t - 3 <F>/ell, is a
    weighted mean of s and <F>/K, so it stays inside the bracket.  An iterate
    that cannot be truncated ends its own point's solve, failing it there.
    The block's alpha is NaN for t <= 1e-3.
    """
    strain = np.full(t.shape, seed.strain)
    _, _, n_max, mean, var = _states(t, 1.0 + strain)
    # Solve a point only where heat raises <F> at s0 (never at t = 0), the
    # balance there leaves s0, and the point can be truncated.  K s0 < <F>
    # alone turns on rounding where heat adds under an ulp of force, which
    # let ell(t) step down by two ulps as t grew.
    f0 = wall_force(1, seed.ell)  # <F> at t = 0
    hot = (f0 < mean) & (seed.K * seed.strain < mean) & (n_max <= MAX_LEVEL)
    if hot.any():
        t_hot = t[hot]
        at_seed = [(n_max[hot], mean[hot], var[hot])]  # the solve starts at s0

        def newton(s):  # a point that cannot be truncated stops where it is
            ell = 1.0 + s
            n_max, mean, var = at_seed.pop() if at_seed else _states(t_hot, ell)[2:]
            slope = var / t_hot - 3.0 * mean / ell
            step = (mean - s * slope) / (seed.K - slope)
            ok = n_max <= MAX_LEVEL
            return np.where(ok, seed.K * s - mean, 0.0), np.where(ok, step, s)

        hi = mean[hot] / seed.K
        strain[hot] = _bracketed_newton(newton, seed.strain, hi, seed.strain, scale=1.0)
    ell = 1.0 + strain
    w, z, n_max, mean, var = _states(t, ell)
    # alpha = (d<F>/dt) / [ell (K - d<F>/d ell)], d<F>/dt = cov(F_n, E_n)/t^2 =
    # (ell/2) var(F_n)/t^2 as E_n = ell F_n/2; NaN for t <= 1e-3
    with np.errstate(all="ignore"):
        alpha = 0.5 * var / (t * t * (seed.K - (var / t - 3.0 * mean / ell)))
    alpha = np.where(t > 1e-3, alpha, math.nan)
    return ThermalBlock(t, ell, w / z, n_max, mean, alpha)


def thermal_blocks(K: float, t_grid):
    """Yield an increasing temperature grid (checked as the first block is
    asked for) as ThermalBlocks of consecutive points, float64 columns that do
    not depend on the split into blocks, so each point is its own one-point grid
    (:func:`equilibrium_size_at_t`) bit for bit; p is levels x points,
    zero past a point's n_max.  A point needs about n_prev t/t_prev levels,
    n_prev those of the last root before it (levels grow as ell sqrt(t), ell(t)
    at most as sqrt(t)), so a block is sized to hold about _BLOCK_CELLS level x
    point cells.  NumericalError names a point that needs over MAX_LEVEL levels.
    """
    t = check_grid(t_grid, "temperature grid")
    seed = solve_equilibrium(K)  # the same at every t; validates K
    start, t_prev, n_prev = 0, 0.0, _MIN_LEVELS
    while start < len(t):
        ahead = t[start : start + _BLOCK_CELLS // _MIN_LEVELS]
        with np.errstate(all="ignore"):
            cells = np.arange(1, len(ahead) + 1) * (n_prev * ahead / t_prev)
        stop = start + max(1, np.count_nonzero(cells <= _BLOCK_CELLS))
        block = _solve(seed, t[start:stop])
        _check(block.t, block.ell, block.n_max, NumericalError)
        yield block
        start, t_prev, n_prev = stop, block.t[-1], block.n_max[-1]


def equilibrium_size_at_t(K: float, t: float) -> ThermalPoint:
    """Self-consistent box size and occupancies at temperature t: the one
    point of :func:`thermal_blocks` over the grid [t], so exactly the zero-
    temperature equilibrium at t = 0, with alpha NaN for t <= 1e-3, and
    NumericalError where t needs over MAX_LEVEL levels.
    """
    (b,) = thermal_blocks(K, check_grid([t], "temperature t"))
    t, ell, p, n, f, a = (c[0].tolist() for c in b._replace(p=b.p.T))
    # an undefined alpha is the one math.nan, so equal points compare equal
    n, a = int(n), a if a == a else math.nan
    return ThermalPoint(t, ell, tuple(p[:n]), f, a, n)
