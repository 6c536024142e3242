"""Shared independent oracles for the test suite.

These deliberately avoid the library's own solvers: the quartic root
comes from plain bisection, integrals from scipy quadrature called
directly, the golden-section minimum and the CSV formatter's powers of ten
from Fraction arithmetic, so the production code is checked against a
separate route.  The eigenfunction oracles sample ``zpbox.wavefunction``
itself, the thing they check, and test the closed forms that
``count_nodes`` and ``position_expectation`` return.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import settings
from scipy import integrate

import zpbox

# Every run draws the same examples, so the property tests are a fixed,
# fast set of cases; ``pytest --hypothesis-profile deep`` explores further.
settings.register_profile(
    "default", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.register_profile("deep", deadline=None, max_examples=10_000)


def quartic_root(K: float, tol: float = 1e-14) -> float:
    """Bisection root of K l^4 - K l^3 - 2 = 0 on [1, hi], to tol in l."""

    def g(ell: float) -> float:
        return K * ell**4 - K * ell**3 - 2.0

    lo, hi = 1.0, 2.0
    while g(hi) < 0.0:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def strain_bisection(K: float) -> float:
    """Float nearest the strain s > 0 with K s (1 + s)^3 = 2, by bisection.

    Works in the strain, with the sign of K s (1 + s)^3 - 2 taken in exact
    rational arithmetic, so it stays correct where the strain is far below
    the resolution of ell = 1 + s (large K) or ell^4 overflows (small K).
    Bisects until the bracket holds two adjacent floats, then returns the
    one with the smaller exact residual.
    """
    k = Fraction(K)

    def excess(s: float) -> Fraction:
        x = Fraction(s)
        return k * x * (1 + x) ** 3 - 2

    # 2**0.25 / K**0.25 stays finite where 2/K overflows (K = 5e-324)
    lo, hi = 0.0, min(2.0 / K, 2.0**0.25 / K**0.25)
    while excess(hi) < 0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo if abs(excess(lo)) < abs(excess(hi)) else hi
        if excess(mid) < 0:
            lo = mid
        else:
            hi = mid


def golden_section_fraction(K: float) -> float:
    """The energy minimum y* by golden section, energies as Fractions.

    The library's ``minimize_oracle`` search written out with
    ``fractions.Fraction`` energies: the same bracket, tolerance, float
    abscissae and stopping rule, so an exact comparison done any other way
    must return the same float, bit for bit.
    """
    half_k = Fraction(K) / 2

    def energy(y: float) -> Fraction:
        x = Fraction(y)
        return 1 / (1 + x) ** 2 + half_k * x * x

    a, b = 0.0, 2.0 * min(2.0 / K, 2.0**0.25 / math.sqrt(math.sqrt(K)))
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = energy(c), energy(d)
    while b - a > 1e-12 * b and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = energy(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = energy(d)
    return (a + b) / 2


def verlet_breathing_frequency(K: float, mu: float, dt: float, a: float) -> float:
    """Angular frequency velocity Verlet gives the breathing mode at amplitude a.

    The motion is eta'' + w^2 eta = -alpha eta^2 - beta eta^3, w^2 = K'/mu,
    from the Taylor series of the force 2/(ell + eta)^3 - K (ell - 1 + eta):
    alpha = -12/(mu ell^5) and beta = 20/(mu ell^6), with ell from
    ``quartic_root``.  Verlet turns the linear motion at (2/dt) asin(w dt/2)
    (Hairer, Lubich & Wanner 2006); the amplitude adds the shift
    (3 beta/(8 w) - 5 alpha^2/(12 w^3)) a^2 (Landau & Lifshitz, Mechanics,
    section 28).  Terms of order a^3 and dt^2 a^2 are left out.
    """
    ell = quartic_root(K)
    omega = math.sqrt((K + 6.0 / ell**4) / mu)
    alpha = -12.0 / (mu * ell**5)
    beta = 20.0 / (mu * ell**6)
    shift = (3.0 * beta / (8.0 * omega) - 5.0 * alpha**2 / (12.0 * omega**3)) * a * a
    return 2.0 / dt * math.asin(omega * dt / 2.0) + shift


def quad_strict(f, a: float, b: float, breakpoints=None) -> float:
    """Gauss-Kronrod quadrature at tight tolerance, warnings silenced."""
    kwargs = {"epsabs": 1e-12, "epsrel": 1e-12, "limit": 400}
    if breakpoints:
        kwargs["points"] = breakpoints
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(f, a, b, **kwargs)
    return value


def box_nodes(n: int, ell: float) -> list[float]:
    """Interior zeros of sin(n pi x / ell) on (0, ell)."""
    return [k * ell / n for k in range(1, n)]


def sign_changes(n: int, ell: float) -> int:
    """Interior zeros of ``zpbox.wavefunction(n, x, ell)``, counted on 64 n
    uniformly spaced interior samples: the exact zeros plus the sign changes
    between neighbours.  That density separates all n - 1 roots of the sine,
    so a correct eigenfunction gives n - 1."""
    samples = 64 * n
    x = np.arange(1, samples + 1) * (ell / (samples + 1))
    signs = np.sign(zpbox.wavefunction(n, x, ell))
    zeros = np.count_nonzero(signs == 0.0)
    return int(zeros + np.count_nonzero(signs[:-1] * signs[1:] < 0.0))


def mean_position(n: int, ell: float) -> float:
    """<x> of level n: x ``zpbox.wavefunction(n, x, ell)``^2 integrated by
    ``quad_strict`` over each of the n segments between the walls and
    ``box_nodes``, on which it is smooth; ell/2 for a correct eigenfunction."""
    edges = [0.0, *box_nodes(n, ell), ell]
    return math.fsum(
        quad_strict(lambda x: x * zpbox.wavefunction(n, x, ell) ** 2, a, b)
        for a, b in zip(edges, edges[1:])
    )


def power_of_ten_parts(k: int) -> tuple[float, float, float, int]:
    """10**k as the CSV formatter's tables hold it, built with Fraction:
    ceil, the smallest double >= 10**k (inf past the largest double); high,
    the quotient 10**k / 2**scale in [1, 2) rounded to a double; low, what is
    left of that quotient, rounded to a double; and scale."""
    exact = Fraction(10) ** k
    scale = exact.numerator.bit_length() - exact.denominator.bit_length()
    while Fraction(2) ** scale > exact:
        scale -= 1
    while Fraction(2) ** (scale + 1) <= exact:
        scale += 1
    quotient = exact / Fraction(2) ** scale
    high = float(quotient)  # Fraction to float rounds to nearest
    low = float(quotient - Fraction(high))
    try:
        ceil = float(exact)
    except OverflowError:
        return math.inf, high, low, scale
    if Fraction(ceil) < exact:
        ceil = math.nextafter(ceil, math.inf)
    return ceil, high, low, scale


def range_grid_loop(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Points of a start:stop:step grid, one at a time: start + i*step for
    i = 0, 1, ... while within half a step of stop: the loop that the CLI's
    one-pass numpy build must match bit for bit.  ValueError where a step
    below the float resolution leaves a point equal to the one before it.
    """
    values = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + 0.5 * step:
            break
        if values and v <= values[-1]:  # step below float resolution
            raise ValueError("grid step is too small to advance")
        values.append(v)
        i += 1
    return tuple(values)


def logspace_grid(lo_exp: float, hi_exp: float, count: int) -> list[float]:
    """Log-spaced grid of stiffness values, 10**lo_exp .. 10**hi_exp."""
    return [
        10.0 ** (lo_exp + i * (hi_exp - lo_exp) / (count - 1)) for i in range(count)
    ]


def centered_expansion(size_at, t: float, step: float | None = None) -> float:
    """(1/ell) d ell/dt at t by a centered difference of ``size_at``, the box
    size as a function of temperature, over t - step, t and t + step; the
    step defaults to max(1e-3, t/100).  A cross-check on the implicit alpha.
    """
    h = max(1e-3, t / 100.0) if step is None else step
    minus, mid, plus = (size_at(x) for x in (t - h, t, t + h))
    return (plus - minus) / (2.0 * h * mid)


def fixed_point_ell(K: float, t: float, n_levels: int = 80, tol: float = 1e-13) -> float:
    """Independent damped fixed point for the thermal box size.

    Uses a fixed (generous) level count rather than the library's adaptive
    truncation.
    """
    ell = quartic_root(K)
    for _ in range(100_000):
        if t == 0.0:
            force = 2.0 / ell**3
        else:
            weights = [
                math.exp(-(n * n - 1.0) / (ell * ell * t))
                for n in range(1, n_levels + 1)
            ]
            z = sum(weights)
            force = sum(
                2.0 * n * n / ell**3 * w for n, w in zip(range(1, n_levels + 1), weights)
            ) / z
        implied = 1.0 + force / K
        delta = implied - ell
        if abs(delta) < tol:
            return ell
        ell += 0.5 * delta
    raise AssertionError(f"oracle fixed point did not converge for K={K}, t={t}")
