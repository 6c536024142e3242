"""Shared independent oracles for the test suite.

These deliberately avoid the library's own solvers: the quartic root
comes from plain bisection, integrals from scipy quadrature called
directly, the golden-section minimum from Fraction arithmetic, so the
production code is checked against a separate route.
"""

import math
import warnings
from fractions import Fraction

from scipy import integrate


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


def logspace_grid(lo_exp: float, hi_exp: float, count: int) -> list[float]:
    """Log-spaced grid of stiffness values, 10**lo_exp .. 10**hi_exp."""
    return [
        10.0 ** (lo_exp + i * (hi_exp - lo_exp) / (count - 1)) for i in range(count)
    ]


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
