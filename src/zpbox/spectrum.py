"""Eigenstates of a particle in a rigid 1-D box of relative size ell.

All quantities are dimensionless: lengths in units of the unstrained box
size, energies in units of the unstrained ground-state energy eps0 (so
the levels are n^2/ell^2), forces in eps0/d, collision rates in eps0/hbar.
``ell`` is the box size relative to the unstrained one: 1 for the rigid
reference box, d'/d for a strained box.
"""

import math
import warnings

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

#: Levels beyond this are rejected: the quadrature-based checks become
#: meaninglessly oscillatory long before, and nothing physical lives there.
MAX_LEVEL = 1_000_000

_QUAD_ABSTOL = 1e-12


def _check_level(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError(f"quantum number n must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"quantum number n must be >= 1, got {n}")
    if n > MAX_LEVEL:
        raise ValidationError(f"quantum number n must be <= {MAX_LEVEL}, got {n}")
    return int(n)


def _check_size(ell: float) -> float:
    ell = float(ell)
    if not math.isfinite(ell) or ell <= 0.0:
        raise ValidationError(f"box size ell must be positive and finite, got {ell!r}")
    return ell


def energy_level(n: int, ell: float) -> float:
    """Energy of level n in a box of relative size ell: n^2 / ell^2."""
    n = _check_level(n)
    ell = _check_size(ell)
    return (n * n) / (ell * ell)


def wavenumber(n: int, ell: float) -> float:
    """Wavenumber of level n in units 1/d: n*pi/ell (= momentum in hbar/d)."""
    n = _check_level(n)
    ell = _check_size(ell)
    return n * math.pi / ell


def wavefunction(n: int, x, ell: float):
    """Normalized eigenfunction sqrt(2/ell) * sin(n*pi*x/ell).

    ``x`` may be a scalar or an array; every entry must lie in [0, ell].
    The amplitude carries units d^(-1/2).
    """
    n = _check_level(n)
    ell = _check_size(ell)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > ell):
        raise DomainError(f"position x must lie in [0, {ell}]")
    psi = math.sqrt(2.0 / ell) * np.sin(n * math.pi * x_arr / ell)
    return psi if x_arr.ndim else float(psi)


def _interior_nodes(n: int, ell: float) -> list[float]:
    # exact zeros of sin(n pi x / ell) strictly inside (0, ell)
    return [k * ell / n for k in range(1, n)]


def _quad(f, a: float, b: float, breakpoints=None) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod quadrature with the module-wide tolerance."""
    from scipy import integrate  # imported on first use: slow, and only needed here

    kwargs = {"epsabs": _QUAD_ABSTOL, "epsrel": _QUAD_ABSTOL, "limit": 200}
    if breakpoints:
        kwargs["points"] = breakpoints
        kwargs["limit"] = max(200, 4 * len(breakpoints))
    with warnings.catch_warnings():
        # the abserr gate below decides failure; QUADPACK's roundoff
        # warning at tight tolerances is expected for oscillatory n
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(f, a, b, full_output=1, **kwargs)
    value, abserr = out[0], out[1]
    # out has a 4th element (an explanation string) only when QUADPACK warns
    if abserr > 1e-9:
        detail = out[3].splitlines()[0] if len(out) > 3 else "tolerance not reached"
        raise NumericalError(
            f"quadrature did not converge (error estimate {abserr:.3e}): {detail}"
        )
    return value, abserr


def position_expectation(n: int, ell: float) -> float:
    """Mean position of level n, via quadrature of x |psi|^2 over [0, ell].

    Evaluates the integral numerically rather than using the closed form,
    so it doubles as a check on the eigenfunctions; the result is ell/2
    for every level.
    """
    n = _check_level(n)
    ell = _check_size(ell)
    norm = math.sqrt(2.0 / ell)
    omega = n * math.pi / ell

    def integrand(x: float) -> float:
        s = norm * math.sin(omega * x)
        return x * s * s

    value, _ = _quad(integrand, 0.0, ell, breakpoints=_interior_nodes(n, ell))
    return value


def wall_force(n: int, ell: float) -> float:
    """Outward force of level n on the walls: 2 n^2 / ell^3, in eps0/d.

    Equals -dE_n/d(ell) and, identically, 2 * energy_level(n, ell) / ell.
    For n = 1 this is the zero-point force: the ground state cannot shed
    energy by de-exciting, only by pushing the walls apart.
    """
    return 2.0 * energy_level(n, ell) / ell


def collision_frequency(n: int, ell: float) -> float:
    """Rate of wall collisions for level n, in units eps0/hbar: n/(pi ell^2).

    One collision reverses the particle momentum, transferring an impulse
    of twice the momentum, so impulse times rate reproduces the wall force:
    2 * wavenumber(n, ell) * collision_frequency(n, ell) = wall_force(n, ell).
    """
    n = _check_level(n)
    ell = _check_size(ell)
    return n / (math.pi * ell * ell)


def quantum_size(n: int, ell: float) -> float:
    """Half de Broglie wavelength ell/n: the spatial extent one level occupies.

    Only the ground state fills the whole box (quantum_size(1, ell) = ell);
    level n tiles the box with n anti-nodal regions of this size.
    """
    n = _check_level(n)
    ell = _check_size(ell)
    return ell / n


def count_nodes(n: int, ell: float) -> int:
    """Count interior zeros of the level-n eigenfunction (excludes the walls).

    Samples 64*n uniformly spaced interior points and counts the exact
    zeros and the sign changes between neighbours; that density separates
    all n-1 roots of the sine.
    """
    n = _check_level(n)
    ell = _check_size(ell)
    xs = np.linspace(0.0, ell, 64 * n + 2)[1:-1]
    signs = np.sign(wavefunction(n, xs, ell))
    zeros = np.count_nonzero(signs == 0.0)
    return int(zeros + np.count_nonzero(signs[:-1] * signs[1:] < 0.0))
