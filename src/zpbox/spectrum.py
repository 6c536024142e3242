"""Eigenstates of a particle in a rigid 1-D box of relative size ell.

All quantities are dimensionless: lengths in units of the unstrained box
size, energies in units of the unstrained ground-state energy eps0 (so
the levels are n^2/ell^2), forces in eps0/d, collision rates in eps0/hbar.
``ell`` is the box size relative to the unstrained one: 1 for the rigid
reference box, d'/d for a strained box.
"""

import functools
import math

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

#: Levels beyond this are rejected: nothing physical lives there, and
#: count_nodes and position_expectation do work proportional to n (about
#: a second each at this bound, in blocks of bounded memory).
MAX_LEVEL = 1_000_000

#: Accepted box sizes: every level n <= MAX_LEVEL keeps a normal, finite
#: energy and wall force (2 n^2/ell^3 overflows below ell ~ 2e-99 and 2/ell^3
#: is subnormal above ~ 4e102); the equilibrium of any K > 0 has ell < 8e80.
MIN_SIZE = 1e-90
MAX_SIZE = 1e90

#: Points of the lower Gauss-Legendre rule in position_expectation; its
#: companion has twice as many, and their difference is the error estimate.
_GAUSS_ORDER = 12

#: Samples evaluated per vectorised block, so memory stays bounded at any n.
_BLOCK_POINTS = 1 << 16


def check_level(n, name: str = "quantum number n") -> int:
    """Integer n as an int if in [1, MAX_LEVEL], else ValidationError led by name."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"{name} must be >= 1, got {n}")
    if n > MAX_LEVEL:
        raise ValidationError(f"{name} must be <= {MAX_LEVEL}, got {n}")
    return int(n)


def check_size(ell, name: str = "box size ell") -> float:
    """ell as a float if in [MIN_SIZE, MAX_SIZE], else ValidationError led by name."""
    ell = float(ell)
    if not MIN_SIZE <= ell <= MAX_SIZE:
        raise ValidationError(
            f"{name} must lie in [{MIN_SIZE:g}, {MAX_SIZE:g}], got {ell!r}"
        )
    return ell


def energy_level(n: int, ell: float) -> float:
    """Energy of level n in a box of relative size ell: n^2 / ell^2."""
    return _levels(check_level(n), check_size(ell))["energy"]


def wavenumber(n: int, ell: float) -> float:
    """Wavenumber of level n in units 1/d: n*pi/ell (= momentum in hbar/d)."""
    n = check_level(n)
    ell = check_size(ell)
    return n * math.pi / ell


def wavefunction(n: int, x, ell: float):
    """Normalized eigenfunction sqrt(2/ell) * sin(n*pi*x/ell).

    ``x`` may be a scalar or an array; every entry must lie in [0, ell].
    The amplitude carries units d^(-1/2).
    """
    n = check_level(n)
    ell = check_size(ell)
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr >= 0.0) & (x_arr <= ell)):  # false for NaN too
        raise DomainError(f"position x must lie in [0, {ell}]")
    psi = math.sqrt(2.0 / ell) * np.sin(n * math.pi * x_arr / ell)
    return psi if x_arr.ndim else float(psi)


@functools.cache
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [0, 1]."""
    # imported on first use: import zpbox need not pay for numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    t, w = leggauss(m)
    return 0.5 * (1.0 + t), 0.5 * w


def position_expectation(n: int, ell: float) -> float:
    """Mean position of level n, via quadrature of x |psi|^2 over [0, ell].

    Evaluates the integral numerically rather than using the closed form,
    so it doubles as a check on the eigenfunctions; the result is ell/2
    for every level.

    The rule is composite Gauss-Legendre over the n antinodal segments
    [k ell/n, (k+1) ell/n], on which x |psi|^2 is smooth: every segment
    gets a fixed m-point rule and its 2m-point companion, with |psi|^2
    taken from ``wavefunction`` at all nodes of a block of segments at
    once. The blocks hold a fixed number of nodes, so memory stays bounded
    up to ``MAX_LEVEL``. The difference of the two totals is the error
    estimate; above 1e-9 ell (the scale of the result) it raises
    ``NumericalError``.
    """
    n = check_level(n)
    ell = check_size(ell)
    m = _GAUSS_ORDER
    nodes_m, weights_m = _gauss_legendre(m)
    nodes_2m, weights_2m = _gauss_legendre(2 * m)
    nodes = np.concatenate([nodes_m, nodes_2m])
    block = _BLOCK_POINTS // nodes.size
    total_m = total_2m = 0.0
    for first in range(0, n, block):
        segments = np.arange(first, min(first + block, n), dtype=float)
        # fractions of the box in [0, 1), so x never leaves [0, ell]
        x = ell * ((segments[:, None] + nodes) / n)
        f = x * wavefunction(n, x, ell) ** 2
        total_m += float((f[:, :m] @ weights_m).sum())
        total_2m += float((f[:, m:] @ weights_2m).sum())
    width = ell / n
    value, error = width * total_2m, width * abs(total_2m - total_m)
    if not (math.isfinite(value) and error <= 1e-9 * ell):
        raise NumericalError(
            f"quadrature of <x> for n={n}, ell={ell!r} did not converge "
            f"(error estimate {error:.3e})"
        )
    return value


def wall_force(n: int, ell: float) -> float:
    """Outward force of level n on the walls: 2 n^2 / ell^3, in eps0/d.

    Equals -dE_n/d(ell) and, identically, 2 * energy_level(n, ell) / ell.
    For n = 1 this is the zero-point force: the ground state cannot shed
    energy by de-exciting, only by pushing the walls apart.
    """
    return _levels(check_level(n), check_size(ell))["wall_force"]


def collision_frequency(n: int, ell: float) -> float:
    """Rate of wall collisions for level n, in units eps0/hbar: n/(pi ell^2).

    One collision reverses the particle momentum, transferring an impulse
    of twice the momentum, so impulse times rate reproduces the wall force:
    2 * wavenumber(n, ell) * collision_frequency(n, ell) = wall_force(n, ell).
    """
    return _levels(check_level(n), check_size(ell))["collision_frequency"]


def quantum_size(n: int, ell: float) -> float:
    """Half de Broglie wavelength ell/n: the spatial extent one level occupies.

    Only the ground state fills the whole box (quantum_size(1, ell) = ell);
    level n tiles the box with n anti-nodal regions of this size.
    """
    return _levels(check_level(n), check_size(ell))["quantum_size"]


def level_table(n_max: int, ell: float) -> dict[str, np.ndarray]:
    """Levels n = 1..n_max at relative size ell as columns: ``n`` (int64) and
    the float64 ``energy``, ``wall_force``, ``collision_frequency`` and
    ``quantum_size``, equal to those functions bit for bit."""
    n = np.arange(1, check_level(n_max) + 1, dtype=np.int64)
    return _levels(n, check_size(ell))


def _levels(n, ell):
    """The level-table quantities at n, an int or an int64 array: the same
    IEEE operations either way, as n^2 < 2^53 is exact as a float."""
    energy = (n * n) / (ell * ell)
    return {
        "n": n,
        "energy": energy,
        "wall_force": 2.0 * energy / ell,
        "collision_frequency": n / (math.pi * ell * ell),
        "quantum_size": ell / n,
    }


def count_nodes(n: int, ell: float) -> int:
    """Count interior zeros of the level-n eigenfunction (excludes the walls).

    Samples 64*n uniformly spaced interior points and counts the exact
    zeros and the sign changes between neighbours; that density separates
    all n-1 roots of the sine. The samples are taken in fixed-size blocks,
    carrying the last sign across each block boundary, so memory stays
    bounded up to ``MAX_LEVEL``.
    """
    n = check_level(n)
    ell = check_size(ell)
    samples = 64 * n
    step = ell / (samples + 1)  # the spacing of linspace(0, ell, samples + 2)
    count = 0
    last = 0.0
    for first in range(1, samples + 1, _BLOCK_POINTS):
        index = np.arange(first, min(first + _BLOCK_POINTS, samples + 1))
        signs = np.sign(wavefunction(n, index * step, ell))
        count += np.count_nonzero(signs == 0.0)
        count += np.count_nonzero(signs[:-1] * signs[1:] < 0.0)
        count += last * signs[0] < 0.0
        last = signs[-1]
    return int(count)
