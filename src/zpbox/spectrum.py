"""Eigenstates of a particle in a rigid 1-D box of relative size ell.

All quantities are dimensionless: lengths in units of the unstrained box
size, energies in units of the unstrained ground-state energy eps0 (so
the levels are n^2/ell^2), forces in eps0/d, collision rates in eps0/hbar.
``ell`` is the box size relative to the unstrained one: 1 for the rigid
reference box, d'/d for a strained box.

The scalar functions are plain Python arithmetic; numpy is imported on
first use by the two that build arrays, ``wavefunction`` and ``level_table``.
"""

import math

from .errors import DomainError, ValidationError
from .model import _checked, check_count

#: Levels beyond this are rejected: nothing physical lives there, and
#: level_table builds one row per level up to its n_max.
MAX_LEVEL = 1_000_000

#: Accepted box sizes: every level n <= MAX_LEVEL keeps a normal, finite
#: energy and wall force (2 n^2/ell^3 overflows below ell ~ 2e-99 and 2/ell^3
#: is subnormal above ~ 4e102); the equilibrium of any K > 0 has ell < 8e80.
MIN_SIZE = 1e-90
MAX_SIZE = 1e90


def check_level(n, name: str = "quantum number n") -> int:
    """Integer n as an int if in [1, MAX_LEVEL], else ValidationError led by name."""
    n = check_count(n, name)
    if n > MAX_LEVEL:
        raise ValidationError(f"{name} must be <= {MAX_LEVEL}, got {n}")
    return n


def check_size(ell, name: str = "box size ell") -> float:
    """ell as a float if in [MIN_SIZE, MAX_SIZE], else ValidationError led by name."""
    rule = f"{name} must lie in [{MIN_SIZE:g}, {MAX_SIZE:g}]"
    return _checked(ell, rule, lambda v: MIN_SIZE <= v <= MAX_SIZE)


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
    import numpy as np

    n = check_level(n)
    ell = check_size(ell)
    try:
        x_arr = np.asarray(x, dtype=float)
    except OverflowError:  # an int past the float range lies in no box
        x_arr = np.array(math.inf)
    if not np.all((x_arr >= 0.0) & (x_arr <= ell)):  # false for NaN too
        raise DomainError(f"position x must lie in [0, {ell}]")
    psi = math.sqrt(2.0 / ell) * np.sin(n * math.pi * x_arr / ell)
    return psi if x_arr.ndim else float(psi)


def position_expectation(n: int, ell: float) -> float:
    """Mean position of level n: ell/2, the closed form for every level.

    |psi|^2 is symmetric about the box centre; the tests check the value
    against a quadrature of x |psi|^2.
    """
    n = check_level(n)
    return check_size(ell) / 2.0


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


def level_table(n_max: int, ell: float) -> dict:
    """Levels n = 1..n_max at relative size ell as columns: ``n`` (int64) and
    the float64 ``energy``, ``wall_force``, ``collision_frequency`` and
    ``quantum_size``, equal to those functions bit for bit."""
    import numpy as np

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
    """Interior zeros of the level-n eigenfunction (the walls excluded): n - 1,
    the closed form; the tests count the sign changes of ``wavefunction``.
    """
    n = check_level(n)
    check_size(ell)
    return n - 1
