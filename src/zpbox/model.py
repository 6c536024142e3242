"""Reduced (dimensionless) unit system for the particle-in-an-elastic-box model.

Internal computations are dimensionless throughout:

    length       -> units of the unstrained box size d
    energy       -> units of the ground-state confinement energy
                    eps0 = h^2 / (8 m d^2)
    temperature  -> units of T0 = eps0 / k_B
    time         -> units of d * sqrt(m / eps0)
    force        -> units of eps0 / d
    stiffness    -> units of eps0 / d^2

In these units the level spectrum is n^2/ell^2, the ground-state wall
force is 2, and the spring constant enters only through the single
dimensionless number K = k d^2 / eps0.  The wall inertia enters the
dynamics through mu = M / m.

Constants are CODATA-2018 (both are exact by SI definition).
"""

import math
import numbers
from typing import NamedTuple

from .errors import ValidationError

# CODATA-2018 defined values (exact)
PLANCK_H = 6.62607015e-34  # J s
BOLTZMANN_KB = 1.380649e-23  # J / K

#: Wall-to-particle mass ratio used when no wall mass is given.  The
#: breathing dynamics needs an inertia; a heavy wall keeps the particle
#: adiabatic on the wall's time scale.
DEFAULT_MASS_RATIO = 1000.0


def _checked(value, rule: str, ok) -> float:
    """float(value) if ``ok(float(value))``, else ValidationError ``<rule>, got
    <value>``; an int past the float range is ``<rule>, got an int past ...``."""
    try:
        value = float(value)
    except OverflowError:
        raise ValidationError(f"{rule}, got an int past the float range") from None
    if not ok(value):
        raise ValidationError(f"{rule}, got {value!r}")
    return value


def check_finite(value, name: str) -> float:
    """``value`` as a float if finite, else ValidationError led by name."""
    return _checked(value, f"{name} must be finite", math.isfinite)


def check_positive(value, name: str) -> float:
    """``value`` as a float if positive and finite, else ValidationError led by name."""
    rule = f"{name} must be positive and finite"
    return _checked(value, rule, lambda v: 0.0 < v < math.inf)


def check_count(value, name: str) -> int:
    """An integer ``value`` >= 1 as an int, else ValidationError led by name."""
    # numpy registers its integer types as Integral, not its bool
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")
    return int(value)


class ReducedSystem(NamedTuple):
    """Dimensionless system parameters plus the scales to convert back to SI."""

    K: float  # spring stiffness, units eps0 / d^2
    mu: float  # wall mass in units of the particle mass
    energy_scale: float  # eps0 in joules
    length_scale: float  # d in meters
    time_scale: float  # d * sqrt(m / eps0) in seconds
    temperature_scale: float  # T0 = eps0 / k_B in kelvin

    @property
    def force_scale(self) -> float:
        """eps0 / d in newtons."""
        return self.energy_scale / self.length_scale

    @property
    def stiffness_scale(self) -> float:
        """eps0 / d^2 in newtons per meter."""
        return self.energy_scale / self.length_scale**2


def to_reduced(
    particle_mass, box_size, spring_stiffness, wall_mass=None
) -> ReducedSystem:
    """Convert an SI description into the internal dimensionless system.

    Args:
        particle_mass: kg.
        box_size: the unstrained size d, m.
        spring_stiffness: N / m.
        wall_mass: kg, or None for the mass ratio ``DEFAULT_MASS_RATIO``,
            1000 exactly.

    Returns:
        ReducedSystem with K = k d^2 / eps0, mu = wall_mass / particle_mass
        and all conversion scales.  Each argument, and each result field,
        must be positive and finite (ValidationError led by its name).
    """
    m = check_positive(particle_mass, "particle_mass")
    d = check_positive(box_size, "box_size")
    k = check_positive(spring_stiffness, "spring_stiffness")
    mu = DEFAULT_MASS_RATIO
    if wall_mass is not None:
        mu = check_positive(wall_mass, "wall_mass") / m
    try:
        eps0 = PLANCK_H**2 / (8.0 * m * d**2)
        K = k * d**2 / eps0
    except (ZeroDivisionError, OverflowError):
        raise ValidationError(
            f"eps0 = h^2/(8 m d^2) leaves the float range at m={m!r}, d={d!r}"
        ) from None
    system = ReducedSystem(
        K, mu, eps0, d, d * math.sqrt(m / eps0), eps0 / BOLTZMANN_KB
    )
    for name, value in zip(system._fields, system):
        check_positive(value, name)
    return system
