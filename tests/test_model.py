import math

import numpy as np
import pytest

from zpbox import (
    BOLTZMANN_KB,
    PLANCK_H,
    ValidationError,
    check_count,
    check_finite,
    check_grid,
    check_level,
    check_positive,
    check_size,
    energy_level,
    equilibria,
    integrate,
    perturbed_energy,
    restoring_force,
    solve_equilibrium,
    thermal_blocks,
    time_step,
    to_reduced,
    total_energy,
)

ELECTRON_MASS = 9.109e-31
NANOMETER = 1e-9


def test_unit_stiffness_by_construction():
    # pick k equal to eps0/d^2 so that K comes out as 1
    eps0 = PLANCK_H**2 / (8.0 * ELECTRON_MASS * NANOMETER**2)
    sys = to_reduced(ELECTRON_MASS, NANOMETER, spring_stiffness=eps0 / NANOMETER**2)
    assert sys.K == pytest.approx(1.0, rel=1e-14)


def test_doubling_box_size_scales_K_by_16():
    k = 0.05
    small = to_reduced(ELECTRON_MASS, NANOMETER, k)
    large = to_reduced(ELECTRON_MASS, 2 * NANOMETER, k)
    assert large.K / small.K == pytest.approx(16.0, rel=1e-12)


def test_electron_energy_scale_matches_hand_computation():
    # direct arithmetic with the CODATA Planck constant
    expected = 6.62607015e-34**2 / (8.0 * 9.109e-31 * 1e-9**2)
    sys = to_reduced(ELECTRON_MASS, NANOMETER, 1.0)
    assert sys.energy_scale == pytest.approx(expected, rel=1e-14)
    assert sys.energy_scale == pytest.approx(6.024921181348256e-20, rel=1e-12)
    assert sys.temperature_scale == pytest.approx(expected / BOLTZMANN_KB, rel=1e-14)


def test_round_trip_si_reduced_si():
    inp = dict(
        particle_mass=6.64e-27,  # helium-ish
        box_size=3.6e-10,
        spring_stiffness=1.3,
        wall_mass=2.0e-25,
    )
    sys = to_reduced(**inp)
    # a reduced value times its scale is its SI value
    assert sys.K * sys.stiffness_scale == pytest.approx(
        inp["spring_stiffness"], rel=1e-12
    )
    assert sys.length_scale == inp["box_size"]
    assert sys.mu * inp["particle_mass"] == pytest.approx(inp["wall_mass"], rel=1e-12)
    assert sys.energy_scale == PLANCK_H**2 / (
        8.0 * inp["particle_mass"] * inp["box_size"] ** 2
    )
    assert sys.energy_scale / BOLTZMANN_KB == sys.temperature_scale
    assert sys.time_scale == pytest.approx(
        inp["box_size"] * math.sqrt(inp["particle_mass"] / sys.energy_scale),
        rel=1e-12,
    )
    assert sys.force_scale == pytest.approx(
        sys.energy_scale / inp["box_size"], rel=1e-12
    )


def test_wall_mass_defaults_to_heavy_wall():
    # CODATA electron and proton masses, where 1000 m / m is 999.9999999999999
    for mass in (ELECTRON_MASS, 9.1093837015e-31, 1.67262192369e-27):
        assert to_reduced(mass, NANOMETER, 1.0).mu == 1000.0


@pytest.mark.parametrize(
    "field,kwargs",
    [
        ("particle_mass", dict(particle_mass=-1.0, box_size=1e-9, spring_stiffness=1.0)),
        ("particle_mass", dict(particle_mass=0.0, box_size=1e-9, spring_stiffness=1.0)),
        ("box_size", dict(particle_mass=1e-30, box_size=0.0, spring_stiffness=1.0)),
        ("box_size", dict(particle_mass=1e-30, box_size=math.nan, spring_stiffness=1.0)),
        (
            "spring_stiffness",
            dict(particle_mass=1e-30, box_size=1e-9, spring_stiffness=-2.0),
        ),
        (
            "wall_mass",
            dict(
                particle_mass=1e-30,
                box_size=1e-9,
                spring_stiffness=1.0,
                wall_mass=math.inf,
            ),
        ),
    ],
)
def test_invalid_inputs_name_the_field(field, kwargs):
    with pytest.raises(ValidationError, match=field):
        to_reduced(**kwargs)


@pytest.mark.parametrize(
    "mass_factor,size_factor",
    [(2.0, 1.0), (1.0, 2.0), (4.0, 0.5), (0.25, 2.0)],
)
def test_K_invariant_under_compensated_rescaling(mass_factor, size_factor):
    # K = 8 k m d^4 / h^2 stays fixed when k absorbs the m d^4 rescaling
    k0 = 0.7
    base = to_reduced(ELECTRON_MASS, NANOMETER, k0)
    k1 = k0 / (mass_factor * size_factor**4)
    scaled = to_reduced(ELECTRON_MASS * mass_factor, NANOMETER * size_factor, k1)
    assert scaled.K == pytest.approx(base.K, rel=1e-12)


@pytest.mark.parametrize(
    "mass, size", [(1e-300, 1e-300), (1.0, 1e200), (1e300, 1e300)]
)
def test_eps0_outside_the_float_range_is_a_validation_error(mass, size):
    with pytest.raises(ValidationError, match="eps0"):
        to_reduced(mass, size, 1.0)


@pytest.mark.parametrize(
    "check, value, expected, bad",
    [
        (check_positive, np.float32(0.5), 0.5, 0.0),
        (check_positive, 3, 3.0, math.nan),
        (check_size, 1, 1.0, 1e-91),
        (check_size, np.float64(1e90), 1e90, math.inf),
        (check_level, np.int64(7), 7, 0),
        (check_level, 1_000_000, 1_000_000, 2.0),
        (check_grid, (0, 1, 2), np.array([0.0, 1.0, 2.0]), [1.0, 0.5]),
        (check_grid, [5e-324], np.array([5e-324]), [-1.0]),
        (check_level, np.uint8(2), 2, np.True_),
        (check_finite, np.float32(-0.5), -0.5, math.inf),
        (check_finite, 0, 0.0, math.nan),
        (check_count, np.int64(3), 3, 3.0),
        (check_count, 2**1100, 2**1100, True),
    ],
)
def test_validators_normalise_or_lead_their_message_with_the_name(
    check, value, expected, bad
):
    result = check(value, "--flag")
    assert type(result) is type(expected)
    assert np.array_equal(result, expected)
    with pytest.raises(ValidationError) as info:
        check(bad, "--flag")
    assert str(info.value).startswith("--flag must ")


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: solve_equilibrium(2**1100), "stiffness K"),
        (lambda: to_reduced(2**1100, 1e-9, 1.0), "particle_mass"),
        (lambda: integrate(solve_equilibrium(2.0), 2**1100, 0.0), "wall mass ratio mu"),
        (lambda: equilibria([2**1100]), "stiffness grid"),
        (lambda: list(thermal_blocks(2.0, [0.0, 2**1100])), "temperature grid"),
        (
            lambda: time_step(solve_equilibrium(2.0), 1e3, steps_per_period=2**1100),
            "mu 1000.0 with steps_per_period",
        ),
        (lambda: energy_level(1, 2**1100), "box size ell"),
        (lambda: restoring_force(2**1100, solve_equilibrium(2.0)), "displacement y"),
        (lambda: total_energy(2**1100, 2.0), "displacement y"),
        (lambda: perturbed_energy(solve_equilibrium(2.0), 2**1100), "displacement eta"),
        (lambda: integrate(solve_equilibrium(2.0), 1e3, 2**1100), "initial displacement"),
        (lambda: integrate(solve_equilibrium(2.0), 1e3, 0.0, 2**1100), "initial velocity"),
    ],
)
def test_an_int_past_the_float_range_is_a_validation_error(call, name):
    # float(2**1100) raises OverflowError
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value).startswith(f"{name} ")
