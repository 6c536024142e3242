import math

import numpy as np
import pytest

from conftest import fixed_point_ell, quartic_root
from zpbox import (
    NumericalError,
    ValidationError,
    equilibrium_size_at_t,
    expansion_coefficient,
    mean_wall_force,
    occupancies,
    solve_equilibrium,
    thermal_sweep,
    wall_force,
)

# direct-summation oracle at n_max = 20, frozen
MEAN_FORCE_T1 = 2.2895842090461342
# independent fixed-point oracle value, frozen
ELL_K2_T1 = 1.5220155134206608


def test_occupancies_at_zero_temperature():
    p = occupancies(0.0, 1.0)
    assert p[0] == 1.0
    assert np.all(p[1:] == 0.0)
    assert len(p) == 4


def test_first_excited_occupancy_at_t0():
    p = occupancies(1.0, 1.0)
    assert p[1] / p[0] == pytest.approx(math.exp(-3.0), abs=1e-12)


@pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("ell", [1.0, 1.38])
def test_occupancies_normalized_and_ordered(t, ell):
    p = occupancies(t, ell)
    assert abs(p.sum() - 1.0) < 1e-14
    assert np.all(p >= 0.0)
    nonzero = p[p > 0.0]
    assert np.all(np.diff(nonzero) < 0.0)  # strictly decreasing


def test_occupancies_high_temperature_limit():
    p_small = occupancies(1.0, 1.0)
    p_big = occupancies(1e4, 1.0)
    assert len(p_big) > len(p_small)  # truncation grows as sqrt(t)
    assert p_big[1] / p_big[0] > 0.999  # ratios flatten out


def test_occupancies_validation():
    with pytest.raises(ValidationError):
        occupancies(-0.1, 1.0)
    with pytest.raises(ValidationError):
        occupancies(math.nan, 1.0)
    with pytest.raises(ValidationError):
        occupancies(1.0, -1.0)
    with pytest.raises(ValidationError):
        occupancies(math.inf, 1.0)  # cannot truncate


def test_mean_force_reduces_to_zero_point_force():
    assert mean_wall_force(0.0, 1.0) == wall_force(1, 1.0)
    assert mean_wall_force(0.0, 1.38) == wall_force(1, 1.38)


def test_mean_force_direct_summation_oracle():
    n = np.arange(1, 21)
    w = np.exp(-(n**2 - 1.0))
    expected = float((w / w.sum() * 2 * n**2).sum())
    assert expected == pytest.approx(MEAN_FORCE_T1, rel=1e-13)
    assert mean_wall_force(1.0, 1.0) == pytest.approx(expected, rel=1e-13)


def test_mean_force_monotone_in_t():
    forces = [mean_wall_force(t, 1.38) for t in (0.0, 0.5, 1.0, 2.0)]
    assert all(b >= a for a, b in zip(forces, forces[1:]))
    for t in (0.0, 0.7, 3.0):
        assert mean_wall_force(t, 1.38) >= wall_force(1, 1.38)


@pytest.mark.parametrize("K", [0.5, 2.0, 100.0, 1e6])
def test_zero_temperature_reduction_is_exact(K):
    assert equilibrium_size_at_t(K, 0.0).ell_t == solve_equilibrium(K).ell


def test_self_consistent_size_at_t1():
    point = equilibrium_size_at_t(2.0, 1.0)
    assert point.ell_t > solve_equilibrium(2.0).ell
    assert point.ell_t == pytest.approx(ELL_K2_T1, abs=1e-9)
    assert point.ell_t == pytest.approx(fixed_point_ell(2.0, 1.0), abs=1e-9)
    assert abs(sum(point.occupancies) - 1.0) < 1e-14
    assert point.n_max == len(point.occupancies)
    assert point.alpha > 0.0


def test_size_non_decreasing_in_t():
    ells = [equilibrium_size_at_t(2.0, t).ell_t for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a for a, b in zip(ells, ells[1:]))
    floor = solve_equilibrium(2.0).ell
    assert all(e >= floor for e in ells)


@pytest.mark.parametrize("K", [100.0, 1e6])
def test_strain_saturates_below_characteristic_temperature(K):
    # the ground state dominates so completely that the strain is pinned
    assert abs(equilibrium_size_at_t(K, 0.1).ell_t - solve_equilibrium(K).ell) < 1e-8


@pytest.mark.parametrize("K, t", [(2.0, 1e4), (1e-10, 0.01)])
def test_self_consistent_size_far_from_the_zero_temperature_seed(K, t):
    point = equilibrium_size_at_t(K, t)
    force = mean_wall_force(t, point.ell_t)
    assert abs(K * (point.ell_t - 1.0) - force) / force <= 1e-12


@pytest.mark.parametrize("K", [0.5, 2.0, 200.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 5.0, 50.0])
def test_implicit_alpha_matches_finite_difference(K, t):
    alpha = equilibrium_size_at_t(K, t).alpha
    finite_difference = expansion_coefficient(K, t, step=t / 1000.0)
    assert alpha == pytest.approx(finite_difference, rel=1e-5)


@pytest.mark.parametrize("t", [0.0, 5e-4, 1e-3])
def test_alpha_nan_where_the_default_centered_step_crosses_zero(t):
    assert math.isnan(equilibrium_size_at_t(2.0, t).alpha)


@pytest.mark.parametrize("t", [1.5e-3, 0.05, 0.1])
def test_alpha_defined_just_above_the_default_step(t):
    alpha = equilibrium_size_at_t(2.0, t).alpha
    assert math.isfinite(alpha) and alpha >= 0.0


def test_alpha_undefined_at_zero_temperature():
    assert math.isnan(equilibrium_size_at_t(2.0, 0.0).alpha)


@pytest.mark.parametrize("K", [2.0, 100.0])
def test_expansion_vanishes_deep_in_the_saturated_regime(K):
    assert abs(expansion_coefficient(K, 0.05)) < 1e-10


def test_expansion_positive_near_t0():
    assert expansion_coefficient(2.0, 1.0) > 0.0


def test_expansion_step_halving_consistency():
    a = expansion_coefficient(2.0, 1.0, step=0.1)
    b = expansion_coefficient(2.0, 1.0, step=0.05)
    assert abs(a - b) < 0.05 * 0.1**2
    c = expansion_coefficient(2.0, 1.0, step=0.02)
    d = expansion_coefficient(2.0, 1.0, step=0.01)
    assert abs(c - d) < 0.05 * 0.02**2


def test_expansion_coefficient_validation():
    with pytest.raises(ValidationError):
        expansion_coefficient(2.0, 0.0)  # centered step would cross t = 0
    with pytest.raises(ValidationError):
        expansion_coefficient(2.0, 0.05, step=0.1)
    with pytest.raises(ValidationError):
        expansion_coefficient(2.0, 1.0, step=-0.1)


def test_thermal_sweep_single_zero_grid():
    points = thermal_sweep(2.0, [0.0])
    assert len(points) == 1
    assert points[0].ell_t == solve_equilibrium(2.0).ell


def test_thermal_sweep_monotone_and_deterministic():
    grid = [0.0, 0.5, 1.0, 2.0]
    a = thermal_sweep(2.0, grid)
    b = thermal_sweep(2.0, grid)
    ells = [p.ell_t for p in a]
    assert all(y >= x for x, y in zip(ells, ells[1:]))
    assert a == b  # bit-identical repeat


def test_thermal_sweep_grid_validation():
    with pytest.raises(ValidationError):
        thermal_sweep(2.0, [])
    with pytest.raises(ValidationError):
        thermal_sweep(2.0, [0.0, 0.0])
    with pytest.raises(ValidationError):
        thermal_sweep(2.0, [1.0, 0.5])
    with pytest.raises(ValidationError):
        thermal_sweep(2.0, [-1.0, 0.5])
    with pytest.raises(ValidationError):
        thermal_sweep(2.0, [0.0, math.inf])


def test_thermal_sweep_annotates_failing_temperature():
    with pytest.raises(NumericalError, match="t="):
        # forces a failure inside an element by making truncation impossible
        thermal_sweep(2.0, [0.0, 1e305])


@pytest.mark.parametrize(
    "fn, args", [(occupancies, (1.0, 1e-200)), (mean_wall_force, (0.0, 1e-120))]
)
def test_size_outside_the_float_safe_range_is_rejected(fn, args):
    with pytest.raises(ValidationError, match="ell"):
        fn(*args)


@pytest.mark.parametrize(
    "t, ell", [(1e-300, 1e-20), (5e-324, 1e-90), (1e-300, 1.0), (5e-324, 1.0)]
)
def test_temperature_far_below_the_level_spacing_leaves_the_ground_state(t, ell):
    # t ell^2 underflows (or nearly): every excited weight is exactly 0
    p = occupancies(t, ell)
    assert p[0] == 1.0 and np.all(p[1:] == 0.0)
    assert mean_wall_force(t, ell) == wall_force(1, ell)
