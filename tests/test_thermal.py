import math

import numpy as np
import pytest

from conftest import centered_expansion, fixed_point_ell, quartic_root
from zpbox import (
    NumericalError,
    ValidationError,
    equilibria,
    equilibrium_size_at_t,
    mean_wall_force,
    occupancies,
    solve_equilibrium,
    thermal_blocks,
    wall_force,
)

# direct-summation oracle at n_max = 20, frozen
MEAN_FORCE_T1 = 2.2895842090461342
# independent fixed-point oracle value, frozen
ELL_K2_T1 = 1.5220155134206608


def _size_at(K):
    """The box size at a temperature, for the centered-difference oracle."""
    return lambda t: equilibrium_size_at_t(K, t).ell_t


def _column(K, grid, name):
    """One column of thermal_blocks over a grid, as a list of floats."""
    return [v for b in thermal_blocks(K, grid) for v in getattr(b, name).tolist()]


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
    with pytest.raises(ValidationError, match="too large to truncate"):
        occupancies(1e308, 2.0)  # t ell^2 overflows


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
    finite_difference = centered_expansion(_size_at(K), t, t / 1000.0)
    assert alpha == pytest.approx(finite_difference, rel=1e-5)


# alpha is NaN for t <= 1e-3, where the centered difference's default step
# max(1e-3, t/100) would cross t = 0, and defined above
@pytest.mark.parametrize("t", [0.0, 5e-4, 1e-3])
def test_alpha_nan_where_the_default_centered_step_crosses_zero(t):
    assert math.isnan(equilibrium_size_at_t(2.0, t).alpha)


@pytest.mark.parametrize("t", [1.0000000000000002e-3, 1.5e-3, 0.05, 0.1])
def test_alpha_defined_just_above_the_default_step(t):
    alpha = equilibrium_size_at_t(2.0, t).alpha
    assert math.isfinite(alpha) and alpha >= 0.0


def test_alpha_undefined_at_zero_temperature():
    assert math.isnan(equilibrium_size_at_t(2.0, 0.0).alpha)


@pytest.mark.parametrize("K", [2.0, 100.0])
def test_expansion_vanishes_deep_in_the_saturated_regime(K):
    assert abs(centered_expansion(_size_at(K), 0.05)) < 1e-10
    assert abs(equilibrium_size_at_t(K, 0.05).alpha) < 1e-10


def test_expansion_positive_near_t0():
    assert centered_expansion(_size_at(2.0), 1.0) > 0.0


def test_expansion_step_halving_consistency():
    a = centered_expansion(_size_at(2.0), 1.0, 0.1)
    b = centered_expansion(_size_at(2.0), 1.0, 0.05)
    assert abs(a - b) < 0.05 * 0.1**2
    c = centered_expansion(_size_at(2.0), 1.0, 0.02)
    d = centered_expansion(_size_at(2.0), 1.0, 0.01)
    assert abs(c - d) < 0.05 * 0.02**2


def test_thermal_sweep_single_zero_grid():
    assert _column(2.0, [0.0], "ell") == [solve_equilibrium(2.0).ell]


def test_thermal_sweep_monotone_and_deterministic():
    grid = [0.0, 0.5, 1.0, 2.0]
    ells = _column(2.0, grid, "ell")
    assert all(y >= x for x, y in zip(ells, ells[1:]))
    a, b = list(thermal_blocks(2.0, grid)), list(thermal_blocks(2.0, grid))
    assert len(a) == len(b) > 1
    for x, y in zip(a, b):  # bit-identical repeat
        assert all(np.array_equal(u, v, equal_nan=True) for u, v in zip(x, y))


def test_thermal_sweep_grid_validation():
    # the column functions check their grids with the same validator
    columns = (lambda grid: list(thermal_blocks(2.0, grid)), equilibria)
    for solve in columns:
        with pytest.raises(ValidationError):
            solve([])
        with pytest.raises(ValidationError):
            solve([0.0, 0.0])
        with pytest.raises(ValidationError):
            solve([1.0, 0.5])
        with pytest.raises(ValidationError):
            solve([-1.0, 0.5])
        with pytest.raises(ValidationError):
            solve([0.0, math.inf])


def test_thermal_sweep_annotates_failing_temperature():
    # forces a failure inside an element by making truncation impossible
    message = "^temperature t = 1e\\+305 needs more than 1000000 levels$"
    with pytest.raises(NumericalError, match=message):
        list(thermal_blocks(2.0, [0.0, 1e305]))
    with pytest.raises(NumericalError, match=message):
        equilibrium_size_at_t(2.0, 1e305)


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


def test_a_temperature_of_minus_zero_is_zero():
    # -0.0 passes t >= 0; unfolded, 1/(t ell^2) is -inf and the weights NaN
    assert equilibrium_size_at_t(2.0, -0.0) == equilibrium_size_at_t(2.0, 0.0)
    assert np.array_equal(occupancies(-0.0), occupancies(0.0))
    assert mean_wall_force(-0.0) == mean_wall_force(0.0)


def test_thermal_sweep_solves_the_zero_temperature_equilibrium_once(monkeypatch):
    import zpbox.thermal

    calls = []

    def counted(K):
        calls.append(K)
        return solve_equilibrium(K)

    monkeypatch.setattr(zpbox.thermal, "solve_equilibrium", counted)
    assert len(_column(2.0, np.linspace(0.0, 5.0, 50), "ell")) == 50
    assert calls == [2.0]
    calls.clear()
    equilibrium_size_at_t(2.0, 1.0)
    assert calls == [2.0]


def _pairwise_sum(values):
    """Reference for the kernel's level sums: adjacent pairs, level by level."""
    values = list(values)
    while len(values) > 1:
        pairs = [a + b for a, b in zip(values[0::2], values[1::2])]
        values = pairs + values[-1:] if len(values) % 2 else pairs
    return values[0]


@pytest.mark.parametrize("K", [0.5, 2.0, 200.0])
def test_sweep_rows_equal_single_point_solves_bit_for_bit(K, monkeypatch):
    import zpbox.thermal

    def points(grid):  # each block's points, as equilibrium_size_at_t gives them
        columns = (b._replace(p=b.p.T) for b in thermal_blocks(K, grid))
        return [
            (t, ell, tuple(p[: int(n)]), f, a, int(n))
            for b in columns
            for t, ell, p, n, f, a in zip(*(c.tolist() for c in b))
        ]

    grid = np.linspace(0.0, 50.0, 41).tolist()
    expected = [tuple(equilibrium_size_at_t(K, t)) for t in grid]
    assert repr(points(grid)) == repr(expected)  # repr: nan equals nan
    assert repr(points(grid[1::3])) == repr(expected[1::3])
    assert repr(points(grid[40:])) == repr(expected[40:])
    monkeypatch.setattr(zpbox.thermal, "_BLOCK_CELLS", 1)  # one point per block
    assert repr(points(grid)) == repr(expected)


def test_kernel_sums_follow_the_reference_pairing():
    from zpbox.thermal import _states

    t = np.array([0.0, 0.05, 1.0, 7.5, 40.0, 3e4])
    ell = np.array([1.38, 1.2, 1.5, 2.0, 6.0, 30.0])
    # a one-point call, then all six: 4 to 32 000 levels, zero-padded
    for cols in (slice(2, 3), slice(None)):
        w_all, z_all, n_max, mean, var = _states(t[cols], ell[cols])
        p = w_all / z_all
        for j, (tj, lj) in enumerate(zip(t[cols].tolist(), ell[cols].tolist())):
            m = np.arange(1.0, n_max[j] + 1.0) ** 2 - 1.0
            w = np.exp(-m / (lj * lj * tj)) if tj else (m == 0.0) * 1.0
            z = _pairwise_sum(w.tolist())
            m1 = _pairwise_sum((w * m).tolist()) / z
            m2 = _pairwise_sum((w * m * m).tolist()) / z
            f1 = wall_force(1, lj)
            assert p[: m.size, j].tolist() == (w / z).tolist()
            assert not p[m.size :, j].any()
            assert mean[j] == f1 * (1.0 + m1)
            assert var[j] == f1 * f1 * (m2 - m1 * m1)
            # and both agree with the direct two-pass moments of F_n
            forces = [2.0 * k * k / lj**3 for k in range(1, m.size + 1)]
            pj = p[: m.size, j].tolist()
            direct = math.fsum(a * f for a, f in zip(pj, forces))
            assert mean[j] == pytest.approx(direct, rel=1e-14)
            spread = math.fsum(a * (f - direct) ** 2 for a, f in zip(pj, forces))
            assert var[j] == pytest.approx(spread, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("K, t, step", [(2.0, 1.0, None), (0.5, 20.0, 0.3)])
def test_expansion_coefficient_is_its_three_single_point_solves(K, t, step):
    # the centered difference over one three-point sweep, as over three solves
    h = max(1e-3, t / 100.0) if step is None else step
    sweep = dict(zip([t - h, t, t + h], _column(K, [t - h, t, t + h], "ell")))
    by_sweep = centered_expansion(sweep.__getitem__, t, step)
    assert by_sweep == centered_expansion(_size_at(K), t, step)


def test_sweep_names_the_first_of_two_failing_temperatures():
    grid = [0.0, 1.0, 1e305, 1e306]  # the last two fail, each in its own block
    with pytest.raises(NumericalError, match=r"^temperature t = 1e\+305 needs"):
        list(thermal_blocks(2.0, grid))


def test_failing_point_leaves_the_points_solved_beside_it(monkeypatch):
    import zpbox.thermal

    # one array holds both; at t = 1e4 the box needs ~840 levels at its
    # zero-temperature size and ~43 000 at its root, above the lowered cap
    expected = equilibrium_size_at_t(2.0, 1.0).ell_t
    monkeypatch.setattr(zpbox.thermal, "MAX_LEVEL", 10_000)
    block = zpbox.thermal._solve(solve_equilibrium(2.0), np.array([1.0, 1e4]))
    assert block.ell[0] == expected
    message = "temperature t = 10000.0 needs more than 10000 levels"
    with pytest.raises(ValidationError, match=message):
        zpbox.thermal._check(block.t, block.ell, block.n_max)
    with pytest.raises(NumericalError, match=message):
        equilibrium_size_at_t(2.0, 1e4)


@pytest.mark.parametrize("K", [0.5, 2.0, 200.0])
def test_dense_sweep_matches_the_fixed_point_oracle(K):
    grid = np.linspace(0.0, 5.0, 41)
    for t, ell in zip(grid.tolist(), _column(K, grid, "ell")):
        assert ell == pytest.approx(fixed_point_ell(K, t), rel=1e-12)
