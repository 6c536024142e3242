import math
import random

import numpy as np
import pytest

from conftest import (
    golden_section_fraction,
    logspace_grid,
    quartic_root,
    strain_bisection,
)
from zpbox import (
    DomainError,
    ValidationError,
    binding_energy,
    effective_stiffness,
    minimize_oracle,
    perturbed_energy,
    solve_equilibrium,
    total_energy,
)
from zpbox.equilibrium import _solve_strain

# bisection oracle values, frozen (tol 1e-14 on the quartic root)
ELL_K2 = 1.3802775690976143
ELL_K100 = 1.0189071539780987


def test_total_energy_reference_points():
    for K in (0.5, 2.0, 100.0):
        assert total_energy(0.0, K) == 1.0
    assert total_energy(1.0, 2.0) == 1.25


def test_total_energy_asymptotics():
    assert total_energy(1e6, 2.0) > 0.99 * 0.5 * 2.0 * 1e12
    assert total_energy(-1.0 + 1e-9, 2.0) > 1e17


def test_total_energy_excited_levels():
    assert total_energy(0.0, 2.0, n=3) == 9.0
    with pytest.raises(ValidationError):
        total_energy(0.0, 2.0, n=0)


def test_total_energy_domain_and_validation():
    with pytest.raises(DomainError, match="collapse"):
        total_energy(-1.0, 2.0)
    with pytest.raises(DomainError):
        total_energy(-1.5, 2.0)
    for bad_K in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            total_energy(0.1, bad_K)


def test_solve_equilibrium_k2_matches_bisection_oracle():
    sol = solve_equilibrium(2.0)
    assert sol.ell == pytest.approx(quartic_root(2.0), abs=1e-12)
    assert sol.ell == pytest.approx(ELL_K2, abs=1e-12)
    assert sol.residual < 1e-12
    assert sol.strain == pytest.approx(sol.ell - 1.0, abs=1e-14)


def test_solve_equilibrium_k100():
    sol = solve_equilibrium(100.0)
    assert sol.ell == pytest.approx(ELL_K100, abs=1e-12)
    assert sol.ell == pytest.approx(1.0190, abs=1e-4)


def test_stiff_limit_strain():
    sol = solve_equilibrium(1e6)
    assert abs(sol.strain - 2e-6) / 2e-6 < 1e-5


@pytest.mark.parametrize("bad", [0.0, -3.0, math.inf, math.nan])
def test_solve_equilibrium_rejects_bad_K(bad):
    with pytest.raises(ValidationError):
        solve_equilibrium(bad)


def test_binding_energy_values():
    sol = solve_equilibrium(2.0)
    exact, first = binding_energy(sol)
    assert exact == sol.binding_exact
    assert first == sol.binding_first_order
    assert exact == pytest.approx(-0.3305003717848045, rel=1e-12)
    assert first == pytest.approx(-0.14461102955879068, rel=1e-12)
    # at K = 100 the first-order form is good to ~6 percent
    sol100 = solve_equilibrium(100.0)
    e, f = binding_energy(sol100)
    assert abs(e - f) / abs(e) < 0.06
    # stiff-wall limit: no strain, no binding
    e_stiff, f_stiff = binding_energy(solve_equilibrium(1e10))
    assert -1e-9 < e_stiff < 0.0
    assert -1e-9 < f_stiff < 0.0


def test_effective_stiffness_values():
    sol = solve_equilibrium(2.0)
    assert effective_stiffness(sol) == sol.effective_stiffness
    assert sol.effective_stiffness == pytest.approx(2.0 + 6.0 / ELL_K2**4, rel=1e-12)
    assert sol.effective_stiffness == pytest.approx(3.653, abs=1e-3)
    stiff = solve_equilibrium(1e10)
    assert stiff.effective_stiffness / stiff.K == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("K", [2.0, 100.0, 1e6])
def test_effective_stiffness_matches_curvature(K):
    sol = solve_equilibrium(K)
    h = 1e-4
    curve = (
        total_energy(sol.strain + h, K)
        - 2.0 * total_energy(sol.strain, K)
        + total_energy(sol.strain - h, K)
    ) / h**2
    assert abs(curve - sol.effective_stiffness) < 1e-6


def test_perturbed_energy_at_equilibrium():
    sol = solve_equilibrium(2.0)
    e_min = 1.0 / sol.ell**2 + 0.5 * sol.K * sol.strain**2
    assert perturbed_energy(sol, 0.0, +1) == e_min
    assert perturbed_energy(sol, 0.0, -1) == e_min
    assert perturbed_energy(sol, 0.0, +1) == total_energy(sol.strain, sol.K)


def test_perturbed_energy_linear_term_cancels():
    sol = solve_equilibrium(2.0)
    eta = 1e-6
    slope = (perturbed_energy(sol, eta, +1) - perturbed_energy(sol, eta, -1)) / (
        2.0 * eta
    )
    assert abs(slope) < 1e-10


def test_perturbed_energy_quadratic_term_is_k_prime():
    sol = solve_equilibrium(2.0)
    e_min = perturbed_energy(sol, 0.0, +1)
    curvatures = []
    for eta in (1e-3, 1e-4):
        c = (
            perturbed_energy(sol, eta, +1) + perturbed_energy(sol, eta, -1) - 2 * e_min
        ) / eta**2
        curvatures.append(c)
    # converges toward K' as eta shrinks
    assert abs(curvatures[1] - sol.effective_stiffness) < abs(
        curvatures[0] - sol.effective_stiffness
    ) + 1e-9
    assert curvatures[1] == pytest.approx(sol.effective_stiffness, rel=1e-6)


def test_perturbed_energy_domain():
    sol = solve_equilibrium(2.0)
    with pytest.raises(DomainError):
        perturbed_energy(sol, sol.strain, +1)
    with pytest.raises(DomainError):
        perturbed_energy(sol, 1.5 * sol.strain, -1)
    with pytest.raises(ValidationError):
        perturbed_energy(sol, 0.0, 2)


def test_minimize_oracle_matches_solver():
    assert 1.0 + minimize_oracle(2.0) == pytest.approx(ELL_K2, abs=1e-9)
    y = minimize_oracle(1e6)
    assert abs(y - 2e-6) / 2e-6 < 1e-5


@pytest.mark.parametrize("K", [0.5, 2.0, 100.0])
def test_minimize_oracle_returns_a_minimum(K):
    y = minimize_oracle(K)
    assert total_energy(y, K) <= total_energy(y + 1e-6, K)
    assert total_energy(y, K) <= total_energy(y - 1e-6, K)


def test_grid_monotonicity_oracle_agreement_and_force_balance():
    grid = logspace_grid(-2, 8, 9)
    ells = []
    for K in grid:
        sol = solve_equilibrium(K)
        ells.append(sol.ell)
        assert sol.ell > 1.0
        assert sol.residual < 1e-12
        assert abs(sol.K * sol.strain * sol.ell**3 - 2.0) < 1e-10
        assert abs(sol.ell - (1.0 + minimize_oracle(K))) < 1e-9
        assert sol.binding_exact < 0.0
        assert sol.binding_first_order < 0.0
        assert sol.effective_stiffness > sol.K
    assert all(b < a for a, b in zip(ells, ells[1:]))


def test_first_order_binding_converges_linearly_in_strain():
    gaps = []
    strains = []
    for K in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        sol = solve_equilibrium(K)
        gaps.append(abs(sol.binding_exact - sol.binding_first_order) / abs(sol.binding_exact))
        strains.append(sol.strain)
    for gap, strain in zip(gaps, strains):
        assert gap <= 4.0 * strain
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_solver_is_deterministic():
    a = solve_equilibrium(7.3)
    b = solve_equilibrium(7.3)
    assert a == b


def test_strain_matches_bisection_oracle_over_the_float_range():
    failures = []
    strains = []
    for e in range(-300, 301):
        K = 10.0**e
        sol = solve_equilibrium(K)
        strains.append(sol.strain)
        expected = strain_bisection(K)
        if not abs(sol.strain - expected) <= 4.0 * math.ulp(expected):
            failures.append(f"K=1e{e}: strain {sol.strain!r} vs {expected!r}")
        if not sol.residual < 1e-12:
            failures.append(f"K=1e{e}: residual {sol.residual!r}")
    assert not failures, failures[:5]
    # one array solve over the same K gives the scalar strains bit for bit
    array = _solve_strain(np.array([10.0**e for e in range(-300, 301)]))
    assert array.tolist() == strains


def test_array_strain_does_not_depend_on_the_order_of_the_elements():
    rng = random.Random(5)
    grid = [10.0 ** rng.uniform(-300, 300) for _ in range(500)]
    grid += [5e-324, 1e-16, 1.0, 3.7, 1.7976931348623157e308]
    expected = dict(zip(grid, _solve_strain(np.array(grid)).tolist()))
    for order in (grid[::-1], rng.sample(grid, len(grid))):
        assert dict(zip(order, _solve_strain(np.array(order)).tolist())) == expected
    assert all(expected[K] == _solve_strain(K) for K in grid)


@pytest.mark.parametrize("K", [1e-16, 1e-40, 1e-120, 1e-300])
def test_minimize_oracle_finds_the_minimum_of_the_softest_springs(K):
    expected = strain_bisection(K)
    assert abs(minimize_oracle(K) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("K", [1e8, 1e16, 1e100, 1.7976931348623157e308])
def test_minimize_oracle_finds_the_minimum_of_the_stiffest_springs(K):
    # y* is far below any absolute tolerance here, so only a relative one holds
    expected = strain_bisection(K)
    y = minimize_oracle(K)
    assert y > 0.0
    assert abs(y - expected) <= 1e-12 * expected


def test_minimize_oracle_at_the_smallest_subnormal_stiffness():
    expected = strain_bisection(5e-324)
    assert abs(minimize_oracle(5e-324) - expected) <= 1e-12 * expected


def test_minimize_oracle_equals_the_fraction_golden_section_bit_for_bit():
    rng = random.Random(11)
    grid = [10.0**e for e in range(-300, 301, 25)]
    grid += [5e-324, 1.7976931348623157e308]
    grid += [10.0 ** rng.uniform(-2, 8) for _ in range(50)]
    mismatches = [
        K for K in grid if minimize_oracle(K) != golden_section_fraction(K)
    ]
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("K", [0.5, 2.0, 1e6, 1e-200, 1e200])
def test_residual_is_relative_to_the_zero_point_force(K):
    sol = solve_equilibrium(K)
    balance = 2.0 * (1.0 / sol.ell) ** 3
    expected = abs(K * sol.strain - balance) / balance
    assert sol.residual == pytest.approx(expected, rel=1e-9, abs=1e-18)
