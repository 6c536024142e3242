import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import box_nodes, mean_position, quad_strict, sign_changes
from zpbox import (
    DomainError,
    ValidationError,
    check_level,
    collision_frequency,
    count_nodes,
    energy_level,
    level_table,
    position_expectation,
    quantum_size,
    wall_force,
    wavefunction,
    wavenumber,
)
from zpbox import spectrum

SIZES = (1.0, 1.38, 2.0)


def test_energy_levels():
    assert energy_level(1, 1.0) == 1.0
    assert energy_level(3, 1.0) == 9.0
    assert energy_level(1, 2.0) == 0.25


@pytest.mark.parametrize("bad_n", [0, -1, 2.5, True, 1_000_001])
def test_energy_level_rejects_bad_n(bad_n):
    with pytest.raises(ValidationError):
        energy_level(bad_n, 1.0)


@pytest.mark.parametrize("bad_n", [True, np.True_, 3.0, np.float64(3.0)])
def test_check_level_rejects_bools_and_floats(bad_n):
    message = f"quantum number n must be an integer, got {bad_n!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        check_level(bad_n)


@pytest.mark.parametrize("bad_ell", [0.0, -1.0, math.nan, math.inf])
def test_energy_level_rejects_bad_ell(bad_ell):
    with pytest.raises(ValidationError):
        energy_level(1, bad_ell)


def test_wavefunction_values():
    assert wavefunction(1, 0.5, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert abs(wavefunction(2, 0.5, 1.0)) < 1e-12  # interior node at the center
    assert wavefunction(1, 0.0, 1.0) == 0.0
    assert abs(wavefunction(3, 1.0, 1.0)) < 1e-12  # wall boundary condition


def test_wavefunction_accepts_arrays():
    xs = np.linspace(0.0, 2.0, 7)
    vals = wavefunction(4, xs, 2.0)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert v == wavefunction(4, float(x), 2.0)


def test_wavefunction_domain_errors():
    with pytest.raises(DomainError):
        wavefunction(1, -0.01, 1.0)
    with pytest.raises(DomainError):
        wavefunction(1, 1.01, 1.0)
    with pytest.raises(DomainError):
        wavefunction(1, np.array([0.1, 1.2]), 1.0)
    with pytest.raises(DomainError):  # NaN compares false both ways
        wavefunction(1, [0.5, math.nan], 1.0)
    with pytest.raises(DomainError):
        wavefunction(1, math.nan, 1.0)


@pytest.mark.parametrize("x", [2**1100, [0.5, 2**1100]], ids=["scalar", "list"])
def test_wavefunction_at_an_int_past_the_float_range_is_a_domain_error(x):
    # np.asarray(2**1100, dtype=float) raises OverflowError
    with pytest.raises(DomainError, match=r"^position x must lie in \[0, 1.0\]"):
        wavefunction(1, x, 1.0)


def test_position_expectation_is_half_the_box():
    assert position_expectation(1, 1.0) == 0.5
    assert position_expectation(5, 1.0) == 0.5
    assert position_expectation(1, 2.0) == 1.0
    assert position_expectation(100_000, 1.3) == 0.65


def test_wall_force_values_and_energy_identity():
    assert wall_force(1, 1.0) == 2.0
    assert wall_force(2, 1.0) == 8.0
    assert wall_force(1, 2.0) == 0.25
    for n in (1, 3, 17):
        for ell in SIZES:
            assert wall_force(n, ell) == 2.0 * energy_level(n, ell) / ell


@pytest.mark.parametrize("n,ell", [(1, 1.0), (2, 1.38), (9, 2.0), (40, 0.7)])
def test_wall_force_matches_finite_difference(n, ell):
    delta = 1e-5
    fd = -(energy_level(n, ell + delta) - energy_level(n, ell - delta)) / (2 * delta)
    assert wall_force(n, ell) == pytest.approx(fd, rel=1e-8)


def test_collision_impulse_identity():
    # impulse per collision (2 q) times rate reproduces the wall force
    prod = 2.0 * wavenumber(1, 1.0) * collision_frequency(1, 1.0)
    assert prod == pytest.approx(wall_force(1, 1.0), rel=1e-15)
    for n in (2, 5, 23):
        for ell in SIZES:
            prod = 2.0 * wavenumber(n, ell) * collision_frequency(n, ell)
            assert prod == pytest.approx(wall_force(n, ell), rel=1e-15)


def test_collision_frequency_scalings():
    assert collision_frequency(2, 1.0) / collision_frequency(1, 1.0) == 2.0
    assert collision_frequency(1, 2.0) / collision_frequency(1, 1.0) == 0.25


def test_quantum_size():
    assert quantum_size(1, 1.0) == 1.0  # ground state fills the whole box
    assert quantum_size(4, 1.0) == 0.25
    assert quantum_size(2, 2.0) == 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
@pytest.mark.parametrize("ell", SIZES)
def test_normalization(n, ell):
    norm = quad_strict(
        lambda x: wavefunction(n, x, ell) ** 2, 0.0, ell, box_nodes(n, ell)
    )
    assert norm == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 12, 5000])
def test_interior_node_count(n):
    for ell in SIZES:
        assert count_nodes(n, ell) == n - 1


@pytest.mark.parametrize("ell", SIZES)
@pytest.mark.parametrize("levels", [range(1, 51), [5000]], ids=["n<=50", "n=5000"])
def test_closed_forms_match_the_sampled_eigenfunction(levels, ell):
    for n in levels:
        assert count_nodes(n, ell) == sign_changes(n, ell)
        assert position_expectation(n, ell) == pytest.approx(
            mean_position(n, ell), abs=1e-10
        )


@pytest.mark.parametrize("n,ell", [(1, 1.0), (2, 1.0), (6, 1.38), (11, 2.0)])
def test_momentum_moments(n, ell):
    # psi is an eigenfunction of -d2/dx2, not of -i d/dx: the first moment
    # vanishes while the second equals (n pi / ell)^2
    w = n * math.pi / ell
    amp = math.sqrt(2.0 / ell)

    def psi(x):
        return amp * math.sin(w * x)

    def dpsi(x):
        return amp * w * math.cos(w * x)

    first = quad_strict(lambda x: psi(x) * dpsi(x), 0.0, ell, box_nodes(n, ell))
    second = quad_strict(
        lambda x: psi(x) * w * w * psi(x), 0.0, ell, box_nodes(n, ell)
    )
    assert abs(first) < 1e-10  # the -i prefactor multiplies a vanishing integral
    assert second == pytest.approx(w * w, abs=1e-8)


@pytest.mark.parametrize("n,ell", [(1, 1.0), (5, 1.0), (30, 2.0)])
def test_plane_wave_superposition(n, ell):
    q = n * math.pi / ell
    amp = math.sqrt(2.0 / ell)
    xs = np.linspace(0.0, ell, 1000)
    for x in xs:
        standing = amp * (cmath.exp(1j * q * x) - cmath.exp(-1j * q * x)) / 2j
        assert abs(standing.imag) < 1e-12
        assert standing.real == pytest.approx(
            float(wavefunction(n, float(x), ell)), abs=1e-12
        )


@pytest.mark.parametrize(
    "fn, args",
    [
        (energy_level, (1, 1e-200)),
        (collision_frequency, (1, 1e-200)),
        (wall_force, (1, 1e-120)),
        (wavefunction, (1, 2e-309, 5e-309)),
        (energy_level, (1, math.nextafter(1e-90, 0.0))),
        (energy_level, (1, math.nextafter(1e90, math.inf))),
    ],
)
def test_size_outside_the_float_safe_range_is_rejected(fn, args):
    with pytest.raises(ValidationError, match="ell"):
        fn(*args)


@pytest.mark.parametrize("fn", [count_nodes, position_expectation])
def test_closed_forms_still_check_their_inputs(fn):
    with pytest.raises(ValidationError, match="quantum number n"):
        fn(0, 1.0)
    with pytest.raises(ValidationError, match="box size ell"):
        fn(1, 1e-200)


@pytest.mark.parametrize("ell", [1e-90, 1e90])
@pytest.mark.parametrize("n", [1, spectrum.MAX_LEVEL])
def test_levels_are_finite_and_exact_at_the_ends_of_the_size_range(n, ell):
    energy = Fraction(n) ** 2 / Fraction(ell) ** 2
    assert energy_level(n, ell) == pytest.approx(float(energy), rel=1e-15, abs=0)
    force = 2 * energy / Fraction(ell)
    assert wall_force(n, ell) == pytest.approx(float(force), rel=1e-15, abs=0)
    rate = float(Fraction(n) / Fraction(ell) ** 2) / math.pi
    assert collision_frequency(n, ell) == pytest.approx(rate, rel=1e-15, abs=0)
    peak = wavefunction(1, 0.5 * ell, ell)
    assert peak == pytest.approx(math.sqrt(2.0 / ell), rel=1e-15, abs=0)


@pytest.mark.parametrize("ell", [spectrum.MIN_SIZE, 1.0, 1.38, spectrum.MAX_SIZE])
def test_level_table_equals_the_scalar_functions_bit_for_bit(ell):
    table = level_table(spectrum.MAX_LEVEL, ell)
    rng = np.random.default_rng(7)
    levels = [1, 2, *rng.integers(3, spectrum.MAX_LEVEL, 500), spectrum.MAX_LEVEL]
    assert table["n"].tolist() == list(range(1, spectrum.MAX_LEVEL + 1))
    for name, fn in [
        ("energy", energy_level),
        ("wall_force", wall_force),
        ("collision_frequency", collision_frequency),
        ("quantum_size", quantum_size),
    ]:
        assert table[name].dtype == np.float64
        assert [table[name][n - 1].item() for n in levels] == [
            fn(int(n), ell) for n in levels
        ]
