import math
import re

import numpy as np
import pytest

from conftest import verlet_breathing_frequency
from zpbox import (
    STEPS_PER_PERIOD,
    AnalysisError,
    DomainError,
    NumericalError,
    ValidationError,
    energy_exchange_stats,
    integrate,
    measured_frequency,
    perturbed_energy,
    restoring_force,
    solve_equilibrium,
    time_step,
    verlet_frequency,
)

MU = 1000.0


@pytest.fixture(scope="module")
def sol2():
    return solve_equilibrium(2.0)


@pytest.fixture(scope="module")
def sol100():
    return solve_equilibrium(100.0)


@pytest.mark.parametrize("K", [2.0, 100.0, 1e6])
def test_restoring_force_vanishes_at_equilibrium(K):
    assert abs(restoring_force(0.0, solve_equilibrium(K))) < 1e-12


def test_restoring_force_linearizes_to_k_prime(sol2):
    y = 1e-8
    assert -restoring_force(y, sol2) / y == pytest.approx(
        sol2.effective_stiffness, rel=1e-6
    )


def test_restoring_force_matches_energy_gradient(sol2):
    y = 0.1 * sol2.strain
    delta = 1e-6
    fd = -(
        perturbed_energy(sol2, y + delta) - perturbed_energy(sol2, y - delta)
    ) / (2.0 * delta)
    assert restoring_force(y, sol2) == pytest.approx(fd, abs=1e-8)


def test_restoring_force_box_collapse(sol2):
    with pytest.raises(DomainError, match="collapse"):
        restoring_force(-sol2.ell, sol2)


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_restoring_force_rejects_a_non_finite_displacement(sol2, y):
    with pytest.raises(ValidationError, match=r"^displacement y must be finite"):
        restoring_force(y, sol2)


@pytest.mark.parametrize("K, y", [(2.0, 1e103), (5e-324, 6e102), (1e8, 1e154)])
def test_restoring_force_past_the_cube_overflow_is_the_spring_pull(K, y):
    # (ell + y)**3 overflows past 5.6e102, where the push 2/(ell + y)**3 is far
    # below an ulp of the pull; at 1e102, where the cube is finite, adding the
    # push leaves the pull unchanged
    sol = solve_equilibrium(K)
    assert restoring_force(y, sol) == -sol.K * (sol.strain + y)
    pull = sol.K * (sol.strain + 1e102)
    assert 2.0 / (sol.ell + 1e102) ** 3 - pull == -pull == restoring_force(1e102, sol)


def test_rest_at_equilibrium_stays_fixed(sol2):
    traj = integrate(sol2, MU, y0=0.0, v0=0.0, n_steps=100_000)
    assert np.abs(traj.eta).max() < 1e-14
    assert np.ptp(traj.total_energy) <= 1e-15 * traj.total_energy[0]


@pytest.mark.parametrize("K", [1e8, 1e12, 1e14])
def test_stiff_spring_moves_about_the_solved_strain(K):
    # here the strain is far below the float resolution of ell - 1, so a
    # spring force formed from ell would push the box off its equilibrium
    sol = solve_equilibrium(K)
    rest = integrate(sol, MU, y0=0.0, n_steps=20_000)
    assert np.abs(rest.eta).max() <= 1e-12 * sol.strain
    y0 = 1e-4 * sol.strain
    traj = integrate(sol, MU, y0=y0, n_steps=20_000)
    assert abs(traj.eta.mean()) <= 1e-3 * y0


def test_integrate_validation(sol2):
    with pytest.raises(DomainError):
        integrate(sol2, MU, y0=sol2.strain)
    with pytest.raises(DomainError):
        integrate(sol2, MU, y0=-1.01 * sol2.strain)
    with pytest.raises(ValidationError):
        integrate(sol2, 0.0, y0=0.0)
    with pytest.raises(ValidationError):
        integrate(sol2, MU, y0=0.0, dt=-0.1)
    with pytest.raises(ValidationError):
        integrate(sol2, MU, y0=0.0, n_steps=0)
    with pytest.raises(ValidationError):
        integrate(sol2, MU, y0=0.0, record_every=0)
    for v0 in (math.nan, math.inf, -math.inf):  # not an all-NaN trajectory
        with pytest.raises(ValidationError, match="v0 must be finite"):
            integrate(sol2, MU, y0=0.0, v0=v0)


def test_velocity_that_carries_the_wall_past_the_cube_overflow_fails(sol2):
    # the wall runs out ~1.6e103 box sizes, where (ell + y)**3 is inf and the
    # push 0; the spring swings it back through the box, which collapses
    with pytest.raises(NumericalError, match=r"^box collapse at step 676$"):
        integrate(sol2, MU, y0=0.0, v0=1e102)
    traj = integrate(sol2, MU, y0=0.0, v0=1e101, n_steps=600)
    assert np.isfinite(traj.total_energy).all()


def test_energies_past_the_float_range_fail():
    # the wall moves finitely, but (mu/2) v**2 = 4.5e309 overflows
    with pytest.raises(NumericalError, match=r"^an energy overflows the float range"):
        integrate(solve_equilibrium(1e300), 1000.0, y0=0.0, v0=3e153, n_steps=400)


def test_restoring_force_past_the_float_range_fails():
    # K (strain + y) = 1e310 overflows
    with pytest.raises(NumericalError, match=r"^the spring pull .* overflows"):
        restoring_force(1e300, solve_equilibrium(1e10))


@pytest.mark.parametrize("dt_factor, stable", [(3.0, False), (3.1, False), (3.2, True)])
def test_time_step_past_the_verlet_stability_limit_is_rejected(sol2, dt_factor, stable):
    # omega dt = 2 pi/dt_factor; velocity Verlet is stable only below 2, and
    # past it 20 steps from y0 grow |eta| to 350 y0 (3.1) or 3.6e7 y0 (3.0)
    dt = 2.0 * math.pi / (dt_factor * math.sqrt(sol2.effective_stiffness / MU))
    y0 = 1e-4 * sol2.strain
    if stable:
        traj = integrate(sol2, MU, y0=y0, dt=dt, n_steps=20)
        assert np.abs(traj.eta).max() <= 1.001 * y0
    else:
        with pytest.raises(ValidationError, match="time step dt"):
            integrate(sol2, MU, y0=y0, dt=dt, n_steps=20)


def test_time_step_resolves_one_period_with_steps_per_period_steps(sol2):
    omega, dt = time_step(sol2, MU)
    assert omega == math.sqrt(sol2.effective_stiffness / MU)
    assert dt == 2.0 * math.pi / (STEPS_PER_PERIOD * omega)
    assert time_step(sol2, MU, 6.0)[1] == 2.0 * math.pi / (6.0 * omega)


@pytest.mark.parametrize("steps", [3.0, 0.0, -5.0, math.nan, 1e-320])
def test_time_step_error_is_led_by_the_name_given(sol2, steps):
    # omega dt = 2 pi/3 >= 2; otherwise 2 pi/(steps omega) is inf or undefined
    if steps == 3.0:
        message = r"gives omega\*dt = 2.09.* >= 2, past velocity Verlet's"
    else:
        message = "gives no positive, finite time step"
    with pytest.raises(ValidationError, match=f"^--flags {message}"):
        time_step(sol2, MU, steps, name="--flags")
    lead = re.escape(f"mu {MU!r} with steps_per_period {steps!r} ")
    with pytest.raises(ValidationError, match=f"^{lead}{message}"):
        time_step(sol2, MU, steps)


def test_default_time_step_where_omega_underflows_is_a_validation_error():
    # K'/mu underflows to 0, so omega is 0 and 2 pi/(steps omega) has no value
    sol = solve_equilibrium(1e-28)
    with pytest.raises(ValidationError, match="no positive, finite time step"):
        integrate(sol, 1e300, y0=0.0)
    with pytest.raises(ValidationError, match="wall mass ratio mu"):
        time_step(sol, 0.0)


def test_box_collapse_reports_step(sol2):
    with pytest.raises(NumericalError, match=r"step \d+"):
        integrate(sol2, MU, y0=0.0, v0=-10.0, n_steps=1000)


def test_integration_is_deterministic(sol2):
    a = integrate(sol2, MU, y0=1e-3 * sol2.strain, n_steps=2000)
    b = integrate(sol2, MU, y0=1e-3 * sol2.strain, n_steps=2000)
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.total_energy, b.total_energy)


# a stride of 1, one that leaves a remainder, one that divides n_steps and
# one longer than the run
def test_a_stride_past_the_run_samples_its_first_and_last_steps(sol2):
    # np.arange(0, 10 + 2**60, 2**60) loses its second element in float
    far = integrate(sol2, 1e3, 0.0, n_steps=10, record_every=2**60)
    run = integrate(sol2, 1e3, 0.0, n_steps=10, record_every=10)
    assert all(np.array_equal(a, b) for a, b in zip(far, run, strict=True))
    assert len(far.times) == 2


@pytest.mark.parametrize("count", ["n_steps", "record_every"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_count_that_is_not_finite_is_a_validation_error(sol2, count, value):
    with pytest.raises(ValidationError, match=f"^{count} must be an integer"):
        integrate(sol2, 1e3, 0.0, **{"n_steps": 10, count: value})


@pytest.mark.parametrize("count", ["n_steps", "record_every"])
@pytest.mark.parametrize("value", [2.5, 10.0, True, np.float64(3.0)])
def test_a_count_that_is_not_an_integer_is_a_validation_error(sol2, count, value):
    # int() truncated 2.5 to 2
    with pytest.raises(ValidationError, match=f"^{count} must be an integer"):
        integrate(sol2, 1e3, 0.0, **{"n_steps": 10, count: value})


@pytest.mark.parametrize(
    "omega, dt, message",
    [
        (3.0, 1.0, r"time step dt = 1.0 gives omega\*dt = 3.0 >= 2"),
        (1.0, 2.0, r"time step dt = 2.0 gives omega\*dt = 2.0 >= 2"),
        (math.nan, 1.0, "angular frequency omega must be positive"),
        (-1.0, 1.0, "angular frequency omega must be positive"),
        (0.0, 1.0, "angular frequency omega must be positive"),
        (math.inf, 1.0, "angular frequency omega must be positive"),
        (1.0, -1.0, "time step dt must be positive"),
        (1.0, math.nan, "time step dt must be positive"),
        (1.0, 0.0, "time step dt must be positive"),
    ],
)
def test_verlet_frequency_rejects_what_has_no_real_frequency(omega, dt, message):
    with pytest.raises(ValidationError, match=f"^{message}"):
        verlet_frequency(omega, dt)


@pytest.mark.parametrize(
    "omega, dt, expected",
    [
        # 2/dt overflows: omega asin(x)/x, x = omega dt/2, and omega at x = 0
        (1.0, 5e-324, 1.0),
        (1.0, 1e-310, 1.0),
        (1e308, 1e-308, 1.047197551196598e308),
        # elsewhere the formula as written, which omega_verlet reports
        (1.0, 1e-3, 2.0 / 1e-3 * math.asin(1.0 * 1e-3 / 2.0)),
        (3.0, 0.5, 2.0 / 0.5 * math.asin(3.0 * 0.5 / 2.0)),
    ],
)
def test_verlet_frequency_at_a_subnormal_dt_is_finite(omega, dt, expected):
    assert verlet_frequency(omega, dt) == expected


@pytest.mark.parametrize(
    "omega, dt",
    [
        (1.7e308, 1e-308),  # 2/dt overflows, and so does omega asin(x)/x
        (1.6e308, 1.2e-308),  # 2/dt is finite, (2/dt) asin(x) is not
    ],
)
def test_verlet_frequency_past_the_float_range_is_a_numerical_error(omega, dt):
    # both returned inf
    with pytest.raises(NumericalError, match="^the Verlet frequency overflows"):
        verlet_frequency(omega, dt)


def test_time_step_reads_steps_per_period_as_a_python_float(sol2):
    # np.float32(2000.0) * omega stayed in float32: dt was 0.051978312
    omega, dt = time_step(sol2, MU, np.float32(2000.0))
    assert (omega, dt) == time_step(sol2, MU, 2000.0)
    assert type(dt) is float


@pytest.mark.parametrize("record_every", [1, 7, 100, 1000])
def test_record_stride_subsamples_the_same_path(sol2, record_every):
    full = integrate(sol2, MU, y0=1e-3 * sol2.strain, n_steps=100)
    strided = integrate(
        sol2, MU, y0=1e-3 * sol2.strain, n_steps=100, record_every=record_every
    )
    steps = sorted({*range(0, 100, record_every), 100})
    assert len(strided.eta) == len(steps)
    assert strided.times[-1] == full.times[-1]
    for k, step in enumerate(steps):
        assert strided.times[k] == full.times[step]
        assert strided.eta[k] == full.eta[step]
        assert strided.velocity[k] == full.velocity[step]


def test_energy_bookkeeping(sol2):
    traj = integrate(sol2, MU, y0=1e-2 * sol2.strain, n_steps=500)
    sizes = sol2.ell + traj.eta
    assert np.array_equal(traj.particle_energy, 1.0 / (sizes * sizes))
    assert np.array_equal(
        traj.total_energy,
        traj.particle_energy + traj.strain_energy + traj.kinetic_energy,
    )
    assert np.all(sizes > 0.0)


def test_energy_conservation_short_run(sol2):
    traj = integrate(sol2, MU, y0=1e-4 * sol2.strain, n_steps=100_000)
    drift = np.abs(traj.total_energy - traj.total_energy[0]).max()
    assert drift / traj.total_energy[0] < 1e-9


def test_time_reversal(sol2):
    y0 = 1e-2 * sol2.strain
    forward = integrate(sol2, MU, y0=y0, v0=0.0, n_steps=5000)
    back = integrate(
        sol2,
        MU,
        y0=float(forward.eta[-1]),
        v0=-float(forward.velocity[-1]),
        n_steps=5000,
    )
    assert abs(float(back.eta[-1]) - y0) < 1e-9
    assert abs(float(back.velocity[-1])) < 1e-9


def test_small_amplitude_frequency(sol2):
    omega_h = math.sqrt(sol2.effective_stiffness / MU)
    traj = integrate(sol2, MU, y0=1e-4 * sol2.strain, n_steps=50_000)
    assert measured_frequency(traj) == pytest.approx(omega_h, rel=1e-3)


def test_frequency_scales_with_wall_inertia(sol2):
    w1 = measured_frequency(
        integrate(sol2, MU, y0=1e-4 * sol2.strain, n_steps=50_000)
    )
    w2 = measured_frequency(
        integrate(sol2, 2 * MU, y0=1e-4 * sol2.strain, n_steps=70_000)
    )
    assert w2 / w1 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)


def test_anharmonic_amplitude_raises_frequency_error(sol2):
    omega_h = math.sqrt(sol2.effective_stiffness / MU)
    _, dt = time_step(sol2, MU)
    small = integrate(sol2, MU, y0=1e-4 * sol2.strain, dt=dt, n_steps=50_000)
    large = integrate(sol2, MU, y0=0.5 * sol2.strain, dt=dt, n_steps=50_000)
    err_small = abs(measured_frequency(small) - omega_h)
    err_large = abs(measured_frequency(large) - omega_h)
    assert err_large > err_small


@pytest.mark.parametrize("K", [2.0, 100.0])
@pytest.mark.parametrize("amplitude", [1e-3, 1e-2])  # of the strain
def test_measured_frequency_matches_the_verlet_anharmonic_reference(K, amplitude):
    # half periods alternate long and short, so averaging an odd count of
    # them would be off by up to 5.9e-6 here, 3.5 times the shift itself
    sol = solve_equilibrium(K)
    omega, dt = time_step(sol, MU)
    y0 = amplitude * sol.strain
    traj = integrate(sol, MU, y0=y0, dt=dt, n_steps=20 * STEPS_PER_PERIOD)
    expected = verlet_breathing_frequency(K, MU, dt, y0)
    assert measured_frequency(traj) == pytest.approx(expected, rel=1e-8)
    linear = verlet_breathing_frequency(K, MU, dt, 0.0)
    assert verlet_frequency(omega, dt) == pytest.approx(linear, rel=1e-13)


def test_frequency_needs_crossings(sol2):
    rest = integrate(sol2, MU, y0=0.0, n_steps=1000)
    with pytest.raises(AnalysisError):
        measured_frequency(rest)


@pytest.mark.parametrize("K", [2.0, 100.0])
def test_particle_and_strain_energy_anticorrelate(K):
    sol = solve_equilibrium(K)
    traj = integrate(sol, MU, y0=1e-4 * sol.strain, n_steps=30_000)
    corr, defect = energy_exchange_stats(traj)
    assert -1.0 <= corr < -0.99
    assert defect < 1e-3


def test_antisymmetry_defect_shrinks_linearly(sol2):
    defects = {}
    for frac in (1e-3, 1e-4):
        traj = integrate(sol2, MU, y0=frac * sol2.strain, n_steps=20_000)
        defects[frac] = energy_exchange_stats(traj)[1]
    ratio = defects[1e-3] / defects[1e-4]
    assert 5.0 < ratio < 20.0


def test_exchange_stats_degenerate_inputs(sol2):
    rest = integrate(sol2, MU, y0=0.0, n_steps=1000)
    with pytest.raises(AnalysisError):
        energy_exchange_stats(rest)
    short = integrate(sol2, MU, y0=1e-3 * sol2.strain, n_steps=50)
    with pytest.raises(AnalysisError):
        energy_exchange_stats(short)
