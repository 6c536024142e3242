"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to
see them inline).  Tolerances are fixed here, not tuned elsewhere.
"""

import json
import math

import numpy as np
import pytest

import zpbox
from conftest import (
    box_nodes,
    centered_expansion,
    logspace_grid,
    mean_position,
    quad_strict,
    quartic_root,
    sign_changes,
)
from zpbox.cli import main

MU = 1000.0


def _report(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {name}: {status}")
    assert not failures, f"criterion {num} ({name}):\n" + "\n".join(failures)


def test_criterion_1_spectrum_fidelity():
    failures = []
    for ell in (1.0, 1.38, 2.0):
        for n in range(1, 51):
            w = n * math.pi / ell
            amp = math.sqrt(2.0 / ell)
            nodes = box_nodes(n, ell)

            psi = lambda x: amp * math.sin(w * x)
            dpsi = lambda x: amp * w * math.cos(w * x)

            norm = quad_strict(lambda x: psi(x) ** 2, 0.0, ell, nodes)
            if abs(norm - 1.0) > 1e-10:
                failures.append(f"normalization off at n={n}, ell={ell}: {norm!r}")

            if zpbox.count_nodes(n, ell) != n - 1:
                failures.append(f"node count at n={n}, ell={ell}")
            if sign_changes(n, ell) != n - 1:
                failures.append(f"sampled node count at n={n}, ell={ell}")

            mean_x = zpbox.position_expectation(n, ell)
            if abs(mean_x - ell / 2.0) > 1e-10:
                failures.append(f"<x> off at n={n}, ell={ell}: {mean_x!r}")
            mean_x = mean_position(n, ell)
            if abs(mean_x - ell / 2.0) > 1e-10:
                failures.append(f"integrated <x> off at n={n}, ell={ell}: {mean_x!r}")

            first = quad_strict(lambda x: psi(x) * dpsi(x), 0.0, ell, nodes)
            if abs(first) > 1e-10:
                failures.append(f"<q> off at n={n}, ell={ell}: {first!r}")
            second = quad_strict(lambda x: psi(x) * w * w * psi(x), 0.0, ell, nodes)
            if abs(second - w * w) > 1e-8:
                failures.append(f"<q^2> off at n={n}, ell={ell}: {second!r}")

            force = zpbox.wall_force(n, ell)
            if force != 2.0 * zpbox.energy_level(n, ell) / ell:
                failures.append(f"force/energy identity broken at n={n}, ell={ell}")
            delta = 1e-5
            fd = -(
                zpbox.energy_level(n, ell + delta) - zpbox.energy_level(n, ell - delta)
            ) / (2 * delta)
            if abs(fd - force) / force > 1e-8:
                failures.append(f"force finite difference at n={n}, ell={ell}")

            impulse_rate = 2.0 * zpbox.wavenumber(n, ell) * zpbox.collision_frequency(n, ell)
            if abs(impulse_rate - force) > 5e-16 * force:
                failures.append(f"collision identity at n={n}, ell={ell}")
    _report(1, "spectrum fidelity", failures)


def test_criterion_2_equilibrium_correctness():
    failures = []
    grid = logspace_grid(-2, 8, 25)
    previous_ell = math.inf
    for K in grid:
        sol = zpbox.solve_equilibrium(K)
        if not sol.residual < 1e-12:
            failures.append(f"residual {sol.residual!r} at K={K}")
        oracle_ell = 1.0 + zpbox.minimize_oracle(K)
        if not abs(sol.ell - oracle_ell) < 1e-9:
            failures.append(
                f"solver/oracle gap {abs(sol.ell - oracle_ell)!r} at K={K}"
            )
        if not sol.ell < previous_ell:
            failures.append(f"ell not strictly decreasing at K={K}")
        previous_ell = sol.ell
        if not abs(sol.K * sol.strain * sol.ell**3 - 2.0) < 1e-10:
            failures.append(f"force-balance identity off at K={K}")
    _report(2, "equilibrium correctness", failures)


def test_criterion_3_binding_energy():
    failures = []
    gaps = []
    strains = []
    for K in logspace_grid(-2, 8, 25):
        sol = zpbox.solve_equilibrium(K)
        if not sol.binding_exact < 0.0:
            failures.append(f"binding_exact not negative at K={K}")
        if not sol.binding_first_order < 0.0:
            failures.append(f"binding_first_order not negative at K={K}")
        if K >= 1e3:
            gaps.append(
                abs(sol.binding_exact - sol.binding_first_order)
                / abs(sol.binding_exact)
            )
            strains.append(sol.strain)
    for gap, strain in zip(gaps, strains):
        if not gap <= 4.0 * strain:
            failures.append(f"gap {gap!r} not linear in strain {strain!r}")
    if not all(b < a for a, b in zip(gaps, gaps[1:])):
        failures.append("relative gap does not shrink with strain")
    _report(3, "binding energy", failures)


def test_criterion_4_stiffness_shift():
    failures = []
    for K in (2.0, 100.0, 1e6):
        sol = zpbox.solve_equilibrium(K)
        h = 1e-4
        curvature = (
            zpbox.total_energy(sol.strain + h, K)
            - 2.0 * zpbox.total_energy(sol.strain, K)
            + zpbox.total_energy(sol.strain - h, K)
        ) / h**2
        if not abs(curvature - sol.effective_stiffness) < 1e-6:
            failures.append(f"curvature mismatch at K={K}")
        if not abs(sol.effective_stiffness - (K + 6.0 / sol.ell**4)) < 1e-12:
            failures.append(f"stiffness shift formula at K={K}")
        h1 = 3e-6
        slope = (
            zpbox.total_energy(sol.strain + h1, K)
            - zpbox.total_energy(sol.strain - h1, K)
        ) / (2.0 * h1)
        if not abs(slope) < 1e-10:
            failures.append(f"first derivative {slope!r} at K={K}")
    _report(4, "stiffness shift", failures)


def test_criterion_5_thermal_model():
    failures = []
    for t in (0.0, 0.4, 1.0, 3.0):
        for ell in (1.0, 1.38):
            p = zpbox.occupancies(t, ell)
            if not abs(p.sum() - 1.0) < 1e-14:
                failures.append(f"occupancy sum at t={t}, ell={ell}")
    p = zpbox.occupancies(1.0, 1.0)
    if not abs(p[1] / p[0] - math.exp(-3.0)) < 1e-12:
        failures.append(f"p2/p1 at t=1: {p[1] / p[0]!r}")

    for K in (0.5, 2.0, 100.0, 1e6):
        if not abs(
            zpbox.equilibrium_size_at_t(K, 0.0).ell_t - zpbox.solve_equilibrium(K).ell
        ) < 1e-12:
            failures.append(f"t=0 reduction at K={K}")

    ells = [zpbox.equilibrium_size_at_t(2.0, t).ell_t for t in np.arange(0.0, 4.5, 0.5)]
    if not all(b >= a for a, b in zip(ells, ells[1:])):
        failures.append("ell(t) not non-decreasing on [0, 4] at K=2")

    for K in (100.0, 1e6):
        gap = abs(
            zpbox.equilibrium_size_at_t(K, 0.1).ell_t - zpbox.solve_equilibrium(K).ell
        )
        if not gap < 1e-8:
            failures.append(f"strain not saturated below T0 at K={K}: {gap!r}")

    def size_at(t):
        return zpbox.equilibrium_size_at_t(2.0, t).ell_t

    alpha = zpbox.equilibrium_size_at_t(2.0, 1.0).alpha
    for step in (0.1, 0.02):
        a = centered_expansion(size_at, 1.0, step)
        b = centered_expansion(size_at, 1.0, step / 2.0)
        if not abs(a - b) < 0.05 * step**2:
            failures.append(f"alpha Richardson consistency at step={step}")
        if not abs(alpha - b) < 0.05 * (step / 2.0) ** 2:
            failures.append(f"implicit alpha {alpha!r} vs centered {b!r}")
    _report(5, "thermal model", failures)


def test_criterion_6_dynamics():
    failures = []
    sol = zpbox.solve_equilibrium(2.0)

    rest = zpbox.integrate(sol, MU, y0=0.0, v0=0.0, n_steps=1_000_000, record_every=1)
    if not np.abs(rest.eta).max() < 1e-14:
        failures.append(f"rest drift {np.abs(rest.eta).max()!r}")

    # 10^4 small-amplitude periods at dt = period/1000
    traj = zpbox.integrate(
        sol, MU, y0=1e-4 * sol.strain, n_steps=10_000_000, record_every=100
    )
    drift = float(
        np.abs(traj.total_energy - traj.total_energy[0]).max() / traj.total_energy[0]
    )
    if not drift < 1e-8:
        failures.append(f"energy drift {drift!r}")

    for K in (2.0, 100.0):
        s = zpbox.solve_equilibrium(K)
        omega_h = math.sqrt(s.effective_stiffness / MU)
        run = zpbox.integrate(s, MU, y0=1e-4 * s.strain, n_steps=50_000)
        omega = zpbox.measured_frequency(run)
        if not abs(omega - omega_h) / omega_h < 1e-3:
            failures.append(f"frequency off at K={K}: {omega!r} vs {omega_h!r}")
        corr, _ = zpbox.energy_exchange_stats(run)
        if not corr < -0.99:
            failures.append(f"exchange correlation {corr!r} at K={K}")

    y0 = 1e-2 * sol.strain
    forward = zpbox.integrate(sol, MU, y0=y0, v0=0.0, n_steps=5000)
    back = zpbox.integrate(
        sol, MU, y0=float(forward.eta[-1]), v0=-float(forward.velocity[-1]), n_steps=5000
    )
    if not abs(float(back.eta[-1]) - y0) < 1e-9:
        failures.append("time reversal misses initial position")
    if not abs(float(back.velocity[-1])) < 1e-9:
        failures.append("time reversal misses initial velocity")

    # frequency error decreases monotonically toward the harmonic value
    omega_h = math.sqrt(sol.effective_stiffness / MU)
    dt = 2.0 * math.pi / (50_000 * omega_h)
    errors = []
    for frac in (1e-2, 1e-3, 1e-4):
        run = zpbox.integrate(sol, MU, y0=frac * sol.strain, dt=dt, n_steps=500_000)
        errors.append(abs(zpbox.measured_frequency(run) - omega_h) / omega_h)
    if not (errors[0] > errors[1] > errors[2]):
        failures.append(f"frequency error not monotone in amplitude: {errors}")
    _report(6, "dynamics", failures)


def test_criterion_7_cli_determinism(tmp_path):
    failures = []

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    argv = ["thermal", "--K", "2", "--t-grid", "0:2:0.5"]
    for out in (out_a, out_b):
        if main(argv + ["--out", str(out)]) != 0:
            failures.append("thermal run failed")
    csv_a = (out_a / "thermal.csv").read_bytes()
    if csv_a != (out_b / "thermal.csv").read_bytes():
        failures.append("thermal CSV not byte-identical across runs")
    if main(argv + ["--out", str(out_a)]) != 0:
        failures.append("thermal rerun failed")
    if (out_a / "thermal.csv").read_bytes() != csv_a:
        failures.append("thermal CSV changed on rerun into the same directory")
    json_a = (out_a / "thermal_summary.json").read_bytes()
    if main(argv + ["--out", str(out_a)]) != 0 or (
        out_a / "thermal_summary.json"
    ).read_bytes() != json_a:
        failures.append("summary JSON changed on rerun")

    missing = tmp_path / "never"
    if main(["thermal", "--K", "2", "--out", str(missing)]) != 2:
        failures.append("usage error did not exit 2")
    if missing.exists():
        failures.append("usage error left partial output behind")

    out_eq = tmp_path / "eq"
    if main(["equilibrium", "--K", "2", "--out", str(out_eq)]) != 0:
        failures.append("equilibrium run failed")
    else:
        data = json.loads((out_eq / "equilibrium_summary.json").read_text())
        if not abs(data["ell"] - quartic_root(2.0)) < 1e-9:
            failures.append(f"summary ell {data['ell']!r} vs bisection oracle")
    _report(7, "CLI determinism", failures)
