"""Input atlas: each public function and each of its numeric parameters, and
each numeric CLI flag, run on the special values of the float range.  Every
call returns finite numbers or raises a ZpboxError; every CLI run exits 0
with finite output and an empty stderr, or exits 1 or 2 with one error line.
The allowances: alpha, NaN at t <= 1e-3 by definition, and the report's
measured_omega, nan (null in the JSON) where the run crosses its mean fewer
than four times.  The other arguments stay small, so no accepted count
allocates much.
"""

import inspect
import math
import re
import sys

import numpy as np
import pytest

import zpbox
from zpbox.cli import main

VALUES = (
    0.0,
    -0.0,
    5e-324,
    2.2e-308,
    1e308,
    sys.float_info.max,
    math.inf,
    -math.inf,
    math.nan,
    2**1100,
    np.float32(1.5),
    np.int64(3),
    True,
    2.5,
    -1.0,
)

SOL = zpbox.solve_equilibrium(2.0)
# the spectrum functions of (n, ell)
_LEVEL_FUNCTIONS = (
    zpbox.energy_level,
    zpbox.wavenumber,
    zpbox.position_expectation,
    zpbox.wall_force,
    zpbox.collision_frequency,
    zpbox.quantum_size,
    zpbox.count_nodes,
    zpbox.level_table,
)

# (function, parameter) -> the call with that parameter set to v
CALLS = {
    ("check_positive", "value"): lambda v: zpbox.check_positive(v, "x"),
    ("check_finite", "value"): lambda v: zpbox.check_finite(v, "x"),
    ("check_count", "value"): lambda v: zpbox.check_count(v, "x"),
    ("to_reduced", "particle_mass"): lambda v: zpbox.to_reduced(v, 1e-9, 1.0),
    ("to_reduced", "box_size"): lambda v: zpbox.to_reduced(9.109e-31, v, 1.0),
    ("to_reduced", "spring_stiffness"): lambda v: zpbox.to_reduced(9.109e-31, 1e-9, v),
    ("to_reduced", "wall_mass"): lambda v: zpbox.to_reduced(9.109e-31, 1e-9, 1.0, v),
    ("check_level", "n"): zpbox.check_level,
    ("check_size", "ell"): zpbox.check_size,
    **{(f.__name__, "n"): lambda v, f=f: f(v, 1.38) for f in _LEVEL_FUNCTIONS},
    **{(f.__name__, "ell"): lambda v, f=f: f(3, v) for f in _LEVEL_FUNCTIONS},
    ("wavefunction", "n"): lambda v: zpbox.wavefunction(v, 0.5, 1.38),
    ("wavefunction", "x"): lambda v: zpbox.wavefunction(1, v, 1.38),
    ("wavefunction", "x array"): lambda v: zpbox.wavefunction(1, [0.5, v], 1.38),
    ("wavefunction", "ell"): lambda v: zpbox.wavefunction(1, 0.5, v),
    ("check_grid", "grid"): lambda v: zpbox.check_grid([v], "g"),
    ("check_grid", "positive grid"): lambda v: zpbox.check_grid([v], "g", True),
    ("solve_equilibrium", "K"): zpbox.solve_equilibrium,
    ("equilibria", "K_grid"): lambda v: zpbox.equilibria([v]),
    ("minimize_oracle", "K"): zpbox.minimize_oracle,
    ("total_energy", "y"): lambda v: zpbox.total_energy(v, 2.0),
    ("total_energy", "K"): lambda v: zpbox.total_energy(0.1, v),
    ("total_energy", "n"): lambda v: zpbox.total_energy(0.1, 2.0, v),
    ("perturbed_energy", "eta"): lambda v: zpbox.perturbed_energy(SOL, v),
    ("equilibrium_size_at_t", "K"): lambda v: zpbox.equilibrium_size_at_t(v, 1.0),
    ("equilibrium_size_at_t", "t"): lambda v: zpbox.equilibrium_size_at_t(2.0, v),
    ("occupancies", "t"): lambda v: zpbox.occupancies(v),
    ("occupancies", "ell"): lambda v: zpbox.occupancies(1.0, v),
    ("mean_wall_force", "t"): lambda v: zpbox.mean_wall_force(v),
    ("mean_wall_force", "ell"): lambda v: zpbox.mean_wall_force(1.0, v),
    ("thermal_blocks", "K"): lambda v: list(zpbox.thermal_blocks(v, [0.0, 1.0])),
    ("thermal_blocks", "t_grid"): lambda v: list(zpbox.thermal_blocks(2.0, [v])),
    ("restoring_force", "y"): lambda v: zpbox.restoring_force(v, SOL),
    ("time_step", "mu"): lambda v: zpbox.time_step(SOL, v),
    ("time_step", "steps_per_period"): lambda v: zpbox.time_step(SOL, 1e3, v),
    ("verlet_frequency", "omega"): lambda v: zpbox.verlet_frequency(v, 0.1),
    ("verlet_frequency", "dt"): lambda v: zpbox.verlet_frequency(1.0, v),
    **{
        ("integrate", name): lambda v, name=name: zpbox.integrate(
            **{"sol": SOL, "mu": 1e3, "y0": 0.0, "n_steps": 10, name: v}
        )
        for name in ("mu", "y0", "v0", "dt", "n_steps", "record_every")
    },
}


def _finite(result) -> bool:
    """Every number in result is finite, but alpha at t <= 1e-3."""
    if hasattr(result, "alpha"):  # a ThermalPoint or ThermalBlock
        cold = np.asarray(result.t) <= 1e-3
        result = result._replace(alpha=np.where(cold, 0.0, result.alpha))
    if isinstance(result, dict):
        result = tuple(result.values())
    if isinstance(result, (tuple, list)):
        return all(_finite(r) for r in result)
    if isinstance(result, int):  # check_count(2**1100) is a count
        return True
    return bool(np.isfinite(result).all())


def test_every_public_function_with_a_numeric_parameter_is_in_the_atlas():
    # measured_frequency and energy_exchange_stats take a Trajectory only
    functions = {n for n in zpbox.__all__ if inspect.isfunction(getattr(zpbox, n))}
    unwalked = functions - {f for f, _ in CALLS}
    assert unwalked == {"measured_frequency", "energy_exchange_stats"}


@pytest.mark.parametrize("call", CALLS.values(), ids=[" ".join(k) for k in CALLS])
def test_every_value_gives_finite_numbers_or_a_zpbox_error(call):
    bad = []
    for value in VALUES:
        try:
            result = call(value)
        except zpbox.ZpboxError:
            continue
        except Exception as exc:  # a raw exception, or a numpy warning
            bad.append((value, repr(exc)))
            continue
        if not _finite(result):
            bad.append((value, result))
    assert bad == []


TEXTS = ("-0", "5e-324", "1e308", "inf", "nan", "2e400")

_K = ("--K", "2")
_SI = ("--particle-mass", "9.109e-31", "--box-size", "1e-9", "--spring-stiffness", "1")
_BASES = {
    "spectrum": ("spectrum", "--ell", "1.38", "--n-max", "3"),
    "equilibrium": ("equilibrium", *_K),
    "equilibrium SI": ("equilibrium", *_SI, "--wall-mass", "1e-27"),
    "thermal": ("thermal", *_K, "--t-grid", "0,1"),
    "thermal SI": ("thermal", *_SI, "--wall-mass", "1e-27", "--t-grid", "0,1"),
    "dynamics": ("dynamics", *_K, "--mu", "1000", "--y0-frac", "1e-4")
    + ("--dt-factor", "1000", "--n-periods", "2"),
    "dynamics SI": ("dynamics", *_SI, "--wall-mass", "1e-27", "--n-periods", "2"),
    "sweep": ("sweep", "--K-grid", "1,2"),
}
# (base, flag): every numeric flag of every command, under each
# parameterization that takes it
FLAGS = [
    (base, argv[i])
    for base, argv in _BASES.items()
    for i in range(1, len(argv), 2)
    if (base, argv[i]) != ("dynamics SI", "--n-periods")
]
_NOT_FINITE = re.compile(r"\b(?:nan|inf(?:inity)?)\b", re.IGNORECASE)


def _finite_text(text: str) -> bool:
    """No nan or inf in text, but in an alpha column or line, or the report's
    measured_omega, nan (null in the JSON) for fewer than four crossings."""
    rows = [row.split(",") for row in text.splitlines()]
    if rows and "alpha" in rows[0]:  # a CSV table
        i = rows[0].index("alpha")
        rows = [row[:i] + row[i + 1 :] for row in rows]
    lines = [",".join(row) for row in rows]
    allowed = ("alpha", "measured_omega = nan")
    return not any(
        _NOT_FINITE.search(s) for s in lines if not any(a in s for a in allowed)
    )


@pytest.mark.parametrize("base, flag", FLAGS, ids=[f"{b} {f}" for b, f in FLAGS])
def test_every_flag_value_runs_clean_or_is_one_error_line(
    base, flag, tmp_path, capsys
):
    bad = []
    for k, text in enumerate(TEXTS):
        argv = list(_BASES[base])
        argv[argv.index(flag) + 1] = text
        out = tmp_path / str(k)
        code = main([*argv, "--out", str(out)])
        stdout, stderr = capsys.readouterr()
        if code == 0:
            files = [p.read_text() for p in sorted(out.iterdir())]
            clean = stderr == "" and all(map(_finite_text, [stdout, *files]))
        else:
            lines = stderr.splitlines()
            clean = code in (1, 2) and len(lines) == 1
            clean = clean and lines[0].startswith("zpbox: error: ")
        if not clean:
            bad.append((text, code, stderr))
    assert bad == []
