"""Command-line front end: ``zpbox <command> [flags] [--config FILE]``.

Commands
    spectrum     level table for a rigid box of a given relative size
    equilibrium  zero-point-force strain equilibrium at one stiffness
    thermal      self-consistent box size over a temperature grid
    dynamics     breathing-mode trajectory about the strained equilibrium
    sweep        equilibrium solutions over a stiffness grid

The system is given either directly in reduced units (--K, --mu) or in SI
(--particle-mass, --box-size, --spring-stiffness, --wall-mass); the two
parameterizations are mutually exclusive.  A flat ``key = value`` config
file can supply any flag's value; explicit flags win.  Series go to CSV,
one summary JSON is written per run, and identical scenarios produce
byte-identical files (floats are printed with 17 significant digits).

Exit codes: 0 success, 1 numerical failure, 2 usage error.  Usage errors
are raised before any file is opened.
"""

import argparse
import itertools
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import equilibrium as eq
from . import model
from . import spectrum as spec
from . import thermal as therm
from .errors import AnalysisError, UsageError, ValidationError, ZpboxError

@dataclass(frozen=True)
class Scenario:
    """Fully resolved run description; round-trips through to_argv()."""

    command: str
    K: float | None = None
    mu: float | None = None
    particle_mass: float | None = None
    box_size: float | None = None
    spring_stiffness: float | None = None
    wall_mass: float | None = None
    ell: float | None = None
    n_max: int | None = None
    t_grid: tuple[float, ...] | None = None
    k_grid: tuple[float, ...] | None = None
    y0_frac: float | None = None
    dt_factor: float | None = None
    n_periods: int | None = None
    out_dir: str = "."
    formats: tuple[str, ...] = ("csv", "json")

    def to_argv(self) -> list[str]:
        """Canonical flag list that re-parses to an equal Scenario."""
        argv = [self.command]
        for name, flag in _FLAGS.items():
            value = getattr(self, flag.field)
            if value is not None:
                argv.extend([f"--{name}", flag.format(value)])
        return argv


@dataclass(frozen=True)
class RunSummary:
    """Outcome of one run: echoed scenario, headline numbers, file manifest."""

    command: str
    scenario: Scenario
    K: float | None
    mu: float | None
    scales: dict | None  # SI conversion scales; None for reduced-only runs
    headline: dict
    outputs: tuple[str, ...]
    duration_s: float  # wall clock; deliberately excluded from the JSON file


# ---------------------------------------------------------------------------
# value parsing and canonical text

#: A start:stop:step grid may span at most this many steps.  The bound is
#: checked before any point is built, so a tiny step cannot exhaust memory.
_MAX_RANGE_STEPS = 1_000_000


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"malformed number {text!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise UsageError(f"number {text!r} must be finite")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"malformed integer {text!r}") from None


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: ``start:stop:step`` (endpoints inclusive within half a
    step) or an explicit comma-separated list, or a single number."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid {text!r} must be start:stop:step")
        start, stop, step = (_parse_float(p) for p in parts)
        if step <= 0:
            raise UsageError(f"grid step must be positive in {text!r}")
        if stop < start:
            raise UsageError(f"grid stop must be >= start in {text!r}")
        if (stop - start) / step > _MAX_RANGE_STEPS:
            raise UsageError(
                f"grid {text!r} spans more than {_MAX_RANGE_STEPS} steps"
            )
        values = []
        i = 0
        while True:
            v = start + i * step
            if v > stop + 0.5 * step:
                break
            if values and v <= values[-1]:  # step below float resolution
                raise UsageError(f"grid step is too small to advance in {text!r}")
            values.append(v)
            i += 1
        return tuple(values)
    if "," in text:
        return tuple(_parse_float(p) for p in text.split(","))
    return (_parse_float(text),)


def _parse_formats(text: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    for name in names:
        if name not in ("csv", "json"):
            raise UsageError(f"unknown output format {name!r} (csv, json)")
    if not names:
        raise UsageError("formats must name at least one of csv, json")
    return names


def _format_float(value) -> str:
    return format(float(value), ".17g")


def _format_grid(grid) -> str:
    return ",".join(["%.17g"] * len(grid)) % tuple(grid)


# ---------------------------------------------------------------------------
# the flags


@dataclass(frozen=True)
class _Flag:
    """One command-line flag, which is also a config-file key."""

    field: str  # the Scenario field it sets
    parse: Callable[[str], object]  # text -> value; raises UsageError
    format: Callable[[object], str]  # value -> canonical text
    default: object  # used when neither the flag nor the config gives one
    help: str


_FLOAT = (_parse_float, _format_float)
_INT = (_parse_int, str)
_GRID = (_parse_grid, _format_grid)

# every flag, in to_argv() order
_FLAGS = {
    "K": _Flag(
        "K", *_FLOAT, None, "spring stiffness in reduced units (excludes SI flags)"
    ),
    "particle-mass": _Flag(
        "particle_mass", *_FLOAT, None, "particle mass in kg (SI parameterization)"
    ),
    "box-size": _Flag(
        "box_size", *_FLOAT, None, "unstrained box size in m (SI parameterization)"
    ),
    "spring-stiffness": _Flag(
        "spring_stiffness",
        *_FLOAT,
        None,
        "wall spring stiffness in N/m (SI parameterization)",
    ),
    "wall-mass": _Flag(
        "wall_mass",
        *_FLOAT,
        None,
        "wall mass in kg (SI; defaults to 1000 particle masses)",
    ),
    "mu": _Flag(
        "mu", *_FLOAT, None, "wall/particle mass ratio (reduced parameterization)"
    ),
    "ell": _Flag("ell", *_FLOAT, 1.0, "relative box size d'/d"),
    "n-max": _Flag("n_max", *_INT, 10, "number of levels to tabulate"),
    "t-grid": _Flag(
        "t_grid",
        *_GRID,
        None,
        "temperature grid, units T0: start:stop:step or comma list",
    ),
    "K-grid": _Flag(
        "k_grid", *_GRID, None, "stiffness grid: start:stop:step or comma list"
    ),
    "y0-frac": _Flag(
        "y0_frac",
        *_FLOAT,
        1e-4,
        "initial displacement as a fraction of the strain, in [0, 1)",
    ),
    "dt-factor": _Flag(
        "dt_factor",
        *_FLOAT,
        float(dyn._STEPS_PER_PERIOD),
        "steps per small-oscillation period",
    ),
    "n-periods": _Flag(
        "n_periods", *_INT, 10, "number of small-oscillation periods to integrate"
    ),
    "out": _Flag(
        "out_dir", str, str, Scenario.out_dir, "output directory (created on demand)"
    ),
    "formats": _Flag(
        "formats",
        _parse_formats,
        ",".join,
        Scenario.formats,
        "comma list of outputs to write: csv,json",
    ),
}


# ---------------------------------------------------------------------------
# scenario assembly


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit(2)
        raise UsageError(message)


def _build_parser(command: str, names) -> _Parser:
    parser = _Parser(prog=f"zpbox {command}", add_help=True, allow_abbrev=False)
    parser.add_argument("--config", default=None, help="flat key = value file")
    for name in names:
        flag = _FLAGS[name]
        text = flag.help
        if flag.default is not None:
            text += f" (default {flag.format(flag.default)})"
        parser.add_argument(f"--{name}", dest=flag.field, help=text)
    return parser


def _parse_config_text(text: str, names) -> dict[str, str]:
    """Flat ``key = value`` lines -> {key: value text}, keys checked."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise UsageError(f"config line {lineno}: expected key = value")
        key = key.strip()
        if key not in names:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise UsageError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = val.strip()
    return values


def parse_scenario(argv, config_text: str | None = None) -> Scenario:
    """Turn an argument list (and optional config text) into a Scenario.

    Flags override config-file keys; unknown flags or keys, conflicting
    parameterizations, and malformed numbers raise UsageError.
    """
    argv = list(argv)
    expected = f"expected one of {', '.join(_COMMANDS)}"
    if not argv:
        raise UsageError(f"missing command; {expected}")
    command = argv[0]
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}; {expected}")
    names = (*_COMMANDS[command].flags, "out", "formats")
    ns = _build_parser(command, names).parse_args(argv[1:])

    if ns.config is not None and config_text is None:
        path = Path(ns.config)
        if not path.is_file():
            raise UsageError(f"config file {ns.config!r} not found")
        try:
            config_text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise UsageError(f"config file {ns.config!r} is not UTF-8 text") from None
    config = _parse_config_text(config_text, names) if config_text else {}

    fields = {}
    for name in names:
        flag = _FLAGS[name]
        text = getattr(ns, flag.field)
        if text is None:
            text = config.get(name)
        try:
            fields[flag.field] = flag.default if text is None else flag.parse(text)
        except UsageError as exc:
            raise UsageError(f"--{name}: {exc}") from None

    scenario = Scenario(command=command, **fields)
    _validate_scenario(scenario)
    return scenario


def _validate_scenario(s: Scenario) -> None:
    si = (s.particle_mass, s.box_size, s.spring_stiffness, s.wall_mass)
    si_given = any(v is not None for v in si)
    if si_given and (s.K is not None or s.mu is not None):
        raise UsageError(
            "conflicting parameterization: give either --K/--mu or the SI "
            "flags, not both"
        )
    if si_given and any(v is None for v in si[:3]):
        raise UsageError(
            "incomplete SI parameterization: --particle-mass, --box-size and "
            "--spring-stiffness are all required"
        )
    if s.command in ("equilibrium", "thermal", "dynamics"):
        if not si_given and s.K is None:
            raise UsageError(f"{s.command} needs --K or the SI flags")
    if s.command == "thermal":
        if s.t_grid is None:
            raise UsageError("thermal needs --t-grid")
        _check_grid("t-grid", s.t_grid, minimum=0.0)
    if s.command == "sweep":
        if s.k_grid is None:
            raise UsageError("sweep needs --K-grid")
        _check_grid("K-grid", s.k_grid, minimum=0.0, strict_min=True)
    if s.command == "spectrum":
        if not spec.MIN_SIZE <= s.ell <= spec.MAX_SIZE:
            raise UsageError(
                f"--ell must lie in [{spec.MIN_SIZE:g}, {spec.MAX_SIZE:g}]"
            )
        if not 1 <= s.n_max <= spec.MAX_LEVEL:
            raise UsageError(f"--n-max must lie in [1, {spec.MAX_LEVEL}]")
    if s.command == "dynamics":
        if not 0.0 <= s.y0_frac < 1.0:
            raise UsageError("--y0-frac must lie in [0, 1)")
        if s.dt_factor <= 0:
            raise UsageError("--dt-factor must be positive")
        if s.mu is not None and s.mu <= 0:
            raise UsageError("--mu must be positive")
        if s.n_periods < 1:
            raise UsageError("--n-periods must be >= 1")
        try:
            finite = math.isfinite(s.n_periods * s.dt_factor)
        except OverflowError:  # n_periods alone exceeds the float range
            finite = False
        if not finite:
            raise UsageError("--n-periods times --dt-factor must be finite")
        if s.K is not None and s.K > 0:
            _time_step(s.K, _mass_ratio(s), s.dt_factor)
        if s.dt_factor <= math.pi:  # omega dt = 2 pi/dt_factor: Verlet needs < 2
            raise UsageError("--dt-factor must exceed pi")


def _check_grid(name, grid, minimum, strict_min=False) -> None:
    if len(grid) == 0:
        raise UsageError(f"--{name} must be non-empty")
    for v in grid:
        if not math.isfinite(v):
            raise UsageError(f"--{name} values must be finite")
        if v < minimum or (strict_min and v == minimum):
            cmp = ">" if strict_min else ">="
            raise UsageError(f"--{name} values must be {cmp} {minimum}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError(f"--{name} must be strictly increasing")


# ---------------------------------------------------------------------------
# execution


def _resolve_system(s: Scenario) -> tuple[float | None, float | None, dict | None]:
    """Return (K, mu, SI scales dict or None) for a scenario."""
    if s.particle_mass is not None:
        si = (s.particle_mass, s.box_size, s.spring_stiffness, s.wall_mass)
        reduced = model.to_reduced(model.PhysicalInput(*si))
        scales = {
            "energy_scale_J": reduced.energy_scale,
            "length_scale_m": reduced.length_scale,
            "time_scale_s": reduced.time_scale,
            "temperature_scale_K": reduced.temperature_scale,
        }
        return reduced.K, reduced.mu, scales
    return s.K, _mass_ratio(s), None


def _mass_ratio(s: Scenario) -> float | None:
    """--mu as given; for dynamics without one, the default wall mass ratio."""
    if s.mu is None and s.command == "dynamics":
        return model.DEFAULT_MASS_RATIO
    return s.mu


def _time_step(K, mu, dt_factor):
    """(equilibrium, omega, dt) of a dynamics run, dt = 2 pi/(dt_factor omega).

    Raises UsageError where dt is 0 or inf: omega = sqrt(K'/mu) overflows
    for a tiny mu and underflows to 0 for a huge one, dt_factor omega
    overflows or underflows for an extreme dt_factor.  The product is
    checked before it divides, so a 0 never reaches the division.
    """
    sol = eq.solve_equilibrium(K)
    omega = math.sqrt(sol.effective_stiffness / mu)
    rate = dt_factor * omega
    dt = 2.0 * math.pi / rate if rate > 0.0 else math.inf
    if not 0.0 < dt < math.inf:
        raise UsageError(
            f"--mu {mu!r} with --dt-factor {dt_factor!r} gives no positive, "
            f"finite time step 2*pi/(dt_factor*sqrt(K'/mu))"
        )
    return sol, omega, dt


# rows formatted by one % operation; bounds the text held in memory at once
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header, columns) -> None:
    """Write equal-length columns as CSV under a header line.

    Integer columns print as ``%d`` and all others as ``%.17g``, the same
    text as ``str(int(v))`` and ``format(float(v), ".17g")``.  Rows are
    formatted and written a block at a time, so the whole file is never
    held as one string.
    """
    columns = [np.asarray(c) for c in columns]
    line = ",".join(
        "%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns
    ) + "\n"
    n_rows = len(columns[0])
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = [c[start : start + _CSV_BLOCK_ROWS].tolist() for c in columns]
            values = tuple(itertools.chain.from_iterable(zip(*block)))
            fh.write((line * len(block[0])) % values)


def _jsonable(value):
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def summary_dict(summary: RunSummary) -> dict:
    """Flat JSON form of a RunSummary.

    The wall-clock duration is intentionally left out so identical
    scenarios serialize to identical bytes.
    """
    flat = {
        "command": summary.command,
        "argv": summary.scenario.to_argv(),
        "K": summary.K,
        "mu": summary.mu,
        "energy_scale_J": None,
        "length_scale_m": None,
        "time_scale_s": None,
        "temperature_scale_K": None,
    }
    if summary.scales:
        flat.update(summary.scales)
    flat.update(summary.headline)
    flat["outputs"] = list(summary.outputs)
    return _jsonable(flat)


# ---------------------------------------------------------------------------
# the commands


def _spectrum(s: Scenario, K, mu):
    levels = range(1, s.n_max + 1)
    columns = {
        "n": levels,
        "energy": [spec.energy_level(n, s.ell) for n in levels],
        "wall_force": [spec.wall_force(n, s.ell) for n in levels],
        "collision_freq": [spec.collision_frequency(n, s.ell) for n in levels],
        "quantum_size": [spec.quantum_size(n, s.ell) for n in levels],
    }
    return {"ell": s.ell, "n_max": s.n_max}, columns


def _equilibrium(s: Scenario, K, mu):
    sol = eq.solve_equilibrium(K)
    headline = {
        "ell": sol.ell,
        "strain": sol.strain,
        "residual": sol.residual,  # relative to the zero-point force
        "binding_exact": sol.binding_exact,
        "binding_first_order": sol.binding_first_order,
        "strain_energy": sol.strain_energy,
        "K_prime": sol.effective_stiffness,
    }
    return headline, None


def _thermal(s: Scenario, K, mu):
    # the grid block by block, with thermal_sweep's arithmetic
    blocks = list(therm._blocks(K, np.array(s.t_grid)))
    columns = {
        "t": np.concatenate([b.t for b in blocks]),
        "ell": np.concatenate([b.ell for b in blocks]),
        "alpha": np.concatenate([b.alpha for b in blocks]),
        "mean_force": np.concatenate([b.mean_force for b in blocks]),
        "p1": np.concatenate([b.p[0] for b in blocks]),
        "p2": np.concatenate([b.p[1] for b in blocks]),
    }
    headline = {
        "t_max": float(columns["t"][-1]),
        "ell_at_t_max": float(columns["ell"][-1]),
        "alpha_at_t_max": float(columns["alpha"][-1]),
        "mean_force_at_t_max": float(columns["mean_force"][-1]),
    }
    return headline, columns


def _dynamics(s: Scenario, K, mu):
    sol, omega, dt = _time_step(K, mu, s.dt_factor)
    n_steps = max(1, round(s.n_periods * s.dt_factor))
    traj = dyn.integrate(
        sol, mu, y0=s.y0_frac * sol.strain, v0=0.0, dt=dt, n_steps=n_steps
    )
    try:
        measured = dyn.measured_frequency(traj)
    except AnalysisError:
        measured = math.nan
    columns = {
        "t": traj.times,
        "eta": traj.eta,
        "v": traj.velocity,
        "E_particle": traj.particle_energy,
        "E_strain": traj.strain_energy,
        "E_kinetic": traj.kinetic_energy,
        "E_total": traj.total_energy,
    }
    headline = {
        "ell": sol.ell,
        "strain": sol.strain,
        "K_prime": sol.effective_stiffness,
        "omega_harmonic": omega,
        "measured_omega": measured,
        "y0": s.y0_frac * sol.strain,
        "dt": dt,
        "n_steps": n_steps,
    }
    return headline, columns


def _sweep(s: Scenario, K, mu):
    # the whole grid in one array solve, by solve_equilibrium's own function
    k_grid = np.array(s.k_grid)
    sol = eq._equilibria(k_grid)
    columns = {
        "K": k_grid,
        "ell": sol["ell"],
        "strain": sol["strain"],
        "binding_exact": sol["binding_exact"],
        "binding_first_order": sol["binding_first_order"],
        "K_prime": sol["effective_stiffness"],
    }
    headline = {
        "n_points": len(k_grid),
        "K_min": s.k_grid[0],
        "K_max": s.k_grid[-1],
    }
    return headline, columns


@dataclass(frozen=True)
class _Command:
    """One command: the flags it takes and the work it does."""

    flags: tuple[str, ...]  # besides --out and --formats, in _FLAGS order
    compute: Callable  # (s, K, mu) -> (headline, {CSV column: values} or None)


_SYSTEM = ("K", "particle-mass", "box-size", "spring-stiffness", "wall-mass")
_COMMANDS = {
    "spectrum": _Command(("ell", "n-max"), _spectrum),
    "equilibrium": _Command(_SYSTEM, _equilibrium),
    "thermal": _Command((*_SYSTEM, "t-grid"), _thermal),
    "dynamics": _Command(
        (*_SYSTEM, "mu", "y0-frac", "dt-factor", "n-periods"), _dynamics
    ),
    "sweep": _Command(("K-grid",), _sweep),
}


def run(scenario: Scenario) -> RunSummary:
    """Execute a scenario: compute, then write every requested output file.

    All numeric work happens before any file is opened, so a failing run
    leaves no partial output behind.  The series columns stream into the
    CSV block by block; the summary JSON follows.
    """
    start = time.perf_counter()
    K, mu, scales = _resolve_system(scenario)
    headline, columns = _COMMANDS[scenario.command].compute(scenario, K, mu)

    out_dir = Path(scenario.out_dir)
    csv_path = None
    if columns is not None and "csv" in scenario.formats:
        csv_path = out_dir / f"{scenario.command}.csv"
    json_path = None
    if "json" in scenario.formats:
        json_path = out_dir / f"{scenario.command}_summary.json"
    outputs = tuple(str(p) for p in (csv_path, json_path) if p is not None)

    summary = RunSummary(
        command=scenario.command,
        scenario=scenario,
        K=K,
        mu=mu,
        scales=scales,
        headline=headline,
        outputs=outputs,
        duration_s=0.0,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    if csv_path is not None:
        _write_csv(csv_path, columns.keys(), columns.values())
    if json_path is not None:
        json_path.write_text(json.dumps(summary_dict(summary), indent=2) + "\n")

    return replace(summary, duration_s=time.perf_counter() - start)


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        scenario = parse_scenario(argv)
        summary = run(scenario)
    except (UsageError, ValidationError) as exc:
        print(f"zpbox: error: {exc}", file=sys.stderr)
        return 2
    except (ZpboxError, OSError) as exc:  # numerical failures, unwritable --out
        print(f"zpbox: error: {exc}", file=sys.stderr)
        return 1
    print(f"zpbox {summary.command}: ok ({summary.duration_s:.3f} s)")
    for key, value in summary.headline.items():
        print(f"  {key} = {value}")
    for path in summary.outputs:
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
