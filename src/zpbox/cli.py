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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import equilibrium as eq
from . import model
from . import spectrum as spec
from . import thermal as therm
from .errors import AnalysisError, UsageError, ValidationError, ZpboxError

COMMANDS = ("spectrum", "equilibrium", "thermal", "dynamics", "sweep")

_CSV_SCHEMAS = {
    "spectrum": ("n", "energy", "wall_force", "collision_freq", "quantum_size"),
    "thermal": ("t", "ell", "alpha", "mean_force", "p1", "p2"),
    "dynamics": ("t", "eta", "v", "E_particle", "E_strain", "E_kinetic", "E_total"),
    "sweep": ("K", "ell", "strain", "binding_exact", "binding_first_order", "K_prime"),
}


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

        def put(flag, value, fmt=lambda v: format(float(v), ".17g")):
            if value is not None:
                argv.extend([flag, fmt(value)])

        put("--K", self.K)
        put("--particle-mass", self.particle_mass)
        put("--box-size", self.box_size)
        put("--spring-stiffness", self.spring_stiffness)
        put("--wall-mass", self.wall_mass)
        put("--mu", self.mu)
        put("--ell", self.ell)
        put("--n-max", self.n_max, str)
        put("--t-grid", self.t_grid, _format_grid)
        put("--K-grid", self.k_grid, _format_grid)
        put("--y0-frac", self.y0_frac)
        put("--dt-factor", self.dt_factor)
        put("--n-periods", self.n_periods, str)
        argv.extend(["--out", self.out_dir])
        argv.extend(["--formats", ",".join(self.formats)])
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
# value parsing


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
        values = []
        i = 0
        while True:
            v = start + i * step
            if v > stop + 0.5 * step:
                break
            values.append(v)
            i += 1
        return tuple(values)
    if "," in text:
        return tuple(_parse_float(p) for p in text.split(","))
    return (_parse_float(text),)


def _format_grid(grid) -> str:
    return ",".join(format(float(v), ".17g") for v in grid)


def _parse_formats(text: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    for name in names:
        if name not in ("csv", "json"):
            raise UsageError(f"unknown output format {name!r} (csv, json)")
    if not names:
        raise UsageError("formats must name at least one of csv, json")
    return names


# ---------------------------------------------------------------------------
# scenario assembly

# flag -> (converter, default); None default means "stays None unless given"
_COMMON = {
    "out": (str, "."),
    "formats": (_parse_formats, ("csv", "json")),
}
_SI = {
    "particle-mass": (_parse_float, None),
    "box-size": (_parse_float, None),
    "spring-stiffness": (_parse_float, None),
    "wall-mass": (_parse_float, None),
}
_OPTIONS: dict[str, dict] = {
    "spectrum": {
        **_COMMON,
        "ell": (_parse_float, 1.0),
        "n-max": (_parse_int, 10),
    },
    "equilibrium": {**_COMMON, "K": (_parse_float, None), **_SI},
    "thermal": {
        **_COMMON,
        "K": (_parse_float, None),
        **_SI,
        "t-grid": (_parse_grid, None),
    },
    "dynamics": {
        **_COMMON,
        "K": (_parse_float, None),
        **_SI,
        "mu": (_parse_float, None),
        "y0-frac": (_parse_float, 1e-4),
        "dt-factor": (_parse_float, 1000.0),
        "n-periods": (_parse_int, 10),
    },
    "sweep": {**_COMMON, "K-grid": (_parse_grid, None)},
}

_FLAG_HELP = {
    "out": "output directory (created on demand)",
    "formats": "comma list of outputs to write: csv,json",
    "K": "spring stiffness in reduced units (excludes SI flags)",
    "particle-mass": "particle mass in kg (SI parameterization)",
    "box-size": "unstrained box size in m (SI parameterization)",
    "spring-stiffness": "wall spring stiffness in N/m (SI parameterization)",
    "wall-mass": "wall mass in kg (SI; defaults to 1000 particle masses)",
    "mu": "wall/particle mass ratio (reduced parameterization)",
    "ell": "relative box size d'/d",
    "n-max": "number of levels to tabulate",
    "t-grid": "temperature grid, units T0: start:stop:step or comma list",
    "K-grid": "stiffness grid: start:stop:step or comma list",
    "y0-frac": "initial displacement as a fraction of the strain, in [0, 1)",
    "dt-factor": "steps per small-oscillation period",
    "n-periods": "number of small-oscillation periods to integrate",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit(2)
        raise UsageError(message)


def _build_parser(command: str) -> _Parser:
    parser = _Parser(prog=f"zpbox {command}", add_help=True, allow_abbrev=False)
    parser.add_argument("--config", default=None, help="flat key = value file")
    for flag, (conv, default) in _OPTIONS[command].items():
        extra = "" if default is None else f" (default {_default_text(default)})"
        parser.add_argument(
            f"--{flag}",
            dest=flag.replace("-", "_"),
            type=_raising(conv),
            default=None,
            help=_FLAG_HELP.get(flag, "") + extra,
        )
    return parser


def _default_text(default) -> str:
    if isinstance(default, tuple):
        return ",".join(str(v) for v in default)
    return str(default)


def _raising(conv):
    # argparse swallows ValueError subclasses from type=; funnel through
    # ArgumentTypeError so the message survives into parser.error()
    def wrapped(text):
        try:
            return conv(text)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return wrapped


def _parse_config_text(text: str, allowed: dict) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise UsageError(f"config line {lineno}: expected key = value")
        key = key.strip()
        val = val.strip()
        if key not in allowed:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise UsageError(f"config line {lineno}: duplicate key {key!r}")
        conv, _ = allowed[key]
        values[key] = conv(val)
    return values


def parse_scenario(argv, config_text: str | None = None) -> Scenario:
    """Turn an argument list (and optional config text) into a Scenario.

    Flags override config-file keys; unknown flags or keys, conflicting
    parameterizations, and malformed numbers raise UsageError.
    """
    argv = list(argv)
    if not argv:
        raise UsageError(f"missing command; expected one of {', '.join(COMMANDS)}")
    command = argv[0]
    if command not in COMMANDS:
        raise UsageError(
            f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}"
        )
    options = _OPTIONS[command]
    ns = _build_parser(command).parse_args(argv[1:])

    if ns.config is not None and config_text is None:
        path = Path(ns.config)
        if not path.is_file():
            raise UsageError(f"config file {ns.config!r} not found")
        config_text = path.read_text()
    config = _parse_config_text(config_text, options) if config_text else {}

    resolved = {}
    for flag, (conv, default) in options.items():
        dest = flag.replace("-", "_")
        value = getattr(ns, dest)
        if value is None:
            value = config.get(flag, default)
        resolved[dest] = value

    scenario = Scenario(
        command=command,
        K=resolved.get("K"),
        mu=resolved.get("mu"),
        particle_mass=resolved.get("particle_mass"),
        box_size=resolved.get("box_size"),
        spring_stiffness=resolved.get("spring_stiffness"),
        wall_mass=resolved.get("wall_mass"),
        ell=resolved.get("ell"),
        n_max=resolved.get("n_max"),
        t_grid=resolved.get("t_grid"),
        k_grid=resolved.get("K_grid"),
        y0_frac=resolved.get("y0_frac"),
        dt_factor=resolved.get("dt_factor"),
        n_periods=resolved.get("n_periods"),
        out_dir=resolved.get("out", "."),
        formats=resolved.get("formats", ("csv", "json")),
    )
    _validate_scenario(scenario)
    return scenario


def _validate_scenario(s: Scenario) -> None:
    si_given = [
        v
        for v in (s.particle_mass, s.box_size, s.spring_stiffness, s.wall_mass)
        if v is not None
    ]
    reduced_given = s.K is not None or s.mu is not None
    if si_given and reduced_given:
        raise UsageError(
            "conflicting parameterization: give either --K/--mu or the SI "
            "flags, not both"
        )
    if si_given and (
        s.particle_mass is None or s.box_size is None or s.spring_stiffness is None
    ):
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
        if s.ell is not None and s.ell <= 0:
            raise UsageError("--ell must be positive")
        if s.n_max is not None and s.n_max < 1:
            raise UsageError("--n-max must be >= 1")
    if s.command == "dynamics":
        if s.y0_frac is not None and not 0.0 <= s.y0_frac < 1.0:
            raise UsageError("--y0-frac must lie in [0, 1)")
        if s.dt_factor is not None and s.dt_factor <= 0:
            raise UsageError("--dt-factor must be positive")
        if s.n_periods is not None and s.n_periods < 1:
            raise UsageError("--n-periods must be >= 1")
        if s.n_periods is not None and s.dt_factor is not None:
            try:
                finite = math.isfinite(s.n_periods * s.dt_factor)
            except OverflowError:  # n_periods alone exceeds the float range
                finite = False
            if not finite:
                raise UsageError("--n-periods times --dt-factor must be finite")


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
        reduced = model.to_reduced(
            model.PhysicalInput(
                particle_mass=s.particle_mass,
                box_size=s.box_size,
                spring_stiffness=s.spring_stiffness,
                wall_mass=s.wall_mass,
            )
        )
        scales = {
            "energy_scale_J": reduced.energy_scale,
            "length_scale_m": reduced.length_scale,
            "time_scale_s": reduced.time_scale,
            "temperature_scale_K": reduced.temperature_scale,
        }
        return reduced.K, reduced.mu, scales
    mu = s.mu
    if mu is None and s.command == "dynamics":
        mu = model.DEFAULT_MASS_RATIO
    return s.K, mu, None


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


def _compute(s: Scenario):
    """Run the library work for a scenario.

    Returns (headline, columns, K, mu, scales).  ``columns`` holds one
    array or sequence per CSV column, in schema order, or is None for a
    command without a series.
    """
    K, mu, scales = _resolve_system(s)
    if s.command == "spectrum":
        levels = range(1, s.n_max + 1)
        columns = (
            levels,
            [spec.energy_level(n, s.ell) for n in levels],
            [spec.wall_force(n, s.ell) for n in levels],
            [spec.collision_frequency(n, s.ell) for n in levels],
            [spec.quantum_size(n, s.ell) for n in levels],
        )
        return {"ell": s.ell, "n_max": s.n_max}, columns, K, mu, scales

    if s.command == "equilibrium":
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
        return headline, None, K, mu, scales

    if s.command == "thermal":
        points = therm.thermal_sweep(K, s.t_grid)
        columns = (
            [p.t for p in points],
            [p.ell_t for p in points],
            [p.alpha for p in points],
            [p.mean_force for p in points],
            [p.occupancies[0] for p in points],
            [p.occupancies[1] for p in points],
        )
        last = points[-1]
        headline = {
            "t_max": last.t,
            "ell_at_t_max": last.ell_t,
            "alpha_at_t_max": last.alpha,
            "mean_force_at_t_max": last.mean_force,
        }
        return headline, columns, K, mu, scales

    if s.command == "dynamics":
        sol = eq.solve_equilibrium(K)
        omega = math.sqrt(sol.effective_stiffness / mu)
        dt = 2.0 * math.pi / (s.dt_factor * omega)
        n_steps = max(1, round(s.n_periods * s.dt_factor))
        traj = dyn.integrate(
            sol, mu, y0=s.y0_frac * sol.strain, v0=0.0, dt=dt, n_steps=n_steps
        )
        try:
            measured = dyn.measured_frequency(traj)
        except AnalysisError:
            measured = math.nan
        columns = (
            traj.times,
            traj.eta,
            traj.velocity,
            traj.particle_energy,
            traj.strain_energy,
            traj.kinetic_energy,
            traj.total_energy,
        )
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
        return headline, columns, K, mu, scales

    if s.command == "sweep":
        solutions = [eq.solve_equilibrium(K) for K in s.k_grid]
        columns = (
            [sol.K for sol in solutions],
            [sol.ell for sol in solutions],
            [sol.strain for sol in solutions],
            [sol.binding_exact for sol in solutions],
            [sol.binding_first_order for sol in solutions],
            [sol.effective_stiffness for sol in solutions],
        )
        headline = {
            "n_points": len(solutions),
            "K_min": s.k_grid[0],
            "K_max": s.k_grid[-1],
        }
        return headline, columns, K, mu, scales

    raise UsageError(f"unknown command {s.command!r}")


def run(scenario: Scenario) -> RunSummary:
    """Execute a scenario: compute, then write every requested output file.

    All numeric work happens before any file is opened, so a failing run
    leaves no partial output behind.  The series columns stream into the
    CSV block by block; the summary JSON follows.
    """
    start = time.perf_counter()
    headline, columns, K, mu, scales = _compute(scenario)

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
        _write_csv(csv_path, _CSV_SCHEMAS[scenario.command], columns)
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
    except ZpboxError as exc:  # numerical / domain / analysis failures
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
