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

Only the library's public API is used: the tables are the columns of
``level_table``, ``thermal_blocks`` and ``equilibria`` under CSV names, and
flags are checked by library validators led by the flag (``check_grid``,
``check_size``, ``check_level``, ``check_positive``; ``time_step`` in dynamics).

Exit codes: 0 success, 1 numerical failure, 2 usage error.  Usage errors
are raised before any file is opened, and each output is written under a
temporary name in the output directory and renamed into place only once
every output of the run is written, so a failed run leaves no output file.

Threads: the CLI makes no BLAS call, so importing this module defaults
``OPENBLAS_NUM_THREADS`` to 1 before numpy loads; otherwise numpy's
OpenBLAS starts one thread per further CPU, which busy-wait for about
0.1 s.  A value already in the environment wins.  The library
(``import zpbox``) leaves the environment alone, and loads numpy only on
first use.
"""

import argparse
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from pathlib import Path

# must precede numpy's import: OpenBLAS sizes its thread pool as it loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
    step) or an explicit comma-separated list (one number is a list of one)."""
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
    return tuple(_parse_float(p) for p in text.split(","))


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
        float(dyn.STEPS_PER_PERIOD),
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
    # each flag takes one value, even one argparse reads as an option: "-1e-3"
    options = {f"--{name}" for name in (*names, "config")}
    args = []
    for word in argv[1:]:
        if args and args[-1] in options and word[:1] == "-" and word[:2] != "--":
            word = f"{args.pop()}={word}"
        args.append(word)
    ns = _build_parser(command, names).parse_args(args)

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
    try:
        _validate_scenario(scenario)
    except ValidationError as exc:  # a library validator, led by the flag
        raise UsageError(str(exc)) from None
    return scenario


def _validate_scenario(s: Scenario) -> None:
    """Raise UsageError, or a library ValidationError that names the flag."""
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
    if s.command in ("thermal", "sweep"):
        thermal = s.command == "thermal"
        flag, grid = ("t-grid", s.t_grid) if thermal else ("K-grid", s.k_grid)
        if grid is None:
            raise UsageError(f"{s.command} needs --{flag}")
        eq.check_grid(grid, f"--{flag}", positive=not thermal)
    if s.command == "spectrum":
        spec.check_size(s.ell, "--ell")
        spec.check_level(s.n_max, "--n-max")
    if s.command == "dynamics":
        if not 0.0 <= s.y0_frac < 1.0:
            raise UsageError("--y0-frac must lie in [0, 1)")
        if s.mu is not None:
            model.check_positive(s.mu, "--mu")
        if s.n_periods < 1:
            raise UsageError("--n-periods must be >= 1")
        try:
            finite = math.isfinite(s.n_periods * s.dt_factor)
        except OverflowError:  # n_periods alone exceeds the float range
            finite = False
        if not finite:
            raise UsageError("--n-periods times --dt-factor must be finite")


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
    if s.mu is None and s.command == "dynamics":  # the default wall mass ratio
        return s.K, model.DEFAULT_MASS_RATIO, None
    return s.K, s.mu, None


# rows formatted by one % operation; bounds the text held in memory at once
_CSV_BLOCK_ROWS = 4096

# a block travels from a worker to the parent as its byte length, then its bytes
_FRAME_LENGTH_BYTES = 8


def _csv_processes() -> int:
    """How many processes may format CSV blocks: one per CPU this process
    may run on, or 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _format_block(line: str, columns, start: int) -> str:
    """The CSV text of rows [start, start + _CSV_BLOCK_ROWS), one % in all."""
    block = [c[start : start + _CSV_BLOCK_ROWS].tolist() for c in columns]
    values = tuple(itertools.chain.from_iterable(zip(*block)))
    return (line * len(block[0])) % values


def _csv_worker(fd: int, read_fds, line: str, columns, starts) -> None:
    """Forked child: format the blocks at ``starts`` into pipe ``fd`` as
    length-prefixed frames, then leave through ``os._exit``, never returning
    into the parent's stack (1 on any exception, 0 on success).

    It first closes the read ends it inherited (``read_fds``), so that once
    the parent closes a pipe, the worker writing into it gets EPIPE.
    """
    status = 1
    try:
        for read_fd in read_fds:
            os.close(read_fd)
        with open(fd, "wb") as pipe:
            for start in starts:
                data = _format_block(line, columns, start).encode()
                pipe.write(len(data).to_bytes(_FRAME_LENGTH_BYTES, "little"))
                pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _read_frame(pipe) -> bytes:
    """The next block a worker sent; ZpboxError if the frame is short."""
    prefix = pipe.read(_FRAME_LENGTH_BYTES)
    if len(prefix) == _FRAME_LENGTH_BYTES:
        size = int.from_bytes(prefix, "little")
        data = pipe.read(size)
        if len(data) == size:
            return data
    raise ZpboxError("a CSV formatting process ended before sending its block")


def _write_csv(path: Path, header, columns) -> None:
    """Write equal-length columns as CSV under a header line.

    Integer columns print as ``%d`` and all others as ``%.17g``, the same
    text as ``str(int(v))`` and ``format(float(v), ".17g")``.  Rows are
    formatted a block of ``_CSV_BLOCK_ROWS`` at a time by P processes, P =
    min(``_csv_processes()``, number of blocks).  Before the file is opened
    the parent forks P - 1 workers; worker j formats blocks j, j + P, ...
    and sends each through its own pipe.  The parent formats blocks 0, P,
    2P, ..., reads the others in order and writes every block in block
    order, so the bytes do not depend on P.  The file is opened in binary
    mode: each block is encoded once, by the process that formatted it, and
    worker frames are written as received.  Each process holds at most one
    formatted block, so the whole file is never held as one string.  With
    P = 1 (one block, one CPU, or no ``os.fork``) nothing is forked.  A
    worker that fails or sends a short frame raises ZpboxError; every
    worker is reaped before this returns or raises.
    """
    columns = [np.asarray(c) for c in columns]
    line = ",".join(
        "%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns
    ) + "\n"
    starts = range(0, len(columns[0]), _CSV_BLOCK_ROWS)
    n_procs = min(_csv_processes(), len(starts))
    workers = []  # (pid, read end of its pipe), for blocks j, j + P, ...
    try:
        for j in range(1, n_procs):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                read_fds = [read_fd, *(pipe.fileno() for _, pipe in workers)]
                _csv_worker(write_fd, read_fds, line, columns, starts[j::n_procs])
            os.close(write_fd)
            workers.append((pid, open(read_fd, "rb")))
        with path.open("wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for k, start in enumerate(starts):
                j = k % n_procs
                if j == 0:
                    fh.write(_format_block(line, columns, start).encode())
                else:  # the bytes the worker encoded
                    fh.write(_read_frame(workers[j - 1][1]))
    finally:
        # close the pipes first, so a worker blocked on a write sees EPIPE
        for _, pipe in workers:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in workers]
    if any(statuses):
        raise ZpboxError("a CSV formatting process failed")


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
    # every value is a str, a list of them or a Python scalar; JSON has no
    # NaN or infinity, so a float that is not finite is written as null
    return {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in flat.items()
    }


# ---------------------------------------------------------------------------
# the commands


def _renamed(columns: dict, drop=(), **names) -> dict:
    """Library ``columns`` in order, less ``drop``, renamed as ``names`` says."""
    return {names.get(k, k): v for k, v in columns.items() if k not in drop}


def _spectrum(s: Scenario, K, mu):
    table = spec.level_table(s.n_max, s.ell)
    columns = _renamed(table, collision_frequency="collision_freq")
    return {"ell": s.ell, "n_max": s.n_max}, columns


def _equilibrium(s: Scenario, K, mu):
    sol = asdict(eq.solve_equilibrium(K))
    return _renamed(sol, drop=("K",), effective_stiffness="K_prime"), None


def _thermal(s: Scenario, K, mu):
    blocks = list(therm.thermal_blocks(K, s.t_grid))
    columns = {
        name: np.concatenate([getattr(b, name) for b in blocks])
        for name in ("t", "ell", "alpha", "mean_force")
    }
    for n in (1, 2):  # occupancies of the two lowest levels
        columns[f"p{n}"] = np.concatenate([b.p[n - 1] for b in blocks])
    headline = {"t_max": float(columns["t"][-1])}
    for name in ("ell", "alpha", "mean_force"):
        headline[f"{name}_at_t_max"] = float(columns[name][-1])
    return headline, columns


def _dynamics(s: Scenario, K, mu):
    masses = f"--mu {mu!r}"  # a time-step error names the mass flags given
    if s.particle_mass is not None:  # the SI flags whose ratio is mu
        masses = f"--particle-mass {s.particle_mass!r} (mass ratio mu = {mu!r})"
        if s.wall_mass is not None:
            masses = f"--wall-mass {s.wall_mass!r} and {masses}"
    sol = eq.solve_equilibrium(K)
    omega, dt = dyn.time_step(
        sol, mu, s.dt_factor, f"{masses} with --dt-factor {s.dt_factor!r}"
    )
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
        # velocity Verlet's own frequency for the linearised motion
        "omega_verlet": 2.0 / dt * math.asin(omega * dt / 2.0),
        "measured_omega": measured,
        "y0": s.y0_frac * sol.strain,
        "dt": dt,
        "n_steps": n_steps,
    }
    return headline, columns


def _sweep(s: Scenario, K, mu):
    sol = eq.equilibria(s.k_grid)
    drop = ("residual", "strain_energy")
    columns = _renamed(sol, drop=drop, effective_stiffness="K_prime")
    headline = {
        "n_points": len(s.k_grid),
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

    All numeric work happens before any file is opened.  The series columns
    stream into the CSV block by block; the summary JSON follows.  Each
    output is written to a temporary file beside it, and only once every
    output is written is each renamed into place with ``os.replace``; on any
    failure the temporaries are removed, so a failed run leaves no partial
    output behind.
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
    # output path -> a hidden name beside it that no other running process uses
    staged = {
        p: p.with_name(f".{p.name}.{os.getpid()}.tmp")
        for p in (csv_path, json_path)
        if p is not None
    }
    try:
        if csv_path is not None:
            _write_csv(staged[csv_path], columns.keys(), columns.values())
        if json_path is not None:
            text = json.dumps(summary_dict(summary), indent=2) + "\n"
            staged[json_path].write_text(text)
        for path, temporary in staged.items():
            os.replace(temporary, path)
    except BaseException:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)
        raise

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
