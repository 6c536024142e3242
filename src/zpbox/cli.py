"""Command-line front end: ``zpbox <command> [flags] [--config FILE]``.

Commands
    spectrum     level table for a rigid box of a given relative size
    equilibrium  zero-point-force strain equilibrium at one stiffness
    thermal      self-consistent box size over a temperature grid
    dynamics     breathing-mode trajectory about the strained equilibrium
    sweep        equilibrium solutions over a stiffness grid

The system is given either in reduced units (--K, --mu) or in SI
(--particle-mass, --box-size, --spring-stiffness, --wall-mass), not both.
argv is read against the flag table ``_FLAGS``; a flat ``key = value`` config
file can supply any flag's value, and explicit flags win.  Series go to CSV,
one summary JSON is written per run, and identical scenarios produce
byte-identical files: CSV values and the JSON's ``argv`` echo print as
``%.17g``, other JSON numbers as Python's shortest ``repr``.  A
``start:stop:step`` grid is held as a ``slice`` of its three floats and
echoed as them, a comma list in full.

Only the library's public API is used: the tables are the columns of
``level_table``, ``thermal_blocks``, ``integrate`` and ``equilibria`` under
CSV names, and flags are checked by library validators led by the flag
(``check_grid``, which reads a grid point of -0 as +0, ``check_size``,
``check_level``, ``check_positive``, ``check_count``; ``time_step``).

Exit codes: 0 success, 1 numerical failure, 2 usage error.  Usage errors
are raised before any file is opened, and each output is written under a
temporary name in the output directory and renamed into place only once
every output of the run is written, so a failed run leaves no output file.

Threads and processes: the CLI makes no BLAS call, so importing this
module defaults ``OPENBLAS_NUM_THREADS`` to 1 before numpy loads; otherwise
numpy's OpenBLAS starts one thread per further CPU, which busy-wait for
about 0.1 s.  A value already in the environment wins.  The library
(``import zpbox``) leaves the environment alone, and loads numpy only on
first use.  The run's own process writes every output; a CSV is formatted
by numpy a block of rows at a time (``_csv_blocks``), each value exactly
the text of ``format(v, ".17g")``, from float64 operations that give the
same digits on every IEEE host.  A process started as the CLI ends by
freezing the garbage collector (``main``): interpreter shutdown would
otherwise sweep numpy's tens of thousands of objects for nothing, about a
tenth of a short run.  A closed stdout is one error line and exit 1.
"""

import functools
import gc
import json
import math
import os
import sys
import time
from collections import namedtuple
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

# must precede numpy's import: OpenBLAS sizes its thread pool as it loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import dynamics as dyn
from . import equilibrium as eq
from . import model
from . import spectrum as spec
from . import thermal as therm
from .errors import AnalysisError, UsageError, ValidationError, ZpboxError

class Scenario(NamedTuple):
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
    t_grid: slice | tuple[float, ...] | None = None  # a range or a comma list
    k_grid: slice | tuple[float, ...] | None = None
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


class RunSummary(NamedTuple):
    """Outcome of one run: echoed scenario, headline numbers, file manifest."""

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
        return float(text)
    except ValueError:
        raise UsageError(f"malformed number {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"malformed integer {text!r}") from None


def _parse_grid(text: str) -> slice | tuple[float, ...]:
    """Grid syntax: ``start:stop:step`` (endpoints inclusive within half a
    step), kept as ``slice(start, stop, step)``, or an explicit comma list (one
    number is a list of one).  A range echoes as ``%.17g:%.17g:%.17g``, which
    parses back to the same floats, and never equals its numbers' comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid {text!r} must be start:stop:step")
        start, stop, step = (_parse_float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise UsageError(f"grid start, stop and step must be finite in {text!r}")
        if step <= 0:
            raise UsageError(f"grid step must be positive in {text!r}")
        if stop < start:
            raise UsageError(f"grid stop must be >= start in {text!r}")
        grid = slice(start, stop, step)
        if _range_steps(grid) > _MAX_RANGE_STEPS:
            raise UsageError(
                f"grid {text!r} spans more than {_MAX_RANGE_STEPS} steps"
            )
        return grid
    return tuple(_parse_float(p) for p in text.split(","))


def _range_steps(grid: slice) -> float:
    """(stop - start)/step, at half scale where stop - start overflows."""
    span = grid.stop - grid.start
    if math.isinf(span):
        return (0.5 * grid.stop - 0.5 * grid.start) / (0.5 * grid.step)
    return span / grid.step


def _range_points(grid: slice) -> np.ndarray:
    """The points ``start + i*step``, i = 0, 1, ..., up to the first that
    lies more than half a step past ``stop``.

    Each point is the same two IEEE operations on float64 (``i`` is exact
    below 2**53) as a loop over i would do, and they do not decrease, so
    the points kept are a prefix of one vectorised pass.  Rounding can keep
    a point or two past ``(stop - start)/step + 1/2``; a pass that keeps
    every point it built is rebuilt twice as long, unless its points have
    stopped advancing.  Where ``stop + step/2`` overflows, both sides of the
    comparison are halved, which is exact in the normal range, so a point
    past the float range can be kept.  ``check_grid`` rejects both.
    """
    start, stop, step = grid.start, grid.stop, grid.step

    def line(n, a, b):  # a + i*b for i < n
        values = np.arange(n, dtype=float)
        values *= b
        values += a
        return values

    bound = stop + 0.5 * step
    n = int(_range_steps(grid) + 0.5) + 2
    while True:
        with np.errstate(over="ignore"):
            points = line(n, start, step)
            if math.isinf(bound):
                within = line(n, 0.5 * start, 0.5 * step) <= 0.5 * stop + 0.25 * step
            else:
                within = points <= bound
        points = points[: np.count_nonzero(within)]
        if len(points) < n or (points[1:] <= points[:-1]).any():
            return points
        n *= 2


def _grid_points(grid) -> np.ndarray:
    """A grid's points as one float64 array: a range built, a list as given."""
    if isinstance(grid, slice):
        return _range_points(grid)
    return np.array(grid, dtype=float)


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
    if isinstance(grid, slice):
        return "%.17g:%.17g:%.17g" % (grid.start, grid.stop, grid.step)
    return ",".join(["%.17g"] * len(grid)) % tuple(grid)


# ---------------------------------------------------------------------------
# the flags


class _Flag(NamedTuple):
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
        "wall mass in kg (SI; defaults to the mass ratio mu = "
        f"{model.DEFAULT_MASS_RATIO:g}, exactly)",
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
        "out_dir",
        str,
        str,
        Scenario._field_defaults["out_dir"],
        "output directory (created on demand)",
    ),
    "formats": _Flag(
        "formats",
        _parse_formats,
        ",".join,
        Scenario._field_defaults["formats"],
        "comma list of outputs to write: csv,json",
    ),
}


# ---------------------------------------------------------------------------
# scenario assembly


def _read_argv(command: str, words, names) -> dict[str, str]:
    """{name: value text} of the flags among ``names`` and ``config`` that
    ``words`` give, as ``--name value`` or ``--name=value``, the last one winning;
    a value may start with "-" ("-1e-3") but not "--".  Other words are reported
    together at the end; ``-h`` or ``--help`` prints each flag's help, exits 0."""
    given, unknown, words = {}, [], iter(words)
    for word in words:
        if word in ("-h", "--help"):
            print(f"usage: zpbox {command} [--flag value ...]")
            print(f"  --{'config':18}flat key = value file")
            for name in names:
                flag = _FLAGS[name]
                text = flag.help
                if flag.default is not None:
                    text += f" (default {flag.format(flag.default)})"
                print(f"  --{name:18}{text}")
            raise SystemExit(0)
        name, sep, value = word[2:].partition("=")
        if word[:2] != "--" or name not in names and name != "config":
            unknown.append(word)
        elif not sep and (value := next(words, "--"))[:2] == "--":  # or none left
            raise UsageError(f"argument --{name}: expected one argument")
        else:
            given[name] = value
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return given


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
    given = _read_argv(command, argv[1:], names)
    path = given.get("config")
    if path is not None and config_text is None:
        if not Path(path).is_file():
            raise UsageError(f"config file {path!r} not found")
        try:
            config_text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise UsageError(f"config file {path!r} is not UTF-8 text") from None
    config = _parse_config_text(config_text, names) if config_text else {}

    fields = {}
    for name in names:
        flag = _FLAGS[name]
        text = given.get(name, config.get(name))
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
        for name in _SYSTEM:  # each system flag given, checked under its name
            value = getattr(s, _FLAGS[name].field)
            if value is not None:
                model.check_positive(value, f"--{name}")
    if s.command in ("thermal", "sweep"):
        thermal = s.command == "thermal"
        flag, grid = ("t-grid", s.t_grid) if thermal else ("K-grid", s.k_grid)
        if grid is None:
            raise UsageError(f"{s.command} needs --{flag}")
        eq.check_grid(_grid_points(grid), f"--{flag}", positive=not thermal)
    if s.command == "spectrum":
        spec.check_size(s.ell, "--ell")
        spec.check_level(s.n_max, "--n-max")
    if s.command == "dynamics":
        if not 0.0 <= s.y0_frac < 1.0:
            raise UsageError("--y0-frac must lie in [0, 1)")
        if s.mu is not None:
            model.check_positive(s.mu, "--mu")
        model.check_count(s.n_periods, "--n-periods")
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
        K, mu, *scales = model.to_reduced(*si)
        return K, mu, dict(zip(_SCALES, scales))
    if s.mu is None and s.command == "dynamics":  # the default wall mass ratio
        return s.K, model.DEFAULT_MASS_RATIO, None
    return s.K, s.mu, None


# rows formatted in one numpy pass; its work arrays take about 320 bytes a
# value, 2.3 MB at 7 columns
_CSV_BLOCK_ROWS = 1024
_SWEEP_BLOCK = 4096  # stiffnesses a sweep solves at a time: one block of its CSV

# Every value of a block is first written into the same 52-byte superset
# text (13 little-endian uint32 words), of which its ".17g" text is a
# subsequence; D0 ... D16 are the value's 17 significant digits:
#
#   byte  0 "-"   1-2 "0."   4-7 "000" D0   8-23 D1 ... D16   27 "."
#        28-43 D1 ... D16   44-48 "e" sign and three exponent digits
#        51 the separator ("," or "\n"); bytes 3, 24-26 and 49-50 are padding
#
# A keep row of 52 booleans, looked up by the value's shape (notation,
# number of significant digits, sign), picks its bytes: 1.5 is "1" (7),
# "." (27) and "5" (28); 0.0625 is "0." (1-2), "0" (6) and "625" (7-9);
# 1.52587890625e-05 is "1" (7), "." (27), "52587890625" (28-38) and "e-05"
# (44, 45, 47, 48).
_CSV_WORDS = 13
_CSV_WIDTH = 4 * _CSV_WORDS
_CSV_SEP = _CSV_WIDTH - 1
# shapes: X = -4 ... 16 print in fixed notation, others in exponent notation
# with two or three exponent digits; 17 digit counts; two signs
_CSV_SHAPES = (21 + 2) * 17 * 2
# the tables' range: 10**k for k = X + 1 and 16 - X, and the exponent text
# and shape of X (up to 309 after rounding), for every double's decimal
# exponent X = floor(log10 |v|) in [-324, 308]
_MIN_POWER, _MAX_POWER = -324, 340


# Lookup tables of the vectorised "%.17g", indexed as noted:
#   ceil[k - _MIN_POWER]   the smallest double >= 10**k
#   power[k - _MIN_POWER]  high, its 26-bit halves hh and hl, and low, where
#   scale[k - _MIN_POWER]  10**k = (high + low) 2**scale (_powers_of_ten)
#   digits[n], zeros[n]    "%04d" % n as a uint32, and its trailing zeros
#   exponent[X - _MIN_POWER]   "e", sign and three digits, as two words
#   shape[X - _MIN_POWER]  the keep row of 17 digits, positive
#   keep[shape]            the bytes kept; _CSV_SHAPES + L keeps the first L
_CsvTables = namedtuple(
    "_CsvTables", "ceil power scale digits zeros exponent shape keep"
)


def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10**k for k in [_MIN_POWER, _MAX_POWER], from one exact quotient each:
    10**k = (high + low) 2**scale, high in [1, 2] and low its remainder, each
    correctly rounded, and ceil, the smallest double >= 10**k."""
    ceil, high, low, scale = [], [], [], []
    for k in range(_MIN_POWER, _MAX_POWER + 1):
        n, m = (10**k, 1) if k >= 0 else (1, 10**-k)  # 10**k = n/m
        s = n.bit_length() - 1 if k >= 0 else -m.bit_length()  # 10**k / 2**s
        # 10**k 2**(127 - s) = q + f, f in [0, 1): u = 2q + [f > 0] keeps a
        # sticky last bit, so float() rounds u, and u less high's bits, as it
        # would the exact values, while low lies at most 9 bits below 2**-53
        # (as it does for these k; the tests compare every k with Fraction)
        q, r = divmod(n << max(127 - s, 0), m << max(s - 127, 0))
        u = 2 * q + (r > 0)
        h = float(u)
        lo = float(u - int(h)) * 2.0**-128
        h *= 2.0**-128
        if s < -1022:  # a subnormal decade: the next multiple of 2**-1074
            c = math.ldexp(-(-(n << 1074) // m), -1074)
        elif s > 1023:  # past the largest double
            c = math.inf
        else:  # high 2**s is a double, and it is below 10**k where low > 0
            c = math.ldexp(h, s)
            if lo > 0:
                c = math.nextafter(c, math.inf)
        ceil.append(c)
        high.append(h)
        low.append(lo)
        scale.append(s)
    return np.array(ceil), np.array(high), np.array(low), np.array(scale, np.intc)


@functools.cache
def _csv_tables() -> _CsvTables:
    """The tables, built on the first CSV block, never at import."""
    ceil, high, low, scale = _powers_of_ten()
    c = high * (2.0**27 + 1)  # Veltkamp's split: hh + hl = high, 26 bits each
    hh = c - (c - high)
    power = np.stack([high, hh, high - hh, low], axis=1)
    ten = np.arange(10, dtype=np.uint8)
    group = np.stack(np.meshgrid(ten, ten, ten, ten, indexing="ij"), axis=-1)
    digits = (group + ord("0")).view(np.uint32).ravel()  # group n = "%04d" % n
    i, j, k, m = (group[..., d] == 0 for d in range(4))  # digit d is 0
    zeros = (m * (1 + k * (1 + j * (1 + i)))).astype(np.uint8).ravel()

    x = np.arange(_MIN_POWER, _MAX_POWER + 1)
    ax = np.abs(x)
    exponent = np.zeros((len(x), 8), np.uint8)
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    for col, unit in enumerate((100, 10, 1), start=2):
        exponent[:, col] = ord("0") + ax // unit % 10
    notation = np.where((-4 <= x) & (x <= 16), x + 4, 21 + (ax >= 100))
    # row (notation 17 + s - 1) 2 + sign, s = 17 - trailing zeros
    shape = notation * 34 + 2 * 16

    # keep[notation, s - 1, sign, byte]; X = -4 ... 16, then the exponents
    p = np.arange(_CSV_WIDTH)
    X = np.arange(-4, 17)[:, None, None]
    s = np.arange(1, 18)[None, :, None]
    after = (p == 27) & (s > X + 1) | (28 + X <= p) & (p <= 26 + s)
    fixed = np.where(
        X >= 0,
        (7 <= p) & (p <= 7 + X) | after,  # D0 ... DX "." D(X+1) ...
        (1 <= p) & (p <= 2) | (8 + X <= p) & (p < 7 + s),  # "0." zeros D0 ...
    )
    three = np.array([False, True])[:, None, None]  # three exponent digits
    exp = (p == 7) | (p == 27) & (s > 1) | (28 <= p) & (p <= 26 + s)
    exp = exp | (p == 44) | (p == 45) | (p == 46) & three | (p == 47) | (p == 48)
    keep = np.concatenate([fixed, np.broadcast_to(exp, (2, 17, _CSV_WIDTH))])
    keep = np.stack([keep, keep | (p == 0)], axis=2).reshape(-1, _CSV_WIDTH)
    raw = p < np.arange(_CSV_WIDTH)[:, None]  # the first L bytes, as written
    keep = np.concatenate([keep, raw]) | (p == _CSV_SEP)

    return _CsvTables(
        ceil, power, scale, digits, zeros, exponent.view(np.uint32), shape, keep
    )


def _csv_blocks(blocks, width):
    """Yield the CSV bytes of ``blocks``, each ``width`` equal-length columns
    of any length, in pieces of at most _CSV_BLOCK_ROWS rows.

    Each value prints exactly as ``format(float(v), ".17g")``.  One pass of
    numpy calls formats a piece into a prefix of work arrays allocated here,
    once, before the first block is pulled: arrays allocated afresh for each
    piece page-faulted anew (about 45 000 faults and 0.05 s of CPU on a
    10**5-row dynamics CSV).
    """
    t = _csv_tables()
    n = _CSV_BLOCK_ROWS * width
    values = np.empty(n)  # the block, row-major
    a = np.empty(n)  # |v|, then A
    f = np.empty(n)
    e = np.empty(n, np.intc)
    x = np.empty(n, np.intp)  # decimal exponent X
    i = np.empty(n, np.intp)
    b = np.empty(n, bool)
    slow = np.empty(n, bool)  # formatted by Python
    product = np.empty((4, n))  # p, r, ah, al: Dekker's product
    power = np.empty((n, 4))  # high, hh, hl, low of 10**(16 - X)
    d = np.empty(n, np.int64)  # the 17 digits, then D0
    q = np.empty(n, np.int64)
    groups = np.empty((n, 4), np.intp)  # D1-D4 ... D13-D16
    zeros = np.empty((n, 4), np.uint8)
    shape = np.empty(n, np.intp)
    lead = np.empty(n, np.uint32)
    digits = np.empty((n, 4), np.uint32)
    exponent = np.empty((n, 2), np.uint32)
    words = np.empty((n, _CSV_WORDS), np.uint32)
    keep = np.empty((n, _CSV_WIDTH), bool)
    seps = [ord(",")] * (width - 1) + [ord("\n")]
    seps = np.array(seps, np.uint32) << 24  # the last byte of word 12
    flat = (values, a, f, e, x, i, b, slow, d, q, shape, lead)
    rows = (power, groups, zeros, digits, exponent, words, keep)
    pieces = (
        [c[start : start + _CSV_BLOCK_ROWS] for c in block]
        for block in blocks
        for start in range(0, len(block[0]), _CSV_BLOCK_ROWS)
    )
    for piece in pieces:
        n = len(piece[0]) * width  # a short piece fills a prefix of each array
        values, a, f, e, x, i, b, slow, d, q, shape, lead = (w[:n] for w in flat)
        p, r, ah, al = product[:, :n]
        power, groups, zeros, digits, exponent, words, keep = (w[:n] for w in rows)
        np.stack(piece, axis=1, out=values.reshape(-1, width))  # ints to float64
        np.abs(values, out=a)
        np.isfinite(a, out=b)
        np.logical_not(b, out=b)
        np.copyto(a, 0.0, where=b)  # nan is never compared
        np.equal(a, 0.0, out=slow)
        np.copyto(a, 1.0, where=slow)

        # The 17 digits d and decimal exponent X of a = |v|: d = round(y) for
        # y = a 10**(16 - X) in [10**16, 10**17).  First X: frexp gives
        # a = m 2**e, m in [1/2, 1), so X is floor((e - 1) log10 2) or one
        # more, which the comparison with the smallest double >= 10**(X + 1)
        # decides exactly.  Then y = A (high + low) for 10**(16 - X) = (high +
        # low) 2**scale and A = a 2**scale, exact in [2**52, 2**57).  Dekker's
        # product splits A high exactly into p, an integer, and r; with A low
        # added, y' = p + r is within 2**-46 of y.  Unless y' is within 2**-40
        # of a half-integer, round(y) = p + rint(r), correctly rounded as
        # Python's dtoa rounds.  Those values (exact ties such as 2**-25, else
        # about one in 10**12) take Python's own format, as do 0, inf and nan.
        np.frexp(a, f, e)
        e -= 1
        e *= 78913
        e >>= 18  # floor((e - 1) log10 2), exact for |e - 1| < 1651
        np.copyto(x, e)
        np.add(x, 1 - _MIN_POWER, out=i)
        np.take(t.ceil, i, out=f, mode="clip")
        np.greater_equal(a, f, out=b)
        x += b
        np.subtract(16 - _MIN_POWER, x, out=i)
        np.take(t.scale, i, out=e, mode="clip")
        np.ldexp(a, e, out=a)  # A
        np.take(t.power, i, axis=0, out=power, mode="clip")
        high, hh, hl, low = power.T
        np.multiply(a, 2.0**27 + 1, out=f)  # Veltkamp's split: ah + al = A
        np.subtract(f, a, out=ah)
        np.subtract(f, ah, out=ah)
        np.subtract(a, ah, out=al)
        np.multiply(a, high, out=p)
        np.multiply(ah, hh, out=r)  # r = ((ah hh - p) + ah hl + al hh) + al hl
        r -= p
        for u, v in ((ah, hl), (al, hh), (al, hl), (a, low)):
            np.multiply(u, v, out=f)
            r += f
        np.rint(r, out=f)
        r -= f  # exact, in [-1/2, 1/2]
        np.copyto(d, p, casting="unsafe")
        np.copyto(q, f, casting="unsafe")
        d += q
        np.abs(r, out=r)
        np.greater_equal(r, 0.5 - 2.0**-40, out=b)
        slow |= b
        np.equal(d, 10**17, out=b)  # rounded up a decade: one digit, X + 1
        np.copyto(d, 10**16, where=b)
        x += b

        # d = D0 D1 ... D16: the leading digit, four groups of four digits,
        # and the count of trailing zeros, z3 + [g3 = 0](z2 + [g2 = 0](z1 +
        # [g1 = 0] z0)) for the groups' own trailing zeros zk
        np.divmod(d, 10**8, out=(q, i))
        np.divmod(i, 10_000, out=(groups[:, 2], groups[:, 3]))
        np.divmod(q, 10**8, out=(d, q))
        np.divmod(q, 10_000, out=(groups[:, 0], groups[:, 1]))
        np.take(t.digits, groups, out=digits, mode="clip")
        np.take(t.zeros, groups, out=zeros, mode="clip")
        np.equal(groups, 0, out=groups)
        trailing = zeros[:, 0]
        for k in (1, 2, 3):
            np.multiply(trailing, groups[:, k], out=trailing, casting="unsafe")
            trailing += zeros[:, k]
        x -= _MIN_POWER
        np.take(t.shape, x, out=shape, mode="clip")
        trailing *= 2
        shape -= trailing
        np.signbit(values, out=b)
        shape += b

        words[:, 0] = int.from_bytes(b"-0. ", "little")
        np.take(t.digits, d, out=lead, mode="clip")
        words[:, 1] = lead
        words[:, 2:6] = digits
        words[:, 6] = int.from_bytes(b"   .", "little")
        words[:, 7:11] = digits
        np.take(t.exponent, x, axis=0, out=exponent, mode="clip")
        words[:, 11:13] = exponent
        words.reshape(-1, width, _CSV_WORDS)[:, :, 12] |= seps

        text = words.view(np.uint8)
        index = np.flatnonzero(slow)
        if len(index):
            texts = [format(v, ".17g") for v in values[index].tolist()]
            raw = np.array(texts, dtype=f"S{_CSV_SEP}").view(np.uint8)
            text[index, :_CSV_SEP] = raw.reshape(-1, _CSV_SEP)
            shape[index] = _CSV_SHAPES + np.array([len(s) for s in texts])
        chunk = text[np.take(t.keep, shape, axis=0, out=keep, mode="clip")]
        yield chunk


def _write_csv(path: Path, header, blocks) -> None:
    """Write ``blocks`` as CSV under a header line, pulling each block only
    once the one before it is written, so the file is never held in memory."""
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(_csv_blocks(blocks, len(header)))


def summary_dict(summary: RunSummary) -> dict:
    """Flat JSON form of a RunSummary.

    The wall-clock duration is intentionally left out so identical
    scenarios serialize to identical bytes.
    """
    flat = {
        "command": summary.scenario.command,
        "argv": summary.scenario.to_argv(),
        "K": summary.K,
        "mu": summary.mu,
        **(summary.scales or dict.fromkeys(_SCALES)),
        **summary.headline,
        "outputs": list(summary.outputs),
    }
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


def _table(columns: dict):
    """A CSV table of one block: the columns' names and their values."""
    return tuple(columns), [tuple(columns.values())]


def _spectrum(s: Scenario, K, mu):
    table = spec.level_table(s.n_max, s.ell)
    columns = _renamed(table, collision_frequency="collision_freq")
    return {"ell": s.ell, "n_max": s.n_max}, _table(columns)


def _equilibrium(s: Scenario, K, mu):
    sol = eq.solve_equilibrium(K)._asdict()
    return _renamed(sol, drop=("K",), effective_stiffness="K_prime"), None


def _thermal(s: Scenario, K, mu):
    names = ("t", "ell", "alpha", "mean_force", "p1", "p2")
    blocks = [  # one array of the six columns a block: p's other levels are freed
        np.stack((b.t, b.ell, b.alpha, b.mean_force, *b.p[:2]))
        for b in therm.thermal_blocks(K, _grid_points(s.t_grid))
    ]
    keys = ("t_max", "ell_at_t_max", "alpha_at_t_max", "mean_force_at_t_max")
    return dict(zip(keys, blocks[-1][:, -1].tolist())), (names, blocks)


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
    n_steps = round(s.n_periods * s.dt_factor)
    traj = dyn.integrate(
        sol, mu, y0=s.y0_frac * sol.strain, v0=0.0, dt=dt, n_steps=n_steps
    )
    try:
        measured = dyn.measured_frequency(traj)
    except AnalysisError:
        measured = math.nan
    columns = _renamed(
        traj._asdict(),
        times="t",
        velocity="v",
        particle_energy="E_particle",
        strain_energy="E_strain",
        kinetic_energy="E_kinetic",
        total_energy="E_total",
    )
    headline = {
        "ell": sol.ell,
        "strain": sol.strain,
        "K_prime": sol.effective_stiffness,
        "omega_harmonic": omega,
        "omega_verlet": dyn.verlet_frequency(omega, dt),
        "measured_omega": measured,
        "y0": s.y0_frac * sol.strain,
        "dt": dt,
        "n_steps": n_steps,
    }
    return headline, _table(columns)


def _sweep(s: Scenario, K, mu):
    k_grid = _grid_points(s.k_grid)
    header = ("K", "ell", "strain", "binding_exact", "binding_first_order", "K_prime")
    keys = (*header[:-1], "effective_stiffness")  # equilibria's columns
    slices = (k_grid[i : i + _SWEEP_BLOCK] for i in range(0, len(k_grid), _SWEEP_BLOCK))
    blocks = ([sol[k] for k in keys] for sol in map(eq.equilibria, slices))
    ends = {"K_min": float(k_grid[0]), "K_max": float(k_grid[-1])}
    return {"n_points": len(k_grid), **ends}, (header, blocks)


class _Command(NamedTuple):
    """One command: the flags it takes and the work it does."""

    flags: tuple[str, ...]  # besides --out and --formats, in _FLAGS order
    compute: Callable  # (s, K, mu) -> (headline, (header, blocks) or None)


_SYSTEM = ("K", "particle-mass", "box-size", "spring-stiffness", "wall-mass")
# the summary's names of the SI scales, ReducedSystem's last four fields
_SCALES = ("energy_scale_J", "length_scale_m", "time_scale_s", "temperature_scale_K")
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

    The CSV pulls a table's blocks one at a time, so a sweep solves each
    block as its CSV is staged, and nothing without a CSV; other commands
    finish their numeric work before any file is opened.  The summary JSON
    follows.  Each output is written to a temporary file beside it, and only
    once every output is written is each renamed into place with
    ``os.replace``; on any failure, in a later block too, the temporaries
    are removed, so a failed run leaves no partial output behind.
    """
    start = time.perf_counter()
    K, mu, scales = _resolve_system(scenario)
    headline, table = _COMMANDS[scenario.command].compute(scenario, K, mu)

    out_dir = Path(scenario.out_dir)
    csv_path = None
    if table is not None and "csv" in scenario.formats:
        csv_path = out_dir / f"{scenario.command}.csv"
    json_path = None
    if "json" in scenario.formats:
        json_path = out_dir / f"{scenario.command}_summary.json"
    outputs = tuple(str(p) for p in (csv_path, json_path) if p is not None)

    summary = RunSummary(scenario, K, mu, scales, headline, outputs, duration_s=0.0)

    out_dir.mkdir(parents=True, exist_ok=True)
    # output path -> a hidden name beside it that no other running process uses
    staged = {
        p: p.with_name(f".{p.name}.{os.getpid()}.tmp")
        for p in (csv_path, json_path)
        if p is not None
    }
    try:
        if csv_path is not None:
            _write_csv(staged[csv_path], *table)
        if json_path is not None:
            text = json.dumps(summary_dict(summary), indent=2) + "\n"
            staged[json_path].write_text(text)
        for path, temporary in staged.items():
            os.replace(temporary, path)
    except BaseException:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)
        raise

    return summary._replace(duration_s=time.perf_counter() - start)


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit code.

    Without ``argv`` (``python -m zpbox.cli`` and the ``zpbox`` script) the
    run is the process's last work: it reads ``sys.argv`` and, once the
    outputs are in place and the report or error line is printed, calls
    ``gc.freeze()``, so the collections at interpreter shutdown skip every
    object then alive, numpy's included, instead of sweeping them for about
    20 ms.  ``atexit`` handlers still run.  A closed stdout is one error
    line and exit 1; the process then points its stdout at ``os.devnull``,
    as the ``signal`` module's docs advise, so the exit's flush cannot fail
    again.  A caller that passes ``argv`` keeps its collector and its stdout
    as they were.
    """
    process = argv is None
    try:
        return _main(sys.argv[1:] if process else argv)
    except BrokenPipeError as exc:  # the outputs are in place all the same
        if process:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"zpbox: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if process:
            gc.freeze()


def _main(argv) -> int:
    """Run argv: the exit code, the report on stdout, an error as one line;
    a closed stdout raises BrokenPipeError once the outputs are in place."""
    try:
        scenario = parse_scenario(argv)
        summary = run(scenario)
    except (UsageError, ValidationError) as exc:
        print(f"zpbox: error: {exc}", file=sys.stderr)
        return 2
    except (ZpboxError, OSError) as exc:  # numerical failures, unwritable --out
        print(f"zpbox: error: {exc}", file=sys.stderr)
        return 1
    print(f"zpbox {summary.scenario.command}: ok ({summary.duration_s:.3f} s)")
    for key, value in summary.headline.items():
        print(f"  {key} = {value}")
    for path in summary.outputs:
        print(f"  wrote {path}")
    sys.stdout.flush()  # a closed pipe fails here, not in the exit's flush
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
