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
    # a comma list is the CSV formatter's column of its points, a line each
    column = b"".join(_csv_blocks([[np.array(grid, dtype=float)]], 1))
    return column[:-1].replace(b"\n", b",").decode()


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


# rows formatted in one numpy pass; its work arrays take 275 bytes a value,
# 2.0 MB at 7 columns
_CSV_BLOCK_ROWS = 1024
_SWEEP_BLOCK = 4096  # stiffnesses a sweep solves at a time: one block of its CSV

# Every value of a block is first written into the same 52-byte superset
# text (13 uint32 words), of which its ".17g" text, led by its separator, is
# a subsequence; D0 ... D16 are the value's 17 significant digits, and a
# prefix is the separator ("\n" before a row's first value, "," before the
# others) and the sign, right-aligned:
#
#   bytes 0-6 a prefix, and "0." and zeros for a value below 1 in fixed
#   notation   7-23 D0 ... D16   24-25 a prefix   26 D0   27 "."
#   28-43 D1 ... D16   44-48 "e", the exponent's sign and two or three
#   digits, left-aligned; bytes 49-51 are padding
#
# A keep row of 52 booleans, looked up by the value's shape (notation,
# number of significant digits, separator, sign), picks its bytes.  The copy
# costs more for each run of kept bytes than for the bytes, so a value keeps
# one run where it can, and at most three: ",0.0625" is ",0.0625" (3-9);
# ",-1.5" is ",-1.5" (24-28); ",1.8907151453417509e-05" is all of 25-47;
# ",-15.25" is ",-15" (5-8), "." (27) and "25" (29-30);
# ",1.52587890625e-05" is ",1.52587890625" (25-38) and "e-05" (44-47).
# A piece's text so starts with the "\n" that ends the line before it, which
# is dropped, and ends with one more row that keeps only a "\n".
_CSV_WORDS = 13
_CSV_WIDTH = 4 * _CSV_WORDS
# kinds: X = -4 ... 16 print in fixed notation, others in exponent notation
# with two or three exponent digits; 17 digit counts
_CSV_KINDS = (21 + 2) * 17
# Python's own text, at most 24 bytes ("-2.2250738585072014e-308"), goes to
# bytes 28-51, after its separator in byte 27: kind _CSV_KINDS + L keeps L
_CSV_RAW = 24
_CSV_NEWLINE = 4 * _CSV_KINDS  # L = 0 after a "\n": the last row of a piece
# the tables' range: 10**k for k = X + 1 and 16 - X, and the exponent text
# and shape of X (up to 309 after rounding), for every double's decimal
# exponent X = floor(log10 |v|) in [-324, 308]
_MIN_POWER, _MAX_POWER = -324, 340


# Lookup tables of the vectorised "%.17g", indexed as noted:
#   ceil[k - _MIN_POWER]   the smallest double >= 10**k
#   power[k - _MIN_POWER]  high, its 26-bit halves hh and hl, and low, where
#   scale[k - _MIN_POWER]  10**k = (high + low) 2**scale (_powers_of_ten);
#                          power.T holds the four as contiguous rows
#   digits[n], zeros[n]    "%04d" % n as a uint32, and its trailing zeros
#   exponent[:, X - _MIN_POWER]  "e", sign and digits, as two words
#   shape[X - _MIN_POWER]  the shape of 17 digits after a "\n", positive
#   keep[shape]            the bytes kept
#   prefix[:, shape]       words 0, 1 and 6 of the prefixes; 1 and 6 go by
#                          XOR onto "%04d" % D0 and "%04d" % (10 D0), which
#                          put D0 in bytes 7 and 26
# where a shape is 4 kind + 2 [separator ","] + [sign -], and a kind is
# 17 notation + digits - 1
_CsvTables = namedtuple(
    "_CsvTables", "ceil power scale digits zeros exponent shape keep prefix"
)


def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10**k for k in [_MIN_POWER, _MAX_POWER], from one exact quotient each:
    10**k = (high + low) 2**scale, high in [1, 2] and low its remainder, each
    correctly rounded, and ceil, the smallest double >= 10**k."""
    ceil, high, low, scale = [], [], [], []
    ten = [1]  # 10**j by products: 10**j alone took 0.17 of 2.1 ms
    for _ in range(max(-_MIN_POWER, _MAX_POWER)):
        ten.append(ten[-1] * 10)
    for k in range(_MIN_POWER, _MAX_POWER + 1):
        n, m = (ten[k], 1) if k >= 0 else (1, ten[-k])  # 10**k = n/m
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
    power = np.stack([high, hh, high - hh, low]).T
    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    group = np.empty((10, 10, 10, 10, 4), np.uint8)  # group n = "%04d" % n
    group[..., 0] = ten[:, None, None, None]
    group[..., 1] = ten[:, None, None]
    group[..., 2] = ten[:, None]
    group[..., 3] = ten
    digits = group.view(np.uint32).ravel()
    z = ten == ord("0")  # zeros[n], the trailing zeros of group n
    zeros = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    zeros = zeros.astype(np.uint8).ravel()

    x = np.arange(_MIN_POWER, _MAX_POWER + 1)
    ax = np.abs(x)
    wide = ax >= 100  # three exponent digits
    exponent = np.zeros((len(x), 8), np.uint8)
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    exponent[:, 2] = ord("0") + np.where(wide, ax // 100, ax // 10 % 10)
    exponent[:, 3] = ord("0") + np.where(wide, ax // 10 % 10, ax % 10)
    exponent[:, 4] = ord("0") + ax % 10  # kept for three digits only
    notation = np.where((-4 <= x) & (x <= 16), x + 4, 21 + wide)
    shape = 4 * (notation * 17 + 16)

    # body[kind, byte]: X = -4 ... 16, the exponents, Python's text
    p = np.arange(_CSV_WIDTH)
    X = np.arange(-4, 17)[:, None, None]
    s = np.arange(1, 18)[None, :, None]
    after = (p == 27) & (s > X + 1) | (28 + X <= p) & (p <= 26 + s)
    fixed = np.where(
        X >= 0,
        (7 <= p) & (p <= 7 + X) | after,  # D0 ... DX "." D(X+1) ...
        (7 <= p) & (p < 7 + s),  # D0 ... after "0." and zeros
    )
    mantissa = (p == 26) | (s > 1) & (27 <= p) & (p <= 26 + s)  # D0 "." D1 ...
    fixed[4] = mantissa[0]  # X = 0
    three = np.array([False, True])[:, None, None]  # three exponent digits
    exp = mantissa | (44 <= p) & (p <= 47 + three)
    raw = (27 <= p) & (p <= 27 + np.arange(_CSV_RAW + 1)[:, None])
    body = [rows.reshape(-1, _CSV_WIDTH) for rows in (fixed, exp, raw)]
    body = np.concatenate(body)
    # the prefix, [kind, separator, sign]: in bytes 0-6 (with "0." and z - 1
    # zeros for X = -z < 0) or in 24-25, ahead of D0 in byte 7 or 26
    z = np.zeros(len(body), np.int8)  # int8: a third of int64's time
    z[: 4 * 17] = np.repeat([4, 3, 2, 1], 17)
    end = np.full(len(body), 6, np.int8)  # the prefix's last byte
    end[4 * 17 : 5 * 17] = end[21 * 17 :] = 25
    end[_CSV_KINDS:] = -1  # none: the separator is byte 27
    first = (end - z - (z > 0))[:, None] - np.arange(2, dtype=np.int8)  # [kind, sign]
    byte = p.astype(np.int8)
    prefixed = (first[..., None] <= byte) & (byte <= end[:, None, None])
    keep = np.empty((len(body), 2, 2, _CSV_WIDTH), bool)
    np.bitwise_or(body[:, None, None], prefixed[:, None], out=keep)

    # words 0 and 1 by z, and word 6 for a kind or Python's text; words 1
    # and 6 go onto "000" D0 and "00" D0 "0" by XOR
    leads = [sep + sign for sep in "\n," for sign in ("", "-")]
    points = ("", "0.", "0.0", "0.00", "0.000")
    head = "".join(f"{lead + point:>7}\0" for point in points for lead in leads)
    head = np.frombuffer(head.encode(), np.uint32).reshape(5, 4, 2)
    middle = [f"{lead:>2}\0{c or lead[0]}" for c in (".", "") for lead in leads]
    middle = np.frombuffer("".join(middle).encode(), np.uint32).reshape(2, 4)
    zero = np.frombuffer(b"000\0" b"00\x000", np.uint32)
    prefix = np.stack(
        [
            head[z, :, 0],
            head[z, :, 1] ^ zero[0],
            np.where(np.arange(len(body))[:, None] < _CSV_KINDS, *middle) ^ zero[1],
        ]
    )

    return _CsvTables(
        ceil,
        power,
        scale,
        digits,
        zeros,
        exponent.view(np.uint32).T.copy(),
        shape,
        keep.reshape(-1, _CSV_WIDTH),
        prefix.reshape(3, -1),
    )


def _csv_blocks(blocks, width):
    """Yield the CSV bytes of ``blocks``, each ``width`` equal-length columns
    of any length, in pieces of at most _CSV_BLOCK_ROWS rows.

    Each value prints exactly as ``format(float(v), ".17g")``.  One pass of
    numpy calls formats a piece into a prefix of work arrays allocated here,
    once, before the first block is pulled: arrays allocated afresh for each
    piece page-faulted anew (about 45 000 faults and 0.05 s of CPU on a
    10**5-row dynamics CSV).  The 13 words of the values' superset texts are
    assembled as contiguous rows, one a word, and copied across into the
    texts at once: a word written into the texts directly is a strided
    write, which took twice as long.
    """
    t = _csv_tables()
    n = _CSV_BLOCK_ROWS * width
    values = np.empty(n)  # the block, row-major
    a = np.empty(n)  # |v|, then A
    f = np.empty(n)
    e = np.empty(n, np.intc)
    x = np.empty(n, np.intp)  # decimal exponent X
    i = np.empty(n, np.intp)  # the power 16 - X, then the shape
    b = np.empty(n, bool)
    slow = np.empty(n, bool)  # formatted by Python
    q = np.empty(n, np.int64)
    spent = np.empty(8 * n)  # Dekker's product and the power; then the words
    groups = np.empty(6 * n, np.int64)  # D0, D1-D4 ... D13-D16, 10 D0
    zero_rows = np.empty(4 * n, np.uint8)  # the trailing zeros of D1-D4 ...
    text = np.empty((n + 1, _CSV_WIDTH), np.uint8)  # and the last "\n"
    keep = np.empty((n + 1, _CSV_WIDTH), bool)
    comma = [0] + [2] * (width - 1)  # the shape's separator bit: "," or "\n"
    comma = np.tile(np.array(comma, np.uint8), _CSV_BLOCK_ROWS)
    flat = (values, a, f, e, x, i, b, slow, q, comma)
    pieces = (
        [c[start : start + _CSV_BLOCK_ROWS] for c in block]
        for block in blocks
        for start in range(0, len(block[0]), _CSV_BLOCK_ROWS)
    )
    for piece in pieces:
        n = len(piece[0]) * width  # a short piece fills a prefix of each array
        values, a, f, e, x, i, b, slow, q, comma = (w[:n] for w in flat)
        product, power = spent[: 8 * n].reshape(2, 4, n)
        digits, zeros = groups[: 6 * n].reshape(6, n), zero_rows[: 4 * n].reshape(4, n)
        p, r, ah, al = product
        high, hh, hl, low = power
        d = digits[0]
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
        np.take(t.power.T, i, axis=1, out=power, mode="clip")
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

        # d = D0 D1 ... D16 into rows: D0, four groups of four digits and
        # 10 D0, by floor_divide and a multiply-subtract (np.divmod took four
        # times as long on int64); the count of trailing zeros is z3 + [g3 =
        # 0](z2 + [g2 = 0](z1 + [g1 = 0] z0)) for the groups' own trailing
        # zeros zk, and zk = 4 where gk = 0
        np.floor_divide(d, 10**8, out=digits[2])  # D0 ... D8
        np.multiply(digits[2], 10**8, out=digits[4])
        np.subtract(d, digits[4], out=digits[4])  # D9 ... D16
        np.floor_divide(digits[2], 10**8, out=d)  # D0
        np.multiply(d, 10**8, out=q)
        digits[2] -= q  # D1 ... D8
        for k in (1, 3):
            np.floor_divide(digits[k + 1], 10_000, out=digits[k])
            np.multiply(digits[k], 10_000, out=q)
            digits[k + 1] -= q
        np.multiply(d, 10, out=digits[5])
        np.take(t.zeros, digits[1:5], out=zeros, mode="clip")
        trailing = zeros[0]
        for k in (1, 2, 3):
            np.equal(zeros[k], 4, out=b)
            trailing *= b
            trailing += zeros[k]
        x -= _MIN_POWER
        np.take(t.shape, x, out=i, mode="clip")
        trailing *= 4
        i -= trailing
        np.signbit(values, out=b)
        i += b
        i += comma

        index = np.flatnonzero(slow)
        if len(index):
            texts = [format(v, ".17g") for v in values[index].tolist()]
            raw = np.array(texts, dtype=f"S{_CSV_RAW}").view(np.uint8)
            lengths = np.array([len(s) for s in texts])
            i[index] = (i[index] & 2) + 4 * (_CSV_KINDS + lengths)  # separator kept

        # the words, as rows, in the memory of the spent product and power
        words = spent.view(np.uint32)[: _CSV_WORDS * n].reshape(_CSV_WORDS, n)
        np.take(t.digits, digits, out=words[1:7], mode="clip")
        np.take(t.prefix[0], i, out=words[0], mode="clip")
        for k, word in ((1, words[1]), (2, words[6])):  # row 7 as scratch
            np.take(t.prefix[k], i, out=words[7], mode="clip")
            word ^= words[7]
        words[7:11] = words[2:6]
        np.take(t.exponent, x, axis=1, out=words[11:], mode="clip")
        np.copyto(text[:n].view(np.uint32), words.T)
        if len(index):
            text[index, 28:] = raw.reshape(-1, _CSV_RAW)
        np.take(t.keep, i, axis=0, out=keep[:n], mode="clip")
        text[n, 27] = ord("\n")
        keep[n] = t.keep[_CSV_NEWLINE]  # the row after the piece's last
        yield text[: n + 1][keep[: n + 1]][1:]


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
