"""Seeded workload inputs and the output oracles that check them.

Each workload turns (seed, case index) into one ``Case``: the argv of one
program process and the input files it reads.  After the process exits,
``check`` reads what it wrote and compares it against oracles computed
here, with numpy only: nothing in this module imports zpbox, so a bug in
the program cannot also hide in its check.  Every tolerance is fixed
below, next to the check that uses it.

Inputs are drawn from a Weyl sequence with a seeded offset, so any prefix
of the cases covers each input range evenly.  The number of cases that fit
in a run varies, and an even prefix keeps the run's median steady across
seeds without narrowing the range that is drawn from.
"""

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Weyl-sequence increments; irrational, and far enough apart that two
# inputs of one case are not correlated
_STEP_A = (math.sqrt(5.0) - 1.0) / 2.0
_STEP_B = math.sqrt(2.0) - 1.0

# tolerances of the oracles (relative unless named otherwise)
ROOT_TOL = 1e-12  # strain or size against the benchmark's own root
RESIDUAL_TOL = 1e-12  # force balance |K s - 2/ell^3| / (2/ell^3)
K_PRIME_TOL = 1e-12  # K' against K + 6/ell^4
ENERGY_TOL = 1e-12  # per-row energies against the recorded eta and v
DRIFT_TOL = 1e-8  # max |E_total - E_total[0]| / |E_total[0]| (acceptance)
OMEGA_TOL = 1e-3  # measured against harmonic frequency (acceptance)
MEAN_FORCE_TOL = 1e-8  # mean_force against K (ell - 1)
POSITION_TOL = 1e-10  # |<x> - ell/2|, absolute (acceptance tolerance)
ORACLE_TOL = 1e-9  # |ell_oracle - ell|, absolute (acceptance tolerance)

CSV_SCHEMAS = {
    "dynamics": ("t", "eta", "v", "E_particle", "E_strain", "E_kinetic", "E_total"),
    "thermal": ("t", "ell", "alpha", "mean_force", "p1", "p2"),
    "sweep": ("K", "ell", "strain", "binding_exact", "binding_first_order", "K_prime"),
}


def strain_root(K):
    """Strain s > 0 with K s (1 + s)^3 = 2, by bisection to float resolution.

    This is the root ell = 1 + s of K ell^4 - K ell^3 - 2 = 0.  The left
    side grows with s, and s <= min(2/K, (2/K)^(1/4)) bounds the root, so
    the bracket holds for every K > 0.  Accepts a scalar or an array.
    """
    K = np.asarray(K, dtype=float)
    lo = np.zeros_like(K)
    hi = np.minimum(2.0 / K, (2.0 / K) ** 0.25)
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if np.all((mid <= lo) | (mid >= hi)):
            break
        below = K * mid * (1.0 + mid) ** 3 < 2.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _rel(a, b):
    """Largest relative difference of a from b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


def _misformatted(csv_path, stride=97):
    """First sampled CSV field that is not format(x, ".17g"), or None.

    Identical scenarios write identical bytes because every float carries
    17 significant digits; every stride-th row and the last one are checked.
    """
    with csv_path.open() as fh:
        lines = fh.read().splitlines()[1:]
    for line in lines[::stride] + lines[-1:]:
        for field_text in line.split(","):
            if format(float(field_text), ".17g") != field_text:
                return field_text
    return None


def _log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


@dataclass(frozen=True)
class Case:
    """One program process: its argv and the input files it reads."""

    args: tuple  # zpbox.cli argv, or the library-check script's argv
    inputs: dict = field(default_factory=dict)  # file name -> text, in ../in
    expect: dict = field(default_factory=dict)  # what the oracle needs


@dataclass
class Outcome:
    """What the oracle found in one process's outputs."""

    items: int = 0  # work items completed and checked
    rows: int = 0  # CSV data rows
    problems: list = field(default_factory=list)

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)


class Workload:
    """Base: seeded case generation plus output checks."""

    name = ""
    setup_import = "zpbox.cli"  # what a process of this workload imports
    script = None  # library-check script name, or None for the CLI

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.offset_a = rng.random()
        self.offset_b = rng.random()

    def draws(self, k):
        """Two evenly spread uniforms in [0, 1) for case k."""
        return (
            (self.offset_a + k * _STEP_A) % 1.0,
            (self.offset_b + k * _STEP_B) % 1.0,
        )

    def case_rng(self, k):
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def case(self, k) -> Case:
        raise NotImplementedError

    def check(self, case: Case, out_dir: Path) -> Outcome:
        raise NotImplementedError

    # helpers shared by the CLI workloads

    def _read_cli_outputs(self, command, out_dir, result):
        """Load the CSV and summary JSON; None when the file set is wrong."""
        csv_path = out_dir / f"{command}.csv"
        json_path = out_dir / f"{command}_summary.json"
        names = sorted(p.name for p in out_dir.iterdir())
        result.require(
            names == sorted([csv_path.name, json_path.name]),
            f"output files {names}",
        )
        if not (csv_path.is_file() and json_path.is_file()):
            return None, None
        with csv_path.open() as fh:
            header = fh.readline().rstrip("\n").split(",")
        result.require(header == list(CSV_SCHEMAS[command]), f"CSV header {header}")
        if header != list(CSV_SCHEMAS[command]):
            return None, None
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        result.rows = len(table)
        bad = _misformatted(csv_path)
        result.require(bad is None, f"float not printed with 17 digits: {bad!r}")
        summary = json.loads(json_path.read_text())
        result.require(
            summary.get("outputs") == [csv_path.name, json_path.name],
            f"summary outputs {summary.get('outputs')}",
        )
        return table, summary


class DynamicsTrace(Workload):
    """zpbox dynamics with every Verlet step recorded: the output-heavy case."""

    name = "dynamics-trace"
    n_periods = 100
    dt_factor = 1000
    mu = 1000.0

    def case(self, k):
        u, v = self.draws(k)
        K = _log_uniform(u, 1.0, 1e4)
        y0_frac = _log_uniform(v, 1e-4, 1e-2)
        args = (
            "dynamics",
            "--K", repr(K),
            "--mu", repr(self.mu),
            "--y0-frac", repr(y0_frac),
            "--dt-factor", str(self.dt_factor),
            "--n-periods", str(self.n_periods),
            "--out", ".",
        )  # fmt: skip
        return Case(args, expect={"K": K, "y0_frac": y0_frac})

    def check(self, case, out_dir):
        result = Outcome()
        table, summary = self._read_cli_outputs("dynamics", out_dir, result)
        if table is None:
            return result
        K, mu = case.expect["K"], self.mu
        n_steps = self.n_periods * self.dt_factor
        result.require(result.rows == n_steps + 1, f"{result.rows} rows")
        result.require(summary.get("n_steps") == n_steps, "n_steps in summary")
        if result.rows != n_steps + 1:
            return result
        t, eta, v, e_part, e_strain, e_kin, e_total = table.T

        s = float(strain_root(K))
        ell = 1.0 + s
        omega = math.sqrt((K + 6.0 / ell**4) / mu)
        result.require(
            _rel(summary.get("omega_harmonic", math.nan), omega) <= ROOT_TOL,
            "omega_harmonic",
        )
        result.require(_rel(eta[0], case.expect["y0_frac"] * s) <= ROOT_TOL, "eta(0)")
        dt = 2.0 * math.pi / (self.dt_factor * omega)
        result.require(_rel(t[1:], np.arange(1, n_steps + 1) * dt) <= ROOT_TOL, "t")
        result.require(
            _rel(e_part, 1.0 / (ell + eta) ** 2) <= ENERGY_TOL, "E_particle"
        )
        result.require(
            _rel(e_strain, 0.5 * K * (s + eta) ** 2) <= ENERGY_TOL, "E_strain"
        )
        nonzero = v != 0.0
        result.require(
            _rel(e_kin[nonzero], 0.5 * mu * v[nonzero] ** 2) <= ENERGY_TOL,
            "E_kinetic",
        )
        result.require(
            _rel(e_total, e_part + e_strain + e_kin) <= ENERGY_TOL, "E_total sum"
        )
        drift = _rel(e_total, e_total[0])
        result.require(drift <= DRIFT_TOL, f"energy drift {drift:.3e}")
        measured = summary.get("measured_omega")
        result.require(
            measured is not None and _rel(measured, omega) <= OMEGA_TOL,
            f"measured_omega {measured} vs {omega}",
        )
        if not result.problems:
            result.items = n_steps
        return result


class ThermalScan(Workload):
    """zpbox thermal on a dense t grid: thermal compute, tiny output."""

    name = "thermal-scan"
    n_points = 601

    def case(self, k):
        u, v = self.draws(k)
        K = _log_uniform(u, 0.5, 200.0)
        t_max = 45.0 + 10.0 * v
        step = t_max / (self.n_points - 1)
        grid = f"0:{t_max!r}:{step!r}"
        args = ("thermal", "--K", repr(K), "--t-grid", grid, "--out", ".")
        return Case(args, expect={"K": K, "step": step})

    def check(self, case, out_dir):
        result = Outcome()
        table, summary = self._read_cli_outputs("thermal", out_dir, result)
        if table is None:
            return result
        result.require(result.rows == self.n_points, f"{result.rows} rows")
        if result.rows != self.n_points:
            return result
        t, ell, _alpha, mean_force, p1, p2 = table.T
        K = case.expect["K"]
        grid = np.arange(self.n_points) * case.expect["step"]
        result.require(t[0] == 0.0 and _rel(t[1:], grid[1:]) <= ROOT_TOL, "t grid")
        ell0 = 1.0 + float(strain_root(K))
        result.require(_rel(ell[0], ell0) <= ROOT_TOL, f"ell(0) {ell[0]} vs {ell0}")
        result.require(bool(np.all(np.diff(ell) >= 0.0)), "ell decreases with t")
        result.require(
            _rel(mean_force, K * (ell - 1.0)) <= MEAN_FORCE_TOL, "mean_force balance"
        )
        result.require(
            bool(np.all((p1 > 0.0) & (p1 <= 1.0) & (p2 >= 0.0) & (p2 <= p1))),
            "occupancies",
        )
        result.require(summary.get("K") == K, "K in summary")
        if not result.problems:
            result.items = self.n_points
        return result


class StiffnessSweep(Workload):
    """zpbox sweep of a jittered log K grid passed by --config (argv caps a
    single string at 128 KiB): batch solves, a large parse, medium output."""

    name = "stiffness-sweep"
    n_points = 20_000
    log_lo, log_hi = -2.0, 8.0

    def case(self, k):
        rng = self.case_rng(k)
        width = (self.log_hi - self.log_lo) / self.n_points
        grid = [
            10.0 ** (self.log_lo + (i + rng.random()) * width)
            for i in range(self.n_points)
        ]
        config = "K-grid = " + ",".join(repr(K) for K in grid) + "\n"
        args = ("sweep", "--config", "../in/sweep.cfg", "--out", ".")
        return Case(args, inputs={"sweep.cfg": config}, expect={"grid": grid})

    def check(self, case, out_dir):
        result = Outcome()
        table, summary = self._read_cli_outputs("sweep", out_dir, result)
        if table is None:
            return result
        result.require(result.rows == self.n_points, f"{result.rows} rows")
        if result.rows != self.n_points:
            return result
        K, ell, strain, binding, _first, k_prime = table.T
        result.require(np.array_equal(K, case.expect["grid"]), "K column")
        balance = 2.0 / ell**3
        residual = float(np.max(np.abs(K * strain - balance) / balance))
        result.require(residual <= RESIDUAL_TOL, f"force balance {residual:.3e}")
        result.require(_rel(strain, strain_root(K)) <= ROOT_TOL, "strain root")
        result.require(_rel(k_prime, K + 6.0 / ell**4) <= K_PRIME_TOL, "K_prime")
        result.require(bool(np.all(binding < 0.0)), "binding energy sign")
        result.require(summary.get("n_points") == self.n_points, "n_points")
        if not result.problems:
            result.items = self.n_points
        return result


class LibraryChecks(Workload):
    """Library calls with no CLI: the only workload of the spectrum layer."""

    name = "library-checks"
    setup_import = "zpbox"
    script = "library_child.py"
    n_max = 50
    n_oracle = 50
    results_name = "library_checks.json"

    def case(self, k):
        u, _ = self.draws(k)
        rng = self.case_rng(k)
        ell = 0.5 + 2.5 * u
        stiffness = [10.0 ** rng.uniform(-2.0, 8.0) for _ in range(self.n_oracle)]
        cases = {"ell": ell, "n_max": self.n_max, "K": stiffness}
        return Case(
            ("../in/cases.json", self.results_name),
            inputs={"cases.json": json.dumps(cases) + "\n"},
            expect=cases,
        )

    def check(self, case, out_dir):
        result = Outcome()
        path = out_dir / self.results_name
        names = sorted(p.name for p in out_dir.iterdir())
        result.require(names == [self.results_name], f"output files {names}")
        if not path.is_file():
            return result
        got = json.loads(path.read_text())
        ell = case.expect["ell"]
        ns = np.arange(1, self.n_max + 1)
        nodes = got.get("count_nodes", [])
        positions = np.asarray(got.get("position_expectation", []), dtype=float)
        solved = np.asarray(got.get("solve_equilibrium", []), dtype=float)
        oracle = np.asarray(got.get("minimize_oracle", []), dtype=float)
        result.require(list(nodes) == list(ns - 1), "count_nodes != n - 1")
        result.require(
            len(positions) == self.n_max
            and float(np.max(np.abs(positions - ell / 2.0))) <= POSITION_TOL,
            "position_expectation",
        )
        stiffness = np.asarray(case.expect["K"])
        result.require(
            len(solved) == len(stiffness)
            and _rel(solved, 1.0 + strain_root(stiffness)) <= ROOT_TOL,
            "solve_equilibrium root",
        )
        result.require(
            len(oracle) == len(stiffness)
            and float(np.max(np.abs(1.0 + oracle - solved))) < ORACLE_TOL,
            "minimize_oracle",
        )
        if not result.problems:
            result.items = 2 * self.n_max + len(stiffness)
        return result


WORKLOADS = {
    w.name: w for w in (DynamicsTrace, ThermalScan, StiffnessSweep, LibraryChecks)
}
