"""zpbox benchmark: one workload, one seed, a fixed measuring time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured operation is one program process, spawned by this harness
as users run it: ``python -m zpbox.cli <command>`` with PYTHONPATH=src, or
the library-check script.  Cases are drawn from the seed (workloads.py);
the first case runs twice in a row, and both runs must write
byte-identical files.  Before every second case a set-up process imports
only what the workload imports.  Cases are run until S seconds have
passed.  Every output is checked against the benchmark's own oracles,
then deleted.

``--trace 0`` prints the end-to-end metrics: medians over the workload
processes, measured per child with os.wait4.  ``--trace 1`` runs every case
once traced and once untraced, checks that both wrote the same bytes, and
prints per-layer metrics (layers.py) from the traced processes, plus the
tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it records the environment and the sample counts.
Exits with code 1 and no result when the program cannot be run at all.
"""

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from workloads import WORKLOADS, Outcome

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
WORK_PREFIX = ".perfbench-work-"  # one directory per run, removed at its end
CHILD_TIMEOUT_S = 120.0  # one process; a hung child is killed and counted as failed

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "bytes_written": "B",
    "ok_ratio": "1",
}
PER_LAYER_UNITS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.mpmath_s": "s",
    "import.numpy_s": "s",
    "cli.parse_s": "s",
    "cli.format_s": "s",
    "cli.batch_s": "s",
    "cli.write_s": "s",
    "cli.bytes": "B",
    "cli.rows": "count",
    "equilibrium.solve_calls": "count",
    "equilibrium.solve_us": "us",
    "equilibrium.oracle_calls": "count",
    "equilibrium.oracle_ms": "ms",
    "equilibrium.self_s": "s",
    "thermal.points": "count",
    "thermal.point_ms": "ms",
    "thermal.force_calls_per_point": "count",
    "thermal.solve_calls_per_point": "count",
    "thermal.self_s": "s",
    "dynamics.steps": "count",
    "dynamics.step_ns": "ns",
    "dynamics.analysis_s": "s",
    "dynamics.self_s": "s",
    "spectrum.count_nodes_ms": "ms",
    "spectrum.position_expectation_ms": "ms",
    "spectrum.wavefunction_calls_per_node": "count",
    "spectrum.self_s": "s",
    "trace.wall_s": "s",
    "trace.setup_s": "s",
    "other.self_s": "s",
    "trace.overhead_ratio": "1",
}


class HarnessError(Exception):
    """The program cannot be run at all; no result is printed."""


@dataclass
class Proc:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE)
    # the sweep runs with the thread pool that users get by default
    env.pop("ZPBOX_THREADS", None)
    return env


def spawn(argv, cwd, log_dir, env):
    """Run one child to completion; wall from spawn to exit, rusage of it alone.

    os.wait4 gives this child's own CPU time and peak RSS, where
    getrusage(RUSAGE_CHILDREN) would keep the largest of all children.
    """
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
    )


def file_digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


class Runner:
    """Spawns the processes of one workload and checks what they wrote."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.env = child_env()
        self.python = sys.executable

    def program_argv(self, case):
        if self.workload.script:
            return [str(BENCH_DIR / self.workload.script), *case.args]
        return ["-m", "zpbox.cli", *case.args]

    def traced_argv(self, case, spans_path):
        tracer = [self.python, "-X", "importtime", str(BENCH_DIR / "tracer.py")]
        tracer.append(str(spans_path))
        if self.workload.script:
            return [*tracer, "script", *self.program_argv(case)]
        return [*tracer, "cli", *case.args]

    def setup(self):
        """One process that only imports what the workload imports."""
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            argv = [self.python, "-c", f"import {self.workload.setup_import}"]
            proc = spawn(argv, tmp, Path(tmp), self.env)
            if proc.exit_code != 0:
                err = (Path(tmp) / "stderr").read_text(errors="replace").strip()
                raise HarnessError(
                    f"import {self.workload.setup_import} failed: {err[-2000:]}"
                )
        return proc.wall_s

    def run_case(self, case, traced):
        """Run one process of a case and check its outputs.

        Returns (Proc, Outcome, file digests, bytes written, layer metrics).
        """
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            tmp = Path(tmp)
            in_dir, out_dir, log_dir = tmp / "in", tmp / "out", tmp / "log"
            for d in (in_dir, out_dir, log_dir):
                d.mkdir()
            for name, text in case.inputs.items():
                (in_dir / name).write_text(text)
            if traced:
                argv = self.traced_argv(case, log_dir / "spans.json")
            else:
                argv = [self.python, *self.program_argv(case)]
            proc = spawn(argv, out_dir, log_dir, self.env)
            written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
            digests = file_digests(out_dir)
            if proc.exit_code != 0:
                err = (log_dir / "stderr").read_text(errors="replace").strip()
                outcome = Outcome(problems=[f"exit {proc.exit_code}: {err[-500:]}"])
            else:
                try:
                    outcome = self.workload.check(case, out_dir)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    outcome = Outcome(problems=[f"unreadable output: {exc!r}"])
            layer = None
            if traced and (log_dir / "spans.json").is_file():
                layer = layers.process_metrics(
                    log_dir / "spans.json", log_dir / "stderr"
                )
                layer["cli.rows"] = outcome.rows
        return proc, outcome, digests, written, layer


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seconds, trace, work_dir):
    """Run cases of one workload for `seconds`; returns (result dict, details)."""
    runner = Runner(workload, work_dir)
    runner.setup()  # untimed: fills the bytecode and file caches
    setups, procs, traced_procs, layer_rows = [], [], [], []
    items, attempted, failed = [], 0, 0
    problems = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 2 or time.perf_counter() < deadline:
        case = workload.case(k)
        if k % 2 == 0:
            setups.append(runner.setup())
        digests = None
        if trace:  # a traced and an untraced process, alternating which is first
            order = ((k % 2 == 0), (k % 2 == 1))
        else:  # case 0 runs twice for the byte-identity check
            order = (False, False) if k == 0 else (False,)
        for traced in order:
            proc, outcome, got, written, layer = runner.run_case(case, traced)
            attempted += 1
            if digests is not None and got != digests:
                outcome.problems.append("repeated run wrote different bytes")
            digests = got
            if outcome.problems:
                failed += 1
                problems.append(f"case {k}: {'; '.join(outcome.problems)}")
            if traced:
                traced_procs.append(proc)
                if layer is not None:
                    layer_rows.append((proc, layer))
            else:
                procs.append((proc, written))
                items.append(outcome.items / proc.wall_s)
        k += 1

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        metrics = trace_metrics(setups, procs, traced_procs, layer_rows)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": median([p.wall_s for p, _ in procs]),
            "items_per_s": median(items),
            "setup_s": median(setups),
            "cpu_s": median([p.cpu_s for p, _ in procs]),
            "peak_rss_mb": median([p.rss_mb for p, _ in procs]),
            "bytes_written": median([w for _, w in procs]),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    result["metrics"] = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }
    details = {
        "cases": k,
        "samples": {
            "untraced": len(procs),
            "traced": len(traced_procs),
            "setup": len(setups),
        },
        "wall_s_samples": [p.wall_s for p, _ in procs],
        "setup_s_samples": setups,
        "problems": problems[:20],
    }
    return result, details


def trace_metrics(setups, procs, traced_procs, layer_rows):
    """Medians of the per-process layer metrics, plus the accounting rows."""
    setup_s = median(setups)
    metrics = {}
    names = {n for _, row in layer_rows for n in row}
    for name in names:
        metrics[name] = median([row[name] for _, row in layer_rows])
    # what the set-up time and the layers' self times leave of the wall time
    metrics["other.self_s"] = median(
        [
            proc.wall_s
            - setup_s
            - sum(row[m] for m in layers.SELF_TIME_METRICS)
            for proc, row in layer_rows
        ]
    )
    traced_wall = median([p.wall_s for p in traced_procs])
    plain_wall = median([p.wall_s for p, _ in procs])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.setup_s"] = setup_s
    metrics["trace.overhead_ratio"] = (
        traced_wall / plain_wall - 1.0 if plain_wall else 0.0
    )
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, 0.0)
    return metrics


def environment():
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        # recorded as found; children always run without it
        "ZPBOX_THREADS": os.environ.get("ZPBOX_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "zpbox" / "cli.py").is_file():
        print(f"benchmark: no zpbox sources under {SOURCE}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload](args.seed)
    work_dir = tempfile.mkdtemp(prefix=WORK_PREFIX, dir=ROOT)
    try:
        result, details = measure(workload, args.seconds, bool(args.trace), work_dir)
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    header = {"workload": workload.name, "seed": args.seed, "env": environment()}
    print(json.dumps({**header, **details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
