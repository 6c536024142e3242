"""Traced workload process: wraps zpbox's public functions from outside.

Usage:
    python -X importtime tracer.py SPANS_JSON cli ARGV...
    python -X importtime tracer.py SPANS_JSON script SCRIPT ARGV...

Imports what the untraced process imports (``zpbox.cli`` or ``zpbox``),
replaces each function in ``_SPANS`` and ``_COUNTERS`` by a wrapper where
callers look it up, then runs ``zpbox.cli.main(ARGV)`` or SCRIPT.  Spans
(name, start, end, parent, attributes) and call counts stay in memory and
are written to SPANS_JSON when the run ends.  The program's own outputs
are untouched; the exit code is the program's.
"""

import sys
import time

_MODE = sys.argv[2] if len(sys.argv) > 2 else ""
if _MODE == "cli":
    import zpbox.cli  # noqa: F401  (same import as the untraced process)
else:
    import zpbox  # noqa: F401

import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import runpy  # noqa: E402
import threading  # noqa: E402

# (module, attribute, span name); one function may be bound under several
# names, and each binding that callers use gets its own wrapper
_SPANS = (
    ("zpbox.cli", "parse_scenario", "cli.parse"),
    ("zpbox.cli", "run", "cli.run"),
    # private, but the sweep's whole dispatch (today a thread pool); without
    # it that cost would read as formatting
    ("zpbox.cli", "_sweep_solutions", "cli.sweep_solutions"),
    ("zpbox.equilibrium", "solve_equilibrium", "equilibrium.solve"),
    ("zpbox.thermal", "solve_equilibrium", "equilibrium.solve"),
    ("zpbox", "solve_equilibrium", "equilibrium.solve"),
    ("zpbox.equilibrium", "minimize_oracle", "equilibrium.oracle"),
    ("zpbox", "minimize_oracle", "equilibrium.oracle"),
    ("zpbox.thermal", "thermal_sweep", "thermal.sweep"),
    ("zpbox.thermal", "equilibrium_size_at_t", "thermal.point"),
    ("zpbox.dynamics", "integrate", "dynamics.integrate"),
    ("zpbox.dynamics", "measured_frequency", "dynamics.analysis"),
    ("zpbox.spectrum", "count_nodes", "spectrum.count_nodes"),
    ("zpbox", "count_nodes", "spectrum.count_nodes"),
    ("zpbox.spectrum", "position_expectation", "spectrum.position_expectation"),
    ("zpbox", "position_expectation", "spectrum.position_expectation"),
)
# functions called too often for a span each: counted only.  Counters are
# bumped without a lock; only the main thread calls these functions.
_COUNTERS = (
    ("zpbox.thermal", "mean_wall_force"),
    ("zpbox.thermal", "solve_equilibrium"),
    ("zpbox.spectrum", "wavefunction"),
)
# span name -> argument recorded as a span attribute
_ARGUMENTS = {"dynamics.integrate": "n_steps", "spectrum.count_nodes": "n"}
# span name -> counter whose calls during the span are recorded as "inner_calls"
_INNER_COUNTS = {"spectrum.count_nodes": "zpbox.spectrum.wavefunction"}


class Recorder:
    """In-memory spans and counts for one process."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, attrs]
        self.counts = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, fn, name):
        argument = _ARGUMENTS.get(name)
        signature = inspect.signature(fn) if argument else None
        inner = _INNER_COUNTS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1][0]
            else:  # a pool thread: its caller is the main thread's open span
                main = self._main_stack
                parent = main[-1][0] if main else None
            attrs = {}
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                except TypeError:  # the call itself will raise it
                    bound = None
                if bound is not None:
                    bound.apply_defaults()
                    attrs[argument] = bound.arguments.get(argument)
            record = [next(self._ids), name, 0.0, 0.0, parent, attrs]
            self.spans.append(record)
            stack.append(record)
            inner_before = counts.get(inner, 0)
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
                if inner:
                    attrs["inner_calls"] = counts.get(inner, 0) - inner_before

        return traced

    def counter(self, fn, key):
        counts = self.counts
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def write_span(self, write_text):
        traced = self.span(write_text, "cli.write")
        spans = self.spans

        def traced_write_text(path, *args, **kwargs):
            result = traced(path, *args, **kwargs)
            spans[-1][5]["bytes"] = pathlib.Path(path).stat().st_size
            return result

        return traced_write_text

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install(recorder):
    """Wrap every binding in _SPANS and _COUNTERS whose module is loaded."""
    for module_name, attr in _COUNTERS:
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None)
        if callable(fn):
            setattr(module, attr, recorder.counter(fn, f"{module_name}.{attr}"))
    for module_name, attr, name in _SPANS:
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None)
        if callable(fn):
            setattr(module, attr, recorder.span(fn, name))
    # the CLI writes its files through Path.write_text
    pathlib.Path.write_text = recorder.write_span(pathlib.Path.write_text)


def main(argv):
    spans_path, mode, *rest = argv
    recorder = Recorder()
    install(recorder)
    code = 0
    try:
        if mode == "cli":
            code = zpbox.cli.main(rest)
        else:
            sys.argv = rest
            runpy.run_path(rest[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
