"""Per-layer numbers of one traced process, from its spans and import log.

Layers are the package's modules.  A layer's self time is the time covered
by its spans and not already claimed by a layer nested inside it; layers
are claimed innermost first (``_NESTING``), so the self times of one
process add up to the time covered by any span, and pool threads that run
in parallel are not counted twice.
"""

import json
from pathlib import Path

# self-time metric -> span names of its layer, innermost layer first
_NESTING = (
    ("equilibrium.self_s", ("equilibrium.solve", "equilibrium.oracle")),
    ("spectrum.self_s", ("spectrum.count_nodes", "spectrum.position_expectation")),
    ("dynamics.self_s", ("dynamics.integrate", "dynamics.analysis")),
    ("thermal.self_s", ("thermal.sweep", "thermal.point")),
    ("cli.batch_s", ("cli.sweep_solutions",)),  # sweep dispatch: the thread pool
    ("cli.write_s", ("cli.write",)),
    ("cli.parse_s", ("cli.parse",)),
    ("cli.format_s", ("cli.run",)),  # what cli.run spends outside the layers above
)
SELF_TIME_METRICS = tuple(metric for metric, _ in _NESTING)
_IMPORT_GROUPS = {
    "import.total_s": "zpbox",
    "import.scipy_s": "scipy",
    "import.mpmath_s": "mpmath",
    "import.numpy_s": "numpy",
}


def _merge(intervals):
    """Union of (start, end) intervals as a sorted disjoint list."""
    merged = []
    for start, end in sorted((s, e) for s, e in intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def _length(merged):
    return sum(end - start for start, end in merged)


def import_times(stderr_text):
    """Cumulative import seconds per package group, from ``-X importtime``.

    A group's time is the sum of the cumulative times of its modules that
    were not imported from inside another module of the same group.
    """
    entries = []  # (depth, name, cumulative us) in the order printed
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name_field = parts[2]
        depth = len(name_field) - len(name_field.lstrip(" "))
        entries.append((depth, name_field.strip(), int(parts[1])))
    totals = {metric: 0.0 for metric in _IMPORT_GROUPS}
    # children print before their parent, so walk backwards: parents first
    ancestors = []  # names along the path to the current entry
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for metric, package in _IMPORT_GROUPS.items():
            if not _in_package(name, package):
                continue
            if not any(_in_package(a, package) for _, a in ancestors):
                totals[metric] += cumulative * 1e-6
        ancestors.append((depth, name))
    return totals


def _in_package(name, package):
    return name == package or name.startswith(package + ".")


def process_metrics(spans_path, stderr_path):
    """Per-layer metrics of one traced process (seconds unless named)."""
    data = json.loads(Path(spans_path).read_text())
    spans = data["spans"]
    counts = data["counts"]
    by_name = {}
    for _id, name, start, end, _parent, extra in spans:
        by_name.setdefault(name, []).append((start, end, extra))

    def intervals(*names):
        return [(s, e) for n in names for s, e, _ in by_name.get(n, [])]

    def attrs(name):
        return [a for _, _, a in by_name.get(name, [])]

    def union(*names):
        return _length(_merge(intervals(*names)))

    def calls(name):
        return len(by_name.get(name, []))

    def per(total, n, scale=1.0):
        return total * scale / n if n else 0.0

    metrics = {}
    claimed = []
    for metric, names in _NESTING:
        before = _length(claimed)
        claimed = _merge(claimed + intervals(*names))
        metrics[metric] = _length(claimed) - before

    metrics["cli.bytes"] = sum(a.get("bytes", 0) for a in attrs("cli.write"))

    solves = calls("equilibrium.solve")
    metrics["equilibrium.solve_calls"] = solves
    metrics["equilibrium.solve_us"] = per(union("equilibrium.solve"), solves, 1e6)
    oracles = calls("equilibrium.oracle")
    metrics["equilibrium.oracle_calls"] = oracles
    metrics["equilibrium.oracle_ms"] = per(union("equilibrium.oracle"), oracles, 1e3)

    points = calls("thermal.point")
    metrics["thermal.points"] = points
    metrics["thermal.point_ms"] = per(union("thermal.point"), points, 1e3)
    metrics["thermal.force_calls_per_point"] = per(
        counts.get("zpbox.thermal.mean_wall_force", 0), points
    )
    metrics["thermal.solve_calls_per_point"] = per(
        counts.get("zpbox.thermal.solve_equilibrium", 0), points
    )

    steps = sum(a.get("n_steps") or 0 for a in attrs("dynamics.integrate"))
    metrics["dynamics.steps"] = steps
    metrics["dynamics.step_ns"] = per(union("dynamics.integrate"), steps, 1e9)
    metrics["dynamics.analysis_s"] = union("dynamics.analysis")

    metrics["spectrum.count_nodes_ms"] = per(
        union("spectrum.count_nodes"), calls("spectrum.count_nodes"), 1e3
    )
    metrics["spectrum.position_expectation_ms"] = per(
        union("spectrum.position_expectation"),
        calls("spectrum.position_expectation"),
        1e3,
    )
    # useful/attempted for count_nodes: wavefunction calls per interior node
    nodes = [a for a in attrs("spectrum.count_nodes") if (a.get("n") or 0) >= 2]
    metrics["spectrum.wavefunction_calls_per_node"] = per(
        sum(a.get("inner_calls", 0) for a in nodes),
        sum(a["n"] - 1 for a in nodes),
    )

    metrics.update(import_times(Path(stderr_path).read_text(errors="replace")))
    return metrics
