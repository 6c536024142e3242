"""Library-check workload process: calls zpbox's public checks on seeded cases.

Usage: python library_child.py CASES_JSON RESULTS_JSON

CASES_JSON holds {"ell": float, "n_max": int, "K": [float, ...]}.  The
script evaluates count_nodes and position_expectation for n = 1..n_max at
ell, and solve_equilibrium and minimize_oracle at every K, and writes the
raw results to RESULTS_JSON.  It judges nothing itself: the benchmark
checks the results against its own oracles.
"""

import json
import sys

import zpbox


def main(cases_path, results_path):
    with open(cases_path) as fh:
        cases = json.load(fh)
    ell = cases["ell"]
    levels = range(1, cases["n_max"] + 1)
    results = {
        "count_nodes": [int(zpbox.count_nodes(n, ell)) for n in levels],
        "position_expectation": [
            float(zpbox.position_expectation(n, ell)) for n in levels
        ],
        "solve_equilibrium": [
            float(zpbox.solve_equilibrium(K).ell) for K in cases["K"]
        ],
        "minimize_oracle": [float(zpbox.minimize_oracle(K)) for K in cases["K"]],
    }
    with open(results_path, "w") as fh:
        fh.write(json.dumps(results) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
