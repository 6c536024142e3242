"""Property tests: contracts that must hold over the whole accepted domain.

The default hypothesis profile (tests/conftest.py) derandomizes and caps
the examples, so every run tests the same inputs and the file stays fast.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import golden_section_fraction, range_grid_loop, strain_bisection
from zpbox import (
    UsageError,
    ValidationError,
    minimize_oracle,
    perturbed_energy,
    solve_equilibrium,
    thermal_blocks,
    time_step,
)
from zpbox.cli import _csv_blocks, _grid_points, _parse_grid, main, parse_scenario
from zpbox.spectrum import MAX_SIZE, MIN_SIZE

positive_floats = st.floats(
    min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False
)
finite_floats = st.floats(allow_infinity=False, allow_nan=False)


@given(K=positive_floats)
def test_minimize_oracle_equals_the_fraction_golden_section(K):
    assert minimize_oracle(K) == golden_section_fraction(K)


@given(
    K=st.floats(-323.0, 308.0).map(lambda e: 10.0**e).filter(lambda K: K > 0.0),
    fraction=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(K=5e-324, fraction=-0.9999999999999999)
@example(K=1e308, fraction=-0.9999999999999999)
def test_perturbed_energy_is_finite_across_the_strain_window(K, fraction):
    # ell = fl(1 + strain) >= strain > -eta, so the box never collapses
    sol = solve_equilibrium(K)
    eta = fraction * sol.strain
    assume(abs(eta) < sol.strain)
    assert sol.ell + eta > 0.0
    assert math.isfinite(perturbed_energy(sol, eta))


@given(K=positive_floats, mu=positive_floats, steps_per_period=st.floats())
def test_time_step_is_finite_and_positive_or_a_usage_error(K, mu, steps_per_period):
    try:
        omega, dt = time_step(solve_equilibrium(K), mu, steps_per_period)
    except ValidationError:
        return
    assert 0.0 < dt < math.inf and omega * dt < 2.0


@settings(max_examples=100)  # about 0.6 s
@given(
    K=st.floats(-2.0, 6.0).map(lambda e: 10.0**e),
    t=st.lists(
        st.floats(0.0, 100.0, exclude_min=True), min_size=2, max_size=60, unique=True
    ),
    from_zero=st.booleans(),
)
# ell steps down by exactly one ulp on the first grid; it stepped down one
# and two ulps on the others while heat under an ulp of force could move a
# point off the zero-temperature root
@example(6.711223151649472, [0.057007963773094125, 0.05819199551147399], False)
@example(0.018251637804028543, [0.0053587060853106895, 0.006447967230031999], False)
@example(0.29031148441637045, [0.017757152543470694, 0.019137972814722154], False)
def test_thermal_size_grows_with_t_to_within_one_ulp(K, t, from_zero):
    t = sorted(t)
    if from_zero:
        t[0] = 0.0
    blocks = list(thermal_blocks(K, t))
    ell = np.concatenate([b.ell for b in blocks])
    alpha = np.concatenate([b.alpha for b in blocks])
    assert np.all(ell >= solve_equilibrium(K).ell)
    # Each point is solved on its own to float resolution, so two points
    # whose heat adds the same force at the zero-temperature root can stop
    # one ulp apart.  One ulp is the measured size of that step; a larger
    # one is a fault, not a tolerance.
    assert np.all(ell[1:] >= np.nextafter(ell[:-1], 0.0))
    assert np.all(np.isnan(alpha) | (alpha >= 0.0))


@st.composite
def _ranges(draw):
    """(start, stop, step) of at most 2000 steps with a finite stop + step/2;
    the step is drawn either freely or near the float resolution of start."""
    start = draw(st.floats(min_value=0.0, max_value=1e300))
    if draw(st.booleans()):
        step = draw(st.floats(min_value=5e-324, max_value=1e300))
    else:
        step = math.ulp(start) * draw(st.floats(min_value=0.25, max_value=1e6))
    stop = start + draw(st.floats(min_value=0.0, max_value=2000.0)) * step
    assume(step > 0.0 and math.isfinite(stop + 0.5 * step))
    assume((stop - start) / step <= 2000)
    return start, stop, step


@given(grid=_ranges())
# the step is 0.9 of an ulp of start, so points round up, and i = 20 is kept
# though (stop - start)/step + 1/2 is 19.4: a first pass of 20 points misses it
@example((256.0, 256.0000000000012, 6.319580468071763e-14))
def test_range_grid_is_the_loop_bit_for_bit_and_round_trips(grid):
    try:
        expected = np.array(range_grid_loop(*grid))
    except ValueError:  # a step below float resolution
        expected = None
    argv = ["thermal", "--K", "1", "--t-grid", "%r:%r:%r" % grid]
    try:
        s = parse_scenario(argv)
    except UsageError as exc:
        assert expected is None and str(exc) == "--t-grid must be strictly increasing"
        return
    assert _grid_points(s.t_grid).tobytes() == expected.tobytes()
    assert parse_scenario(s.to_argv()) == s


@st.composite
def _any_ranges(draw):
    """(start, stop, step) of at most about 50 steps that the range syntax
    accepts: negative starts down to the float range's edge (where i*step
    can overflow), or starts in [0, 1e300] whose points all stay finite; the
    step drawn freely or at the float resolution of start, so the points may
    not advance."""
    if draw(st.booleans()):
        start, largest = draw(st.floats(-1.7976931348623157e308, -5e-324)), 1e308
    else:
        start, largest = draw(st.floats(0.0, 1e300)), 1e300
    if draw(st.booleans()):
        step = draw(st.floats(5e-324, largest))
    else:
        step = math.ulp(start) * draw(st.floats(0.25, 4.0))
    stop = start + draw(st.floats(0.0, 50.0)) * step
    assume(step > 0.0 and math.isfinite(stop))
    return start, stop, step


def _verdict(argv):
    try:
        parse_scenario(argv)
    except UsageError as exc:
        return str(exc)
    return None


@given(grid=_any_ranges(), flag=st.sampled_from(["t-grid", "K-grid"]))
@example((1e22, 1e22, 1.0), "t-grid")  # a step below float resolution
@example((-1.7e308, 1.7e308, 1e308), "K-grid")  # i*step overflows
@example((1e308, 1.7e308, 1e308), "K-grid")  # a point past the float range
def test_a_range_and_the_list_of_its_points_get_one_verdict(grid, flag):
    # check_grid alone judges the points of both spellings, an inf among them
    command = ["thermal", "--K", "1"] if flag == "t-grid" else ["sweep"]
    points = _grid_points(_parse_grid("%r:%r:%r" % grid))
    listed = ",".join(map(repr, points.tolist()))
    as_range = _verdict([*command, f"--{flag}", "%r:%r:%r" % grid])
    assert as_range == _verdict([*command, f"--{flag}", listed])


def _grid(values):
    """Comma lists of 1-4 increasing values."""
    lists = st.lists(values, min_size=1, max_size=4, unique=True)
    return lists.map(lambda grid: ",".join(map(repr, sorted(grid))))


@given(
    patterns=st.binary(min_size=4 * 8, max_size=32 * 8),  # any 64-bit pattern
    floats=st.lists(st.floats(), max_size=16),  # nan, inf, subnormals
    integers=st.lists(st.integers(-(2**53), 2**53), max_size=16),  # exact doubles
    n_columns=st.integers(1, 4),
)
def test_csv_block_is_the_per_value_format(patterns, floats, integers, n_columns):
    values = np.frombuffer(patterns[: len(patterns) // 8 * 8], "<f8").tolist()
    values += floats + [float(k) for k in integers]
    rows = len(values) // n_columns
    table = np.array(values[: rows * n_columns]).reshape(rows, n_columns)
    lines = [",".join(format(v, ".17g") for v in row) for row in table.tolist()]
    expected = "".join(line + "\n" for line in lines).encode()
    assert b"".join(_csv_blocks([list(table.T)], n_columns)) == expected


_COMMANDS = ("spectrum", "equilibrium", "thermal", "dynamics", "sweep")
_SI = ("particle-mass", "box-size", "spring-stiffness")
# tables stay small (n-max, n-periods, grid lengths)
_FLAGS = {
    "K": finite_floats,
    "mu": st.none() | finite_floats,
    **dict.fromkeys(_SI, positive_floats),
    "wall-mass": st.none() | positive_floats,
    "ell": st.floats(min_value=MIN_SIZE, max_value=MAX_SIZE),
    "n-max": st.integers(1, 2000),
    "t-grid": _grid(st.floats(min_value=0.0, max_value=1e6)),
    "K-grid": _grid(finite_floats),
    "y0-frac": st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    "dt-factor": st.just(math.nextafter(math.pi, math.inf))
    | st.floats(min_value=-1000.0, max_value=1000.0),
    "n-periods": st.integers(1, 3),
    "formats": st.sampled_from(["csv", "json", "csv,json"]),
}
# a dynamics run that the time-step rule accepts: K log-uniform over the
# sweep's range, omega*dt = 2 pi/dt_factor below 2, a short run
_RUNNABLE_DYNAMICS = {
    "K": st.floats(-2.0, 8.0).map(lambda e: 10.0**e),
    "mu": st.none() | st.floats(0.0, 6.0).map(lambda e: 10.0**e),
    "y0-frac": st.floats(min_value=0.0, max_value=0.5),
    "dt-factor": st.floats(min_value=math.pi, max_value=1000.0, exclude_min=True),
    "n-periods": st.integers(1, 3),
}


@st.composite
def _argvs(draw):
    """An argv of any command, reduced or SI, with values its flags accept."""
    command = draw(st.sampled_from(_COMMANDS))
    names = {
        "spectrum": ["ell", "n-max"],
        "equilibrium": [],
        "thermal": ["t-grid"],
        "dynamics": ["y0-frac", "dt-factor", "n-periods"],
        "sweep": ["K-grid"],
    }[command]
    if command in ("equilibrium", "thermal", "dynamics"):
        system = ["K", "mu"] if draw(st.booleans()) else [*_SI, "wall-mass"]
        names += [n for n in system if n != "mu" or command == "dynamics"]
    flags = _FLAGS
    if command == "dynamics" and draw(st.integers(0, 2)):  # two in three run
        names, flags = list(_RUNNABLE_DYNAMICS), {**_FLAGS, **_RUNNABLE_DYNAMICS}
    argv = [command]
    for name in [*names, "formats"]:
        value = draw(flags[name])
        if value is not None:
            argv += [f"--{name}", value if isinstance(value, str) else repr(value)]
    return argv


def _strain_matches(K, strain):
    expected = strain_bisection(K)
    return abs(strain - expected) <= 4.0 * math.ulp(expected)


@given(argv=_argvs())
def test_cli_writes_correct_outputs_or_one_error_line_and_no_file(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        assert code in (0, 1, 2)
        left = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if code:
            err = stderr.getvalue()
            assert err.startswith("zpbox: error: ") and err.count("\n") == 1
            assert left == []  # hidden temporaries included
            return
        assert stderr.getvalue() == ""
        listed = [
            Path(line.removeprefix("  wrote ")).name
            for line in stdout.getvalue().splitlines()
            if line.startswith("  wrote ")
        ]
        assert sorted(listed) == left
        command = argv[0]
        if f"{command}_summary.json" in left and command == "equilibrium":
            data = json.loads((out / "equilibrium_summary.json").read_text())
            assert _strain_matches(data["K"], data["strain"])
        for name in left:  # every field is its own value's canonical text
            if name.endswith(".csv"):
                header, *lines = (out / name).read_text().splitlines()
                integer = [key == "n" for key in header.split(",")]
                for line in lines:
                    for is_int, field in zip(integer, line.split(","), strict=True):
                        if is_int:  # spectrum's n
                            assert field == str(int(field))
                        else:
                            assert field == format(float(field), ".17g")
        if "sweep.csv" in left:
            rows = (out / "sweep.csv").read_text().splitlines()[1:]
            for row in rows:
                K, _, strain = map(float, row.split(",")[:3])
                assert _strain_matches(K, strain)
