import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zpbox
from conftest import quartic_root, strain_bisection
from zpbox import UsageError
from zpbox.cli import (
    _CSV_BLOCK_ROWS,
    Scenario,
    _write_csv,
    main,
    parse_scenario,
    run,
    summary_dict,
)
from zpbox.errors import NumericalError


def test_parse_minimal_equilibrium():
    s = parse_scenario(["equilibrium", "--K", "2"])
    assert s.command == "equilibrium"
    assert s.K == 2.0
    assert s.out_dir == "."
    assert s.formats == ("csv", "json")


def test_parse_thermal_with_grid(tmp_path):
    s = parse_scenario(
        ["thermal", "--K", "2", "--t-grid", "0:4:0.1", "--out", str(tmp_path)]
    )
    assert s.command == "thermal"
    assert len(s.t_grid) == 41
    assert s.t_grid[0] == 0.0
    assert s.t_grid[-1] == pytest.approx(4.0, abs=1e-12)


def test_grid_endpoint_inclusion_within_half_step():
    assert parse_scenario(["thermal", "--K", "1", "--t-grid", "0:1:0.5"]).t_grid == (
        0.0,
        0.5,
        1.0,
    )
    grid = parse_scenario(["thermal", "--K", "1", "--t-grid", "0:1:0.3"]).t_grid
    assert grid == (0.0, 0.3, 0.6, pytest.approx(0.9))
    assert parse_scenario(["sweep", "--K-grid", "2"]).k_grid == (2.0,)
    assert parse_scenario(["sweep", "--K-grid", "1,2,4"]).k_grid == (1.0, 2.0, 4.0)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["orbit"],
        ["equilibrium"],  # no parameterization at all
        ["equilibrium", "--K", "2", "--particle-mass", "9.1e-31"],  # conflict
        ["equilibrium", "--K", "abc"],
        ["equilibrium", "--K", "2", "--bogus", "1"],
        ["equilibrium", "--particle-mass", "9.1e-31"],  # incomplete SI
        ["thermal", "--K", "2"],  # missing grid
        ["thermal", "--K", "2", "--t-grid", "4:0:1"],
        ["thermal", "--K", "2", "--t-grid", "0:4:-1"],
        ["thermal", "--K", "2", "--t-grid", "-1,0,1"],
        ["sweep"],
        ["sweep", "--K-grid", "0,1"],  # stiffness must be positive
        ["dynamics", "--K", "2", "--y0-frac", "1.5"],
        ["dynamics", "--K", "2", "--n-periods", "0"],
        ["dynamics", "--K", "2", "--mu", "5", "--wall-mass", "1e-27"],
        ["dynamics", "--K", "2", "--mu", "1e-320"],  # K'/mu overflows
        ["dynamics", "--K", "2", "--mu", "0"],
        ["dynamics", "--K", "2", "--mu", "-5"],
        ["equilibrium", "--K", "2", "--formats", "yaml"],
        ["spectrum", "--ell", "-1"],
        ["spectrum", "--n-max", "1000001"],  # above spectrum.MAX_LEVEL
        # omega dt = 2 pi/dt_factor at or past Verlet's stability limit of 2
        ["dynamics", "--K", "2", "--dt-factor", "2"],
        ["dynamics", "--K", "2", "--dt-factor", "3"],
        ["dynamics", "--K", "2", "--dt-factor", "3.14159"],
        ["dynamics", "--particle-mass", "9.1e-31", "--box-size", "1e-9"]
        + ["--spring-stiffness", "0.06", "--dt-factor", "3"],
    ],
)
def test_usage_errors(argv):
    with pytest.raises(UsageError):
        parse_scenario(argv)


@pytest.mark.parametrize(
    "flags",
    [
        ["--K", "2", "--mu", "1e-320"],
        ["--K", "2", "--mu", "1e-300", "--dt-factor", "1e200"],
        ["--K", "2", "--dt-factor", "1e-320"],
        # K'/mu underflows, so omega and dt_factor omega are 0
        ["--K", "1.2574184655767058e-28", "--mu", "2.0360345102886298e+296"]
        + ["--dt-factor", "4"],
    ],
)
def test_time_step_that_vanishes_names_mu_and_dt_factor(flags):
    # sqrt(K'/mu) overflows, or dt_factor times it does (2 pi/(...) is 0),
    # or it underflows (2 pi/(...) is inf)
    with pytest.raises(UsageError, match="--mu .* --dt-factor"):
        parse_scenario(["dynamics", *flags])


def test_config_supplies_defaults_and_flags_win():
    config = "K = 4\nout = cfgdir  # trailing comment\n"
    s = parse_scenario(["equilibrium"], config_text=config)
    assert s.K == 4.0 and s.out_dir == "cfgdir"
    s = parse_scenario(["equilibrium", "--K", "2"], config_text=config)
    assert s.K == 2.0 and s.out_dir == "cfgdir"


def test_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(UsageError, match="unknown key"):
        parse_scenario(["equilibrium"], config_text="K = 2\nwavelength = 3\n")
    with pytest.raises(UsageError, match="duplicate"):
        parse_scenario(["equilibrium"], config_text="K = 2\nK = 3\n")
    with pytest.raises(UsageError, match="key = value"):
        parse_scenario(["equilibrium"], config_text="K: 2\n")
    with pytest.raises(UsageError):
        # t-grid is not a spectrum option, so it is unknown there
        parse_scenario(["spectrum"], config_text="t-grid = 0:1:0.5\n")


def test_config_file_is_read_from_disk(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 2\n")
    s = parse_scenario(["equilibrium", "--config", str(cfg)])
    assert s.K == 2.0
    with pytest.raises(UsageError, match="not found"):
        parse_scenario(["equilibrium", "--config", str(tmp_path / "missing.cfg")])


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", "--K", "2"],
        ["spectrum", "--ell", "1.38", "--n-max", "7"],
        ["thermal", "--K", "0.5", "--t-grid", "0:2:0.25", "--out", "runs"],
        ["dynamics", "--K", "100", "--mu", "500", "--y0-frac", "0.001"],
        ["sweep", "--K-grid", "1,2,4", "--formats", "csv"],
    ],
)
def test_scenario_round_trips_through_argv(argv):
    s = parse_scenario(argv)
    assert parse_scenario(s.to_argv()) == s


def test_equilibrium_run_matches_bisection_oracle(tmp_path):
    s = parse_scenario(["equilibrium", "--K", "2", "--out", str(tmp_path)])
    summary = run(s)
    data = json.loads((tmp_path / "equilibrium_summary.json").read_text())
    assert abs(data["ell"] - quartic_root(2.0)) < 1e-9
    assert data["binding_exact"] < 0.0
    assert data["K"] == 2.0
    assert data["energy_scale_J"] is None
    assert summary.duration_s >= 0.0
    for path in summary.outputs:
        assert (tmp_path / path.split("/")[-1]).stat().st_size > 0


@pytest.mark.parametrize("K", ["1e-200", "1e200"])
def test_equilibrium_at_extreme_stiffness(tmp_path, capsys, K):
    assert main(["equilibrium", "--K", K, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    data = json.loads((tmp_path / "equilibrium_summary.json").read_text())
    expected = strain_bisection(float(K))
    assert abs(data["strain"] - expected) <= 4.0 * math.ulp(expected)
    assert data["residual"] < 1e-12


def test_config_file_that_is_not_utf8_is_one_error_line(tmp_path):
    # a fresh process, so an uncaught decode error would show as a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe")
    src = str(Path(zpbox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    argv = ["equilibrium", "--config", str(cfg), "--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "zpbox.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stderr == f"zpbox: error: config file {str(cfg)!r} is not UTF-8 text\n"
    assert result.stdout == ""
    assert not out.exists()


def test_thermal_far_below_the_level_spacing_writes_nothing_to_stderr(tmp_path):
    # a fresh process, so numpy's warnings reach stderr as they would for a user
    src = str(Path(zpbox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["thermal", "--K", "2", "--t-grid", "0,5e-324,1e-300"]
    result = subprocess.run(
        [sys.executable, "-m", "zpbox.cli", *argv, "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == ""


_SYSTEM_HELP = [
    "--K",
    "--particle-mass",
    "--box-size",
    "--spring-stiffness",
    "--wall-mass",
]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("spectrum", ["--ell", "--n-max"]),
        ("equilibrium", _SYSTEM_HELP),
        ("thermal", [*_SYSTEM_HELP, "--t-grid"]),
        (
            "dynamics",
            [*_SYSTEM_HELP, "--mu", "--y0-frac", "--dt-factor", "--n-periods"],
        ),
        ("sweep", ["--K-grid"]),
    ],
)
def test_help_lists_exactly_the_flags_of_the_command(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    listed = re.findall(r"^ +(--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
    assert listed == ["--config", *flags, "--out", "--formats"]


def test_si_parameterization_reports_scales(tmp_path):
    argv = [
        "equilibrium",
        "--particle-mass",
        "9.109e-31",
        "--box-size",
        "1e-9",
        "--spring-stiffness",
        "0.06",
        "--out",
        str(tmp_path),
    ]
    assert main(argv) == 0
    data = json.loads((tmp_path / "equilibrium_summary.json").read_text())
    eps0 = 6.62607015e-34**2 / (8.0 * 9.109e-31 * 1e-18)
    assert data["energy_scale_J"] == pytest.approx(eps0, rel=1e-12)
    assert data["K"] == pytest.approx(0.06 * 1e-18 / eps0, rel=1e-12)
    assert data["mu"] == pytest.approx(1000.0)


def test_repeat_runs_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(
            ["thermal", "--K", "2", "--t-grid", "0:1:0.25", "--out", str(out)]
        )
        assert code == 0
    assert (out_a / "thermal.csv").read_bytes() == (out_b / "thermal.csv").read_bytes()
    sub = lambda p: (p / "thermal_summary.json").read_text().replace(str(p), "OUT")
    assert sub(out_a) == sub(out_b)
    # and a literal rerun into the same directory reproduces the bytes
    before = (out_a / "thermal.csv").read_bytes()
    json_before = (out_a / "thermal_summary.json").read_bytes()
    assert main(["thermal", "--K", "2", "--t-grid", "0:1:0.25", "--out", str(out_a)]) == 0
    assert (out_a / "thermal.csv").read_bytes() == before
    assert (out_a / "thermal_summary.json").read_bytes() == json_before


def test_csv_headers_match_documented_schemas(tmp_path):
    runs = [
        (["spectrum", "--n-max", "3"], "spectrum.csv", "n,energy,wall_force,collision_freq,quantum_size"),
        (
            ["thermal", "--K", "2", "--t-grid", "0,1"],
            "thermal.csv",
            "t,ell,alpha,mean_force,p1,p2",
        ),
        (
            ["dynamics", "--K", "2", "--n-periods", "1"],
            "dynamics.csv",
            "t,eta,v,E_particle,E_strain,E_kinetic,E_total",
        ),
        (
            ["sweep", "--K-grid", "1,2"],
            "sweep.csv",
            "K,ell,strain,binding_exact,binding_first_order,K_prime",
        ),
    ]
    for argv, name, header in runs:
        out = tmp_path / name.replace(".csv", "")
        assert main(argv + ["--out", str(out)]) == 0
        assert (out / name).read_text().splitlines()[0] == header


def test_spectrum_first_row_values(tmp_path):
    assert main(["spectrum", "--n-max", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[1] == "1,1,2,0.31830988618379069,1"
    assert lines[2].startswith("2,4,8,")


def test_usage_error_exit_code_and_no_partial_files(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["thermal", "--K", "2", "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()
    assert main(["equilibrium", "--K", "-2", "--out", str(out)]) == 2
    assert not out.exists()


def test_numerical_error_exit_code(monkeypatch, capsys):
    def boom(scenario):
        raise NumericalError("synthetic solver failure")

    monkeypatch.setattr("zpbox.cli.run", boom)
    assert main(["equilibrium", "--K", "2"]) == 1
    assert "synthetic solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["", "sub"])
def test_out_path_that_cannot_hold_outputs_is_one_error_line(tmp_path, capsys, sub):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["equilibrium", "--K", "2", "--out", str(blocker / sub)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("zpbox: error: ") and err.count("\n") == 1


def test_formats_flag_selects_outputs(tmp_path):
    out = tmp_path / "jsononly"
    assert main(["thermal", "--K", "2", "--t-grid", "0,1", "--formats", "json", "--out", str(out)]) == 0
    assert not (out / "thermal.csv").exists()
    assert (out / "thermal_summary.json").exists()
    out2 = tmp_path / "csvonly"
    assert main(["thermal", "--K", "2", "--t-grid", "0,1", "--formats", "csv", "--out", str(out2)]) == 0
    assert (out2 / "thermal.csv").exists()
    assert not (out2 / "thermal_summary.json").exists()


def test_dynamics_from_rest_yields_constant_columns(tmp_path):
    assert (
        main(
            [
                "dynamics",
                "--K",
                "2",
                "--y0-frac",
                "0",
                "--n-periods",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    lines = (tmp_path / "dynamics.csv").read_text().splitlines()
    etas = {line.split(",")[1] for line in lines[1:]}
    totals = {line.split(",")[6] for line in lines[1:]}
    assert etas == {"0"} and len(totals) == 1
    data = json.loads((tmp_path / "dynamics_summary.json").read_text())
    assert data["measured_omega"] is None  # too few crossings to estimate


def test_sweep_keeps_grid_order(tmp_path):
    assert main(["sweep", "--K-grid", "1,2,4,8", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["1", "2", "4", "8"]


def test_sweep_rows_equal_solve_equilibrium_across_the_float_range(tmp_path):
    # a fresh process, so numpy's warnings reach stderr as they would for a user
    grid = (
        "5e-324,1e-300,1e-200,1e-16,0.01,0.25,2,3.7,1e8,1e200,"
        "1.7976931348623157e308"
    )
    src = str(Path(zpbox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "zpbox.cli", "sweep", "--K-grid", grid],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    expected = []
    for K in grid.split(","):
        sol = zpbox.solve_equilibrium(float(K))
        fields = (
            sol.K,
            sol.ell,
            sol.strain,
            sol.binding_exact,
            sol.binding_first_order,
            sol.effective_stiffness,
        )
        expected.append(",".join("%.17g" % v for v in fields))
    assert rows == expected


def test_dynamics_rejects_infinite_step_count(tmp_path, capsys):
    out = tmp_path / "never"
    argv = ["dynamics", "--K", "2", "--dt-factor", "1e308", "--n-periods", "10"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("zpbox: error: ") and err.count("\n") == 1
    assert not out.exists()
    # an n_periods too large for a float overflows the product the same way
    assert main(["dynamics", "--K", "2", "--n-periods", "1" + "0" * 400]) == 2


def test_dynamics_allocation_failure_is_a_zpbox_error(tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("zpbox.dynamics.np.empty", no_memory)
    argv = ["dynamics", "--K", "2", "--n-periods", "10", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("zpbox: error: ") and "10001 samples" in err


# every one of these appears in each row, in a different column per row
_SPECIAL_FLOATS = (
    0.0,
    -0.0,
    math.nan,
    math.inf,
    -math.inf,
    5e-324,
    1.7976931348623157e308,
    1e16,
    0.1,
    1.0 / 3.0,
)


@pytest.mark.parametrize(
    "n_rows", [1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1]
)
def test_write_csv_matches_per_value_formatting(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    k = len(_SPECIAL_FLOATS)
    ints = np.arange(n_rows, dtype=np.int64) * 7919 - 3
    ints[0] = np.iinfo(np.int64).max  # not exact as a float
    ints[-1] = np.iinfo(np.int64).min
    special = [
        [_SPECIAL_FLOATS[(i + j) % k] for i in range(n_rows)] for j in range(k)
    ]
    bits = rng.integers(0, 2**64, n_rows, dtype=np.uint64).view(np.float64)
    columns = [ints, *special, bits]
    header = [f"c{j}" for j in range(len(columns))]

    lines = [",".join(header)]
    for i in range(n_rows):
        fields = [str(int(ints[i]))]
        fields += [format(float(col[i]), ".17g") for col in columns[1:]]
        lines.append(",".join(fields))
    expected = ("\n".join(lines) + "\n").encode()

    path = tmp_path / "golden.csv"
    _write_csv(path, header, columns)
    assert path.read_bytes() == expected


@pytest.mark.parametrize(
    "statement",
    [
        pytest.param("import zpbox.cli", id="zpbox.cli"),
        pytest.param("import zpbox", id="zpbox"),
        pytest.param(
            "import zpbox; zpbox.position_expectation(7, 1.3)",
            id="position_expectation",
        ),
        pytest.param(
            "import zpbox; zpbox.minimize_oracle(2.0)", id="minimize_oracle"
        ),
    ],
)
def test_import_leaves_scipy_and_mpmath_unloaded(statement):
    src = str(Path(zpbox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        f"import sys; {statement}; "
        "print(sorted(m for m in ('scipy', 'mpmath', 'fractions', 'decimal') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_summary_dict_excludes_wall_clock(tmp_path):
    s = parse_scenario(["equilibrium", "--K", "2", "--out", str(tmp_path)])
    summary = run(s)
    flat = summary_dict(summary)
    assert "duration_s" not in flat
    assert flat["argv"] == s.to_argv()


_SI_FLAGS = [
    "--particle-mass",
    "9.109e-31",
    "--box-size",
    "1e-9",
    "--spring-stiffness",
    "0.06",
    "--wall-mass",
    "1e-27",
]
_SI_ARGV = [
    "--particle-mass",
    "9.1089999999999993e-31",
    "--box-size",
    "1.0000000000000001e-09",
    "--spring-stiffness",
    "0.059999999999999998",
    "--wall-mass",
    "1e-27",
]


# (every flag the command takes, in a scrambled order; canonical to_argv())
@pytest.mark.parametrize(
    "argv, canonical",
    [
        pytest.param(
            ["spectrum", "--n-max", "7", "--ell", "1.38", "--formats", "json"]
            + ["--out", "runs"],
            ["spectrum", "--ell", "1.3799999999999999", "--n-max", "7"]
            + ["--out", "runs", "--formats", "json"],
            id="spectrum",
        ),
        pytest.param(
            ["equilibrium", "--formats", "json,csv", "--K", "0.1", "--out", "runs"],
            ["equilibrium", "--K", "0.10000000000000001"]
            + ["--out", "runs", "--formats", "json,csv"],
            id="equilibrium-reduced",
        ),
        pytest.param(
            ["equilibrium", "--out", "runs", "--formats", "csv", *_SI_FLAGS],
            ["equilibrium", *_SI_ARGV, "--out", "runs", "--formats", "csv"],
            id="equilibrium-si",
        ),
        pytest.param(
            ["thermal", "--t-grid", "0:0.3:0.1", "--K", "2", "--out", "runs"]
            + ["--formats", "csv,json"],
            ["thermal", "--K", "2", "--t-grid"]
            + ["0,0.10000000000000001,0.20000000000000001,0.30000000000000004"]
            + ["--out", "runs", "--formats", "csv,json"],
            id="thermal-reduced",
        ),
        pytest.param(
            ["thermal", "--t-grid", "0.5,1,2", *_SI_FLAGS, "--out", "runs"]
            + ["--formats", "json"],
            ["thermal", *_SI_ARGV, "--t-grid", "0.5,1,2"]
            + ["--out", "runs", "--formats", "json"],
            id="thermal-si",
        ),
        pytest.param(
            ["dynamics", "--n-periods", "3", "--dt-factor", "250", "--y0-frac"]
            + ["0.001", "--mu", "500", "--K", "100", "--out", "runs"]
            + ["--formats", "csv"],
            ["dynamics", "--K", "100", "--mu", "500", "--y0-frac", "0.001"]
            + ["--dt-factor", "250", "--n-periods", "3"]
            + ["--out", "runs", "--formats", "csv"],
            id="dynamics-reduced",
        ),
        pytest.param(
            ["dynamics", "--n-periods", "2", "--y0-frac", "0.3", *_SI_FLAGS]
            + ["--dt-factor", "64", "--formats", "json", "--out", "runs"],
            ["dynamics", *_SI_ARGV, "--y0-frac", "0.29999999999999999"]
            + ["--dt-factor", "64", "--n-periods", "2"]
            + ["--out", "runs", "--formats", "json"],
            id="dynamics-si",
        ),
        pytest.param(
            ["sweep", "--K-grid", "1:2:0.5", "--formats", "csv", "--out", "runs"],
            ["sweep", "--K-grid", "1,1.5,2", "--out", "runs", "--formats", "csv"],
            id="sweep",
        ),
    ],
)
def test_to_argv_is_canonical_for_every_flag(argv, canonical):
    s = parse_scenario(argv)
    assert s.to_argv() == canonical
    assert parse_scenario(canonical) == s
    pairs = zip(canonical[1::2], canonical[2::2])
    config = "".join(f"{flag[2:]} = {value}\n" for flag, value in pairs)
    assert parse_scenario([s.command], config_text=config) == s


def test_every_scenario_field_has_exactly_one_flag():
    from zpbox.cli import _FLAGS

    fields = [f.name for f in dataclasses.fields(Scenario) if f.name != "command"]
    assert sorted(flag.field for flag in _FLAGS.values()) == sorted(fields)


def test_malformed_values_name_their_flag():
    with pytest.raises(UsageError, match="--K"):
        parse_scenario(["equilibrium", "--K", "abc"])
    with pytest.raises(UsageError, match="--n-periods"):
        parse_scenario(["dynamics", "--K", "2"], config_text="n-periods = 1.5\n")
    with pytest.raises(UsageError, match="--t-grid"):
        parse_scenario(["thermal", "--K", "2"], config_text="t-grid = 0:1\n")


def test_range_grid_step_count_is_bounded(tmp_path, capsys):
    from zpbox.cli import _MAX_RANGE_STEPS, _parse_grid

    assert len(_parse_grid(f"0:{_MAX_RANGE_STEPS}:1")) == _MAX_RANGE_STEPS + 1
    # a step below the float resolution of the values never advances them
    with pytest.raises(UsageError, match="advance"):
        _parse_grid("1e22:1e22:1")
    with pytest.raises(UsageError, match="--K-grid"):
        parse_scenario(["sweep", "--K-grid", f"1:{_MAX_RANGE_STEPS + 2}:1"])
    # rejected before any point is built, so this takes no memory
    out = tmp_path / "never"
    argv = ["thermal", "--K", "2", "--t-grid", "0:1:1e-300", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("zpbox: error: ") and err.count("\n") == 1
    assert not out.exists()
    # comma lists are not range grids and stay unbounded
    assert len(_parse_grid(",".join(["1"] * (_MAX_RANGE_STEPS + 2)))) > _MAX_RANGE_STEPS


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--ell", "1e-200"],
        ["spectrum", "--ell", "1e-150"],
        ["equilibrium", "--particle-mass", "1e-300", "--box-size", "1e-300"]
        + ["--spring-stiffness", "1"],
        # K'/mu underflows: omega is 0, so there is no finite time step
        ["dynamics", "--particle-mass", "1", "--box-size"]
        + ["1.5870818999450621e-68", "--spring-stiffness", "1", "--wall-mass"]
        + ["1.8718912450931243e+120", "--dt-factor", "10"],
    ],
)
def test_out_of_range_system_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("zpbox: error: ") and err.count("\n") == 1
    assert not out.exists()
