import ast
import contextlib
import gc
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import zpbox
from conftest import (
    power_of_ten_parts,
    quartic_root,
    range_grid_loop,
    strain_bisection,
)
from zpbox import UsageError, cli
from zpbox.cli import (
    _CSV_BLOCK_ROWS,
    _MAX_RANGE_STEPS,
    Scenario,
    _grid_points,
    _parse_grid,
    _write_csv,
    main,
    parse_scenario,
    run,
    summary_dict,
)
from zpbox.errors import NumericalError, ValidationError


def _child_env(**extra) -> dict:
    """This process's environment and ``extra``, with the package's source
    first on PYTHONPATH, for a fresh ``python -m zpbox.cli`` process."""
    src = str(Path(zpbox.__file__).resolve().parents[1])
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    assert s.t_grid == slice(0.0, 4.0, 0.1)
    points = _grid_points(s.t_grid)
    assert len(points) == 41
    assert points[0] == 0.0
    assert points[-1] == pytest.approx(4.0, abs=1e-12)


def test_grid_endpoint_inclusion_within_half_step():
    grid = parse_scenario(["thermal", "--K", "1", "--t-grid", "0:1:0.5"]).t_grid
    assert tuple(_grid_points(grid)) == (0.0, 0.5, 1.0)
    grid = parse_scenario(["thermal", "--K", "1", "--t-grid", "0:1:0.3"]).t_grid
    assert tuple(_grid_points(grid)) == (0.0, 0.3, 0.6, pytest.approx(0.9))
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
        ["dynamics", "--K", "2", "--mu", "0"],
        ["dynamics", "--K", "2", "--mu", "-5"],
        ["equilibrium", "--K", "2", "--formats", "yaml"],
        ["spectrum", "--ell", "-1"],
        ["spectrum", "--n-max", "1000001"],  # above spectrum.MAX_LEVEL
        # a value that starts with "-" reaches its rule, not argparse
        ["sweep", "--K-grid", "-2,1"],
        ["dynamics", "--K", "2", "--mu", "-1e-3"],
        ["dynamics", "--K", "2", "--y0-frac", "-1e-3"],
        ["spectrum", "--ell", "-1e-3"],
        ["dynamics", "--K", "2", "--n-periods", "10", "--dt-factor", "1e308"],
        ["equilibrium", "--K", "inf"],  # a number, but not finite
        ["equilibrium", "--K", "nan"],
        ["equilibrium", "--K", "2", "--formats", ","],  # names no format
        ["equilibrium", "--K"],  # a flag without its value
        ["equilibrium", "2"],  # a word that is no flag
        ["equilibrium", "-K", "2"],  # one dash is no flag
        ["equilibrium", "--K", "2", "--"],
    ],
)
def test_usage_errors(argv):
    with pytest.raises(UsageError):
        parse_scenario(argv)


def test_flag_value_after_an_equals_sign_and_the_last_repeat_wins():
    assert parse_scenario(["equilibrium", "--K=2"]).K == 2.0
    assert parse_scenario(["equilibrium", "--K=1", "--K", "3"]).K == 3.0
    assert parse_scenario(["spectrum", "--ell", "2", "--ell=-1e-3", "--ell=4"]).ell == 4
    with pytest.raises(UsageError, match="--out: expected one argument"):
        parse_scenario(["equilibrium", "--K", "2", "--out"])


def test_unknown_words_are_reported_together_in_one_line(capsys):
    assert main(["equilibrium", "--K", "2", "--bogus", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "zpbox: error: unrecognized arguments: --bogus 1\n"
    assert captured.out == ""


def test_word_after_a_flag_is_its_value_even_with_a_leading_minus():
    s = parse_scenario(["dynamics", "--K", "2", "--dt-factor", "-5e0", "--out", "-a"])
    assert (s.dt_factor, s.out_dir) == (-5.0, "-a")  # -5e0: rejected by run
    assert parse_scenario(["equilibrium", "--config", "-c"], config_text="K = 2").K == 2
    # a word with two leading dashes is a flag, never a value
    with pytest.raises(UsageError, match="--out: expected one argument"):
        parse_scenario(["equilibrium", "--out", "--K", "2"])


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
def test_time_step_that_vanishes_names_mu_and_dt_factor(tmp_path, capsys, flags):
    # sqrt(K'/mu) overflows, or dt_factor times it does (2 pi/(...) is 0),
    # or it underflows (2 pi/(...) is inf); found as the run computes
    out = tmp_path / "never"
    assert main(["dynamics", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.match(r"zpbox: error: --mu .* --dt-factor .*\n\Z", err)
    assert not out.exists()


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


def test_config_skips_blank_and_comment_lines_and_counts_them():
    config = "# a run\n\nK = 2\n    # indented\n\t\nout = cfgdir  # trailing\n"
    s = parse_scenario(["dynamics"], config_text=config)
    assert s.K == 2.0 and s.out_dir == "cfgdir"
    with pytest.raises(UsageError) as info:
        parse_scenario(["dynamics"], config_text=config + "n-periods 3\n")
    assert str(info.value) == "config line 7: expected key = value"


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


def test_config_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe")
    out = tmp_path / "out"
    argv = ["equilibrium", "--config", str(cfg), "--out", str(out)]
    error = f"zpbox: error: config file {str(cfg)!r} is not UTF-8 text\n"
    assert main(argv) == 2
    assert capsys.readouterr() == ("", error)
    assert not out.exists()
    # a fresh process, so an uncaught decode error would show as a traceback
    result = subprocess.run(
        [sys.executable, "-m", "zpbox.cli", *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stderr == error
    assert result.stdout == ""
    assert not out.exists()


def test_thermal_far_below_the_level_spacing_writes_nothing_to_stderr(tmp_path):
    # a fresh process, so numpy's warnings reach stderr as they would for a user
    argv = ["thermal", "--K", "2", "--t-grid", "0,5e-324,1e-300"]
    result = subprocess.run(
        [sys.executable, "-m", "zpbox.cli", *argv, "--out", str(tmp_path)],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == ""


def test_a_temperature_of_minus_zero_is_solved_as_zero(tmp_path):
    # a fresh process, so numpy's warnings reach stderr as they would for a user
    minus, plus = tmp_path / "minus", tmp_path / "plus"
    argv = ["thermal", "--K", "2", "--t-grid", "-0"]
    result = subprocess.run(
        [sys.executable, "-m", "zpbox.cli", *argv, "--out", str(minus)],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert main(["thermal", "--K", "2", "--t-grid", "0", "--out", str(plus)]) == 0
    csv = (plus / "thermal.csv").read_bytes()
    assert (minus / "thermal.csv").read_bytes() == csv
    assert b"nan,nan" not in csv


@pytest.mark.parametrize(
    "argv, code",
    [
        (["equilibrium", "--K", "2"], 0),
        (["thermal", "--K", "2", "--t-grid", "0,2.4e5"], 1),  # needs > 10**6 levels
        (["equilibrium", "--K", "-2"], 2),
    ],
)
def test_process_entry_exits_as_an_in_process_run(
    tmp_path, monkeypatch, capsys, argv, code
):
    # python -m zpbox.cli takes main()'s process path; main(argv) does not
    process, in_process = tmp_path / "process", tmp_path / "in_process"
    process.mkdir()
    in_process.mkdir()
    result = subprocess.run(
        [sys.executable, "-m", "zpbox.cli", *argv],
        cwd=process,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    monkeypatch.chdir(in_process)
    assert main(argv) == code
    assert result.returncode == code
    stderr = capsys.readouterr().err
    assert result.stderr == stderr
    assert len(stderr.splitlines()) == (code != 0)
    files = {p.name: p.read_bytes() for p in process.iterdir()}
    assert files == {p.name: p.read_bytes() for p in in_process.iterdir()}
    assert bool(files) == (code == 0)


@pytest.mark.parametrize(
    "argv",
    [["equilibrium", "--K", "2"], ["equilibrium", "--K", "-2"]],
)
def test_only_the_process_entry_freezes_the_collector(tmp_path, argv):
    before = gc.get_freeze_count()
    main([*argv, "--out", str(tmp_path)])
    assert gc.get_freeze_count() == before
    # main() with sys.argv, as the console script calls it, in a fresh process
    script = (
        "import gc, sys; from zpbox.cli import main; "
        f"sys.argv = ['zpbox', *{argv!r}, '--out', {str(tmp_path)!r}]; "
        "before = gc.get_freeze_count(); main(); "
        "print(before, gc.get_freeze_count(), file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    before, after = map(int, result.stderr.splitlines()[-1].split())
    assert before == 0 and after > 0


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_is_one_error_line_and_exit_1(tmp_path, unbuffered):
    # the report goes to a pipe whose reading end is already closed
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "zpbox.cli", "equilibrium", "--K", "2"],
            cwd=tmp_path,
            env=_child_env(PYTHONUNBUFFERED=unbuffered),
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write)
    assert result.returncode == 1
    assert result.stderr == "zpbox: error: [Errno 32] Broken pipe\n"
    assert [p.name for p in tmp_path.iterdir()] == ["equilibrium_summary.json"]


def test_in_process_closed_stdout_leaves_the_callers_stdout_alone(
    tmp_path, monkeypatch, capsys
):
    # main(argv) reports the closed pipe but does not point it at os.devnull
    read, write = os.pipe()
    os.close(read)
    stdout = open(write, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["equilibrium", "--K", "2", "--out", str(tmp_path)]) == 1
        assert stat.S_ISFIFO(os.fstat(write).st_mode)
    finally:
        with contextlib.suppress(BrokenPipeError):
            stdout.close()  # its report is still buffered
    assert capsys.readouterr().err == "zpbox: error: [Errno 32] Broken pipe\n"
    assert [p.name for p in tmp_path.iterdir()] == ["equilibrium_summary.json"]


def test_thermal_run_keeps_only_the_columns_it_writes(tmp_path):
    # 5001 points: each block's levels x points occupancies, all kept, took
    # about 10 MiB; the six written columns take 0.24 MiB
    argv = ["thermal", "--K", "0.5", "--t-grid", "0:50:0.01", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_sweep_run_solves_a_block_at_a_time(tmp_path):
    # solved as one array, this grid peaked at 16.3 MiB under tracemalloc
    argv = ["sweep", "--K-grid", "1:100000:1", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_sweep_without_a_csv_solves_nothing(tmp_path, monkeypatch):
    solved = []
    equilibria = cli.eq.equilibria

    def spy(K_grid):
        solved.append(len(K_grid))
        return equilibria(K_grid)

    monkeypatch.setattr(cli.eq, "equilibria", spy)
    argv = ["sweep", "--K-grid", "1:10000:1", "--out"]
    assert main([*argv, str(tmp_path / "both")]) == 0
    block = cli._SWEEP_BLOCK  # never the whole grid at once
    assert solved == [block, block, 10000 - 2 * block]
    solved.clear()
    assert main([*argv, str(tmp_path / "json"), "--formats", "json"]) == 0
    assert solved == []
    both, alone = (
        json.loads((tmp_path / name / "sweep_summary.json").read_text())
        for name in ("both", "json")
    )
    assert alone["outputs"] == [str(tmp_path / "json" / "sweep_summary.json")]
    for summary in (both, alone):  # less the manifest and the --out, --formats echo
        del summary["outputs"], summary["argv"][-4:]
    assert alone == both


def test_sweep_failing_in_a_later_block_leaves_no_output(
    tmp_path, monkeypatch, capsys
):
    calls = []
    equilibria = cli.eq.equilibria

    def fails_second(K_grid):
        calls.append(len(K_grid))
        if len(calls) == 2:
            raise NumericalError("solve failed in the second block")
        return equilibria(K_grid)

    monkeypatch.setattr(cli.eq, "equilibria", fails_second)
    argv = ["sweep", "--K-grid", "1:10000:1", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "zpbox: error: solve failed in the second block\n"
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []  # neither an output nor a .tmp file


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


def test_long_help_is_the_short_help_and_shows_each_default(capsys):
    texts = []
    for word in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--ell", "2", word, "--bogus"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    (line,) = [t for t in texts[0].splitlines() if t.split()[:1] == ["--n-max"]]
    assert line.endswith(" (default 10)")


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


def test_thermal_point_past_the_level_cap_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never"
    argv = ["thermal", "--K", "1e300", "--t-grid", "0,1e300", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "",
        "zpbox: error: temperature t = 1e+300 needs more than 1000000 levels\n",
    )
    assert not out.exists()


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
    result = subprocess.run(
        [sys.executable, "-m", "zpbox.cli", "sweep", "--K-grid", grid],
        cwd=tmp_path,
        env=_child_env(),
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
    "n_rows",
    [
        1,
        # a block boundary, after four whole blocks
        4 * _CSV_BLOCK_ROWS - 1,
        4 * _CSV_BLOCK_ROWS,
        4 * _CSV_BLOCK_ROWS + 1,
        # more blocks, the last one partial
        12 * _CSV_BLOCK_ROWS + 1,
        28 * _CSV_BLOCK_ROWS - 5,
    ],
)
def test_write_csv_matches_per_value_formatting(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    k = len(_SPECIAL_FLOATS)
    ints = np.arange(n_rows, dtype=float) * 7919 - 3  # integral doubles
    ints[0] = 2.0**53  # every integer of magnitude up to 2**53 is a double
    ints[-1] = -(2.0**53)
    special = [
        [_SPECIAL_FLOATS[(i + j) % k] for i in range(n_rows)] for j in range(k)
    ]
    bits = rng.integers(0, 2**64, n_rows, dtype=np.uint64).view(np.float64)
    columns = [ints, *special, bits]
    header = [f"c{j}" for j in range(len(columns))]

    lines = [",".join(header)]
    for i in range(n_rows):
        lines.append(",".join(format(float(col[i]), ".17g") for col in columns))
    expected = ("\n".join(lines) + "\n").encode()

    path = tmp_path / "golden.csv"
    _write_csv(path, header, [columns])
    assert path.read_bytes() == expected


_DYNAMICS_20 = ["dynamics", "--K", "2", "--n-periods", "20"]  # 20 001 CSV rows


def _per_value_csv(header, columns) -> bytes:
    """The CSV text one value at a time, as ``_write_csv`` must write it."""
    lines = [",".join(header)]
    for row in zip(*(np.asarray(c).tolist() for c in columns)):
        lines.append(",".join(format(v, ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode()


def test_write_csv_of_uneven_blocks_matches_per_value_formatting(tmp_path):
    # a short block before a long one: each piece fills a prefix of the
    # formatter's arrays, which a view kept from a short piece cannot hold
    rng = np.random.default_rng(5)
    sizes = (5, 3000, 1, _CSV_BLOCK_ROWS)
    values = rng.integers(0, 2**64, (3, sum(sizes)), dtype=np.uint64).view(np.float64)
    edges = np.cumsum(sizes)[:-1]
    blocks = list(zip(*(np.split(row, edges) for row in values)))
    assert [len(block[0]) for block in blocks] == list(sizes)
    path = tmp_path / "uneven.csv"
    _write_csv(path, ["a", "b", "c"], blocks)
    assert path.read_bytes() == _per_value_csv(["a", "b", "c"], list(values))


def test_dynamics_csv_matches_per_value_formatting(tmp_path, monkeypatch):
    tables = []
    write_csv = cli._write_csv

    def keep(path, header, blocks):
        [columns] = blocks = list(blocks)  # dynamics writes one block
        tables.append((list(header), list(columns)))
        write_csv(path, header, blocks)

    monkeypatch.setattr(cli, "_write_csv", keep)
    assert main([*_DYNAMICS_20, "--out", str(tmp_path)]) == 0
    [(header, columns)] = tables
    assert len(columns[0]) > _CSV_BLOCK_ROWS  # more than one block
    expected = _per_value_csv(header, columns)
    assert (tmp_path / "dynamics.csv").read_bytes() == expected


def test_csv_blocks_leave_numpys_error_state_alone_between_blocks():
    column = np.linspace(-1e300, 1e300, 2 * _CSV_BLOCK_ROWS + 1)
    before = np.geterr()
    chunks = []
    for chunk in cli._csv_blocks([[column, column]], 2):
        assert np.geterr() == before  # the caller's state while it holds a block
        chunks.append(chunk.tobytes())
    assert len(chunks) == 3
    expected = _per_value_csv(["a", "b"], [column, column]).split(b"\n", 1)[1]
    assert b"".join(chunks) == expected


def _powers_of_ten_and_neighbours():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    below = [math.nextafter(v, 0.0) for v in powers]
    above = [math.nextafter(v, math.inf) for v in powers]
    return powers + below + above


# 0, inf and nan, the double range's ends, and every decade's edges
_EDGE_FLOATS = [
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    math.nan,
    5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    *_powers_of_ten_and_neighbours(),
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_csv_formats_edge_values_exactly(tmp_path, sign):
    values = np.array(_EDGE_FLOATS) * sign
    columns = [values[: len(values) // 3 * 3][j::3] for j in range(3)]
    path = tmp_path / "edges.csv"
    _write_csv(path, ["a", "b", "c"], [columns])
    assert path.read_bytes() == _per_value_csv(["a", "b", "c"], columns)


def test_undecided_rounding_takes_pythons_format(tmp_path, monkeypatch):
    # 2**-25 is a tie at 17 digits (...3125, to even: ...312); the product
    # decides 0.6353867998907108 (0.635386799890710785...) by itself
    formatted = []

    def spy(value, spec):
        formatted.append(value)
        return format(value, spec)

    monkeypatch.setattr(cli, "format", spy, raising=False)
    columns = [np.array([0.1, 2.0**-25, 0.6353867998907108])]
    path = tmp_path / "ties.csv"
    _write_csv(path, ["v"], [columns])
    assert formatted == [2.0**-25]
    expected = b"v\n0.10000000000000001\n2.9802322387695312e-08\n0.63538679989071079\n"
    assert path.read_bytes() == expected


def test_dynamics_csv_takes_pythons_format_for_its_zeros_only(tmp_path, monkeypatch):
    formatted, rows = [], []
    write_csv = cli._write_csv

    def spy(value, spec):
        formatted.append(value)
        return format(value, spec)

    def write_spied(path, header, blocks):
        [columns] = blocks = list(blocks)  # dynamics writes one block
        rows.append(len(list(columns)[0]))
        with monkeypatch.context() as m:
            m.setattr(cli, "format", spy, raising=False)
            write_csv(path, header, blocks)

    monkeypatch.setattr(cli, "_write_csv", write_spied)
    assert main([*_DYNAMICS_20, "--out", str(tmp_path)]) == 0
    assert rows == [20001]
    assert formatted and set(formatted) == {0.0}  # row 0's t, v and kinetic


@pytest.fixture
def host_long_double(monkeypatch):
    """Make np.finfo report a long double of nmant fraction bits, the width by
    which the formatter once chose its digit path on each host; the CSV tables
    are rebuilt under it, and again after the test."""
    finfo = np.finfo

    class Reported:
        def __init__(self, info, nmant):
            self.info, self.nmant = info, nmant

        def __getattr__(self, name):
            return getattr(self.info, name)

    def report(nmant):
        def reporting(dtype):
            info = finfo(dtype)
            return Reported(info, nmant) if info.dtype == np.longdouble else info

        monkeypatch.setattr(np, "finfo", reporting)
        cli._csv_tables.cache_clear()
        assert np.finfo(np.longdouble).nmant == nmant

    yield report
    cli._csv_tables.cache_clear()


@pytest.mark.parametrize("nmant", [63, 112])  # x87 extended, binary128
def test_rounding_bound_covers_the_power_tables_error(host_long_double, nmant):
    # the tables come from exact ints, whatever the host's long double
    host_long_double(nmant)
    ceil, high, low, scale = cli._powers_of_ten()
    powers = range(cli._MIN_POWER, cli._MAX_POWER + 1)
    for k, c, h, lo, s in zip(powers, ceil, high, low, scale.tolist()):
        exact = Fraction(10) ** k
        held = (Fraction(h) + Fraction(lo)) * Fraction(2) ** s
        assert abs(held - exact) <= Fraction(1, 2**104) * exact
        assert 1.0 <= h <= 2.0
        assert c >= exact and math.nextafter(c, 0.0) < exact
    # so y < 10**17 moves by less than 2**-47 for it, inside y's 2**-46, and
    # the 2**-40 band round a half-integer covers both
    assert 10**17 * Fraction(1, 2**104) < Fraction(1, 2**47)
    tables = cli._csv_tables()
    assert np.array_equal(tables.ceil, ceil) and np.array_equal(tables.scale, scale)
    assert np.array_equal(tables.power[:, [0, 3]], np.stack([high, low], axis=1))


def test_power_tables_equal_an_exact_fraction_construction():
    # every power's ceil, high, low and scale, bit for bit (the sign of 0 too);
    # the test above checks that _csv_tables stores them as built
    powers = range(cli._MIN_POWER, cli._MAX_POWER + 1)
    ceil, high, low, scale = zip(*(power_of_ten_parts(k) for k in powers))
    *built, built_scale = cli._powers_of_ten()
    expected = [np.array(ceil), np.array(high), np.array(low)]
    assert [a.tobytes() for a in built] == [a.tobytes() for a in expected]
    assert built_scale.tolist() == list(scale)


@pytest.mark.parametrize("nmant", [63, 112])  # x87 extended, binary128
def test_csv_is_exact_under_each_long_doubles_bound(tmp_path, host_long_double, nmant):
    # one float64 digit path, whatever long double the host reports
    host_long_double(nmant)
    rng = np.random.default_rng(11)
    patterns = rng.integers(0, 2**64, 3 * 4000, dtype=np.uint64).view(np.float64)
    values = np.concatenate(
        [np.array(_MISROUNDED_BY_A_NARROW_BOUND + _EDGE_FLOATS), patterns]
    )
    columns = [values[: len(values) // 3 * 3][j::3] for j in range(3)]
    path = tmp_path / "patterns.csv"
    with np.errstate(all="raise"):  # no floating-point exception in any operation
        _write_csv(path, ["a", "b", "c"], [columns])
    assert path.read_bytes() == _per_value_csv(["a", "b", "c"], columns)


# decades where 10**(16 - X) is not exact in 64 bits: a long-double product
# with a bound that left out the power table's own error decided each wrongly
_MISROUNDED_BY_A_NARROW_BOUND = [
    -5.736632302678879e280,
    3.1840308524721733e-211,
    1.6121981551231505e-68,
    -3.5467102090433724e-38,
    -5.4991768101597764e47,
    -7.018233560401107e39,
    1.2565321321327867e143,
    -3.3448499066819996e-298,
]


def test_integral_doubles_print_as_their_digits():
    # spectrum's level index n <= 10**6 is written as a double
    csv = b"".join(cli._csv_blocks([[np.array([1.0, 999999.0, 1e6])]], 1))
    assert csv == b"1\n999999\n1000000\n"


# values the CSV formatter hands to Python's own format
_PYTHON_FORMATTED = (0.0, -0.0, math.nan, math.inf, -math.inf, 2.0**-25)


@pytest.mark.parametrize("piece_rows", [1, 3, 1024])
def test_csv_bytes_do_not_depend_on_the_piece_size(monkeypatch, piece_rows):
    # Python-formatted values in the first and last row of every other piece,
    # in alternate columns, and formatted values in those rows of the pieces
    # between: no text from one piece shows in the next
    n_rows = 4 * piece_rows + 41
    rng = np.random.default_rng(piece_rows)
    columns = rng.integers(0, 2**64, (3, n_rows), dtype=np.uint64).view(np.float64)
    columns[1, ::2] = rng.random(len(columns[1, ::2]))  # fixed notation below 1
    for row in range(n_rows):
        piece, at = divmod(row, piece_rows)
        if at in (0, piece_rows - 1):
            columns[2 * (piece % 2), row] = _PYTHON_FORMATTED[row % 6]
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", piece_rows)
    chunks = list(cli._csv_blocks([list(columns)], 3))
    assert len(chunks) == -(-n_rows // piece_rows)
    expected = _per_value_csv(["a", "b", "c"], list(columns)).split(b"\n", 1)[1]
    assert b"".join(chunks) == expected


_ECHOED = [*_SPECIAL_FLOATS, *_PYTHON_FORMATTED, *_EDGE_FLOATS]


@pytest.mark.parametrize("n_patterns", [0, 1, 2 * _CSV_BLOCK_ROWS + 1])
def test_comma_grid_echo_is_the_per_value_format(n_patterns):
    rng = np.random.default_rng(n_patterns)
    patterns = rng.integers(0, 2**64, n_patterns, dtype=np.uint64).view(np.float64)
    for grid in [(1.5,), tuple(_ECHOED + patterns.tolist())]:
        echo = cli._format_grid(grid)
        assert echo == ",".join(["%.17g"] * len(grid)) % grid
    # and through the summary's argv, for the points a sweep accepts
    points = sorted({v for v in map(abs, grid) if 0.0 < v < math.inf})
    text = ",".join(map(repr, points))
    argv = parse_scenario(["sweep", "--K-grid", text]).to_argv()
    assert argv[argv.index("--K-grid") + 1] == ",".join("%.17g" % v for v in points)


def test_successful_run_leaves_only_its_outputs(tmp_path):
    assert main([*_DYNAMICS_20, "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["dynamics.csv", "dynamics_summary.json"]


def test_failure_after_the_csv_is_written_leaves_no_output(
    tmp_path, monkeypatch, capsys
):
    def disk_full(summary):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "summary_dict", disk_full)
    assert main([*_DYNAMICS_20, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "zpbox: error: no space left on device\n"
    assert list(tmp_path.iterdir()) == []


def test_rerun_that_fails_keeps_the_previous_outputs(tmp_path, monkeypatch):
    argv = ["thermal", "--K", "2", "--t-grid", "0:1:0.25", "--out", str(tmp_path)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fails(*args):
        raise OSError("no space left on device")
        yield

    monkeypatch.setattr(cli, "_csv_blocks", fails)
    assert main(argv) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# names a zpbox import must not load: the library needs none of them
_UNLOADED = (
    "sorted(m for m in ('scipy', 'mpmath', 'fractions', 'decimal', "
    "'multiprocessing', 'concurrent.futures', 'subprocess') if m in sys.modules)"
)
_NEEDS_PROC = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task"
)


@pytest.mark.parametrize(
    "statement, probe, expected, env",
    [
        pytest.param("import zpbox.cli", _UNLOADED, "[]", {}, id="zpbox.cli"),
        pytest.param("import zpbox", _UNLOADED, "[]", {}, id="zpbox"),
        pytest.param(
            "import zpbox; zpbox.position_expectation(7, 1.3)",
            _UNLOADED,
            "[]",
            {},
            id="position_expectation",
        ),
        pytest.param(
            "import zpbox; zpbox.minimize_oracle(2.0)",
            _UNLOADED,
            "[]",
            {},
            id="minimize_oracle",
        ),
        # numpy's OpenBLAS would start one thread per further CPU
        pytest.param(
            "import zpbox.cli",
            "len(os.listdir('/proc/self/task'))",
            "1",
            {},
            id="cli-starts-no-thread",
            marks=_NEEDS_PROC,
        ),
        pytest.param(
            "import zpbox.cli",
            "os.environ.get('OPENBLAS_NUM_THREADS')",
            "1",
            {},
            id="cli-defaults-openblas-threads",
        ),
        pytest.param(
            "import zpbox.cli",
            "os.environ.get('OPENBLAS_NUM_THREADS')",
            "2",
            {"OPENBLAS_NUM_THREADS": "2"},
            id="cli-keeps-user-openblas-threads",
        ),
        pytest.param(
            "import zpbox; zpbox.solve_equilibrium(2.0)",
            "os.environ.get('OPENBLAS_NUM_THREADS')",
            "None",
            {},
            id="library-leaves-environment",
        ),
        pytest.param(
            "import zpbox.cli",
            "zpbox.cli._csv_tables.cache_info().currsize",
            "0",
            {},
            id="cli-builds-no-csv-table",
        ),
        pytest.param(
            "import zpbox",
            "'numpy' in sys.modules",
            "False",
            {},
            id="zpbox-loads-no-numpy",
        ),
        pytest.param(
            "import zpbox; zpbox.count_nodes(7, 1.3); "
            "zpbox.position_expectation(7, 1.3); zpbox.solve_equilibrium(2.0); "
            "zpbox.minimize_oracle(2.0); zpbox.total_energy(0.1, 2.0); "
            "zpbox.energy_level(3, 1.3); zpbox.wall_force(3, 1.3)",
            "'numpy' in sys.modules",
            "False",
            {},
            id="scalar-calls-load-no-numpy",
        ),
        # the array functions import numpy themselves, in a fresh process
        pytest.param(
            "import zpbox; w = zpbox.wavefunction(2, [0.25, 0.5], 1.0); "
            "t = zpbox.level_table(3, 2.0); e = zpbox.equilibria([2.0])",
            "(w.tolist() == [zpbox.wavefunction(2, 0.25, 1.0), "
            "zpbox.wavefunction(2, 0.5, 1.0)], t['energy'].tolist(), "
            "e['ell'].tolist() == [zpbox.solve_equilibrium(2.0).ell])",
            "(True, [0.25, 1.0, 2.25], True)",
            {},
            id="array-functions-load-numpy",
        ),
        # the lazy package namespace, where no submodule is loaded yet
        pytest.param(
            "import zpbox",
            "[n for n in zpbox.__all__ if not hasattr(zpbox, n)]",
            "[]",
            {},
            id="every-public-name-resolves",
        ),
        pytest.param(
            "import zpbox",
            "set(zpbox.__all__) <= set(dir(zpbox))",
            "True",
            {},
            id="dir-lists-every-public-name",
        ),
        pytest.param(
            "from zpbox import *; import zpbox",
            "[n for n in zpbox.__all__ if n not in globals()]",
            "[]",
            {},
            id="star-import-binds-every-public-name",
        ),
        pytest.param(
            "import zpbox",
            "zpbox.dynamics.integrate is zpbox.integrate",
            "True",
            {},
            id="submodule-is-an-attribute",
        ),
        pytest.param(
            "import zpbox.cli",
            "'argparse' in sys.modules",
            "False",
            {},
            id="cli-reads-argv-without-argparse",
        ),
        # records are named tuples: no dataclasses, and so no inspect
        pytest.param(
            "import zpbox.cli",
            "'dataclasses' in sys.modules",
            "False",
            {},
            id="cli-loads-no-dataclasses",
        ),
        pytest.param(
            "import zpbox; zpbox.count_nodes(7, 1.3); "
            "zpbox.position_expectation(7, 1.3); zpbox.solve_equilibrium(2.0); "
            "zpbox.minimize_oracle(2.0); zpbox.total_energy(0.1, 2.0); "
            "zpbox.energy_level(3, 1.3); zpbox.wall_force(3, 1.3)",
            "[m for m in ('dataclasses', 'inspect') if m in sys.modules]",
            "[]",
            {},
            id="scalar-calls-load-no-dataclasses-or-inspect",
        ),
    ],
)
def test_import_leaves_scipy_and_mpmath_unloaded(statement, probe, expected, env):
    # a fresh process, with OPENBLAS_NUM_THREADS only where the case sets it
    src = str(Path(zpbox.__file__).resolve().parents[1])
    child_env = dict(os.environ)
    child_env.pop("OPENBLAS_NUM_THREADS", None)
    child_env.update(env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, child_env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import os, sys; {statement}; print({probe})"],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == expected


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'zpbox' has no attribute 'no_such'"):
        zpbox.no_such


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
            + ["0:0.29999999999999999:0.10000000000000001"]
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
            ["sweep", "--K-grid", "1:2:0.5", "--out", "runs", "--formats", "csv"],
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


def test_cli_uses_no_private_name_of_another_zpbox_module():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules = set()  # local names bound to zpbox modules
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or node.module.split(".")[0] == "zpbox"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"line {node.lineno}: imports {alias.name}")
                if node.module is None or node.module == "zpbox":  # a submodule
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "zpbox":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            private.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert modules >= {"dyn", "eq", "model", "spec", "therm"}
    assert private == []
    # the library's bounds belong to its validators and are not restated here
    bounds = [
        f"line {node.lineno}: {name}"
        for node in ast.walk(tree)
        for name in (getattr(node, "attr", None), getattr(node, "id", None))
        + (getattr(node, "name", None),)
        if name in ("MIN_SIZE", "MAX_SIZE", "MAX_LEVEL")
    ]
    assert bounds == []
    # omega = sqrt(K'/mu) and dt = 2 pi/(...) belong to dynamics.time_step,
    # and (2/dt) asin(omega dt/2) to dynamics.verlet_frequency
    restated = [
        f"line {node.lineno}: math.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "math"
        and node.attr in ("sqrt", "pi", "asin")
    ]
    assert restated == []
    # one process writes the CSV: it forks no worker and waits for none
    forks = [
        f"line {node.lineno}: os.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
        and node.attr in ("fork", "pipe", "_exit", "waitpid")
    ]
    assert forks == []


def test_a_range_never_equals_the_comma_list_of_its_numbers():
    as_range = parse_scenario(["thermal", "--K", "2", "--t-grid", "1:2:3"])
    as_list = parse_scenario(["thermal", "--K", "2", "--t-grid", "1,2,3"])
    assert as_range != as_list
    assert not as_range == as_list
    assert slice(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)
    assert (1.0, 2.0, 3.0) != slice(1.0, 2.0, 3.0)
    assert as_range.t_grid == slice(1.0, 2.0, 3.0)


def test_every_scenario_field_has_exactly_one_flag():
    from zpbox.cli import _FLAGS

    fields = [name for name in Scenario._fields if name != "command"]
    assert sorted(flag.field for flag in _FLAGS.values()) == sorted(fields)


def test_malformed_values_name_their_flag():
    with pytest.raises(UsageError, match="--K"):
        parse_scenario(["equilibrium", "--K", "abc"])
    with pytest.raises(UsageError, match="--n-periods"):
        parse_scenario(["dynamics", "--K", "2"], config_text="n-periods = 1.5\n")
    with pytest.raises(UsageError, match="--t-grid"):
        parse_scenario(["thermal", "--K", "2"], config_text="t-grid = 0:1\n")


def test_range_grid_step_count_is_bounded(tmp_path, capsys):
    grid = _parse_grid(f"0:{_MAX_RANGE_STEPS}:1")
    assert len(_grid_points(grid)) == _MAX_RANGE_STEPS + 1
    # a step below the float resolution of the values never advances them
    with pytest.raises(UsageError, match="^--t-grid must be strictly increasing$"):
        parse_scenario(["thermal", "--K", "2", "--t-grid", "1e22:1e22:1"])
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
    "text, points",
    [
        ("0:1:0.3", (0.0, 0.3, 0.6, 0.8999999999999999)),
        ("0:1:0.5", (0.0, 0.5, 1.0)),
        ("0:0.3:0.1", (0.0, 0.1, 0.2, 0.30000000000000004)),
        # stop + step/2 overflows, so the comparison is made at half scale
        ("5e307:1.7e308:1e308", (5e307, 1.5e308)),
        ("0:1.7e308:1.7e308", (0.0, 1.7e308)),
    ],
)
def test_range_grid_is_kept_as_a_range_and_echoed_as_one(text, points):
    grid = _parse_grid(text)
    assert tuple(_grid_points(grid)) == points
    if math.isfinite(grid.stop + 0.5 * grid.step):
        assert range_grid_loop(grid.start, grid.stop, grid.step) == points
    echo = cli._format_grid(grid)
    assert echo.count(":") == 2 and _parse_grid(echo) == grid


@pytest.mark.parametrize("text", ["0:50:0.3", "1:1000000.6:1", "0:11:3"])
def test_range_grid_is_built_in_one_pass(monkeypatch, text):
    # (stop - start)/step has a fractional part of 1/2 or more, so a first
    # pass one point longer than its whole part would keep every point
    arange, lengths = np.arange, []

    def spy(n, *args, **kwargs):
        lengths.append(n)
        return arange(n, *args, **kwargs)

    grid = _parse_grid(text)
    monkeypatch.setattr(np, "arange", spy)
    points = _grid_points(grid)
    assert len(lengths) == 1
    assert points[-1] <= grid.stop + 0.5 * grid.step < points[-1] + grid.step


def test_range_grid_past_the_float_range_is_a_usage_error(tmp_path, capsys):
    # 1e308 + 1e308 lies within half a step of 1.7e308, but is no float
    out = tmp_path / "never"
    assert main(["sweep", "--K-grid", "1e308:1.7e308:1e308", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "zpbox: error: --K-grid must be finite and > 0, got inf\n"
    assert not out.exists()
    assert main(["sweep", "--K-grid", "5e307:1.7e308:1e308", "--out", str(out)]) == 0
    data = json.loads((out / "sweep_summary.json").read_text())
    assert (data["n_points"], data["K_min"], data["K_max"]) == (2, 5e307, 1.5e308)


@pytest.mark.parametrize(
    "argv, message",
    [
        # stop - start overflows: 3.4 steps, so check_grid names the start
        (
            ["thermal", "--K", "1", "--t-grid", "-1.7e308:1.7e308:1e308"],
            "--t-grid must be finite and >= 0, got -1.7e+308",
        ),
        (
            ["sweep", "--K-grid", "-1.7e308:1.7e308:1e308"],
            "--K-grid must be finite and > 0, got -1.7e+308",
        ),
        (
            ["thermal", "--K", "1", "--t-grid", "-1.7e308:1.7e308:1e300"],
            "--t-grid: grid '-1.7e308:1.7e308:1e300' spans more than 1000000 steps",
        ),
    ],
)
def test_range_grid_whose_span_overflows_is_counted_at_half_scale(
    tmp_path, capsys, argv, message
):
    out = tmp_path / "never"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"zpbox: error: {message}\n")
    assert not out.exists()


def test_range_grid_parse_and_echo_hold_no_point_as_a_python_object():
    # measured peak 17.2 MiB: the 10**6 points as a float64 array and
    # check_grid's copy of it, 8 B a point each.  A Python float takes 24 B,
    # so 10**6 of them alone would take 22.9 MiB, and the scenario would
    # still hold them (current)
    argv = ["sweep", "--K-grid", f"1:{_MAX_RANGE_STEPS + 1}:1"]
    tracemalloc.start()
    try:
        echo = parse_scenario(argv).to_argv()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert echo[:3] == ["sweep", "--K-grid", "1:1000001:1"]
    assert current < 2**20
    assert peak < 20 * 2**20


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
        # checked by a library validator, whose message leads with the flag
        ["spectrum", "--ell", "-1"],
        ["spectrum", "--n-max", "1000001"],
        ["dynamics", "--K", "2", "--mu", "-5"],
        ["thermal", "--K", "2", "--t-grid", "-1,0,1"],
        ["sweep", "--K-grid", "0,1"],
        ["sweep", "--K-grid", "-2,1"],
        ["dynamics", "--K", "2", "--mu", "-1e-3"],
        # the time step, found as the run computes: K'/mu overflows
        ["dynamics", "--mu", "1e-320", "--K", "2"],
        # omega dt = 2 pi/dt_factor at or past Verlet's stability limit of 2
        ["dynamics", "--K", "2", "--dt-factor", "2"],
        ["dynamics", "--K", "2", "--dt-factor", "3"],
        ["dynamics", "--K", "2", "--dt-factor", "3.14159"],
        ["dynamics", "--particle-mass", "9.1e-31", "--box-size", "1e-9"]
        + ["--spring-stiffness", "0.06", "--dt-factor", "3"],
    ],
)
def test_out_of_range_system_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("zpbox: error: ") and err.count("\n") == 1
    assert not out.exists()
    flag, value = argv[-2:]
    if flag in ("--ell", "--n-max", "--mu", "--t-grid", "--K-grid"):
        assert err.startswith(f"zpbox: error: {flag} must ")
        got = float(err.rsplit(", got ", 1)[1])  # the rejected value
        assert got in [float(v) for v in value.split(",")]
    if flag == "--dt-factor":  # the time step, led by the mass flags
        assert f" with --dt-factor {float(value)!r} gives " in err
    if "--wall-mass" in argv:  # names the SI flags given, not --mu
        assert "--wall-mass 1.8718912450931243e+120 and --particle-mass 1.0" in err
        assert "--dt-factor 10.0" in err and "--mu" not in err


@pytest.mark.parametrize(
    "flag",
    ["--K", "--particle-mass", "--box-size", "--spring-stiffness", "--wall-mass"],
)
@pytest.mark.parametrize("value", ["-2e0", "0"])
def test_every_system_flag_is_named_in_its_own_error(tmp_path, capsys, flag, value):
    argv = ["equilibrium", "--K", "2"] if flag == "--K" else ["equilibrium", *_SI_FLAGS]
    argv[argv.index(flag) + 1] = value
    assert main([*argv, "--out", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    got = float(value)
    assert err == f"zpbox: error: {flag} must be positive and finite, got {got!r}\n"


@pytest.mark.parametrize("dt_factor", ["3.5", "6"])
def test_omega_verlet_is_the_frequency_a_coarse_step_measures(tmp_path, dt_factor):
    argv = ["dynamics", "--K", "2", "--dt-factor", dt_factor, "--n-periods", "100"]
    assert main([*argv, "--formats", "json", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "dynamics_summary.json").read_text())
    assert abs(data["measured_omega"] / data["omega_verlet"] - 1.0) < 2e-3


def _message(rule, *args, **kwargs) -> str:
    """The message of the ValidationError that a library rule raises."""
    with pytest.raises(ValidationError) as info:
        rule(*args, **kwargs)
    return str(info.value)


_FLOAT_BASES = {
    "spectrum": ["spectrum", "--ell", "1"],
    "equilibrium": ["equilibrium", "--K", "2"],
    "equilibrium SI": ["equilibrium", *_SI_FLAGS],
    "thermal": ["thermal", "--K", "2", "--t-grid", "0,1"],
    "thermal SI": ["thermal", *_SI_FLAGS, "--t-grid", "0,1"],
    "dynamics": ["dynamics", "--K", "2", "--mu", "1000"]
    + ["--y0-frac", "1e-4", "--dt-factor", "1000"],
    "dynamics SI": ["dynamics", *_SI_FLAGS],
    "sweep": ["sweep", "--K-grid", "1,2"],
}
# (base, flag): every float flag of every command; a grid's value is "1,<v>"
_FLOAT_FLAGS = [
    (base, flag) for base, argv in _FLOAT_BASES.items() for flag in argv[1::2]
]
# a flag's rule, as its message for the value v when named by the flag;
# --K, --mu and the SI flags go to check_positive
_RULES = {
    "--ell": lambda v: _message(zpbox.check_size, v, "--ell"),
    "--t-grid": lambda v: _message(zpbox.check_grid, [1.0, v], "--t-grid"),
    "--K-grid": lambda v: _message(
        zpbox.check_grid, [1.0, v], "--K-grid", positive=True
    ),
    "--y0-frac": lambda v: "--y0-frac must lie in [0, 1)",
    "--dt-factor": lambda v: "--n-periods times --dt-factor must be finite",
}


@pytest.mark.parametrize(
    "base, flag", _FLOAT_FLAGS, ids=[f"{b} {f}" for b, f in _FLOAT_FLAGS]
)
def test_a_float_flag_that_is_not_finite_gets_the_message_of_its_rule(
    tmp_path, capsys, base, flag
):
    # each was "--<flag>: number '<text>' must be finite"
    rule = _RULES.get(flag, lambda v: _message(zpbox.check_positive, v, flag))
    wrong = []
    for text in ("inf", "-inf", "nan", "2e400"):
        argv = list(_FLOAT_BASES[base])
        argv[argv.index(flag) + 1] = f"1,{text}" if flag.endswith("-grid") else text
        code = main([*argv, "--out", str(tmp_path / "never")])
        expected = f"zpbox: error: {rule(float(text))}\n"
        if (code, *capsys.readouterr()) != (2, "", expected):
            wrong.append(text)
    assert wrong == []
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("text", ["1e400", "inf", "-inf", "nan"])
def test_a_range_part_that_is_not_finite_is_one_error_line(
    tmp_path, capsys, position, text
):
    # each was "--<flag>: number '<text>' must be finite"; start <= stop alone
    # passes -inf:-inf:1, whose step count (stop - start)/step is nan
    parts = ["1", "2", "0.5"]
    parts[position] = text
    grid = ":".join(parts)
    for argv in (["thermal", "--K", "2"], ["sweep"]):
        flag = "--t-grid" if argv[0] == "thermal" else "--K-grid"
        argv = [*argv, flag, grid]
        assert main([*argv, "--out", str(tmp_path / "never")]) == 2
        message = f"{flag}: grid start, stop and step must be finite in {grid!r}"
        assert capsys.readouterr() == ("", f"zpbox: error: {message}\n")
    assert not (tmp_path / "never").exists()
