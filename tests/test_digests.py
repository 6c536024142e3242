"""Output bytes pinned by committed digests, and the same bytes on other
floating-point code paths of the host.

``digests.json`` maps each argv of a standard set, run with ``--out .`` in
an empty directory, to the sha256 of every file it writes.  A change that
moves output bytes updates the table in its own diff and says why; the
failing assertion shows the new digests.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zpbox
from zpbox.cli import main

_TABLE = Path(__file__).with_name("digests.json")


def _digests(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("argv", list(json.loads(_TABLE.read_text())))
def test_outputs_match_the_committed_digests(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*argv.split(), "--out", "."]) == 0
    assert _digests(tmp_path) == json.loads(_TABLE.read_text())[argv]


# environment switches of a child process: glibc's libm without its FMA and
# AVX2 variants, and numpy's loops without AVX-512
_SWITCHES = {
    "default": {},
    "glibc": {
        "GLIBC_TUNABLES": "glibc.cpu.hwcaps="
        "-AVX2,-FMA,-AVX2_Usable,-FMA_Usable,-AVX512F"
    },
    "numpy": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


@pytest.mark.parametrize(
    "argv",
    [
        "dynamics --K 37.3 --n-periods 300",
        "sweep --K-grid 5e-324,1e-300,1e-100,1,1e100,1.7976931348623157e308",
    ],
)
def test_outputs_do_not_depend_on_the_hosts_code_paths(argv, tmp_path):
    """Each switch changes the last bit of libm's pow (FMA) or numpy's exp
    (AVX-512) on a host that has those features; the outputs must not move.
    On a host without them, each switch changes nothing, and the test passes
    without showing anything.  Thermal is left out: its Boltzmann weights use
    numpy's exp, whose AVX-512 path still moves its bytes."""
    src = str(Path(zpbox.__file__).resolve().parents[1])
    digests = {}
    for name, switch in _SWITCHES.items():
        env = dict(os.environ, **switch)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / name
        out.mkdir()
        subprocess.run(
            [sys.executable, "-m", "zpbox.cli", *argv.split(), "--out", "."],
            cwd=out,
            env=env,
            capture_output=True,
            timeout=120,
            check=True,
        )
        digests[name] = _digests(out)
    assert digests["glibc"] == digests["default"]
    assert digests["numpy"] == digests["default"]

