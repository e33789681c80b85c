"""Golden output bytes: ``bounds``, ``simulate`` and ``verify`` through
``stabilab.cli.main`` must write exactly the files stored under
``tests/golden/<name>/``.

Each directory holds one ``config.json`` (the three benchmark workloads at
benchmark seed 1, from ``bench/workloads.config(name, 1)``, and the README
config), the four output files and ``exit_codes.json``.  A change that
alters output on purpose rewrites the golden files in its own diff, and
says why:

    PYTHONPATH=src python tests/test_golden.py --write

The goldens were written on an AVX-512 Xeon with numpy 2.4.6, whose
bundled OpenBLAS runs its ``SkylakeX`` kernels there.  The BLAS kernel
changes bytes: under ``OPENBLAS_CORETYPE=Haswell`` (an AVX2 host's kernels)
deep-noisy's and wide-quadratic's goldens differ in last digits, and under
``Sandybridge`` certify-grid's as well.  The thread count does not: certify-grid's pipeline, run in two fresh
interpreters with ``OPENBLAS_NUM_THREADS=1`` and ``=2``, writes the same
four files.  A mismatch names the core this host uses; on another core it
is a finding about that host, not a reason for a tolerance.
"""

import contextlib
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stabilab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("bounds", "simulate", "verify")
OUTPUTS = ("bounds.json", "estimates.csv", "run_summary.json",
           "certificates.jsonl")
NAMES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
GOLDEN_CORE = "SkylakeX"     # the OpenBLAS core the goldens were written on


def blas_core() -> str:
    """The core whose kernels numpy's bundled OpenBLAS runs in this
    process, or "unknown" where it cannot be read."""
    try:
        library, = (Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")
        corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
    except (ValueError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def host_note() -> str:
    return (f"goldens written under OpenBLAS core {GOLDEN_CORE}, "
            f"this host uses {blas_core()}")


def run_pipeline(config: Path, out: Path) -> dict:
    """Exit code of each command, run in order into ``out``."""
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for command in COMMANDS:
            codes[command] = cli.main(
                [command, "--config", str(config), "--out", str(out)])
    return codes


def first_difference(want: bytes, got: bytes,
                     names=("golden", "got")) -> str:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    width = max(map(len, names)) + 1
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if w != g:
            return (f"line {i}:\n  {names[0] + ':':{width}} {w!r}\n"
                    f"  {names[1] + ':':{width}} {g!r}")
    return (f"line {min(len(want_lines), len(got_lines)) + 1}: {names[0]} "
            f"has {len(want_lines)} lines, {names[1]} {len(got_lines)}")


def test_every_workload_has_a_golden():
    assert NAMES == ["certify-grid", "deep-noisy", "readme",
                     "wide-quadratic"]


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_golden(tmp_path, name):
    golden = GOLDEN / name
    codes = run_pipeline(golden / "config.json", tmp_path)
    assert codes == json.loads((golden / "exit_codes.json").read_text())
    for output in OUTPUTS:
        want = (golden / output).read_bytes()
        got = (tmp_path / output).read_bytes()
        if got != want:
            pytest.fail(f"{name}/{output} differs from the golden at "
                        + first_difference(want, got) + f" ({host_note()})",
                        pytrace=False)


def test_blas_core_names_the_kernels_in_use():
    core = blas_core()
    if core == "unknown" or platform.machine() != "x86_64":
        pytest.skip("no x86-64 OpenBLAS bundled with numpy here")
    # OPENBLAS_CORETYPE picks another core's kernels when numpy loads
    code = "from test_golden import blas_core\nprint(blas_core())"
    path = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Nehalem")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "Nehalem"
    assert host_note() == ("goldens written under OpenBLAS core SkylakeX, "
                           f"this host uses {core}")


def test_thread_count_changes_no_byte(tmp_path):
    # run_pipeline in two fresh interpreters: OpenBLAS reads its thread
    # count when numpy loads
    code = ("import json, sys\nfrom pathlib import Path\n"
            "from test_golden import run_pipeline\n"
            "print(json.dumps(run_pipeline(*map(Path, sys.argv[1:]))))")
    config = GOLDEN / "certify-grid" / "config.json"
    path = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    settings = ("OPENBLAS_NUM_THREADS=1", "OPENBLAS_NUM_THREADS=2")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", code, str(config),
                              str(out)], env=env, capture_output=True,
                             text=True, check=True)
        runs.append((json.loads(run.stdout),
                     [(out / output).read_bytes() for output in OUTPUTS]))
    (codes_one, files_one), (codes_two, files_two) = runs
    assert codes_one == codes_two, settings
    for output, one, two in zip(OUTPUTS, files_one, files_two):
        if one != two:
            pytest.fail(f"certify-grid/{output} differs between "
                        f"{settings[0]} and {settings[1]} at "
                        + first_difference(one, two, settings),
                        pytrace=False)


def write_goldens() -> None:
    for name in NAMES:
        golden = GOLDEN / name
        codes = run_pipeline(golden / "config.json", golden)
        (golden / "exit_codes.json").write_text(
            json.dumps(codes, indent=2) + "\n")
        print(f"{name}: {codes}")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    write_goldens()
