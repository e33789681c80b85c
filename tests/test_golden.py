"""Golden output bytes: ``bounds``, ``simulate`` and ``verify`` through
``stabilab.cli.main`` must write exactly the files stored under
``tests/golden/<name>/``.

Each directory holds one ``config.json`` (the three benchmark workloads at
benchmark seed 1, from ``bench/workloads.config(name, 1)``, and the README
config), the four output files and ``exit_codes.json``.  A change that
alters output on purpose rewrites the golden files in its own diff, and
says why:

    PYTHONPATH=src python tests/test_golden.py --write

The goldens were written on an AVX-512 Xeon with numpy 2.4.6; numpy's SIMD
transcendentals round differently on other CPUs, so a mismatch on another
host is a finding about that host, not a reason for a tolerance.

The thread count must not change a byte: certify-grid's pipeline, run in
two fresh interpreters with ``OPENBLAS_NUM_THREADS=1`` and ``=2``, writes
the same four files.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stabilab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("bounds", "simulate", "verify")
OUTPUTS = ("bounds.json", "estimates.csv", "run_summary.json",
           "certificates.jsonl")
NAMES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


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
                        + first_difference(want, got), pytrace=False)


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
