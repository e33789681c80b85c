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
"""

import contextlib
import io
import json
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


def first_difference(want: bytes, got: bytes) -> str:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if w != g:
            return f"line {i}:\n  golden: {w!r}\n  got:    {g!r}"
    return (f"line {min(len(want_lines), len(got_lines)) + 1}: golden has "
            f"{len(want_lines)} lines, got {len(got_lines)}")


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


def write_goldens() -> None:
    for name in NAMES:
        golden = GOLDEN / name
        codes = run_pipeline(golden / "config.json", golden)
        (golden / "exit_codes.json").write_text(
            json.dumps(codes, indent=2) + "\n")
        print(f"{name}: {codes}")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    write_goldens()
