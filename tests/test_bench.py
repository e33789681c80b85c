"""Smoke test of the benchmark in ``bench/``.

The benchmark reads the package through its public names: the replicas of
``run_ensemble``'s result, the module functions its tracer wraps, the config
builders of ``harness``.  One short traced run fails here when a change to
``src/`` breaks what the benchmark uses.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_certify_grid_run_is_correct():
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "certify-grid", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    # the harness calls the estimators through the module, where the
    # tracer's wrappers sit
    assert result["metrics"]["transport.coupled_upper_bound.s"]["value"] > 0
