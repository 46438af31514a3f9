"""The benchmark's contract with the package, run at its tiny size.

`perfbench/workloads.py` splits its traced Griffiths spans by
`DensityValue.mode` and divides each share by its count, so a density
run must keep reporting both modes.  This runs one traced `density`
workload (a few seconds) and checks that it ends cleanly with both figures.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_traced_density_run_reports_both_griffiths_modes():
    done = subprocess.run([sys.executable, str(RUN), "--workload", "density", "--seed", "7",
                           "--seconds", "1", "--trace", "1", "--tiny"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    for name in ("wf_density.griffiths_direct_us", "wf_density.griffiths_resummed_ms"):
        assert math.isfinite(result["metrics"][name]["value"]), (name, result["metrics"].get(name))
