"""The goldens in tests/golden/, regenerated in process and compared byte for byte.

Three files hold the cheap part of the repository's byte record:

- density_tiny.txt: `tools/density_values.py --tiny` (seed 12, 48 lines);
- paths_tiny.txt: `tools/path_values.py --tiny` (seed 13, 48 lines);
- reports.jsonl: the 12 `verify --suite all` reports that run no
  simulation, with wall_time_s stripped and the keys sorted as
  `tools/compare_reports.py` writes them.

Line 1 of each file names the numpy version it was made with.  A change
that moves bytes on purpose writes the new files and lists what moved in
CHANGES.md; the full dumps and the Monte Carlo reports stay a tool run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
TOOLS = ROOT / "tools"

#: the verify suites whose reports run no simulation, in `run_suite("all")` order
NON_MC_SUITES = ("equivalence", "oddcancel", "exponent", "prefactor", "gegenbauer",
                 "kernels", "controls")


def _density_tiny(tmp_path: Path) -> list[str]:
    import density_values
    return list(density_values.lines(12, tiny=True))


def _paths_tiny(tmp_path: Path) -> list[str]:
    import path_values
    return list(path_values.lines(13, tiny=True))


def _reports(tmp_path: Path) -> list[str]:
    import compare_reports
    from spherewf import harness
    reports = [report for key in NON_MC_SUITES
               for report in harness.SUITES[key](harness.DEFAULT_SEED, 1, None)]
    path = tmp_path / "reports.jsonl"
    harness.write_reports_jsonl(reports, path)
    return compare_reports._stripped_lines(str(path))


#: file name -> its lines below line 1, made from the spherewf on sys.path
GOLDENS = {"density_tiny.txt": _density_tiny, "paths_tiny.txt": _paths_tiny,
           "reports.jsonl": _reports}


def golden_body(name: str, tmp_path: Path) -> str:
    """Golden `name` below its numpy line, made from the spherewf on sys.path
    (tools/ must be on it too)."""
    return "".join(f"{line}\n" for line in GOLDENS[name](tmp_path))


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_keeps_its_bytes(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    header, want = (GOLDEN / name).read_text(encoding="utf-8").split("\n", 1)
    got = golden_body(name, tmp_path)
    if got == want:
        return
    versions = f"golden made with {header[2:]}, this run with numpy {np.__version__}"
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for number, (a, b) in enumerate(zip(want_lines, got_lines), 2):  # line 1 names numpy
        if a != b:
            pytest.fail(f"{name}:{number} differs ({versions}):\n  golden: {a}\n  now:    {b}")
    pytest.fail(f"{name} has {len(want_lines)} lines below line 1, this run "
                f"{len(got_lines)} ({versions})")
