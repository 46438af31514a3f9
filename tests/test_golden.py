"""The fast goldens in tests/golden/, regenerated in process and compared byte for byte.

`tools/check_golden.py` holds the table of goldens, their generators and
the one comparison rule; this test runs its three fast files:

- density_tiny.txt: `tools/density_values.py --tiny` (seed 12, 48 lines);
- paths_tiny.txt: `tools/path_values.py --tiny` (seed 13, 48 lines);
- reports.jsonl: the 12 `verify --suite all` reports that run no
  simulation, with wall_time_s stripped and the keys sorted as
  `tools/compare_reports.py` writes them.

Line 1 of each file names the numpy version and BLAS build it was made
with.  The full dumps and the Monte Carlo reports stay a tool run:
`python tools/check_golden.py`.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
if str(TOOLS) not in sys.path:  # the generators import the tools by name
    sys.path.insert(0, str(TOOLS))

import check_golden  # noqa: E402


@pytest.mark.parametrize("name", check_golden.FAST)
def test_golden_keeps_its_bytes(name, tmp_path):
    problem = check_golden.difference(name, tmp_path)
    if problem:
        pytest.fail(problem)
