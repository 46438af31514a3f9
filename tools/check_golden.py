"""Check the goldens in tests/golden/ against the spherewf next to this tool.

    python tools/check_golden.py [--update] [NAME ...]

tests/golden/ holds the repository's byte record, one file per generator
of GOLDENS:

- density_tiny.txt and density.txt: `tools/density_values.py` (seed 12)
  with --tiny (48 lines) and in full (1,586 lines);
- paths_tiny.txt and paths.txt: `tools/path_values.py` (seed 13) with
  --tiny (48 lines) and in full (448 lines);
- reports.jsonl: the 12 `verify --suite all` reports that run no
  simulation; reports_mc.jsonl: the 6 that do, on 2 workers as
  `verify --threads 2` runs them.

Both report files drop wall_time_s and sort their keys as
`tools/compare_reports.py` does, so a NaN equals itself.  Line 1 of each
file names the numpy version and the BLAS build it was made with (the
batched matmuls depend on how the BLAS kernels order a sum); below it,
every line must keep its bytes.  A change that moves bytes on purpose
rewrites the files with --update and lists what moved in CHANGES.md.

Each NAME checks (or rewrites) one file; the default is every file, about
75 s on 2 cores.  Tier-1 (`tests/test_golden.py`) checks the FAST files
from the same table in about 2.5 s.  Exit codes: 0 when every checked file
keeps its bytes (or --update wrote them), 1 when one differs, after
printing its first differing line and both builds, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

#: the verify suites whose reports run no simulation, in `run_suite("all")` order
NON_MC_SUITES = ("equivalence", "degrees", "exponent", "prefactor", "gegenbauer",
                 "kernels", "controls")
#: the suites that simulate, in the same order
MC_SUITES = ("mc", "isotropy", "conservation", "moran", "stationary")


def _density(tiny: bool):
    def lines(tmp: Path) -> list[str]:
        import density_values
        return list(density_values.lines(12, tiny=tiny))
    return lines


def _paths(tiny: bool):
    def lines(tmp: Path) -> list[str]:
        import path_values
        return list(path_values.lines(13, tiny=tiny))
    return lines


def _reports(suites: tuple, workers: int):
    def lines(tmp: Path) -> list[str]:
        import compare_reports
        from spherewf import harness
        reports = [report for key in suites
                   for report in harness.SUITES[key](harness.DEFAULT_SEED, workers, None)]
        path = tmp / "reports.jsonl"
        harness.write_reports_jsonl(reports, path)
        return compare_reports._stripped_lines(str(path))
    return lines


#: file name -> its lines below line 1, made from the spherewf on sys.path
#: in a scratch directory
GOLDENS = {
    "density_tiny.txt": _density(tiny=True),
    "paths_tiny.txt": _paths(tiny=True),
    "reports.jsonl": _reports(NON_MC_SUITES, workers=1),
    "density.txt": _density(tiny=False),
    "paths.txt": _paths(tiny=False),
    "reports_mc.jsonl": _reports(MC_SUITES, workers=2),
}
#: the goldens Tier-1 checks
FAST = ("density_tiny.txt", "paths_tiny.txt", "reports.jsonl")


def build() -> str:
    """The numpy version and BLAS build of this run, as line 1 names them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = " ".join(blas.get("openblas configuration", "").split())
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} ({config})"


def _body(name: str, tmp: Path) -> str:
    return "".join(f"{line}\n" for line in GOLDENS[name](tmp))


def difference(name: str, tmp: Path) -> str | None:
    """None when golden `name` keeps its bytes below line 1, else a message
    naming its first differing line (or the line counts) and both builds."""
    header, want = (GOLDEN / name).read_text(encoding="utf-8").split("\n", 1)
    got = _body(name, tmp)
    if got == want:
        return None
    builds = f"golden made with {header[2:]}\n  this run with    {build()}"
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for number, (a, b) in enumerate(zip(want_lines, got_lines), 2):  # line 1 names the build
        if a != b:
            return f"{name}:{number} differs:\n  golden: {a}\n  now:    {b}\n  {builds}"
    return (f"{name} has {len(want_lines)} lines below line 1, this run "
            f"{len(got_lines)}\n  {builds}")


def update(name: str, tmp: Path) -> None:
    """Rewrite golden `name` from this run."""
    (GOLDEN / name).write_text(f"# {build()}\n{_body(name, tmp)}", encoding="utf-8")


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="check (or rewrite) the goldens in tests/golden/")
    p.add_argument("names", nargs="*", metavar="NAME",
                   help=f"goldens to check (default: all of {', '.join(GOLDENS)})")
    p.add_argument("--update", action="store_true", help="rewrite the files from this run")
    args = p.parse_args(argv)
    unknown = [name for name in args.names if name not in GOLDENS]
    if unknown:
        p.error(f"unknown golden {unknown[0]!r}; choose from {', '.join(GOLDENS)}")
    failed = 0
    for name in args.names or GOLDENS:
        with tempfile.TemporaryDirectory() as tmp:
            if args.update:
                update(name, Path(tmp))
                print(f"{name}: written")
                continue
            problem = difference(name, Path(tmp))
        print(problem or f"{name}: keeps its bytes")
        failed += problem is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
