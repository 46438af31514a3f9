"""Write the repr of every DensityValue on a fixed seeded grid, one per line.

    python tools/density_values.py OUT [--seed N] [--tiny] [--src DIR]

The grid covers both simplex kernels: `griffiths_density` at eps 1/3,
1/2 and 1.7, and `pushforward_density` at D = 1/8, for k = 2..8 and
t = 0.02..5, at seeded pairs whose smallest coordinate is 1e-3, 0.02 or
0.1.  The full grid ends with pushforward lines at its edges, at every
t: x = x' at the centroid for k = 3..8, where sign vectors give dots of
exactly 0 (even k) and of +-1 to an ulp, and one k = 10 pair per floor
(the 0.1 floor leaves only the centroid there), whose 2^9 sign vectors
with s_1 = +1 are too many for the series' float path, and then with
Griffiths lines at t = 0.05 and 0.5, one seeded pair each (smallest
coordinate 0.02): eps 1/3 and 1/2 at k = 9, 11, 12 and 14, on both
sides of the k limit of the eps = 1/2 half-sign sums, and eps = 1e-9
(k = 8) and 50 (k = 5), far from 1/2 on either side.  Each line names
its query and then gives the value's repr, which spells every float to
the last bit, so the files of two source trees agree under `diff` only
when every value has the same bytes:

    python tools/density_values.py a.txt --src ../parent/src
    python tools/density_values.py b.txt
    diff a.txt b.txt

--src picks the source tree whose `spherewf` is imported (default: the
`src` next to this tool).  --tiny writes a small grid (k 2-3, two t,
one pair per floor) for smoke tests.  Exit codes: 0 when the file is
written, 2 on a usage error, an unwritable OUT or a --src without
spherewf; an evaluation that raises ends the run with its traceback
(exit 1).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

EPSILONS = (1.0 / 3.0, 0.5, 1.7)
TIMES = (0.02, 0.05, 0.1, 0.3, 1.0, 5.0)
MIN_COORDS = (1e-3, 0.02, 0.1)
PAIRS = 3
D = 0.125


def _parse(argv, description: str, seed: int):
    p = argparse.ArgumentParser(description=description)
    p.add_argument("out", help="file to write")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--tiny", action="store_true", help="small grid for smoke tests")
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                   help="source tree to import spherewf from")
    return p.parse_args(argv)


def _pairs(rng, k, min_coord, n):
    """n seeded (x, x') pairs whose first coordinates sit at min_coord."""
    def point():
        w = rng.dirichlet(np.ones(k))
        w[0] = 0.0
        return min_coord + (1.0 - k * min_coord) * w / w.sum()

    return [(point(), point()) for _ in range(n)]


def lines(seed: int, tiny: bool):
    """Yield one 'query: repr' line per evaluation of the grid."""
    from spherewf.types import SimplexPoint
    from spherewf.wf_density import (GriffithsQuery, PushforwardQuery, griffiths_density,
                                     pushforward_density)

    rng = np.random.default_rng(seed)
    ks, times, pairs = ((2, 3), (0.05, 0.5), 1) if tiny else (range(2, 9), TIMES, PAIRS)
    for k in ks:
        grid = [(m, i, *pair) for m in MIN_COORDS
                for i, pair in enumerate(_pairs(rng, k, m, pairs))]
        for t in times:
            for m, i, x, xp in grid:
                a, b = SimplexPoint(x), SimplexPoint(xp)
                where = f"k={k} t={t!r} min={m!r} pair={i}"
                for eps in EPSILONS:
                    value = griffiths_density(GriffithsQuery(a, b, t, eps))
                    yield f"griffiths {where} eps={eps!r}: {value!r}"
                value = pushforward_density(PushforwardQuery(a, b, t, D))
                yield f"pushforward {where} D={D!r}: {value!r}"
    if tiny:
        return
    centroids = [(k, SimplexPoint(np.full(k, 1.0 / k))) for k in range(3, 9)]
    edges = [(f"k={k} centroid", c, c) for k, c in centroids]
    edges += [(f"k=10 min={m!r} pair=0", SimplexPoint(x), SimplexPoint(xp))
              for m in MIN_COORDS for x, xp in _pairs(rng, 10, m, 1)]
    for where, a, b in edges:
        for t in times:
            value = pushforward_density(PushforwardQuery(a, b, t, D))
            yield f"pushforward {where} t={t!r} D={D!r}: {value!r}"
    wide = [(k, eps) for k in (9, 11, 12, 14) for eps in EPSILONS[:2]] + [(8, 1e-9), (5, 50.0)]
    for k, eps in wide:
        a, b = (SimplexPoint(p) for p in _pairs(rng, k, 0.02, 1)[0])
        for t in (0.05, 0.5):
            value = griffiths_density(GriffithsQuery(a, b, t, eps))
            yield f"griffiths k={k} t={t!r} min=0.02 pair=0 eps={eps!r}: {value!r}"


def dump(argv: list[str], lines, description: str, seed: int) -> int:
    """Write lines(seed, tiny) to OUT, one per line, with spherewf imported
    from --src; the command line and exit codes of the module docstring."""
    args = _parse(argv, description, seed)
    if not (Path(args.src) / "spherewf" / "__init__.py").is_file():
        print(f"error: no spherewf package under {args.src}", file=sys.stderr)
        return 2
    sys.path.insert(0, args.src)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            for line in lines(args.seed, args.tiny):
                fh.write(line + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str]) -> int:
    return dump(argv, lines, "dump DensityValue reprs on a fixed grid", 12)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
