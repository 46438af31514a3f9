"""Compare two `spherewf verify --output` report files, wall times aside.

    python tools/compare_reports.py A.jsonl B.jsonl

Each line of a report file is one VerificationReport as sorted-key JSON,
and wall_time_s is the only field that varies between runs of the same
code.  The tool drops wall_time_s from every line, writes what remains
back as sorted-key JSON and compares the two files line by line as text,
so two reports agree only when every other value has the same bytes.
It prints each line that differs and exits 0 when the files agree, 1 on
any difference (a different number of lines too) and 2 when a file
cannot be read or holds a line that is not a JSON object.
"""

from __future__ import annotations

import json
import sys


def _stripped_lines(path: str) -> list[str]:
    """The lines of a report file without wall_time_s (ValueError, OSError)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: not a JSON object")
            record.pop("wall_time_s", None)
            out.append(json.dumps(record, sort_keys=True))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_reports.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    try:
        a, b = (_stripped_lines(path) for path in argv)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    differ = 0
    for number, (line_a, line_b) in enumerate(zip(a, b), 1):
        if line_a != line_b:
            differ += 1
            print(f"line {number} differs:\n  {argv[0]}: {line_a}\n  {argv[1]}: {line_b}")
    if len(a) != len(b):
        differ += 1
        print(f"{argv[0]} has {len(a)} lines, {argv[1]} has {len(b)}")
    if differ:
        return 1
    print(f"{len(a)} reports agree (wall_time_s aside)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
