import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

COMPARE = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


def _report(name, statistic, wall_time_s, **stats):
    return json.dumps({"name": name, "params": {"k": 3}, "passed": True, "statistic": statistic,
                       "threshold": 0.01, "stats": stats, "wall_time_s": wall_time_s},
                      sort_keys=True)


def _compare(tmp_path, a_lines, b_lines):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(line + "\n" for line in a_lines))
    b.write_text("".join(line + "\n" for line in b_lines))
    return subprocess.run([sys.executable, str(COMPARE), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


BASE = [_report("exponent", 0.125, 1.5), _report("moran", 2.5e-3, 0.25, replicates=40)]


def test_reports_that_differ_only_in_wall_time_agree(tmp_path):
    other = [_report("exponent", 0.125, 9.0), _report("moran", 2.5e-3, 3.0, replicates=40)]
    result = _compare(tmp_path, BASE, other)
    assert result.returncode == 0, result.stdout
    assert "2 reports agree" in result.stdout


@pytest.mark.parametrize("other, where", [
    ([BASE[0], _report("moran", 2.5000000000000005e-3, 0.25, replicates=40)], "line 2"),
    ([BASE[0], _report("moran", 2.5e-3, 0.25, replicates=41)], "line 2"),
    ([_report("exponent", float("nan"), 1.5), BASE[1]], "line 1"),
    (BASE[:1], "has 2 lines"),
], ids=["last-bit", "stats", "nan", "line-count"])
def test_any_other_difference_exits_1(tmp_path, other, where):
    result = _compare(tmp_path, BASE, other)
    assert result.returncode == 1
    assert where in result.stdout
    # NaN statistics compare as text, so a NaN agrees with itself
    assert _compare(tmp_path, other, other).returncode == 0


def test_unreadable_input_exits_2(tmp_path):
    assert _compare(tmp_path, BASE, ["{not json"]).returncode == 2
    assert _compare(tmp_path, BASE, ["[1, 2]"]).returncode == 2
    result = subprocess.run([sys.executable, str(COMPARE), str(tmp_path / "missing.jsonl")],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2


DUMP = Path(__file__).resolve().parents[1] / "tools" / "density_values.py"


def _dump(*args):
    return subprocess.run([sys.executable, str(DUMP), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_density_dump_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert _dump(a, "--tiny").returncode == 0
    assert _dump(b, "--tiny").returncode == 0
    lines = a.read_text().splitlines()
    assert a.read_bytes() == b.read_bytes()
    # k 2-3, two times, three floors, one pair each: three Griffiths eps and one pushforward
    assert len(lines) == 2 * 2 * 3 * 4
    assert all(": DensityValue(" in line for line in lines)
    assert {line.split()[0] for line in lines} == {"griffiths", "pushforward"}
    assert any("mode='resummed'" in line for line in lines)
    assert _dump(b, "--tiny", "--seed", 5).returncode == 0
    assert b.read_bytes() != a.read_bytes()


def test_density_dump_usage_errors_exit_2(tmp_path):
    assert _dump(tmp_path / "missing-dir" / "a.txt", "--tiny").returncode == 2
    assert _dump(tmp_path / "a.txt", "--tiny", "--src", tmp_path).returncode == 2
    assert _dump().returncode == 2
    assert _dump(tmp_path / "a.txt", "--seed", "x").returncode == 2


PATHS = Path(__file__).resolve().parents[1] / "tools" / "path_values.py"


def _paths(*args):
    return subprocess.run([sys.executable, str(PATHS), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_path_dump_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert _paths(a, "--tiny").returncode == 0
    assert _paths(b, "--tiny").returncode == 0
    lines = a.read_text().splitlines()
    assert a.read_bytes() == b.read_bytes()
    # 4 models x k 2-3 x two starts x two strides, then 4 models x k 3 x two
    # strides x --paths 1 and 3 through the CLI
    records = [line for line in lines if line.startswith("path ")]
    runs = [line for line in lines if line.startswith("cli ")]
    assert (len(records), len(runs), len(lines)) == (32, 16, 48)
    assert all(" states=" in line and " max_defect=" in line for line in records)
    assert all(": exit=0 csv=" in line for line in runs)
    assert _paths(b, "--tiny", "--seed", 5).returncode == 0
    assert b.read_bytes() != a.read_bytes()


def test_path_dump_usage_errors_exit_2(tmp_path):
    assert _paths(tmp_path / "missing-dir" / "a.txt", "--tiny").returncode == 2
    assert _paths(tmp_path / "a.txt", "--tiny", "--src", tmp_path).returncode == 2
    assert _paths().returncode == 2
    assert _paths(tmp_path / "a.txt", "--seed", "x").returncode == 2


def test_path_dump_digests_every_ensemble_shape(monkeypatch):
    # 4 models x k 2, 3, 5, 8 x n_paths 1, 16, 300 and ENSEMBLE_CHUNK + 3
    # (the last in two chunks); the simplex ensembles near the boundary clamp
    monkeypatch.syspath_prepend(str(PATHS.parent))
    import path_values

    from spherewf.simulate import ENSEMBLE_CHUNK

    lines = list(path_values.ensemble_lines(5))
    assert len(lines) == len(set(lines)) == 4 * 4 * 4
    fields = ("finals=", "mean_defect=", "max_defect=", "max_presum_defect=",
              "clamp_fraction=", "n_steps=50")
    assert all(line.startswith("ensemble ") and all(f" {f}" in line for f in fields)
               for line in lines)
    assert sum(f" n_paths={ENSEMBLE_CHUNK + 3} " in line for line in lines) == 16
    assert any("wf-neutral" in line and "clamp_fraction=0.0 " not in line for line in lines)


def test_path_dump_digests_every_moran_run(monkeypatch):
    # k 2, 4, 8 x N 100, 1000 x an interior start and one with a zero count
    # x strides 1 and 124, 20,000 events each
    monkeypatch.syspath_prepend(str(PATHS.parent))
    import path_values

    lines = list(path_values.moran_lines(5))
    assert len(lines) == len(set(lines)) == 3 * 2 * 2 * 2
    assert all(line.startswith("moran ") and " events=20000 " in line
               and all(f" {f}=" in line for f in ("counts", "times", "heterozygosity"))
               for line in lines)
    assert sum(" zero counts=" in line and ", 0] " in line for line in lines) == 12


CHECK = Path(__file__).resolve().parents[1] / "tools" / "check_golden.py"


def test_check_golden_exit_codes(tmp_path, monkeypatch, capsys):
    # a stand-in table and golden directory, so no slow golden is regenerated
    monkeypatch.syspath_prepend(str(CHECK.parent))
    import check_golden

    lines = {"a.txt": ["x 1", "y nan"], "b.jsonl": ['{"s": 2}']}
    monkeypatch.setattr(check_golden, "GOLDEN", tmp_path)
    monkeypatch.setattr(check_golden, "GOLDENS",
                        {name: (lambda tmp, name=name: lines[name]) for name in lines})
    assert check_golden.main(["--update"]) == 0
    assert (tmp_path / "a.txt").read_text() == f"# {check_golden.build()}\nx 1\ny nan\n"
    assert check_golden.main([]) == 0
    assert capsys.readouterr().out.count("keeps its bytes") == 2

    (tmp_path / "a.txt").write_text("# numpy 1.0, BLAS other\nx 1\ny nan\n")
    lines["a.txt"] = ["x 1", "y 2"]
    assert check_golden.main([]) == 1
    out = capsys.readouterr().out
    assert "a.txt:3 differs:\n  golden: y nan\n  now:    y 2\n" in out
    assert "golden made with numpy 1.0, BLAS other" in out
    assert f"this run with    numpy {np.__version__}, BLAS " in out
    assert "b.jsonl: keeps its bytes" in out
    assert check_golden.main(["b.jsonl"]) == 0

    lines["a.txt"] = ["x 1"]
    assert check_golden.main(["a.txt"]) == 1
    assert "a.txt has 2 lines below line 1, this run 1" in capsys.readouterr().out
    assert check_golden.main(["a.txt", "--update"]) == 0
    assert check_golden.main([]) == 0
    with pytest.raises(SystemExit) as exc:
        check_golden.main(["c.txt"])
    assert exc.value.code == 2


def test_check_golden_passes_on_a_fast_golden():
    result = subprocess.run([sys.executable, str(CHECK), "paths_tiny.txt"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "paths_tiny.txt: keeps its bytes\n"
