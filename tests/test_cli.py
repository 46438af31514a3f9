import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spherewf
from spherewf.cli import EXIT_BROKEN_PIPE, EXIT_CONFIG, EXIT_NONCONVERGED, EXIT_OK, main

_ENV = {**os.environ, "PYTHONPATH": str(Path(spherewf.__file__).parents[1])}


def _python(code: str) -> str:
    """Run code in a fresh interpreter; returns its stdout."""
    done = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return config, header, rows


def test_density_stationary_arcsine(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["density", "--kernel", "stationary", "--x", "0.5,0.5",
                 "--epsilon", "0.5", "--output", str(out)])
    assert code == EXIT_OK
    config, header, rows = _read_csv(out)
    assert header == ["x1", "x2", "value", "terms", "tail_bound", "converged"]
    assert float(rows[0][2]) == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert config["kernel"] == "stationary"


def test_density_sphere_long_time(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["density", "--kernel", "sphere", "--y", "0,0,1",
                 "--y-prime", "0.6,0.8,0", "--t", "1000", "--output", str(out)])
    assert code == EXIT_OK
    _, _, rows = _read_csv(out)
    assert abs(float(rows[0][6]) - 1.0) < 1e-12


def test_density_pushforward_and_griffiths_agree(tmp_path):
    args = ["--x", "0.5,0.3,0.2", "--x-prime", "0.25,0.35,0.4", "--t", "0.5"]
    out1 = tmp_path / "p.csv"
    out2 = tmp_path / "g.csv"
    assert main(["density", "--kernel", "pushforward", *args, "--output", str(out1)]) == EXIT_OK
    assert main(["density", "--kernel", "griffiths", "--epsilon", "0.5", *args,
                 "--output", str(out2)]) == EXIT_OK
    v1 = float(_read_csv(out1)[2][0][6])
    v2 = float(_read_csv(out2)[2][0][6])
    assert v1 == pytest.approx(v2, rel=1e-7)


def test_density_rejects_malformed_simplex(tmp_path, capsys):
    code = main(["density", "--kernel", "stationary", "--x", "0.5,0.4"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'x'" in err  # names the offending field


def test_density_nonconvergence_exit_code(tmp_path):
    code = main(["density", "--kernel", "pushforward", "--x", "0.5,0.3,0.2",
                 "--x-prime", "0.25,0.35,0.4", "--t", "0.01",
                 "--max-terms", "3", "--output", str(tmp_path / "x.csv")])
    assert code == EXIT_NONCONVERGED


def test_density_input_csv(tmp_path):
    src = tmp_path / "pairs.csv"
    src.write_text("0.5,0.3,0.2,0.25,0.35,0.4\n0.2,0.3,0.5,0.4,0.4,0.2\n")
    out = tmp_path / "out.csv"
    code = main(["density", "--kernel", "pushforward", "--t", "0.5",
                 "--input", str(src), "--output", str(out)])
    assert code == EXIT_OK
    _, _, rows = _read_csv(out)
    assert len(rows) == 2
    assert all(float(r[6]) > 0 for r in rows)


def test_simulate_one_step_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--model", "sphere", "--k", "3", "--T", "0.001",
            "--dt", "0.001", "--seed", "42"]
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical reruns
    config, header, rows = _read_csv(out1)
    assert header == ["path", "t", "s1", "s2", "s3", "defect", "clamps"]
    assert len(rows) == 2  # initial state + exactly one step
    state = np.array([float(v) for v in rows[1][2:5]])
    assert abs(state @ state - 1.0) < 1e-12


def test_simulate_seed_env_var(tmp_path, monkeypatch):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    monkeypatch.setenv("SPHEREWF_SEED", "777")
    base = ["simulate", "--model", "wf-isotropic", "--k", "3", "--T", "0.01", "--dt", "0.001"]
    assert main(base + ["--output", str(out1)]) == EXIT_OK
    assert main(base + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_text().replace("a.csv", "") == out2.read_text().replace("b.csv", "")
    # explicit flag wins over the environment
    assert main(base + ["--seed", "778", "--output", str(out3)]) == EXIT_OK
    assert _read_csv(out1)[2] != _read_csv(out3)[2]


def test_simulate_mutation_requires_valid_epsilon(capsys):
    code = main(["simulate", "--model", "wf-mutation", "--k", "3", "--T", "0.01",
                 "--epsilon", "-1"])
    assert code == EXIT_CONFIG


def test_config_file_precedence_and_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": 0.5, "x": "0.5,0.5", "epsilon": "1.0,1.0"}))
    out = tmp_path / "o.csv"
    code = main(["density", "--kernel", "stationary", "--config", str(cfg),
                 "--output", str(out)])
    assert code == EXIT_OK
    assert float(_read_csv(out)[2][0][2]) == pytest.approx(1.0)
    # flag beats file
    code = main(["density", "--kernel", "stationary", "--config", str(cfg),
                 "--epsilon", "0.5", "--x", "0.5,0.5", "--output", str(out)])
    assert float(_read_csv(out)[2][0][2]) == pytest.approx(2.0 / math.pi, rel=1e-12)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense_key": 1}))
    assert main(["density", "--kernel", "stationary", "--x", "0.5,0.5",
                 "--config", str(bad)]) == EXIT_CONFIG
    assert "nonsense_key" in capsys.readouterr().err


def test_verify_exponent_suite(tmp_path, capsys):
    rep = tmp_path / "r.jsonl"
    summ = tmp_path / "s.csv"
    code = main(["verify", "--suite", "exponent", "--output", str(rep),
                 "--summary", str(summ)])
    assert code == EXIT_OK
    line = json.loads(rep.read_text().splitlines()[0])
    assert line["passed"] is True
    assert "PASS exponent-match" in capsys.readouterr().out
    assert summ.read_text().startswith("name,passed")


def test_verify_controls_suite(tmp_path):
    code = main(["verify", "--suite", "controls", "--seed", "9",
                 "--output", str(tmp_path / "c.jsonl")])
    assert code == EXIT_OK  # controls PASS when the perturbations FAIL


def test_moran_output(tmp_path):
    out = tmp_path / "m.csv"
    code = main(["moran", "--k", "2", "--N", "100", "--lam", "1.0",
                 "--events", "500", "--record-stride", "100",
                 "--seed", "5", "--output", str(out)])
    assert code == EXIT_OK
    config, header, rows = _read_csv(out)
    assert header == ["event", "t", "n1", "n2", "heterozygosity"]
    for row in rows:
        assert int(row[2]) + int(row[3]) == 100
    assert float(rows[0][4]) == pytest.approx(0.5)


def test_moran_needs_events_or_time(capsys):
    assert main(["moran", "--k", "2", "--N", "50"]) == EXIT_CONFIG
    assert "'events'" in capsys.readouterr().err


def test_config_cannot_override_an_abbreviated_flag(tmp_path, capsys):
    # an abbreviated --dt used to escape the explicit-flag record, so the
    # file's dt silently won; abbreviations are now rejected outright
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dt": 0.5}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "sphere", "--T", "1", "--d", "0.25",
              "--config", str(cfg)])
    assert exc.value.code == EXIT_CONFIG
    assert "--d" in capsys.readouterr().err
    out = tmp_path / "o.csv"
    assert main(["simulate", "--model", "sphere", "--T", "1", "--dt", "0.25",
                 "--config", str(cfg), "--output", str(out)]) == EXIT_OK
    assert _read_csv(out)[0]["dt"] == 0.25


@pytest.mark.parametrize("paths", ["0", "-2"])
def test_simulate_rejects_nonpositive_path_count(tmp_path, capsys, paths):
    out = tmp_path / "o.csv"
    code = main(["simulate", "--model", "sphere", "--T", "0.01", "--dt", "0.01",
                 "--paths", paths, "--output", str(out)])
    assert code == EXIT_CONFIG
    assert "'paths'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_threads_match_serial(tmp_path):
    base = ["simulate", "--model", "wf-isotropic", "--T", "0.01", "--dt", "0.001",
            "--paths", "3", "--seed", "5"]
    rows = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        assert main(base + ["--threads", threads, "--output", str(out)]) == EXIT_OK
        rows.append(_read_csv(out)[2])
    assert rows[0] == rows[1]


def test_closed_output_pipe_ends_quietly():
    # about 1 MB of rows, far more than a pipe buffer holds
    cmd = [sys.executable, "-m", "spherewf.cli", "simulate", "--model", "sphere",
           "--T", "1", "--dt", "1e-4", "--seed", "1"]
    proc = subprocess.Popen(cmd, env=_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"# config: ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == EXIT_BROKEN_PIPE
    assert err == b""


def test_verify_unknown_suite_names_the_suites(capsys):
    assert main(["verify", "--suite", "nope"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'nope'" in err and "equivalence" in err and "'all'" in err


def test_import_defers_the_harness():
    out = _python(
        "import sys, spherewf\n"
        "print('scipy.stats' in sys.modules)\n"
        "print(spherewf.run_suite.__name__, spherewf.VerificationReport.__name__,\n"
        "      spherewf.harness.__name__)\n"
        "try:\n"
        "    spherewf.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert out.splitlines() == [
        "False", "run_suite VerificationReport spherewf.harness",
        "module 'spherewf' has no attribute 'no_such_name'"]


def test_simulate_does_not_load_scipy_stats(tmp_path):
    out = tmp_path / "o.csv"
    printed = _python(
        "import sys\n"
        "from spherewf.cli import main\n"
        f"code = main(['simulate', '--model', 'sphere', '--T', '0.01', '--dt', '0.01', "
        f"'--output', {str(out)!r}])\n"
        "print(code, 'scipy.stats' in sys.modules)\n")
    assert printed.split() == [str(EXIT_OK), "False"]
    assert out.exists()
