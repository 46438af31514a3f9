import argparse
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spherewf
from spherewf import cli, simulate
from spherewf.cli import EXIT_BROKEN_PIPE, EXIT_CONFIG, EXIT_NONCONVERGED, EXIT_OK, _fmt, main
from spherewf.simulate import Model, path_rng, simulate_path
from spherewf.types import ModelParams

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


def test_python_dash_m_spherewf_runs_the_cli(tmp_path):
    # the package itself is runnable, as `spherewf` and `python -m spherewf.cli` are
    out = tmp_path / "d.csv"
    argv = ["density", "--kernel", "stationary", "--x", "0.5,0.5", "--epsilon", "0.5"]
    done = subprocess.run([sys.executable, "-m", "spherewf", *argv, "--output", str(out)],
                          env=_ENV, capture_output=True, text=True, timeout=300)
    assert done.returncode == EXIT_OK, done.stderr
    ref = tmp_path / "ref.csv"
    assert main([*argv, "--output", str(ref)]) == EXIT_OK
    assert out.read_text() == ref.read_text()
    bad = subprocess.run([sys.executable, "-m", "spherewf", "density", "--kernel", "nope"],
                         env=_ENV, capture_output=True, text=True, timeout=300)
    assert bad.returncode == EXIT_CONFIG and "nope" in bad.stderr


def test_density_sphere_long_time(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["density", "--kernel", "sphere", "--y", "0,0,1",
                 "--y-prime", "0.6,0.8,0", "--t", "1000", "--output", str(out)])
    assert code == EXIT_OK
    _, _, rows = _read_csv(out)
    assert abs(float(rows[0][6]) - 1.0) < 1e-12


def test_density_pushforward_and_griffiths_agree(tmp_path):
    for x, xp, t in (("0.5,0.3,0.2", "0.25,0.35,0.4", "0.5"),
                     ("0.1,0.15,0.2,0.25,0.2,0.1", "0.3,0.1,0.1,0.2,0.15,0.15", "0.05")):
        args = ["--x", x, "--x-prime", xp, "--t", t]
        out1 = tmp_path / "p.csv"
        out2 = tmp_path / "g.csv"
        assert main(["density", "--kernel", "pushforward", *args, "--output", str(out1)]) == EXIT_OK
        assert main(["density", "--kernel", "griffiths", "--epsilon", "0.5", *args,
                     "--output", str(out2)]) == EXIT_OK
        k = x.count(",") + 1
        v1 = float(_read_csv(out1)[2][0][2 * k])
        v2 = float(_read_csv(out2)[2][0][2 * k])
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


@pytest.mark.parametrize("kernel, flags, field", [
    ("pushforward", ["--max-terms", "0"], "max_terms"),
    ("griffiths", ["--tol", "-1"], "tol"),
    ("griffiths", ["--t", "nan"], "floor"),
    ("pushforward", ["--t", "nan"], "floor"),
    ("pushforward", ["--tol", "inf"], "tol"),
    ("griffiths", ["--tol", "inf"], "tol"),
    ("griffiths", ["--epsilon", "inf"], "epsilon"),
    ("griffiths", ["--epsilon", "nan"], "epsilon"),
    ("griffiths", ["--max-terms", "1000"], "max_terms"),
])
def test_density_bad_series_settings_are_config_errors(tmp_path, capsys, kernel, flags, field):
    out = tmp_path / "o.csv"
    t = [] if "--t" in flags else ["--t", "0.5"]
    assert main(["density", "--kernel", kernel, "--x", "0.5,0.3,0.2",
                 "--x-prime", "0.25,0.35,0.4", *t, *flags, "--output", str(out)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_density_refuses_an_epsilon_too_small_to_form_mu(tmp_path, capsys):
    # k*eps + 1 rounds to 1 at eps = 1e-20, k = 2: a config error that names
    # epsilon, not a math domain error from inside the series
    out = tmp_path / "o.csv"
    base = ["density", "--kernel", "griffiths", "--x", "0.3,0.7", "--x-prime", "0.6,0.4",
            "--t", "0.5", "--output", str(out)]
    assert main(base + ["--epsilon", "1e-20"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "epsilon = 1e-20 is too small" in err and "domain" not in err
    assert not out.exists()
    assert main(base + ["--epsilon", "1e-16"]) == EXIT_OK
    assert float(_read_csv(out)[2][0][4]) == pytest.approx(0.7472, abs=1e-4)


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


@pytest.mark.parametrize("text", ["", "# x1,x2,x3\n\n   \n# no data\n"],
                         ids=["empty", "comments-only"])
@pytest.mark.parametrize("kernel", ["stationary", "pushforward"])
def test_density_input_without_rows_is_a_config_error(tmp_path, capsys, text, kernel):
    src = tmp_path / "pairs.csv"
    src.write_text(text)
    out = tmp_path / "out.csv"
    t = [] if kernel == "stationary" else ["--t", "0.5"]  # stationary reads no time
    assert main(["density", "--kernel", kernel, *t, "--input", str(src),
                 "--output", str(out)]) == EXIT_CONFIG
    assert "'input'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["inf", "nan", "0.5,inf,0.5"])
def test_stationary_density_refuses_non_finite_epsilon(tmp_path, capsys, epsilon):
    out = tmp_path / "o.csv"
    assert main(["density", "--kernel", "stationary", "--x", "0.5,0.3,0.2",
                 "--epsilon", epsilon, "--output", str(out)]) == EXIT_CONFIG
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kernel, text", [
    ("pushforward", "0.5,0.3,0.2,0.25,0.35,0.4\n0.3,0.7,0.6,0.4\n"),
    ("stationary", "0.5,0.3,0.2\n0.3,0.7\n"),
])
def test_density_input_rows_of_different_k_are_a_config_error(tmp_path, capsys, kernel, text):
    # the header is built from the first row, so a later row of another k
    # would be written under the wrong columns
    src = tmp_path / "pairs.csv"
    src.write_text(text)
    out = tmp_path / "out.csv"
    t = [] if kernel == "stationary" else ["--t", "0.5"]
    assert main(["density", "--kernel", kernel, *t, "--input", str(src),
                 "--output", str(out)]) == EXIT_CONFIG
    assert "'input'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kernel, points", [
    ("sphere", ["--y", "1,0", "--y-prime", "0,1"]),
    ("pushforward", ["--x", "0.3,0.7", "--x-prime", "0.6,0.4"]),
])
def test_density_tiny_diffusion_on_the_circle_is_not_converged(tmp_path, capsys, kernel,
                                                                points):
    # the circle series' term ratio rounds to 1: an infinite tail bound, exit 3
    out = tmp_path / "o.csv"
    assert main(["density", "--kernel", kernel, *points, "--t", "0.5", "--D", "1e-20",
                 "--output", str(out)]) == EXIT_NONCONVERGED
    assert "tail bound inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("argv, unread", [
    (["density", "--kernel", "pushforward", "--x", "0.5,0.3,0.2", "--x-prime", "0.25,0.35,0.4",
      "--t", "0.5"], {"epsilon": "0.7"}),
    (["density", "--kernel", "sphere", "--y", "0,0,1", "--y-prime", "0.6,0.8,0", "--t", "1"],
     {"epsilon": "0.5"}),
    (["density", "--kernel", "pushforward", "--t", "0.5", "--input", "{input}"],
     {"x": "0.5,0.3,0.2", "x_prime": "0.25,0.35,0.4"}),
    (["density", "--kernel", "sphere", "--t", "1", "--input", "{input}"],
     {"y": "0,0,1", "y_prime": "0.6,0.8,0"}),
    (["simulate", "--model", "sphere", "--T", "0.01", "--dt", "0.01"], {"epsilon": "0.3"}),
    (["simulate", "--model", "wf-neutral", "--T", "0.01", "--dt", "0.01"], {"epsilon": "0.3"}),
    (["simulate", "--model", "wf-isotropic", "--T", "0.01", "--dt", "0.01"],
     {"epsilon": "0.5"}),
    (["simulate", "--model", "wf-mutation", "--epsilon", "0.5", "--T", "0.01", "--dt", "0.01"],
     {"c": "7"}),
    (["density", "--kernel", "stationary", "--x", "0.5,0.5"],
     {"t": "0.5", "D": "0.2", "tol": "1e-9", "max_terms": "50"}),
    (["density", "--kernel", "griffiths", "--x", "0.5,0.3,0.2", "--x-prime", "0.25,0.35,0.4",
      "--t", "0.5"], {"D": "0.2"}),
    (["verify", "--suite", "exponent"], {"k": "3"}),
], ids=["pushforward-epsilon", "sphere-epsilon", "input-x", "input-y", "sphere-model",
        "neutral-model", "isotropic-model", "mutation-c", "stationary-series", "griffiths-D",
        "exponent-k"])
def test_fields_that_are_never_read_are_refused(tmp_path, capsys, source, argv, unread):
    # a value that no step reads would be echoed in '# config:' as if it took effect
    src = tmp_path / "pairs.csv"
    src.write_text("0.5,0.3,0.2,0.25,0.35,0.4\n")
    argv = [a.format(input=src) for a in argv]
    if source == "flag":
        for key, value in unread.items():
            argv += ["--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(unread))
        argv += ["--config", str(cfg)]
    out = tmp_path / "o.csv"
    assert main(argv + ["--output", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(f"'{key}'" in err for key in unread), err
    assert not out.exists()


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


def test_simulate_mutation_without_epsilon_is_a_config_error(tmp_path, capsys):
    # eps = 0 would be neutral drift with unit noise, not the mutation model
    out = tmp_path / "never.csv"
    code = main(["simulate", "--model", "wf-mutation", "--T", "0.001", "--dt", "0.001",
                 "--output", str(out)])
    assert code == EXIT_CONFIG
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_precedence_and_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x": "0.5,0.5", "epsilon": "1.0,1.0"}))
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


@pytest.mark.parametrize("flags,field", [
    (["--events", "-1"], "'events'"),
    (["--T", "-3"], "'T'"),
    (["--T", "nan"], "'T'"),
    (["--events", "10", "--record-stride", "0"], "'record_stride'"),
    (["--k", "0", "--events", "10"], "'k'"),
    (["--counts", "50.5,50", "--events", "10"], "counts must be whole numbers"),
    (["--counts", "50,50", "--k", "3", "--events", "10"], "'k'"),
    (["--counts", "50,50", "--lam", "inf", "--events", "10"], "lam"),
    (["--N", "10", "--events", "3", "--T", "50"], "'events' and 'T'"),
    (["--N", "100", "--T", "1e300"], "events = 2.48e+301 is outside [0, MAX_STEPS"),
    (["--N", "100", "--events", "1000000001"], "MAX_STEPS = 1e+09"),
    (["--N", "100", "--T", "1e308"], "'T'"),  # T * rate overflows to inf
])
def test_moran_rejects_bad_input(tmp_path, capsys, flags, field):
    out = tmp_path / "m.csv"
    assert main(["moran", "--output", str(out)] + flags) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_moran_counts_set_k_unless_k_is_given(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["moran", "--counts", "30,30,40", "--events", "5",
                 "--output", str(out)]) == EXIT_OK
    config, header, _ = _read_csv(out)
    assert config["k"] == 3 and header[2:5] == ["n1", "n2", "n3"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2}))
    assert main(["moran", "--counts", "30,30,40", "--events", "5",
                 "--config", str(cfg)]) == EXIT_CONFIG
    assert "'k'" in capsys.readouterr().err


def test_config_file_supplies_required_fields(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "o.csv"
    cfg.write_text(json.dumps({"T": 0.001, "dt": 0.001}))
    assert main(["simulate", "--model", "sphere", "--config", str(cfg),
                 "--output", str(out)]) == EXIT_OK
    assert _read_csv(out)[0]["T"] == 0.001
    # a typed flag still wins over the file
    assert main(["simulate", "--model", "sphere", "--T", "0.002", "--config", str(cfg),
                 "--output", str(out)]) == EXIT_OK
    assert _read_csv(out)[0]["T"] == 0.002
    # ... also when the typed value equals the built-in default
    assert main(["simulate", "--model", "sphere", "--dt", "0.0001", "--config", str(cfg),
                 "--output", str(out)]) == EXIT_OK
    config, _, rows = _read_csv(out)
    assert config["dt"] == 0.0001 and len(rows) == 11
    cfg.write_text(json.dumps({"model": "wf-neutral", "T": 0.001, "dt": 0.001}))
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
    assert _read_csv(out)[0]["model"] == "wf-neutral"
    cfg.write_text(json.dumps({"kernel": "stationary", "x": "0.5,0.5"}))
    assert main(["density", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
    assert _read_csv(out)[0]["kernel"] == "stationary"
    # still missing: a configuration error that names the field
    cfg.write_text(json.dumps({"dt": 0.001}))
    for argv, field in ((["simulate", "--model", "sphere"], "'T'"),
                        (["simulate", "--T", "0.001"], "'model'"),
                        (["density", "--x", "0.5,0.5"], "'kernel'"),
                        (["verify"], "'suite'")):
        assert main(argv) == EXIT_CONFIG
        assert field in capsys.readouterr().err


def test_every_flag_defaults_to_none_and_some_run_reads_it():
    # a value after parsing is then one the user typed, and cli._READS holds
    # every built-in default
    parser = cli.build_parser()
    for command, (pick, common, variants) in cli._READS.items():
        flags = vars(parser.parse_args([command]))
        del flags["command"], flags["func"]
        assert [d for d, v in flags.items() if v is not None] == []
        read = set(common).union(*variants.values(), [pick] if pick else [])
        assert set(flags) - {"output", "config"} == read, command


def _parser_with_written_out_flags() -> argparse.ArgumentParser:
    # build_parser as it was, with each flag added by hand
    parser = argparse.ArgumentParser(
        prog="spherewf",
        allow_abbrev=False,
        description="Sphere-diffusion and Wright-Fisher transition densities, "
                    "simulators, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pd = sub.add_parser("density", help="evaluate exact transition densities", allow_abbrev=False)
    pd.add_argument("--kernel", choices=["sphere", "griffiths", "pushforward", "stationary"])
    pd.add_argument("--t", type=float)
    pd.add_argument("--D", type=float)
    pd.add_argument("--epsilon", type=str)
    pd.add_argument("--x", type=str, help="comma-separated simplex point")
    pd.add_argument("--x-prime", dest="x_prime", type=str)
    pd.add_argument("--y", type=str, help="comma-separated unit vector")
    pd.add_argument("--y-prime", dest="y_prime", type=str)
    pd.add_argument("--input", type=str, help="CSV of point pairs, one per row")
    pd.add_argument("--tol", type=float)
    pd.add_argument("--max-terms", dest="max_terms", type=int)
    pd.add_argument("--output", type=str)
    pd.add_argument("--config", type=str)
    ps = sub.add_parser("simulate", help="integrate sample paths", allow_abbrev=False)
    ps.add_argument("--model", choices=[m.value for m in Model])
    ps.add_argument("--k", type=int)
    ps.add_argument("--T", type=float)
    ps.add_argument("--dt", type=float)
    ps.add_argument("--c", type=float)
    ps.add_argument("--epsilon", type=str)
    ps.add_argument("--start", type=str)
    ps.add_argument("--paths", type=int)
    ps.add_argument("--record-stride", dest="record_stride", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--output", type=str)
    ps.add_argument("--config", type=str)
    pv = sub.add_parser("verify", help="run a verification suite", allow_abbrev=False)
    pv.add_argument("--suite", help="suite name or 'all' (see README; an unknown name lists them)")
    pv.add_argument("--k", type=int, help="restrict the equivalence suite to one dimension")
    pv.add_argument("--seed", type=int)
    pv.add_argument("--threads", type=int)
    pv.add_argument("--output", type=str, help="JSONL report path")
    pv.add_argument("--summary", type=str, help="CSV summary path")
    pv.add_argument("--config", type=str)
    pm = sub.add_parser("moran", help="simulate the interacting-particle model",
                        allow_abbrev=False)
    pm.add_argument("--k", type=int, help="number of types (default: from --counts, else 2)")
    pm.add_argument("--N", type=int)
    pm.add_argument("--lam", type=float)
    pm.add_argument("--counts", type=str, help="initial counts (default near-even split)")
    pm.add_argument("--events", type=int)
    pm.add_argument("--T", type=float)
    pm.add_argument("--record-stride", dest="record_stride", type=int)
    pm.add_argument("--seed", type=int)
    pm.add_argument("--output", type=str)
    pm.add_argument("--config", type=str)
    return parser


@pytest.mark.parametrize("argv", [["--help"], ["density", "--help"], ["simulate", "--help"],
                                  ["verify", "--help"], ["moran", "--help"]])
def test_help_lists_the_flags_as_written_out_by_hand(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    helps = []
    for parser in (cli.build_parser(), _parser_with_written_out_flags()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]


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


@pytest.mark.parametrize("T, dt", [("inf", "0.001"), ("1e300", "1e-300")])
def test_simulate_refuses_non_finite_step_counts(tmp_path, capsys, T, dt):
    out = tmp_path / "o.csv"
    code = main(["simulate", "--model", "sphere", "--T", T, "--dt", dt, "--paths", "4",
                 "--output", str(out)])
    assert code == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_step_counts_above_the_bound(tmp_path, capsys):
    out = tmp_path / "o.csv"
    code = main(["simulate", "--model", "sphere", "--T", "1e300", "--dt", "1e-4",
                 "--output", str(out)])
    assert code == EXIT_CONFIG
    assert "exceeds MAX_STEPS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("paths", ["0", "-2"])
def test_simulate_rejects_nonpositive_path_count(tmp_path, capsys, paths):
    out = tmp_path / "o.csv"
    code = main(["simulate", "--model", "sphere", "--T", "0.01", "--dt", "0.01",
                 "--paths", paths, "--output", str(out)])
    assert code == EXIT_CONFIG
    assert "'paths'" in capsys.readouterr().err
    assert not out.exists()


#: the --paths P runs that end on a block edge and one step past it
_BATCH_EDGES = [(p, steps) for p in (2, 3, 40) for steps in ("edge", "past-edge")]


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("model, start", [
    ("sphere", "0.6,-0.64,0.48"),
    ("wf-neutral", "0.01,0.02,0.03,0.94"),  # near the boundary: rows clamp
], ids=["sphere", "wf-neutral"])
@pytest.mark.parametrize("paths, steps", [
    (3, "100"), (40, "100"),  # either side of simulate._MATRIX_MAX_ROWS
    *_BATCH_EDGES,
], ids=["3", "40", *(f"{p}-{steps}" for p, steps in _BATCH_EDGES)])
def test_simulate_paths_step_as_one_batch(tmp_path, monkeypatch, paths, steps, model, start,
                                          stride):
    # the rows of a --paths P run are the P records simulate_path gives
    # one at a time, row r from path_rng(seed, r).  Each row reads its
    # stream in blocks of max(8, _PATH_BLOCK // P) steps, all shorter than
    # a single path's: 128 at P = 2, 85 at P = 3 and the floor of 8 at
    # P = 40.  "edge" ends on the first block edge at or past step 100 and
    # "past-edge" one step later, in a block of one step
    monkeypatch.setattr(simulate, "_MATRIX_MAX_ROWS", dict.fromkeys(range(2, 7), 32))
    block = max(8, simulate._PATH_BLOCK // paths)
    assert block < simulate._PATH_BLOCK
    edge = block * -(-100 // block)
    n_steps = {"100": 100, "edge": edge, "past-edge": edge + 1}[steps]
    sizes = []
    draw = simulate.draw_skew
    monkeypatch.setattr(simulate, "draw_skew",
                        lambda k, dt, rng, n, *a: sizes.append(n) or draw(k, dt, rng, n, *a))
    out = tmp_path / "o.csv"
    k = start.count(",") + 1
    T = n_steps * 0.001
    assert main(["simulate", "--model", model, "--k", str(k), "--start", start,
                 "--T", repr(T), "--dt", "0.001", "--paths", str(paths),
                 "--record-stride", str(stride), "--seed", "31",
                 "--output", str(out)]) == EXIT_OK
    # one call per row and block, the last block cut at n_steps
    full = (n_steps - 1) // block
    last = n_steps - full * block
    assert sizes == [block] * (full * paths) + [last] * paths
    assert last == {"100": last, "edge": block, "past-edge": 1}[steps]
    expected, clamps = [], 0
    for i in range(paths):
        rec = simulate_path(Model(model), [float(v) for v in start.split(",")], T, 0.001,
                            ModelParams(k, 1.0), path_rng(31, i), stride)
        clamps += int(rec.clamps[-1])
        for j in range(rec.times.size):
            row = [i, rec.times[j]] + list(rec.states[j]) + [rec.defects[j], int(rec.clamps[j])]
            expected.append(",".join(_fmt(v) for v in row))
    assert out.read_text().splitlines()[2:] == expected
    assert (clamps > 0) == (model == "wf-neutral")


def test_simulate_starts_no_process_pool(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate started a process pool")

    monkeypatch.setattr(simulate, "pool_map", refuse)
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", refuse)
    children = set(multiprocessing.active_children())
    out = tmp_path / "o.csv"
    base = ["simulate", "--model", "sphere", "--T", "1", "--dt", "0.001", "--paths", "64"]
    assert main(base + ["--record-stride", "1000", "--output", str(out)]) == EXIT_OK
    assert set(multiprocessing.active_children()) == children
    assert len(_read_csv(out)[2]) == 64 * 2
    # no flag or config key sets a worker count any more
    with pytest.raises(SystemExit) as exc:
        main(base + ["--threads", "2"])
    assert exc.value.code == EXIT_CONFIG
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    capsys.readouterr()
    assert main(base + ["--config", str(cfg)]) == EXIT_CONFIG
    assert "threads" in capsys.readouterr().err


def _peak_bytes(fn) -> int:
    fn()  # warm caches first
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv, run", [
    (["simulate", "--model", "sphere", "--T", "0.1", "--dt", "1e-4", "--paths", "16"],
     lambda: simulate._simulate_paths(Model.SPHERE, [0.0, 0.0, 1.0], 0.1, 1e-4,
                                      ModelParams(3, 1.0),
                                      [path_rng(5, i) for i in range(16)], 1)),
    (["moran", "--N", "100", "--events", "20000"],
     lambda: simulate.simulate_moran(simulate.MoranState([50, 50], 1.0), 20000,
                                     path_rng(5, 0), 1)),
], ids=["simulate", "moran"])
def test_rows_are_streamed_not_held(tmp_path, argv, run):
    # writing the rows adds little to the run's own peak; holding the 16,016
    # (20,001) rows as Python lists added 3.1 (1.0) MB
    out = tmp_path / "o.csv"
    cli_peak = _peak_bytes(lambda: main(argv + ["--seed", "5", "--output", str(out)]))
    assert cli_peak < _peak_bytes(run) + 0.5e6


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
    # an unknown suite is refused before the fields it would not read
    for extra in ([], ["--k", "3"], ["--k", "3", "--threads", "2"]):
        assert main(["verify", "--suite", "nope", *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'nope'" in err and "equivalence" in err and "'all'" in err, extra


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


def test_import_loads_neither_mpmath_nor_scipy():
    # mpmath is the tests' oracle only, and the harness's scipy loads on first use
    out = _python("import sys, spherewf\n"
                  "print(sorted({m.partition('.')[0] for m in sys.modules} & {'mpmath', 'scipy'}))\n")
    assert out.strip() == "[]"


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


def test_config_values_follow_their_flags_type(tmp_path, capsys):
    # a config value is converted as if it had been typed after its flag
    base = ["simulate", "--model", "sphere", "--T", "0.01", "--dt", "0.01"]
    cfg = tmp_path / "c.json"
    out = tmp_path / "o.csv"
    cfg.write_text(json.dumps({"paths": "3", "c": 2}))
    assert main(base + ["--config", str(cfg), "--output", str(out)]) == EXIT_OK
    config, _, rows = _read_csv(out)
    assert config["paths"] == 3 and config["c"] == 2.0
    assert sorted({row[0] for row in rows}) == ["0", "1", "2"]
    for bad in ({"paths": "three"}, {"paths": 2.5}, {"c": True}, {"seed": None}):
        cfg.write_text(json.dumps(bad))
        assert main(base + ["--config", str(cfg)]) == EXIT_CONFIG
        key = next(iter(bad))
        assert f"'{key}'" in capsys.readouterr().err
