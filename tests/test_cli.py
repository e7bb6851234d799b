import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sullivan.cli import main

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def run_cli(args, stdin_text=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "sullivan", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


@pytest.fixture()
def cp2_file(tmp_path):
    path = tmp_path / "cp2.model"
    path.write_text("generator v 2\ngenerator w 5\nd w = v^3\n")
    return str(path)


@pytest.fixture()
def s3s3_file(tmp_path):
    result = run_cli(["recipe", "product", "odd-sphere:1", "odd-sphere:1"])
    assert result.returncode == 0
    path = tmp_path / "s3s3.model"
    path.write_text(result.stdout)
    return str(path)


def test_recipe_pipe_into_loop_betti():
    recipe = run_cli(["recipe", "product", "odd-sphere:1", "odd-sphere:1"])
    assert recipe.returncode == 0
    result = run_cli(["loop-betti", "--max", "12"], stdin_text=recipe.stdout)
    assert result.returncode == 0
    assert "betti 1,0,2,2,3,4,5,6,7,8,9,10,11" in result.stdout


def test_betti_json_fields(cp2_file):
    result = run_cli(["betti", cp2_file, "--max", "8", "--json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["command"] == "betti"
    assert report["betti"] == [1, 0, 1, 0, 1, 0, 0, 0, 0]
    assert report["window"] == 8
    assert set(report) == {
        "command", "model_hash", "window", "betti", "representatives",
        "series", "witnesses", "verdicts", "model_file", "details",
    }
    # degree-2 representative is the generator v with coefficient 1
    assert report["representatives"][2] == [[["v", "1"]]]


def test_verify_detects_broken_differential(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("generator v 2\ngenerator w 3\nd v = w\nd w = v^2\n")
    result = run_cli(["verify", str(bad)])
    assert result.returncode == 1
    assert "FAIL" in result.stdout
    good = run_cli(["verify"], stdin_text="generator v 3\n")
    assert good.returncode == 0


def test_parse_errors_exit_two(tmp_path):
    bad = tmp_path / "syntax.model"
    bad.write_text("generator v 2\nd v = ???\n")
    result = run_cli(["betti", str(bad)])
    assert result.returncode == 2
    assert "error:" in result.stderr
    missing = run_cli(["betti", str(tmp_path / "missing.model")])
    assert missing.returncode == 2


def test_invalid_model_exits_one_at_parse(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("generator v 2\ngenerator w 3\nd v = w\nd w = v^2\n")
    result = run_cli(["betti", str(bad)])
    assert result.returncode == 1
    assert "d²" in result.stderr or "d(d(" in result.stderr


def test_loop_emission_renames_suspensions(cp2_file, tmp_path):
    out = tmp_path / "loop.model"
    result = run_cli(["loop", cp2_file, "-o", str(out)])
    assert result.returncode == 0
    text = out.read_text()
    assert "generator s_v 1" in text
    assert "generator s_w 4" in text
    assert "d s_w = -3*s_v*v^2" in text


def test_series_comparison_equal(s3s3_file, tmp_path):
    loop_file = tmp_path / "loop.model"
    run_cli(["loop", s3s3_file, "-o", str(loop_file)])
    result = run_cli([
        "series", "--rational", "(1+z^3)^2/(1-z^2)^2",
        "--betti-of", str(loop_file), "--max", "12",
    ])
    assert result.returncode == 0
    assert "verdict EQUAL" in result.stdout
    unequal = run_cli([
        "series", "--rational", "(1+z^3)/(1-z^2)",
        "--betti-of", str(loop_file), "--max", "12",
    ])
    assert unequal.returncode == 1
    assert "verdict DIFFER" in unequal.stdout


def test_tensor_command(s3s3_file, cp2_file, tmp_path):
    result = run_cli(["tensor", s3s3_file, cp2_file])
    assert result.returncode == 0
    assert "generator v_1 3" in result.stdout
    assert "generator v 2" in result.stdout
    clash = run_cli(["tensor", cp2_file, cp2_file])
    assert clash.returncode == 2


def test_quotient_command_warns_on_lost_relation(cp2_file):
    result = run_cli(["quotient", cp2_file, "--kill", "w"])
    assert result.returncode == 0
    assert "generator v 2" in result.stdout
    assert "not by the differential ideal" in result.stderr
    clean = run_cli(["quotient", cp2_file, "--kill", "v,w"])
    assert clean.returncode == 0
    assert clean.stderr == ""


def test_koszul_command(tmp_path):
    model = tmp_path / "poly.model"
    model.write_text("generator x 2\n")
    result = run_cli(["koszul", str(model), "--by", "x^3", "--max", "12"])
    assert result.returncode == 0
    assert "verdict EQUAL" in result.stdout
    odd = run_cli(["koszul", str(model), "--by", "x^3", "--max", "12", "--json"])
    report = json.loads(odd.stdout)
    assert report["verdicts"]["matches_quotient_oracle"] is True
    assert report["betti"][:7] == [1, 0, 1, 0, 1, 0, 0]


def test_mult_model_command(cp2_file):
    result = run_cli(["mult-model", cp2_file, "--json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert all(report["verdicts"].values())
    assert report["details"]["suspension_differentials"]["sv"] == "v_1 - v_2"


def test_witness_command(s3s3_file):
    result = run_cli(["witness", s3s3_file, "--k-max", "4", "--json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["verdicts"]["all_certified"] is True
    counts = [entry["count"] for entry in report["witnesses"]]
    assert counts == [1, 2, 3, 4, 5]
    assert report["witnesses"][2]["betti"] == 3
    not_applicable = run_cli(["witness", "--k-max", "2"], stdin_text="generator v 3\n")
    assert not_applicable.returncode == 2


def test_recipe_unknown_exits_two():
    assert run_cli(["recipe", "torus"]).returncode == 2
    assert run_cli(["recipe", "cpn", "0"]).returncode == 2


def test_basis_cap_flag(s3s3_file):
    result = run_cli(["loop-betti", s3s3_file, "--max", "12", "--cap", "3"])
    assert result.returncode == 2
    assert "cap" in result.stderr


def test_json_reports_are_byte_identical_across_runs(cp2_file):
    first = run_cli(["betti", cp2_file, "--max", "10", "--json"])
    second = run_cli(["betti", cp2_file, "--max", "10", "--json"])
    assert first.stdout == second.stdout


def test_main_callable_in_process(capsys, cp2_file):
    code = main(["betti", cp2_file, "--max", "6", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["betti"] == [1, 0, 1, 0, 1, 0, 0]


def test_betti_of_even_sphere_to_degree_1000():
    # closed form: H(S^2) is Q in degrees 0 and 2
    result = run_cli(["recipe", "even-sphere", "1"])
    assert result.returncode == 0
    betti = run_cli(["betti", "--max", "1000", "--json"], stdin_text=result.stdout)
    assert betti.returncode == 0
    assert json.loads(betti.stdout)["betti"] == [1, 0, 1] + [0] * 998


def test_verify_rejects_huge_exponent_with_structured_error(tmp_path):
    model = tmp_path / "huge.model"
    model.write_text("generator v 2\ngenerator w 3\nd w = v^100000000\n")
    # the timeout only guards against a hang; the check is the exit code
    result = run_cli(["verify", str(model)], timeout=60)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "d w has degree 200000000, expected 4" in result.stderr
