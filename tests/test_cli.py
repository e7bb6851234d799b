import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sullivan.cli import _build_parser, main
from sullivan.errors import DIGIT_LIMIT, NESTING_LIMIT

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


@pytest.mark.parametrize("text, code, verdicts, details", [
    ("generator a 2\ngenerator x 3\ngenerator y 4\nd x = a^2\nd y = a*x\n", 1,
     {"d_squared_zero": False, "homogeneous": True, "minimal": True},
     {"d_squared_counterexample": {"generator": "y", "value": "a^3"}}),
    ("generator v 4\ngenerator w 3\nd w = v\n", 0,
     {"d_squared_zero": True, "homogeneous": True, "minimal": False},
     {"minimality_violation": {"generator": "w", "linear_part": "v"}}),
], ids=["d-squared", "non-minimal"])
def test_verify_json_details_name_the_failure(text, code, verdicts, details, tmp_path, capsys):
    path = tmp_path / "m.model"
    path.write_text(text)
    assert main(["verify", str(path), "--json"]) == code
    report = json.loads(capsys.readouterr().out)
    assert (report["verdicts"], report["details"]) == (verdicts, details)


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


def test_loop_names_the_generator_a_suspension_clashes_with(capsys, tmp_path):
    path = tmp_path / "clash.model"
    path.write_text("generator v 2\ngenerator s_v 3\nd s_v = v^2\n")
    assert main(["loop", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: duplicate generator name 's_v'\n")


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


def test_koszul_rejects_a_constant_cocycle(tmp_path, capsys):
    x2 = tmp_path / "x2.model"
    x2.write_text("generator x 2\n")
    assert main(["koszul", str(x2), "--by", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: Koszul cocycle must be homogeneous of positive even degree, got 1\n"
    )


def test_koszul_check_lists_its_bases_under_the_cap(tmp_path, capsys):
    # the zero-divisor check of a^15 to degree 30 needs degrees up to 60;
    # k[a..f] has C(k+5, 5) words in degree 2k, so degree 6 is the first over 50
    model = tmp_path / "six.model"
    model.write_text("".join(f"generator {name} 2\n" for name in "abcdef"))
    start = time.perf_counter()
    assert main(["koszul", str(model), "--by", "a^15", "--max", "30", "--cap", "50"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: monomial basis in degree 6 has 56 elements, cap is 50\n"

def test_mult_model_command(cp2_file):
    result = run_cli(["mult-model", cp2_file, "--json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert all(report["verdicts"].values())
    assert report["details"]["suspension_differentials"]["sv"] == "v_1 - v_2"


def test_mult_model_reports_a_failed_chain_map_and_exits_1(cp2_file, monkeypatch, capsys):
    # phi sends v_2 to 2v, so phi(D sv) = -v differs from d(phi sv) = 0: the
    # verification fails and is reported, it is not an input error
    from sullivan import models
    from sullivan.calculus import Morphism

    build = models.multiplication_model

    def broken(model, max_degree=None):
        mm = build(model, max_degree)
        values = dict(mm.phi.values, v_2=2 * mm.target.algebra.gen("v"))
        return mm._replace(phi=Morphism(mm.phi.source, mm.phi.target, values))

    monkeypatch.setattr(models, "multiplication_model", broken)
    assert main(["mult-model", cp2_file]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert "chain_map: FAIL" in out.splitlines()
    assert "quasi_iso_indecomposables: FAIL" in out.splitlines()
    assert main(["mult-model", cp2_file, "--json"]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts["chain_map"] is False and verdicts["quasi_iso_indecomposables"] is False
    assert verdicts["d_squared_zero"] is True and verdicts["minimal"] is True


def test_mult_model_refuses_names_that_collide_under_the_copy_scheme(tmp_path, capsys):
    # the copy sa_1 of sa and the suspension sa_1 of a_1
    path = tmp_path / "collide.model"
    path.write_text("generator a_1 3\ngenerator sa 3\n")
    assert main(["mult-model", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: duplicate generator name 'sa_1'\n")


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
    negative = run_cli(["witness", s3s3_file, "--k-max", "-3", "--json"])
    assert (negative.returncode, negative.stdout) == (2, "")
    assert negative.stderr == "error: --k-max must be non-negative\n"


def test_recipe_unknown_exits_two():
    assert run_cli(["recipe", "torus"]).returncode == 2
    out_of_range = run_cli(["recipe", "cpn", "0"])
    assert (out_of_range.returncode, out_of_range.stderr) == (2, "error: truncated_poly needs n >= 1\n")


def test_basis_cap_flag(s3s3_file):
    result = run_cli(["loop-betti", s3s3_file, "--max", "12", "--cap", "3"])
    assert result.returncode == 2
    assert "cap" in result.stderr


def test_negative_cap_is_rejected(capsys, cp2_file):
    assert main(["betti", cp2_file, "--cap", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --cap must be non-negative\n")


@pytest.mark.parametrize("argv, message", [
    (["cpn", "x"], "cpn parameter 'x' is not an integer"),
    (["product", "cpn:x", "odd-sphere:1"], "cpn parameter 'x' is not an integer"),
    (["cpn", "1" * (DIGIT_LIMIT + 1)], f"cpn parameter is not an integer of at most {DIGIT_LIMIT} digits"),
    (["cpn", "1_0"], "cpn parameter '1_0' is not an integer"),
    (["cpn", "+4"], "cpn parameter '+4' is not an integer"),
    (["cpn", "\uff14"], "cpn parameter '\uff14' is not an integer"),
    (["cpn", "\u0662"], "cpn parameter '\u0662' is not an integer"),
], ids=["letter", "product-spec", "past-digit-limit", "underscore", "plus-sign", "fullwidth-digit",
        "arabic-indic-digit"])
def test_recipe_parameter_must_be_an_integer(capsys, argv, message):
    assert main(["recipe", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_recipe_parameter_is_held_to_the_digit_limit_without_the_interpreter_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = main(["recipe", "cpn", "1" * (DIGIT_LIMIT + 1)])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    message = f"cpn parameter is not an integer of at most {DIGIT_LIMIT} digits"
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("window", [str(2**63 - 1), str(10**12)])
@pytest.mark.parametrize("command, model", [
    (["betti"], "generator x 2\n"),
    (["loop-betti"], "generator x 2\n"),
    (["koszul", "--by", "x^2"], "generator x 2\n"),
    (["witness"], "generator v_1 3\ngenerator v_2 3\n"),
], ids=["betti", "loop-betti", "koszul", "witness"])
def test_a_window_too_large_to_count_is_an_input_error(tmp_path, capsys, command, model, window):
    path = tmp_path / "m.model"
    path.write_text(model, encoding="utf-8")
    assert main([command[0], str(path), *command[1:], "--max", window]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot build a monomial count table for degrees 0..")
    assert err.count("\n") == 1


def test_mult_model_checks_the_chain_map_once(cp2_file, monkeypatch, capsys):
    from sullivan import calculus, cli, homology

    calls = []
    check = calculus.check_chain_map

    def counted(*args):
        calls.append(args)
        return check(*args)

    for module in (calculus, cli, homology):
        monkeypatch.setattr(module, "check_chain_map", counted)
    assert main(["mult-model", cp2_file]) == 0
    assert "chain_map: ok" in capsys.readouterr().out.splitlines()
    assert len(calls) == 1


def test_json_reports_are_byte_identical_across_runs(cp2_file):
    first = run_cli(["betti", cp2_file, "--max", "10", "--json"])
    second = run_cli(["betti", cp2_file, "--max", "10", "--json"])
    assert first.stdout == second.stdout


def test_main_callable_in_process(capsys, cp2_file):
    code = main(["betti", cp2_file, "--max", "6", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["betti"] == [1, 0, 1, 0, 1, 0, 0]


@pytest.mark.parametrize("form, str_calls", [(["--json"], 0), ([], 4)], ids=["json", "text"])
def test_a_run_formats_only_the_form_it_writes(form, str_calls, tmp_path, monkeypatch, capsys):
    # H* of k[x] to degree 6 has the four classes 1, x, x^2, x^3: each is
    # sorted once, and passed to str only for the text it is written in
    from sullivan.algebra import Element

    calls = {}
    for name in ("__str__", "sorted_terms"):
        def counted(self, _original=getattr(Element, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(self)

        monkeypatch.setattr(Element, name, counted)
    model = tmp_path / "x2.model"
    model.write_text("generator x 2\n")
    assert main(["betti", str(model), "--max", "6", *form]) == 0
    assert capsys.readouterr().out
    assert (calls.get("__str__", 0), calls.get("sorted_terms", 0)) == (str_calls, 4)


def test_canonical_json_writes_a_class_as_its_sorted_pairs():
    from fractions import Fraction

    from sullivan.algebra import FreeGradedAlgebra, Generator
    from sullivan.cli import canonical_json

    algebra = FreeGradedAlgebra([Generator("a", 2), Generator("b", 2)])
    a, b = algebra.gen("a"), algebra.gen("b")
    report = {"representatives": [[a * b + Fraction(-1, 2) * a * a]], "betti": (1, 2**60)}
    assert canonical_json(report) == (
        '{"betti":[1,"1152921504606846976"],"representatives":[[[["a*b","1"],["a^2","-1/2"]]]]}\n'
    )
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json({"betti": Fraction(1, 2)})


def test_removed_seed_option_is_rejected(capsys, cp2_file):
    with pytest.raises(SystemExit) as info:
        main(["betti", cp2_file, "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


OPTIONS = {
    "verify": {"--json"},
    "betti": {"--json", "--max", "--cap"},
    "loop": {"--json", "-o"},
    "loop-betti": {"--json", "--max", "--cap"},
    "tensor": {"--json", "-o"},
    "quotient": {"--json", "--kill", "-o"},
    "koszul": {"--json", "--max", "--cap", "--by", "-o"},
    "mult-model": {"--json", "--max", "-o"},
    "witness": {"--json", "--max", "--cap", "--k-max"},
    "series": {"--json", "--max", "--cap", "--rational", "--betti-of"},
    "recipe": {"--json", "-o"},
}


# arguments each subcommand requires, so that only the option under test can fail
REQUIRED = {"koszul": ["--by", "x"], "series": ["--rational", "1"], "quotient": ["--kill", "v"],
            "tensor": ["a", "b"], "recipe": ["cpn", "2"]}


def test_each_subcommand_takes_only_the_options_it_reads():
    (subcommands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {a.option_strings[0] for a in parser._actions if a.option_strings and a.dest != "help"}
        for name, parser in subcommands.choices.items()
    }
    assert found == OPTIONS


@pytest.mark.parametrize("command", sorted(c for c, options in OPTIONS.items() if "--max" in options))
def test_negative_window_exits_two(command, capsys):
    assert main([command, *REQUIRED.get(command, []), "--max", "-1"]) == 2
    assert capsys.readouterr().err == "error: --max must be non-negative\n"


@pytest.mark.parametrize("option, command", [("--max", "betti"), ("--cap", "betti"), ("--k-max", "witness")])
@pytest.mark.parametrize("value", ["１６", "1_6", "+16", " 16", "16 ", "1.0", ""],
                         ids=["fullwidth", "underscore", "plus", "leading-space", "trailing-space",
                              "decimal", "empty"])
def test_integer_option_reads_only_ascii_digits(option, command, value, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "-", option, value])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"sullivan {command}: error: argument {option}: invalid int value: {value!r}")


@pytest.mark.parametrize("option, command", [("--max", "betti"), ("--cap", "betti"), ("--k-max", "witness")])
def test_integer_option_longer_than_the_digit_limit_is_not_echoed(option, command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "-", option, "1" * (DIGIT_LIMIT + 1)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (f"sullivan {command}: error: argument {option}: "
                                    f"invalid int value: more than {DIGIT_LIMIT} characters")
    assert len(err) < 200


@pytest.mark.parametrize("command", sorted(c for c, options in OPTIONS.items() if "--max" not in options))
def test_window_option_is_rejected_where_nothing_reads_it(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, *REQUIRED.get(command, []), "--max", "4"])
    assert info.value.code == 2
    assert "unrecognized arguments: --max" in capsys.readouterr().err


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


def test_verify_rejects_multi_term_power_before_expanding(tmp_path):
    model = tmp_path / "huge.model"
    model.write_text("generator v 2\ngenerator u 2\ngenerator w 3\nd w = (v+u)^100000\n")
    # the timeout only guards against a hang; the check is the exit code
    result = run_cli(["verify", str(model)], timeout=60)
    assert result.returncode == 2
    assert result.stderr == "error: line 4, column 13: d w has degree 200000, expected 4\n"


def test_verify_rejects_power_with_constant_term_before_expanding(tmp_path):
    model = tmp_path / "huge.model"
    model.write_text("generator v 2\ngenerator w 3\nd w = (1+v)^100000\n")
    # the timeout only guards against a hang; the check is the exit code
    result = run_cli(["verify", str(model)], timeout=60)
    assert result.returncode == 2
    assert result.stderr == "error: line 3, column 13: d w has terms up to degree 200000, expected 4\n"


@pytest.mark.parametrize("argv, column", [
    (["verify", "{model}"], 9),
    (["koszul", "{x2}", "--by", "7^100000000"], 3),
])
def test_huge_power_of_a_constant_exits_two_at_once(argv, column, tmp_path, capsys):
    model = tmp_path / "huge.model"
    model.write_text("generator v 2\ngenerator w 3\nd w = 7^100000000\n")
    x2 = tmp_path / "x2.model"
    x2.write_text("generator x 2\n")
    argv = [a.format(model=model, x2=x2) for a in argv]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    line = 3 if argv[0] == "verify" else 1
    assert capsys.readouterr().err == (
        f"error: line {line}, column {column}: coefficient 7^100000000 has more than "
        f"{DIGIT_LIMIT} digits\n"
    )
    # the timeout only guards against a hang; the check is the exit code
    assert run_cli(argv, timeout=60).returncode == 2


def test_koszul_power_past_the_window_exits_two_at_once(tmp_path, capsys):
    xy = tmp_path / "xy.model"
    xy.write_text("generator x 2\ngenerator y 2\n")
    argv = ["koszul", str(xy), "--by", "(x+y)^100000", "--max", "4"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: line 1, column 7: power has terms up to degree 200000, above degree 5\n"
    )
    # the default window bounds the power too; the timeout only guards against a hang
    result = run_cli(argv[:4], timeout=60)
    assert result.returncode == 2
    assert result.stderr == "error: line 1, column 7: power has terms up to degree 200000, above degree 17\n"


_LONG = "1" * (DIGIT_LIMIT + 1)


@pytest.mark.parametrize("argv, message", [
    (["verify", "{model}"], f"line 3, column 7: coefficient has more than {DIGIT_LIMIT} digits"),
    (["verify", "{power}"], f"line 3, column 9: exponent has more than {DIGIT_LIMIT} digits"),
    (["series", "--rational", f"1/(1-{_LONG}*z)"], f"integer has more than {DIGIT_LIMIT} digits"),
    (["series", "--rational", f"(1+z)^{_LONG}"], f"exponent has more than {DIGIT_LIMIT} digits"),
])
def test_integer_literal_past_the_digit_limit_exits_two(argv, message, tmp_path, capsys):
    model = tmp_path / "long.model"
    model.write_text(f"generator v 2\ngenerator w 3\nd w = {_LONG}*v^2\n")
    power = tmp_path / "power.model"
    power.write_text(f"generator v 2\ngenerator w 3\nd w = v^{_LONG}\n")
    argv = [a.format(model=model, power=power) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("rational, out", [
    ("z^100000000", "series 0,0,0,0,0\n"),
    ("(1+z)^100000", "series 1,100000,4999950000,166661666700000,4166416671249975000\n"),
    ("1/(1-z)^100000000", "series 1,100000000,5000000050000000,"
     "166666671666666700000000,4166666916666671250000025000000\n"),
    ("(1+z)^3000", "series 1,3000,4498500,4495501000,3368254124250\n"),
])
def test_series_of_a_huge_power_is_truncated_before_expansion(rational, out, capsys):
    start = time.perf_counter()
    assert main(["series", "--rational", rational, "--max", "4"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == out
    # the timeout only guards against a hang; the check is the output
    result = run_cli(["series", "--rational", rational, "--max", "4"], timeout=60)
    assert (result.returncode, result.stdout) == (0, out)


@pytest.mark.parametrize("rational, message", [
    ("(2+z)^100000000", f"a coefficient has more than {DIGIT_LIMIT} digits"),
    ("1/(1-10^5000*z)", f"a coefficient has more than {DIGIT_LIMIT} digits"),
])
def test_series_with_a_coefficient_past_the_digit_limit_exits_two_at_once(rational, message, capsys):
    start = time.perf_counter()
    assert main(["series", "--rational", rational, "--max", "4"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"
    # the timeout only guards against a hang; the check is the exit code
    assert run_cli(["series", "--rational", rational, "--max", "4"], timeout=60).returncode == 2


@pytest.mark.parametrize("argv", [
    ["loop", "{cp2}"],
    ["tensor", "{cp2}", "{x2}"],
    ["quotient", "{cp2}", "--kill", "w"],
    ["koszul", "{x2}", "--by", "x^3", "--max", "6"],
    ["mult-model", "{cp2}", "--max", "6"],
    ["recipe", "cpn", "2"],
])
@pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
def test_json_with_output_file_writes_the_model_file(argv, to_stdout, cp2_file, tmp_path, capsys):
    """Where the model text goes in text and `--json` mode: with no `-o`, and
    with `-o -` (stdout) or `-o FILE` (file)."""
    x2 = tmp_path / "x2.model"
    x2.write_text("generator x 2\n")
    out = tmp_path / "out.model"
    argv = [a.format(cp2=cp2_file, x2=x2) for a in argv]

    def run(*options):
        out.unlink(missing_ok=True)
        code = main(argv + list(options))
        return code, capsys.readouterr().out, out.read_text() if out.exists() else None

    code, report_text, _ = run("--json")
    model = json.loads(report_text)["model_file"]
    assert code == 0 and model
    # koszul and mult-model write text lines; the other commands write the model
    code, text, _ = run()
    lines = text if argv[0] in ("koszul", "mult-model") else ""
    assert (code, text) == (0, lines or model)
    assert model not in lines
    if to_stdout:
        assert run("-o", "-") == (0, model + lines, None)
        # with `--json`, stdout holds the report alone
        assert run("--json", "-o", "-") == (0, report_text, None)
    else:
        assert run("-o", str(out)) == (0, lines, model)
        assert run("--json", "-o", str(out)) == (0, report_text, model)


@pytest.mark.parametrize("command", [["loop", "{cp2}"], ["mult-model", "{cp2}", "--max", "6"]])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_unwritable_output_file_exits_two_with_nothing_on_stdout(command, json_flag, cp2_file, tmp_path, capsys):
    target = tmp_path / "missing" / "out.model"
    argv = [a.format(cp2=cp2_file) for a in command] + json_flag + ["-o", str(target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory")


_NINES = "9" * 3000


@pytest.mark.parametrize("argv, message", [
    (["verify", "{products}"], f"line 3, column 7: coefficient has more than {DIGIT_LIMIT} digits"),
    (["verify", "{sums}"], f"line 3, column 7: coefficient has more than {DIGIT_LIMIT} digits"),
    (["koszul", "{x2}", "--by", f"{_NINES}*{_NINES}*x"],
     f"line 1, column 1: coefficient has more than {DIGIT_LIMIT} digits"),
    (["koszul", "{x2}", "--by", "x*x*x", "--max", "1"],
     "line 1, column 1: element has terms up to degree 6, above degree 2"),
])
def test_parsed_values_past_a_limit_exit_two_with_a_position(argv, message, tmp_path, capsys):
    products = tmp_path / "products.model"
    products.write_text(f"generator v 2\ngenerator w 5\nd w = {_NINES}*{_NINES}*v^3\n")
    sums = tmp_path / "sums.model"
    sums.write_text(f"generator v 2\ngenerator w 5\nd w = {'9' * DIGIT_LIMIT}*v^3 + v^3\n")
    x2 = tmp_path / "x2.model"
    x2.write_text("generator x 2\n")
    argv = [a.format(products=products, sums=sums, x2=x2) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _nested(depth, inner):
    return "(" * depth + inner + ")" * depth


@pytest.mark.parametrize("argv, column", [
    (["verify", "{model}"], 107),
    (["koszul", "{x2}", "--by", "{by}"], 101),
    (["series", "--rational", "{rational}"], None),
])
def test_parentheses_nested_past_the_limit_exit_two(argv, column, tmp_path, capsys):
    def run(depth):
        model = tmp_path / "nested.model"
        model.write_text(f"generator v 2\ngenerator w 3\nd w = {_nested(depth, 'v^2')}\n")
        x2 = tmp_path / "x2.model"
        x2.write_text("generator x 2\n")
        filled = [a.format(model=model, x2=x2, by=_nested(depth, "x"),
                           rational="1/" + _nested(depth, "1-z")) for a in argv]
        return main(filled), capsys.readouterr().err

    assert run(NESTING_LIMIT) == (0, "")
    position = "" if column is None else f"line {3 if argv[0] == 'verify' else 1}, column {column}: "
    for depth in (NESTING_LIMIT + 1, 1000):
        assert run(depth) == (2, f"error: {position}parentheses nested deeper than {NESTING_LIMIT}\n")
